//! The mini-batch workload: one `MinibatchEngine` trains a fixed cycle of
//! batches per `train` call, so batch preparation stays pipelined under
//! training; per-batch figures are a call's totals over the cycle length.

use crate::fullbatch::{build_plans, nnz_imbalance, predicted_p2p, put_prep, with_rig};
use crate::outcome::Outcome;
use crate::probes;
use crate::rig::{counters_delta, slowest};
use crate::stats::{median, rss_mib};
use crate::trace::{Tracer, MAIN};
use crate::workload::{Inputs, Workload, CYCLE, INSTANCE_SEED};
use crate::{Opts, ORACLE_STEPS, SETUP_REPS};
use pargcn_comm::CommCounters;
use pargcn_core::minibatch::{restrict_partition, train_spec, MinibatchEngine};
use pargcn_core::GcnConfig;
use pargcn_matrix::{gather, norm};
use pargcn_partition::{partition_rows, Method, Partition, DEFAULT_EPSILON};
use pargcn_util::json::Json;
use std::time::Instant;

/// Normalization, partition, `MinibatchEngine::new` and the first (cold)
/// batch; hands the live engine, the partition and the set-up time and
/// first loss to `then`.
fn with_engine<R>(
    tr: &mut Tracer,
    w: &Workload,
    inp: &Inputs,
    config: &GcnConfig,
    seed: u64,
    then: impl FnOnce(&mut Tracer, &Partition, &mut MinibatchEngine<'_>, f64, f64) -> R,
) -> R {
    let start = Instant::now();
    let (a, _) = tr.time("graph.normalize", 0, || inp.graph.normalized_adjacency());
    let (part, _) = tr.time("partition", 0, || {
        partition_rows(
            &inp.graph,
            &a,
            Method::Hp,
            w.p,
            DEFAULT_EPSILON,
            INSTANCE_SEED,
        )
    });
    drop(a);
    let (mut engine, _) = tr.time("minibatch.engine_new", 0, || {
        MinibatchEngine::new(
            &inp.graph,
            &inp.h0,
            &inp.labels,
            &inp.mask,
            &part,
            config,
            seed,
            w.spec(),
        )
    });
    let (first, _) = tr.time("minibatch.first_batch", 0, || {
        engine.train(&inp.batches[..1])
    });
    let total = start.elapsed().as_secs_f64();
    then(tr, &part, &mut engine, total, first.losses[0])
}

/// One timed `train` call over the cycle.
struct Cycle {
    /// The call's time over the cycle length.
    per_batch_s: f64,
    /// Main-thread time for the call, span recording included.
    wall: f64,
    traced: bool,
    /// Per-rank counter changes over the call.
    deltas: Vec<CommCounters>,
}

/// The traced or the untraced cycles of a loop.
fn select(cycles: &[Cycle], traced: bool) -> Vec<&Cycle> {
    cycles.iter().filter(|c| c.traced == traced).collect()
}

/// Counter changes summed over ranks and cycles.
fn totals(cycles: &[&Cycle]) -> CommCounters {
    let all: Vec<CommCounters> = cycles
        .iter()
        .flat_map(|c| c.deltas.iter().cloned())
        .collect();
    CommCounters::merged(&all)
}

/// Trains the cycle until `budget` seconds have passed (at least `min`
/// times), checking each call's point-to-point traffic against the plans
/// and its collective traffic against the first call. With a span name,
/// every other call is traced.
#[allow(clippy::too_many_arguments)]
fn run_cycles(
    engine: &mut MinibatchEngine<'_>,
    cycle: &[Vec<u32>],
    tr: &mut Tracer,
    span: Option<&'static str>,
    budget: f64,
    min: usize,
    expect: (u64, u64),
    losses: &mut Vec<f64>,
    out: &mut Outcome,
) -> Vec<Cycle> {
    let mut cycles: Vec<Cycle> = Vec::new();
    let start = Instant::now();
    while cycles.len() < min || start.elapsed().as_secs_f64() < budget {
        let before = engine.counters();
        let t0 = tr.now();
        let res = engine.train(cycle);
        let t1 = tr.now();
        let call = cycles.len();
        let traced = span.is_some() && call % 2 == 1;
        if let (Some(name), true) = (span, traced) {
            tr.record(name, MAIN, call as u64, t0, t1);
        }
        let wall = tr.now() - t0;
        let deltas: Vec<CommCounters> = engine
            .counters()
            .iter()
            .zip(&before)
            .map(|(a, b)| counters_delta(a, b))
            .collect();
        let c = CommCounters::merged(&deltas);
        out.check((c.sent_bytes, c.sent_messages) == expect, || {
            format!(
                "cycle {call}: p2p (bytes, msgs) = ({}, {}), plans predict {expect:?}",
                c.sent_bytes, c.sent_messages
            )
        });
        out.check(res.skipped_batches == 0, || {
            format!("cycle {call}: skipped batches")
        });
        if let Some(first) = cycles.first() {
            let f = CommCounters::merged(&first.deltas);
            out.check(
                (c.collective_bytes, c.collective_messages)
                    == (f.collective_bytes, f.collective_messages),
                || format!("cycle {call}: collective counts differ from the first timed cycle"),
            );
        }
        losses.extend(&res.losses);
        cycles.push(Cycle {
            per_batch_s: (t1 - t0) / CYCLE as f64,
            wall,
            traced,
            deltas,
        });
    }
    out.attempted += (cycles.len() * CYCLE) as u64;
    cycles
}

/// Point-to-point bytes and messages the cycle's per-batch plans predict.
fn predicted_cycle(
    inp: &Inputs,
    part: &Partition,
    config: &GcnConfig,
    cycle: &[Vec<u32>],
) -> (u64, u64) {
    cycle.iter().fold((0, 0), |(b, m), batch| {
        let sub = inp.graph.induced_subgraph(batch);
        let a = norm::normalize_adjacency(sub.adjacency());
        let (pf, pb) = build_plans(&sub, &a, &restrict_partition(part, batch));
        let (bb, bm) = predicted_p2p(&pf, &pb, config);
        (b + bb, m + bm)
    })
}

pub fn run(w: &Workload, inp: &Inputs, o: &Opts, tr: &mut Tracer, config: &GcnConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    for _ in 1..if o.traced { 1 } else { SETUP_REPS } {
        setup.push(with_engine(
            &mut Tracer::new(false),
            w,
            inp,
            config,
            o.seed,
            |_, _, _, s, _| s,
        ));
        out.attempted += 1;
    }
    let cycle = &inp.batches[1..];
    with_engine(
        tr,
        w,
        inp,
        config,
        o.seed,
        |tr, part, engine, s, first_loss| {
            setup.push(s);
            out.attempted += 1;
            let setup_rss = rss_mib();
            let expect = predicted_cycle(inp, part, config, cycle);
            let mut losses = vec![first_loss];

            run_cycles(
                engine,
                cycle,
                tr,
                None,
                0.0,
                1,
                expect,
                &mut losses,
                &mut out,
            );
            let span = o.traced.then_some("minibatch.cycle");
            let cycles = run_cycles(
                engine,
                cycle,
                tr,
                span,
                o.seconds,
                4,
                expect,
                &mut losses,
                &mut out,
            );
            let plain = select(&cycles, false);
            let seconds: Vec<f64> = plain.iter().map(|c| c.per_batch_s).collect();
            let step_s = median(&seconds);
            let batches = (plain.len() * CYCLE) as f64;
            out.put_end_to_end(&seconds, &setup, batches, &totals(&plain));
            out.note("cycles", Json::Num(plain.len() as f64));

            if o.traced {
                out.put(
                    "graph.normalize_s",
                    median(&tr.seconds("graph.normalize")),
                    "s",
                );
                out.put("partition.s", median(&tr.seconds("partition")), "s");
                let a = inp.graph.normalized_adjacency();
                let (plan_f, _) = build_plans(&inp.graph, &a, part);
                out.put(
                    "partition.volume_rows",
                    plan_f.total_volume_rows() as f64,
                    "rows",
                );
                out.put("partition.nnz_imbalance", nnz_imbalance(&plan_f), "ratio");
                out.put("mem.setup_rss_mib", setup_rss, "MiB");
                per_layer_from_cycles(&cycles, &mut out);
                let (prep_s, volume) = probes::batch_prep(tr, &inp.graph, part, cycle);
                put_prep(&mut out, median(&prep_s), volume, step_s);
                probe_batch(w, inp, config, o.seed, part, tr, &mut out);
            }
            out.check_losses_finite(&losses);
            let k = ORACLE_STEPS.min(losses.len());
            let oracle = train_spec(
                &inp.graph,
                &inp.h0,
                &inp.labels,
                &inp.mask,
                part,
                config,
                &inp.batches[..k],
                o.seed,
                w.spec(),
            );
            let ours = &losses[..k];
            out.check(
                oracle
                    .losses
                    .iter()
                    .map(|l| l.to_bits())
                    .eq(ours.iter().map(|l| l.to_bits())),
                || {
                    format!(
                        "losses {ours:?} differ from minibatch::train_spec {:?}",
                        oracle.losses
                    )
                },
            );
        },
    );
    out
}

/// Per-batch comm, dist and matrix metrics of the traced cycles, from the
/// engine's counters (`compute_seconds` is a rank's time not blocked);
/// `trace.overhead` compares their main-thread time with the untraced
/// cycles interleaved with them.
fn per_layer_from_cycles(cycles: &[Cycle], out: &mut Outcome) {
    let traced = select(cycles, true);
    let per = CYCLE as f64;
    let per_cycle = |f: &dyn Fn(&Cycle) -> f64| -> f64 {
        median(&traced.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    // The rank with the most time inside training steps.
    let busiest = |c: &Cycle| -> CommCounters {
        let time = |d: &CommCounters| d.comm_seconds + d.compute_seconds;
        c.deltas
            .iter()
            .max_by(|a, b| time(a).total_cmp(&time(b)))
            .expect("at least one rank")
            .clone()
    };
    let skew = |c: &Cycle| {
        let busy = c.deltas.iter().map(|d| d.compute_seconds);
        busy.clone().fold(0.0, f64::max) / busy.fold(f64::INFINITY, f64::min)
    };
    let wall = |t: bool| median(&select(cycles, t).iter().map(|c| c.wall).collect::<Vec<_>>());
    let seconds: Vec<f64> = traced.iter().map(|c| c.per_batch_s).collect();
    let wait_frac = |c: &Cycle| {
        let b = busiest(c);
        b.comm_seconds / (b.comm_seconds + b.compute_seconds)
    };
    out.put(
        "comm.wait_s",
        per_cycle(&|c| busiest(c).comm_seconds / per),
        "s",
    );
    out.put("comm.wait_frac", per_cycle(&wait_frac), "ratio");
    out.put("dist.rank_skew", per_cycle(&skew), "ratio");
    let t = totals(&traced);
    let batches = (traced.len() * CYCLE) as f64;
    let overhead = wall(true) / wall(false);
    out.put_traced_loop(&t, t.compute_flops, batches, &seconds, overhead);
}

/// Epochs on the first batch's subgraph through a rig of its own: the
/// plan, comm, dist, matrix and pool probes the engine does not expose.
#[allow(clippy::too_many_arguments)]
fn probe_batch(
    w: &Workload,
    inp: &Inputs,
    config: &GcnConfig,
    seed: u64,
    part: &Partition,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let batch = &inp.batches[0];
    let sub = inp.graph.induced_subgraph(batch);
    let a = norm::normalize_adjacency(sub.adjacency());
    let sub_part = restrict_partition(part, batch);
    let ((plan_f, plan_b), build_s) = tr.time("plan.build", 0, || build_plans(&sub, &a, &sub_part));
    out.put("plan.build_s", build_s, "s");
    let h = gather::gather_rows(&inp.h0, batch);
    let labels: Vec<u32> = batch.iter().map(|&v| inp.labels[v as usize]).collect();
    let mask: Vec<bool> = batch.iter().map(|&v| inp.mask[v as usize]).collect();
    let plans = (&plan_f, &plan_b);
    with_rig(
        tr,
        w,
        config,
        seed,
        plans,
        (&h, &labels, &mask),
        |tr, rig, s| {
            out.put("comm.spawn_s", median(&tr.seconds("comm.spawn")), "s");
            out.put(
                "dist.init_s",
                s.init.iter().copied().fold(0.0, f64::max),
                "s",
            );
            out.put("dist.first_step_s", slowest(&s.first).seconds(), "s");
            let steps: Vec<f64> = (0..20).map(|_| slowest(&rig.step()).seconds()).collect();
            probes::layers(rig, tr, config, median(&steps), out);
        },
    );
}
