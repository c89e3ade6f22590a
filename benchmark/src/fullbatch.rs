//! The full-batch workloads: set-up, the outside-driven epoch loop, its
//! checks against the trainer and serial oracles, and the traced probes.

use crate::outcome::Outcome;
use crate::probes::{self, record_ranks};
use crate::rig::{self, slowest, summed, RankTiming, Rig};
use crate::stats::{median, rss_mib};
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload, BATCH_DIVISOR, INSTANCE_SEED};
use crate::{Opts, ORACLE_STEPS, SETUP_REPS};
use pargcn_comm::{CommCounters, CommSession};
use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_matrix::{Csr, Dense};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{partition_rows, Method, Partition, DEFAULT_EPSILON};
use std::time::Instant;

/// The HP partition and both direction plans.
pub struct Prepared {
    pub part: Partition,
    pub plan_f: CommPlan,
    pub plan_b: CommPlan,
}

/// Normalization, partitioning and plan building, each in its own span.
pub fn prepare(tr: &mut Tracer, w: &Workload, inp: &Inputs) -> Prepared {
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
    let ((plan_f, plan_b), _) = tr.time("plan.build", 0, || build_plans(&inp.graph, &a, &part));
    Prepared {
        part,
        plan_f,
        plan_b,
    }
}

/// Both direction plans, as `train_full_batch_spec` builds them.
pub fn build_plans(graph: &pargcn_graph::Graph, a: &Csr, part: &Partition) -> (CommPlan, CommPlan) {
    let plan_f = CommPlan::build(a, part);
    let plan_b = if graph.directed() {
        CommPlan::build(&a.transpose(), part)
    } else {
        plan_f.clone()
    };
    (plan_f, plan_b)
}

/// Point-to-point bytes and messages one epoch must send under the plans
/// (`SpmmFirst`: forward layer k carries d_{k−1}-wide rows, backward
/// layer k carries d_k-wide rows).
pub fn predicted_p2p(plan_f: &CommPlan, plan_b: &CommPlan, config: &GcnConfig) -> (u64, u64) {
    let dims = &config.dims;
    let layers = config.layers() as u64;
    let bytes = (1..=config.layers())
        .map(|k| {
            4 * (plan_f.total_volume_rows() * dims[k - 1] as u64
                + plan_b.total_volume_rows() * dims[k] as u64)
        })
        .sum();
    (
        bytes,
        layers * (plan_f.total_messages() + plan_b.total_messages()),
    )
}

/// Max over ranks of local nonzeros (own plus remote blocks) over the mean.
pub fn nnz_imbalance(plan: &CommPlan) -> f64 {
    let nnz: Vec<f64> = plan
        .ranks
        .iter()
        .map(|r| (r.a_own.nnz() + r.a_remote.iter().map(|b| b.a.nnz()).sum::<usize>()) as f64)
        .collect();
    let mean = nnz.iter().sum::<f64>() / nnz.len() as f64;
    nnz.iter().copied().fold(0.0, f64::max) / mean
}

/// Per-rank timings of the set-up's rank-side phases.
pub struct SetupTimes {
    pub total: f64,
    /// Per rank: slicing plus `init`.
    pub init: Vec<f64>,
    pub first: Vec<RankTiming>,
}

/// Builds everything from the generated inputs up to the end of the first
/// (cold) epoch — normalization, partition, plans, then [`with_rig`] —
/// and hands the live rig to `then`. `total` is the set-up time.
pub fn with_setup<R>(
    tr: &mut Tracer,
    w: &Workload,
    inp: &Inputs,
    config: &GcnConfig,
    seed: u64,
    then: impl FnOnce(&mut Tracer, &Prepared, &mut Rig<'_>, SetupTimes) -> R,
) -> R {
    let start = Instant::now();
    let prep = prepare(tr, w, inp);
    let data = (&inp.h0, &inp.labels[..], &inp.mask[..]);
    with_rig(
        tr,
        w,
        config,
        seed,
        (&prep.plan_f, &prep.plan_b),
        data,
        |tr, rig, mut s| {
            s.total = start.elapsed().as_secs_f64();
            then(tr, &prep, rig, s)
        },
    )
}

/// Spawns the session, slices every rank's rows, initialises the ranks
/// and runs the first (cold) epoch over the given plans and data, then
/// hands the live rig to `then`.
pub fn with_rig<R>(
    tr: &mut Tracer,
    w: &Workload,
    config: &GcnConfig,
    seed: u64,
    (plan_f, plan_b): (&CommPlan, &CommPlan),
    (h0, labels, mask): (&Dense, &[u32], &[bool]),
    then: impl FnOnce(&mut Tracer, &mut Rig<'_>, SetupTimes) -> R,
) -> R {
    let start = Instant::now();
    let (session, _) = tr.time("comm.spawn", 0, || CommSession::new(w.p));
    let ((locals, slice_s), _) = tr.time("dist.slice", 0, || rig::slice(plan_f, h0, labels, mask));
    let mut rig = Rig::new(
        session,
        plan_f,
        plan_b,
        &locals,
        config,
        w.spec(),
        seed,
        tr.origin(),
    );
    let init: Vec<f64> = rig
        .init()
        .iter()
        .zip(&slice_s)
        .map(|(i, s)| i + s)
        .collect();
    let first = rig.step();
    let total = start.elapsed().as_secs_f64();
    record_ranks(tr, "dist.first_step", 0, &first);
    then(tr, &mut rig, SetupTimes { total, init, first })
}

/// One epoch of a timed loop.
pub struct Step {
    /// Slowest rank's epoch time.
    pub seconds: f64,
    /// Main-thread time for the epoch, span recording included.
    pub wall: f64,
    /// Whether spans were recorded for it.
    pub traced: bool,
    pub ranks: Vec<RankTiming>,
}

/// The epochs of one timed loop.
pub struct Loop(pub Vec<Step>);

impl Loop {
    /// The traced or the untraced epochs.
    pub fn part(&self, traced: bool) -> Vec<&Step> {
        self.0.iter().filter(|s| s.traced == traced).collect()
    }
}

/// Counter changes summed over ranks and steps.
pub fn totals(steps: &[&Step]) -> CommCounters {
    let all: Vec<CommCounters> = steps
        .iter()
        .flat_map(|s| &s.ranks)
        .map(|r| r.delta.clone())
        .collect();
    CommCounters::merged(&all)
}

/// Runs epochs until `budget` seconds have passed (at least `min`),
/// checking each epoch's point-to-point traffic against the plans and its
/// collective traffic against the loop's first epoch. With a span name,
/// every other epoch is traced, so traced and untraced epochs see the same
/// conditions.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    rig: &mut Rig<'_>,
    tr: &mut Tracer,
    span: Option<&'static str>,
    budget: f64,
    min: usize,
    expect: (u64, u64),
    losses: &mut Vec<f64>,
    out: &mut Outcome,
) -> Loop {
    let mut steps: Vec<Step> = Vec::new();
    let start = Instant::now();
    while steps.len() < min || start.elapsed().as_secs_f64() < budget {
        let t0 = tr.now();
        let ranks = rig.step();
        let step = losses.len() as u64;
        let traced = span.is_some() && steps.len() % 2 == 1;
        if let (Some(name), true) = (span, traced) {
            record_ranks(tr, name, step, &ranks);
        }
        let wall = tr.now() - t0;
        let c = summed(&ranks);
        out.check((c.sent_bytes, c.sent_messages) == expect, || {
            format!(
                "epoch {step}: p2p (bytes, msgs) = ({}, {}), plan predicts {expect:?}",
                c.sent_bytes, c.sent_messages
            )
        });
        if let Some(first) = steps.first() {
            let f = summed(&first.ranks);
            out.check(
                (c.collective_bytes, c.collective_messages)
                    == (f.collective_bytes, f.collective_messages),
                || format!("epoch {step}: collective counts differ from the first timed epoch"),
            );
        }
        losses.push(ranks[0].loss);
        steps.push(Step {
            seconds: slowest(&ranks).seconds(),
            wall,
            traced,
            ranks,
        });
    }
    out.attempted += steps.len() as u64;
    Loop(steps)
}

pub fn run(w: &Workload, inp: &Inputs, o: &Opts, tr: &mut Tracer, config: &GcnConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    // Throwaway set-ups: set-up time is the median over SETUP_REPS.
    for _ in 1..if o.traced { 1 } else { SETUP_REPS } {
        let s = with_setup(
            &mut Tracer::new(false),
            w,
            inp,
            config,
            o.seed,
            |_, _, _, s| s.total,
        );
        setup.push(s);
        out.attempted += 1;
    }
    with_setup(tr, w, inp, config, o.seed, |tr, prep, rig, s| {
        setup.push(s.total);
        out.attempted += 1;
        let setup_rss = rss_mib();
        let expect = predicted_p2p(&prep.plan_f, &prep.plan_b, config);
        let mut losses = vec![s.first[0].loss];

        run_loop(
            rig,
            tr,
            None,
            0.1 * o.seconds,
            3,
            expect,
            &mut losses,
            &mut out,
        );
        let span = o.traced.then_some("dist.epoch");
        let lp = run_loop(rig, tr, span, o.seconds, 6, expect, &mut losses, &mut out);
        let plain = lp.part(false);
        let seconds: Vec<f64> = plain.iter().map(|s| s.seconds).collect();
        let step_s = median(&seconds);
        out.put_end_to_end(&seconds, &setup, plain.len() as f64, &totals(&plain));

        if o.traced {
            per_layer_from_setup(tr, prep, &s, setup_rss, &mut out);
            per_layer_from_loop(&lp, &mut out);
            let traced_s: Vec<f64> = lp.part(true).iter().map(|s| s.seconds).collect();
            probes::layers(rig, tr, config, median(&traced_s), &mut out);
            // What a mini-batch of this graph would cost to prepare.
            let sampler = Sampler::UniformVertex {
                batch_size: inp.graph.n() / BATCH_DIVISOR,
            };
            let batches = sample_batches(&inp.graph, sampler, 8, o.seed.wrapping_add(1));
            let (prep_s, volume) = probes::batch_prep(tr, &inp.graph, &prep.part, &batches);
            put_prep(&mut out, median(&prep_s), volume, step_s);
        }
        out.check_losses_finite(&losses);
        check_against_oracles(w, inp, config, o.seed, &prep.part, &losses, &mut out);
    });
    out
}

fn span_s(tr: &Tracer, name: &str) -> f64 {
    median(&tr.seconds(name))
}

fn per_layer_from_setup(
    tr: &Tracer,
    prep: &Prepared,
    s: &SetupTimes,
    setup_rss: f64,
    out: &mut Outcome,
) {
    out.put("graph.normalize_s", span_s(tr, "graph.normalize"), "s");
    out.put("partition.s", span_s(tr, "partition"), "s");
    out.put(
        "partition.volume_rows",
        prep.plan_f.total_volume_rows() as f64,
        "rows",
    );
    out.put(
        "partition.nnz_imbalance",
        nnz_imbalance(&prep.plan_f),
        "ratio",
    );
    out.put("plan.build_s", span_s(tr, "plan.build"), "s");
    out.put("comm.spawn_s", span_s(tr, "comm.spawn"), "s");
    out.put(
        "dist.init_s",
        s.init.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.put("dist.first_step_s", slowest(&s.first).seconds(), "s");
    out.put("mem.setup_rss_mib", setup_rss, "MiB");
}

/// Per-step comm, dist and matrix metrics of the loop's traced epochs;
/// `trace.overhead` compares their main-thread time with the untraced
/// epochs interleaved with them.
fn per_layer_from_loop(lp: &Loop, out: &mut Outcome) {
    let steps = lp.part(true);
    let per_step = |f: &dyn Fn(&Step) -> f64| -> f64 {
        median(&steps.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let wait = |s: &Step| slowest(&s.ranks).delta.comm_seconds;
    let skew = |s: &Step| {
        let busy = s.ranks.iter().map(RankTiming::busy);
        busy.clone().fold(0.0, f64::max) / busy.fold(f64::INFINITY, f64::min)
    };
    let seconds: Vec<f64> = steps.iter().map(|s| s.seconds).collect();
    let wall = |traced: bool| median(&lp.part(traced).iter().map(|s| s.wall).collect::<Vec<_>>());
    let flops: u64 = steps.iter().flat_map(|s| &s.ranks).map(|r| r.flops).sum();
    out.put("comm.wait_s", per_step(&wait), "s");
    out.put(
        "comm.wait_frac",
        per_step(&|s| wait(s) / s.seconds),
        "ratio",
    );
    out.put("dist.rank_skew", per_step(&skew), "ratio");
    let overhead = wall(true) / wall(false);
    out.put_traced_loop(
        &totals(&steps),
        flops,
        steps.len() as f64,
        &seconds,
        overhead,
    );
}

pub fn put_prep(out: &mut Outcome, prep_s: f64, volume: f64, step_s: f64) {
    out.put("minibatch.prep_s", prep_s, "s");
    out.put("minibatch.prep_over_step", prep_s / step_s, "ratio");
    out.put("minibatch.volume_rows_per_batch", volume, "rows");
}

/// The loop's first epochs must reproduce `train_full_batch_spec` bitwise
/// and the serial trainer within the equivalence suite's tolerance.
fn check_against_oracles(
    w: &Workload,
    inp: &Inputs,
    config: &GcnConfig,
    seed: u64,
    part: &Partition,
    losses: &[f64],
    out: &mut Outcome,
) {
    let ours = &losses[..ORACLE_STEPS.min(losses.len())];
    let dist = train_full_batch_spec(
        &inp.graph,
        &inp.h0,
        &inp.labels,
        &inp.mask,
        part,
        config,
        ours.len(),
        seed,
        w.spec(),
    );
    out.check(
        dist.losses
            .iter()
            .map(|l| l.to_bits())
            .eq(ours.iter().map(|l| l.to_bits())),
        || {
            format!(
                "losses {ours:?} differ from train_full_batch_spec {:?}",
                dist.losses
            )
        },
    );
    let mut serial = SerialTrainer::new(&inp.graph, config.clone(), seed);
    for (e, &d) in ours.iter().enumerate() {
        let s = serial.train_epoch(&inp.h0, &inp.labels, &inp.mask);
        out.check((s - d).abs() < 1e-3 * (1.0 + s.abs()), || {
            format!("epoch {e}: loss {d} differs from the serial trainer's {s}")
        });
    }
}
