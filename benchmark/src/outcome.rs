//! What one run measured and whether its checks held.

use crate::stats::{median, peak_rss_mib, tail};
use pargcn_comm::CommCounters;
use pargcn_util::json::Json;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics, printed by untraced runs.
pub const END_TO_END: [&str; 5] = [
    "step_s",
    "setup_s",
    "wire_mib_per_step",
    "msgs_per_step",
    "peak_rss_mib",
];

/// The per-layer metrics, printed by traced runs.
pub const PER_LAYER: [&str; 33] = [
    "graph.normalize_s",
    "partition.s",
    "partition.volume_rows",
    "partition.nnz_imbalance",
    "plan.build_s",
    "comm.spawn_s",
    "comm.wait_s",
    "comm.wait_frac",
    "comm.p2p_bytes_per_step",
    "comm.p2p_msgs_per_step",
    "comm.coll_bytes_per_step",
    "comm.coll_msgs_per_step",
    "comm.allocs_per_step",
    "comm.allreduce_s",
    "comm.step_sync_s",
    "dist.init_s",
    "dist.first_step_s",
    "dist.fwd_s",
    "dist.bwd_s",
    "dist.exchange_s",
    "dist.rank_skew",
    "dist.step_s_tail",
    "matrix.spmm_s",
    "matrix.spmm_gflops",
    "matrix.gemm_s",
    "matrix.gemm_gflops",
    "matrix.flops_per_step",
    "pool.dispatch_s",
    "minibatch.prep_s",
    "minibatch.prep_over_step",
    "minibatch.volume_rows_per_batch",
    "mem.setup_rss_mib",
    "trace.overhead",
];

/// Metrics, check failures and notes of one run.
#[derive(Default)]
pub struct Outcome {
    /// Training steps run (an epoch for full batch, a batch for
    /// mini-batch), cold first steps included.
    pub attempted: u64,
    /// One line per failed check; empty when every check held.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample counts, tails and other context, printed before the result.
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &'static str, value: Json) {
        self.notes.push((key, value));
    }

    /// Records the tail percentile of `xs` as a note.
    pub fn note_tail(&mut self, key: &'static str, xs: &[f64]) {
        if let Some((q, v)) = tail(xs) {
            let tail = Json::obj(vec![("percentile", Json::Num(q)), ("value", Json::Num(v))]);
            self.note(key, tail);
        }
    }

    /// The end-to-end metrics of an untraced loop: `step_samples` are its
    /// per-step times, `setup` the set-up times, and `t` the counter
    /// changes summed over its `steps` steps and all ranks.
    pub fn put_end_to_end(
        &mut self,
        step_samples: &[f64],
        setup: &[f64],
        steps: f64,
        t: &CommCounters,
    ) {
        let wire = (t.sent_bytes + t.collective_bytes) as f64 / steps / (1u64 << 20) as f64;
        self.put("step_s", median(step_samples), "s");
        self.put("setup_s", median(setup), "s");
        self.put("wire_mib_per_step", wire, "MiB");
        let msgs = (t.sent_messages + t.collective_messages) as f64 / steps;
        self.put("msgs_per_step", msgs, "count");
        self.put("peak_rss_mib", peak_rss_mib(), "MiB");
        self.note("steps", Json::Num(steps));
        self.note_tail("step_s_tail", step_samples);
        self.note("setup_samples", Json::Num(setup.len() as f64));
    }

    /// The exact counts, tail and tracing cost of a traced loop: `t` and
    /// `flops` are summed over its `steps` steps and all ranks,
    /// `step_samples` are its per-step times, and `overhead` is its traced
    /// over untraced main-thread time.
    pub fn put_traced_loop(
        &mut self,
        t: &CommCounters,
        flops: u64,
        steps: f64,
        step_samples: &[f64],
        overhead: f64,
    ) {
        self.put("comm.p2p_bytes_per_step", t.sent_bytes as f64 / steps, "B");
        self.put(
            "comm.p2p_msgs_per_step",
            t.sent_messages as f64 / steps,
            "count",
        );
        self.put(
            "comm.coll_bytes_per_step",
            t.collective_bytes as f64 / steps,
            "B",
        );
        self.put(
            "comm.coll_msgs_per_step",
            t.collective_messages as f64 / steps,
            "count",
        );
        self.put(
            "comm.allocs_per_step",
            t.comm_path_allocs as f64 / steps,
            "count",
        );
        self.put("matrix.flops_per_step", flops as f64 / steps, "FLOP");
        let tail_s = tail(step_samples).map_or(median(step_samples), |(_, v)| v);
        self.put("dist.step_s_tail", tail_s, "s");
        self.put("trace.overhead", overhead, "ratio");
        self.note_tail("traced_step_s_tail", step_samples);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Every loss must be finite.
    pub fn check_losses_finite(&mut self, losses: &[f64]) {
        if let Some((i, l)) = losses.iter().enumerate().find(|(_, l)| !l.is_finite()) {
            self.problems.push(format!("step {i}: non-finite loss {l}"));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The run's result object: `correct`, `attempted`, `failed` and the
    /// metrics named in `names`, each with its unit.
    pub fn result_json(&self, names: &[&str]) -> Json {
        let correct = self.problems.is_empty();
        let metrics = names
            .iter()
            .filter_map(|&n| self.metrics.iter().find(|m| m.name == n))
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            (
                "failed",
                Json::Num(if correct { 0.0 } else { self.attempted as f64 }),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
