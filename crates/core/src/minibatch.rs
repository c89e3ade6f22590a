//! Distributed mini-batch training (§4.3.3's workload).
//!
//! Each step samples a subgraph `G' ⊂ G`, normalizes its adjacency, builds
//! the per-batch communication plan under the *global* row partition
//! (vertices keep their home processor — DistDGL-style co-location), and
//! runs one [`Driver`] step on the subgraph, carrying parameters and
//! optimizer state across batches. [`MinibatchEngine`] keeps one driver
//! for the whole batch stream; [`train_spec`] builds a fresh one per batch
//! and is the engine's independent oracle. [`expected_comm_volume`]
//! measures the per-batch point-to-point volume a partition induces — the
//! quantity Fig. 5 compares between HP and SHP.

use crate::dist::{Driver, RankData, StepInput};
use crate::model::{GcnConfig, Params};
use crate::optim::OptimizerState;
use crate::plan::{CommPlan, PlanBuilder};
use pargcn_comm::CommCounters;
use pargcn_graph::{Graph, SubgraphScratch};
use pargcn_matrix::{gather, norm, ComputeSpec, Dense};
use pargcn_partition::{metrics, Partition};

/// Restriction of a global partition to a batch's vertices: part ids keep
/// their meaning (rank `m` still owns its vertices), rows renumber to the
/// batch-local space.
pub fn restrict_partition(part: &Partition, batch: &[u32]) -> Partition {
    let assignment: Vec<u32> = batch.iter().map(|&v| part.part_of(v as usize)).collect();
    Partition::new(assignment, part.p())
}

/// Exact point-to-point row volume of one mini-batch convolution sweep
/// under `part`: the sub-adjacency's comm volume with vertices on their
/// home processors.
pub fn batch_comm_volume(graph: &Graph, batch: &[u32], part: &Partition) -> u64 {
    let sub = graph.induced_subgraph(batch);
    let a = norm::normalize_adjacency(sub.adjacency());
    let sub_part = restrict_partition(part, batch);
    metrics::spmm_comm_stats(&a, &sub_part).total_rows
}

/// Total and per-batch expected communication volume over a batch set —
/// the Fig. 5 "Msg Vol" metric (in rows; multiply by `Σ(d_{k-1}+d_k)·4`
/// for bytes across a full training sweep).
pub fn expected_comm_volume(
    graph: &Graph,
    batches: &[Vec<u32>],
    part: &Partition,
) -> (u64, Vec<u64>) {
    let per: Vec<u64> = batches
        .iter()
        .map(|b| batch_comm_volume(graph, b, part))
        .collect();
    (per.iter().sum(), per)
}

/// Outcome of a mini-batch training run.
pub struct MinibatchOutcome {
    /// Per-batch training loss (over the batch's masked vertices).
    pub losses: Vec<f64>,
    /// Final parameters.
    pub params: Params,
    /// Total point-to-point rows exchanged across the *trained* batches
    /// (feedforward-direction plans; one sweep's volume × layers × 2 gives
    /// a full-epoch figure). Skipped batches exchange nothing, so their
    /// would-be volume is reported separately.
    pub total_volume_rows: u64,
    /// Batches skipped because they sampled no labelled vertex (no
    /// gradient, no step, no traffic).
    pub skipped_batches: usize,
    /// The feedforward plan volume those skipped batches *would* have
    /// exchanged — kept out of `total_volume_rows` so Fig. 5's
    /// trained-batch volume is not overstated.
    pub skipped_volume_rows: u64,
}

/// Trains over the given mini-batches (one step each), distributing every
/// batch across the same `part.p()` ranks under the global partition.
// The training entry points take the full problem description by design;
// a config struct would just rename the eight pieces.
#[allow(clippy::too_many_arguments)]
pub fn train(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    batches: &[Vec<u32>],
    param_seed: u64,
) -> MinibatchOutcome {
    train_spec(
        graph,
        h0,
        labels,
        mask,
        part,
        config,
        batches,
        param_seed,
        ComputeSpec::default(),
    )
}

/// As [`train`] with an explicit per-rank compute spec (thread count and
/// kernel engine), applied to every batch step.
///
/// Every batch gets fresh plans from [`CommPlan::build`] and a fresh
/// [`Driver`] (new ranks, pools and workspaces); only the parameters and
/// optimizer state carry over. With no persistent pools, no
/// [`PlanBuilder`] and no pipelining, this is the independent oracle the
/// [`MinibatchEngine`] must match bitwise.
#[allow(clippy::too_many_arguments)]
pub fn train_spec(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    batches: &[Vec<u32>],
    param_seed: u64,
    spec: ComputeSpec,
) -> MinibatchOutcome {
    let mut state = (
        config.init_params(param_seed),
        OptimizerState::new(config.optimizer, &config.shapes()),
    );
    let mut losses = Vec::with_capacity(batches.len());
    let mut total_volume = 0u64;
    let mut skipped_batches = 0usize;
    let mut skipped_volume = 0u64;
    for batch in batches {
        let sub = graph.induced_subgraph(batch);
        let a = norm::normalize_adjacency(sub.adjacency());
        let sub_part = restrict_partition(part, batch);
        let plan_f = CommPlan::build(&a, &sub_part);
        let plan_b = sub
            .directed()
            .then(|| CommPlan::build(&a.transpose(), &sub_part));

        let m_batch: Vec<bool> = batch.iter().map(|&v| mask[v as usize]).collect();
        if !m_batch.iter().any(|&m| m) {
            // No labelled vertices sampled: skip the step (no gradient) —
            // before gathering the batch's feature rows, which would only
            // be thrown away. A skipped batch exchanges nothing, so its
            // volume is tallied separately, not into `total_volume_rows`.
            skipped_batches += 1;
            skipped_volume += plan_f.total_volume_rows();
            continue;
        }
        total_volume += plan_f.total_volume_rows();
        let h_batch = gather::gather_rows(h0, batch);
        let l_batch: Vec<u32> = batch.iter().map(|&v| labels[v as usize]).collect();
        let data: Vec<RankData> = plan_f
            .ranks
            .iter()
            .map(|rp| RankData::gather(&rp.local_rows, &h_batch, &l_batch, &m_batch))
            .collect();
        let input = StepInput {
            plan_f: &plan_f.ranks,
            plan_b: &plan_b.as_ref().unwrap_or(&plan_f).ranks,
            data: &data,
            mask_total: m_batch.iter().filter(|&&m| m).count() as f64,
        };
        let (params, opt_state) = state;
        let mut driver = Driver::new(part.p(), config, spec, params, opt_state);
        losses.push(driver.step(&input, || {}));
        state = driver.into_state();
    }
    MinibatchOutcome {
        losses,
        params: state.0,
        total_volume_rows: total_volume,
        skipped_batches,
        skipped_volume_rows: skipped_volume,
    }
}

/// Everything one batch needs to train, built ahead of time into the
/// engine's double buffer: plans, per-rank data slices, and bookkeeping.
/// Prep is a pure function of the batch (graph, features, partition,
/// config are fixed), which is why building batch t+1 while the ranks
/// train batch t cannot change any result.
struct BatchPrep {
    plan_f: CommPlan,
    /// `None` for undirected graphs (backward reuses `plan_f`).
    plan_b: Option<CommPlan>,
    locals: Vec<RankData>,
    mask_total: f64,
    /// False when the batch sampled no labelled vertex: no step runs.
    trainable: bool,
    volume: u64,
}

impl BatchPrep {
    fn empty(p: usize, width: usize) -> BatchPrep {
        BatchPrep {
            plan_f: CommPlan {
                ranks: Vec::new(),
                n: 0,
                p,
            },
            plan_b: None,
            locals: (0..p)
                .map(|_| RankData {
                    h: Dense::zeros(0, width),
                    labels: Vec::new(),
                    mask: Vec::new(),
                })
                .collect(),
            mask_total: 1.0,
            trainable: false,
            volume: 0,
        }
    }

    /// The driver's view of the batch.
    fn input(&self) -> StepInput<'_> {
        StepInput {
            plan_f: &self.plan_f.ranks,
            plan_b: &self.plan_b.as_ref().unwrap_or(&self.plan_f).ranks,
            data: &self.locals,
            mask_total: self.mask_total,
        }
    }
}

/// Persistent mini-batch training engine (DESIGN.md §11).
///
/// [`train_spec`] pays full startup cost per batch: a fresh [`Driver`]
/// respawns all `p` rank threads and kernel pools, re-prewarms the comm
/// pools, reallocates an `EpochWorkspace`, and `CommPlan::build` zeroes
/// O(n·p) scratch — all wrapped around a *single* training step. The
/// engine hoists every one of those out of the loop:
///
/// * one [`Driver`] keeps the rank threads, channels, buffer pools,
///   counters, kernel pools and grow-once workspaces alive across the
///   whole batch stream, stepping one plan per batch;
/// * a [`PlanBuilder`] and [`SubgraphScratch`] reuse their maps;
/// * batch *t+1*'s subgraph, normalized adjacency, plan, and data slices
///   are prepared on the main thread *while the ranks train batch t*
///   (double buffer; the driver step's main-thread closure). Prep is a
///   pure function of the batch, so the pipelining cannot change results.
///
/// Outputs are bitwise identical to [`train_spec`] (equivalence suite in
/// `tests/minibatch_engine.rs`); only the per-batch overhead changes.
pub struct MinibatchEngine<'a> {
    graph: &'a Graph,
    h0: &'a Dense,
    labels: &'a [u32],
    mask: &'a [bool],
    part: &'a Partition,
    driver: Driver<'a>,
    builder: PlanBuilder,
    scratch: SubgraphScratch,
    preps: (BatchPrep, BatchPrep),
    /// Which of `preps` holds the batch being trained (the other is the
    /// build target); flips every batch.
    cur: usize,
}

impl<'a> MinibatchEngine<'a> {
    /// Spawns the rank runtime and builds every per-rank resource. The
    /// parameters start at `config.init_params(param_seed)`, exactly like
    /// the per-batch path.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &'a Graph,
        h0: &'a Dense,
        labels: &'a [u32],
        mask: &'a [bool],
        part: &'a Partition,
        config: &'a GcnConfig,
        param_seed: u64,
        spec: ComputeSpec,
    ) -> MinibatchEngine<'a> {
        assert_eq!(h0.rows(), graph.n(), "feature rows mismatch");
        assert_eq!(labels.len(), graph.n(), "labels mismatch");
        assert_eq!(mask.len(), graph.n(), "mask mismatch");
        assert_eq!(part.n(), graph.n(), "partition size mismatch");
        let p = part.p();
        let init = config.init_params(param_seed);
        let opt_state = OptimizerState::new(config.optimizer, &config.shapes());
        MinibatchEngine {
            graph,
            h0,
            labels,
            mask,
            part,
            driver: Driver::new(p, config, spec, init, opt_state),
            builder: PlanBuilder::new(),
            scratch: SubgraphScratch::new(),
            preps: (
                BatchPrep::empty(p, h0.cols()),
                BatchPrep::empty(p, h0.cols()),
            ),
            cur: 0,
        }
    }

    /// Trains one step per batch, pipelining each batch's preparation
    /// under the previous batch's training step. May be called repeatedly
    /// — parameters and optimizer state carry across calls, so a stream
    /// of `train` calls behaves like one long batch list.
    pub fn train(&mut self, batches: &[Vec<u32>]) -> MinibatchOutcome {
        let mut losses = Vec::with_capacity(batches.len());
        let mut total_volume = 0u64;
        let mut skipped_batches = 0usize;
        let mut skipped_volume = 0u64;
        // Split the engine into disjoint borrows: the driver step reads the
        // active prep while `prepare_batch` refills the builder scratch and
        // the build prep.
        let MinibatchEngine {
            graph,
            h0,
            labels,
            mask,
            part,
            driver,
            builder,
            scratch,
            preps,
            cur,
        } = self;
        let mut prepare = |batch: &[u32], prep: &mut BatchPrep| {
            prepare_batch(graph, h0, labels, mask, part, builder, scratch, batch, prep)
        };

        if let Some(first) = batches.first() {
            let build = if *cur == 0 {
                &mut preps.0
            } else {
                &mut preps.1
            };
            prepare(first, build);
        }
        for t in 0..batches.len() {
            let (active, build) = if *cur == 0 {
                (&preps.0, &mut preps.1)
            } else {
                (&preps.1, &mut preps.0)
            };
            let mut prepare_next = || {
                if let Some(next) = batches.get(t + 1) {
                    prepare(next, build);
                }
            };
            if active.trainable {
                // Ranks train batch t while the main thread prepares t+1.
                losses.push(driver.step(&active.input(), prepare_next));
                total_volume += active.volume;
            } else {
                skipped_batches += 1;
                skipped_volume += active.volume;
                prepare_next();
            }
            *cur ^= 1;
        }
        MinibatchOutcome {
            losses,
            params: self.params(),
            total_volume_rows: total_volume,
            skipped_batches,
            skipped_volume_rows: skipped_volume,
        }
    }

    /// The current (replicated) parameters.
    pub fn params(&self) -> Params {
        self.driver.params()
    }

    /// Per-rank communication counters, accumulated since the engine was
    /// created (or last [`MinibatchEngine::reset_counters`]).
    pub fn counters(&mut self) -> Vec<CommCounters> {
        self.driver.counters()
    }

    /// Zeroes every rank's counters (e.g. after warm-up batches, so a
    /// measurement window sees steady state only).
    pub fn reset_counters(&mut self) {
        self.driver.reset_counters();
    }
}

/// Builds everything batch `batch` needs into `prep` (grow-once where the
/// buffers allow it). Pure in the engine's fixed inputs: no training
/// state is read, so prep for batch t+1 can run while batch t trains.
#[allow(clippy::too_many_arguments)]
fn prepare_batch(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    builder: &mut PlanBuilder,
    scratch: &mut SubgraphScratch,
    batch: &[u32],
    prep: &mut BatchPrep,
) {
    let sub = graph.induced_subgraph_into(batch, scratch);
    let a = norm::normalize_adjacency(sub.adjacency());
    let sub_part = restrict_partition(part, batch);
    prep.plan_f = builder.build(&a, &sub_part);
    prep.plan_b = if sub.directed() {
        Some(builder.build(&a.transpose(), &sub_part))
    } else {
        None
    };
    prep.volume = prep.plan_f.total_volume_rows();
    let masked = batch.iter().filter(|&&v| mask[v as usize]).count();
    prep.trainable = masked > 0;
    prep.mask_total = masked.max(1) as f64;
    for (rp, local) in prep.plan_f.ranks.iter().zip(&mut prep.locals) {
        local.h.resize_rows(rp.local_rows.len());
        local.labels.clear();
        local.mask.clear();
        for (li, &lr) in rp.local_rows.iter().enumerate() {
            let v = batch[lr as usize] as usize;
            local.h.row_mut(li).copy_from_slice(h0.row(v));
            local.labels.push(labels[v]);
            local.mask.push(mask[v]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::sbm::{self, SbmParams};
    use pargcn_partition::stochastic::{sample_batches, Sampler};
    use pargcn_partition::{partition_rows, Method};

    fn setup() -> (Graph, Dense, Vec<u32>, Vec<bool>) {
        let d = sbm::generate(
            SbmParams {
                n: 240,
                classes: 4,
                features: 8,
                ..Default::default()
            },
            3,
        );
        (d.graph, d.features, d.labels, d.train_mask)
    }

    #[test]
    fn restriction_keeps_home_processors() {
        let part = Partition::new(vec![0, 1, 2, 0, 1, 2], 3);
        let sub = restrict_partition(&part, &[1, 3, 5]);
        assert_eq!(sub.assignment(), &[1, 0, 2]);
    }

    #[test]
    fn batch_volume_zero_for_single_part() {
        let (g, ..) = setup();
        let part = Partition::trivial(g.n());
        assert_eq!(batch_comm_volume(&g, &[0, 1, 2, 3, 4, 5, 6, 7], &part), 0);
    }

    #[test]
    fn minibatch_training_reduces_loss() {
        let (g, h0, labels, mask) = setup();
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, 3, 0.1, 1);
        let batches = sample_batches(&g, Sampler::UniformVertex { batch_size: 120 }, 30, 2);
        let config = GcnConfig::two_layer(8, 12, 4);
        let out = train(&g, &h0, &labels, &mask, &part, &config, &batches, 5);
        assert!(out.losses.len() >= 25);
        let first: f64 = out.losses[..5].iter().sum::<f64>() / 5.0;
        let last: f64 = out.losses[out.losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(
            last < first,
            "mini-batch loss did not decrease: {first} → {last}"
        );
        assert!(out.total_volume_rows > 0);
    }

    #[test]
    fn expected_volume_sums_batches() {
        let (g, ..) = setup();
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Rp, 4, 0.1, 7);
        let batches = sample_batches(&g, Sampler::UniformVertex { batch_size: 60 }, 5, 8);
        let (total, per) = expected_comm_volume(&g, &batches, &part);
        assert_eq!(per.len(), 5);
        assert_eq!(total, per.iter().sum::<u64>());
        assert!(total > 0);
    }
}
