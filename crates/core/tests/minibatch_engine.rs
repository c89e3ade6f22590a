//! The persistent mini-batch engine's correctness contract (DESIGN.md
//! §11): the long-lived session + pooled plan builder + pipelined prep
//! must be a pure performance change. Losses, parameters, predictions,
//! and the volume/skip accounting all have to match the per-batch-spawn
//! path **bitwise**, for every rank count and kernel engine, and the
//! steady-state batch loop must stay off the allocator on the comm path
//! (the §9 contract extended to the whole batch stream).
//!
//! The counting global allocator is installed binary-wide so the
//! allocation test sees real numbers; it only counts, so the equivalence
//! tests are unaffected.

use pargcn_core::minibatch::{self, MinibatchEngine, MinibatchOutcome};
use pargcn_core::optim::Optimizer;
use pargcn_core::plan::PlanBuilder;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_graph::gen::er;
use pargcn_graph::gen::sbm::{self, SbmParams};
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeSpec, Dense, KernelKind};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{partition_rows, random, Method, Partition};
use pargcn_util::allocmeter::CountingAllocator;
use pargcn_util::qc;
use pargcn_util::rng::Rng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn setup(n: usize, seed: u64) -> (Graph, Dense, Vec<u32>, Vec<bool>) {
    let d = sbm::generate(
        SbmParams {
            n,
            classes: 4,
            features: 8,
            ..Default::default()
        },
        seed,
    );
    (d.graph, d.features, d.labels, d.train_mask)
}

/// Batches covering the interesting cases: normal batches plus one with
/// every labelled vertex masked out (the skip path must also pipeline).
fn batches_with_unlabelled(graph: &Graph, mask: &[bool], count: usize) -> Vec<Vec<u32>> {
    let mut batches = sample_batches(graph, Sampler::UniformVertex { batch_size: 60 }, count, 11);
    let unlabelled: Vec<u32> = (0..graph.n() as u32)
        .filter(|&v| !mask[v as usize])
        .take(40)
        .collect();
    assert!(
        !unlabelled.is_empty(),
        "test graph must have unlabelled vertices"
    );
    batches.insert(count / 2, unlabelled);
    batches
}

fn assert_outcomes_identical(old: &MinibatchOutcome, new: &MinibatchOutcome) {
    assert_eq!(old.losses, new.losses, "per-batch losses diverged");
    assert_eq!(old.params, new.params, "final parameters diverged");
    assert_eq!(old.total_volume_rows, new.total_volume_rows);
    assert_eq!(old.skipped_batches, new.skipped_batches);
    assert_eq!(old.skipped_volume_rows, new.skipped_volume_rows);
}

/// Predictions from the final parameters, computed identically for both
/// paths (the mini-batch outcome carries no predictions of its own).
fn predictions_from(
    graph: &Graph,
    config: &GcnConfig,
    out: &MinibatchOutcome,
    h0: &Dense,
) -> Dense {
    let a = graph.normalized_adjacency();
    SerialTrainer::from_adjacency(a, graph.directed(), config.clone(), out.params.clone())
        .predict(h0)
}

fn equivalence_at(p: usize, kernel: KernelKind, optimizer: Optimizer) {
    let (graph, h0, labels, mask) = setup(240, 3);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, p, 0.1, 1);
    let mut config = GcnConfig::two_layer(8, 12, 4);
    config.optimizer = optimizer;
    let batches = batches_with_unlabelled(&graph, &mask, 12);
    let spec = ComputeSpec {
        threads: Some(2),
        kernel: Some(kernel),
    };

    let old = minibatch::train_spec(
        &graph, &h0, &labels, &mask, &part, &config, &batches, 5, spec,
    );
    let new =
        MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 5, spec).train(&batches);

    assert!(!old.losses.is_empty(), "no batch trained — vacuous test");
    assert_eq!(old.skipped_batches, 1, "the unlabelled batch must skip");
    assert_outcomes_identical(&old, &new);
    assert_eq!(
        predictions_from(&graph, &config, &old, &h0),
        predictions_from(&graph, &config, &new, &h0),
        "predictions diverged"
    );
}

#[test]
fn engine_matches_per_batch_path_p2() {
    for optimizer in [Optimizer::Sgd, Optimizer::adam()] {
        equivalence_at(2, KernelKind::Naive, optimizer);
        equivalence_at(2, KernelKind::Blocked, optimizer);
    }
}

#[test]
fn engine_matches_per_batch_path_p4() {
    for optimizer in [Optimizer::Sgd, Optimizer::adam()] {
        equivalence_at(4, KernelKind::Naive, optimizer);
        equivalence_at(4, KernelKind::Blocked, optimizer);
    }
}

/// Splitting a batch stream across several `train` calls must behave like
/// one long call: parameters and optimizer state carry across calls.
#[test]
fn engine_streams_across_train_calls() {
    let (graph, h0, labels, mask) = setup(200, 9);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 3, 0.1, 2);
    let config = GcnConfig::two_layer(8, 10, 4);
    let batches = sample_batches(&graph, Sampler::UniformVertex { batch_size: 50 }, 8, 4);
    let spec = ComputeSpec {
        threads: Some(1),
        kernel: None,
    };

    let whole =
        MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 7, spec).train(&batches);

    let mut engine = MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 7, spec);
    let first = engine.train(&batches[..3]);
    let second = engine.train(&batches[3..]);

    let mut losses = first.losses;
    losses.extend(&second.losses);
    assert_eq!(whole.losses, losses);
    assert_eq!(whole.params, second.params);
    assert_eq!(
        whole.total_volume_rows,
        first.total_volume_rows + second.total_volume_rows
    );
}

/// The engine's batch loop performs zero comm-path allocations once the
/// pools and workspaces have grown to the batch stream's high-water mark.
#[test]
fn steady_state_batches_do_not_allocate_on_the_comm_path() {
    let (graph, h0, labels, mask) = setup(240, 7);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 4, 0.1, 1);
    let config = GcnConfig::two_layer(8, 16, 4);
    let batches = sample_batches(&graph, Sampler::UniformVertex { batch_size: 80 }, 6, 13);
    let spec = ComputeSpec {
        threads: Some(1),
        kernel: None,
    };

    let mut engine = MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 3, spec);
    // Warm-up: pools, queues and workspaces grow to this batch list's
    // high-water footprint.
    engine.train(&batches);
    engine.reset_counters();
    // Steady state: the identical batch list must stay off the allocator
    // inside the comm runtime on every rank.
    let out = engine.train(&batches);
    assert!(!out.losses.is_empty());
    for (rank, c) in engine.counters().iter().enumerate() {
        assert_eq!(
            c.comm_path_allocs, 0,
            "rank {rank}: steady-state batches allocated {} times inside the comm runtime",
            c.comm_path_allocs
        );
    }
    assert!(
        out.total_volume_rows > 0,
        "batches produced no communication — the assertion above is vacuous"
    );
}

/// Skipped-batch accounting: a batch with no labelled vertices produces
/// no loss and no traffic, and its would-be volume is reported apart.
#[test]
fn skipped_batches_are_counted_apart_from_trained_volume() {
    let (graph, h0, labels, mask) = setup(200, 5);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Rp, 4, 0.1, 3);
    let config = GcnConfig::two_layer(8, 10, 4);
    let batches = batches_with_unlabelled(&graph, &mask, 4);
    let spec = ComputeSpec::default();

    let out = minibatch::train_spec(
        &graph, &h0, &labels, &mask, &part, &config, &batches, 2, spec,
    );
    assert_eq!(out.skipped_batches, 1);
    assert_eq!(out.losses.len(), batches.len() - 1);
    assert!(
        out.skipped_volume_rows > 0,
        "the unlabelled batch should have cut edges under RP"
    );
    // Trained volume is exactly the sum over trained batches — recompute
    // from the per-batch volumes and compare.
    let (all, per) = minibatch::expected_comm_volume(&graph, &batches, &part);
    assert_eq!(all, out.total_volume_rows + out.skipped_volume_rows);
    let unlabelled_idx = batches
        .iter()
        .position(|b| b.iter().all(|&v| !mask[v as usize]))
        .unwrap();
    assert_eq!(out.skipped_volume_rows, per[unlabelled_idx]);
}

/// `PlanBuilder` with scratch reused across arbitrary graph/partition
/// streams emits plans identical (`==`, i.e. every block, row list and
/// send set) to a fresh `CommPlan::build` per input.
#[test]
fn plan_builder_reuse_matches_fresh_builds() {
    // `qc::run` takes `Fn`, so the reused builder lives in a `RefCell`.
    let builder = std::cell::RefCell::new(PlanBuilder::new());
    qc::run(48, |rng| {
        let n = rng.gen_range(2usize..=60);
        let m = rng.gen_range(0usize..=4 * n);
        let directed = rng.gen_range(0u32..2) == 1;
        let g = er::generate(n, m, directed, rng.gen_range(0u64..1 << 40));
        let a = g.normalized_adjacency();
        let p = rng.gen_range(1usize..=n.min(6));
        let part = random::partition(n, p, rng.gen_range(0u64..1 << 40));
        let fresh = CommPlan::build(&a, &part);
        let reused = builder.borrow_mut().build(&a, &part);
        assert_eq!(fresh, reused, "reused-scratch plan diverged (n={n} p={p})");
        if directed {
            let at = a.transpose();
            assert_eq!(
                CommPlan::build(&at, &part),
                builder.borrow_mut().build(&at, &part)
            );
        }
    });
    // Degenerate shapes the sweep may miss: empty part, p=1.
    let g = er::generate(8, 24, true, 2);
    let a = g.normalized_adjacency();
    let part = Partition::new(vec![0, 0, 1, 1, 1, 0, 1, 0], 3);
    let mut builder = builder.into_inner();
    assert_eq!(CommPlan::build(&a, &part), builder.build(&a, &part));
    assert_eq!(
        CommPlan::build(&a, &Partition::trivial(8)),
        builder.build(&a, &Partition::trivial(8))
    );
}
