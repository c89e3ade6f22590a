//! Persistent mini-batch engine vs per-batch-spawn training (DESIGN.md
//! §11). The per-batch path pays a fresh driver (thread spawn + join),
//! plan construction, and workspace/pool growth once *per batch*; the
//! engine pays them once per session and pipelines batch preparation
//! against rank compute. For small batches the fixed per-batch cost
//! dominates, which is where the engine's gain concentrates — the
//! acceptance figure (`results/minibatch_engine.json`) is the
//! small-batch group at p = 4.
//!
//! Each iteration trains the *whole* batch list so the reported
//! throughput (`Throughput::Elements`, one element = one batch) reads
//! directly as batches/second. Three methods per group:
//!   `spawn`      — `minibatch::train_spec`, the per-batch-spawn path;
//!   `persistent` — `MinibatchEngine::new(..).train(..)`, engine built
//!                  inside the iteration (what a fresh training run pays);
//!   `steady`     — a long-lived engine re-fed the list, the
//!                  steady-state cost with pools and workspaces at
//!                  their high-water mark.

use pargcn_core::minibatch::{self, MinibatchEngine};
use pargcn_core::GcnConfig;
use pargcn_graph::gen::sbm::{self, SbmParams};
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{partition_rows, Method, Partition};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Ranks — the acceptance criterion's p.
const P: usize = 4;

struct Fixture {
    graph: Graph,
    h0: Dense,
    labels: Vec<u32>,
    mask: Vec<bool>,
    part: Partition,
    config: GcnConfig,
    batches: Vec<Vec<u32>>,
    spec: ComputeSpec,
}

fn fixture(batch_size: usize, count: usize) -> Fixture {
    let d = sbm::generate(
        SbmParams {
            n: 1500,
            classes: 4,
            features: 16,
            ..Default::default()
        },
        17,
    );
    let a = d.graph.normalized_adjacency();
    let part = partition_rows(&d.graph, &a, Method::Hp, P, 0.1, 1);
    let config = GcnConfig::two_layer(16, 16, 4);
    let batches = sample_batches(&d.graph, Sampler::UniformVertex { batch_size }, count, 23);
    Fixture {
        graph: d.graph,
        h0: d.features,
        labels: d.labels,
        mask: d.train_mask,
        part,
        config,
        batches,
        // One worker thread per rank: the comparison targets the session
        // and plan machinery, not kernel parallelism, and a fixed thread
        // count keeps the two paths' compute identical.
        spec: ComputeSpec {
            threads: Some(1),
            kernel: None,
        },
    }
}

fn run_group(c: &mut Criterion, name: &str, batch_size: usize, count: usize) {
    let f = fixture(batch_size, count);
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.throughput(Throughput::Elements(f.batches.len() as u64));

    group.bench_function(BenchmarkId::new("spawn", P), |b| {
        b.iter(|| {
            minibatch::train_spec(
                &f.graph, &f.h0, &f.labels, &f.mask, &f.part, &f.config, &f.batches, 5, f.spec,
            )
        })
    });

    group.bench_function(BenchmarkId::new("persistent", P), |b| {
        b.iter(|| {
            MinibatchEngine::new(
                &f.graph, &f.h0, &f.labels, &f.mask, &f.part, &f.config, 5, f.spec,
            )
            .train(&f.batches)
        })
    });

    let mut engine = MinibatchEngine::new(
        &f.graph, &f.h0, &f.labels, &f.mask, &f.part, &f.config, 5, f.spec,
    );
    engine.train(&f.batches); // grow pools/workspaces to the high-water mark
    group.bench_function(BenchmarkId::new("steady", P), |b| {
        b.iter(|| engine.train(&f.batches))
    });

    group.finish();
}

/// Small batches: fixed per-batch cost (spawn, plan, allocation)
/// dominates — the engine's target regime and the acceptance figure.
fn bench_small_batches(c: &mut Criterion) {
    run_group(c, "minibatch_small_b48", 48, 16);
}

/// Large batches: per-batch compute amortizes the fixed cost, bounding
/// how much the engine can win; included so the gain is reported
/// honestly across regimes.
fn bench_large_batches(c: &mut Criterion) {
    run_group(c, "minibatch_large_b400", 400, 6);
}

criterion_group!(benches, bench_small_batches, bench_large_batches);
criterion_main!(benches);
