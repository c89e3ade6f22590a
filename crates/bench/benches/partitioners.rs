//! Criterion benchmarks for the partitioning substrate: RP, GP and HP (one
//! multilevel engine on the graph and column-net models), SHP, and
//! comm-plan construction.

use pargcn_core::CommPlan;
use pargcn_graph::gen::{community, grid, social};
use pargcn_partition::stochastic::Sampler;
use pargcn_partition::{partition_rows, Method};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_10k");
    group.sample_size(10);
    let g = grid::road_network(10_000, 1);
    let a = g.normalized_adjacency();
    for method in [
        Method::Rp,
        Method::Gp,
        Method::Hp,
        Method::Shp {
            sampler: Sampler::UniformVertex { batch_size: 1000 },
            batches: 4,
        },
    ] {
        group.bench_with_input(BenchmarkId::new("road", method.name()), &method, |b, &m| {
            b.iter(|| partition_rows(&g, &a, m, 16, 0.05, 1))
        });
    }
    group.finish();
}

fn bench_graph_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("by_family");
    group.sample_size(10);
    // The dense, skewed social case is Reddit-like: every column net is
    // larger than the coarsening's matching cap, so HP's coarsening stalls
    // and greedy growth and FM run on the whole hypergraph. GP runs the
    // same engine on the graph model's 2-pin nets, coarsened by heavy-edge
    // matching.
    for (name, g) in [
        ("road_8k", grid::road_network(8000, 2)),
        ("copurchase_8k", community::copurchase(8000, 6.0, false, 2)),
        ("reddit_like_2k", social::generate(2000, 400.0, false, 2)),
    ] {
        let a = g.normalized_adjacency();
        for method in [Method::Hp, Method::Gp] {
            group.bench_with_input(BenchmarkId::new(name, method.name()), &method, |b, &m| {
                b.iter(|| partition_rows(&g, &a, m, 16, 0.05, 1))
            });
        }
    }
    group.finish();
}

fn bench_plan_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm_plan_build");
    group.sample_size(10);
    let g = grid::road_network(20_000, 3);
    let a = g.normalized_adjacency();
    for p in [16usize, 64, 256] {
        let part = partition_rows(&g, &a, Method::Rp, p, 0.05, 1);
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| CommPlan::build(std::hint::black_box(&a), &part))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_methods,
    bench_graph_families,
    bench_plan_build
);
criterion_main!(benches);
