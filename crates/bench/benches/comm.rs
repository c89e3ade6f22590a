//! Microbenchmarks of the communication runtime's hot path: pooled
//! point-to-point round-trips, the binomial-tree collectives, and a full
//! SpMM exchange — the costs the pooled-buffer/log-tree redesign targets.
//!
//! Thread spawning dominates a single `Communicator::run`, so every
//! benchmark runs a *batch* of operations inside one communicator session
//! per iteration; divide by the batch constant for per-op figures.
//! Baseline medians live in `results/comm_bench.json`.

use pargcn_comm::Communicator;
use pargcn_core::dist::feedforward::spmm_exchange_into;
use pargcn_core::dist::ExchangeScratch;
use pargcn_core::CommPlan;
use pargcn_graph::gen::community;
use pargcn_matrix::{gather, ComputeCtx, Dense};
use pargcn_partition::{partition_rows, Method};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Messages / collective rounds executed per communicator session.
const BATCH: usize = 200;

/// Two ranks volley a pooled 4 KiB payload `BATCH` times — the pure
/// per-message overhead (pool acquire, channel hop, release return).
fn bench_pingpong(c: &mut Criterion) {
    let len = 1024;
    c.bench_function("comm_pingpong_1k_x200", |b| {
        b.iter(|| {
            Communicator::run(2, |ctx| {
                let peer = 1 - ctx.rank();
                ctx.ensure_pool(peer, 2, len);
                for round in 0..BATCH {
                    if ctx.rank() == 0 {
                        let mut payload = ctx.acquire(peer, len);
                        payload.resize(len, round as f32);
                        ctx.isend(peer, 0, payload);
                        let back = ctx.recv(peer, 1);
                        ctx.release(peer, back);
                    } else {
                        let got = ctx.recv(peer, 0);
                        ctx.release(peer, got);
                        let mut payload = ctx.acquire(peer, len);
                        payload.resize(len, round as f32);
                        ctx.isend(peer, 1, payload);
                    }
                }
            })
        })
    });
}

/// `BATCH` allreduces of a ΔW-sized buffer at several rank counts — the
/// O(log p) tree against which `costmodel::allreduce_time` is calibrated.
fn bench_allreduce(c: &mut Criterion) {
    let len = 16 * 16; // hidden×hidden ΔW
    let mut group = c.benchmark_group("comm_allreduce_256_x200");
    group.sample_size(10);
    for p in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("p", p), &p, |b, &p| {
            b.iter(|| {
                Communicator::run(p, |ctx| {
                    ctx.ensure_collectives(2, len);
                    let mut buf = vec![ctx.rank() as f32; len];
                    for _ in 0..BATCH {
                        ctx.allreduce_sum(&mut buf);
                        // Rescale so values stay finite across rounds.
                        for v in &mut buf {
                            *v /= p as f32;
                        }
                    }
                    buf[0]
                })
            })
        });
    }
    group.finish();
}

/// `BATCH` broadcasts of a 1024-float block from rank 0 at several rank
/// counts (the CAGNET baseline's inner loop).
fn bench_broadcast(c: &mut Criterion) {
    let len = 1024;
    let mut group = c.benchmark_group("comm_broadcast_1k_x200");
    group.sample_size(10);
    for p in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("p", p), &p, |b, &p| {
            b.iter(|| {
                Communicator::run(p, |ctx| {
                    ctx.ensure_collectives(2, len);
                    let mut buf = if ctx.rank() == 0 {
                        vec![1.0f32; len]
                    } else {
                        Vec::new()
                    };
                    for _ in 0..BATCH {
                        ctx.broadcast(0, &mut buf);
                    }
                    buf[0]
                })
            })
        });
    }
    group.finish();
}

/// Repeated SpMM exchanges over a real comm plan — the trainer's inner
/// loop: pooled sends, mailbox drain, plan-order accumulation.
fn bench_spmm_exchange(c: &mut Criterion) {
    let sweeps = 20;
    let g = community::copurchase(2000, 6.0, false, 3);
    let a = g.normalized_adjacency();
    let mut rng = StdRng::seed_from_u64(4);
    let h0 = Dense::random(g.n(), 16, &mut rng);
    let mut group = c.benchmark_group("comm_spmm_exchange_2k_x20");
    group.sample_size(10);
    for p in [4usize, 8] {
        let part = partition_rows(&g, &a, Method::Hp, p, 0.05, 1);
        let plan = CommPlan::build(&a, &part);
        let locals: Vec<Dense> = plan
            .ranks
            .iter()
            .map(|rp| gather::gather_rows(&h0, &rp.local_rows))
            .collect();
        group.bench_with_input(BenchmarkId::new("hp", p), &p, |b, &p| {
            b.iter(|| {
                Communicator::run(p, |ctx| {
                    let rp = &plan.ranks[ctx.rank()];
                    let cctx = ComputeCtx::for_ranks(p, Some(1));
                    let x = &locals[ctx.rank()];
                    for ss in &rp.send {
                        ctx.ensure_pool(ss.peer, 2, ss.local_indices.len() * x.cols());
                    }
                    let mut scratch = ExchangeScratch::new(p);
                    let mut ax = Dense::zeros(rp.n_local(), x.cols());
                    for sweep in 0..sweeps {
                        spmm_exchange_into(ctx, rp, x, sweep as u32, &cctx, &mut scratch, &mut ax);
                    }
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pingpong,
    bench_allreduce,
    bench_broadcast,
    bench_spmm_exchange
);
criterion_main!(benches);
