//! Stress and edge-case tests for the message-passing runtime: ordering
//! guarantees under load, many ranks, interleaved collectives and
//! point-to-point traffic, payload integrity, buffer-pool recycling, and
//! the binomial-tree collectives' bitwise determinism.
//!
//! This binary installs the counting global allocator so the pool tests
//! can additionally assert the warm-path no-allocation contract.

use pargcn_comm::Communicator;
use pargcn_util::allocmeter::CountingAllocator;
use pargcn_util::rng::{Rng, SeedableRng, StdRng};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// MPI's non-overtaking guarantee: messages with the same (source, tag)
/// arrive in send order, even under heavy interleaving with other tags.
#[test]
fn same_tag_messages_are_fifo() {
    Communicator::run(2, |ctx| {
        if ctx.rank() == 0 {
            for i in 0..500u32 {
                ctx.isend(1, 7, vec![i as f32]);
                // Interleave traffic on another tag; distinct payloads so
                // reordering inside the pending queue would be caught.
                ctx.isend(1, 8, vec![-(i as f32)]);
            }
        } else {
            for i in 0..500u32 {
                let m = ctx.recv(0, 7);
                assert_eq!(m[0], i as f32, "message {i} out of order");
            }
            // The tag-8 messages all sat in the pending queue; they must
            // still come out in send order.
            for i in 0..500u32 {
                assert_eq!(
                    ctx.recv(0, 8),
                    vec![-(i as f32)],
                    "pending message {i} out of order"
                );
            }
        }
    });
}

/// All-to-all with per-pair tags: every rank sends to every other rank and
/// receives everything back, with payload contents checked.
#[test]
fn all_to_all_payload_integrity() {
    let p = 8;
    Communicator::run(p, |ctx| {
        let me = ctx.rank();
        for to in 0..p {
            if to != me {
                let payload: Vec<f32> = (0..64).map(|k| (me * 1000 + to * 10 + k) as f32).collect();
                ctx.isend(to, 42, payload);
            }
        }
        for from in 0..p {
            if from != me {
                let m = ctx.recv(from, 42);
                assert_eq!(m.len(), 64);
                assert_eq!(m[0], (from * 1000 + me * 10) as f32);
                assert_eq!(m[63], (from * 1000 + me * 10 + 63) as f32);
            }
        }
    });
}

/// Collectives and point-to-point traffic interleave without cross-talk
/// (collectives use reserved tags internally).
#[test]
fn collectives_do_not_steal_p2p_messages() {
    Communicator::run(4, |ctx| {
        let me = ctx.rank();
        let next = (me + 1) % 4;
        let prev = (me + 3) % 4;
        ctx.isend(next, 3, vec![me as f32]);
        let mut buf = vec![1.0f32];
        ctx.allreduce_sum(&mut buf);
        assert_eq!(buf[0], 4.0);
        let mut b = if me == 2 { vec![7.0, 8.0] } else { Vec::new() };
        ctx.broadcast(2, &mut b);
        assert_eq!(b, vec![7.0, 8.0]);
        let m = ctx.recv(prev, 3);
        assert_eq!(m[0], prev as f32);
    });
}

/// Sequential allreduces stay correctly separated (no payload mixing
/// between rounds, values accumulate as expected).
#[test]
fn repeated_allreduce_rounds() {
    let results = Communicator::run(5, |ctx| {
        let mut acc = 0.0f32;
        for round in 0..50 {
            let mut buf = vec![(ctx.rank() + round) as f32];
            ctx.allreduce_sum(&mut buf);
            acc += buf[0];
        }
        acc
    });
    // Round r sums to (0+1+2+3+4) + 5r = 10 + 5r; total over 50 rounds.
    let expect: f32 = (0..50).map(|r| 10.0 + 5.0 * r as f32).sum();
    for r in results {
        assert_eq!(r, expect);
    }
}

/// 64 ranks — far beyond physical cores — complete a full exchange, which
/// is what lets the training tests run functionally at any p.
#[test]
fn many_ranks_functional() {
    let p = 64;
    let results = Communicator::run(p, |ctx| {
        let me = ctx.rank();
        ctx.isend((me + 1) % p, 0, vec![me as f32; 8]);
        let m = ctx.recv((me + p - 1) % p, 0);
        let mut buf = vec![m[0]];
        ctx.allreduce_sum(&mut buf);
        buf[0]
    });
    // Sum of all predecessor ranks = sum 0..p.
    let expect = (p * (p - 1) / 2) as f32;
    for r in results {
        assert_eq!(r, expect);
    }
}

/// Empty payloads are legal (a rank may own zero rows of a mini-batch).
#[test]
fn empty_payloads() {
    Communicator::run(2, |ctx| {
        if ctx.rank() == 0 {
            ctx.isend(1, 1, Vec::new());
        } else {
            assert!(ctx.recv(0, 1).is_empty());
        }
    });
}

/// Whether ranks `a` and `b` are adjacent in the rank-0-rooted binomial
/// tree the collectives run over (the parent of `r` is `r − lowbit(r)`).
fn tree_adjacent(a: usize, b: usize) -> bool {
    let parent = |r: usize| r - (r & r.wrapping_neg());
    (a != 0 && parent(a) == b) || (b != 0 && parent(b) == a)
}

/// Buffer recycling under adversarial load: 16 ranks exchange two tags
/// received in the *opposite* order they were sent (exercising the
/// pending-message buffering), interleaved with allreduces and rotating-
/// root broadcasts, for many rounds. Every payload is validated (no loss,
/// no corruption), the pools must serve the steady-state rounds from
/// resident buffers, and — because this binary installs the counting
/// allocator — the post-warmup rounds must be *amortized* allocation-free:
/// a handful of queue/pool high-water-mark growths are tolerated (the
/// rotating roots make peak per-destination demand scheduling-dependent),
/// but anything per-message would be hundreds of counts and fails. The
/// strict-zero contract for the trainer's structured traffic is pinned
/// separately by `pargcn-core`'s `no_alloc_steady_state` test.
#[test]
fn pooled_buffers_recycle_under_reordered_load() {
    let p = 16;
    let rounds = 12;
    let warmup = 3;
    let len = 96;
    let outcomes = Communicator::run(p, |ctx| {
        let me = ctx.rank();
        let targets = [(me + 1) % p, (me + 5) % p];
        let sources = [(me + p - 1) % p, (me + p - 5) % p];
        for &t in &targets {
            ctx.ensure_pool(t, 2, len);
            if tree_adjacent(me, t) {
                // A target that is also a collective neighbour keeps two
                // small buffers for the tree traffic on top.
                ctx.ensure_pool(t, 4, 4);
            }
        }
        ctx.ensure_collectives(2, 4);
        let value = |from: usize, round: usize, tag: u32, k: usize| {
            (from * 100_000 + round * 1_000 + tag as usize + k) as f32
        };
        let mut bcast: Vec<f32> = Vec::new();
        for round in 0..rounds {
            if round == warmup {
                ctx.reset_counters();
            }
            for &t in &targets {
                for tag in [100u32, 200u32] {
                    let mut payload = ctx.acquire(t, len);
                    payload.extend((0..len).map(|k| value(me, round, tag, k)));
                    ctx.isend(t, tag, payload);
                }
            }
            // Collectives interleave with the in-flight point-to-point
            // messages; the broadcast root rotates so several distinct
            // tree shapes (and pool destinations) are exercised.
            let mut acc = [1.0f32];
            ctx.allreduce_sum(&mut acc);
            assert_eq!(acc[0], p as f32);
            let root = round % warmup;
            bcast.clear();
            if me == root {
                bcast.extend([round as f32; 4]);
            }
            ctx.broadcast(root, &mut bcast);
            assert_eq!(bcast, [round as f32; 4]);
            // Receive tag 200 *before* tag 100 — the runtime must hold the
            // earlier-sent tag-100 payloads aside without losing them.
            for &s in &sources {
                for tag in [200u32, 100u32] {
                    let got = ctx.recv(s, tag);
                    assert_eq!(got.len(), len, "round {round}: truncated payload");
                    for (k, &v) in got.iter().enumerate() {
                        assert_eq!(v, value(s, round, tag, k), "round {round}: corrupt payload");
                    }
                    ctx.release(s, got);
                }
            }
        }
        (ctx.pool_stats(), ctx.counters().comm_path_allocs)
    });
    for (rank, (stats, allocs)) in outcomes.iter().enumerate() {
        // After warmup every point-to-point acquire (4 per round) hits.
        assert!(
            stats.hits >= ((rounds - warmup) * 4) as u64,
            "rank {rank}: only {} pool hits of {} acquires",
            stats.hits,
            stats.acquires
        );
        // Recycling converges: buffers circulate instead of accreting.
        assert!(
            stats.free_buffers <= 16,
            "rank {rank}: {} resident buffers — pool is accreting",
            stats.free_buffers
        );
        // 9 post-warmup rounds × ~14 metered runtime calls per rank: any
        // per-message allocation would land in the hundreds.
        assert!(
            *allocs <= 8,
            "rank {rank}: {allocs} comm-path allocations after warmup — recycling broken"
        );
    }
}

/// The binomial-tree allreduce folds children in a fixed (ascending-rank)
/// order, so repeated runs over identical inputs are **bitwise** identical
/// — on every rank, at a non-power-of-two p, with sign-mixed data whose
/// sum order would otherwise show in the low mantissa bits.
#[test]
fn tree_allreduce_is_bitwise_deterministic_across_runs() {
    let p = 13;
    let len = 257;
    let run = || {
        Communicator::run(p, |ctx| {
            let mut rng = StdRng::seed_from_u64(1000 + ctx.rank() as u64);
            let mut buf: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
            ctx.allreduce_sum(&mut buf);
            buf.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        })
    };
    let first = run();
    // Within a run, every rank must hold the identical result (replicated
    // parameters stay in lock-step only if this is exact).
    for (rank, bits) in first.iter().enumerate() {
        assert_eq!(bits, &first[0], "rank {rank} diverged within a run");
    }
    for attempt in 0..2 {
        assert_eq!(run(), first, "attempt {attempt}: allreduce not repeatable");
    }
}

/// Gather returns rank-ordered buffers of heterogeneous lengths.
#[test]
fn gather_heterogeneous_lengths() {
    let results = Communicator::run(4, |ctx| {
        let buf = vec![ctx.rank() as f32; ctx.rank()]; // rank r sends r floats
        ctx.gather(2, buf)
    });
    let gathered = results[2].as_ref().unwrap();
    for (r, b) in gathered.iter().enumerate() {
        assert_eq!(b.len(), r);
        assert!(b.iter().all(|&x| x == r as f32));
    }
}
