//! Full-training bitwise determinism across kernel thread counts.
//!
//! The pooled kernels are individually bitwise identical to serial (see
//! `pargcn-matrix`'s determinism suite); these tests close the loop at the
//! trainer level: whole distributed and serial training runs — losses,
//! final parameters, and predictions — are bitwise equal at 1, 2, and 7
//! threads per rank. Combined with the plan-order accumulation guarantee
//! of the exchange, thread count can never leak into results.

use pargcn_core::dist;
use pargcn_core::model::GcnConfig;
use pargcn_core::serial::SerialTrainer;
use pargcn_graph::gen::sbm::{self, SbmParams};
use pargcn_matrix::{ComputeCtx, ComputeSpec, Dense};
use pargcn_partition::random;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn setup() -> (pargcn_graph::Graph, Dense, Vec<u32>, Vec<bool>) {
    let d = sbm::generate(
        SbmParams {
            n: 250,
            classes: 4,
            features: 12,
            feature_separation: 1.2,
            ..Default::default()
        },
        11,
    );
    (d.graph, d.features, d.labels, d.train_mask)
}

fn dense_bits(d: &Dense) -> Vec<u32> {
    d.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn dist_trainer_epochs_bitwise_equal_across_thread_counts() {
    let (g, h0, labels, mask) = setup();
    let config = GcnConfig::two_layer(12, 16, 4);
    let part = random::partition(g.n(), 3, 7);

    type RunBits = (Vec<u64>, Vec<u32>, Vec<Vec<u32>>);
    let mut reference: Option<RunBits> = None;
    for t in THREAD_COUNTS {
        let spec = ComputeSpec {
            threads: Some(t),
            kernel: None,
        };
        let out = dist::train_full_batch_spec(&g, &h0, &labels, &mask, &part, &config, 3, 99, spec);
        let losses: Vec<u64> = out.losses.iter().map(|l| l.to_bits()).collect();
        let preds = dense_bits(&out.predictions);
        let weights: Vec<Vec<u32>> = out.params.weights.iter().map(dense_bits).collect();
        match &reference {
            None => reference = Some((losses, preds, weights)),
            Some((rl, rp, rw)) => {
                assert_eq!(rl, &losses, "losses differ at {t} threads");
                assert_eq!(rp, &preds, "predictions differ at {t} threads");
                assert_eq!(rw, &weights, "weights differ at {t} threads");
            }
        }
    }
}

#[test]
fn serial_trainer_bitwise_equal_across_thread_counts() {
    let (g, h0, labels, mask) = setup();
    let config = GcnConfig::two_layer(12, 16, 4);

    let mut reference: Option<(Vec<u64>, Vec<u32>)> = None;
    for t in THREAD_COUNTS {
        let mut trainer =
            SerialTrainer::new(&g, config.clone(), 7).with_ctx(ComputeCtx::with_threads(t));
        let losses: Vec<u64> = (0..3)
            .map(|_| trainer.train_epoch(&h0, &labels, &mask).to_bits())
            .collect();
        let preds = dense_bits(&trainer.predict(&h0));
        match &reference {
            None => reference = Some((losses, preds)),
            Some((rl, rp)) => {
                assert_eq!(rl, &losses, "serial losses differ at {t} threads");
                assert_eq!(rp, &preds, "serial predictions differ at {t} threads");
            }
        }
    }
}

#[test]
fn cagnet_trainer_bitwise_equal_across_thread_counts() {
    let (g, h0, labels, mask) = setup();
    let config = GcnConfig::two_layer(12, 16, 4);
    let part = random::partition(g.n(), 2, 5);

    let mut reference: Option<(Vec<u64>, Vec<u32>)> = None;
    for t in THREAD_COUNTS {
        let out = pargcn_core::baselines::cagnet::train_full_batch_spec(
            &g,
            &h0,
            &labels,
            &mask,
            &part,
            &config,
            2,
            13,
            ComputeSpec {
                threads: Some(t),
                kernel: None,
            },
        );
        let losses: Vec<u64> = out.losses.iter().map(|l| l.to_bits()).collect();
        let preds = dense_bits(&out.predictions);
        match &reference {
            None => reference = Some((losses, preds)),
            Some((rl, rp)) => {
                assert_eq!(rl, &losses, "cagnet losses differ at {t} threads");
                assert_eq!(rp, &preds, "cagnet predictions differ at {t} threads");
            }
        }
    }
}

#[test]
fn compute_seconds_are_recorded_per_rank() {
    let (g, h0, labels, mask) = setup();
    let config = GcnConfig::two_layer(12, 16, 4);
    let part = random::partition(g.n(), 2, 3);
    let out = dist::train_full_batch(&g, &h0, &labels, &mask, &part, &config, 2, 1);
    for (m, (c, &wall)) in out.counters.iter().zip(&out.rank_seconds).enumerate() {
        assert!(c.compute_seconds > 0.0, "rank {m} recorded no compute time");
        // comm + compute is the rank's wall time by construction.
        let sum = c.comm_seconds + c.compute_seconds;
        assert!(
            (sum - wall).abs() <= 1e-6 + wall * 1e-3,
            "rank {m}: comm {} + compute {} != wall {}",
            c.comm_seconds,
            c.compute_seconds,
            wall
        );
    }
}
