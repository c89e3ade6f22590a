//! The correctness contract of the whole paper reproduction: distributed
//! full-batch training must reproduce the serial trainer's losses,
//! parameters, and predictions — for every partitioning method, processor
//! count, graph family, directedness, and layer depth — up to f32
//! reassociation. The same contract covers the CAGNET broadcast baseline,
//! which computes the identical math with a different comm pattern.

use pargcn_core::baselines::cagnet;
use pargcn_core::dist::{train_full_batch, DistOutcome};
use pargcn_core::model::{GcnConfig, LayerOrder};
use pargcn_core::serial::SerialTrainer;
use pargcn_graph::gen::{community, er, grid, sbm};
use pargcn_graph::Graph;
use pargcn_matrix::Dense;
use pargcn_partition::stochastic::Sampler;
use pargcn_partition::{partition_rows, Method, Partition};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

const TOL: f32 = 2e-3;

/// A full-batch trainer entry point (P2P or CAGNET).
type Trainer =
    fn(&Graph, &Dense, &[u32], &[bool], &Partition, &GcnConfig, usize, u64) -> DistOutcome;

/// Runs the P2P and serial trainers and asserts agreement.
fn assert_equivalent(
    graph: &Graph,
    config: &GcnConfig,
    part: &Partition,
    epochs: usize,
    data_seed: u64,
) {
    assert_trainer_equivalent(train_full_batch, graph, config, part, epochs, data_seed);
}

/// Runs `train` and the serial trainer and asserts agreement.
fn assert_trainer_equivalent(
    train: Trainer,
    graph: &Graph,
    config: &GcnConfig,
    part: &Partition,
    epochs: usize,
    data_seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(data_seed);
    let h0 = Dense::random(graph.n(), config.dims[0], &mut rng);
    let labels: Vec<u32> = (0..graph.n())
        .map(|i| (i % config.dims[config.layers()]) as u32)
        .collect();
    let mask: Vec<bool> = (0..graph.n()).map(|i| i % 3 != 2).collect();

    let mut serial = SerialTrainer::new(graph, config.clone(), 42);
    let mut serial_losses = Vec::new();
    for _ in 0..epochs {
        serial_losses.push(serial.train_epoch(&h0, &labels, &mask));
    }
    let serial_pred = serial.predict(&h0);

    let out = train(graph, &h0, &labels, &mask, part, config, epochs, 42);

    for (e, (s, d)) in serial_losses.iter().zip(&out.losses).enumerate() {
        assert!(
            (s - d).abs() < 1e-3 * (1.0 + s.abs()),
            "epoch {e} loss diverged: serial {s} vs dist {d} (p={})",
            part.p()
        );
    }
    assert!(
        out.predictions.approx_eq(&serial_pred, TOL),
        "predictions diverged (p={}, max diff {})",
        part.p(),
        out.predictions.max_abs_diff(&serial_pred)
    );
    for (k, (sw, dw)) in serial
        .params
        .weights
        .iter()
        .zip(&out.params.weights)
        .enumerate()
    {
        assert!(
            sw.approx_eq(dw, TOL),
            "W{k} diverged (max diff {})",
            sw.max_abs_diff(dw)
        );
    }
}

#[test]
fn all_partitioners_match_serial_undirected() {
    let g = community::copurchase(180, 6.0, false, 1);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(6, 8, 3);
    for method in [
        Method::Rp,
        Method::Gp,
        Method::Hp,
        Method::Shp {
            sampler: Sampler::UniformVertex { batch_size: 40 },
            batches: 3,
        },
    ] {
        let part = partition_rows(&g, &a, method, 4, 0.1, 9);
        assert_equivalent(&g, &config, &part, 4, 7);
    }
}

#[test]
fn directed_graph_matches_serial() {
    // Directed: backprop must use the transpose plan.
    let g = er::generate(120, 600, true, 5);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(5, 7, 2);
    let part = partition_rows(&g, &a, Method::Hp, 3, 0.1, 3);
    assert_equivalent(&g, &config, &part, 4, 11);
}

#[test]
fn deeper_networks_match_serial() {
    let g = grid::road_network(150, 2);
    let a = g.normalized_adjacency();
    let config = GcnConfig {
        dims: vec![4, 6, 6, 6, 3],
        learning_rate: 0.05,
        order: LayerOrder::SpmmFirst,
        optimizer: pargcn_core::optim::Optimizer::Sgd,
    };
    let part = partition_rows(&g, &a, Method::Hp, 5, 0.1, 1);
    assert_equivalent(&g, &config, &part, 3, 13);
}

#[test]
fn dmm_first_order_matches_serial() {
    // §4.4: the GAT-style ordering uses the identical comm plan.
    let g = community::copurchase(140, 5.0, false, 3);
    let a = g.normalized_adjacency();
    let config = GcnConfig {
        dims: vec![6, 5, 3],
        learning_rate: 0.1,
        order: LayerOrder::DmmFirst,
        optimizer: pargcn_core::optim::Optimizer::Sgd,
    };
    let part = partition_rows(&g, &a, Method::Gp, 4, 0.1, 5);
    assert_equivalent(&g, &config, &part, 3, 17);
}

#[test]
fn many_ranks_exceeding_typical_core_count() {
    // Functional correctness at p well beyond physical cores.
    let g = er::generate(200, 1000, false, 8);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(4, 6, 2);
    let part = partition_rows(&g, &a, Method::Rp, 32, 0.1, 2);
    assert_equivalent(&g, &config, &part, 2, 19);
}

#[test]
fn single_rank_distributed_is_serial() {
    let g = grid::road_network(80, 4);
    let config = GcnConfig::two_layer(3, 5, 2);
    let part = Partition::trivial(g.n());
    assert_equivalent(&g, &config, &part, 5, 23);
}

#[test]
fn cagnet_matches_serial_and_p2p() {
    let g = community::copurchase(150, 6.0, false, 6);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(5, 6, 3);
    let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 4);

    let mut rng = StdRng::seed_from_u64(29);
    let h0 = Dense::random(g.n(), 5, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 3) as u32).collect();
    let mask = vec![true; g.n()];

    let p2p = train_full_batch(&g, &h0, &labels, &mask, &part, &config, 3, 42);
    let bc = cagnet::train_full_batch(&g, &h0, &labels, &mask, &part, &config, 3, 42);
    assert!(
        p2p.predictions.approx_eq(&bc.predictions, TOL),
        "CAGNET diverged from P2P: max diff {}",
        p2p.predictions.max_abs_diff(&bc.predictions)
    );
    for (s, d) in p2p.losses.iter().zip(&bc.losses) {
        assert!((s - d).abs() < 1e-3 * (1.0 + s.abs()));
    }

    let mut serial = SerialTrainer::new(&g, config.clone(), 42);
    for _ in 0..3 {
        serial.train_epoch(&h0, &labels, &mask);
    }
    assert!(bc.predictions.approx_eq(&serial.predict(&h0), TOL));
}

#[test]
fn cagnet_directed_matches_serial() {
    let g = er::generate(90, 400, true, 9);
    let part = pargcn_partition::random::partition(g.n(), 3, 6);

    let mut rng = StdRng::seed_from_u64(31);
    let h0 = Dense::random(g.n(), 4, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 2) as u32).collect();
    let mask = vec![true; g.n()];

    for order in [LayerOrder::SpmmFirst, LayerOrder::DmmFirst] {
        let mut config = GcnConfig::two_layer(4, 5, 2);
        config.order = order;
        let bc = cagnet::train_full_batch(&g, &h0, &labels, &mask, &part, &config, 3, 42);
        let mut serial = SerialTrainer::new(&g, config.clone(), 42);
        for _ in 0..3 {
            serial.train_epoch(&h0, &labels, &mask);
        }
        assert!(
            bc.predictions.approx_eq(&serial.predict(&h0), TOL),
            "{order:?}"
        );
    }
}

#[test]
fn counters_match_static_prediction() {
    // The runtime's measured bytes = plan volume × row width × 4 bytes ×
    // epochs × sweeps — exact, not approximate.
    let g = community::copurchase(160, 6.0, false, 2);
    let a = g.normalized_adjacency();
    let config = GcnConfig {
        dims: vec![8, 8, 4],
        learning_rate: 0.1,
        order: LayerOrder::SpmmFirst,
        optimizer: pargcn_core::optim::Optimizer::Sgd,
    };
    let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 8);
    let plan = pargcn_core::CommPlan::build(&a, &part);
    let epochs = 2;

    let mut rng = StdRng::seed_from_u64(37);
    let h0 = Dense::random(g.n(), 8, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 4) as u32).collect();
    let mask = vec![true; g.n()];
    let out = train_full_batch(&g, &h0, &labels, &mask, &part, &config, epochs, 1);

    // Per epoch: feedforward sends d_{k-1}-wide rows per layer, backprop
    // d_k-wide rows; plus one extra forward pass for final predictions.
    let vol = plan.total_volume_rows();
    let per_epoch_bytes: u64 = vol * (8 + 8) * 4 + vol * (8 + 4) * 4;
    let final_forward: u64 = vol * (8 + 8) * 4;
    let expected = per_epoch_bytes * epochs as u64 + final_forward;
    let measured: u64 = out.counters.iter().map(|c| c.sent_bytes).sum();
    assert_eq!(measured, expected);

    let per_epoch_msgs = plan.total_messages() * 2 /* layers */ * 2 /* directions */;
    let expected_msgs = per_epoch_msgs * epochs as u64 + plan.total_messages() * 2;
    let measured_msgs: u64 = out.counters.iter().map(|c| c.sent_messages).sum();
    assert_eq!(measured_msgs, expected_msgs);
}

#[test]
fn accuracy_unaffected_by_parallelism_fig4c() {
    // Fig. 4c in miniature: train the Cora-like SBM serially and at several
    // processor counts; accuracies agree and beat chance.
    let d = sbm::generate(
        sbm::SbmParams {
            n: 350,
            classes: 5,
            features: 12,
            feature_separation: 1.6,
            ..Default::default()
        },
        13,
    );
    let config = GcnConfig::two_layer(12, 16, 5);
    let test_mask: Vec<bool> = d.train_mask.iter().map(|&m| !m).collect();

    let mut serial = SerialTrainer::new(&d.graph, config.clone(), 3);
    for _ in 0..30 {
        serial.train_epoch(&d.features, &d.labels, &d.train_mask);
    }
    let serial_acc =
        pargcn_core::loss::accuracy(&serial.predict(&d.features), &d.labels, &test_mask);
    assert!(serial_acc > 0.5, "serial accuracy {serial_acc} too low");

    let a = d.graph.normalized_adjacency();
    for p in [2usize, 5, 9] {
        let part = partition_rows(&d.graph, &a, Method::Hp, p, 0.1, 21);
        let out = train_full_batch(
            &d.graph,
            &d.features,
            &d.labels,
            &d.train_mask,
            &part,
            &config,
            30,
            3,
        );
        let acc = pargcn_core::loss::accuracy(&out.predictions, &d.labels, &test_mask);
        assert!(
            (acc - serial_acc).abs() < 0.05,
            "p={p}: accuracy {acc} deviates from serial {serial_acc}"
        );
    }
}

#[test]
fn adam_optimizer_matches_serial() {
    // The optimizer state is replicated like the parameters; Adam's
    // nonlinear update must stay in lock-step across ranks and match the
    // serial trainer exactly — for CAGNET too, which differs from P2P
    // only in its exchange.
    let g = community::copurchase(160, 6.0, false, 12);
    let a = g.normalized_adjacency();
    let mut config = GcnConfig::two_layer(6, 8, 3);
    config.learning_rate = 0.01;
    config.optimizer = pargcn_core::optim::Optimizer::adam();
    let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 6);
    let trainers: [Trainer; 2] = [train_full_batch, cagnet::train_full_batch];
    for train in trainers {
        assert_trainer_equivalent(train, &g, &config, &part, 5, 31);
    }
}

#[test]
fn adam_converges_on_learnable_data() {
    let d = sbm::generate(
        sbm::SbmParams {
            n: 260,
            classes: 4,
            features: 8,
            feature_separation: 1.4,
            ..Default::default()
        },
        19,
    );
    let mut config = GcnConfig::two_layer(8, 12, 4);
    config.learning_rate = 0.02;
    config.optimizer = pargcn_core::optim::Optimizer::adam();
    let a = d.graph.normalized_adjacency();
    let part = partition_rows(&d.graph, &a, Method::Hp, 3, 0.1, 2);
    let out = train_full_batch(
        &d.graph,
        &d.features,
        &d.labels,
        &d.train_mask,
        &part,
        &config,
        25,
        4,
    );
    assert!(
        out.losses.last().unwrap() < &(out.losses[0] * 0.7),
        "Adam failed to converge: {:?} → {:?}",
        out.losses[0],
        out.losses.last().unwrap()
    );
}

#[test]
fn rank_with_no_labelled_vertices_is_fine() {
    // All labels concentrated on one rank's rows: other ranks contribute
    // zero loss/gradient but must stay in the collective lock-step.
    let g = community::copurchase(120, 6.0, false, 21);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(4, 6, 2);
    let part = partition_rows(&g, &a, Method::Gp, 4, 0.1, 7);
    // Mask only the vertices of part 0.
    let mask: Vec<bool> = (0..g.n()).map(|v| part.part_of(v) == 0).collect();
    assert!(mask.iter().any(|&m| m));
    let mut rng = StdRng::seed_from_u64(41);
    let h0 = Dense::random(g.n(), 4, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 2) as u32).collect();

    let out = train_full_batch(&g, &h0, &labels, &mask, &part, &config, 3, 9);
    let mut serial = SerialTrainer::new(&g, config, 9);
    for (e, d) in out.losses.iter().enumerate() {
        let s = serial.train_epoch(&h0, &labels, &mask);
        assert!(
            (s - d).abs() < 1e-3 * (1.0 + s.abs()),
            "epoch {e}: {s} vs {d}"
        );
    }
}

#[test]
fn empty_rank_participates_correctly() {
    // A partition with an empty part: that rank owns no rows, sends and
    // receives nothing in the SpMM, but still joins every allreduce.
    let g = er::generate(60, 300, false, 33);
    let mut assignment: Vec<u32> = (0..60).map(|i| (i % 3) as u32).collect();
    for a in assignment.iter_mut() {
        if *a == 2 {
            *a = 0; // part 2 emptied
        }
    }
    let part = Partition::new(assignment, 3);
    let config = GcnConfig::two_layer(4, 5, 2);
    assert_equivalent(&g, &config, &part, 3, 43);
}
