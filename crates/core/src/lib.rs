//! Distributed-memory parallel GCN training — the primary contribution of
//! Demirci, Haldar & Ferhatosmanoglu (VLDB 2022), reproduced from scratch.
//!
//! The training pipeline:
//!
//! 1. [`plan::CommPlan`] turns a row [`pargcn_partition::Partition`] of the
//!    normalized adjacency into per-rank local blocks and the send/receive
//!    sets `Sₘ`/`Rₘ` of Eqs. 8–9;
//! 2. [`dist`] runs Algorithm 1 (feedforward) and Algorithm 2
//!    (backpropagation) over the [`pargcn_comm`] runtime: non-blocking
//!    point-to-point row transfers for the SpMM, purely local DMMs against
//!    the replicated parameter matrices, and one allreduce per layer for
//!    `ΔW` — stepped on every rank by the one training [`dist::Driver`]
//!    that full-batch, mini-batch and CAGNET training share;
//! 3. [`serial`] is the single-node reference (the paper's DGL baseline
//!    role) and the correctness oracle: distributed training must reproduce
//!    its losses and predictions to float tolerance for *any* partition;
//! 4. [`baselines::cagnet`] is the CAGNET-style broadcast algorithm the
//!    paper compares against — the same training loop over a broadcast
//!    [`dist::SpmmExchange`];
//! 5. [`minibatch`] samples subgraphs and trains on them, the workload the
//!    stochastic hypergraph model (§4.3.3) optimizes for.
//!
//! ```
//! use pargcn_core::{dist::train_full_batch, GcnConfig};
//! use pargcn_graph::gen::grid;
//! use pargcn_matrix::Dense;
//! use pargcn_partition::{partition_rows, Method};
//!
//! let g = grid::road_network(120, 1);
//! let a = g.normalized_adjacency();
//! let part = partition_rows(&g, &a, Method::Hp, 3, 0.05, 1);
//!
//! let config = GcnConfig::two_layer(4, 6, 2);
//! let h0 = Dense::from_fn(g.n(), 4, |i, j| ((i * 7 + j) % 5) as f32 / 5.0);
//! let labels: Vec<u32> = (0..g.n()).map(|i| (i % 2) as u32).collect();
//! let mask = vec![true; g.n()];
//!
//! // Three ranks (threads) run Algorithms 1–2 for five epochs.
//! let out = train_full_batch(&g, &h0, &labels, &mask, &part, &config, 5, 42);
//! assert_eq!(out.losses.len(), 5);
//! assert!(out.losses[4] < out.losses[0], "training reduces the loss");
//! ```

pub mod activations;
pub mod baselines;
pub mod checkpoint;
pub mod dist;
pub mod gat;
pub mod loss;
pub mod metrics;
pub mod minibatch;
pub mod model;
pub mod optim;
pub mod plan;
pub mod serial;
pub mod sgc;

pub use model::{GcnConfig, LayerOrder, Params};
pub use plan::{CommPlan, PlanBuilder};
