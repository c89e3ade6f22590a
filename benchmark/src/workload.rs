//! The benchmark's workloads and the inputs each one generates from its
//! seed. README.md records why each workload exists.

use pargcn_graph::{Dataset, Graph};
use pargcn_matrix::{ComputeSpec, Dense, KernelKind};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_util::rng::{Rng, SeedableRng, StdRng};

/// Mini-batches are uniform-vertex samples of `n / BATCH_DIVISOR`
/// vertices, the paper's Fig. 5 ratio.
pub const BATCH_DIVISOR: usize = 16;
/// Batches per `MinibatchEngine::train` call in the timed stream. The same
/// cycle is trained on every call, so per-batch counts repeat exactly.
pub const CYCLE: usize = 64;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Ranks.
    pub p: usize,
    /// Kernel threads per rank.
    pub threads: usize,
    /// Mini-batch training through `MinibatchEngine`; full batch otherwise.
    pub minibatch: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fb-reddit-p2",
        dataset: Dataset::Reddit,
        p: 2,
        threads: 1,
        minibatch: false,
    },
    Workload {
        name: "fb-road-p2",
        dataset: Dataset::RoadNetCa,
        p: 2,
        threads: 1,
        minibatch: false,
    },
    Workload {
        name: "mb-amazon-p2",
        dataset: Dataset::ComAmazon,
        p: 2,
        threads: 1,
        minibatch: true,
    },
    Workload {
        name: "fb-reddit-p1t2",
        dataset: Dataset::Reddit,
        p: 1,
        threads: 2,
        minibatch: false,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Pinned kernel engine and thread count, so no environment variable
    /// changes what a workload runs.
    pub fn spec(&self) -> ComputeSpec {
        ComputeSpec {
            threads: Some(self.threads),
            kernel: Some(KernelKind::Blocked),
        }
    }
}

/// The dataset instance: each workload trains on one fixed graph and
/// partitions it with one fixed partitioner seed, as a real dataset is
/// fixed. The HP volume differs between generated instances by much more
/// than any bound (338 to 681 rows on roadNet-CA over instance seeds
/// 1–12), so with the graph drawn per run a change in partitioning or
/// planning would hide inside that spread; on a fixed instance it moves
/// the exact counts.
pub const INSTANCE_SEED: u64 = 1;

/// Everything the program receives, generated before any timing starts:
/// the dataset instance, and from the run's seed the features, labels,
/// initial parameters (`Opts::seed` is the parameter seed) and batches.
pub struct Inputs {
    pub graph: Graph,
    pub h0: Dense,
    pub labels: Vec<u32>,
    /// Every vertex is in the training mask (Table 2 protocol).
    pub mask: Vec<bool>,
    /// `1 + CYCLE` batches: the cold first step's batch, then the cycle
    /// (empty for full batch).
    pub batches: Vec<Vec<u32>>,
}

impl Inputs {
    /// The dataset at its default scale, with random features of width
    /// `d_in` and random labels in `0..classes`.
    pub fn generate(w: &Workload, seed: u64, d_in: usize, classes: usize) -> Inputs {
        let graph = w.dataset.generate_default(INSTANCE_SEED).graph;
        let n = graph.n();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let h0 = Dense::random(n, d_in, &mut rng);
        let labels = (0..n).map(|_| rng.gen_range(0..classes as u32)).collect();
        let batches = if w.minibatch {
            let sampler = Sampler::UniformVertex {
                batch_size: n / BATCH_DIVISOR,
            };
            sample_batches(&graph, sampler, 1 + CYCLE, seed.wrapping_add(1))
        } else {
            Vec::new()
        };
        Inputs {
            graph,
            h0,
            labels,
            mask: vec![true; n],
            batches,
        }
    }
}
