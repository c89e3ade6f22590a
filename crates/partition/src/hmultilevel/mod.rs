//! Multilevel hypergraph partitioner minimizing the connectivity−1 metric
//! (the HP model's engine — a from-scratch stand-in for PaToH, DESIGN.md §1).
//!
//! Recursive bisection with net splitting: a net cut at one level is
//! restricted to each side and re-partitioned deeper, so the sum of
//! bisection cut costs over all levels equals the k-way connectivity−1 cut
//! (the standard PaToH-style decomposition). Each bisection runs
//! heavy-connectivity coarsening ([`coarsen`]), greedy growing
//! ([`initial`]), and hypergraph FM refinement ([`fm`]).

pub mod coarsen;
pub mod fm;
pub mod initial;
pub mod kway;

use crate::hypergraph::Hypergraph;
use crate::Partition;
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Ablation knobs for the multilevel pipeline (used by the `ablations`
/// bench to quantify what coarsening and FM refinement each contribute).
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Run the coarsening hierarchy (false = flat initial + FM only).
    pub coarsen: bool,
    /// FM passes at the coarsest level (0 disables refinement there).
    pub fm_passes_coarsest: usize,
    /// FM passes at each uncoarsening level.
    pub fm_passes_uncoarsen: usize,
    /// Greedy direct k-way refinement passes after recursive bisection
    /// (0 disables; see [`kway`]).
    pub kway_passes: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            coarsen: true,
            fm_passes_coarsest: 8,
            fm_passes_uncoarsen: 4,
            kway_passes: 2,
        }
    }
}

/// Partitions `h` into `p` parts with per-bisection imbalance `epsilon`.
pub fn partition(h: &Hypergraph, p: usize, epsilon: f64, seed: u64) -> Partition {
    partition_with(h, p, epsilon, seed, Options::default())
}

/// As [`partition`] with explicit pipeline [`Options`].
pub fn partition_with(
    h: &Hypergraph,
    p: usize,
    epsilon: f64,
    seed: u64,
    opts: Options,
) -> Partition {
    assert!(p >= 1, "need at least one part");
    let n = h.n_vertices();
    assert!(p <= n, "more parts than vertices");
    let mut assignment = vec![0u32; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<u32> = (0..n as u32).collect();
    recurse(h, &all, 0, p, epsilon, opts, &mut rng, &mut assignment);
    let mut part = Partition::new(assignment, p);
    if opts.kway_passes > 0 && p > 1 {
        kway::refine(h, &mut part, epsilon.max(0.03), opts.kway_passes);
    }
    part
}

// The recursion state is inherently eight-wide; bundling it into a struct
// would only rename the problem.
#[allow(clippy::too_many_arguments)]
fn recurse(
    h: &Hypergraph,
    vertices: &[u32],
    part_offset: u32,
    k: usize,
    epsilon: f64,
    opts: Options,
    rng: &mut StdRng,
    assignment: &mut [u32],
) {
    if k == 1 {
        for &v in vertices {
            assignment[v as usize] = part_offset;
        }
        return;
    }
    let k0 = k / 2;
    let k1 = k - k0;
    let frac0 = k0 as f64 / k as f64;

    let sub = extract_subhypergraph(h, vertices);
    let side = bisect(&sub, frac0, epsilon, opts, rng);

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (local, &v) in vertices.iter().enumerate() {
        if side[local] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    if left.is_empty() || right.is_empty() {
        left.clear();
        right.clear();
        for (i, &v) in vertices.iter().enumerate() {
            if i * k < vertices.len() * k0 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
    }
    recurse(h, &left, part_offset, k0, epsilon, opts, rng, assignment);
    recurse(
        h,
        &right,
        part_offset + k0 as u32,
        k1,
        epsilon,
        opts,
        rng,
        assignment,
    );
}

/// One multilevel bisection, returning side labels with side-0 target
/// weight fraction `frac0`.
///
/// `coarse[i]` is level `i + 1` and `maps[i]` maps level `i` onto it; level
/// 0 is `h` itself, borrowed. A level whose clustering fails the 0.95
/// reduction test is never contracted.
fn bisect(h: &Hypergraph, frac0: f64, epsilon: f64, opts: Options, rng: &mut StdRng) -> Vec<u8> {
    let mut coarse: Vec<Hypergraph> = Vec::new();
    let mut maps: Vec<Vec<u32>> = Vec::new();
    loop {
        let current = coarse.last().unwrap_or(h);
        if !opts.coarsen || current.n_vertices() <= 96 {
            break;
        }
        let (map, nc) = coarsen::cluster(current, rng);
        if nc as f64 > current.n_vertices() as f64 * 0.95 {
            break;
        }
        let next = coarsen::contract(current, &map, nc);
        maps.push(map);
        coarse.push(next);
    }

    let coarsest = coarse.last().unwrap_or(h);
    let mut side = initial::greedy_bisect(coarsest, frac0, rng);
    fm::refine(coarsest, &mut side, frac0, epsilon, opts.fm_passes_coarsest);

    while let Some(map) = maps.pop() {
        coarse.pop();
        let fine = coarse.last().unwrap_or(h);
        side = map.iter().map(|&c| side[c as usize]).collect();
        fm::refine(fine, &mut side, frac0, epsilon, opts.fm_passes_uncoarsen);
    }
    side
}

/// Net-splitting sub-hypergraph extraction: pins are restricted to
/// `vertices` (renumbered); nets left with fewer than two pins can never be
/// cut again and are dropped.
///
/// `vertices` must be strictly ascending (recursive bisection keeps them
/// so), which makes local ids monotone in global ids: every restricted net
/// is already sorted.
pub(crate) fn extract_subhypergraph(h: &Hypergraph, vertices: &[u32]) -> Hypergraph {
    debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
    let mut map = vec![u32::MAX; h.n_vertices()];
    for (local, &v) in vertices.iter().enumerate() {
        map[v as usize] = local as u32;
    }
    let vertex_weights: Vec<u64> = vertices
        .iter()
        .map(|&v| h.vertex_weights()[v as usize])
        .collect();
    let mut net_ptr = vec![0usize];
    let mut net_pins = Vec::new();
    let mut costs = Vec::new();
    for net in 0..h.n_nets() {
        let start = net_pins.len();
        net_pins.extend(
            h.pins(net)
                .iter()
                .map(|&pin| map[pin as usize])
                .filter(|&m| m != u32::MAX),
        );
        if net_pins.len() - start >= 2 {
            net_ptr.push(net_pins.len());
            costs.push(h.net_cost(net));
        } else {
            net_pins.truncate(start);
        }
    }
    Hypergraph::from_sorted_csr(vertex_weights, net_ptr, net_pins, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::{community, grid};

    fn model_of(g: &pargcn_graph::Graph) -> Hypergraph {
        Hypergraph::column_net_model(&g.normalized_adjacency())
    }

    #[test]
    fn produces_valid_balanced_partition() {
        let g = grid::road_network(900, 1);
        let h = model_of(&g);
        let part = partition(&h, 4, 0.05, 7);
        assert_eq!(part.p(), 4);
        assert!(part.all_parts_nonempty());
        assert!(
            part.imbalance(h.vertex_weights()) < 0.25,
            "imbalance {}",
            part.imbalance(h.vertex_weights())
        );
    }

    #[test]
    fn beats_random_on_structured_graphs() {
        let g = community::copurchase(2000, 8.0, false, 5);
        let h = model_of(&g);
        let part = partition(&h, 8, 0.05, 3);
        let rand_part = crate::random::partition(h.n_vertices(), 8, 3);
        let cut = h.connectivity_cut(&part);
        let rand_cut = h.connectivity_cut(&rand_part);
        assert!(
            (cut as f64) < rand_cut as f64 * 0.6,
            "multilevel cut {cut} not well below random cut {rand_cut}"
        );
    }

    #[test]
    fn net_splitting_preserves_kway_cut_decomposition() {
        // The bisection-level cut plus the two sub-problems' cuts equals the
        // 4-way connectivity cut, by the net-splitting construction.
        let g = grid::road_network(400, 2);
        let h = model_of(&g);
        let part = partition(&h, 4, 0.1, 1);
        // Merge parts {0,1} vs {2,3} to recover the top-level bisection.
        let top = Partition::new(
            part.assignment()
                .iter()
                .map(|&a| if a < 2 { 0 } else { 1 })
                .collect(),
            2,
        );
        let top_cut = h.connectivity_cut(&top);
        let four_cut = h.connectivity_cut(&part);
        assert!(
            four_cut >= top_cut,
            "k-way cut {four_cut} below top-level {top_cut}"
        );
    }

    #[test]
    fn handles_non_power_of_two() {
        let g = grid::road_network(600, 3);
        let h = model_of(&g);
        let part = partition(&h, 7, 0.1, 2);
        assert!(part.all_parts_nonempty());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid::road_network(300, 4);
        let h = model_of(&g);
        assert_eq!(partition(&h, 4, 0.05, 9), partition(&h, 4, 0.05, 9));
    }

    #[test]
    fn subhypergraph_drops_singleton_nets() {
        let h = Hypergraph::new(
            vec![1; 4],
            vec![vec![0, 1], vec![1, 2, 3], vec![0, 3]],
            vec![1, 1, 1],
        );
        let sub = extract_subhypergraph(&h, &[1, 2, 3]);
        // Net 0 loses pin 0 → 1 pin → dropped; net 1 keeps 3 pins; net 2
        // loses pin 0 → 1 pin → dropped.
        assert_eq!(sub.n_nets(), 1);
        assert_eq!(sub.pins(0), &[0, 1, 2]);
    }
}
