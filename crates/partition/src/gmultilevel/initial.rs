//! Greedy graph-growing initial bisection.
//!
//! From a random seed vertex, side 0 grows by repeatedly absorbing the
//! frontier vertex most strongly connected to the grown region, until side
//! 0 reaches its target weight. Several seeds are tried and the best cut is
//! kept. Runs only at the coarsest level, so quality matters more than
//! speed.

use crate::graph_model::WeightedGraph;
use crate::heap::IndexedMaxHeap;
use pargcn_util::rng::Rng;
use pargcn_util::rng::StdRng;

/// Number of random seeds tried per bisection.
const TRIES: usize = 4;

/// Bisects `g`, targeting a side-0 weight fraction of `frac0`.
/// Returns side labels (0 or 1) per vertex.
pub fn greedy_bisect(g: &WeightedGraph, frac0: f64, rng: &mut StdRng) -> Vec<u8> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let total: u64 = g.vertex_weights().iter().sum();
    let target0 = (total as f64 * frac0).round() as u64;

    let mut best: Option<(u64, Vec<u8>)> = None;
    for _ in 0..TRIES {
        let side = grow_from(g, rng.gen_range(0..n), target0);
        let cut = g.edge_cut(&crate::Partition::new(
            side.iter().map(|&s| s as u32).collect(),
            2,
        ));
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.unwrap().1
}

fn grow_from(g: &WeightedGraph, seed: usize, target0: u64) -> Vec<u8> {
    let n = g.n();
    let mut side = vec![1u8; n];
    let mut grown_weight = 0u64;
    // Frontier keyed by connectivity to the grown region.
    let mut heap = IndexedMaxHeap::new(n);
    let mut conn = vec![0u64; n];
    let mut next_seed = seed;
    // Every vertex before `cursor` is grown.
    let mut cursor = 0;

    loop {
        heap.push_or_raise(next_seed as u32, 1);
        while grown_weight < target0 {
            let Some(v) = heap.pop() else { break };
            let v = v as usize;
            side[v] = 0;
            grown_weight += g.vertex_weights()[v];
            for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights_of(v)) {
                if side[u as usize] == 1 {
                    conn[u as usize] += w;
                    heap.push_or_raise(u, conn[u as usize].max(1));
                }
            }
        }
        if grown_weight >= target0 {
            break;
        }
        // Disconnected input: restart from the first ungrown vertex. The
        // heap is empty here, so every earlier seed has been grown, and
        // grown vertices never return to side 1: the first ungrown vertex
        // never moves back, and the cursor only moves forward.
        while cursor < n && side[cursor] == 0 {
            cursor += 1;
        }
        if cursor == n {
            break;
        }
        next_seed = cursor;
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_util::qc;
    use pargcn_util::rng::SeedableRng;
    use std::collections::BinaryHeap;

    /// Reference growth over a lazy `BinaryHeap` (a push per key change,
    /// stale entries skipped on pop): [`grow_from`] must match it exactly.
    fn grow_from_lazy(g: &WeightedGraph, seed: usize, target0: u64) -> Vec<u8> {
        let n = g.n();
        let mut side = vec![1u8; n];
        let mut grown_weight = 0u64;
        // Max-heap of (connectivity-to-region, vertex); lazily updated.
        let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
        let mut conn = vec![0u64; n];
        let mut next_seed = seed;
        let mut visited_seed = vec![false; n];

        loop {
            if side[next_seed] == 1 {
                heap.push((1, next_seed as u32));
                visited_seed[next_seed] = true;
            }
            while grown_weight < target0 {
                let Some((key, v)) = heap.pop() else { break };
                let v = v as usize;
                if side[v] == 0 {
                    continue; // already grown
                }
                if key != conn[v].max(1) {
                    continue; // stale entry; a fresher one exists
                }
                side[v] = 0;
                grown_weight += g.vertex_weights()[v];
                for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights_of(v)) {
                    if side[u as usize] == 1 {
                        conn[u as usize] += w;
                        heap.push((conn[u as usize].max(1), u));
                    }
                }
            }
            if grown_weight >= target0 {
                break;
            }
            // Disconnected graph: restart growth from an untouched vertex.
            match (0..n).find(|&v| side[v] == 1 && !visited_seed[v]) {
                Some(v) => next_seed = v,
                None => break,
            }
        }
        side
    }

    fn path_graph(n: usize) -> WeightedGraph {
        let mut adj_ptr = vec![0usize];
        let mut adj = Vec::new();
        let mut ew = Vec::new();
        for v in 0..n {
            if v > 0 {
                adj.push((v - 1) as u32);
                ew.push(1);
            }
            if v + 1 < n {
                adj.push((v + 1) as u32);
                ew.push(1);
            }
            adj_ptr.push(adj.len());
        }
        WeightedGraph::new(vec![1; n], adj_ptr, adj, ew)
    }

    #[test]
    fn path_bisection_is_contiguous_and_cheap() {
        let g = path_graph(60);
        let mut rng = StdRng::seed_from_u64(4);
        let side = greedy_bisect(&g, 0.5, &mut rng);
        let part = crate::Partition::new(side.iter().map(|&s| s as u32).collect(), 2);
        // Greedy growing on a path yields one contiguous segment: cut ≤ 2.
        assert!(g.edge_cut(&part) <= 2, "cut {}", g.edge_cut(&part));
        let w = part.part_weights(&vec![1u64; 60]);
        assert!(w[0] >= 25 && w[0] <= 35, "weights {w:?}");
    }

    #[test]
    fn asymmetric_fraction_respected() {
        let g = path_graph(100);
        let mut rng = StdRng::seed_from_u64(5);
        let side = greedy_bisect(&g, 0.25, &mut rng);
        let w0: usize = side.iter().filter(|&&s| s == 0).count();
        assert!((20..=32).contains(&w0), "side-0 size {w0}");
    }

    #[test]
    fn disconnected_components_all_reachable() {
        // Two disjoint paths of 10; growth must jump components.
        let mut adj_ptr = vec![0usize];
        let mut adj = Vec::new();
        let mut ew = Vec::new();
        for v in 0..20u32 {
            let base = if v < 10 { 0 } else { 10 };
            if v > base {
                adj.push(v - 1);
                ew.push(1);
            }
            if v + 1 < base + 10 {
                adj.push(v + 1);
                ew.push(1);
            }
            adj_ptr.push(adj.len());
        }
        let g = WeightedGraph::new(vec![1; 20], adj_ptr, adj, ew);
        let mut rng = StdRng::seed_from_u64(6);
        let side = greedy_bisect(&g, 0.75, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!(w0 >= 13, "grew only {w0} of target 15");
    }

    /// Symmetric adjacency lists from undirected weighted edges.
    fn from_edges(weights: Vec<u64>, edges: &[(u32, u32, u64)]) -> WeightedGraph {
        let n = weights.len();
        let mut lists = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            lists[u as usize].push((v, w));
            lists[v as usize].push((u, w));
        }
        let mut adj_ptr = vec![0usize];
        let (mut adj, mut ew) = (Vec::new(), Vec::new());
        for list in lists {
            for (v, w) in list {
                adj.push(v);
                ew.push(w);
            }
            adj_ptr.push(adj.len());
        }
        WeightedGraph::new(weights, adj_ptr, adj, ew)
    }

    #[test]
    fn indexed_growth_matches_the_lazy_heap() {
        // Several components, parallel and zero-weight edges, self loops
        // and isolated vertices.
        qc::check(|rng| {
            let n = rng.gen_range(1..80usize);
            let pinned = rng.gen_range(1..=n);
            let components = rng.gen_range(1..6usize).min(pinned);
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(0..3 * n) {
                let c = rng.gen_range(0..components);
                let members: Vec<u32> = (c..pinned).step_by(components).map(|v| v as u32).collect();
                let u = members[rng.gen_range(0..members.len())];
                let v = members[rng.gen_range(0..members.len())];
                edges.push((u, v, rng.gen_range(0..4u64)));
                if rng.gen_range(0..5u32) == 0 {
                    edges.push((u, v, rng.gen_range(0..4u64)));
                }
            }
            let g = from_edges((0..n).map(|_| rng.gen_range(0..6u64)).collect(), &edges);
            let total: u64 = g.vertex_weights().iter().sum();
            for _ in 0..4 {
                let seed = rng.gen_range(0..n);
                let target0 = rng.gen_range(0..=total + 1);
                assert_eq!(
                    grow_from(&g, seed, target0),
                    grow_from_lazy(&g, seed, target0)
                );
            }
        });
    }

    #[test]
    fn growth_restarts_across_many_components() {
        // 2,000 disjoint edges: growth must restart once per component it
        // absorbs, each restart resuming the forward scan.
        let edges: Vec<(u32, u32, u64)> = (0..2000u32).map(|c| (2 * c, 2 * c + 1, 1)).collect();
        let g = from_edges(vec![1; 4000], &edges);
        let side = grow_from(&g, 1234, 3000);
        assert_eq!(side, grow_from_lazy(&g, 1234, 3000));
        assert_eq!(side.iter().filter(|&&s| s == 0).count(), 3000);
        assert!((0..2000).all(|c| side[2 * c] == side[2 * c + 1]));
    }
}
