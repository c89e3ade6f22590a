//! Greedy growing initial bisection for hypergraphs.
//!
//! Side 0 grows from a random seed, absorbing next the frontier vertex with
//! the strongest net connectivity to the grown region (each incident net
//! with a grown pin contributes its cost). FM refinement afterwards does
//! the fine-grained work; this only needs a sane starting point.

use crate::heap::IndexedMaxHeap;
use crate::hypergraph::Hypergraph;
use crate::Partition;
use pargcn_util::rng::Rng;
use pargcn_util::rng::StdRng;

const TRIES: usize = 4;

/// Bisects `h`, targeting a side-0 weight fraction of `frac0`.
pub fn greedy_bisect(h: &Hypergraph, frac0: f64, rng: &mut StdRng) -> Vec<u8> {
    let n = h.n_vertices();
    if n == 0 {
        return Vec::new();
    }
    let total: u64 = h.vertex_weights().iter().sum();
    let target0 = (total as f64 * frac0).round() as u64;

    let mut best: Option<(u64, Vec<u8>)> = None;
    for _ in 0..TRIES {
        let side = grow_from(h, rng.gen_range(0..n), target0);
        let part = Partition::new(side.iter().map(|&s| s as u32).collect(), 2);
        let cut = h.connectivity_cut(&part);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.unwrap().1
}

fn grow_from(h: &Hypergraph, seed: usize, target0: u64) -> Vec<u8> {
    let n = h.n_vertices();
    let mut side = vec![1u8; n];
    let mut grown_weight = 0u64;
    let mut conn = vec![0u64; n];
    let mut net_has_grown = vec![false; h.n_nets()];
    let mut heap = IndexedMaxHeap::new(n);
    // Every vertex before `cursor` is grown.
    let mut cursor = 0;
    let mut next_seed = seed;

    loop {
        heap.push_or_raise(next_seed as u32, 1);
        while grown_weight < target0 {
            let Some(v) = heap.pop() else { break };
            let v = v as usize;
            side[v] = 0;
            grown_weight += h.vertex_weights()[v];
            for &net in h.nets_of(v) {
                if !net_has_grown[net as usize] {
                    net_has_grown[net as usize] = true;
                    let cost = h.net_cost(net as usize);
                    for &u in h.pins(net as usize) {
                        if side[u as usize] == 1 {
                            conn[u as usize] += cost;
                            heap.push_or_raise(u, conn[u as usize].max(1));
                        }
                    }
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
    fn grow_from_lazy(h: &Hypergraph, seed: usize, target0: u64) -> Vec<u8> {
        let n = h.n_vertices();
        let mut side = vec![1u8; n];
        let mut grown_weight = 0u64;
        let mut conn = vec![0u64; n];
        let mut net_has_grown = vec![false; h.n_nets()];
        let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
        let mut visited_seed = vec![false; n];
        let mut next_seed = seed;

        loop {
            if side[next_seed] == 1 {
                heap.push((1, next_seed as u32));
                visited_seed[next_seed] = true;
            }
            while grown_weight < target0 {
                let Some((key, v)) = heap.pop() else { break };
                let v = v as usize;
                if side[v] == 0 {
                    continue;
                }
                if key != conn[v].max(1) {
                    continue;
                }
                side[v] = 0;
                grown_weight += h.vertex_weights()[v];
                for &net in h.nets_of(v) {
                    if !net_has_grown[net as usize] {
                        net_has_grown[net as usize] = true;
                        let cost = h.net_cost(net as usize);
                        for &u in h.pins(net as usize) {
                            if side[u as usize] == 1 {
                                conn[u as usize] += cost;
                                heap.push((conn[u as usize].max(1), u));
                            }
                        }
                    }
                }
            }
            if grown_weight >= target0 {
                break;
            }
            match (0..n).find(|&v| side[v] == 1 && !visited_seed[v]) {
                Some(v) => next_seed = v,
                None => break,
            }
        }
        side
    }

    fn chain(n: usize) -> Hypergraph {
        let nets: Vec<Vec<u32>> = (0..n as u32 - 1).map(|i| vec![i, i + 1]).collect();
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(vec![1; n], nets, costs)
    }

    #[test]
    fn chain_bisection_is_contiguous() {
        let h = chain(60);
        let mut rng = StdRng::seed_from_u64(0);
        let side = greedy_bisect(&h, 0.5, &mut rng);
        let part = Partition::new(side.iter().map(|&s| s as u32).collect(), 2);
        assert!(
            h.connectivity_cut(&part) <= 2,
            "cut {}",
            h.connectivity_cut(&part)
        );
    }

    #[test]
    fn weight_target_respected() {
        let h = chain(100);
        let mut rng = StdRng::seed_from_u64(1);
        let side = greedy_bisect(&h, 0.3, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((25..=38).contains(&w0), "side-0 size {w0}");
    }

    #[test]
    fn handles_vertices_without_nets() {
        // Vertices 3,4 have no nets; growth must still absorb them if needed.
        let h = Hypergraph::new(vec![1; 5], vec![vec![0, 1], vec![1, 2]], vec![1, 1]);
        let mut rng = StdRng::seed_from_u64(2);
        let side = greedy_bisect(&h, 0.8, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!(w0 >= 3, "grew only {w0}");
    }

    #[test]
    fn indexed_growth_matches_the_lazy_heap() {
        qc::check(|rng| {
            let h = crate::hypergraph::random_hypergraph(rng);
            let n = h.n_vertices();
            let total: u64 = h.vertex_weights().iter().sum();
            for _ in 0..4 {
                let seed = rng.gen_range(0..n);
                let target0 = rng.gen_range(0..=total + 1);
                assert_eq!(
                    grow_from(&h, seed, target0),
                    grow_from_lazy(&h, seed, target0)
                );
            }
        });
    }

    #[test]
    fn growth_restarts_across_many_components() {
        // 2,000 disjoint pairs: growth must restart once per component it
        // absorbs, each restart resuming the forward scan.
        let nets: Vec<Vec<u32>> = (0..2000u32).map(|c| vec![2 * c, 2 * c + 1]).collect();
        let h = Hypergraph::new(vec![1; 4000], nets, vec![1; 2000]);
        let side = grow_from(&h, 1234, 3000);
        assert_eq!(side, grow_from_lazy(&h, 1234, 3000));
        assert_eq!(side.iter().filter(|&&s| s == 0).count(), 3000);
        // Whole pairs are grown: no net is cut.
        assert!((0..2000).all(|c| side[2 * c] == side[2 * c + 1]));
    }
}
