//! Coarsening for the multilevel bisection: a clustering step that maps
//! fine vertices to coarse ones, and a contraction step that builds the
//! coarse hypergraph.
//!
//! Hypergraphs cluster by heavy connectivity: two vertices match when they
//! share many (small, cheap-to-scan) nets; the score of a candidate pair
//! accumulates `cost(net)/(|pins(net)|−1)` over shared nets, the classic
//! PaToH heavy-connectivity heuristic. Graphs (every net has two pins, see
//! [`Hypergraph::graph_model`]) match by heavy edge instead, as METIS does.
//! Merged vertices sum weights; pins map through the merge; single-pin nets
//! disappear and identical nets merge with summed cost, so the coarse FM
//! works on an equivalent but much smaller problem.

use crate::hypergraph::Hypergraph;
use pargcn_util::rng::SliceRandom;
use pargcn_util::rng::StdRng;

/// Nets with more pins than this are ignored during matching (scanning a
/// hub column's thousands of pins per candidate would dominate runtime and
/// such nets carry almost no matching signal).
const MATCHING_NET_CAP: usize = 64;

/// One level of heavy-connectivity matching. Returns the coarse hypergraph
/// and the fine-vertex → coarse-vertex map.
pub fn coarsen_once(h: &Hypergraph, rng: &mut StdRng) -> (Hypergraph, Vec<u32>) {
    let (matched, nc) = cluster(h, rng);
    (contract(h, &matched, nc), matched)
}

/// The clustering half of [`coarsen_once`]: the fine → coarse map and the
/// coarse vertex count. The multilevel bisection checks the count before it
/// pays for [`contract`], so a level that fails the reduction test is
/// never built.
pub(crate) fn cluster(h: &Hypergraph, rng: &mut StdRng) -> (Vec<u32>, usize) {
    let n = h.n_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    let mut matched = vec![u32::MAX; n];
    let mut coarse_count = 0u32;
    // Agglomerative clustering (PaToH-style HCC rather than strict
    // pair-matching): a vertex may also join an *already formed* cluster.
    // Pure matching stalls on skewed graphs — once a hub's satellites pair
    // up, everything left is singletons and the hierarchy bottoms out at
    // tens of thousands of vertices, leaving FM to refine a huge flat
    // hypergraph. Cluster joins keep the reduction going; the weight cap
    // stops hub clusters from swallowing whole parts.
    let total_weight: u64 = h.vertex_weights().iter().sum();
    let cluster_cap = (total_weight / (n as u64 / 2).max(1)).max(1) * 6;
    let mut cluster_weight: Vec<u64> = Vec::with_capacity(n / 2 + 1);
    // Scratch score table over candidate *vertices*, reset via the touched
    // list.
    let mut score = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();

    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        let vw = h.vertex_weights()[v as usize];
        touched.clear();
        for &net in h.nets_of(v as usize) {
            let pins = h.pins(net as usize);
            if pins.len() > MATCHING_NET_CAP || pins.len() < 2 {
                continue;
            }
            let w = h.net_cost(net as usize) as f64 / (pins.len() - 1) as f64;
            for &u in pins {
                if u != v {
                    if score[u as usize] == 0.0 {
                        touched.push(u);
                    }
                    score[u as usize] += w;
                }
            }
        }
        // Best candidate whose cluster can still absorb v.
        let best = touched
            .iter()
            .copied()
            .filter(|&u| {
                let c = matched[u as usize];
                if c == u32::MAX {
                    h.vertex_weights()[u as usize] + vw <= cluster_cap
                } else {
                    cluster_weight[c as usize] + vw <= cluster_cap
                }
            })
            .max_by(|&a, &b| {
                score[a as usize]
                    .partial_cmp(&score[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        match best {
            Some(u) if matched[u as usize] != u32::MAX => {
                // Join u's existing cluster.
                let c = matched[u as usize];
                matched[v as usize] = c;
                cluster_weight[c as usize] += vw;
            }
            Some(u) => {
                // Form a new pair.
                let c = coarse_count;
                coarse_count += 1;
                matched[v as usize] = c;
                matched[u as usize] = c;
                cluster_weight.push(vw + h.vertex_weights()[u as usize]);
            }
            None => {
                let c = coarse_count;
                coarse_count += 1;
                matched[v as usize] = c;
                cluster_weight.push(vw);
            }
        }
        for &u in &touched {
            score[u as usize] = 0.0;
        }
    }

    (matched, coarse_count as usize)
}

/// Heavy-edge matching, the clustering for graphs (every net has exactly
/// two pins). Vertices are visited in random order; each unmatched vertex
/// pairs with its unmatched neighbor over the heaviest net, the first such
/// neighbor in net order on ties, or stays single. Returns the same
/// `(map, coarse count)` as [`cluster`].
pub(crate) fn match_edges(h: &Hypergraph, rng: &mut StdRng) -> (Vec<u32>, usize) {
    let n = h.n_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    let mut matched = vec![u32::MAX; n];
    let mut coarse_count = 0u32;
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        let mut best: Option<(u64, u32)> = None;
        for &net in h.nets_of(v as usize) {
            let &[a, b] = h.pins(net as usize) else {
                panic!("heavy-edge matching needs 2-pin nets");
            };
            let u = if a == v { b } else { a };
            let w = h.net_cost(net as usize);
            if matched[u as usize] == u32::MAX && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, u));
            }
        }
        matched[v as usize] = coarse_count;
        if let Some((_, u)) = best {
            matched[u as usize] = coarse_count;
        }
        coarse_count += 1;
    }
    (matched, coarse_count as usize)
}

/// The contraction half of [`coarsen_once`]: merged vertices sum weights,
/// pins map through `matched` and dedup, single-pin nets vanish, and
/// identical nets merge with summed cost, in lexicographic pin order.
pub(crate) fn contract(h: &Hypergraph, matched: &[u32], nc: usize) -> Hypergraph {
    let mut vertex_weights = vec![0u64; nc];
    for (v, &c) in matched.iter().enumerate() {
        vertex_weights[c as usize] += h.vertex_weights()[v];
    }

    // Mapped nets of two or more pins, as spans of one flat buffer.
    let mut pins: Vec<u32> = Vec::with_capacity(h.n_pins());
    let mut spans: Vec<(usize, usize, u64)> = Vec::new();
    let mut scratch = Vec::new();
    for net in 0..h.n_nets() {
        scratch.clear();
        scratch.extend(h.pins(net).iter().map(|&p| matched[p as usize]));
        scratch.sort_unstable();
        scratch.dedup();
        if scratch.len() >= 2 {
            spans.push((pins.len(), pins.len() + scratch.len(), h.net_cost(net)));
            pins.extend_from_slice(&scratch);
        }
    }
    // Lexicographic order puts identical nets next to each other, where
    // they merge.
    spans.sort_unstable_by(|a, b| pins[a.0..a.1].cmp(&pins[b.0..b.1]));
    let mut net_ptr = vec![0usize];
    let mut net_pins = Vec::with_capacity(pins.len());
    let mut costs: Vec<u64> = Vec::with_capacity(spans.len());
    let mut prev: Option<&[u32]> = None;
    for &(start, end, cost) in &spans {
        let net = &pins[start..end];
        if prev == Some(net) {
            *costs.last_mut().unwrap() += cost;
            continue;
        }
        prev = Some(net);
        net_pins.extend_from_slice(net);
        net_ptr.push(net_pins.len());
        costs.push(cost);
    }
    Hypergraph::from_sorted_csr(vertex_weights, net_ptr, net_pins, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use pargcn_util::qc;
    use pargcn_util::rng::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Reference contraction through a `HashMap<Vec<u32>, u64>` and a sort
    /// of its entries: [`contract`] must match it exactly.
    fn contract_hashed(h: &Hypergraph, matched: &[u32], nc: usize) -> Hypergraph {
        let mut vertex_weights = vec![0u64; nc];
        for v in 0..h.n_vertices() {
            vertex_weights[matched[v] as usize] += h.vertex_weights()[v];
        }
        // Coarse nets: map pins, dedup, drop singletons, merge identical nets.
        let mut net_map: HashMap<Vec<u32>, u64> = HashMap::new();
        let mut scratch = Vec::new();
        for net in 0..h.n_nets() {
            scratch.clear();
            scratch.extend(h.pins(net).iter().map(|&p| matched[p as usize]));
            scratch.sort_unstable();
            scratch.dedup();
            if scratch.len() >= 2 {
                *net_map.entry(scratch.clone()).or_insert(0) += h.net_cost(net);
            }
        }
        // Deterministic net order (HashMap iteration order is not).
        let mut entries: Vec<(Vec<u32>, u64)> = net_map.into_iter().collect();
        entries.sort_unstable();
        let (nets, costs): (Vec<Vec<u32>>, Vec<u64>) = entries.into_iter().unzip();
        Hypergraph::new(vertex_weights, nets, costs)
    }

    /// Chain hypergraph: net i connects {i, i+1}.
    fn chain(n: usize) -> Hypergraph {
        let nets: Vec<Vec<u32>> = (0..n as u32 - 1).map(|i| vec![i, i + 1]).collect();
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(vec![1; n], nets, costs)
    }

    #[test]
    fn shrinks_and_preserves_weight() {
        let h = chain(100);
        let mut rng = StdRng::seed_from_u64(0);
        let (coarse, map) = coarsen_once(&h, &mut rng);
        assert!(coarse.n_vertices() < 70);
        assert_eq!(
            coarse.vertex_weights().iter().sum::<u64>(),
            h.vertex_weights().iter().sum::<u64>()
        );
        assert!(map.iter().all(|&c| (c as usize) < coarse.n_vertices()));
    }

    #[test]
    fn internal_nets_vanish() {
        // Single net {0,1}: after matching 0 with 1, no coarse nets remain.
        let h = Hypergraph::new(vec![1, 1], vec![vec![0, 1]], vec![1]);
        let mut rng = StdRng::seed_from_u64(1);
        let (coarse, _) = coarsen_once(&h, &mut rng);
        assert_eq!(coarse.n_vertices(), 1);
        assert_eq!(coarse.n_nets(), 0);
    }

    #[test]
    fn identical_nets_merge_costs() {
        // Two identical nets over 4 vertices; prevent the pins from being
        // matched together by giving them no shared small nets... instead
        // verify directly via a hand-built matching-resistant instance:
        // vertices 0,1 share nets; 2,3 share nets; nets {0,2} twice.
        let h = Hypergraph::new(
            vec![1; 4],
            vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![0, 2]],
            vec![1, 1, 3, 5],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let (coarse, map) = coarsen_once(&h, &mut rng);
        // If 0-1 and 2-3 matched (the heavy pairs), the two {0,2} nets
        // project to the same coarse pin pair and merge to cost 8.
        if coarse.n_vertices() == 2 && map[0] == map[1] && map[2] == map[3] {
            assert_eq!(coarse.n_nets(), 1);
            assert_eq!(coarse.net_cost(0), 8);
        }
    }

    #[test]
    fn cut_preserved_under_projection() {
        let h = chain(60);
        let mut rng = StdRng::seed_from_u64(3);
        let (coarse, map) = coarsen_once(&h, &mut rng);
        let coarse_part = Partition::new(
            (0..coarse.n_vertices()).map(|v| (v % 2) as u32).collect(),
            2,
        );
        let fine_part = Partition::new(
            (0..h.n_vertices())
                .map(|v| coarse_part.part_of(map[v] as usize))
                .collect(),
            2,
        );
        // Coarse cut equals fine cut restricted to surviving nets; vanished
        // nets were internal (uncut) so the totals agree.
        assert_eq!(
            coarse.connectivity_cut(&coarse_part),
            h.connectivity_cut(&fine_part)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let h = chain(50);
        let a = coarsen_once(&h, &mut StdRng::seed_from_u64(4)).1;
        let b = coarsen_once(&h, &mut StdRng::seed_from_u64(4)).1;
        assert_eq!(a, b);
    }

    #[test]
    fn flat_contraction_matches_the_hashed_one() {
        qc::check(|rng| {
            let h = crate::hypergraph::random_hypergraph(rng);
            let (matched, nc) = cluster(&h, rng);
            assert_eq!(
                contract(&h, &matched, nc),
                contract_hashed(&h, &matched, nc)
            );
            // Arbitrary many-to-one maps too, not just what matching finds.
            let nc = rng.gen_range(1..=h.n_vertices());
            let map: Vec<u32> = (0..h.n_vertices())
                .map(|v| {
                    if v < nc {
                        v as u32
                    } else {
                        rng.gen_range(0..nc as u32)
                    }
                })
                .collect();
            assert_eq!(contract(&h, &map, nc), contract_hashed(&h, &map, nc));
        });
    }
}
