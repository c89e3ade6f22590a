//! GP's checks: the §4.3.1 graph model as a hypergraph of 2-pin nets, run
//! through each stage of [`crate::hmultilevel`] and through
//! `partition_rows(.., Method::Gp, ..)`.

use crate::{Hypergraph, Partition};

/// A graph as 2-pin nets, from undirected weighted edges.
fn graph(vertex_weights: Vec<u64>, edges: &[(u32, u32, u64)]) -> Hypergraph {
    let nets = edges.iter().map(|&(u, v, _)| vec![u, v]).collect();
    Hypergraph::new(vertex_weights, nets, edges.iter().map(|e| e.2).collect())
}

/// The unit path 0-1-…-(n−1).
fn path(n: u32) -> Hypergraph {
    let edges: Vec<_> = (1..n).map(|v| (v - 1, v, 1)).collect();
    graph(vec![1; n as usize], &edges)
}

fn bisection(side: &[u8]) -> Partition {
    Partition::new(side.iter().map(|&s| s as u32).collect(), 2)
}

mod coarsen {
    mod tests {
        use super::super::*;
        use crate::hmultilevel::coarsen::{contract, match_edges};
        use pargcn_util::rng::{SeedableRng, SliceRandom, StdRng};

        #[test]
        fn coarsening_shrinks_and_preserves_total_weight() {
            let g = path(100);
            let (map, nc) = match_edges(&g, &mut StdRng::seed_from_u64(0));
            let coarse = contract(&g, &map, nc);
            assert!(nc < 70, "matching too weak: {nc} vertices left");
            assert_eq!(coarse.vertex_weights().iter().sum::<u64>(), 100);
            assert_eq!(map.len(), 100);
            assert!(map.iter().all(|&c| (c as usize) < nc));
        }

        #[test]
        fn cut_is_preserved_under_projection() {
            let g = path(64);
            let (map, nc) = match_edges(&g, &mut StdRng::seed_from_u64(1));
            let coarse = contract(&g, &map, nc);
            // Any coarse partition projects to a fine partition of equal cut.
            let coarse_part = Partition::new((0..nc).map(|v| (v % 2) as u32).collect(), 2);
            let fine_part = Partition::new(
                map.iter()
                    .map(|&c| coarse_part.part_of(c as usize))
                    .collect(),
                2,
            );
            assert_eq!(
                coarse.connectivity_cut(&coarse_part),
                g.connectivity_cut(&fine_part)
            );
        }

        #[test]
        fn coarse_graph_has_no_self_loops() {
            let g = path(40);
            let (map, nc) = match_edges(&g, &mut StdRng::seed_from_u64(2));
            let coarse = contract(&g, &map, nc);
            // Matched edges vanish; every other edge stays a 2-pin net.
            assert!((0..coarse.n_nets()).all(|net| matches!(coarse.pins(net), &[a, b] if a != b)));
        }

        /// A seed under which the matching visits `v` first (its first use
        /// of the rng is the visit-order shuffle).
        fn seed_visiting_first(n: usize, v: u32) -> u64 {
            (0..)
                .find(|&seed| {
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    order.shuffle(&mut StdRng::seed_from_u64(seed));
                    order[0] == v
                })
                .unwrap()
        }

        #[test]
        fn parallel_edges_merge_with_summed_weight() {
            // Square 0-1-2-3-0. Vertex 0 goes first and takes 1 (first of
            // two equal nets), leaving the pair 2-3; the two edges between
            // the pairs merge into one net of cost 2.
            let g = graph(vec![1; 4], &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]);
            let mut rng = StdRng::seed_from_u64(seed_visiting_first(4, 0));
            let (map, nc) = match_edges(&g, &mut rng);
            let coarse = contract(&g, &map, nc);
            assert_eq!(coarse.n_vertices(), 2);
            assert_eq!(coarse.n_nets(), 1);
            assert_eq!(coarse.net_cost(0), 2);
        }

        #[test]
        fn matching_pairs_the_heaviest_neighbour_first_on_ties() {
            // Star: centre 0, leaves 1..=4 over edges of weight 1, 3, 3, 2.
            let g = graph(vec![1; 5], &[(0, 1, 1), (0, 2, 3), (0, 3, 3), (0, 4, 2)]);
            let mut rng = StdRng::seed_from_u64(seed_visiting_first(5, 0));
            let (map, nc) = match_edges(&g, &mut rng);
            // The centre takes leaf 2, the first of the two heaviest. The
            // other leaves' only neighbour is taken, so they stay single:
            // matching forms pairs, never the clusters heavy connectivity
            // would.
            assert_eq!(map[0], map[2]);
            assert_eq!(nc, 4);
        }

        #[test]
        fn matching_skips_matched_neighbours() {
            // Vertex 1 goes first and takes 2 (weight 5 over 1); vertex 0's
            // heaviest neighbour, 2 (weight 9), is then matched, so 0 takes 3.
            let g = graph(vec![1; 4], &[(0, 1, 1), (0, 2, 9), (0, 3, 1), (1, 2, 5)]);
            let mut rng = StdRng::seed_from_u64(seed_visiting_first(4, 1));
            let (map, nc) = match_edges(&g, &mut rng);
            assert_eq!(nc, 2);
            assert_eq!(map[1], map[2]);
            assert_eq!(map[0], map[3]);
        }
    }
}

mod fm {
    mod tests {
        use super::super::*;
        use crate::hmultilevel::fm::{gain, refine};

        /// Cliques {0..4} and {5..9} joined by the edge 4-5.
        fn two_cliques() -> Hypergraph {
            let mut edges = vec![(4, 5, 1)];
            for lo in [0u32, 5] {
                for u in lo..lo + 5 {
                    edges.extend((u + 1..lo + 5).map(|v| (u, v, 1)));
                }
            }
            graph(vec![1; 10], &edges)
        }

        #[test]
        fn recovers_natural_clusters_from_bad_start() {
            let g = two_cliques();
            // Interleaved start: terrible cut.
            let mut side: Vec<u8> = (0..10).map(|v| (v % 2) as u8).collect();
            refine(&g, &mut side, 0.5, 0.05, 10);
            let cut = g.connectivity_cut(&bisection(&side));
            assert_eq!(cut, 1, "FM should find the single bridge cut");
        }

        #[test]
        fn respects_balance_cap() {
            let g = two_cliques();
            let mut side: Vec<u8> = (0..10).map(|v| if v < 5 { 0 } else { 1 }).collect();
            refine(&g, &mut side, 0.5, 0.05, 10);
            let w0 = side.iter().filter(|&&s| s == 0).count();
            assert!((4..=6).contains(&w0), "balance violated: {w0}");
        }

        #[test]
        fn never_worsens_the_cut() {
            let g = two_cliques();
            let mut side: Vec<u8> = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
            let before = g.connectivity_cut(&bisection(&side));
            refine(&g, &mut side, 0.5, 0.1, 3);
            let after = g.connectivity_cut(&bisection(&side));
            assert!(after <= before, "cut worsened {before} → {after}");
        }

        #[test]
        fn gain_formula() {
            let g = two_cliques();
            let side: Vec<u8> = (0..10).map(|v| if v < 5 { 0 } else { 1 }).collect();
            let mut counts = vec![[0u32; 2]; g.n_nets()];
            for (net, count) in counts.iter_mut().enumerate() {
                for &v in g.pins(net) {
                    count[side[v as usize] as usize] += 1;
                }
            }
            // On 2-pin nets the gain is external minus internal edge weight.
            // Vertex 0: 4 internal edges, 0 external → gain −4.
            assert_eq!(gain(&g, &side, &counts, 0), -4);
            // Vertex 4: 4 internal + 1 external → gain −3.
            assert_eq!(gain(&g, &side, &counts, 4), -3);
        }
    }
}

mod initial {
    mod tests {
        use super::super::*;
        use crate::hmultilevel::initial::tests::grow_from_lazy;
        use crate::hmultilevel::initial::{greedy_bisect, grow_from};
        use pargcn_util::qc;
        use pargcn_util::rng::{Rng, SeedableRng, StdRng};

        #[test]
        fn path_bisection_is_contiguous_and_cheap() {
            let g = path(60);
            let side = greedy_bisect(&g, 0.5, &mut StdRng::seed_from_u64(4));
            let part = bisection(&side);
            // Greedy growing on a path yields one contiguous segment: cut ≤ 2.
            let cut = g.connectivity_cut(&part);
            assert!(cut <= 2, "cut {cut}");
            let w = part.part_weights(&[1u64; 60]);
            assert!(w[0] >= 25 && w[0] <= 35, "weights {w:?}");
        }

        #[test]
        fn asymmetric_fraction_respected() {
            let side = greedy_bisect(&path(100), 0.25, &mut StdRng::seed_from_u64(5));
            let w0 = side.iter().filter(|&&s| s == 0).count();
            assert!((20..=32).contains(&w0), "side-0 size {w0}");
        }

        #[test]
        fn disconnected_components_all_reachable() {
            // Two disjoint paths of 10; growth must jump components.
            let edges: Vec<_> = (1..20)
                .filter(|&v| v != 10)
                .map(|v| (v - 1, v, 1))
                .collect();
            let g = graph(vec![1; 20], &edges);
            let side = greedy_bisect(&g, 0.75, &mut StdRng::seed_from_u64(6));
            let w0 = side.iter().filter(|&&s| s == 0).count();
            assert!(w0 >= 13, "grew only {w0} of target 15");
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
                    let members: Vec<u32> =
                        (c..pinned).step_by(components).map(|v| v as u32).collect();
                    let u = members[rng.gen_range(0..members.len())];
                    let v = members[rng.gen_range(0..members.len())];
                    edges.push((u, v, rng.gen_range(0..4u64)));
                    if rng.gen_range(0..5u32) == 0 {
                        edges.push((u, v, rng.gen_range(0..4u64)));
                    }
                }
                let g = graph((0..n).map(|_| rng.gen_range(0..6u64)).collect(), &edges);
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
            // The graph model of 2,000 disjoint edges (vertex weight 2: the
            // diagonal and one neighbour): growth must restart once per
            // component it absorbs, each restart resuming the forward scan.
            let edges: Vec<(u32, u32)> = (0..2000).map(|c| (2 * c, 2 * c + 1)).collect();
            let a = pargcn_graph::Graph::from_edges(4000, false, &edges).normalized_adjacency();
            let g = Hypergraph::graph_model(&a);
            let side = grow_from(&g, 1234, 6000);
            assert_eq!(side, grow_from_lazy(&g, 1234, 6000));
            assert_eq!(side.iter().filter(|&&s| s == 0).count(), 3000);
            assert!((0..2000).all(|c| side[2 * c] == side[2 * c + 1]));
        }
    }
}

mod kway {
    mod tests {
        use crate::hmultilevel::{self, kway::refine};
        use crate::{random, Hypergraph, Partition};
        use pargcn_graph::gen::{community, grid};

        fn model(g: &pargcn_graph::Graph) -> Hypergraph {
            Hypergraph::graph_model(&g.normalized_adjacency())
        }

        #[test]
        fn never_worsens_and_reports_true_gain() {
            let m = model(&community::copurchase(1000, 6.0, false, 1));
            let mut part = random::partition(m.n_vertices(), 8, 2);
            let before = m.connectivity_cut(&part);
            let gain = refine(&m, &mut part, 0.10, 3);
            assert_eq!(before - m.connectivity_cut(&part), gain);
            assert!(gain > 0);
        }

        #[test]
        fn improves_recursive_bisection_output() {
            let m = model(&grid::road_network(1500, 3));
            let mut part = hmultilevel::partition(&m, 16, 0.05, 1);
            let before = m.connectivity_cut(&part);
            let gain = refine(&m, &mut part, 0.10, 2);
            assert_eq!(before - gain, m.connectivity_cut(&part));
        }

        #[test]
        fn respects_balance() {
            let m = model(&community::copurchase(800, 6.0, false, 5));
            let mut part = random::partition(m.n_vertices(), 6, 3);
            refine(&m, &mut part, 0.10, 4);
            assert!(part.imbalance(m.vertex_weights()) < 0.5);
            assert!(part.all_parts_nonempty());
        }

        #[test]
        fn noop_on_single_part() {
            let m = model(&community::copurchase(100, 5.0, false, 7));
            let mut part = Partition::trivial(100);
            assert_eq!(refine(&m, &mut part, 0.1, 2), 0);
        }
    }
}

mod tests {
    use crate::{partition_rows, random, Hypergraph, Method, Partition};
    use pargcn_graph::{gen::grid, Graph};

    /// GP through `partition_rows`, and the graph model whose vertex
    /// weights and edge cut it is judged by.
    fn gp(g: &Graph, p: usize, epsilon: f64, seed: u64) -> (Partition, Hypergraph) {
        let a = g.normalized_adjacency();
        let part = partition_rows(g, &a, Method::Gp, p, epsilon, seed);
        (part, Hypergraph::graph_model(&a))
    }

    #[test]
    fn produces_valid_balanced_partition() {
        let (part, model) = gp(&grid::road_network(900, 1), 4, 0.05, 7);
        assert_eq!(part.p(), 4);
        assert!(part.all_parts_nonempty());
        let imbalance = part.imbalance(model.vertex_weights());
        assert!(imbalance < 0.25, "imbalance {imbalance}");
    }

    #[test]
    fn beats_random_on_a_grid() {
        let (part, model) = gp(&grid::road_network(1600, 2), 8, 0.05, 3);
        let cut = model.connectivity_cut(&part);
        let rand_cut = model.connectivity_cut(&random::partition(1600, 8, 3));
        assert!(
            (cut as f64) < rand_cut as f64 * 0.4,
            "multilevel cut {cut} not well below random cut {rand_cut}"
        );
    }

    #[test]
    fn single_part_is_trivial() {
        let (part, _) = gp(&grid::road_network(100, 3), 1, 0.05, 0);
        assert!(part.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn handles_non_power_of_two_parts() {
        let (part, model) = gp(&grid::road_network(900, 4), 5, 0.1, 1);
        assert!(part.all_parts_nonempty());
        assert!(part.imbalance(model.vertex_weights()) < 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid::road_network(400, 5);
        assert_eq!(gp(&g, 4, 0.05, 9).0, gp(&g, 4, 0.05, 9).0);
    }

    #[test]
    fn disconnected_graph_is_fine() {
        // Two disjoint triangles plus isolated vertices.
        let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        let (part, _) = gp(&Graph::from_edges(8, false, &edges), 2, 0.1, 0);
        assert!(part.all_parts_nonempty());
    }
}
