//! The §4.3.1 graph partitioning model (the DistDGL/METIS approach), built
//! so the paper's claim that it *overestimates* communication volume can be
//! measured against the hypergraph model.
//!
//! From the (possibly directed) adjacency `A`, an undirected graph `G'` is
//! built over the same vertices: each off-diagonal nonzero `A(i,j)` (or its
//! transpose) becomes the undirected edge `{vᵢ, vⱼ}` with unit cost; vertex
//! weight is the SpMM work `|cols(A(i,:))|`. Cut edges are the graph model's
//! estimate of communication, which double-counts (i) one-way directed
//! edges and (ii) multiple neighbors on the same remote processor.
//!
//! The graph is stored as a [`Hypergraph`] whose nets all have two pins, as
//! PaToH and hMETIS do: on a 2-pin net connectivity−1 is 1 when the net is
//! cut and 0 otherwise, so [`Hypergraph::connectivity_cut`] is the edge cut
//! and one multilevel engine ([`crate::hmultilevel`]) partitions both
//! models.

use crate::Hypergraph;
use pargcn_matrix::Csr;

impl Hypergraph {
    /// The §4.3.1 model of a square sparse matrix: vertex weight = row nnz
    /// (diagonal included), and one unit-cost net `{i, j}`, `i < j`, per
    /// undirected off-diagonal pair, in lexicographic order.
    pub fn graph_model(a: &Csr) -> Hypergraph {
        assert_eq!(a.n_rows(), a.n_cols(), "graph model needs a square matrix");
        let n = a.n_rows();
        let vertex_weights: Vec<u64> = (0..n).map(|i| a.row_nnz(i) as u64).collect();
        let at = a.transpose();
        let mut net_ptr = vec![0usize];
        let mut net_pins = Vec::with_capacity(2 * a.nnz());
        let mut upper: Vec<u32> = Vec::new();
        for i in 0..n {
            // Neighbors above the diagonal, from row i of A and of Aᵀ.
            upper.clear();
            upper.extend(
                a.row_indices(i)
                    .iter()
                    .chain(at.row_indices(i))
                    .filter(|&&j| j as usize > i),
            );
            upper.sort_unstable();
            upper.dedup();
            for &j in &upper {
                net_pins.extend_from_slice(&[i as u32, j]);
                net_ptr.push(net_pins.len());
            }
        }
        let costs = vec![1; net_ptr.len() - 1];
        Hypergraph::from_sorted_csr(vertex_weights, net_ptr, net_pins, costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    fn directed_chain() -> Csr {
        // 0 → 1 → 2, plus self loops (as Â would have).
        Csr::from_coo(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (0, 1, 0.5),
                (1, 2, 0.5),
            ],
        )
    }

    /// Neighbor ids of `v`: the other pin of each of its nets.
    fn neighbors(g: &Hypergraph, v: u32) -> Vec<u32> {
        g.nets_of(v as usize)
            .iter()
            .flat_map(|&net| g.pins(net as usize).iter().copied())
            .filter(|&u| u != v)
            .collect()
    }

    #[test]
    fn model_symmetrizes_directed_edges() {
        let g = Hypergraph::graph_model(&directed_chain());
        assert_eq!(neighbors(&g, 1), [0, 2]);
        assert_eq!(neighbors(&g, 0), [1]);
        // One unit-cost net per edge, pins ascending, nets in
        // lexicographic order.
        assert_eq!(g.n_nets(), 2);
        assert_eq!(g.pins(0), &[0, 1]);
        assert_eq!(g.pins(1), &[1, 2]);
        assert!((0..2).all(|net| g.net_cost(net) == 1));
    }

    #[test]
    fn self_loops_excluded_from_edges() {
        let g = Hypergraph::graph_model(&directed_chain());
        for net in 0..g.n_nets() {
            assert_eq!(g.pins(net).len(), 2);
        }
    }

    #[test]
    fn vertex_weight_counts_diagonal() {
        let g = Hypergraph::graph_model(&directed_chain());
        // Row 0 has nonzeros at columns {0, 1}: weight 2.
        assert_eq!(g.vertex_weights()[0], 2);
        assert_eq!(g.vertex_weights()[2], 1);
    }

    #[test]
    fn edge_cut_counts_each_edge_once() {
        let g = Hypergraph::graph_model(&directed_chain());
        let part = Partition::new(vec![0, 1, 1], 2);
        assert_eq!(g.connectivity_cut(&part), 1);
        let part2 = Partition::new(vec![0, 1, 0], 2);
        assert_eq!(g.connectivity_cut(&part2), 2);
    }

    #[test]
    fn reciprocal_directed_edges_collapse_to_one_undirected() {
        let a = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let g = Hypergraph::graph_model(&a);
        assert_eq!(g.nets_of(0).len(), 1);
        let part = Partition::new(vec![0, 1], 2);
        assert_eq!(g.connectivity_cut(&part), 1);
    }
}
