//! The hypergraph structure and the paper's column-net model (§4.3.2).
//!
//! For the 1-D row-wise partitioning of adjacency matrix `A`, the column-net
//! hypergraph has one vertex `vᵢ` per row `A(i,:)` (weighted by the row's
//! nonzero count, i.e. the SpMM work of the row's task) and one net `nⱼ`
//! per column `A(:,j)`, whose pins are the rows with a nonzero in column
//! `j`. Under a partition, net `nⱼ`'s connectivity−1 is exactly the number
//! of remote processors that must receive row `H(j,:)` (and `G(j,:)` in
//! backpropagation) — so the connectivity−1 cut equals the true
//! communication volume, the paper's central modeling claim.

use crate::Partition;
use pargcn_matrix::Csr;

/// A hypergraph `H = (V, N)` with weighted vertices and weighted nets,
/// stored as a net→pin CSR plus its vertex→net inverse.
#[derive(Clone, Debug, PartialEq)]
pub struct Hypergraph {
    vertex_weights: Vec<u64>,
    net_costs: Vec<u64>,
    net_ptr: Vec<usize>,
    net_pins: Vec<u32>,
    vtx_ptr: Vec<usize>,
    vtx_nets: Vec<u32>,
}

impl Hypergraph {
    /// Builds from explicit net pin lists. Pins within a net are
    /// deduplicated; empty nets are kept (they never contribute to the cut).
    pub fn new(vertex_weights: Vec<u64>, nets: Vec<Vec<u32>>, net_costs: Vec<u64>) -> Self {
        assert_eq!(nets.len(), net_costs.len(), "net cost length mismatch");
        let n = vertex_weights.len();
        let mut net_ptr = Vec::with_capacity(nets.len() + 1);
        net_ptr.push(0usize);
        let mut net_pins = Vec::new();
        for pins in &nets {
            let mut sorted: Vec<u32> = pins.clone();
            sorted.sort_unstable();
            sorted.dedup();
            for &p in &sorted {
                assert!((p as usize) < n, "pin out of range");
            }
            net_pins.extend_from_slice(&sorted);
            net_ptr.push(net_pins.len());
        }
        Self::from_sorted_csr(vertex_weights, net_ptr, net_pins, net_costs)
    }

    /// Builds from a net → pin CSR whose pins are already strictly
    /// ascending within each net — the form the column-net model,
    /// coarsening and sub-hypergraph extraction produce — skipping
    /// [`Hypergraph::new`]'s per-net sort.
    pub(crate) fn from_sorted_csr(
        vertex_weights: Vec<u64>,
        net_ptr: Vec<usize>,
        net_pins: Vec<u32>,
        net_costs: Vec<u64>,
    ) -> Self {
        assert_eq!(
            net_ptr.len(),
            net_costs.len() + 1,
            "net cost length mismatch"
        );
        let n = vertex_weights.len();
        debug_assert!(net_ptr.windows(2).all(|w| {
            let pins = &net_pins[w[0]..w[1]];
            pins.windows(2).all(|p| p[0] < p[1]) && pins.iter().all(|&p| (p as usize) < n)
        }));
        let (vtx_ptr, vtx_nets) = invert(n, &net_ptr, &net_pins);
        Self {
            vertex_weights,
            net_costs,
            net_ptr,
            net_pins,
            vtx_ptr,
            vtx_nets,
        }
    }

    /// The paper's column-net model of a square sparse matrix: vertex `i`
    /// per row with weight `|cols(A(i,:))|`, net `j` per column with unit
    /// cost and pins `{i : A(i,j) ≠ 0}`.
    pub fn column_net_model(a: &Csr) -> Self {
        Self::column_net_model_weighted(a, 0.0)
    }

    /// As [`Hypergraph::column_net_model`] with a scalarized second balance
    /// constraint: vertex weight `|cols(A(i,:))| + dmm_row_cost`.
    ///
    /// The paper balances SpMM work only (nnz per row). Per-rank DMM work is
    /// proportional to the *row count*, so when dense layers are a relevant
    /// fraction of the compute (small average degree, large `d`),
    /// `dmm_row_cost ≈ 2·d_in·d_out·flops_ratio / (2·d_spmm)` folds the
    /// row-count constraint into the single weight — the cheap scalarized
    /// form of multi-constraint partitioning.
    pub fn column_net_model_weighted(a: &Csr, dmm_row_cost: f64) -> Self {
        assert_eq!(
            a.n_rows(),
            a.n_cols(),
            "column-net model needs a square matrix"
        );
        assert!(dmm_row_cost >= 0.0, "dmm_row_cost must be nonnegative");
        let n = a.n_rows();
        let extra = dmm_row_cost.round() as u64;
        let vertex_weights: Vec<u64> = (0..n).map(|i| a.row_nnz(i) as u64 + extra).collect();
        // Transposing gives column → row lists, i.e. the pin lists.
        let at = a.transpose();
        let mut net_ptr = Vec::with_capacity(n + 1);
        net_ptr.push(0usize);
        let mut net_pins = Vec::new();
        for j in 0..n {
            net_pins.extend_from_slice(at.row_indices(j));
            net_ptr.push(net_pins.len());
        }
        Self::from_sorted_csr(vertex_weights, net_ptr, net_pins, vec![1; n])
    }

    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    #[inline]
    pub fn n_nets(&self) -> usize {
        self.net_costs.len()
    }

    #[inline]
    pub fn n_pins(&self) -> usize {
        self.net_pins.len()
    }

    #[inline]
    pub fn vertex_weights(&self) -> &[u64] {
        &self.vertex_weights
    }

    #[inline]
    pub fn net_cost(&self, net: usize) -> u64 {
        self.net_costs[net]
    }

    #[inline]
    pub fn pins(&self, net: usize) -> &[u32] {
        &self.net_pins[self.net_ptr[net]..self.net_ptr[net + 1]]
    }

    /// Nets incident to vertex `v`.
    #[inline]
    pub fn nets_of(&self, v: usize) -> &[u32] {
        &self.vtx_nets[self.vtx_ptr[v]..self.vtx_ptr[v + 1]]
    }

    /// Connectivity `λ(nⱼ)`: number of parts net `j` touches under `part`.
    pub fn connectivity(&self, net: usize, part: &Partition) -> usize {
        let mut parts: Vec<u32> = self
            .pins(net)
            .iter()
            .map(|&v| part.part_of(v as usize))
            .collect();
        parts.sort_unstable();
        parts.dedup();
        parts.len()
    }

    /// The connectivity cut `Σ cost(nⱼ)·(λ(nⱼ)−1)` (§3.2).
    pub fn connectivity_cut(&self, part: &Partition) -> u64 {
        let mut mark = vec![u32::MAX; part.p()];
        let mut cut = 0u64;
        for net in 0..self.n_nets() {
            let mut lambda = 0u64;
            for &v in self.pins(net) {
                let p = part.part_of(v as usize) as usize;
                if mark[p] != net as u32 {
                    mark[p] = net as u32;
                    lambda += 1;
                }
            }
            if lambda > 1 {
                cut += self.net_costs[net] * (lambda - 1);
            }
        }
        cut
    }

    /// Merges this hypergraph with another over the same vertex set,
    /// concatenating net sets — the §4.3.3 stochastic-hypergraph merge.
    pub fn merge(mut self, other: Hypergraph) -> Hypergraph {
        assert_eq!(
            self.n_vertices(),
            other.n_vertices(),
            "merge requires identical vertex sets"
        );
        let offset = self.net_pins.len();
        self.net_pins.extend_from_slice(&other.net_pins);
        self.net_ptr
            .extend(other.net_ptr.iter().skip(1).map(|&x| x + offset));
        self.net_costs.extend_from_slice(&other.net_costs);
        let (vtx_ptr, vtx_nets) = invert(self.n_vertices(), &self.net_ptr, &self.net_pins);
        self.vtx_ptr = vtx_ptr;
        self.vtx_nets = vtx_nets;
        self
    }
}

/// Random hypergraphs for the oracle tests: several disconnected
/// components, weighted (sometimes zero-cost) nets, duplicate nets,
/// single-pin nets and vertices with no nets at all.
#[cfg(test)]
pub(crate) fn random_hypergraph(rng: &mut pargcn_util::rng::StdRng) -> Hypergraph {
    use pargcn_util::rng::Rng;
    let n = rng.gen_range(1..80usize);
    // Vertices at or past `pinned` never appear in a net.
    let pinned = rng.gen_range(1..=n);
    let components = rng.gen_range(1..6usize).min(pinned);
    let mut nets: Vec<Vec<u32>> = Vec::new();
    let mut costs = Vec::new();
    for _ in 0..rng.gen_range(0..3 * n) {
        if !nets.is_empty() && rng.gen_range(0..5u32) == 0 {
            let i = rng.gen_range(0..nets.len());
            nets.push(nets[i].clone());
        } else {
            let c = rng.gen_range(0..components);
            let members: Vec<u32> = (c..pinned).step_by(components).map(|v| v as u32).collect();
            let size = rng.gen_range(1..=members.len().min(12));
            nets.push(
                (0..size)
                    .map(|_| members[rng.gen_range(0..members.len())])
                    .collect(),
            );
        }
        costs.push(rng.gen_range(0..4u64));
    }
    let weights = (0..n).map(|_| rng.gen_range(0..6u64)).collect();
    Hypergraph::new(weights, nets, costs)
}

/// Builds the vertex → incident-net CSR from the net → pin CSR.
fn invert(n: usize, net_ptr: &[usize], net_pins: &[u32]) -> (Vec<usize>, Vec<u32>) {
    let mut counts = vec![0usize; n + 1];
    for &v in net_pins {
        counts[v as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let vtx_ptr = counts.clone();
    let mut vtx_nets = vec![0u32; net_pins.len()];
    let mut cursor = counts;
    for net in 0..net_ptr.len() - 1 {
        for &v in &net_pins[net_ptr[net]..net_ptr[net + 1]] {
            vtx_nets[cursor[v as usize]] = net as u32;
            cursor[v as usize] += 1;
        }
    }
    (vtx_ptr, vtx_nets)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of the paper's Figure 2: a 6-vertex graph whose
    /// adjacency (with self loops) yields net n₂ with pins {v1,v2,v4,v6}.
    fn figure2_adjacency() -> Csr {
        // Edges of Figure 2 (1-indexed in the paper, 0-indexed here):
        // vertex connections chosen to match pins(n_2) = {v1, v2, v4, v6}
        // and pins(n_4) = {v2, v3, v4, v5, v6}.
        let mut coo = Vec::new();
        for i in 0..6u32 {
            coo.push((i, i, 1.0)); // self loops
        }
        // Column 1 (0-indexed) nonzeros at rows 0, 1, 3, 5:
        for r in [0u32, 3, 5] {
            coo.push((r, 1, 1.0));
        }
        // Column 3 nonzeros at rows 1, 2, 4, 5:
        for r in [1u32, 2, 4, 5] {
            coo.push((r, 3, 1.0));
        }
        Csr::from_coo(6, 6, coo)
    }

    #[test]
    fn column_net_pins_match_columns() {
        let a = figure2_adjacency();
        let h = Hypergraph::column_net_model(&a);
        assert_eq!(h.n_vertices(), 6);
        assert_eq!(h.n_nets(), 6);
        assert_eq!(h.pins(1), &[0, 1, 3, 5]);
        assert_eq!(h.pins(3), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn vertex_weight_is_row_nnz() {
        let a = figure2_adjacency();
        let h = Hypergraph::column_net_model(&a);
        for i in 0..6 {
            assert_eq!(h.vertex_weights()[i], a.row_nnz(i) as u64);
        }
    }

    #[test]
    fn figure2_connectivity() {
        let a = figure2_adjacency();
        let h = Hypergraph::column_net_model(&a);
        // Parts {v0,v1}, {v2,v3}, {v4,v5} as in the paper's figure.
        let part = Partition::new(vec![0, 0, 1, 1, 2, 2], 3);
        // Net 1 pins {0,1,3,5} → parts {0,1,2}: λ = 3.
        assert_eq!(h.connectivity(1, &part), 3);
        // Net 3 pins {1,2,3,4,5} → parts {0,1,2}: λ = 3, contributes 2 —
        // the paper's "net n₄ encodes the true volume of λ−1 = 2" example.
        assert_eq!(h.connectivity(3, &part), 3);
    }

    #[test]
    fn connectivity_cut_counts_lambda_minus_one() {
        let h = Hypergraph::new(
            vec![1; 4],
            vec![vec![0, 1], vec![2, 3], vec![0, 3]],
            vec![1, 1, 5],
        );
        let part = Partition::new(vec![0, 0, 1, 1], 2);
        // Net 0 internal, net 1 internal, net 2 spans both parts: cut 5.
        assert_eq!(h.connectivity_cut(&part), 5);
    }

    #[test]
    fn every_diagonal_vertex_pins_its_own_net() {
        // With self loops, vertex j ∈ pins(n_j) — the structural fact §4.3.2
        // relies on for the owner to be in Λ(n_j).
        let a = figure2_adjacency();
        let h = Hypergraph::column_net_model(&a);
        for j in 0..6u32 {
            assert!(h.pins(j as usize).contains(&j));
        }
    }

    #[test]
    fn inverse_incidence_is_consistent() {
        let h = Hypergraph::new(
            vec![1; 5],
            vec![vec![0, 1, 2], vec![2, 3], vec![4, 0]],
            vec![1, 1, 1],
        );
        assert_eq!(h.nets_of(2), &[0, 1]);
        assert_eq!(h.nets_of(0), &[0, 2]);
        assert_eq!(h.nets_of(4), &[2]);
    }

    #[test]
    fn merge_concatenates_nets() {
        let h1 = Hypergraph::new(vec![1; 3], vec![vec![0, 1]], vec![1]);
        let h2 = Hypergraph::new(vec![1; 3], vec![vec![1, 2], vec![0, 2]], vec![2, 3]);
        let merged = h1.merge(h2);
        assert_eq!(merged.n_nets(), 3);
        assert_eq!(merged.pins(1), &[1, 2]);
        assert_eq!(merged.net_cost(2), 3);
        assert_eq!(merged.nets_of(0), &[0, 2]);
    }

    #[test]
    fn weighted_model_adds_per_row_cost() {
        let a = figure2_adjacency();
        let plain = Hypergraph::column_net_model(&a);
        let weighted = Hypergraph::column_net_model_weighted(&a, 10.0);
        for i in 0..6 {
            assert_eq!(weighted.vertex_weights()[i], plain.vertex_weights()[i] + 10);
        }
        // Nets are identical — only balance semantics change.
        assert_eq!(weighted.pins(1), plain.pins(1));
    }

    #[test]
    fn weighted_model_balances_row_counts_on_skewed_instances() {
        // A skewed pattern: one hub row with many nonzeros, many light rows.
        // nnz-only weights put the hub alone on a part and pile every other
        // row onto the rest; a row-cost term evens the row counts.
        let n = 64;
        let mut coo = Vec::new();
        for i in 0..n as u32 {
            coo.push((i, i, 1.0));
        }
        for j in 1..n as u32 {
            coo.push((0, j, 1.0)); // hub row 0
        }
        let a = Csr::from_coo(n, n, coo);
        let plain = crate::hmultilevel::partition(&Hypergraph::column_net_model(&a), 4, 0.05, 1);
        let weighted = crate::hmultilevel::partition(
            &Hypergraph::column_net_model_weighted(&a, 8.0),
            4,
            0.05,
            1,
        );
        let rows = |p: &crate::Partition| {
            let sizes: Vec<usize> = p.members().iter().map(|m| m.len()).collect();
            *sizes.iter().max().unwrap() as f64 / (n as f64 / 4.0)
        };
        assert!(
            rows(&weighted) <= rows(&plain) + 1e-9,
            "row-count balance should not worsen: {} vs {}",
            rows(&weighted),
            rows(&plain)
        );
    }

    #[test]
    fn duplicate_pins_are_deduplicated() {
        let h = Hypergraph::new(vec![1; 3], vec![vec![1, 1, 0, 1]], vec![1]);
        assert_eq!(h.pins(0), &[0, 1]);
    }
}
