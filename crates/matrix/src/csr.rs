//! Compressed-sparse-row matrix (SpMM with it runs through
//! [`crate::ComputeCtx::spmm_into`]).
//!
//! The adjacency matrix `Â` is the only sparse matrix in GCN training
//! (paper §3.1); everything else is dense. CSR gives contiguous access to a
//! vertex's adjacency list, which is exactly the per-row task granularity
//! the paper's 1-D partitioning uses: row `A(i,:)` and the task of computing
//! `Z(i,:)` live on the same processor.

use crate::Dense;

/// A CSR sparse `f32` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    /// `indptr[i]..indptr[i+1]` indexes row `i`'s entries; length `n_rows+1`.
    indptr: Vec<usize>,
    /// Column indices, ascending within each row.
    indices: Vec<u32>,
    /// Values, parallel to `indices`.
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Triplets may be unordered; duplicates are summed (the usual COO→CSR
    /// contract). Entries with value exactly `0.0` are kept if present in the
    /// input — the communication structure of the algorithm depends on the
    /// *pattern*, so callers decide whether to filter zeros.
    ///
    /// The row dimension is handled by a two-pass counting sort (count, then
    /// scatter), so the whole build is `O(nnz + n_rows)` plus a comparison
    /// sort only *within* each row — `O(nnz log(nnz/n_rows))` in aggregate
    /// instead of the `O(nnz log nnz)` a global triplet sort costs. This is
    /// the graph-load hot path for the synthetic billion-edge runs.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_coo(n_rows: usize, n_cols: usize, coo: Vec<(u32, u32, f32)>) -> Self {
        Self::from_coo_ref(n_rows, n_cols, &coo)
    }

    /// [`Csr::from_coo`] over a borrowed triplet slice — same output, but
    /// the caller keeps the buffer, so a mini-batch loop can refill one
    /// scratch `Vec` per batch instead of allocating a fresh one.
    pub fn from_coo_ref(n_rows: usize, n_cols: usize, coo: &[(u32, u32, f32)]) -> Self {
        // Pass 1: per-row counts (bounds are checked here, inline — no
        // separate validation sweep over the triplets).
        let mut indptr = vec![0usize; n_rows + 1];
        for &(r, c, _) in coo {
            assert!(
                (r as usize) < n_rows && (c as usize) < n_cols,
                "coo entry out of bounds"
            );
            indptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            indptr[i + 1] += indptr[i];
        }
        // Pass 2: scatter each triplet into its row bucket. Input order is
        // preserved within a row, so the build stays deterministic.
        let nnz = coo.len();
        let mut bucket_cols = vec![0u32; nnz];
        let mut bucket_vals = vec![0.0f32; nnz];
        let mut cursor = indptr.clone();
        for &(r, c, v) in coo {
            let slot = cursor[r as usize];
            bucket_cols[slot] = c;
            bucket_vals[slot] = v;
            cursor[r as usize] = slot + 1;
        }
        // Sort columns within each row and fold duplicates as we emit.
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        let mut out_indptr = vec![0usize; n_rows + 1];
        for i in 0..n_rows {
            let (start, end) = (indptr[i], indptr[i + 1]);
            scratch.clear();
            scratch.extend(
                bucket_cols[start..end]
                    .iter()
                    .copied()
                    .zip(bucket_vals[start..end].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let row_start = indices.len();
            for &(c, v) in &scratch {
                if indices.len() > row_start && *indices.last().unwrap() == c {
                    // Same (row, col) as previous triplet: accumulate.
                    *values.last_mut().unwrap() += v;
                } else {
                    indices.push(c);
                    values.push(v);
                }
            }
            out_indptr[i + 1] = indices.len();
        }
        Self {
            n_rows,
            n_cols,
            indptr: out_indptr,
            indices,
            values,
        }
    }

    /// Builds directly from CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent or column indices are not
    /// strictly ascending within a row.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let m = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        m.assert_valid();
        m
    }

    /// [`Csr::from_parts`] for arrays this crate built with the CSR
    /// invariants already holding by construction: the O(nnz) check runs
    /// in debug builds only.
    pub(crate) fn from_valid_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let m = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        if cfg!(debug_assertions) {
            m.assert_valid();
        }
        m
    }

    fn assert_valid(&self) {
        let (indptr, indices) = (&self.indptr, &self.indices);
        assert_eq!(indptr.len(), self.n_rows + 1, "indptr length");
        assert_eq!(indices.len(), self.values.len(), "indices/values length");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr tail");
        for i in 0..self.n_rows {
            assert!(indptr[i] <= indptr[i + 1], "indptr not monotone");
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "columns not strictly ascending in row {i}");
            }
            for &c in row {
                assert!((c as usize) < self.n_cols, "column out of bounds");
            }
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices of row `i` (the paper's `cols(A(i,:))`).
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`, parallel to [`Csr::row_indices`].
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f32] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Number of nonzeros in row `i` — the paper's per-vertex computational
    /// weight `w(vᵢ) = |cols(A(i,:))|` (§4.3.2).
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterates `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            self.row_indices(i)
                .iter()
                .zip(self.row_values(i))
                .map(move |(&c, &v)| (i as u32, c, v))
        })
    }

    /// Transposed copy. For directed graphs the backpropagation phase uses
    /// `Âᵀ` in place of `Â` (paper §3.1).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for i in 0..self.n_rows {
            for (&c, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                let slot = cursor[c as usize];
                indices[slot] = i as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
            values,
        }
    }

    /// Extracts the submatrix formed by the given rows, keeping the full
    /// column space. This is the paper's `Aₘ ∈ R^{n×n}` — a processor's
    /// local row block, still indexed by global columns.
    pub fn select_rows(&self, rows: &[u32]) -> Csr {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in rows {
            indices.extend_from_slice(self.row_indices(r as usize));
            values.extend_from_slice(self.row_values(r as usize));
            indptr.push(indices.len());
        }
        Csr {
            n_rows: rows.len(),
            n_cols: self.n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// Keeps only entries whose column passes `keep`, preserving row structure.
    pub fn filter_cols(&self, keep: impl Fn(u32) -> bool) -> Csr {
        let mut indptr = Vec::with_capacity(self.n_rows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.n_rows {
            for (&c, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                if keep(c) {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// Renumbers column indices through `map` (new column count `n_cols`).
    /// Columns mapped to `u32::MAX` are dropped.
    ///
    /// Used when building per-rank local blocks whose columns index into a
    /// compact received-row buffer rather than the global vertex space.
    pub fn remap_cols(&self, map: &[u32], n_cols: usize) -> Csr {
        let mut indptr = Vec::with_capacity(self.n_rows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.n_rows {
            let start = indices.len();
            for (&c, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                let m = map[c as usize];
                if m != u32::MAX {
                    indices.push(m);
                    values.push(v);
                }
            }
            // Keep ascending order within the row if the map is not monotone.
            let row_idx = &mut indices[start..];
            let row_val = &mut values[start..];
            let mut perm: Vec<usize> = (0..row_idx.len()).collect();
            perm.sort_unstable_by_key(|&k| row_idx[k]);
            let sorted_idx: Vec<u32> = perm.iter().map(|&k| row_idx[k]).collect();
            let sorted_val: Vec<f32> = perm.iter().map(|&k| row_val[k]).collect();
            row_idx.copy_from_slice(&sorted_idx);
            row_val.copy_from_slice(&sorted_val);
            indptr.push(indices.len());
        }
        Csr {
            n_rows: self.n_rows,
            n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// The set of distinct columns with at least one nonzero, ascending —
    /// the paper's `cols(Aₘ)` used to derive the receive sets (Eq. 9).
    pub fn col_support(&self) -> Vec<u32> {
        let mut seen = vec![false; self.n_cols];
        for &c in &self.indices {
            seen[c as usize] = true;
        }
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i as u32))
            .collect()
    }

    /// Densifies; test/debug helper for small matrices.
    pub fn to_dense(&self) -> Dense {
        let mut out = Dense::zeros(self.n_rows, self.n_cols);
        for (r, c, v) in self.iter() {
            out.set(r as usize, c as usize, out.get(r as usize, c as usize) + v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputeCtx;
    use pargcn_util::rng::StdRng;
    use pargcn_util::rng::{Rng, SeedableRng};

    fn random_csr(rng: &mut StdRng, m: usize, n: usize, density: f64) -> Csr {
        let mut coo = Vec::new();
        for r in 0..m {
            for c in 0..n {
                if rng.gen_bool(density) {
                    coo.push((r as u32, c as u32, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        Csr::from_coo(m, n, coo)
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let a = Csr::from_coo(
            2,
            3,
            vec![(1, 2, 1.0), (0, 1, 2.0), (1, 2, 0.5), (0, 0, 1.0)],
        );
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row_indices(0), &[0, 1]);
        assert_eq!(a.row_indices(1), &[2]);
        assert_eq!(a.row_values(1), &[1.5]);
    }

    #[test]
    fn spmm_matches_dense_multiply() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_csr(&mut rng, 9, 7, 0.3);
        let h = Dense::random(7, 4, &mut rng);
        let ctx = ComputeCtx::serial();
        let dense = ctx.matmul(&a.to_dense(), &h);
        assert!(ctx.spmm(&a, &h).approx_eq(&dense, 1e-5));
    }

    #[test]
    fn spmm_into_accumulates() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_csr(&mut rng, 5, 5, 0.4);
        let h = Dense::random(5, 3, &mut rng);
        let ctx = ComputeCtx::serial();
        let mut out = ctx.spmm(&a, &h);
        ctx.spmm_into(&a, &h, &mut out, true);
        let mut twice = ctx.spmm(&a, &h);
        twice.add_assign(&ctx.spmm(&a, &h));
        assert!(out.approx_eq(&twice, 1e-5));
    }

    #[test]
    fn transpose_is_involution_and_matches_dense() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_csr(&mut rng, 6, 4, 0.35);
        assert_eq!(a, a.transpose().transpose());
        assert!(a
            .transpose()
            .to_dense()
            .approx_eq(&a.to_dense().transpose(), 0.0));
    }

    #[test]
    fn select_rows_keeps_global_columns() {
        let a = Csr::from_coo(
            4,
            4,
            vec![(0, 1, 1.0), (1, 3, 2.0), (2, 0, 3.0), (3, 2, 4.0)],
        );
        let sub = a.select_rows(&[1, 3]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.n_cols(), 4);
        assert_eq!(sub.row_indices(0), &[3]);
        assert_eq!(sub.row_indices(1), &[2]);
    }

    #[test]
    fn col_support_finds_used_columns() {
        let a = Csr::from_coo(3, 5, vec![(0, 4, 1.0), (1, 1, 1.0), (2, 4, 1.0)]);
        assert_eq!(a.col_support(), vec![1, 4]);
    }

    #[test]
    fn remap_cols_compacts_and_sorts() {
        let a = Csr::from_coo(1, 4, vec![(0, 0, 1.0), (0, 2, 2.0), (0, 3, 3.0)]);
        // Map 0→2, 2→0, 3→dropped.
        let map = vec![2, u32::MAX, 0, u32::MAX];
        let b = a.remap_cols(&map, 3);
        assert_eq!(b.row_indices(0), &[0, 2]);
        assert_eq!(b.row_values(0), &[2.0, 1.0]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let mut rng = StdRng::seed_from_u64(10);
        let h = Dense::random(6, 3, &mut rng);
        let out = ComputeCtx::serial().spmm(&Csr::identity(6), &h);
        assert!(out.approx_eq(&h, 0.0));
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = Csr::from_coo(5, 5, vec![(4, 0, 1.0)]);
        assert_eq!(a.row_nnz(0), 0);
        assert_eq!(a.row_nnz(4), 1);
        let h = Dense::zeros(5, 2);
        assert_eq!(ComputeCtx::serial().spmm(&a, &h).rows(), 5);
    }
}
