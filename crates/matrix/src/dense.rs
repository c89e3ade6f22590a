//! Row-major dense matrix: data access and the in-place element-wise ops
//! of GCN training.
//!
//! The matrices handled here are the vertex-feature blocks `H` (tall and
//! skinny: many rows, few columns) and the parameter matrices `W` (small,
//! replicated on every processor). Products of them (DMM, and SpMM with a
//! [`crate::Csr`]) run through [`crate::ComputeCtx`].

use pargcn_util::rng::Rng;

/// A row-major dense `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Dense({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for i in 0..self.rows {
                write!(f, "\n  {:?}", self.row(i))?;
            }
        }
        Ok(())
    }
}

impl Dense {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialization, the standard GCN parameter
    /// init: `U(-s, s)` with `s = sqrt(6 / (rows + cols))`.
    pub fn glorot(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let s = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols).map(|_| rng.gen_range(-s..=s)).collect();
        Self { rows, cols, data }
    }

    /// Uniform random entries in `[0, 1)`; used for synthetic feature matrices.
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen::<f32>()).collect();
        Self { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Changes the row count in place, keeping the column width and the
    /// allocation (grow-once under a high-water mark). New rows are zeroed;
    /// surviving rows keep their stale contents — callers that reuse a
    /// workspace across batches must fully overwrite before reading.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Consumes the matrix, yielding its backing row-major storage. The
    /// inverse of [`Dense::from_vec`]: together they let a message payload
    /// be viewed as a matrix and then recycled without copying.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Overwrites `self` with the contents of `src` (shapes must match);
    /// never reallocates.
    pub fn copy_from(&mut self, src: &Dense) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Explicit transpose; only used for small matrices and in tests (hot
    /// paths use `ComputeCtx`'s fused `matmul_bt`/`matmul_at` instead).
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// `self += b`.
    pub fn add_assign(&mut self, b: &Dense) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "add shape mismatch"
        );
        for (x, &y) in self.data.iter_mut().zip(&b.data) {
            *x += y;
        }
    }

    /// `self -= eta * b`; the SGD parameter update `W ← W − η·ΔW` (Eq. 5).
    pub fn sub_scaled_assign(&mut self, b: &Dense, eta: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "sub shape mismatch"
        );
        for (x, &y) in self.data.iter_mut().zip(&b.data) {
            *x -= eta * y;
        }
    }

    /// Applies `f` to every element, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm, accumulated in `f64`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// True when every entry of `self` and `b` agrees within relative
    /// tolerance `rel` (absolute floor 1.0; see [`crate::approx_eq`]).
    pub fn approx_eq(&self, b: &Dense, rel: f32) -> bool {
        self.rows == b.rows
            && self.cols == b.cols
            && self
                .data
                .iter()
                .zip(&b.data)
                .all(|(&x, &y)| crate::approx_eq(x, y, rel))
    }

    /// Largest absolute element difference against `b`.
    pub fn max_abs_diff(&self, b: &Dense) -> f32 {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols));
        self.data
            .iter()
            .zip(&b.data)
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    /// Index of the maximum entry of each row (`argmax`), used to turn
    /// softmax outputs into class predictions.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Vertically stacks rows of `self` selected by `idx`
    /// (equivalent to [`crate::gather::gather_rows`]).
    pub fn select_rows(&self, idx: &[u32]) -> Dense {
        crate::gather::gather_rows(self, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputeCtx;
    use pargcn_util::rng::SeedableRng;
    use pargcn_util::rng::StdRng;

    fn naive_matmul(a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Dense::random(7, 5, &mut rng);
        let b = Dense::random(5, 9, &mut rng);
        let ctx = ComputeCtx::serial();
        assert!(ctx.matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Dense::random(6, 4, &mut rng);
        let b = Dense::random(8, 4, &mut rng);
        let ctx = ComputeCtx::serial();
        let explicit = ctx.matmul(&a, &b.transpose());
        assert!(ctx.matmul_bt(&a, &b).approx_eq(&explicit, 1e-5));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Dense::random(6, 4, &mut rng);
        let b = Dense::random(6, 3, &mut rng);
        let ctx = ComputeCtx::serial();
        let explicit = ctx.matmul(&a.transpose(), &b);
        assert!(ctx.matmul_at(&a, &b).approx_eq(&explicit, 1e-5));
    }

    #[test]
    fn matmul_into_accumulates() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Dense::random(3, 3, &mut rng);
        let b = Dense::random(3, 3, &mut rng);
        let ctx = ComputeCtx::serial();
        let mut out = ctx.matmul(&a, &b);
        ctx.matmul_into(&a, &b, &mut out, true);
        let mut twice = ctx.matmul(&a, &b);
        twice.add_assign(&ctx.matmul(&a, &b));
        assert!(out.approx_eq(&twice, 1e-5));
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Dense::random(4, 7, &mut rng);
        assert_eq!(a, a.transpose().transpose());
    }

    #[test]
    fn sub_scaled_assign_updates() {
        let a = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Dense::from_vec(2, 2, vec![2.0, 0.5, 1.0, -1.0]);
        let mut w = a.clone();
        w.sub_scaled_assign(&b, 2.0);
        assert_eq!(w.data(), &[-3.0, 1.0, 1.0, 6.0]);
    }

    #[test]
    fn glorot_within_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = Dense::glorot(10, 20, &mut rng);
        let s = (6.0f64 / 30.0).sqrt() as f32;
        assert!(w.data().iter().all(|&v| v.abs() <= s));
        // Not degenerate: some spread.
        assert!(w.frobenius_norm() > 0.1);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Dense::from_vec(2, 3, vec![0.1, 0.9, 0.2, 0.5, 0.4, 0.6]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        let _ = ComputeCtx::serial().matmul(&a, &b);
    }
}
