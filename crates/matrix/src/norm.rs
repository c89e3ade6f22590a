//! GCN adjacency normalization: `Â = D^{-1/2} (A + I) D^{-1/2}`.
//!
//! `Ã = A + I` adds self loops, and `D(i,i) = Σⱼ Ã(i,j)` is the diagonal
//! degree matrix of `Ã` (paper §3.1). Because every diagonal entry of `Ã`
//! is nonzero, every vertex `vⱼ` appears in the pins of its own column net
//! `nⱼ` — a structural fact the hypergraph model's volume argument relies on
//! (§4.3.2: "at least one part in Λ(nⱼ) stores vertex vⱼ").

use crate::Csr;

/// Builds the normalized adjacency matrix `Â` from a raw (pattern) adjacency.
///
/// `a` holds the graph's edges as an `n × n` sparse matrix whose values are
/// edge weights (typically 1.0). Self loops in the input are coalesced with
/// the added identity. For a directed graph, pass the adjacency as-is; the
/// caller transposes `Â` for backpropagation when needed.
///
/// Each row of `a` is already sorted, so `Ã = A + I` is one merge of the
/// diagonal into every row, which also sums the row's degree; the scaling
/// then runs in place over `Ã`'s values. No entry is re-sorted.
pub fn normalize_adjacency(a: &Csr) -> Csr {
    assert_eq!(a.n_rows(), a.n_cols(), "adjacency must be square");
    let n = a.n_rows();
    // At most one entry per row is added; the slack left by rows that
    // already hold a self loop is truncated below.
    let mut indptr = vec![0usize; n + 1];
    let mut indices = vec![0u32; a.nnz() + n];
    let mut values = vec![0.0f32; a.nnz() + n];
    let mut inv_sqrt = vec![0.0f32; n];
    let mut k = 0;
    for r in 0..n {
        let diag = r as u32;
        // Row-sum degree of Ã, in column order. For a directed graph this
        // is the out-degree row sum, matching the paper's D(i,i) = Σⱼ Ã(i,j).
        let mut d = 0.0f64;
        let mut diag_pending = true;
        for (&c, &v) in a.row_indices(r).iter().zip(a.row_values(r)) {
            let mut v = v;
            if diag_pending && c >= diag {
                diag_pending = false;
                if c == diag {
                    // An existing self loop coalesces with the identity.
                    v += 1.0;
                } else {
                    indices[k] = diag;
                    values[k] = 1.0;
                    k += 1;
                    d += 1.0;
                }
            }
            indices[k] = c;
            values[k] = v;
            k += 1;
            d += v as f64;
        }
        if diag_pending {
            indices[k] = diag;
            values[k] = 1.0;
            k += 1;
            d += 1.0;
        }
        indptr[r + 1] = k;
        inv_sqrt[r] = if d > 0.0 {
            (1.0 / d.sqrt()) as f32
        } else {
            0.0
        };
    }
    indices.truncate(k);
    values.truncate(k);

    for r in 0..n {
        let row = indptr[r]..indptr[r + 1];
        for (v, &c) in values[row.clone()].iter_mut().zip(&indices[row]) {
            *v = inv_sqrt[r] * *v * inv_sqrt[c as usize];
        }
    }
    Csr::from_valid_parts(n, n, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_util::qc;
    use pargcn_util::rng::Rng;

    /// Reference normalization through two COO round-trips (`A + I`, then
    /// the scaled entries): [`normalize_adjacency`] must match it bit for
    /// bit.
    fn normalize_adjacency_coo(a: &Csr) -> Csr {
        assert_eq!(a.n_rows(), a.n_cols(), "adjacency must be square");
        let n = a.n_rows();
        // Ã = A + I, coalescing any existing self loops.
        let mut coo: Vec<(u32, u32, f32)> = a.iter().collect();
        coo.extend((0..n as u32).map(|i| (i, i, 1.0)));
        let tilde = Csr::from_coo(n, n, coo);

        // Row-sum degrees of Ã. For a directed graph this is the out-degree row
        // sum, matching the paper's D(i,i) = Σⱼ Ã(i,j).
        let mut deg = vec![0.0f64; n];
        for (r, _c, v) in tilde.iter() {
            deg[r as usize] += v as f64;
        }
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| {
                if d > 0.0 {
                    (1.0 / d.sqrt()) as f32
                } else {
                    0.0
                }
            })
            .collect();

        let scaled: Vec<(u32, u32, f32)> = tilde
            .iter()
            .map(|(r, c, v)| (r, c, inv_sqrt[r as usize] * v * inv_sqrt[c as usize]))
            .collect();
        Csr::from_coo(n, n, scaled)
    }

    #[test]
    fn normalized_has_self_loops() {
        // Path graph 0-1-2 (undirected, symmetric entries).
        let a = Csr::from_coo(
            3,
            3,
            vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        );
        let norm = normalize_adjacency(&a);
        for i in 0..3 {
            assert!(
                norm.row_indices(i).contains(&(i as u32)),
                "missing self loop at {i}"
            );
        }
    }

    #[test]
    fn symmetric_input_gives_symmetric_output() {
        let a = Csr::from_coo(
            4,
            4,
            vec![
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        );
        let norm = normalize_adjacency(&a);
        let d = norm.to_dense();
        assert!(d.approx_eq(&d.transpose(), 1e-6));
    }

    #[test]
    fn values_match_hand_computation() {
        // Single undirected edge 0-1. Ã has rows [1,1] so D = diag(2,2),
        // Â(0,0) = 1/2, Â(0,1) = 1/2.
        let a = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let norm = normalize_adjacency(&a).to_dense();
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!((norm.get(i, j) - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn existing_self_loops_coalesce() {
        let a = Csr::from_coo(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
        let norm = normalize_adjacency(&a);
        // Row 0 of Ã is [2, 1]: degree 3.
        let d = norm.to_dense();
        assert!((d.get(0, 0) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn isolated_vertex_gets_unit_self_loop() {
        let a = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        // Add an isolated third vertex.
        let a3 = Csr::from_coo(3, 3, a.iter().collect());
        let norm = normalize_adjacency(&a3).to_dense();
        assert!((norm.get(2, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_at_most_one_on_small_graph() {
        // Â of an undirected graph has eigenvalues in [-1, 1]; verify via
        // power iteration that ‖Âx‖ ≤ ‖x‖ approximately holds after many steps.
        let a = Csr::from_coo(
            4,
            4,
            vec![
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 0, 1.0),
                (0, 3, 1.0),
            ],
        );
        let norm = normalize_adjacency(&a);
        let mut x = crate::Dense::from_vec(4, 1, vec![1.0, -0.5, 0.25, 0.7]);
        let ctx = crate::ComputeCtx::serial();
        for _ in 0..50 {
            let nx = ctx.spmm(&norm, &x);
            assert!(nx.frobenius_norm() <= x.frobenius_norm() * (1.0 + 1e-5));
            x = nx;
        }
    }

    #[test]
    fn merged_normalization_matches_the_coo_round_trip() {
        // Directed and undirected patterns, explicit self loops with
        // arbitrary weights, isolated vertices and explicit zeros.
        qc::check(|rng| {
            let n = rng.gen_range(1..60usize);
            let symmetric = rng.gen_range(0..2u32) == 0;
            let mut coo = Vec::new();
            for _ in 0..rng.gen_range(0..4 * n) {
                let r = rng.gen_range(0..n as u32);
                let c = if rng.gen_range(0..6u32) == 0 {
                    r
                } else {
                    rng.gen_range(0..n as u32)
                };
                let v = match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => rng.gen_range(-2.0..2.0f32),
                    _ => 1.0,
                };
                coo.push((r, c, v));
                if symmetric {
                    coo.push((c, r, v));
                }
            }
            let a = Csr::from_coo(n, n, coo);
            let got = normalize_adjacency(&a);
            let want = normalize_adjacency_coo(&a);
            assert_eq!(got.indptr(), want.indptr());
            assert_eq!(got.indices(), want.indices());
            let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        });
    }
}
