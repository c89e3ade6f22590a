//! Loss functions: masked softmax cross-entropy (node classification, the
//! paper's workload) and squared error (used by gradient-check tests).
//!
//! Both provide the loss value `J` and the gradient `∇_{H^L} J` that seeds
//! backpropagation (paper Eq. 2). Gradients are zero outside the training
//! mask, so only labelled vertices drive updates — the transductive GCN
//! setting of Kipf & Welling.

use pargcn_matrix::Dense;

/// `max z` under `f32::max` (NaNs ignored; `-∞` for an empty or all-NaN
/// row), folded in 8 independent lanes so the compare chain vectorizes.
/// The grouping can only change the sign of a zero result, and the max
/// is only ever used as `exp(v − max)`: with `max = ±0` every `v` is
/// `≤ 0`, so `v − max` is either `v` itself or a zero of some sign, and
/// `exp(±0) = 1`. The softmax therefore keeps every bit of a
/// left-to-right fold.
#[inline]
fn row_max(z: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = z.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(chunk) {
            *l = l.max(v);
        }
    }
    let tail = chunks.remainder().iter().copied();
    lanes
        .into_iter()
        .chain(tail)
        .fold(f32::NEG_INFINITY, f32::max)
}

/// The softmax numerators `exp(z − max z)` of one row into `out`, with
/// the max subtracted for stability; returns their sum.
#[inline]
fn softmax_numerators(z: &[f32], out: &mut [f32]) -> f32 {
    let max = row_max(z);
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(z) {
        *o = (v - max).exp();
        sum += *o;
    }
    sum
}

/// Masked softmax cross-entropy in one pass over the rows: `grad`
/// (overwritten; `h`'s shape) receives `(softmax(H(i,:)) −
/// onehot(yᵢ))/mask_total` on masked rows, zero elsewhere. Returns the
/// *sum* of masked row losses `−log softmax(H(i,:))[yᵢ]` divided by
/// `mask_total`.
///
/// Each masked row's softmax numerators land in its own `grad` row,
/// which one more sweep normalizes and turns into the gradient in place
/// (the loss term is read on the way), so the loss keeps no probability
/// matrix and reads `H` once. The training loop passes `Gᴸ`'s buffer as
/// `grad` (DESIGN.md §9).
///
/// `mask_total` is the mask count over the whole graph, so on a rank's
/// row block this is the rank's share: allreducing the per-rank values
/// yields the identical global loss a single process computes.
pub fn masked_cross_entropy_into(
    h: &Dense,
    labels: &[u32],
    mask: &[bool],
    mask_total: f64,
    grad: &mut Dense,
) -> f64 {
    assert_eq!(h.rows(), labels.len(), "label length mismatch");
    assert_eq!(h.rows(), mask.len(), "mask length mismatch");
    assert_eq!(
        (h.rows(), h.cols()),
        (grad.rows(), grad.cols()),
        "loss gradient shape mismatch"
    );
    let scale = mask_total as f32;
    let mut total = 0.0f64;
    for (i, &masked) in mask.iter().enumerate() {
        let g = grad.row_mut(i);
        if !masked {
            g.fill(0.0);
            continue;
        }
        let sum = softmax_numerators(h.row(i), g);
        // `sum ≥ 1` (the max's own term is exp(0)) unless a NaN or an
        // infinite max makes it NaN; such a row stays unnormalized.
        let normalize = sum > 0.0;
        let prob = |v: f32| if normalize { v / sum } else { v };
        let y = labels[i] as usize;
        total -= (prob(g[y]).max(1e-12) as f64).ln();
        for (j, gv) in g.iter_mut().enumerate() {
            let indicator = if j == y { 1.0 } else { 0.0 };
            *gv = (prob(*gv) - indicator) / scale;
        }
    }
    total / mask_total
}

/// Masked softmax cross-entropy.
///
/// Returns `(J, ∇_{H} J)` where
/// `J = (1/|mask|) Σ_{i∈mask} −log softmax(H(i,:))[yᵢ]` and the gradient is
/// `(softmax(H(i,:)) − onehot(yᵢ))/|mask|` on masked rows, zero elsewhere.
pub fn softmax_cross_entropy(h: &Dense, labels: &[u32], mask: &[bool]) -> (f64, Dense) {
    let count = mask.iter().filter(|&&m| m).count().max(1) as f64;
    let mut grad = Dense::zeros(h.rows(), h.cols());
    let loss = masked_cross_entropy_into(h, labels, mask, count, &mut grad);
    (loss, grad)
}

/// Masked mean squared error against a dense target: `J = (1/2|mask|)·Σ‖h−t‖²`.
/// Simple and smooth, which makes finite-difference gradient checks tight.
pub fn squared_error(h: &Dense, target: &Dense, mask: &[bool]) -> (f64, Dense) {
    assert_eq!(h.rows(), target.rows());
    assert_eq!(h.cols(), target.cols());
    let count = mask.iter().filter(|&&m| m).count().max(1) as f64;
    let mut grad = Dense::zeros(h.rows(), h.cols());
    let mut loss = 0.0f64;
    for (i, &masked) in mask.iter().enumerate().take(h.rows()) {
        if !masked {
            continue;
        }
        let g = grad.row_mut(i);
        for (j, gj) in g.iter_mut().enumerate() {
            let d = h.get(i, j) - target.get(i, j);
            loss += 0.5 * (d as f64) * (d as f64);
            *gj = d / count as f32;
        }
    }
    (loss / count, grad)
}

/// Classification accuracy of `h`'s row-argmax against `labels`, over rows
/// where `mask` is true.
pub fn accuracy(h: &Dense, labels: &[u32], mask: &[bool]) -> f64 {
    let preds = h.argmax_rows();
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..labels.len() {
        if mask[i] {
            total += 1;
            if preds[i] == labels[i] as usize {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softmax(row: &[f32]) -> Vec<f32> {
        let mut s = vec![0.0; row.len()];
        let sum = softmax_numerators(row, &mut s);
        s.iter().map(|v| v / sum).collect()
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        for row in [[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]] {
            let sum: f32 = softmax(&row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let sa = softmax(&[1.0, 2.0, 3.0]);
        let sb = softmax(&[101.0, 102.0, 103.0]);
        for (a, b) in sa.iter().zip(&sb) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// The masked cross-entropy as three passes — softmax of every row
    /// into a probability matrix, a zero fill, then the loss and gradient
    /// of the masked rows — kept as the oracle the one-pass loss must
    /// match bit for bit.
    fn three_pass_oracle(
        h: &Dense,
        labels: &[u32],
        mask: &[bool],
        mask_total: f64,
    ) -> (f64, Dense) {
        let mut probs = Dense::zeros(h.rows(), h.cols());
        for i in 0..h.rows() {
            let row = probs.row_mut(i);
            row.copy_from_slice(h.row(i));
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        let mut grad = Dense::zeros(h.rows(), h.cols());
        let mut total = 0.0f64;
        for i in 0..h.rows() {
            if !mask[i] {
                continue;
            }
            let y = labels[i] as usize;
            let pv = probs.get(i, y).max(1e-12);
            total -= (pv as f64).ln();
            let g = grad.row_mut(i);
            for (j, gv) in g.iter_mut().enumerate() {
                let indicator = if j == y { 1.0 } else { 0.0 };
                *gv = (probs.get(i, j) - indicator) / mask_total as f32;
            }
        }
        (total / mask_total, grad)
    }

    #[test]
    fn one_pass_loss_equals_three_pass_oracle_bitwise() {
        use pargcn_util::qc;
        use pargcn_util::rng::Rng;
        qc::run(64, |rng| {
            let rows = match rng.gen_range(0..4u32) {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(2..60),
            };
            let cols = if rng.gen_range(0..4u32) == 0 {
                1
            } else {
                rng.gen_range(2..20)
            };
            // Logits on three scales, the last around ±80 where `exp`
            // underflows and the 1e-12 clamp bites, with a rare NaN or
            // ±∞ so the unnormalized (NaN-sum) rows are covered too, and
            // zeros of both signs for the row max's zero-sign argument.
            let scale = [1.0f32, 10.0, 80.0][rng.gen_range(0..3usize)];
            // A quarter of the cases have no positive logit, so the row
            // max is often a zero.
            let hi = if rng.gen_range(0..4u32) == 0 {
                0.0
            } else {
                1.0
            };
            let h = Dense::from_fn(rows, cols, |_, _| match rng.gen_range(0..200u32) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3..=12 => 0.0,
                13..=22 => -0.0,
                _ => rng.gen_range(-1.0..=hi) * scale,
            });
            // Labels at both ends of the class range, and in between.
            let labels: Vec<u32> = (0..rows)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => 0,
                    1 => cols as u32 - 1,
                    _ => rng.gen_range(0..cols as u32),
                })
                .collect();
            let mask: Vec<bool> = (0..rows).map(|_| rng.gen_range(0..3u32) != 0).collect();
            // The global mask count, larger than this block's share.
            let masked = mask.iter().filter(|&&m| m).count();
            let mask_total = (masked + rng.gen_range(0..50usize)).max(1) as f64;

            let (want_loss, want_grad) = three_pass_oracle(&h, &labels, &mask, mask_total);
            // Garbage in the output buffer must not leak into unmasked rows.
            let mut grad = Dense::from_fn(rows, cols, |_, _| f32::NAN);
            let loss = masked_cross_entropy_into(&h, &labels, &mask, mask_total, &mut grad);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss {rows}x{cols}");
            let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad), bits(&want_grad), "gradient {rows}x{cols}");
        });
    }

    #[test]
    fn cross_entropy_loss_decreases_with_confidence() {
        let confident = Dense::from_vec(1, 2, vec![5.0, -5.0]);
        let unsure = Dense::from_vec(1, 2, vec![0.1, -0.1]);
        let labels = vec![0u32];
        let mask = vec![true];
        let (l_conf, _) = softmax_cross_entropy(&confident, &labels, &mask);
        let (l_unsure, _) = softmax_cross_entropy(&unsure, &labels, &mask);
        assert!(l_conf < l_unsure);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let h = Dense::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);
        let labels = vec![2u32, 0];
        let mask = vec![true, true];
        let (_, grad) = softmax_cross_entropy(&h, &labels, &mask);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let mut hp = h.clone();
                hp.set(i, j, h.get(i, j) + eps);
                let mut hm = h.clone();
                hm.set(i, j, h.get(i, j) - eps);
                let (lp, _) = softmax_cross_entropy(&hp, &labels, &mask);
                let (lm, _) = softmax_cross_entropy(&hm, &labels, &mask);
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grad.get(i, j)).abs() < 1e-3,
                    "fd {fd} vs grad {} at ({i},{j})",
                    grad.get(i, j)
                );
            }
        }
    }

    #[test]
    fn masked_rows_have_zero_gradient() {
        let h = Dense::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let (_, grad) = softmax_cross_entropy(&h, &[0, 1], &[true, false]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn squared_error_gradient_matches_finite_difference() {
        let h = Dense::from_vec(1, 2, vec![0.4, -0.6]);
        let t = Dense::from_vec(1, 2, vec![1.0, 0.0]);
        let (_, grad) = squared_error(&h, &t, &[true]);
        let eps = 1e-3f32;
        for j in 0..2 {
            let mut hp = h.clone();
            hp.set(0, j, h.get(0, j) + eps);
            let mut hm = h.clone();
            hm.set(0, j, h.get(0, j) - eps);
            let (lp, _) = squared_error(&hp, &t, &[true]);
            let (lm, _) = squared_error(&hm, &t, &[true]);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((fd - grad.get(0, j)).abs() < 1e-3);
        }
    }

    #[test]
    fn accuracy_counts_masked_rows_only() {
        let h = Dense::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        // Predictions: 0, 1, 0. Labels: 0, 0, 0. Mask drops row 1.
        let acc = accuracy(&h, &[0, 0, 0], &[true, false, true]);
        assert_eq!(acc, 1.0);
        let acc_all = accuracy(&h, &[0, 0, 0], &[true, true, true]);
        assert!((acc_all - 2.0 / 3.0).abs() < 1e-12);
    }
}
