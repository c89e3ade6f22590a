//! Activation functions `σ` and their derivatives `σ'` (paper Eq. 1–3).
//!
//! Both work in place on row slices, so the trainers run them as
//! row-block epilogues of the GEMM that produced the rows
//! (`ComputeCtx::matmul_into_with`), with no extra pass over the matrix.
//! `σ'` is read from the layer's *output* `Hᵏ`, never from `Zᵏ`, so the
//! forward pass keeps no pre-activation copy: for ReLU,
//! `[z > 0] == [max(z, 0) > 0]` for every f32 (±0, ±∞, NaN and
//! subnormals included), and the identity's `σ' = 1` is a bitwise no-op.

/// Element-wise activation applied to `Zᵏ` to form `Hᵏ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit, the paper's hidden-layer activation.
    Relu,
    /// Identity, used at the output layer (softmax lives in the loss).
    Identity,
}

impl Activation {
    /// `x = σ(x)` in place: turns rows of `Zᵏ` into rows of `Hᵏ`.
    pub fn apply(self, x: &mut [f32]) {
        match self {
            Activation::Relu => x.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Identity => {}
        }
    }

    /// `g ⊙= σ'(h)` in place, where `h = σ(z)` is the activation output
    /// (Eq. 2–3's `G = S ⊙ σ'(Z)`). The ReLU case multiplies by an exact
    /// `1.0`/`0.0`, as the product with a materialized `σ'(Z)` did; the
    /// identity's `g · 1.0` equals `g`, so it does nothing.
    pub fn backprop(self, g: &mut [f32], h: &[f32]) {
        assert_eq!(g.len(), h.len(), "activation derivative length mismatch");
        match self {
            Activation::Relu => {
                for (gv, &hv) in g.iter_mut().zip(h) {
                    *gv *= if hv > 0.0 { 1.0 } else { 0.0 };
                }
            }
            Activation::Identity => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(act: Activation, z: &[f32]) -> Vec<f32> {
        let mut h = z.to_vec();
        act.apply(&mut h);
        h
    }

    /// `σ'(z)` as the vector `1 ⊙ σ'(σ(z))`.
    fn derivative(act: Activation, z: &[f32]) -> Vec<f32> {
        let mut g = vec![1.0; z.len()];
        act.backprop(&mut g, &apply(act, z));
        g
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn relu_clamps_negatives() {
        let z = [-1.0, 0.0, 0.5, 2.0];
        assert_eq!(apply(Activation::Relu, &z), [0.0, 0.0, 0.5, 2.0]);
        assert_eq!(derivative(Activation::Relu, &z), [0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn identity_is_noop_with_unit_derivative() {
        let z = [-1.0, 0.0, 3.0];
        assert_eq!(apply(Activation::Identity, &z), z);
        assert_eq!(derivative(Activation::Identity, &z), [1.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_derivative_consistent_with_finite_difference() {
        let z = [0.7f32, -0.3];
        let eps = 1e-3f32;
        let d = derivative(Activation::Relu, &z);
        for j in 0..2 {
            let fd = (apply(Activation::Relu, &[z[j] + eps])[0]
                - apply(Activation::Relu, &[z[j] - eps])[0])
                / (2.0 * eps);
            assert!((fd - d[j]).abs() < 1e-3);
        }
    }

    /// `σ'` read from `H = σ(Z)` equals `σ'` read from `Z`, bit for bit,
    /// on every special value, for any incoming gradient sign.
    #[test]
    fn relu_derivative_from_h_equals_from_z_bitwise() {
        let z = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MAX,
            f32::MIN,
            1.5,
            -1.5,
        ];
        let h = apply(Activation::Relu, &z);
        for g0 in [1.0f32, -2.5, 0.0, -0.0, f32::INFINITY, f32::NAN] {
            let from_z: Vec<f32> = z
                .iter()
                .map(|&zv| g0 * if zv > 0.0 { 1.0 } else { 0.0 })
                .collect();
            let mut from_h = vec![g0; z.len()];
            Activation::Relu.backprop(&mut from_h, &h);
            assert_eq!(bits(&from_h), bits(&from_z), "g = {g0}");
        }
    }
}
