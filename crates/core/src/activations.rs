//! Activation functions `σ` and their derivatives `σ'` (paper Eq. 1–3).

use pargcn_matrix::{ComputeCtx, Dense};

/// Element-wise activation applied to `Zᵏ` to form `Hᵏ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit, the paper's hidden-layer activation.
    Relu,
    /// Identity, used at the output layer (softmax lives in the loss).
    Identity,
}

impl Activation {
    /// `out = σ(z)` into a caller-provided buffer of `z`'s shape.
    pub fn apply_into(&self, cctx: &ComputeCtx, z: &Dense, out: &mut Dense) {
        match self {
            Activation::Relu => cctx.map_into(z, out, |v| v.max(0.0)),
            Activation::Identity => out.copy_from(z),
        }
    }

    /// `out = σ'(z)`, element-wise, into a caller-provided buffer.
    pub fn derivative_into(&self, cctx: &ComputeCtx, z: &Dense, out: &mut Dense) {
        match self {
            Activation::Relu => cctx.map_into(z, out, |v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::Identity => cctx.map_into(z, out, |_| 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(act: Activation, z: &Dense) -> Dense {
        let mut out = Dense::zeros(z.rows(), z.cols());
        act.apply_into(&ComputeCtx::serial(), z, &mut out);
        out
    }

    fn derivative(act: Activation, z: &Dense) -> Dense {
        let mut out = Dense::zeros(z.rows(), z.cols());
        act.derivative_into(&ComputeCtx::serial(), z, &mut out);
        out
    }

    #[test]
    fn relu_clamps_negatives() {
        let z = Dense::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        assert_eq!(apply(Activation::Relu, &z).data(), &[0.0, 0.0, 0.5, 2.0]);
        assert_eq!(
            derivative(Activation::Relu, &z).data(),
            &[0.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn identity_is_noop_with_unit_derivative() {
        let z = Dense::from_vec(1, 3, vec![-1.0, 0.0, 3.0]);
        assert_eq!(apply(Activation::Identity, &z).data(), z.data());
        assert_eq!(
            derivative(Activation::Identity, &z).data(),
            &[1.0, 1.0, 1.0]
        );
    }

    #[test]
    fn relu_derivative_consistent_with_finite_difference() {
        let z = Dense::from_vec(1, 2, vec![0.7, -0.3]);
        let eps = 1e-3f32;
        let d = derivative(Activation::Relu, &z);
        for j in 0..2 {
            let mut zp = z.clone();
            zp.set(0, j, z.get(0, j) + eps);
            let mut zm = z.clone();
            zm.set(0, j, z.get(0, j) - eps);
            let fd = (apply(Activation::Relu, &zp).get(0, j)
                - apply(Activation::Relu, &zm).get(0, j))
                / (2.0 * eps);
            assert!((fd - d.get(0, j)).abs() < 1e-3);
        }
    }
}
