//! GCN model configuration and the replicated parameter matrices.

use crate::activations::Activation;
use crate::optim::Optimizer;
use pargcn_matrix::Dense;
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Where the DMM sits relative to the SpMM in each layer (§4.4).
///
/// GCN computes `σ((ÂH)W)`; GAT-style models transform features first,
/// `σ(Â(HW))`. The products are mathematically identical (associativity),
/// but the communicated rows have width `d_in` vs `d_out` respectively —
/// same message *pattern*, different volume, exactly the paper's point that
/// other GNNs reuse the identical communication scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerOrder {
    /// `(Â·H)·W` — aggregate then transform (classic GCN).
    SpmmFirst,
    /// `Â·(H·W)` — transform then aggregate (GAT-style ordering).
    DmmFirst,
}

/// Hyperparameters of an L-layer GCN.
#[derive(Clone, Debug)]
pub struct GcnConfig {
    /// Feature widths `d₀, d₁, …, d_L`; the model has `dims.len() − 1` layers.
    pub dims: Vec<usize>,
    /// SGD learning rate `η` (paper Eq. 5).
    pub learning_rate: f32,
    /// Layer computation order (§4.4); `SpmmFirst` is the paper's GCN.
    pub order: LayerOrder,
    /// Parameter update rule; the paper's Eq. 5 is [`Optimizer::Sgd`].
    pub optimizer: Optimizer,
}

impl GcnConfig {
    /// A standard 2-layer GCN `d_in → hidden → classes`.
    pub fn two_layer(d_in: usize, hidden: usize, classes: usize) -> Self {
        Self {
            dims: vec![d_in, hidden, classes],
            learning_rate: 0.1,
            order: LayerOrder::SpmmFirst,
            optimizer: Optimizer::Sgd,
        }
    }

    /// Number of layers `L`.
    pub fn layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Activation of layer `k` (1-based like the paper): ReLU on hidden
    /// layers, identity on the output layer.
    pub fn activation(&self, k: usize) -> Activation {
        if k == self.layers() {
            Activation::Identity
        } else {
            Activation::Relu
        }
    }

    /// Per-layer parameter shapes `(d_{k-1}, d_k)`.
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        (0..self.layers())
            .map(|k| (self.dims[k], self.dims[k + 1]))
            .collect()
    }

    /// Glorot-initialized parameters, deterministic in `seed`. Replicated
    /// on every processor in the distributed algorithm.
    pub fn init_params(&self, seed: u64) -> Params {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = (0..self.layers())
            .map(|k| Dense::glorot(self.dims[k], self.dims[k + 1], &mut rng))
            .collect();
        Params { weights }
    }
}

/// The trainable parameter matrices `W¹…W^L`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Params {
    pub weights: Vec<Dense>,
}

impl Params {
    /// Largest absolute difference across all layers, for convergence checks.
    pub fn max_abs_diff(&self, other: &Params) -> f32 {
        self.weights
            .iter()
            .zip(&other.weights)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_layer_shapes() {
        let c = GcnConfig::two_layer(16, 8, 3);
        assert_eq!(c.layers(), 2);
        let p = c.init_params(0);
        assert_eq!((p.weights[0].rows(), p.weights[0].cols()), (16, 8));
        assert_eq!((p.weights[1].rows(), p.weights[1].cols()), (8, 3));
    }

    #[test]
    fn hidden_relu_output_identity() {
        let c = GcnConfig {
            dims: vec![4, 4, 4, 2],
            learning_rate: 0.1,
            order: LayerOrder::SpmmFirst,
            optimizer: Optimizer::Sgd,
        };
        assert_eq!(c.activation(1), Activation::Relu);
        assert_eq!(c.activation(2), Activation::Relu);
        assert_eq!(c.activation(3), Activation::Identity);
    }

    #[test]
    fn init_is_deterministic() {
        let c = GcnConfig::two_layer(6, 4, 2);
        let a = c.init_params(42);
        let b = c.init_params(42);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let c2 = c.init_params(43);
        assert!(a.max_abs_diff(&c2) > 0.0);
    }
}
