//! Fully-connected layers and a small MLP wrapper.
//!
//! Forward/inference matvecs go through [`crate::kernels::matvec_acc`]
//! (bounds-check-free, bit-identical to the plain loops). `forward`
//! computes into layer-owned buffers reused across calls, and
//! `infer_into` + the thread-local scratch pool make the inference path
//! allocation-free after warm-up.

use crate::kernels::{self, matvec_acc};
use crate::{OptimKind, Param, XavierInit};
use serde::{Deserialize, Serialize};

/// Activation function applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// `max(x, 0)`.
    Relu,
    /// Leaky ReLU with slope 0.1 on the negative side — avoids dead
    /// networks in small convolutional models.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation to a scalar.
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.1 * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the activation's *output* `y`.
    pub fn grad_from_output(&self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.1
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// A dense layer `y = act(W x + b)` with explicit backprop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Activation applied to the outputs.
    pub act: Activation,
    /// Weights, `out_dim x in_dim` row-major.
    pub weight: Param, // out_dim × in_dim, row-major
    /// Per-output biases.
    pub bias: Param, // out_dim
    // caches from the last forward pass
    last_input: Vec<f32>,
    last_output: Vec<f32>,
}

impl Dense {
    /// Build a layer with Xavier-initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, init: &mut XavierInit) -> Self {
        Dense {
            in_dim,
            out_dim,
            act,
            weight: Param::new(init.sample(in_dim * out_dim, in_dim, out_dim)),
            bias: Param::zeros(out_dim),
            last_input: Vec::new(),
            last_output: Vec::new(),
        }
    }

    /// Forward pass, caching input and output for `backward`.
    ///
    /// The caches are layer-owned buffers reused across calls; the only
    /// per-call allocation is the returned `Vec` (training-path only).
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.forward_cached(x);
        self.last_output.clone()
    }

    /// Forward pass that leaves the result in `self.last_output` without
    /// returning (and so without allocating). [`Mlp::forward`] chains
    /// layers through these buffers.
    pub fn forward_cached(&mut self, x: &[f32]) {
        debug_assert_eq!(x.len(), self.in_dim);
        self.last_input.clear();
        self.last_input.extend_from_slice(x);
        // Split borrows: compute into the layer-owned output buffer.
        let y = &mut self.last_output;
        y.clear();
        y.extend_from_slice(&self.bias.w);
        matvec_acc(&self.weight.w, x, y);
        let act = self.act;
        y.iter_mut().for_each(|v| *v = act.apply(*v));
    }

    /// Inference-only forward that does not touch the caches.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        self.infer_into(x, &mut y);
        y
    }

    /// Inference into a caller-owned buffer (cleared and refilled):
    /// no heap allocation once the buffer has capacity `out_dim`.
    pub fn infer_into(&self, x: &[f32], y: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.in_dim);
        y.clear();
        y.extend_from_slice(&self.bias.w);
        matvec_acc(&self.weight.w, x, y);
        let act = self.act;
        y.iter_mut().for_each(|v| *v = act.apply(*v));
    }

    /// Batched inference: `xs` holds `batch` consecutive rows of
    /// `in_dim`; `ys` is refilled with `batch` rows of `out_dim`.
    ///
    /// Folds the batch into the GEMM's M dimension — `Y = act(X·Wᵀ + b)`
    /// with the (scratch-pooled) transposed weight streamed once per
    /// batch rather than once per row. Each output element accumulates
    /// its `in_dim` terms in the same strictly increasing order as
    /// [`Self::infer_into`]'s matvec, so the result is bit-identical to
    /// `batch` looped calls.
    pub fn infer_batched_into(&self, xs: &[f32], batch: usize, ys: &mut Vec<f32>) {
        assert_eq!(xs.len(), batch * self.in_dim, "batched dense input shape");
        ys.clear();
        for _ in 0..batch {
            ys.extend_from_slice(&self.bias.w);
        }
        let mut wt = kernels::take_buf(self.in_dim * self.out_dim);
        for r in 0..self.out_dim {
            for p in 0..self.in_dim {
                wt[p * self.out_dim + r] = self.weight.w[r * self.in_dim + p];
            }
        }
        kernels::matmul_blocked(xs, &wt, ys, batch, self.in_dim, self.out_dim);
        kernels::put_buf(wt);
        let act = self.act;
        ys.iter_mut().for_each(|v| *v = act.apply(*v));
    }

    /// Backward pass: accumulate parameter gradients, return dL/dx.
    pub fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_out.len(), self.out_dim);
        let mut grad_in = vec![0.0; self.in_dim];
        for (o, &go) in grad_out.iter().enumerate() {
            let d = go * self.act.grad_from_output(self.last_output[o]);
            self.bias.g[o] += d;
            let row_w = &self.weight.w[o * self.in_dim..(o + 1) * self.in_dim];
            let row_g = &mut self.weight.g[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                row_g[i] += d * self.last_input[i];
                grad_in[i] += d * row_w[i];
            }
        }
        grad_in
    }

    /// Apply one optimizer step to weights and biases.
    pub fn step(&mut self, lr: f32, kind: OptimKind) {
        self.weight.step(lr, kind);
        self.bias.step(lr, kind);
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }
}

/// A stack of dense layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    /// Layers applied in order.
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Build an MLP with the given layer sizes; hidden layers use `hidden`,
    /// the output layer uses `out_act`.
    pub fn new(
        sizes: &[usize],
        hidden: Activation,
        out_act: Activation,
        init: &mut XavierInit,
    ) -> Self {
        assert!(sizes.len() >= 2);
        let mut layers = Vec::new();
        for i in 0..sizes.len() - 1 {
            let act = if i == sizes.len() - 2 {
                out_act
            } else {
                hidden
            };
            layers.push(Dense::new(sizes[i], sizes[i + 1], act, init));
        }
        Mlp { layers }
    }

    /// Forward pass through all layers (training: caches activations).
    ///
    /// Layers chain through their own cached output buffers, so the only
    /// per-call allocation is the returned `Vec`.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        for i in 0..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i);
            let input: &[f32] = match done.last() {
                None => x,
                Some(prev) => &prev.last_output,
            };
            rest[0].forward_cached(input);
        }
        self.layers
            .last()
            .map(|l| l.last_output.clone())
            .unwrap_or_default()
    }

    /// Inference-only forward pass.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        self.infer_into(x, &mut y);
        y
    }

    /// Inference into a caller-owned buffer. Intermediate activations
    /// live in the thread-local scratch pool, so the whole pass performs
    /// zero heap allocations after warm-up (given `out` has capacity).
    pub fn infer_into(&self, x: &[f32], out: &mut Vec<f32>) {
        match self.layers.as_slice() {
            [] => {
                out.clear();
                out.extend_from_slice(x);
            }
            [only] => only.infer_into(x, out),
            [first, rest @ ..] => {
                let mut a = kernels::take_buf(0);
                let mut b = kernels::take_buf(0);
                first.infer_into(x, &mut a);
                for (i, l) in rest.iter().enumerate() {
                    if i == rest.len() - 1 {
                        l.infer_into(&a, out);
                    } else {
                        l.infer_into(&a, &mut b);
                        std::mem::swap(&mut a, &mut b);
                    }
                }
                kernels::put_buf(a);
                kernels::put_buf(b);
            }
        }
    }

    /// Batched inference: `xs` holds `batch` consecutive input rows;
    /// `out` is refilled with `batch` output rows. Bit-identical to
    /// `batch` looped [`Self::infer_into`] calls (each layer's batched
    /// matmul accumulates in the per-row order — see
    /// [`Dense::infer_batched_into`]); intermediate activations live in
    /// the thread-local scratch pool.
    pub fn infer_batched_into(&self, xs: &[f32], batch: usize, out: &mut Vec<f32>) {
        match self.layers.as_slice() {
            [] => {
                out.clear();
                out.extend_from_slice(xs);
            }
            [only] => only.infer_batched_into(xs, batch, out),
            [first, rest @ ..] => {
                let mut a = kernels::take_buf(0);
                let mut b = kernels::take_buf(0);
                first.infer_batched_into(xs, batch, &mut a);
                for (i, l) in rest.iter().enumerate() {
                    if i == rest.len() - 1 {
                        l.infer_batched_into(&a, batch, out);
                    } else {
                        l.infer_batched_into(&a, batch, &mut b);
                        std::mem::swap(&mut a, &mut b);
                    }
                }
                kernels::put_buf(a);
                kernels::put_buf(b);
            }
        }
    }

    /// Backward pass through all layers; returns dL/dx.
    pub fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        let mut g = grad_out.to_vec();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    /// Apply one optimizer step to every layer.
    pub fn step(&mut self, lr: f32, kind: OptimKind) {
        for l in &mut self.layers {
            l.step(lr, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse, mse_grad};

    #[test]
    fn forward_matches_manual_computation() {
        let mut init = XavierInit::new(0);
        let mut d = Dense::new(2, 1, Activation::Linear, &mut init);
        d.weight.w = vec![2.0, -1.0];
        d.bias.w = vec![0.5];
        let y = d.forward(&[3.0, 4.0]);
        assert!((y[0] - (6.0 - 4.0 + 0.5)).abs() < 1e-6);
    }

    #[test]
    fn backward_gradient_check() {
        // Numerical gradient check on a tiny dense layer.
        let mut init = XavierInit::new(1);
        let mut d = Dense::new(3, 2, Activation::Tanh, &mut init);
        let x = [0.3, -0.7, 0.9];
        let target = [0.2, -0.4];

        let y = d.forward(&x);
        let g = mse_grad(&y, &target);
        d.backward(&g);
        let analytic = d.weight.g.clone();

        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for i in 0..d.weight.w.len() {
            let orig = d.weight.w[i];
            d.weight.w[i] = orig + eps;
            let lp = mse(&d.infer(&x), &target);
            d.weight.w[i] = orig - eps;
            let lm = mse(&d.infer(&x), &target);
            d.weight.w[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 1e-2,
                "weight {i}: analytic {} vs numeric {}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn mlp_learns_xor() {
        let mut init = XavierInit::new(7);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, &mut init);
        let data: [([f32; 2], f32); 4] = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        for _ in 0..3000 {
            for (x, t) in &data {
                let y = mlp.forward(x);
                let g = mse_grad(&y, &[*t]);
                mlp.backward(&g);
            }
            mlp.step(0.05, OptimKind::Adam);
        }
        for (x, t) in &data {
            let y = mlp.infer(x)[0];
            assert!((y - t).abs() < 0.2, "xor({x:?}) = {y}, expected {t}");
        }
    }

    #[test]
    fn activation_grads_consistent() {
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let x = 0.37;
            let y = act.apply(x);
            let eps = 1e-3;
            let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
            assert!((act.grad_from_output(y) - numeric).abs() < 1e-2, "{act:?}");
        }
    }

    #[test]
    fn infer_equals_forward() {
        let mut init = XavierInit::new(9);
        let mut mlp = Mlp::new(&[4, 6, 2], Activation::Relu, Activation::Linear, &mut init);
        let x = [0.1, 0.2, 0.3, 0.4];
        let a = mlp.forward(&x);
        let b = mlp.infer(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn batched_infer_bit_identical_to_looped() {
        let mut init = XavierInit::new(11);
        let mlp = Mlp::new(
            &[5, 9, 4, 2],
            Activation::LeakyRelu,
            Activation::Sigmoid,
            &mut init,
        );
        for batch in [1usize, 2, 3, 7] {
            let xs: Vec<f32> = (0..batch * 5).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut got = Vec::new();
            mlp.infer_batched_into(&xs, batch, &mut got);
            assert_eq!(got.len(), batch * 2);
            for i in 0..batch {
                let want = mlp.infer(&xs[i * 5..(i + 1) * 5]);
                assert_eq!(
                    &got[i * 2..(i + 1) * 2],
                    want.as_slice(),
                    "batch {batch} row {i} diverges"
                );
            }
            // single layers agree too
            let d = &mlp.layers[0];
            let mut ys = Vec::new();
            d.infer_batched_into(&xs, batch, &mut ys);
            for i in 0..batch {
                assert_eq!(&ys[i * 9..(i + 1) * 9], d.infer(&xs[i * 5..(i + 1) * 5]));
            }
        }
    }
}
