//! Strided 2-D convolution with explicit backprop.
//!
//! The segmentation proxy model (§3.3) is "a five-layer encoder followed by
//! a two-layer decoder" of strided convolutions producing one score per
//! 32×32 input cell. This module provides the conv layer that network is
//! assembled from.
//!
//! The forward/inference pass dispatches through [`crate::kernels`]: an
//! im2col + cache-blocked GEMM path for real problem sizes, the plain
//! nested loops for tiny shapes (and as the reference oracle). Both
//! paths are bit-identical — see the kernels module docs — so path
//! selection never perturbs training.
//!
//! The backward pass runs on the same CPUID-chosen kernel tiers
//! ([`kernels::conv2d_backward_on`]) and is bit-identical to the scalar
//! scatter loop it replaced, kept as [`Conv2d::backward_reference`]:
//! every kernel, bias and input gradient adds the same terms in the same
//! order, each a separate multiply then add. The tiers add the terms
//! the loop skips (`d == 0`, padding taps) as exact `±0` products, which
//! changes no bits (see the `kernels::backward` docs).
//! [`Conv2d::backward_params`] skips dL/dx for a first layer, whose
//! input is data.

use crate::kernels::{self, ConvGrads, ConvShape, KernelPath, KernelTier};
use crate::tensor::BatchTensor3;
use crate::{Activation, OptimKind, Param, Tensor3, XavierInit};
use serde::{Deserialize, Serialize};

/// A 2-D convolution layer with square kernel, stride and zero padding,
/// followed by an activation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Square kernel side.
    pub ksize: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
    /// Activation applied to the outputs.
    pub act: Activation,
    /// Kernel weights, laid out `[out_ch][in_ch][ky][kx]`.
    pub weight: Param,
    /// Per-output-channel biases.
    pub bias: Param,
    last_input: Option<Tensor3>,
    last_output: Option<Tensor3>,
}

impl Conv2d {
    /// Build a layer with Xavier-initialized kernels.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
        stride: usize,
        pad: usize,
        act: Activation,
        init: &mut XavierInit,
    ) -> Self {
        let fan_in = in_ch * ksize * ksize;
        let fan_out = out_ch * ksize * ksize;
        Conv2d {
            in_ch,
            out_ch,
            ksize,
            stride,
            pad,
            act,
            weight: Param::new(init.sample(out_ch * in_ch * ksize * ksize, fan_in, fan_out)),
            bias: Param::zeros(out_ch),
            last_input: None,
            last_output: None,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        self.shape().out_size(h, w)
    }

    /// The static kernel-layer shape of this layer.
    pub fn shape(&self) -> ConvShape {
        ConvShape {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            ksize: self.ksize,
            stride: self.stride,
            pad: self.pad,
        }
    }

    #[inline]
    fn widx(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_ch + ic) * self.ksize + ky) * self.ksize + kx
    }

    fn conv_forward_into(&self, x: &Tensor3, out: &mut Tensor3, path: KernelPath) {
        assert_eq!(x.c, self.in_ch);
        self.infer_data_into(&x.data, (x.h, x.w), out, path);
    }

    /// [`Self::infer_path_into`] on an input given as its `in_ch × h × w`
    /// values (see [`kernels::conv2d_data`]).
    pub fn infer_data_into(
        &self,
        x: &[f32],
        (h, w): (usize, usize),
        out: &mut Tensor3,
        path: KernelPath,
    ) {
        let (oh, ow) = self.out_size(h, w);
        // Every kernel path overwrites the whole output.
        out.reset_unzeroed(self.out_ch, oh, ow);
        kernels::conv2d_data(
            &self.shape(),
            &self.weight.w,
            &self.bias.w,
            x,
            (h, w),
            out,
            path,
        );
        let act = self.act;
        out.map_inplace(|v| act.apply(v));
    }

    fn conv_forward(&self, x: &Tensor3) -> Tensor3 {
        let mut out = Tensor3::zeros(0, 0, 0);
        self.conv_forward_into(x, &mut out, KernelPath::Auto);
        out
    }

    /// Forward pass caching tensors for `backward`.
    pub fn forward(&mut self, x: &Tensor3) -> Tensor3 {
        let out = self.conv_forward(x);
        self.last_input = Some(x.clone());
        self.last_output = Some(out.clone());
        out
    }

    /// Inference-only forward (no caches touched).
    pub fn infer(&self, x: &Tensor3) -> Tensor3 {
        self.conv_forward(x)
    }

    /// Inference into a caller-owned output tensor (resized in place):
    /// together with the scratch-pooled im2col matrix this performs zero
    /// heap allocations after warm-up.
    pub fn infer_into(&self, x: &Tensor3, out: &mut Tensor3) {
        self.conv_forward_into(x, out, KernelPath::Auto);
    }

    /// Inference through a forced kernel path (bench/oracle use).
    pub fn infer_path(&self, x: &Tensor3, path: KernelPath) -> Tensor3 {
        let mut out = Tensor3::zeros(0, 0, 0);
        self.conv_forward_into(x, &mut out, path);
        out
    }

    /// [`Self::infer_path`] into a caller-owned output tensor.
    pub fn infer_path_into(&self, x: &Tensor3, out: &mut Tensor3, path: KernelPath) {
        self.conv_forward_into(x, out, path);
    }

    /// Batched inference over `x.n` same-shape items: one im2col + one
    /// GEMM for the whole batch (see [`kernels::conv2d_gemm_batched`]),
    /// bit-identical to `x.n` [`Self::infer_into`] calls. `out` is
    /// resized in place; the path dispatches per-item problem size.
    pub fn infer_batched_into(&self, x: &BatchTensor3, out: &mut BatchTensor3) {
        self.infer_batched_path_into(x, out, KernelPath::Auto);
    }

    /// [`Self::infer_batched_into`] through a forced kernel path.
    pub fn infer_batched_path_into(
        &self,
        x: &BatchTensor3,
        out: &mut BatchTensor3,
        path: KernelPath,
    ) {
        assert_eq!(x.c, self.in_ch);
        let (oh, ow) = self.out_size(x.h, x.w);
        out.reset_unzeroed(x.n, self.out_ch, oh, ow);
        kernels::conv2d_batched(&self.shape(), &self.weight.w, &self.bias.w, x, out, path);
        let act = self.act;
        out.data.iter_mut().for_each(|v| *v = act.apply(*v));
    }

    /// [`Self::infer_batched_path_into`] over `n` inputs given as item
    /// `i`'s `in_ch × h × w` values, `item(i)` (see
    /// [`kernels::conv2d_items`]).
    pub fn infer_items_into<'a>(
        &self,
        item: &'a dyn Fn(usize) -> &'a [f32],
        n: usize,
        (h, w): (usize, usize),
        out: &mut BatchTensor3,
        path: KernelPath,
    ) {
        let (oh, ow) = self.out_size(h, w);
        out.reset_unzeroed(n, self.out_ch, oh, ow);
        let shape = self.shape();
        kernels::conv2d_items(
            &shape,
            &self.weight.w,
            &self.bias.w,
            item,
            n,
            (h, w),
            out,
            path,
        );
        let act = self.act;
        out.data.iter_mut().for_each(|v| *v = act.apply(*v));
    }

    /// Backward pass: accumulate kernel/bias gradients, return dL/dx.
    /// Runs on the fastest kernel tier this CPU runs
    /// ([`KernelTier::detect`]), bit-identical to
    /// [`Self::backward_reference`].
    pub fn backward(&mut self, grad_out: &Tensor3) -> Tensor3 {
        let x = self.last_input.as_ref().expect("forward before backward");
        let mut grad_in = Tensor3::zeros(x.c, x.h, x.w);
        self.backward_on(KernelTier::detect(), grad_out, Some(&mut grad_in));
        grad_in
    }

    /// [`Self::backward`] without dL/dx, for a first layer whose input
    /// is data: only the kernel and bias gradients are accumulated.
    pub fn backward_params(&mut self, grad_out: &Tensor3) {
        self.backward_on(KernelTier::detect(), grad_out, None);
    }

    /// [`Self::backward`] on `tier`, writing dL/dx into `grad_in` (which
    /// must be shaped like the cached input) when given.
    ///
    /// # Panics
    /// Before a `forward`, on a shape mismatch, or if this CPU does not
    /// run `tier`.
    pub fn backward_on(
        &mut self,
        tier: KernelTier,
        grad_out: &Tensor3,
        grad_in: Option<&mut Tensor3>,
    ) {
        let x = self.last_input.as_ref().expect("forward before backward");
        let y = self.last_output.as_ref().unwrap();
        assert_eq!(
            (grad_out.c, grad_out.h, grad_out.w),
            (y.c, y.h, y.w),
            "output gradient shape"
        );
        let act = self.act;
        let d: Vec<f32> = (grad_out.data.iter().zip(&y.data))
            .map(|(&g, &yv)| g * act.grad_from_output(yv))
            .collect();
        let input = grad_in.map(|t| {
            assert_eq!((t.c, t.h, t.w), (x.c, x.h, x.w), "input gradient shape");
            t.data.as_mut_slice()
        });
        kernels::conv2d_backward_on(
            tier,
            &self.shape(),
            &self.weight.w,
            &x.data,
            (x.h, x.w),
            &d,
            ConvGrads {
                weight: &mut self.weight.g,
                bias: &mut self.bias.g,
                input,
            },
        );
    }

    /// The scalar scatter loop the tiered backward pass reproduces bit
    /// for bit: the oracle of the `otif-nn` equivalence tests and the
    /// baseline of the `kernels` bench.
    pub fn backward_reference(&mut self, grad_out: &Tensor3) -> Tensor3 {
        let x = self.last_input.as_ref().expect("forward before backward");
        let y = self.last_output.as_ref().unwrap();
        assert_eq!(grad_out.c, self.out_ch);
        let mut grad_in = Tensor3::zeros(x.c, x.h, x.w);
        for oc in 0..self.out_ch {
            for oy in 0..grad_out.h {
                for ox in 0..grad_out.w {
                    let d = grad_out.get(oc, oy, ox) * self.act.grad_from_output(y.get(oc, oy, ox));
                    if d == 0.0 {
                        continue;
                    }
                    self.bias.g[oc] += d;
                    let iy0 = (oy * self.stride) as isize - self.pad as isize;
                    let ix0 = (ox * self.stride) as isize - self.pad as isize;
                    for ic in 0..self.in_ch {
                        for ky in 0..self.ksize {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= x.h as isize {
                                continue;
                            }
                            for kx in 0..self.ksize {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= x.w as isize {
                                    continue;
                                }
                                let wi = self.widx(oc, ic, ky, kx);
                                self.weight.g[wi] += d * x.get(ic, iy as usize, ix as usize);
                                grad_in.add_at(ic, iy as usize, ix as usize, d * self.weight.w[wi]);
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// Apply one optimizer step to kernels and biases.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_size_strided() {
        let mut init = XavierInit::new(0);
        let c = Conv2d::new(1, 1, 3, 2, 1, Activation::Linear, &mut init);
        // (h + 2p - k)/s + 1 = (8 + 2 - 3)/2 + 1 = 4
        assert_eq!(c.out_size(8, 8), (4, 4));
        assert_eq!(c.out_size(16, 8), (8, 4));
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut init = XavierInit::new(0);
        let mut c = Conv2d::new(1, 1, 1, 1, 0, Activation::Linear, &mut init);
        c.weight.w = vec![1.0];
        c.bias.w = vec![0.0];
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x);
        assert_eq!(y.data, x.data);
    }

    #[test]
    fn box_filter_sums_window() {
        let mut init = XavierInit::new(0);
        let mut c = Conv2d::new(1, 1, 2, 2, 0, Activation::Linear, &mut init);
        c.weight.w = vec![1.0; 4];
        c.bias.w = vec![0.0];
        let x = Tensor3::from_vec(1, 2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let y = c.forward(&x);
        assert_eq!(y.h, 1);
        assert_eq!(y.w, 2);
        assert_eq!(y.data, vec![14.0, 22.0]); // 1+2+5+6, 3+4+7+8
    }

    #[test]
    fn forced_paths_agree_at_proxy_shape() {
        // The first proxy encoder layer at the half-resolution input:
        // big enough that Auto picks GEMM.
        let mut init = XavierInit::new(5);
        let c = Conv2d::new(1, 3, 3, 2, 1, Activation::LeakyRelu, &mut init);
        let x = Tensor3::from_vec(
            1,
            96,
            192,
            (0..96 * 192)
                .map(|i| ((i * 37 % 97) as f32) / 97.0)
                .collect(),
        );
        let naive = c.infer_path(&x, KernelPath::Naive);
        let gemm = c.infer_path(&x, KernelPath::Gemm);
        assert_eq!(naive.data, gemm.data);
        assert_eq!(c.infer(&x).data, gemm.data, "Auto must match the oracle");
        let mut reused = Tensor3::zeros(0, 0, 0);
        c.infer_into(&x, &mut reused);
        assert_eq!(reused.data, gemm.data);
    }

    #[test]
    fn stale_outputs_are_fully_overwritten() {
        // The output is resized without a zero pass, so every path must
        // write every element: a NaN left behind would show in the bits.
        // Shapes cover the naive loops, im2col + GEMM, the 1×1 layer that
        // skips im2col, and the dispatched tier's stride-2 kernels (direct
        // tiles, and the gather table for narrow rows).
        let shapes = [
            (1, 3, 3, 2, 1, 24, 40),
            (3, 8, 3, 2, 1, 24, 40),
            (8, 8, 3, 2, 1, 6, 6),
            (4, 6, 3, 1, 1, 16, 12),
            (8, 5, 1, 1, 0, 9, 11),
            (2, 2, 3, 1, 1, 3, 3),
        ];
        for (seed, &(in_ch, out_ch, k, stride, pad, h, w)) in shapes.iter().enumerate() {
            let mut init = XavierInit::new(seed as u64);
            let mut c = Conv2d::new(
                in_ch,
                out_ch,
                k,
                stride,
                pad,
                Activation::LeakyRelu,
                &mut init,
            );
            c.bias.w = (0..out_ch).map(|o| o as f32 * 0.1 - 0.2).collect();
            let items: Vec<Tensor3> = (0..3)
                .map(|i| {
                    let data = (0..in_ch * h * w)
                        .map(|j| (((j * 31 + i * 17) % 53) as f32) / 53.0 - 0.4)
                        .collect();
                    Tensor3::from_vec(in_ch, h, w, data)
                })
                .collect();
            let (oh, ow) = c.out_size(h, w);
            let expected: Vec<Vec<u32>> = items
                .iter()
                .map(|x| {
                    let mut y = Tensor3::zeros(out_ch, oh, ow);
                    kernels::conv2d_naive(&c.shape(), &c.weight.w, &c.bias.w, x, &mut y);
                    y.data.iter().map(|v| c.act.apply(*v).to_bits()).collect()
                })
                .collect();
            for path in [KernelPath::Auto, KernelPath::Naive, KernelPath::Gemm] {
                for (x, want) in items.iter().zip(&expected) {
                    let mut out =
                        Tensor3::from_vec(out_ch, oh, ow, vec![f32::NAN; out_ch * oh * ow]);
                    c.infer_path_into(x, &mut out, path);
                    let got: Vec<u32> = out.data.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        &got, want,
                        "{path:?} {in_ch}→{out_ch} k{k}s{stride} {h}×{w}"
                    );
                }
                let refs: Vec<&Tensor3> = items.iter().collect();
                let mut out = BatchTensor3::zeros(items.len(), out_ch, oh, ow);
                out.data.fill(f32::NAN);
                c.infer_batched_path_into(&BatchTensor3::from_items(&refs), &mut out, path);
                let mut item = Tensor3::zeros(0, 0, 0);
                for (i, want) in expected.iter().enumerate() {
                    out.item_into(i, &mut item);
                    let got: Vec<u32> = item.data.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        &got, want,
                        "batched {path:?} {in_ch}→{out_ch} k{k}s{stride} {h}×{w}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_check_small_conv() {
        let mut init = XavierInit::new(3);
        let mut c = Conv2d::new(2, 2, 3, 2, 1, Activation::Tanh, &mut init);
        let x = Tensor3::from_vec(
            2,
            4,
            4,
            (0..32)
                .map(|i| ((i * 7 % 13) as f32 - 6.0) / 10.0)
                .collect(),
        );
        let y = c.forward(&x);
        // loss = 0.5 * sum(y^2); dL/dy = y
        let gy = Tensor3::from_vec(y.c, y.h, y.w, y.data.clone());
        c.backward(&gy);
        let analytic = c.weight.g.clone();
        let loss =
            |c: &Conv2d, x: &Tensor3| -> f32 { c.infer(x).data.iter().map(|v| 0.5 * v * v).sum() };
        let eps = 1e-3;
        for i in (0..c.weight.w.len()).step_by(5) {
            let orig = c.weight.w[i];
            c.weight.w[i] = orig + eps;
            let lp = loss(&c, &x);
            c.weight.w[i] = orig - eps;
            let lm = loss(&c, &x);
            c.weight.w[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 2e-2,
                "w[{i}]: analytic {} numeric {}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut init = XavierInit::new(4);
        let mut c = Conv2d::new(1, 2, 3, 1, 1, Activation::Sigmoid, &mut init);
        let x = Tensor3::from_vec(1, 3, 3, (0..9).map(|i| i as f32 / 10.0).collect());
        let y = c.forward(&x);
        let gy = Tensor3::from_vec(y.c, y.h, y.w, vec![1.0; y.len()]);
        let gx = c.backward(&gy);
        let loss = |c: &Conv2d, x: &Tensor3| -> f32 { c.infer(x).data.iter().sum() };
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let numeric = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
            assert!(
                (gx.data[i] - numeric).abs() < 1e-2,
                "x[{i}]: analytic {} numeric {}",
                gx.data[i],
                numeric
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_segmentation_toy() {
        // Teach a 2-layer conv net to mark bright cells: a miniature version
        // of the segmentation proxy task.
        let mut init = XavierInit::new(11);
        let mut l1 = Conv2d::new(1, 4, 3, 2, 1, Activation::Relu, &mut init);
        let mut l2 = Conv2d::new(4, 1, 3, 2, 1, Activation::Linear, &mut init);
        // 8x8 input -> 4x4 -> 2x2 logits
        let make_example = |on: [bool; 4]| -> (Tensor3, Vec<f32>) {
            let mut x = Tensor3::zeros(1, 8, 8);
            for (q, &o) in on.iter().enumerate() {
                if o {
                    let (qy, qx) = (q / 2 * 4, q % 2 * 4);
                    for y in 0..4 {
                        for x_ in 0..4 {
                            x.set(0, qy + y, qx + x_, 1.0);
                        }
                    }
                }
            }
            let t = on.iter().map(|&o| if o { 1.0 } else { 0.0 }).collect();
            (x, t)
        };
        let examples: Vec<_> = (0..16u32)
            .map(|m| make_example([m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0]))
            .collect();
        let loss_of = |l1: &Conv2d, l2: &Conv2d| -> f32 {
            examples
                .iter()
                .map(|(x, t)| crate::bce_with_logits(&l2.infer(&l1.infer(x)).data, t))
                .sum::<f32>()
                / examples.len() as f32
        };
        let before = loss_of(&l1, &l2);
        for _ in 0..60 {
            for (x, t) in &examples {
                let h = l1.forward(x);
                let logits = l2.forward(&h);
                let g = crate::bce_with_logits_grad(&logits.data, t);
                let gt = Tensor3::from_vec(logits.c, logits.h, logits.w, g);
                let gh = l2.backward(&gt);
                l1.backward(&gh);
            }
            l1.step(0.05, OptimKind::Adam);
            l2.step(0.05, OptimKind::Adam);
        }
        let after = loss_of(&l1, &l2);
        assert!(
            after < before * 0.3,
            "loss did not drop: before {before}, after {after}"
        );
    }
}
