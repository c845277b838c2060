//! A deterministic detector-forward surrogate for wall-clock
//! measurement.
//!
//! The reproduction's [`otif_cv::SimDetector`] produces detections and
//! ledger charges analytically — there is no network to run, so the
//! cross-stream [`DetectorBatcher`](../../otif_engine) historically
//! coalesced *accounting* only and "batched" rounds cost exactly as
//! much wall-clock as looped ones. `WindowNet` closes that gap: a small
//! convolutional network (the proxy backbone shape, seeded
//! deterministically from the detector configuration) that is actually
//! executed once per detector window, either looped per stream or as
//! one genuinely batched forward per same-size chunk of a batcher
//! round. Its outputs never influence detections or simulated charges —
//! they exist so that batched-vs-looped wall-clock is measurable and so
//! the bitwise-equality contract between the two execution paths is
//! testable end to end (via [`digest_tensor`] folds).

use otif_cv::DetectorConfig;
use otif_geom::Rect;
use otif_nn::kernels;
use otif_nn::{Activation, BatchTensor3, Conv2d, KernelPath, Tensor3, XavierInit};
use otif_sim::Renderer;

/// Surrogate input side length bounds: window crops are resampled to
/// `window_size × detector_scale`, clamped per dimension to this range
/// (real detectors letterbox windows to a fixed input; the clamp keeps
/// debug-build test runs fast while leaving every production shape
/// distinct).
const INPUT_MIN: usize = 8;
/// Upper clamp for surrogate input dimensions.
const INPUT_MAX: usize = 96;

/// FNV-1a offset basis — the seed of every digest fold.
pub const DIGEST_SEED: u64 = 0xcbf29ce484222325;
const DIGEST_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a tensor's `f32` bit patterns (shape included), so two
/// tensors digest equal iff they are bitwise identical.
pub fn digest_tensor(t: &Tensor3) -> u64 {
    let mut h = DIGEST_SEED;
    for dim in [t.c as u64, t.h as u64, t.w as u64] {
        h = fold_digest(h, dim);
    }
    for v in &t.data {
        h = fold_digest(h, v.to_bits() as u64);
    }
    h
}

/// Fold one 64-bit word into a running FNV-1a digest.
pub fn fold_digest(acc: u64, word: u64) -> u64 {
    let mut h = acc;
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(DIGEST_PRIME);
    }
    h
}

/// FNV-1a 64-bit over a byte slice — stable across runs and platforms.
/// Shared by every content fingerprint in the system (store payloads,
/// journal records, run checkpoints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = DIGEST_SEED;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(DIGEST_PRIME);
    }
    h
}

/// The surrogate network: the five-layer strided encoder + 1×1 decoder
/// stack of the segmentation proxy, run at per-window input shapes.
/// Weights are Xavier-initialized from a seed derived from the detector
/// configuration and the run's detector seed, so every stream (and both
/// execution paths) holds bitwise-identical parameters.
#[derive(Debug, Clone)]
pub struct WindowNet {
    layers: Vec<Conv2d>,
    /// Detector input scale (fraction of native resolution per linear
    /// dimension) — the same scale the cost model charges for.
    pub scale: f32,
}

impl WindowNet {
    /// Build the surrogate for a detector configuration.
    pub fn new(config: &DetectorConfig, detector_seed: u64) -> Self {
        // decorrelate from other consumers of detector_seed without
        // depending on anything non-deterministic
        let arch_salt = config
            .arch
            .name()
            .bytes()
            .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64));
        let mut init = XavierInit::new(
            detector_seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(arch_salt),
        );
        let chans = [1usize, 3, 6, 6, 8, 8];
        let mut layers: Vec<Conv2d> = (0..5)
            .map(|i| {
                Conv2d::new(
                    chans[i],
                    chans[i + 1],
                    3,
                    2,
                    1,
                    Activation::LeakyRelu,
                    &mut init,
                )
            })
            .collect();
        layers.push(Conv2d::new(8, 6, 1, 1, 0, Activation::LeakyRelu, &mut init));
        layers.push(Conv2d::new(6, 1, 1, 1, 0, Activation::Linear, &mut init));
        WindowNet {
            layers,
            scale: config.scale,
        }
    }

    /// Surrogate input dimensions `(w, h)` for a rounded window size.
    /// Deterministic in the rounded size alone, so the looped and
    /// batched paths — and every stream — agree on the shape.
    pub fn input_dims(&self, rounded: (u32, u32)) -> (usize, usize) {
        let d = |v: u32| ((v as f32 * self.scale).round() as usize).clamp(INPUT_MIN, INPUT_MAX);
        (d(rounded.0), d(rounded.1))
    }

    /// Render the window's crop at the surrogate input resolution and
    /// wrap it as a single-channel tensor.
    pub fn materialize(
        &self,
        renderer: &Renderer,
        frame: usize,
        window: &Rect,
        rounded: (u32, u32),
    ) -> Tensor3 {
        let (iw, ih) = self.input_dims(rounded);
        let img = renderer.render_region(frame, window.x, window.y, window.w, window.h, iw, ih);
        Tensor3::from_vec(1, ih, iw, img.data)
    }

    /// Looped forward of one window input (Auto kernel path), into a
    /// caller-owned tensor; scratch-pooled intermediates. The first layer
    /// reads `x` in place.
    pub fn forward_into(&self, x: &Tensor3, out: &mut Tensor3) {
        let mut a = Tensor3 {
            c: 0,
            h: 0,
            w: 0,
            data: kernels::take_buf(0),
        };
        let mut b = Tensor3 {
            c: 0,
            h: 0,
            w: 0,
            data: kernels::take_buf(0),
        };
        let (first, rest) = self.layers.split_first().expect("an encoder layer");
        first.infer_path_into(x, &mut a, KernelPath::Auto);
        for l in rest {
            l.infer_path_into(&a, &mut b, KernelPath::Auto);
            std::mem::swap(&mut a, &mut b);
        }
        out.reset(a.c, a.h, a.w);
        out.data.copy_from_slice(&a.data);
        kernels::put_buf(a.data);
        kernels::put_buf(b.data);
    }

    /// Batched forward over same-shape window inputs: one im2col + one
    /// cache-blocked GEMM per layer for the whole stack, bit-identical
    /// to looping [`Self::forward_into`] — the batched kernels
    /// accumulate per element in exactly the per-item order, and every
    /// kernel path is bit-identical, so the batched `Auto` dispatcher
    /// (which weighs the *stacked* problem size) cannot perturb bits.
    /// The first layer reads each input in place.
    pub fn forward_batched(&self, xs: &[&Tensor3]) -> Vec<Tensor3> {
        let Some(x0) = xs.first() else {
            return Vec::new();
        };
        for x in xs {
            assert_eq!((x.c, x.h, x.w), (x0.c, x0.h, x0.w), "window input shapes");
        }
        let mut a = BatchTensor3 {
            n: 0,
            c: 0,
            h: 0,
            w: 0,
            data: kernels::take_buf(0),
        };
        let mut b = BatchTensor3 {
            n: 0,
            c: 0,
            h: 0,
            w: 0,
            data: kernels::take_buf(0),
        };
        let item = |i: usize| xs[i].data.as_slice();
        let (first, rest) = self.layers.split_first().expect("an encoder layer");
        first.infer_items_into(&item, xs.len(), (x0.h, x0.w), &mut a, KernelPath::Auto);
        for l in rest {
            l.infer_batched_path_into(&a, &mut b, KernelPath::Auto);
            std::mem::swap(&mut a, &mut b);
        }
        let mut outs = Vec::with_capacity(xs.len());
        for i in 0..a.n {
            let mut t = Tensor3::zeros(0, 0, 0);
            a.item_into(i, &mut t);
            outs.push(t);
        }
        kernels::put_buf(a.data);
        kernels::put_buf(b.data);
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_cv::DetectorArch;

    fn net() -> WindowNet {
        WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 7)
    }

    #[test]
    fn input_dims_scale_and_clamp() {
        let n = net();
        assert_eq!(n.input_dims((64, 64)), (32, 32));
        assert_eq!(n.input_dims((8, 8)), (INPUT_MIN, INPUT_MIN));
        assert_eq!(n.input_dims((4000, 64)), (INPUT_MAX, 32));
    }

    #[test]
    fn construction_is_deterministic_and_seeded() {
        let cfg = DetectorConfig::new(DetectorArch::YoloV3, 0.5);
        let a = WindowNet::new(&cfg, 7);
        let b = WindowNet::new(&cfg, 7);
        let c = WindowNet::new(&cfg, 8);
        let m = WindowNet::new(&DetectorConfig::new(DetectorArch::MaskRcnn, 0.5), 7);
        assert_eq!(a.layers[0].weight.w, b.layers[0].weight.w);
        assert_ne!(a.layers[0].weight.w, c.layers[0].weight.w);
        assert_ne!(a.layers[0].weight.w, m.layers[0].weight.w);
    }

    #[test]
    fn batched_forward_bit_identical_to_looped() {
        let n = net();
        let mut xs = Vec::new();
        for i in 0..4u32 {
            let mut t = Tensor3::zeros(1, 24, 32);
            for (j, v) in t.data.iter_mut().enumerate() {
                *v = ((j as f32 * 0.11 + i as f32).cos() + 1.0) * 0.5;
            }
            xs.push(t);
        }
        let refs: Vec<&Tensor3> = xs.iter().collect();
        let batched = n.forward_batched(&refs);
        let mut want = Tensor3::zeros(0, 0, 0);
        for (i, x) in xs.iter().enumerate() {
            n.forward_into(x, &mut want);
            assert_eq!(batched[i].data, want.data, "window {i} diverges");
            assert_eq!(digest_tensor(&batched[i]), digest_tensor(&want));
        }
    }

    #[test]
    fn digest_distinguishes_bit_changes() {
        let a = Tensor3::from_vec(1, 1, 2, vec![1.0, 2.0]);
        let mut b = a.clone();
        assert_eq!(digest_tensor(&a), digest_tensor(&b));
        b.data[1] = f32::from_bits(b.data[1].to_bits() ^ 1);
        assert_ne!(digest_tensor(&a), digest_tensor(&b));
        // shape participates
        let c = Tensor3::from_vec(2, 1, 1, vec![1.0, 2.0]);
        assert_ne!(digest_tensor(&a), digest_tensor(&c));
    }
}
