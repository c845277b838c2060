//! The segmentation proxy model (§3.3).
//!
//! A small segmentation CNN scores each 32×32 cell of the native frame
//! with the likelihood that it intersects an object detection. The model
//! runs at a reduced input resolution (one of [`PROXY_SCALES`], each a
//! separately trained model); its output grid is upsampled to the native
//! cell grid before thresholding and window grouping.
//!
//! Architecture follows the paper: a five-layer strided-convolution
//! encoder producing features at 1/32 of the input resolution, then a
//! two-layer 1×1 decoder emitting one logit per cell.
//!
//! Training labels come from detections computed by the best-accuracy
//! configuration θ_best over the training split: a cell's label is 1 iff
//! it intersects some θ_best detection.

use otif_cv::{Component, CostLedger, CostModel, Detection};
use otif_nn::kernels;
use otif_nn::{Activation, BatchTensor3, Conv2d, KernelPath, OptimKind, Tensor3, XavierInit};
use otif_sim::{Clip, GrayImage, Renderer};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Proxy input resolutions as fractions of the native resolution (5
/// trained models, as in the paper's implementation).
pub const PROXY_SCALES: [f32; 5] = [1.0, 0.75, 0.5, 0.375, 0.25];

/// A thresholded or raw score grid over the native 32×32 cell lattice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellGrid {
    /// Cells horizontally.
    pub cols: usize,
    /// Cells vertically.
    pub rows: usize,
    /// Row-major per-cell scores.
    pub scores: Vec<f32>,
}

impl CellGrid {
    /// All-zero grid.
    pub fn zeros(cols: usize, rows: usize) -> Self {
        CellGrid {
            cols,
            rows,
            scores: vec![0.0; cols * rows],
        }
    }

    #[inline]
    /// Score of cell (cx, cy).
    pub fn get(&self, cx: usize, cy: usize) -> f32 {
        self.scores[cy * self.cols + cx]
    }

    #[inline]
    /// Set the score of cell (cx, cy).
    pub fn set(&mut self, cx: usize, cy: usize, v: f32) {
        self.scores[cy * self.cols + cx] = v;
    }

    /// Indices of cells whose score exceeds `threshold`.
    pub fn positive_cells(&self, threshold: f32) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for cy in 0..self.rows {
            for cx in 0..self.cols {
                if self.get(cx, cy) > threshold {
                    out.push((cx, cy));
                }
            }
        }
        out
    }

    /// Ground-truth-style grid from a set of detections: 1 for every cell
    /// intersecting a detection rectangle (native coordinates).
    pub fn from_detections(cols: usize, rows: usize, dets: &[Detection]) -> CellGrid {
        let mut g = CellGrid::zeros(cols, rows);
        for d in dets {
            let cx0 = (d.rect.x / 32.0).floor().max(0.0) as usize;
            let cy0 = (d.rect.y / 32.0).floor().max(0.0) as usize;
            let cx1 = ((d.rect.x1() / 32.0).ceil() as usize).min(cols);
            let cy1 = ((d.rect.y1() / 32.0).ceil() as usize).min(rows);
            for cy in cy0..cy1 {
                for cx in cx0..cx1 {
                    g.set(cx, cy, 1.0);
                }
            }
        }
        g
    }
}

/// The trainable segmentation proxy network for one input resolution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegProxyModel {
    /// Input width/height in pixels (multiples of 32).
    pub in_w: usize,
    /// Input height in pixels (multiple of 32).
    pub in_h: usize,
    /// Native frame dimensions (for upsampling the output grid).
    pub native_w: usize,
    /// Native frame height (for upsampling the output grid).
    pub native_h: usize,
    encoder: Vec<Conv2d>,
    decoder: Vec<Conv2d>,
}

/// Round `native * scale` down to a multiple of 32 (min 32).
pub fn proxy_input_dims(native_w: usize, native_h: usize, scale: f32) -> (usize, usize) {
    let r = |v: usize| (((v as f32 * scale) as usize / 32).max(1)) * 32;
    (r(native_w), r(native_h))
}

impl SegProxyModel {
    /// Initialize an untrained proxy for `native x scale` input.
    pub fn new(native_w: usize, native_h: usize, scale: f32, seed: u64) -> Self {
        let (in_w, in_h) = proxy_input_dims(native_w, native_h, scale);
        let mut init = XavierInit::new(seed);
        let chans = [1usize, 3, 6, 6, 8, 8];
        let encoder = (0..5)
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
        let decoder = vec![
            Conv2d::new(8, 6, 1, 1, 0, Activation::LeakyRelu, &mut init),
            Conv2d::new(6, 1, 1, 1, 0, Activation::Linear, &mut init),
        ];
        SegProxyModel {
            in_w,
            in_h,
            native_w,
            native_h,
            encoder,
            decoder,
        }
    }

    /// Output grid dimensions (input / 32).
    pub fn out_dims(&self) -> (usize, usize) {
        (self.in_w / 32, self.in_h / 32)
    }

    /// Native cell-grid dimensions.
    pub fn native_cells(&self) -> (usize, usize) {
        (self.native_w / 32, self.native_h / 32)
    }

    /// The encoder layers, then the decoder layers.
    pub fn layers(&self) -> impl Iterator<Item = &Conv2d> {
        self.encoder.iter().chain(&self.decoder)
    }

    fn to_tensor(&self, img: &GrayImage) -> Tensor3 {
        debug_assert_eq!((img.w, img.h), (self.in_w, self.in_h));
        Tensor3::from_vec(1, self.in_h, self.in_w, img.data.clone())
    }

    /// Forward pass to pre-sigmoid cell logits, written into a
    /// caller-owned tensor. Layer activations ping-pong between two
    /// scratch-pooled tensors, so the whole pass performs zero heap
    /// allocations after warm-up. `path` forces a convolution kernel
    /// path ([`KernelPath::Auto`] for production use; the kernels
    /// micro-bench forces `Naive`/`Gemm` to time them against each
    /// other).
    pub fn infer_logits_into(&self, img: &GrayImage, path: KernelPath, out: &mut Tensor3) {
        debug_assert_eq!((img.w, img.h), (self.in_w, self.in_h));
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
        // the first layer reads the image's pixels in place
        let (first, rest) = self.encoder.split_first().expect("an encoder layer");
        first.infer_data_into(&img.data, (self.in_h, self.in_w), &mut a, path);
        for l in rest.iter().chain(self.decoder.iter()) {
            l.infer_path_into(&a, &mut b, path);
            std::mem::swap(&mut a, &mut b);
        }
        out.reset(a.c, a.h, a.w);
        out.data.copy_from_slice(&a.data);
        kernels::put_buf(a.data);
        kernels::put_buf(b.data);
    }

    /// Batched forward to pre-sigmoid logits for several same-size input
    /// frames at once: each layer runs **one** batched convolution over
    /// the whole stack (one im2col, one cache-blocked GEMM with the
    /// batch folded into the column dimension — see
    /// [`otif_nn::kernels::conv2d_gemm_batched`]), so the weights stream
    /// through cache once per batch instead of once per frame. The first
    /// layer reads each frame's pixels in place.
    /// Bit-identical to looping [`Self::infer_logits_into`] over the
    /// frames; activations ping-pong between two scratch-pooled batch
    /// tensors, zero heap allocations after warm-up.
    pub fn infer_logits_batched_into(
        &self,
        imgs: &[&GrayImage],
        path: KernelPath,
        out: &mut BatchTensor3,
    ) {
        let n = imgs.len();
        if n == 0 {
            out.reset(0, 1, 0, 0);
            return;
        }
        for img in imgs {
            debug_assert_eq!((img.w, img.h), (self.in_w, self.in_h));
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
        let item = |i: usize| imgs[i].data.as_slice();
        let (first, rest) = self.encoder.split_first().expect("an encoder layer");
        first.infer_items_into(&item, n, (self.in_h, self.in_w), &mut a, path);
        for l in rest.iter().chain(self.decoder.iter()) {
            l.infer_batched_path_into(&a, &mut b, path);
            std::mem::swap(&mut a, &mut b);
        }
        out.reset(a.n, a.c, a.h, a.w);
        out.data.copy_from_slice(&a.data);
        kernels::put_buf(a.data);
        kernels::put_buf(b.data);
    }

    /// Simulated GPU cost of one inference.
    pub fn inference_cost(&self, model: &CostModel) -> f64 {
        model.proxy_per_call + (self.in_w * self.in_h) as f64 * model.proxy_per_px
    }

    /// Score the native cell grid from an input-resolution frame, charging
    /// the ledger. Scores are sigmoid probabilities; the coarse output
    /// grid is nearest-neighbour upsampled to the native cell lattice.
    pub fn score_cells(&self, img: &GrayImage, cost: &CostModel, ledger: &CostLedger) -> CellGrid {
        ledger.charge(Component::Proxy, self.inference_cost(cost));
        let mut logits = Tensor3 {
            c: 0,
            h: 0,
            w: 0,
            data: kernels::take_buf(0),
        };
        self.infer_logits_into(img, KernelPath::Auto, &mut logits);
        let (nc, nr) = self.native_cells();
        let mut grid = CellGrid::zeros(nc, nr);
        for cy in 0..nr {
            let sy = ((cy * logits.h) / nr).min(logits.h - 1);
            for cx in 0..nc {
                let sx = ((cx * logits.w) / nc).min(logits.w - 1);
                grid.set(cx, cy, otif_nn::sigmoid(logits.get(0, sy, sx)));
            }
        }
        kernels::put_buf(logits.data);
        grid
    }

    /// One training step on a single frame; returns the BCE loss.
    fn train_step(&mut self, img: &GrayImage, label: &CellGrid, lr: f32) -> f32 {
        let mut t = self.to_tensor(img);
        for l in &mut self.encoder {
            t = l.forward(&t);
        }
        for l in &mut self.decoder {
            t = l.forward(&t);
        }
        // Downsample the native-cell label grid to the model output grid
        // (max-pool: a coarse cell is positive if any covered native cell
        // is).
        let (ow, oh) = (t.w, t.h);
        let (nc, nr) = self.native_cells();
        let mut target = vec![0.0f32; ow * oh];
        for oy in 0..oh {
            for ox in 0..ow {
                let cx0 = ox * nc / ow;
                let cx1 = (((ox + 1) * nc).div_ceil(ow)).min(nc);
                let cy0 = oy * nr / oh;
                let cy1 = (((oy + 1) * nr).div_ceil(oh)).min(nr);
                let mut m = 0.0f32;
                for cy in cy0..cy1 {
                    for cx in cx0..cx1 {
                        m = m.max(label.get(cx, cy));
                    }
                }
                target[oy * ow + ox] = m;
            }
        }
        let loss = otif_nn::bce_with_logits(&t.data, &target);
        let grad = otif_nn::bce_with_logits_grad(&t.data, &target);
        let mut g = Tensor3::from_vec(1, oh, ow, grad);
        for l in self.decoder.iter_mut().rev() {
            g = l.backward(&g);
        }
        let (first, rest) = self.encoder.split_first_mut().expect("an encoder layer");
        for l in rest.iter_mut().rev() {
            g = l.backward(&g);
        }
        // the image needs no gradient
        first.backward_params(&g);
        for l in self.encoder.iter_mut().chain(self.decoder.iter_mut()) {
            l.step(lr, OptimKind::Adam);
        }
        loss
    }

    /// Train against θ_best detections over training clips.
    ///
    /// `labels` pairs each training clip with the θ_best detections per
    /// frame. Per the paper, only frames with at least one detection are
    /// sampled. Returns the mean loss over the final quarter of steps.
    pub fn train(
        &mut self,
        clips: &[&Clip],
        labels: &[Vec<Vec<Detection>>],
        steps: usize,
        lr: f32,
        seed: u64,
    ) -> f32 {
        assert_eq!(clips.len(), labels.len());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // frames with at least one detection
        let pool: Vec<(usize, usize)> = labels
            .iter()
            .enumerate()
            .flat_map(|(ci, per_frame)| {
                per_frame
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| !d.is_empty())
                    .map(move |(f, _)| (ci, f))
            })
            .collect();
        if pool.is_empty() {
            return f32::NAN;
        }
        let (nc, nr) = self.native_cells();
        let mut tail = Vec::new();
        for step in 0..steps {
            let (ci, f) = pool[rng.gen_range(0..pool.len())];
            let img = Renderer::new(clips[ci]).render(f, self.in_w, self.in_h);
            let label = CellGrid::from_detections(nc, nr, &labels[ci][f]);
            let loss = self.train_step(&img, &label, lr);
            if step >= steps - steps / 4 {
                tail.push(loss);
            }
        }
        tail.iter().sum::<f32>() / tail.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_geom::Rect;
    use otif_sim::{DatasetConfig, DatasetKind, ObjectClass};

    fn det(r: Rect) -> Detection {
        Detection {
            rect: r,
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    #[test]
    fn input_dims_are_multiples_of_32() {
        for s in PROXY_SCALES {
            let (w, h) = proxy_input_dims(384, 224, s);
            assert_eq!(w % 32, 0);
            assert_eq!(h % 32, 0);
            assert!(w >= 32 && h >= 32);
        }
        assert_eq!(proxy_input_dims(384, 224, 1.0), (384, 224));
        assert_eq!(proxy_input_dims(384, 224, 0.5), (192, 96));
    }

    #[test]
    fn cell_grid_from_detections_marks_intersections() {
        // one detection spanning cells (1,0)-(2,0)
        let g = CellGrid::from_detections(4, 3, &[det(Rect::new(40.0, 5.0, 50.0, 20.0))]);
        assert_eq!(g.get(1, 0), 1.0);
        assert_eq!(g.get(2, 0), 1.0);
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(3, 0), 0.0);
        assert_eq!(g.get(1, 1), 0.0);
        assert_eq!(g.positive_cells(0.5).len(), 2);
    }

    #[test]
    fn output_grid_matches_input_over_32() {
        let m = SegProxyModel::new(384, 224, 0.5, 1);
        assert_eq!((m.in_w, m.in_h), (192, 96));
        assert_eq!(m.out_dims(), (6, 3));
        assert_eq!(m.native_cells(), (12, 7));
    }

    #[test]
    fn score_cells_upsamples_and_charges() {
        let m = SegProxyModel::new(384, 224, 0.5, 1);
        let img = GrayImage::new(192, 96);
        let ledger = CostLedger::new();
        let cm = CostModel::default();
        let grid = m.score_cells(&img, &cm, &ledger);
        assert_eq!((grid.cols, grid.rows), (12, 7));
        assert!(grid.scores.iter().all(|s| (0.0..=1.0).contains(s)));
        assert!(ledger.get(Component::Proxy) > 0.0);
    }

    #[test]
    fn lower_resolution_costs_less() {
        let cm = CostModel::default();
        let hi = SegProxyModel::new(384, 224, 1.0, 1).inference_cost(&cm);
        let lo = SegProxyModel::new(384, 224, 0.25, 1).inference_cost(&cm);
        assert!(lo < hi * 0.3);
    }

    #[test]
    fn batched_logits_bit_identical_to_looped() {
        let m = SegProxyModel::new(128, 96, 0.5, 5);
        let mut imgs = Vec::new();
        for i in 0..5u32 {
            let mut img = GrayImage::new(m.in_w, m.in_h);
            for (j, v) in img.data.iter_mut().enumerate() {
                *v = ((j as f32 * 0.013 + i as f32).sin() + 1.0) * 0.5;
            }
            imgs.push(img);
        }
        for path in [KernelPath::Auto, KernelPath::Gemm, KernelPath::Naive] {
            let refs: Vec<&GrayImage> = imgs.iter().collect();
            let mut batched = BatchTensor3::zeros(0, 0, 0, 0);
            m.infer_logits_batched_into(&refs, path, &mut batched);
            let mut want = Tensor3::zeros(0, 0, 0);
            let mut got = Tensor3::zeros(0, 0, 0);
            for (i, img) in imgs.iter().enumerate() {
                m.infer_logits_into(img, path, &mut want);
                batched.item_into(i, &mut got);
                assert_eq!(
                    got.data, want.data,
                    "batched proxy logits diverge at item {i} ({path:?})"
                );
            }
        }
    }

    #[test]
    fn training_learns_object_cells() {
        // Train a low-res proxy on a tiny caldot dataset against ground
        // truth boxes, then check it separates object cells from empty
        // cells on a held-out clip.
        let d = DatasetConfig::small(DatasetKind::Caldot1, 31).generate();
        let clips: Vec<&Clip> = d.train.iter().collect();
        let labels: Vec<Vec<Vec<Detection>>> = d
            .train
            .iter()
            .map(|c| {
                (0..c.num_frames())
                    .map(|f| c.gt_boxes(f).into_iter().map(|(_, _, r)| det(r)).collect())
                    .collect()
            })
            .collect();
        // Averaged over three fixed inits instead of one hand-picked
        // lucky seed: individual inits on this tiny low-res training
        // set range from loss ~0.12 / separation ~0.37 (seeds 1, 3) to
        // a mediocre ~0.21 / ~0.32 (seed 2), and a rare plateau basin
        // sits near loss 0.65 / separation ~0. The averaged bounds —
        // mean loss < 0.35 (measured ~0.155) and mean separation
        // > 0.18 (measured ~0.36) — hold even if one of the three
        // seeds degenerates all the way to the plateau.
        let mut losses = Vec::new();
        let mut separations = Vec::new();
        for model_seed in [1u64, 2, 3] {
            let mut m = SegProxyModel::new(384, 224, 0.375, model_seed);
            losses.push(m.train(&clips, &labels, 800, 0.01, 9));

            // Evaluate separation on a validation clip.
            let clip = &d.val[0];
            let cm = CostModel::default();
            let ledger = CostLedger::new();
            let mut pos_scores = Vec::new();
            let mut neg_scores = Vec::new();
            for f in (0..clip.num_frames()).step_by(7) {
                let img = Renderer::new(clip).render(f, m.in_w, m.in_h);
                let grid = m.score_cells(&img, &cm, &ledger);
                let gt = CellGrid::from_detections(
                    grid.cols,
                    grid.rows,
                    &clip
                        .gt_boxes(f)
                        .into_iter()
                        .map(|(_, _, r)| det(r))
                        .collect::<Vec<_>>(),
                );
                for cy in 0..grid.rows {
                    for cx in 0..grid.cols {
                        if gt.get(cx, cy) > 0.5 {
                            pos_scores.push(grid.get(cx, cy));
                        } else {
                            neg_scores.push(grid.get(cx, cy));
                        }
                    }
                }
            }
            let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
            separations.push(mean(&pos_scores) - mean(&neg_scores));
        }
        let avg = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let (loss, sep) = (avg(&losses), avg(&separations));
        assert!(loss < 0.35, "mean training loss {loss} ({losses:?})");
        assert!(
            sep > 0.18,
            "mean object/empty cell separation {sep} ({separations:?})"
        );
    }
}
