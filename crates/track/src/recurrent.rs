//! The recurrent reduced-rate tracking model (§3.4).
//!
//! Per-detection features (normalized box geometry, elapsed frames since
//! the previous detection, appearance embedding) are fed through a GRU to
//! produce track-level features; an MLP matching head scores how likely a
//! new detection continues a given track prefix. Matching is solved with
//! the Hungarian algorithm over the score matrix.
//!
//! The `t_elapsed` input is what makes the model *reduced-rate aware*: the
//! head can scale the track's learned velocity by the actual frame gap, so
//! one model serves every sampling gap the tuner may choose.
//!
//! [`TrackerModel`] owns the trainable layers; its `score`, `match_prob`
//! and `advance` evaluate one pair or one step at a time and serve
//! training and tests. [`RecurrentTracker`] runs inference on a
//! [`PackedTracker`]: the same weights transposed once into GEMM layout,
//! so each frame scores all gated pairs in one GEMM and advances all
//! updated tracks in two. Every output element still adds its terms in
//! the scalar order, so both paths agree bit for bit (DESIGN.md,
//! "Tracker inference").

use crate::types::{Track, TrackId};
use otif_cv::Detection;
use otif_geom::Hungarian;
use otif_nn::kernels;
use otif_nn::{Activation, GruCell, Mlp, OptimKind, XavierInit};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Per-detection feature dimension: 4 box + 1 elapsed + 8 appearance.
pub const DET_FEAT_DIM: usize = 5 + otif_cv::APPEARANCE_DIM;

/// GRU hidden width (track-level feature dimension).
pub const HIDDEN: usize = 24;

/// Pairwise features fed to the matching head alongside the track state
/// and candidate features: Δx, Δy, Δlog w, Δlog h, appearance cosine.
pub const PAIR_FEAT_DIM: usize = 5;

/// Width of the matching head's hidden layer.
pub const HEAD_HIDDEN: usize = 32;

/// Head inputs that depend on the candidate: its features, then the
/// pairwise ones. They follow the track state in the head's input.
const CAND_DIM: usize = DET_FEAT_DIM + PAIR_FEAT_DIM;

/// GRU gate input width: the detection features, then the state.
const GATE_IN: usize = DET_FEAT_DIM + HIDDEN;

/// Build the per-detection feature vector.
///
/// `t_elapsed` is the number of frames since the previous detection of the
/// track (or 0 for a track's first detection), normalized by 16 frames.
pub fn det_features(det: &Detection, t_elapsed: usize, frame_w: f32, frame_h: f32) -> Vec<f32> {
    let mut f = Vec::with_capacity(DET_FEAT_DIM);
    det_features_into(det, t_elapsed, frame_w, frame_h, &mut f);
    f
}

/// [`det_features`] into a caller-owned buffer (cleared and refilled),
/// for allocation-free scoring loops.
pub fn det_features_into(
    det: &Detection,
    t_elapsed: usize,
    frame_w: f32,
    frame_h: f32,
    f: &mut Vec<f32>,
) {
    f.clear();
    push_det_features(det, t_elapsed, frame_w, frame_h, f);
}

/// Append the [`det_features`] of `det` to `f`.
fn push_det_features(
    det: &Detection,
    t_elapsed: usize,
    frame_w: f32,
    frame_h: f32,
    f: &mut Vec<f32>,
) {
    let c = det.rect.center();
    f.push(c.x / frame_w);
    f.push(c.y / frame_h);
    f.push(det.rect.w / frame_w);
    f.push(det.rect.h / frame_h);
    f.push(t_elapsed as f32 / 16.0);
    for i in 0..otif_cv::APPEARANCE_DIM {
        f.push(det.appearance.get(i).copied().unwrap_or(0.0));
    }
}

fn pair_features(
    last: &Detection,
    cand: &Detection,
    frame_w: f32,
    frame_h: f32,
) -> [f32; PAIR_FEAT_DIM] {
    let lc = last.rect.center();
    let cc = cand.rect.center();
    let dx = (cc.x - lc.x) / frame_w * 8.0;
    let dy = (cc.y - lc.y) / frame_h * 8.0;
    let dlw = (cand.rect.w.max(1.0) / last.rect.w.max(1.0)).ln();
    let dlh = (cand.rect.h.max(1.0) / last.rect.h.max(1.0)).ln();
    let cos = {
        let a = &last.appearance;
        let b = &cand.appearance;
        let n = a.len().min(b.len());
        if n == 0 {
            0.0
        } else {
            let dot: f32 = (0..n).map(|i| a[i] * b[i]).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            if na * nb > 1e-6 {
                dot / (na * nb)
            } else {
                0.0
            }
        }
    };
    [dx, dy, dlw, dlh, cos]
}

/// Whether `cand` lies farther from the track's last detection than an
/// object could plausibly travel in `t_elapsed` frames (relative to its
/// box size); such pairs get matching probability 0 without scoring.
fn gated_out(last_det: &Detection, cand: &Detection, t_elapsed: usize) -> bool {
    let diag = (last_det.rect.w * last_det.rect.w + last_det.rect.h * last_det.rect.h)
        .sqrt()
        .max(8.0);
    let max_dist = diag * (1.5 + 0.6 * t_elapsed as f32);
    last_det.rect.center().dist(&cand.rect.center()) > max_dist
}

/// The trainable tracker model: GRU over detection features + matching
/// head over (track state, candidate, pairwise) features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackerModel {
    /// Track-prefix summarizer.
    pub gru: GruCell,
    /// Matching head producing logits.
    pub head: Mlp,
    /// Frame width used for feature normalization.
    pub frame_w: f32,
    /// Frame height used for feature normalization.
    pub frame_h: f32,
    /// Inference weights, packed on first use. `train_example` clears
    /// them; code that changes `gru` or `head` by hand must pack a fresh
    /// [`PackedTracker`] itself.
    #[serde(skip)]
    packed: OnceLock<PackedTracker>,
}

impl TrackerModel {
    /// Initialize an untrained model.
    pub fn new(frame_w: f32, frame_h: f32, seed: u64) -> Self {
        let mut init = XavierInit::new(seed);
        let gru = GruCell::new(DET_FEAT_DIM, HIDDEN, &mut init);
        let head = Mlp::new(
            &[HIDDEN + CAND_DIM, HEAD_HIDDEN, 1],
            Activation::Relu,
            Activation::Linear,
            &mut init,
        );
        TrackerModel {
            gru,
            head,
            frame_w,
            frame_h,
            packed: OnceLock::new(),
        }
    }

    /// The inference weights, packed on the first call and shared by
    /// every tracker that runs this model.
    pub fn packed(&self) -> &PackedTracker {
        self.packed.get_or_init(|| PackedTracker::new(self))
    }

    fn head_input(&self, h: &[f32], cand_feat: &[f32], pair: &[f32; PAIR_FEAT_DIM]) -> Vec<f32> {
        let mut x = Vec::with_capacity(HIDDEN + CAND_DIM);
        x.extend_from_slice(h);
        x.extend_from_slice(cand_feat);
        x.extend_from_slice(pair);
        x
    }

    /// Matching logit for (track state, candidate detection), one pair at
    /// a time. The tracker scores whole frames on [`PackedTracker`]
    /// instead; this is the oracle it is tested against.
    pub fn score(
        &self,
        h: &[f32],
        last_det: &Detection,
        cand: &Detection,
        t_elapsed: usize,
    ) -> f32 {
        let mut cf = kernels::take_buf(0);
        det_features_into(cand, t_elapsed, self.frame_w, self.frame_h, &mut cf);
        let pf = pair_features(last_det, cand, self.frame_w, self.frame_h);
        let mut x = kernels::take_buf(0);
        x.clear();
        x.extend_from_slice(h);
        x.extend_from_slice(&cf);
        x.extend_from_slice(&pf);
        let mut y = kernels::take_buf(0);
        self.head.infer_into(&x, &mut y);
        let logit = y[0];
        kernels::put_buf(cf);
        kernels::put_buf(x);
        kernels::put_buf(y);
        logit
    }

    /// Matching probability: sigmoid of the learned logit, gated by
    /// spatial plausibility.
    ///
    /// The gate zeroes candidates farther from the track's last position
    /// than an object could plausibly travel in `t_elapsed` frames
    /// (relative to its box size). This is a standard assignment-pruning
    /// step; it keeps the matcher robust where the learned score is
    /// uncertain without constraining legitimate reduced-rate motion.
    pub fn match_prob(
        &self,
        h: &[f32],
        last_det: &Detection,
        cand: &Detection,
        t_elapsed: usize,
    ) -> f32 {
        if gated_out(last_det, cand, t_elapsed) {
            return 0.0;
        }
        otif_nn::sigmoid(self.score(h, last_det, cand, t_elapsed))
    }

    /// Advance a track's hidden state with a newly appended detection.
    pub fn advance(&self, h: &[f32], det: &Detection, t_elapsed: usize) -> Vec<f32> {
        let f = det_features(det, t_elapsed, self.frame_w, self.frame_h);
        self.gru.infer(&f, h)
    }

    /// Training: run the GRU over a prefix (caching), then score each
    /// candidate against the final state with BCE targets, backprop, and
    /// return the mean loss. One optimizer step per call when `step`.
    #[allow(clippy::too_many_arguments)]
    pub fn train_example(
        &mut self,
        prefix: &[(usize, Detection)],
        candidates: &[(&Detection, usize, bool)], // (det, t_elapsed, is_match)
        lr: f32,
        step: bool,
    ) -> f32 {
        self.packed.take();
        // GRU forward over the prefix.
        let mut feats = Vec::with_capacity(prefix.len());
        let mut prev_frame: Option<usize> = None;
        for (f, d) in prefix {
            let te = prev_frame.map(|p| f - p).unwrap_or(0);
            feats.push(det_features(d, te, self.frame_w, self.frame_h));
            prev_frame = Some(*f);
        }
        let h = self.gru.forward_sequence(&feats);
        let last_det = &prefix.last().unwrap().1;

        let mut grad_h = vec![0.0; HIDDEN];
        let mut total_loss = 0.0;
        for (cand, te, is_match) in candidates {
            let cf = det_features(cand, *te, self.frame_w, self.frame_h);
            let pf = pair_features(last_det, cand, self.frame_w, self.frame_h);
            let x = self.head_input(&h, &cf, &pf);
            let logit = self.head.forward(&x)[0];
            let target = if *is_match { 1.0 } else { 0.0 };
            total_loss += otif_nn::bce_with_logits(&[logit], &[target]);
            let g = otif_nn::bce_with_logits_grad(&[logit], &[target]);
            let gx = self.head.backward(&g);
            for i in 0..HIDDEN {
                grad_h[i] += gx[i];
            }
        }
        self.gru.backward_sequence(&grad_h);
        if step {
            self.gru.step(lr, OptimKind::Adam);
            self.head.step(lr, OptimKind::Adam);
        }
        total_loss / candidates.len().max(1) as f32
    }
}

/// A [`TrackerModel`]'s inference weights, transposed once into the
/// `k × n` layout of [`kernels::matmul_blocked`].
///
/// A GEMM lane adds its `k` terms in increasing order onto the value it
/// is seeded with, a multiply then an add, exactly as the scalar matvec
/// does from the bias. Splitting the head's input at the track state is
/// therefore exact: the per-track prefix (bias plus the `HIDDEN` state
/// terms) is the first part of every pair's sum, and the pair GEMM adds
/// the remaining `CAND_DIM` terms onto it. Likewise the GRU's update and
/// reset gates share one 48-wide GEMM over `[x; h]`.
#[derive(Debug, Clone)]
pub struct PackedTracker {
    frame_w: f32,
    frame_h: f32,
    /// `[Wz Wr; Uz Ur]ᵀ`: `GATE_IN × 2·HIDDEN`.
    zr_t: Vec<f32>,
    /// `[bz; br]`.
    zr_b: Vec<f32>,
    /// `[Wh; Uh]ᵀ`: `GATE_IN × HIDDEN`.
    hc_t: Vec<f32>,
    /// `bh`.
    hc_b: Vec<f32>,
    /// Head layer-1 columns for the track state: `HIDDEN × HEAD_HIDDEN`.
    head_h_t: Vec<f32>,
    /// Head layer-1 columns for the candidate: `CAND_DIM × HEAD_HIDDEN`.
    head_c_t: Vec<f32>,
    /// Head layer-1 bias.
    head_b: Vec<f32>,
    /// Head output row (layer 2 has one output).
    out_w: Vec<f32>,
    /// Head output bias.
    out_b: f32,
}

/// Transpose the `rows × cols` row-major `w` (row stride `stride`) into
/// `out`, whose rows are `n` wide, starting at row `row0` and column
/// `col0`.
fn transpose_into(
    w: &[f32],
    (stride, rows, cols): (usize, usize, usize),
    out: &mut [f32],
    (n, row0, col0): (usize, usize, usize),
) {
    for r in 0..rows {
        for c in 0..cols {
            out[(row0 + c) * n + col0 + r] = w[r * stride + c];
        }
    }
}

/// Refill `out` with `rows` copies of `seed`.
fn seed_rows(out: &mut Vec<f32>, seed: &[f32], rows: usize) {
    out.clear();
    for _ in 0..rows {
        out.extend_from_slice(seed);
    }
}

impl PackedTracker {
    /// Pack `model`'s weights.
    ///
    /// # Panics
    /// If the model's shapes or activations differ from those
    /// [`TrackerModel::new`] builds.
    pub fn new(model: &TrackerModel) -> Self {
        let (gru, hd, inp) = (&model.gru, HIDDEN, DET_FEAT_DIM);
        assert_eq!((gru.in_dim, gru.hidden), (inp, hd), "tracker GRU shape");
        let [l1, l2] = model.head.layers.as_slice() else {
            panic!("tracker head must have two layers");
        };
        assert_eq!((l1.in_dim, l1.out_dim), (hd + CAND_DIM, HEAD_HIDDEN));
        assert_eq!((l2.in_dim, l2.out_dim), (HEAD_HIDDEN, 1));
        assert_eq!((l1.act, l2.act), (Activation::Relu, Activation::Linear));

        let mut zr_t = vec![0.0; GATE_IN * 2 * hd];
        let mut hc_t = vec![0.0; GATE_IN * hd];
        for g in 0..3 {
            let (out, n, col0) = match g {
                2 => (&mut hc_t, hd, 0),
                _ => (&mut zr_t, 2 * hd, g * hd),
            };
            let (w, u) = (&gru.w.w[g * hd * inp..], &gru.u.w[g * hd * hd..]);
            transpose_into(w, (inp, hd, inp), out, (n, 0, col0));
            transpose_into(u, (hd, hd, hd), out, (n, inp, col0));
        }
        let (w1, in1) = (&l1.weight.w, l1.in_dim);
        let mut head_h_t = vec![0.0; hd * HEAD_HIDDEN];
        let mut head_c_t = vec![0.0; CAND_DIM * HEAD_HIDDEN];
        let (state_cols, cand_cols) = ((in1, HEAD_HIDDEN, hd), (in1, HEAD_HIDDEN, CAND_DIM));
        transpose_into(w1, state_cols, &mut head_h_t, (HEAD_HIDDEN, 0, 0));
        transpose_into(&w1[hd..], cand_cols, &mut head_c_t, (HEAD_HIDDEN, 0, 0));
        PackedTracker {
            frame_w: model.frame_w,
            frame_h: model.frame_h,
            zr_t,
            zr_b: gru.b.w[..2 * hd].to_vec(),
            hc_t,
            hc_b: gru.b.w[2 * hd..].to_vec(),
            head_h_t,
            head_c_t,
            head_b: l1.bias.w.clone(),
            out_w: l2.weight.w.clone(),
            out_b: l2.bias.w[0],
        }
    }

    /// Score every queued pair: one GEMM adds the candidate terms of all
    /// pairs onto their track prefixes, then the ReLU, the output row and
    /// the sigmoid run per pair. Each probability equals
    /// [`TrackerModel::match_prob`]'s bit for bit.
    pub fn score(&self, pairs: &mut PairBatch) {
        let m = pairs.len();
        let PairBatch { rows, acc, probs } = pairs;
        kernels::matmul_blocked(rows, &self.head_c_t, acc, m, CAND_DIM, HEAD_HIDDEN);
        probs.clear();
        probs.extend(acc.chunks_exact(HEAD_HIDDEN).map(|hidden| {
            let mut logit = self.out_b;
            for (w, a) in self.out_w.iter().zip(hidden) {
                logit += w * a.max(0.0);
            }
            otif_nn::sigmoid(logit)
        }));
    }

    /// Run every queued GRU step: the update and reset gates in one GEMM
    /// over `[x; h]`, the candidate state in one over `[x; r ⊙ h]`, and
    /// the next states' head prefixes in a third. Each state equals
    /// [`TrackerModel::advance`]'s bit for bit.
    pub fn advance(&self, steps: &mut StepBatch) {
        let (rows, hd) = (steps.len(), HIDDEN);
        let StepBatch {
            x,
            h_prev,
            gates,
            h_next,
            prefix,
        } = steps;
        seed_rows(gates, &self.zr_b, rows);
        kernels::matmul_blocked(x, &self.zr_t, gates, rows, GATE_IN, 2 * hd);
        gates.iter_mut().for_each(|v| *v = otif_nn::sigmoid(*v));
        // The candidate gate reads r ⊙ h where the state was.
        let zr = gates.chunks_exact(2 * hd);
        for ((x, zr), h) in x
            .chunks_exact_mut(GATE_IN)
            .zip(zr)
            .zip(h_prev.chunks_exact(hd))
        {
            for ((d, r), hv) in x[DET_FEAT_DIM..].iter_mut().zip(&zr[hd..]).zip(h) {
                *d = r * hv;
            }
        }
        seed_rows(h_next, &self.hc_b, rows);
        kernels::matmul_blocked(x, &self.hc_t, h_next, rows, GATE_IN, hd);
        let zr = gates.chunks_exact(2 * hd);
        for ((hn, zr), h) in h_next
            .chunks_exact_mut(hd)
            .zip(zr)
            .zip(h_prev.chunks_exact(hd))
        {
            for ((v, z), hv) in hn.iter_mut().zip(&zr[..hd]).zip(h) {
                *v = (1.0 - z) * hv + z * v.tanh();
            }
        }
        seed_rows(prefix, &self.head_b, rows);
        kernels::matmul_blocked(h_next, &self.head_h_t, prefix, rows, hd, HEAD_HIDDEN);
    }
}

/// (track, candidate) pairs queued for one [`PackedTracker::score`] GEMM.
/// Reused across frames, it allocates only while the batch grows.
#[derive(Debug, Default)]
pub struct PairBatch {
    /// Candidate-side head inputs, `CAND_DIM` per pair.
    rows: Vec<f32>,
    /// Head hidden layer per pair, seeded with the track's prefix.
    acc: Vec<f32>,
    probs: Vec<f32>,
}

impl PairBatch {
    /// Drop every queued pair.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.acc.clear();
        self.probs.clear();
    }

    /// Number of queued pairs.
    pub fn len(&self) -> usize {
        self.acc.len() / HEAD_HIDDEN
    }

    /// Whether no pair is queued.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Queue the pair of candidate `cand`, `t_elapsed` frames after the
    /// track's last detection `last`, with the track's head `prefix`
    /// (from [`StepBatch::prefix`]). A pair the spatial gate rules out
    /// has probability 0 and is not queued; returns whether it was.
    pub fn push(
        &mut self,
        packed: &PackedTracker,
        prefix: &[f32],
        last: &Detection,
        cand: &Detection,
        t_elapsed: usize,
    ) -> bool {
        if gated_out(last, cand, t_elapsed) {
            return false;
        }
        let (fw, fh) = (packed.frame_w, packed.frame_h);
        push_det_features(cand, t_elapsed, fw, fh, &mut self.rows);
        self.rows
            .extend_from_slice(&pair_features(last, cand, fw, fh));
        self.acc.extend_from_slice(&prefix[..HEAD_HIDDEN]);
        true
    }

    /// The queued pairs' matching probabilities, in queue order, once
    /// [`PackedTracker::score`] has run.
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }
}

/// GRU steps queued for one [`PackedTracker::advance`]. Reused across
/// frames, it allocates only while the batch grows.
#[derive(Debug, Default)]
pub struct StepBatch {
    /// `[x; h]` per step, `GATE_IN` wide.
    x: Vec<f32>,
    h_prev: Vec<f32>,
    /// Update and reset gates per step, `2 · HIDDEN` wide.
    gates: Vec<f32>,
    h_next: Vec<f32>,
    prefix: Vec<f32>,
}

impl StepBatch {
    /// Drop every queued step.
    pub fn clear(&mut self) {
        self.x.clear();
        self.h_prev.clear();
    }

    /// Number of queued steps.
    pub fn len(&self) -> usize {
        self.h_prev.len() / HIDDEN
    }

    /// Whether no step is queued.
    pub fn is_empty(&self) -> bool {
        self.h_prev.is_empty()
    }

    /// Queue the step that appends `det`, `t_elapsed` frames after the
    /// track's previous detection (0 for its first), to the track with
    /// state `h` (`HIDDEN` wide; zeros for a new track).
    pub fn push(&mut self, packed: &PackedTracker, det: &Detection, t_elapsed: usize, h: &[f32]) {
        let h = &h[..HIDDEN];
        push_det_features(det, t_elapsed, packed.frame_w, packed.frame_h, &mut self.x);
        self.x.extend_from_slice(h);
        self.h_prev.extend_from_slice(h);
    }

    /// Step `i`'s next state, once [`PackedTracker::advance`] has run.
    pub fn state(&self, i: usize) -> &[f32] {
        &self.h_next[i * HIDDEN..][..HIDDEN]
    }

    /// The head prefix of step `i`'s next state, for
    /// [`PairBatch::push`].
    pub fn prefix(&self, i: usize) -> &[f32] {
        &self.prefix[i * HEAD_HIDDEN..][..HEAD_HIDDEN]
    }
}

/// Buffers a [`RecurrentTracker`] reuses from frame to frame.
#[derive(Default)]
struct Scratch {
    pairs: PairBatch,
    /// Flat `det · tracks + track` index of each queued pair.
    pair_at: Vec<usize>,
    /// Matching probabilities, `dets × tracks`.
    probs: Vec<f32>,
    /// Assignment costs `1 − p`, `dets × tracks`.
    cost: Vec<f32>,
    hungarian: Hungarian,
    /// Accepted track per detection.
    assign: Vec<Option<usize>>,
    steps: StepBatch,
    matched: Vec<bool>,
}

struct ActiveRt {
    track: Track,
    h: [f32; HIDDEN],
    /// Head prefix of `h` (see [`PackedTracker`]).
    prefix: [f32; HEAD_HIDDEN],
    last_frame: usize,
    misses: u32,
}

/// Online tracker driving a [`TrackerModel`] over a frame stream.
pub struct RecurrentTracker<'a> {
    packed: &'a PackedTracker,
    /// Minimum matching probability to accept an assignment.
    pub match_threshold: f32,
    /// Processed frames a track survives unmatched.
    pub max_misses: u32,
    active: Vec<ActiveRt>,
    done: Vec<Track>,
    next_id: TrackId,
    scratch: Scratch,
}

impl<'a> RecurrentTracker<'a> {
    /// Build a tracker around a (trained) model, sharing its packed
    /// weights.
    pub fn new(model: &'a TrackerModel) -> Self {
        RecurrentTracker {
            packed: model.packed(),
            match_threshold: 0.5,
            max_misses: 4,
            active: Vec::new(),
            done: Vec::new(),
            next_id: 0,
            scratch: Scratch::default(),
        }
    }

    /// Number of active track prefixes.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// The matching probability of every (detection, active track) pair
    /// at `frame`, row-major `dets × tracks`, as
    /// [`TrackerModel::match_prob`] gives it; scored in one batch.
    fn match_probs(&mut self, frame: usize, dets: &[Detection]) {
        let (packed, s) = (self.packed, &mut self.scratch);
        s.pairs.clear();
        s.pair_at.clear();
        for (di, d) in dets.iter().enumerate() {
            for (ti, t) in self.active.iter().enumerate() {
                let last = &t
                    .track
                    .dets
                    .last()
                    .expect("active tracks hold a detection")
                    .1;
                let te = frame.saturating_sub(t.last_frame);
                if s.pairs.push(packed, &t.prefix, last, d, te) {
                    s.pair_at.push(di * self.active.len() + ti);
                }
            }
        }
        packed.score(&mut s.pairs);
        s.probs.clear();
        s.probs.resize(dets.len() * self.active.len(), 0.0);
        for (&at, &p) in s.pair_at.iter().zip(s.pairs.probs()) {
            s.probs[at] = p;
        }
    }

    /// The best matching probability of a detection against any active
    /// track, without changing which tracks exist. Used by variable-rate
    /// controllers to gauge matching confidence.
    pub fn best_match_prob(&mut self, frame: usize, det: &Detection) -> f32 {
        self.match_probs(frame, std::slice::from_ref(det));
        self.scratch.probs.iter().copied().fold(0.0f32, f32::max)
    }

    /// Process the detections of `frame` (frames fed in increasing order,
    /// any gaps allowed).
    pub fn step(&mut self, frame: usize, dets: Vec<Detection>) {
        let nt = self.active.len();
        if !dets.is_empty() && nt > 0 {
            self.match_probs(frame, &dets);
        }
        let (packed, s) = (self.packed, &mut self.scratch);
        s.assign.clear();
        if !dets.is_empty() && nt > 0 {
            s.cost.clear();
            s.cost.extend(s.probs.iter().map(|p| 1.0 - p));
            let assign = s.hungarian.solve(&s.cost, dets.len(), nt);
            let (probs, thr) = (&s.probs, self.match_threshold);
            s.assign.extend(
                assign
                    .iter()
                    .enumerate()
                    .map(|(di, a)| a.filter(|&ti| probs[di * nt + ti] >= thr)),
            );
        } else {
            s.assign.resize(dets.len(), None);
        }

        // Advance every matched track and start every new one in one
        // batch: step `di` appends detection `di` to its track, or to a
        // new track's zero state.
        s.steps.clear();
        for (det, a) in dets.iter().zip(&s.assign) {
            match *a {
                Some(ti) => {
                    let t = &self.active[ti];
                    s.steps.push(packed, det, frame - t.last_frame, &t.h);
                }
                None => s.steps.push(packed, det, 0, &[0.0; HIDDEN]),
            }
        }
        packed.advance(&mut s.steps);

        s.matched.clear();
        s.matched.resize(nt, false);
        let mut unmatched = Vec::new();
        for (di, det) in dets.into_iter().enumerate() {
            match s.assign[di] {
                Some(ti) => {
                    let t = &mut self.active[ti];
                    t.h.copy_from_slice(s.steps.state(di));
                    t.prefix.copy_from_slice(s.steps.prefix(di));
                    t.track.push(frame, det);
                    t.last_frame = frame;
                    t.misses = 0;
                    s.matched[ti] = true;
                }
                None => unmatched.push((di, det)),
            }
        }

        let max_misses = self.max_misses;
        let mut idx = 0;
        self.active.retain_mut(|t| {
            let was = s.matched[idx];
            idx += 1;
            if was {
                return true;
            }
            t.misses += 1;
            if t.misses > max_misses {
                self.done.push(std::mem::replace(
                    &mut t.track,
                    Track::new(0, otif_sim::ObjectClass::Car),
                ));
                false
            } else {
                true
            }
        });

        for (di, det) in unmatched {
            let id = self.next_id;
            self.next_id += 1;
            let mut track = Track::new(id, det.class);
            track.push(frame, det);
            let mut t = ActiveRt {
                track,
                h: [0.0; HIDDEN],
                prefix: [0.0; HEAD_HIDDEN],
                last_frame: frame,
                misses: 0,
            };
            t.h.copy_from_slice(s.steps.state(di));
            t.prefix.copy_from_slice(s.steps.prefix(di));
            self.active.push(t);
        }
    }

    /// Flush remaining tracks; prune single-detection tracks (§3.4).
    pub fn finish(mut self) -> Vec<Track> {
        for t in self.active {
            self.done.push(t.track);
        }
        self.done.retain(|t| t.len() >= 2);
        self.done.sort_by_key(|t| t.id);
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_geom::Rect;
    use otif_sim::ObjectClass;

    fn det(x: f32, y: f32, app: f32) -> Detection {
        Detection {
            rect: Rect::new(x, y, 20.0, 12.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![app; otif_cv::APPEARANCE_DIM],
            debug_gt: None,
        }
    }

    #[test]
    fn det_features_dimension_and_normalization() {
        let d = det(100.0, 50.0, 0.5);
        let f = det_features(&d, 8, 200.0, 100.0);
        assert_eq!(f.len(), DET_FEAT_DIM);
        assert!((f[0] - 0.55).abs() < 1e-5); // (100+10)/200
        assert!((f[4] - 0.5).abs() < 1e-5); // 8/16
    }

    #[test]
    fn untrained_model_runs_end_to_end() {
        let model = TrackerModel::new(320.0, 192.0, 3);
        let mut t = RecurrentTracker::new(&model);
        t.match_threshold = 0.0; // untrained: accept best assignment
        for f in 0..8 {
            t.step(f, vec![det(f as f32 * 5.0, 50.0, 0.2)]);
        }
        let tracks = t.finish();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].len(), 8);
    }

    #[test]
    fn train_example_reduces_loss() {
        let mut model = TrackerModel::new(320.0, 192.0, 7);
        // A track moving right; positive = continuation, negative = a
        // detection far away with different appearance.
        let prefix: Vec<(usize, Detection)> = (0..4)
            .map(|i| (i * 4, det(10.0 + i as f32 * 20.0, 50.0, 0.8)))
            .collect();
        let pos = det(10.0 + 4.0 * 20.0, 50.0, 0.8);
        let neg = det(250.0, 150.0, -0.7);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let loss =
                model.train_example(&prefix, &[(&pos, 4, true), (&neg, 4, false)], 0.01, true);
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss {} -> {last}",
            first.unwrap()
        );
        // after training, the positive should outscore the negative
        let mut h = model.gru.zero_state();
        let mut prev = None;
        for (f, d) in &prefix {
            let te = prev.map(|p: usize| f - p).unwrap_or(0);
            h = model.advance(&h, d, te);
            prev = Some(*f);
        }
        let last_det = &prefix.last().unwrap().1;
        let p_pos = model.match_prob(&h, last_det, &pos, 4);
        let p_neg = model.match_prob(&h, last_det, &neg, 4);
        assert!(p_pos > p_neg, "pos {p_pos} vs neg {p_neg}");
    }

    #[test]
    fn unmatched_detections_start_new_tracks() {
        let model = TrackerModel::new(320.0, 192.0, 3);
        let mut t = RecurrentTracker::new(&model);
        t.match_threshold = 1.1; // nothing ever matches
        t.step(0, vec![det(0.0, 0.0, 0.0)]);
        t.step(1, vec![det(5.0, 0.0, 0.0)]);
        assert_eq!(t.num_active(), 2, "each detection starts a track");
    }

    #[test]
    fn stale_tracks_terminate() {
        let model = TrackerModel::new(320.0, 192.0, 3);
        let mut t = RecurrentTracker::new(&model);
        t.match_threshold = 0.0;
        t.step(0, vec![det(0.0, 0.0, 0.0)]);
        t.step(1, vec![det(5.0, 0.0, 0.0)]);
        for f in 2..8 {
            t.step(f, vec![]);
        }
        assert_eq!(t.num_active(), 0);
        let tracks = t.finish();
        assert_eq!(tracks.len(), 1);
    }
}
