//! Property tests: the packed tracker kernels against the one-pair,
//! one-step `TrackerModel` oracle, bit for bit.
//!
//! `PackedTracker::advance` must give every queued GRU step exactly the
//! state `TrackerModel::advance` gives it, and `PackedTracker::score`
//! every queued pair exactly `TrackerModel::match_prob`'s probability,
//! with gated-out pairs left unqueued where the oracle returns 0. Batch
//! sizes cover the empty batch, one row, a full and a part 6-row GEMM
//! tile, and many rows; elapsed-frame gaps are random.
//!
//! The vendored proptest has no `prop_flat_map`, so each case draws
//! sizes plus a `u64` seed and derives its data from a deterministic LCG.

use otif_cv::{Detection, APPEARANCE_DIM};
use otif_geom::Rect;
use otif_sim::ObjectClass;
use otif_track::recurrent::HIDDEN;
use otif_track::{PairBatch, StepBatch, TrackerModel};
use proptest::prelude::*;

/// Batch sizes by index: none, one, a full and a part register tile,
/// then "many" (drawn separately).
fn batch_size(choice: usize, many: usize) -> usize {
    [0, 1, 6, 7, many][choice]
}

struct Lcg(u64);

impl Lcg {
    /// Uniform in `[0, 1)`.
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 40) as f32 / (1u64 << 24) as f32
    }

    fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next()
    }

    /// A detection centred at `(x, y)`.
    fn det(&mut self, x: f32, y: f32) -> Detection {
        let app_len = if self.next() < 0.1 { 0 } else { APPEARANCE_DIM };
        let (w, h) = (self.range(8.0, 40.0), self.range(6.0, 24.0));
        Detection {
            rect: Rect::new(x - w / 2.0, y - h / 2.0, w, h),
            class: ObjectClass::Car,
            confidence: self.next(),
            appearance: (0..app_len).map(|_| self.range(-1.0, 1.0)).collect(),
            debug_gt: None,
        }
    }
}

/// A model with non-zero biases: a few training steps from its seed.
fn model(seed: u64) -> TrackerModel {
    let mut rng = Lcg(seed);
    let mut m = TrackerModel::new(1920.0, 1080.0, seed);
    let prefix: Vec<(usize, Detection)> = (0..3)
        .map(|i| (i * 2, rng.det(100.0 + 20.0 * i as f32, 300.0)))
        .collect();
    let (pos, neg) = (rng.det(160.0, 300.0), rng.det(900.0, 700.0));
    for _ in 0..3 {
        m.train_example(&prefix, &[(&pos, 2, true), (&neg, 2, false)], 0.05, true);
    }
    m
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn batched_gru_steps_match_advance(
        choice in 0usize..5,
        many in 8usize..48,
        seed in 0u64..u64::MAX,
    ) {
        let m = model(seed);
        let packed = m.packed();
        let mut rng = Lcg(seed ^ 0x5eed);
        let rows = batch_size(choice, many);
        let mut steps = StepBatch::default();
        let mut oracle = Vec::new();
        for _ in 0..rows {
            let h: Vec<f32> = if rng.next() < 0.3 {
                vec![0.0; HIDDEN]
            } else {
                (0..HIDDEN).map(|_| rng.range(-1.0, 1.0)).collect()
            };
            let (x, y) = (rng.range(0.0, 1900.0), rng.range(0.0, 1060.0));
            let det = rng.det(x, y);
            let te = (rng.next() * 33.0) as usize;
            steps.push(packed, &det, te, &h);
            oracle.push(m.advance(&h, &det, te));
        }
        packed.advance(&mut steps);
        prop_assert_eq!(steps.len(), rows);
        for (i, want) in oracle.iter().enumerate() {
            prop_assert_eq!(bits(steps.state(i)), bits(want), "step {}", i);
        }
    }

    #[test]
    fn batched_pair_scores_match_match_prob(
        choice in 0usize..5,
        many in 8usize..64,
        tracks in 1usize..6,
        far in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let m = model(seed);
        let packed = m.packed();
        let mut rng = Lcg(seed ^ 0xface);
        // Tracks 1500 px apart, each built by real GRU steps so its
        // prefix comes from the packed path; `te` is the gap from the
        // track's last detection to the candidates' frame.
        let mut states = Vec::new();
        for t in 0..tracks {
            let (x, y) = (100.0 + 1500.0 * t as f32, 200.0);
            let mut h = vec![0.0; HIDDEN];
            let mut steps = StepBatch::default();
            let mut last = None;
            for s in 0..1 + (rng.next() * 4.0) as usize {
                let det = rng.det(x + 3.0 * s as f32, y);
                steps.clear();
                steps.push(packed, &det, if s == 0 { 0 } else { 2 }, &h);
                packed.advance(&mut steps);
                h = steps.state(0).to_vec();
                last = Some(det);
            }
            let last = last.unwrap();
            let te = (rng.next() * 21.0) as usize;
            states.push((h, steps.prefix(0).to_vec(), last, te));
        }
        // `gated` candidates within 8 px of one track's last detection
        // (inside its gate of at least 15 px, outside the others' of at
        // most 630 px), `far` ones outside every gate.
        let gated = batch_size(choice, many);
        let mut cands = Vec::new();
        for i in 0..gated {
            let c = states[i % tracks].2.rect.center();
            let (dx, dy) = (rng.range(-5.0, 5.0), rng.range(-5.0, 5.0));
            cands.push(rng.det(c.x + dx, c.y + dy));
        }
        for _ in 0..far {
            let (x, y) = (rng.range(0.0, 7000.0), rng.range(2500.0, 3000.0));
            cands.push(rng.det(x, y));
        }
        let mut pairs = PairBatch::default();
        let mut queued = Vec::new();
        for cand in &cands {
            for (h, prefix, last, te) in &states {
                let want = m.match_prob(h, last, cand, *te);
                if pairs.push(packed, prefix, last, cand, *te) {
                    queued.push(want);
                } else {
                    prop_assert_eq!(want.to_bits(), 0.0f32.to_bits());
                }
            }
        }
        prop_assert_eq!(pairs.len(), gated);
        packed.score(&mut pairs);
        prop_assert_eq!(bits(pairs.probs()), bits(&queued));
    }
}
