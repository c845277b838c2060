//! Golden bit fingerprint of the recurrent tracker and track refinement.
//!
//! `tests/engine_golden.rs` runs SORT without refinement, so it does not
//! see the recurrent tracker's scoring, its GRU updates or
//! `RefineIndex::refine`. This test folds one FNV-1a digest over, for all
//! seven datasets at sampling gaps 1, 2, 4 and 8:
//!
//! - `RecurrentTracker::best_match_prob` for every detection before each
//!   step,
//! - the tracks `RecurrentTracker::finish` returns (ids, frame ids, rect
//!   and confidence bits), before and after `RefineIndex::refine`,
//! - the tracks of the sequential pipeline with the recurrent tracker and
//!   refinement on, and of its variable-rate variant,
//!
//! and pins it to a constant. The constant was recorded on the scalar
//! tracker (one matvec per head row and gate) and the four-query
//! refinement before the packed, batched kernels replaced them; the two
//! must agree bit for bit.

use otif::core::config::{OtifConfig, TrackerKind};
use otif::core::pipeline::{ExecutionContext, Pipeline};
use otif::core::{fold_digest, RefineIndex, DIGEST_SEED};
use otif::cv::{CostLedger, CostModel, DetectorArch, DetectorConfig, SimDetector};
use otif::sim::{DatasetConfig, DatasetKind, DatasetScale};
use otif::track::{train_tracker_model, RecurrentTracker, Track, TrainConfig};

/// Digest of the scalar tracker and refinement on this input set.
const GOLDEN: u64 = 0x1b890223f10d7c5c;

const GAPS: [usize; 4] = [1, 2, 4, 8];

fn fold_tracks(mut h: u64, tracks: &[Track]) -> u64 {
    h = fold_digest(h, tracks.len() as u64);
    for t in tracks {
        h = fold_digest(h, t.id as u64);
        h = fold_digest(h, t.dets.len() as u64);
        for (f, d) in &t.dets {
            h = fold_digest(h, *f as u64);
            for v in [d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.confidence] {
                h = fold_digest(h, v.to_bits() as u64);
            }
        }
    }
    h
}

fn config(tracker: TrackerKind, gap: usize, refine: bool) -> OtifConfig {
    OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
        proxy: None,
        gap,
        tracker,
        refine,
    }
}

#[test]
fn recurrent_tracker_and_refinement_match_golden_fingerprint() {
    let scale = DatasetScale {
        clips_per_split: 2,
        clip_seconds: 6.0,
    };
    let mut h = DIGEST_SEED;
    for kind in DatasetKind::ALL {
        let d = DatasetConfig::new(kind, scale, 71).generate();
        let (fw, fh) = (d.scene.width as f32, d.scene.height as f32);
        // θ_best-style training tracks: full-rate SORT on the train split.
        let bare = ExecutionContext::bare(CostModel::default(), 5);
        let sort = config(TrackerKind::Sort, 1, false);
        let train: Vec<Vec<Track>> = d
            .train
            .iter()
            .map(|c| Pipeline::run_clip(&sort, &bare, c, &CostLedger::new()))
            .collect();
        let cfg = TrainConfig {
            steps: 60,
            seed: 9,
            ..TrainConfig::default()
        };
        let (model, _) = train_tracker_model(&train, fw, fh, cfg);
        let index = RefineIndex::build(&train.concat(), fw, fh, None);
        let ctx = ExecutionContext {
            tracker_model: Some(&model),
            refine_index: Some(&index),
            ..ExecutionContext::bare(CostModel::default(), 5)
        };
        let detector = SimDetector::new(config(TrackerKind::Recurrent, 1, true).detector, 5);
        for clip in &d.test {
            for gap in GAPS {
                let ledger = CostLedger::new();
                let mut tracker = RecurrentTracker::new(&model);
                for f in (0..clip.num_frames()).step_by(gap) {
                    let dets = detector.detect_frame(clip, f, &ledger);
                    for det in &dets {
                        h = fold_digest(h, tracker.best_match_prob(f, det).to_bits() as u64);
                    }
                    tracker.step(f, dets);
                }
                let mut tracks = tracker.finish();
                h = fold_tracks(h, &tracks);
                for t in tracks.iter_mut() {
                    index.refine(t);
                }
                h = fold_tracks(h, &tracks);

                let cfg = config(TrackerKind::Recurrent, gap, true);
                let tracks = Pipeline::run_clip(&cfg, &ctx, clip, &ledger);
                h = fold_tracks(h, &tracks);
                let tracks = Pipeline::run_clip_variable_rate(&cfg, &ctx, clip, &ledger, 0.6);
                h = fold_tracks(h, &tracks);
            }
        }
    }
    assert_eq!(
        h, GOLDEN,
        "tracker bits drifted: fingerprint {h:#018x}, golden {GOLDEN:#018x}"
    );
}
