//! Gap-sampled training of the recurrent tracker (§3.4, "Training").
//!
//! Ground-truth labels are unavailable in the paper's setting, so training
//! examples are drawn from tracks computed by the best-accuracy
//! configuration θ_best. To make the model robust at reduced sampling
//! rates, each example sub-samples a source track at a random power-of-two
//! gap `g ∈ G = ⟨1, 2, 4, …, 2^n⟩`, starting from its first detection and
//! requiring each following detection to be at least `g` frames after the
//! previous one.

use crate::recurrent::TrackerModel;
use crate::types::Track;
use otif_cv::Detection;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tracker training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// `n` in `G = ⟨1, 2, …, 2^n⟩`: the largest gap exponent the model
    /// must handle.
    pub max_gap_pow: u32,
    /// Number of gradient steps.
    pub steps: usize,
    /// Examples accumulated per optimizer step.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Negative candidates sampled per positive.
    pub negatives: usize,
    /// Seed for sampling and initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_gap_pow: 5,
            steps: 400,
            batch: 8,
            lr: 0.01,
            negatives: 3,
            seed: 0,
        }
    }
}

/// Sub-sample a track at gap `g`: starting from the first detection, keep
/// each detection at least `g` frames after the previously kept one.
pub fn subsample_track(track: &Track, g: usize) -> Vec<(usize, Detection)> {
    let mut out: Vec<(usize, Detection)> = Vec::new();
    for (f, d) in &track.dets {
        match out.last() {
            None => out.push((*f, d.clone())),
            Some((lf, _)) if f - lf >= g => out.push((*f, d.clone())),
            _ => {}
        }
    }
    out
}

/// Train a [`TrackerModel`] from per-clip track sets (tracks computed by
/// θ_best on the training split). Returns the trained model and the mean
/// loss of the final 10 % of steps (for diagnostics).
pub fn train_tracker_model(
    tracks_by_clip: &[Vec<Track>],
    frame_w: f32,
    frame_h: f32,
    cfg: TrainConfig,
) -> (TrackerModel, f32) {
    let mut model = TrackerModel::new(frame_w, frame_h, cfg.seed ^ 0x7ac4);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // Usable (clip, track) pairs: tracks long enough to split.
    let pool: Vec<(usize, usize)> = tracks_by_clip
        .iter()
        .enumerate()
        .flat_map(|(ci, ts)| {
            ts.iter()
                .enumerate()
                .filter(|(_, t)| t.len() >= 3)
                .map(move |(ti, _)| (ci, ti))
        })
        .collect();
    if pool.is_empty() {
        return (model, f32::NAN);
    }

    let mut tail_losses = Vec::new();
    let tail_from = cfg.steps.saturating_sub(cfg.steps / 10).max(1);
    for step in 0..cfg.steps {
        let mut loss_acc = 0.0;
        let mut n_ex = 0;
        for b in 0..cfg.batch {
            let (ci, ti) = pool[rng.gen_range(0..pool.len())];
            let track = &tracks_by_clip[ci][ti];
            let g = 1usize << rng.gen_range(0..=cfg.max_gap_pow);
            let sub = subsample_track(track, g);
            if sub.len() < 2 {
                continue;
            }
            // Split into prefix + positive continuation.
            let split = rng.gen_range(1..sub.len());
            let prefix = &sub[..split];
            let (pos_frame, pos_det) = &sub[split];
            let last_frame = prefix.last().unwrap().0;
            let te = pos_frame - last_frame;

            // Negatives: detections from *other* tracks in the same clip,
            // preferring ones temporally close to the positive frame (the
            // distractors the tracker actually faces).
            let mut cands: Vec<(&Detection, usize, bool)> = vec![(pos_det, te, true)];
            let others: Vec<&Track> = tracks_by_clip[ci]
                .iter()
                .filter(|t| t.id != track.id && !t.is_empty())
                .collect();
            for _ in 0..cfg.negatives {
                if others.is_empty() {
                    break;
                }
                let ot = others[rng.gen_range(0..others.len())];
                // detection nearest in time to pos_frame
                let idx = ot
                    .dets
                    .partition_point(|(f, _)| f < pos_frame)
                    .min(ot.dets.len() - 1);
                let (_, nd) = &ot.dets[idx];
                cands.push((nd, te, false));
            }

            let do_step = b + 1 == cfg.batch;
            loss_acc += model.train_example(prefix, &cands, cfg.lr, do_step);
            n_ex += 1;
        }
        if n_ex > 0 && step >= tail_from {
            tail_losses.push(loss_acc / n_ex as f32);
        }
    }
    let final_loss = if tail_losses.is_empty() {
        f32::NAN
    } else {
        tail_losses.iter().sum::<f32>() / tail_losses.len() as f32
    };
    (model, final_loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recurrent::RecurrentTracker;
    use otif_geom::Rect;
    use otif_sim::ObjectClass;

    fn mk_det(x: f32, y: f32, sig: f32) -> Detection {
        Detection {
            rect: Rect::new(x, y, 24.0, 14.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: (0..otif_cv::APPEARANCE_DIM)
                .map(|i| (sig + i as f32 * 0.13).sin())
                .collect(),
            debug_gt: None,
        }
    }

    /// Synthetic "θ_best" tracks: K objects per clip moving at distinct
    /// speeds/rows.
    fn synthetic_clips(n_clips: usize) -> Vec<Vec<Track>> {
        (0..n_clips)
            .map(|c| {
                (0..4u32)
                    .map(|k| {
                        let mut t = Track::new(k, ObjectClass::Car);
                        let y = 30.0 + k as f32 * 40.0;
                        let v = 3.0 + k as f32 + c as f32 * 0.3;
                        let sig = k as f32 * 1.7 + c as f32;
                        for f in 0..40usize {
                            t.push(f, mk_det(5.0 + v * f as f32, y, sig));
                        }
                        t
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn subsample_respects_gap() {
        let clips = synthetic_clips(1);
        let t = &clips[0][0];
        let sub = subsample_track(t, 8);
        assert!(sub.len() >= 4);
        for w in sub.windows(2) {
            assert!(w[1].0 - w[0].0 >= 8);
        }
        // gap 1 keeps everything
        assert_eq!(subsample_track(t, 1).len(), t.len());
    }

    #[test]
    fn training_learns_and_tracks_at_high_gap() {
        let clips = synthetic_clips(3);
        let cfg = TrainConfig {
            steps: 150,
            max_gap_pow: 4,
            seed: 5,
            ..TrainConfig::default()
        };
        let (model, final_loss) = train_tracker_model(&clips, 320.0, 192.0, cfg);
        assert!(final_loss < 0.45, "final loss {final_loss}");

        // Track two objects sampled at gap 8 (large inter-frame motion).
        let mut tracker = RecurrentTracker::new(&model);
        let mut f = 0usize;
        while f < 40 {
            let dets = vec![
                mk_det(5.0 + 3.0 * f as f32, 30.0, 0.0),
                mk_det(5.0 + 6.0 * f as f32, 150.0, 5.1),
            ];
            tracker.step(f, dets);
            f += 8;
        }
        let tracks = tracker.finish();
        assert_eq!(tracks.len(), 2, "two objects at gap 8 → two tracks");
        assert!(tracks.iter().all(|t| t.len() == 5));
        // no identity switches: y stays on one row per track
        for t in &tracks {
            let ys: Vec<f32> = t.dets.iter().map(|(_, d)| d.rect.y).collect();
            assert!(ys.windows(2).all(|w| (w[0] - w[1]).abs() < 1.0));
        }
    }

    #[test]
    fn empty_track_pool_returns_untrained_model() {
        let (model, loss) = train_tracker_model(&[], 320.0, 192.0, TrainConfig::default());
        assert!(loss.is_nan());
        // model still usable
        let d = mk_det(0.0, 0.0, 0.0);
        let h = model.advance(&model.gru.zero_state(), &d, 0);
        assert_eq!(h.len(), crate::recurrent::HIDDEN);
    }
}
