//! SORT: Simple Online and Realtime Tracking (Bewley et al. 2016).
//!
//! Kalman prediction + IoU cost + Hungarian assignment. The paper uses
//! SORT as the tracker inside θ_best (§3.3, because the recurrent model is
//! not yet trained at that stage) and as the "+ Sampling Rate" ablation
//! tracker in Table 4.

use crate::kalman::KalmanBox;
use crate::types::{Track, TrackId};
use otif_cv::Detection;
use otif_geom::Hungarian;

struct ActiveTrack {
    track: Track,
    kf: KalmanBox,
    last_processed_frame: usize,
    misses: u32,
}

/// SORT tracker configuration.
#[derive(Debug, Clone, Copy)]
pub struct SortConfig {
    /// Minimum IoU between the Kalman-predicted box and a detection for a
    /// match to be accepted.
    pub iou_threshold: f32,
    /// Number of consecutive processed frames a track may go unmatched
    /// before it is terminated.
    pub max_misses: u32,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            iou_threshold: 0.15,
            max_misses: 4,
        }
    }
}

/// The SORT tracker. Feed it frames (possibly at a reduced sampling rate)
/// via [`SortTracker::step`]; retrieve completed tracks with
/// [`SortTracker::finish`].
pub struct SortTracker {
    config: SortConfig,
    active: Vec<ActiveTrack>,
    done: Vec<Track>,
    next_id: TrackId,
    /// Per-frame IoU costs, `dets × tracks`, and the solver's buffers.
    cost: Vec<f32>,
    hungarian: Hungarian,
}

impl Default for SortTracker {
    fn default() -> Self {
        SortTracker::new(SortConfig::default())
    }
}

impl SortTracker {
    /// Build a tracker with the given configuration.
    pub fn new(config: SortConfig) -> Self {
        SortTracker {
            config,
            active: Vec::new(),
            done: Vec::new(),
            next_id: 0,
            cost: Vec::new(),
            hungarian: Hungarian::default(),
        }
    }

    /// Number of active tracks.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// Process the detections of frame `frame` (frames must be fed in
    /// increasing order; gaps are handled by Kalman extrapolation).
    pub fn step(&mut self, frame: usize, dets: Vec<Detection>) {
        // Predict each active track to the current frame.
        let predicted: Vec<otif_geom::Rect> = self
            .active
            .iter_mut()
            .map(|t| {
                let dt = (frame - t.last_processed_frame).max(1) as f32;
                t.kf.predict(dt)
            })
            .collect();

        // IoU cost matrix (rows = detections, cols = active tracks).
        let assignment = if !dets.is_empty() && !self.active.is_empty() {
            self.cost.clear();
            for d in &dets {
                self.cost
                    .extend(predicted.iter().map(|p| 1.0 - d.rect.iou(p)));
            }
            self.hungarian
                .solve(&self.cost, dets.len(), predicted.len())
                .to_vec()
        } else {
            vec![None; dets.len()]
        };

        let mut matched_tracks = vec![false; self.active.len()];
        let mut unmatched_dets = Vec::new();
        for (di, det) in dets.into_iter().enumerate() {
            let ti = assignment[di]
                .filter(|&ti| det.rect.iou(&predicted[ti]) >= self.config.iou_threshold);
            match ti {
                Some(ti) => {
                    let t = &mut self.active[ti];
                    t.kf.update(&det.rect);
                    t.track.push(frame, det);
                    t.last_processed_frame = frame;
                    t.misses = 0;
                    matched_tracks[ti] = true;
                }
                None => unmatched_dets.push(det),
            }
        }

        // Age out unmatched tracks.
        let max_misses = self.config.max_misses;
        let mut idx = 0;
        self.active.retain_mut(|t| {
            let was_matched = matched_tracks[idx];
            idx += 1;
            if was_matched {
                return true;
            }
            t.misses += 1;
            t.last_processed_frame = frame;
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

        // New tracks from unmatched detections.
        for det in unmatched_dets {
            let id = self.next_id;
            self.next_id += 1;
            let mut track = Track::new(id, det.class);
            let kf = KalmanBox::new(&det.rect);
            track.push(frame, det);
            self.active.push(ActiveTrack {
                track,
                kf,
                last_processed_frame: frame,
                misses: 0,
            });
        }
    }

    /// Flush all remaining tracks and return the complete set, pruning
    /// single-detection tracks (likely detector noise, §3.4).
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

    fn det(x: f32, y: f32) -> Detection {
        Detection {
            rect: Rect::new(x, y, 20.0, 12.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    #[test]
    fn single_object_yields_single_track() {
        let mut t = SortTracker::default();
        for f in 0..10 {
            t.step(f, vec![det(f as f32 * 5.0, 50.0)]);
        }
        let tracks = t.finish();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].len(), 10);
    }

    #[test]
    fn two_parallel_objects_stay_separate() {
        let mut t = SortTracker::default();
        for f in 0..10 {
            t.step(
                f,
                vec![det(f as f32 * 5.0, 20.0), det(f as f32 * 5.0, 120.0)],
            );
        }
        let tracks = t.finish();
        assert_eq!(tracks.len(), 2);
        assert!(tracks.iter().all(|t| t.len() == 10));
        // tracks do not mix rows
        for tr in &tracks {
            let ys: Vec<f32> = tr.dets.iter().map(|(_, d)| d.rect.y).collect();
            assert!(ys.windows(2).all(|w| (w[0] - w[1]).abs() < 1.0));
        }
    }

    #[test]
    fn missed_frame_bridged_by_prediction() {
        let mut t = SortTracker::default();
        for f in 0..10 {
            if f == 5 {
                t.step(f, vec![]); // detector missed the object
            } else {
                t.step(f, vec![det(f as f32 * 5.0, 50.0)]);
            }
        }
        let tracks = t.finish();
        assert_eq!(tracks.len(), 1, "miss within max_misses must not split");
        assert_eq!(tracks[0].len(), 9);
    }

    #[test]
    fn long_absence_terminates_track() {
        let mut t = SortTracker::default();
        for f in 0..5 {
            t.step(f, vec![det(f as f32 * 5.0, 50.0)]);
        }
        for f in 5..12 {
            t.step(f, vec![]);
        }
        for f in 12..17 {
            t.step(f, vec![det(200.0 + f as f32 * 5.0, 50.0)]);
        }
        let tracks = t.finish();
        assert_eq!(tracks.len(), 2, "gap beyond max_misses splits tracks");
    }

    #[test]
    fn reduced_rate_tracking_with_kalman_extrapolation() {
        // Feed every 4th frame; object moves 2 px/frame = 8 px/step, small
        // enough for the first IoU association, after which the Kalman
        // velocity estimate carries the matches.
        let mut t = SortTracker::default();
        let mut f = 0;
        while f < 40 {
            t.step(f, vec![det(f as f32 * 2.0, 50.0)]);
            f += 4;
        }
        let tracks = t.finish();
        assert_eq!(tracks.len(), 1, "Kalman should bridge 8 px steps");
        assert_eq!(tracks[0].len(), 10);
    }

    #[test]
    fn sort_fragments_at_large_inter_frame_motion() {
        // The failure mode that motivates the recurrent tracker (§3.4):
        // displacement per processed frame exceeds the box size, IoU
        // association never fires, and SORT shatters the track.
        let mut t = SortTracker::default();
        let mut f = 0;
        while f < 40 {
            t.step(f, vec![det(f as f32 * 8.0, 50.0)]); // 32 px per step
            f += 4;
        }
        let tracks = t.finish();
        assert!(
            tracks.len() != 1,
            "expected SORT to fragment at 32 px steps"
        );
    }

    #[test]
    fn single_detection_tracks_pruned() {
        let mut t = SortTracker::default();
        t.step(0, vec![det(0.0, 0.0), det(300.0, 300.0)]);
        t.step(1, vec![det(5.0, 0.0)]);
        t.step(2, vec![det(10.0, 0.0)]);
        let tracks = t.finish();
        assert_eq!(tracks.len(), 1, "length-1 track must be pruned");
    }
}
