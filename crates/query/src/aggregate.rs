//! Aggregate queries over extracted tracks (§3's example queries 3–4).
//!
//! The paper lists, among queries answerable directly from OTIF's tracks:
//! *"find the average number of cars visible in the video over time"* and
//! *"find the average number of unique cars over time (i.e., the traffic
//! volume)"*. BlazeIt optimizes exactly this class of aggregate queries
//! per-query; OTIF answers them by scanning tracks.

use crate::is_car;
use crate::metrics::count_accuracy;
use otif_sim::Clip;
use otif_track::Track;
use serde::{Deserialize, Serialize};

/// Aggregate queries over a clip's tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateQuery {
    /// Average number of cars visible per frame.
    AvgVisible,
    /// Unique cars per minute of video (traffic volume).
    TrafficVolume,
    /// Maximum number of cars simultaneously visible.
    PeakOccupancy,
}

impl AggregateQuery {
    /// Evaluate over one clip's extracted tracks.
    pub fn run(&self, tracks: &[Track], num_frames: usize, fps: f32) -> f32 {
        match self {
            AggregateQuery::AvgVisible => {
                if num_frames == 0 {
                    return 0.0;
                }
                // total visible frames across tracks / frames — tracks are
                // interpolated between samples, so a track is "visible"
                // over its whole span
                let visible: usize = tracks
                    .iter()
                    .filter(|t| is_car(t.class))
                    .map(|t| t.last_frame() - t.first_frame() + 1)
                    .sum();
                visible as f32 / num_frames as f32
            }
            AggregateQuery::TrafficVolume => {
                let minutes = num_frames as f32 / fps / 60.0;
                if minutes <= 0.0 {
                    return 0.0;
                }
                tracks.iter().filter(|t| is_car(t.class)).count() as f32 / minutes
            }
            AggregateQuery::PeakOccupancy => {
                // difference array over the frames: +1 at each car
                // track's first frame, −1 after its last
                let mut delta = vec![0isize; num_frames + 1];
                for t in tracks.iter().filter(|t| is_car(t.class) && !t.is_empty()) {
                    if t.first_frame() < num_frames {
                        delta[t.first_frame()] += 1;
                        delta[(t.last_frame() + 1).min(num_frames)] -= 1;
                    }
                }
                let (mut alive, mut peak) = (0isize, 0isize);
                for d in &delta[..num_frames] {
                    alive += d;
                    peak = peak.max(alive);
                }
                peak as f32
            }
        }
    }

    /// Ground-truth value for one clip.
    pub fn ground_truth(&self, clip: &Clip) -> f32 {
        match self {
            AggregateQuery::AvgVisible => {
                let visible: usize = clip
                    .frames
                    .iter()
                    .map(|f| f.objs.iter().filter(|o| is_car(o.class)).count())
                    .sum();
                visible as f32 / clip.num_frames().max(1) as f32
            }
            AggregateQuery::TrafficVolume => {
                let minutes = clip.duration_s() / 60.0;
                if minutes <= 0.0 {
                    return 0.0;
                }
                clip.gt_tracks.iter().filter(|t| is_car(t.class)).count() as f32 / minutes
            }
            AggregateQuery::PeakOccupancy => clip
                .frames
                .iter()
                .map(|f| f.objs.iter().filter(|o| is_car(o.class)).count())
                .fold(0, usize::max) as f32,
        }
    }

    /// Count accuracy averaged over clips.
    pub fn accuracy(&self, tracks_per_clip: &[Vec<Track>], clips: &[Clip]) -> f32 {
        assert_eq!(tracks_per_clip.len(), clips.len());
        let accs: Vec<f32> = tracks_per_clip
            .iter()
            .zip(clips)
            .map(|(ts, clip)| {
                let est = self.run(ts, clip.num_frames(), clip.scene.fps as f32);
                count_accuracy(est, self.ground_truth(clip))
            })
            .collect();
        crate::metrics::mean(&accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_cv::Detection;
    use otif_geom::Rect;
    use otif_sim::{DatasetConfig, DatasetKind, ObjectClass};

    fn det(x: f32) -> Detection {
        Detection {
            rect: Rect::new(x, 50.0, 20.0, 12.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    fn track(id: u32, first: usize, last: usize) -> Track {
        let mut t = Track::new(id, ObjectClass::Car);
        t.push(first, det(first as f32));
        t.push(last, det(last as f32));
        t
    }

    #[test]
    fn avg_visible_counts_spans() {
        // one track covering all 10 frames, one covering half
        let tracks = vec![track(0, 0, 9), track(1, 0, 4)];
        let v = AggregateQuery::AvgVisible.run(&tracks, 10, 10.0);
        assert!((v - 1.5).abs() < 1e-5);
    }

    #[test]
    fn traffic_volume_per_minute() {
        let tracks = vec![track(0, 0, 9), track(1, 0, 9), track(2, 3, 8)];
        // 600 frames at 10 fps = 1 minute
        let v = AggregateQuery::TrafficVolume.run(&tracks, 600, 10.0);
        assert!((v - 3.0).abs() < 1e-5);
    }

    #[test]
    fn peak_occupancy_finds_max_overlap() {
        let tracks = vec![track(0, 0, 5), track(1, 3, 9), track(2, 4, 6)];
        let v = AggregateQuery::PeakOccupancy.run(&tracks, 10, 10.0);
        assert_eq!(v, 3.0); // frames 4-5 have all three alive
    }

    /// The per-frame `alive_at` count the difference array replaced.
    fn oracle_peak(tracks: &[Track], num_frames: usize) -> f32 {
        let mut peak = 0usize;
        for f in 0..num_frames {
            let n = tracks
                .iter()
                .filter(|t| is_car(t.class) && t.alive_at(f))
                .count();
            peak = peak.max(n);
        }
        peak as f32
    }

    proptest::proptest! {
        #[test]
        fn peak_occupancy_matches_per_frame_count(
            specs in proptest::collection::vec((0usize..5, 0usize..40, 0usize..25, 0usize..3), 0..16),
            num_frames in 0usize..50,
        ) {
            // any class (pedestrians are not cars), empty and
            // single-detection tracks, spans past the last frame
            let tracks: Vec<Track> = specs
                .iter()
                .enumerate()
                .map(|(id, &(class, first, len, dets))| {
                    let mut t = Track::new(id as u32, ObjectClass::ALL[class % 4]);
                    if dets > 0 {
                        t.push(first, det(first as f32));
                    }
                    if dets > 1 && len > 0 {
                        t.push(first + len, det((first + len) as f32));
                    }
                    t
                })
                .collect();
            let got = AggregateQuery::PeakOccupancy.run(&tracks, num_frames, 10.0);
            proptest::prop_assert_eq!(got.to_bits(), oracle_peak(&tracks, num_frames).to_bits());
        }
    }

    #[test]
    fn ground_truth_consistent_with_perfect_tracks() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 77).generate();
        let clip = &d.test[0];
        let perfect: Vec<Track> = clip
            .gt_tracks
            .iter()
            .map(|g| {
                let mut t = Track::new(g.id, g.class);
                for (f, r) in &g.states {
                    t.push(
                        *f,
                        Detection {
                            rect: *r,
                            class: g.class,
                            confidence: 0.9,
                            appearance: vec![],
                            debug_gt: None,
                        },
                    );
                }
                t
            })
            .collect();
        for q in [
            AggregateQuery::AvgVisible,
            AggregateQuery::TrafficVolume,
            AggregateQuery::PeakOccupancy,
        ] {
            let est = q.run(&perfect, clip.num_frames(), clip.scene.fps as f32);
            let gt = q.ground_truth(clip);
            assert!(
                count_accuracy(est, gt) > 0.85,
                "{q:?}: est {est} vs gt {gt}"
            );
        }
    }

    #[test]
    fn accuracy_over_split() {
        let d = DatasetConfig::small(DatasetKind::Jackson, 78).generate();
        let perfect: Vec<Vec<Track>> = d
            .test
            .iter()
            .map(|clip| {
                clip.gt_tracks
                    .iter()
                    .map(|g| {
                        let mut t = Track::new(g.id, g.class);
                        for (f, r) in &g.states {
                            t.push(
                                *f,
                                Detection {
                                    rect: *r,
                                    class: g.class,
                                    confidence: 0.9,
                                    appearance: vec![],
                                    debug_gt: None,
                                },
                            );
                        }
                        t
                    })
                    .collect()
            })
            .collect();
        let acc = AggregateQuery::TrafficVolume.accuracy(&perfect, &d.test);
        assert!(acc > 0.9, "volume accuracy with perfect tracks {acc}");
    }
}
