//! Object track queries (§4.1) plus the hard-braking example from §3.

use crate::is_car;
use crate::metrics::{count_accuracy, mean};
use otif_geom::Polyline;
use otif_sim::{Clip, SceneSpec};
use otif_track::Track;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A canonical spatial path pattern for path-breakdown queries: tracks
/// are classified to the nearest pattern's polyline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathPattern {
    /// Pattern identifier (e.g. `"north->south"`).
    pub id: String,
    /// Resampled canonical path (N points).
    pub path: Polyline,
}

const PATTERN_N: usize = 20;

impl PathPattern {
    /// Derive patterns from a scene's path graph, merging per-lane
    /// variants (ids that differ only after a `-l` suffix — highway
    /// lanes) into one directional pattern.
    pub fn from_scene(scene: &SceneSpec) -> Vec<PathPattern> {
        let mut groups: HashMap<String, Vec<Polyline>> = HashMap::new();
        for p in &scene.paths {
            let base =
                p.id.split_once("-l")
                    .map(|(b, _)| b.to_string())
                    .unwrap_or_else(|| p.id.clone());
            groups
                .entry(base)
                .or_default()
                .push(p.route.resample(PATTERN_N));
        }
        let mut out: Vec<PathPattern> = groups
            .into_iter()
            .map(|(id, lines)| {
                let refs: Vec<&Polyline> = lines.iter().collect();
                PathPattern {
                    id,
                    path: Polyline::mean(&refs),
                }
            })
            .collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// Distance from a (possibly partial) track path to this pattern.
    ///
    /// Tracks often cover only part of a pattern — objects enter or leave
    /// at clip boundaries, or are captured at a high sampling gap — so
    /// endpoint-aligned comparison over-penalizes. Instead we use the
    /// *directed chamfer* distance (mean distance from track points to the
    /// nearest pattern points), rejecting tracks that traverse the pattern
    /// in the opposite direction.
    pub fn distance(&self, track_path: &Polyline) -> f32 {
        let tp = track_path.resample(PATTERN_N);
        // nearest pattern index for the track's first and last points
        let nearest_idx = |p: &otif_geom::Point| -> usize {
            let mut best = 0;
            let mut bd = f32::INFINITY;
            for (i, q) in self.path.points.iter().enumerate() {
                let d = p.dist(q);
                if d < bd {
                    bd = d;
                    best = i;
                }
            }
            best
        };
        let i0 = nearest_idx(&tp.first());
        let i1 = nearest_idx(&tp.last());
        if i1 <= i0 && tp.first().dist(&tp.last()) > 1.0 {
            return f32::INFINITY; // wrong direction along the pattern
        }
        let chamfer: f32 = tp
            .points
            .iter()
            .map(|p| {
                self.path
                    .points
                    .iter()
                    .map(|q| p.dist(q))
                    .fold(f32::INFINITY, f32::min)
            })
            .sum::<f32>()
            / tp.points.len() as f32;
        chamfer
    }
}

/// Classify a track to the nearest pattern index, or `None` if no pattern
/// is within `max_dist`.
pub fn classify_track(track: &Track, patterns: &[PathPattern], max_dist: f32) -> Option<usize> {
    if track.len() < 2 {
        return None;
    }
    let path = track.center_polyline().resample(PATTERN_N);
    let mut best: Option<(usize, f32)> = None;
    for (i, p) in patterns.iter().enumerate() {
        let d = p.distance(&path);
        if d <= max_dist && best.map(|(_, bd)| d < bd).unwrap_or(true) {
            best = Some((i, d));
        }
    }
    best.map(|(i, _)| i)
}

/// Object track queries over extracted tracks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TrackQuery {
    /// Number of unique cars per clip (Amsterdam, Jackson).
    Count,
    /// Counts of car tracks per spatial pattern (the other 5 datasets).
    /// `max_dist` is the classification rejection radius in native px.
    PathBreakdown {
        /// Canonical path patterns to count against.
        patterns: Vec<PathPattern>,
        /// Classification rejection radius in native px.
        max_dist: f32,
    },
    /// Cars decelerating by at least `decel` px/s² between consecutive
    /// samples (example query 1 from §3).
    HardBraking {
        /// Minimum deceleration in px/s².
        decel: f32,
    },
}

impl TrackQuery {
    /// A path-breakdown query over a scene's canonical patterns.
    pub fn path_breakdown(scene: &SceneSpec) -> TrackQuery {
        let diag = ((scene.width * scene.width + scene.height * scene.height) as f32).sqrt();
        TrackQuery::PathBreakdown {
            patterns: PathPattern::from_scene(scene),
            max_dist: diag * 0.22,
        }
    }

    /// Execute over one clip's extracted tracks, producing the count
    /// vector the query reports (one entry for `Count`/`HardBraking`,
    /// one per pattern for `PathBreakdown`).
    pub fn run(&self, tracks: &[Track], fps: f32) -> Vec<f32> {
        match self {
            TrackQuery::Count => {
                vec![tracks.iter().filter(|t| is_car(t.class)).count() as f32]
            }
            TrackQuery::PathBreakdown { patterns, max_dist } => {
                let mut counts = vec![0.0; patterns.len()];
                for t in tracks.iter().filter(|t| is_car(t.class)) {
                    if let Some(i) = classify_track(t, patterns, *max_dist) {
                        counts[i] += 1.0;
                    }
                }
                counts
            }
            TrackQuery::HardBraking { decel } => {
                let n = tracks
                    .iter()
                    .filter(|t| is_car(t.class))
                    .filter(|t| {
                        let v = t.interval_speeds(fps);
                        t.dets.windows(2).zip(v.windows(2)).any(|(d, vv)| {
                            let dt = (d[1].0 - d[0].0) as f32 / fps;
                            dt > 0.0 && (vv[0] - vv[1]) / dt >= *decel
                        })
                    })
                    .count();
                vec![n as f32]
            }
        }
    }

    /// Ground-truth counts for one clip.
    pub fn ground_truth(&self, clip: &Clip) -> Vec<f32> {
        let fps = clip.scene.fps as f32;
        match self {
            TrackQuery::Count => {
                vec![clip.gt_tracks.iter().filter(|t| is_car(t.class)).count() as f32]
            }
            TrackQuery::PathBreakdown { patterns, .. } => {
                // ground truth classifies by the *actual* path id
                let mut counts = vec![0.0; patterns.len()];
                for t in clip.gt_tracks.iter().filter(|t| is_car(t.class)) {
                    let base = t
                        .path_id
                        .split_once("-l")
                        .map(|(b, _)| b.to_string())
                        .unwrap_or_else(|| t.path_id.clone());
                    if let Some(i) = patterns.iter().position(|p| p.id == base) {
                        counts[i] += 1.0;
                    }
                }
                counts
            }
            TrackQuery::HardBraking { .. } => {
                let n = clip
                    .gt_tracks
                    .iter()
                    .filter(|t| is_car(t.class) && t.braked_hard)
                    .count();
                let _ = fps;
                vec![n as f32]
            }
        }
    }

    /// The paper's accuracy over a split: percent accuracy averaged over
    /// clips and, for path breakdowns, path types.
    pub fn accuracy(&self, tracks_per_clip: &[Vec<Track>], clips: &[Clip]) -> f32 {
        assert_eq!(tracks_per_clip.len(), clips.len());
        let mut per_clip = Vec::with_capacity(clips.len());
        for (tracks, clip) in tracks_per_clip.iter().zip(clips) {
            let est = self.run(tracks, clip.scene.fps as f32);
            let gt = self.ground_truth(clip);
            let accs: Vec<f32> = est
                .iter()
                .zip(&gt)
                .map(|(e, g)| count_accuracy(*e, *g))
                .collect();
            per_clip.push(mean(&accs));
        }
        mean(&per_clip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_cv::Detection;
    use otif_geom::Rect;
    use otif_sim::{DatasetConfig, DatasetKind, ObjectClass};

    fn det(x: f32, y: f32) -> Detection {
        Detection {
            rect: Rect::new(x - 10.0, y - 6.0, 20.0, 12.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    fn track(id: u32, pts: &[(usize, f32, f32)]) -> Track {
        let mut t = Track::new(id, ObjectClass::Car);
        for &(f, x, y) in pts {
            t.push(f, det(x, y));
        }
        t
    }

    #[test]
    fn count_query_counts_cars_not_pedestrians() {
        let mut ped = track(3, &[(0, 0.0, 0.0), (5, 10.0, 0.0)]);
        ped.class = ObjectClass::Pedestrian;
        let tracks = vec![
            track(1, &[(0, 0.0, 0.0), (5, 50.0, 0.0)]),
            track(2, &[(0, 0.0, 100.0), (5, 50.0, 100.0)]),
            ped,
        ];
        assert_eq!(TrackQuery::Count.run(&tracks, 10.0), vec![2.0]);
    }

    #[test]
    fn patterns_merge_highway_lanes() {
        let scene = DatasetKind::Caldot1.scene();
        let pats = PathPattern::from_scene(&scene);
        assert_eq!(pats.len(), 2, "caldot lanes merge into 2 directions");
        let ids: Vec<&str> = pats.iter().map(|p| p.id.as_str()).collect();
        assert!(ids.contains(&"west->east"));
        assert!(ids.contains(&"east->west"));
    }

    #[test]
    fn tokyo_patterns_keep_ten_directions() {
        let scene = DatasetKind::Tokyo.scene();
        assert_eq!(PathPattern::from_scene(&scene).len(), 10);
    }

    #[test]
    fn classification_picks_matching_direction() {
        let scene = DatasetKind::Caldot1.scene();
        let pats = PathPattern::from_scene(&scene);
        // a west→east track along y≈123
        let t = track(
            1,
            &[(0, 10.0, 120.0), (10, 150.0, 123.0), (20, 300.0, 126.0)],
        );
        let i = classify_track(&t, &pats, 100.0).expect("classified");
        assert_eq!(pats[i].id, "west->east");
        // reversed direction
        let t = track(2, &[(0, 300.0, 92.0), (10, 150.0, 88.0), (20, 10.0, 84.0)]);
        let i = classify_track(&t, &pats, 100.0).expect("classified");
        assert_eq!(pats[i].id, "east->west");
    }

    #[test]
    fn classification_rejects_far_tracks() {
        let scene = DatasetKind::Caldot1.scene();
        let pats = PathPattern::from_scene(&scene);
        // vertical track unlike either direction
        let t = track(1, &[(0, 200.0, 0.0), (10, 200.0, 220.0)]);
        assert!(classify_track(&t, &pats, 30.0).is_none());
    }

    #[test]
    fn perfect_tracks_give_high_path_breakdown_accuracy() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 51).generate();
        let q = TrackQuery::path_breakdown(&d.scene);
        // feed ground-truth tracks as if they were extracted
        let tracks_per_clip: Vec<Vec<Track>> = d
            .test
            .iter()
            .map(|c| {
                c.gt_tracks
                    .iter()
                    .map(|g| {
                        let mut t = Track::new(g.id, g.class);
                        for (f, r) in &g.states {
                            t.push(*f, det(r.center().x, r.center().y));
                        }
                        t
                    })
                    .collect()
            })
            .collect();
        let acc = q.accuracy(&tracks_per_clip, &d.test);
        assert!(acc > 0.85, "accuracy with perfect tracks = {acc}");
    }

    #[test]
    fn hard_braking_detects_sharp_deceleration() {
        // 100 px/s for 1 s, then crawling: decel ≈ 90 px/s over 1 s
        let braking = track(1, &[(0, 0.0, 0.0), (10, 100.0, 0.0), (20, 110.0, 0.0)]);
        let steady = track(2, &[(0, 0.0, 50.0), (10, 100.0, 50.0), (20, 200.0, 50.0)]);
        let q = TrackQuery::HardBraking { decel: 50.0 };
        assert_eq!(q.run(&[braking, steady], 10.0), vec![1.0]);
    }

    #[test]
    fn ground_truth_hard_braking_uses_sim_flag() {
        let mut d = DatasetConfig::small(DatasetKind::Caldot1, 52);
        d.scale = otif_sim::DatasetScale::TINY;
        let data = d.generate();
        let q = TrackQuery::HardBraking { decel: 50.0 };
        for clip in &data.test {
            let gt = q.ground_truth(clip);
            let braked = clip
                .gt_tracks
                .iter()
                .filter(|t| t.braked_hard && is_car(t.class))
                .count() as f32;
            assert_eq!(gt, vec![braked]);
        }
    }

    #[test]
    fn accuracy_penalizes_overcounting() {
        let d = DatasetConfig::small(DatasetKind::Jackson, 53).generate();
        let q = TrackQuery::Count;
        // doubled tracks: each gt track twice
        let doubled: Vec<Vec<Track>> = d
            .test
            .iter()
            .map(|c| {
                c.gt_tracks
                    .iter()
                    .flat_map(|g| {
                        (0..2u32).map(move |k| {
                            let mut t = Track::new(g.id * 2 + k, g.class);
                            for (f, r) in &g.states {
                                t.push(*f, det(r.center().x, r.center().y));
                            }
                            t
                        })
                    })
                    .collect()
            })
            .collect();
        let exact: Vec<Vec<Track>> = d
            .test
            .iter()
            .map(|c| {
                c.gt_tracks
                    .iter()
                    .map(|g| {
                        let mut t = Track::new(g.id, g.class);
                        for (f, r) in &g.states {
                            t.push(*f, det(r.center().x, r.center().y));
                        }
                        t
                    })
                    .collect()
            })
            .collect();
        assert!(q.accuracy(&doubled, &d.test) < q.accuracy(&exact, &d.test));
    }
}
