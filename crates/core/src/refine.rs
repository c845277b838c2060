//! Cluster-based track refinement (§3.4, "Refinement").
//!
//! Tracks extracted at low sampling rates start and end offset from the
//! object's true entry/exit, which breaks spatial predicates on track
//! endpoints (e.g. turning-movement counts). Instead of decoding extra
//! frames (Miris), OTIF estimates the true start/end from *similar tracks*
//! seen in the training set:
//!
//! 1. training tracks are resampled to `N = 20` points and clustered with
//!    DBSCAN under the average-corresponding-point distance;
//! 2. cluster centers (pointwise mean paths) are indexed spatially by
//!    their endpoints;
//! 3. at execution time, the `k = 10` nearest clusters to a track are
//!    found via the index, and the track is extended with the
//!    cluster-size-weighted median of their start and end points.
//!
//! Refinement applies to fixed cameras only.

use otif_cv::Detection;
use otif_geom::{dbscan, DbscanParams, GridIndex, Point, Polyline};
use otif_track::Track;

/// Number of resample points per track path (the paper's N).
pub const RESAMPLE_N: usize = 20;

/// Number of nearest clusters consulted per refinement (the paper's k).
pub const KNN_K: usize = 10;

/// A cluster of similar training-set track paths.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PathCluster {
    /// Pointwise-mean path of the member tracks (N points).
    pub center: Polyline,
    /// Number of member tracks (the weight used in the median).
    pub size: usize,
}

/// The prebuilt refinement index.
pub struct RefineIndex {
    /// All path clusters (DBSCAN groups plus noise singletons).
    pub clusters: Vec<PathCluster>,
    /// Spatial index over cluster-center endpoints → cluster id.
    endpoint_index: GridIndex<usize>,
}

impl RefineIndex {
    /// Build the index from θ_best training-set tracks.
    ///
    /// `eps` defaults to 3.5 % of the frame diagonal when `None` — tight
    /// enough that the distinct turning movements of a compact junction
    /// stay in separate clusters (merging them blends unrelated paths and
    /// refinement then actively misleads path classification).
    pub fn build(tracks: &[Track], frame_w: f32, frame_h: f32, eps: Option<f32>) -> RefineIndex {
        let eps = eps.unwrap_or_else(|| (frame_w * frame_w + frame_h * frame_h).sqrt() * 0.035);
        let paths: Vec<Polyline> = tracks
            .iter()
            .filter(|t| t.len() >= 2)
            .map(|t| t.center_polyline().resample(RESAMPLE_N))
            .collect();

        let result = dbscan(paths.len(), DbscanParams { eps, min_pts: 2 }, |i, j| {
            paths[i].avg_point_distance(&paths[j])
        });

        let mut clusters = Vec::new();
        for member_ids in result.clusters() {
            let members: Vec<&Polyline> = member_ids.iter().map(|&i| &paths[i]).collect();
            clusters.push(PathCluster {
                center: Polyline::mean(&members),
                size: members.len(),
            });
        }
        // noise tracks become singleton clusters so rare paths still
        // contribute candidates
        for i in result.noise() {
            clusters.push(PathCluster {
                center: paths[i].clone(),
                size: 1,
            });
        }

        Self::from_clusters(clusters, frame_w, frame_h)
    }

    /// Rebuild the spatial index from (possibly deserialized) clusters.
    pub fn from_clusters(clusters: Vec<PathCluster>, frame_w: f32, frame_h: f32) -> RefineIndex {
        let mut endpoint_index = GridIndex::new(frame_w.max(1.0), frame_h.max(1.0), 48.0);
        for (ci, c) in clusters.iter().enumerate() {
            endpoint_index.insert(c.center.first(), ci);
            endpoint_index.insert(c.center.last(), ci);
        }
        RefineIndex {
            clusters,
            endpoint_index,
        }
    }

    /// Directed chamfer distance from the (partial) track path to a
    /// cluster center: mean over track points of the distance to the
    /// nearest center point. A low-rate track covers a sub-segment of the
    /// full path, so the symmetric §3.4 metric would over-penalize.
    ///
    /// The loop runs center point by center point over all track points
    /// at once, on squared distances, with one `sqrt` per track point at
    /// the end. Both are exact: `f32::min` over the same values gives the
    /// same minimum in any order (squared distances are never `-0.0`),
    /// and `sqrt` is monotone, so the root of the minimum is the minimum
    /// of the distances.
    fn track_to_center_dist(path: &PathAxes, center: &Polyline) -> f32 {
        let mut nearest = [f32::INFINITY; RESAMPLE_N];
        for q in &center.points {
            for ((m, x), y) in nearest.iter_mut().zip(&path.xs).zip(&path.ys) {
                let (dx, dy) = (x - q.x, y - q.y);
                *m = m.min(dx * dx + dy * dy);
            }
        }
        let sum: f32 = nearest.iter().map(|m| m.sqrt()).sum();
        sum / RESAMPLE_N as f32
    }

    /// The k nearest clusters to a track (by directed chamfer distance),
    /// pre-filtered through the endpoint index.
    pub fn nearest_clusters(&self, track: &Track, k: usize) -> Vec<(usize, f32)> {
        if self.clusters.is_empty() || track.is_empty() {
            return Vec::new();
        }
        let path = PathAxes::new(&track.center_polyline());
        self.nearest_to_path(&path, k, &mut Vec::new())
    }

    /// [`Self::nearest_clusters`] for a track path. `memo` holds the
    /// chamfer distances already computed for this path, by cluster, and
    /// gains the new ones.
    fn nearest_to_path(
        &self,
        path: &PathAxes,
        k: usize,
        memo: &mut Vec<(usize, f32)>,
    ) -> Vec<(usize, f32)> {
        // candidate clusters near either endpoint of the track
        let mut cand: Vec<usize> = Vec::new();
        let n = RESAMPLE_N - 1;
        for p in [
            Point::new(path.xs[0], path.ys[0]),
            Point::new(path.xs[n], path.ys[n]),
        ] {
            for (_, ci) in self.endpoint_index.knn(&p, k * 3) {
                cand.push(ci);
            }
        }
        cand.sort_unstable();
        cand.dedup();
        let mut scored: Vec<(usize, f32)> = cand
            .into_iter()
            .map(|ci| match memo.iter().find(|(c, _)| *c == ci) {
                Some(&hit) => hit,
                None => {
                    let d = Self::track_to_center_dist(path, &self.clusters[ci].center);
                    memo.push((ci, d));
                    (ci, d)
                }
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        // Drop clusters far worse than the best match: with few clusters,
        // a fixed k would otherwise pull unrelated paths into the median.
        if let Some(&(_, best)) = scored.first() {
            let cutoff = (best * 2.5).max(16.0);
            scored.retain(|&(_, d)| d <= cutoff);
        }
        scored
    }

    /// Estimated true (start, end) for a track: weighted medians over the
    /// nearest clusters' endpoints, with cluster sizes as weights. Each
    /// cluster center is oriented to match the track's direction first.
    pub fn estimate_endpoints(&self, track: &Track) -> Option<(Point, Point)> {
        let near = self.nearest_clusters(track, KNN_K);
        if near.is_empty() {
            return None;
        }
        Some(self.endpoints_of(&near, &track.center_polyline()))
    }

    /// [`Self::estimate_endpoints`] given the nearest clusters and the
    /// track's center polyline `tp`.
    fn endpoints_of(&self, near: &[(usize, f32)], tp: &Polyline) -> (Point, Point) {
        let (tstart, tend) = (tp.first(), tp.last());
        let mut starts: Vec<(Point, f32)> = Vec::new();
        let mut ends: Vec<(Point, f32)> = Vec::new();
        for (ci, _) in near {
            let c = &self.clusters[*ci];
            let (mut s, mut e) = (c.center.first(), c.center.last());
            // orient the cluster to the track's travel direction
            if s.dist(&tstart) + e.dist(&tend) > s.dist(&tend) + e.dist(&tstart) {
                std::mem::swap(&mut s, &mut e);
            }
            starts.push((s, c.size as f32));
            ends.push((e, c.size as f32));
        }
        (weighted_median(&starts), weighted_median(&ends))
    }

    /// Extend a track's first/last detections toward the estimated true
    /// endpoints (§3.4, Figure 4): synthetic detections are prepended/
    /// appended at the estimated entry and exit positions.
    ///
    /// Refinement is skipped when no cluster matches the track closely —
    /// extending toward an unrelated path's endpoints is worse than
    /// leaving the track alone.
    ///
    /// Equals the gate `nearest_clusters(track, 1)` followed by
    /// `estimate_endpoints(track)`, with the track's polyline and its
    /// resample built once and each cluster's chamfer distance computed
    /// once.
    pub fn refine(&self, track: &mut Track) {
        if track.len() < 2 || self.clusters.is_empty() {
            return;
        }
        let tp = track.center_polyline();
        let path = PathAxes::new(&tp);
        let mut memo = Vec::new();
        // confidence gate: the nearest cluster must actually resemble
        // this track
        match self.nearest_to_path(&path, 1, &mut memo).first() {
            Some(&(_, d)) if d <= 40.0 => {}
            _ => return,
        }
        let near = self.nearest_to_path(&path, KNN_K, &mut memo);
        if near.is_empty() {
            return;
        }
        let (start, end) = self.endpoints_of(&near, &tp);
        let first = track.dets.first().unwrap().clone();
        let last = track.dets.last().unwrap().clone();

        let mk = |template: &Detection, at: Point| -> Detection {
            let mut d = template.clone();
            d.rect = otif_geom::Rect::new(
                at.x - template.rect.w / 2.0,
                at.y - template.rect.h / 2.0,
                template.rect.w,
                template.rect.h,
            );
            d.confidence *= 0.5; // synthetic extension, lower confidence
            d
        };

        // Travel direction at the track's ends (for direction checks:
        // the estimated start must lie behind the first detection and
        // the estimated end ahead of the last one).
        let fc = first.1.rect.center();
        let lc = last.1.rect.center();
        let dir_in = track.dets.get(1).map(|(_, d)| d.rect.center() - fc);
        let dir_out = track
            .dets
            .get(track.len().wrapping_sub(2))
            .map(|(_, d)| lc - d.rect.center());

        // Only extend when the estimate is meaningfully beyond the track.
        let speed = track.mean_speed().max(1.0);
        let behind = dir_in
            .map(|d| (start - fc).dot(&d) <= 0.0 || d.norm() < 1e-3)
            .unwrap_or(true);
        if behind && start.dist(&fc) > speed {
            let gap_frames = (start.dist(&fc) / speed).ceil() as usize;
            let new_frame = first.0.saturating_sub(gap_frames.max(1));
            if new_frame < first.0 {
                track.dets.insert(0, (new_frame, mk(&first.1, start)));
            }
        }
        let ahead = dir_out
            .map(|d| (end - lc).dot(&d) >= 0.0 || d.norm() < 1e-3)
            .unwrap_or(true);
        if ahead && end.dist(&lc) > speed {
            let gap_frames = (end.dist(&lc) / speed).ceil() as usize;
            track
                .dets
                .push((last.0 + gap_frames.max(1), mk(&last.1, end)));
        }
    }
}

/// A track's center path resampled to `RESAMPLE_N` points, with the
/// coordinates split by axis: the layout the chamfer loop vectorizes
/// over.
struct PathAxes {
    xs: [f32; RESAMPLE_N],
    ys: [f32; RESAMPLE_N],
}

impl PathAxes {
    fn new(center_path: &Polyline) -> Self {
        let mut path = PathAxes {
            xs: [0.0; RESAMPLE_N],
            ys: [0.0; RESAMPLE_N],
        };
        for (i, p) in center_path.resample(RESAMPLE_N).points.iter().enumerate() {
            (path.xs[i], path.ys[i]) = (p.x, p.y);
        }
        path
    }
}

/// Per-dimension weighted median of points.
fn weighted_median(pts: &[(Point, f32)]) -> Point {
    let med = |vals: &mut Vec<(f32, f32)>| -> f32 {
        vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let total: f32 = vals.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        for (v, w) in vals.iter() {
            acc += w;
            if acc >= total / 2.0 {
                return *v;
            }
        }
        vals.last().map(|(v, _)| *v).unwrap_or(0.0)
    };
    let mut xs: Vec<(f32, f32)> = pts.iter().map(|(p, w)| (p.x, *w)).collect();
    let mut ys: Vec<(f32, f32)> = pts.iter().map(|(p, w)| (p.y, *w)).collect();
    Point::new(med(&mut xs), med(&mut ys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_geom::Rect;
    use otif_sim::ObjectClass;

    fn det(x: f32, y: f32) -> Detection {
        Detection {
            rect: Rect::new(x - 10.0, y - 6.0, 20.0, 12.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    /// Training tracks: `n` near-identical paths from (0,100) to (383,100)
    /// and `n` from (190,0) to (190,223).
    fn training_tracks(n: usize) -> Vec<Track> {
        let mut out = Vec::new();
        let mut id = 0;
        for i in 0..n {
            let y = 100.0 + i as f32 * 2.0;
            let mut t = Track::new(id, ObjectClass::Car);
            id += 1;
            for f in 0..20usize {
                t.push(f, det(f as f32 * 20.0, y));
            }
            out.push(t);
            let x = 190.0 + i as f32 * 2.0;
            let mut t = Track::new(id, ObjectClass::Car);
            id += 1;
            for f in 0..20usize {
                t.push(f, det(x, f as f32 * 11.0));
            }
            out.push(t);
        }
        out
    }

    #[test]
    fn build_clusters_similar_paths() {
        let idx = RefineIndex::build(&training_tracks(5), 384.0, 224.0, None);
        // two dominant clusters (horizontal + vertical paths)
        let big = idx.clusters.iter().filter(|c| c.size >= 4).count();
        assert_eq!(
            big,
            2,
            "clusters: {:?}",
            idx.clusters.iter().map(|c| c.size).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nearest_cluster_matches_track_shape() {
        let idx = RefineIndex::build(&training_tracks(5), 384.0, 224.0, None);
        // a partial horizontal track in the middle of the frame
        let mut t = Track::new(99, ObjectClass::Car);
        for f in 0..5usize {
            t.push(f * 4, det(120.0 + f as f32 * 40.0, 102.0));
        }
        let near = idx.nearest_clusters(&t, 1);
        assert_eq!(near.len(), 1);
        let c = &idx.clusters[near[0].0];
        // center should be roughly horizontal at y≈104
        assert!((c.center.first().y - c.center.last().y).abs() < 20.0);
    }

    #[test]
    fn refine_extends_partial_track_to_path_endpoints() {
        let idx = RefineIndex::build(&training_tracks(5), 384.0, 224.0, None);
        // partial track covering only the middle third of the horizontal
        // path (as a gap-sampled track would)
        let mut t = Track::new(99, ObjectClass::Car);
        for f in 0..5usize {
            t.push(10 + f * 4, det(120.0 + f as f32 * 30.0, 102.0));
        }
        let before_start = t.dets.first().unwrap().1.rect.center().x;
        let before_end = t.dets.last().unwrap().1.rect.center().x;
        idx.refine(&mut t);
        let after_start = t.dets.first().unwrap().1.rect.center().x;
        let after_end = t.dets.last().unwrap().1.rect.center().x;
        assert!(
            after_start < before_start - 50.0,
            "start {before_start} -> {after_start}"
        );
        assert!(
            after_end > before_end + 50.0,
            "end {before_end} -> {after_end}"
        );
        // frames remain strictly increasing
        assert!(t.dets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn refine_leaves_full_track_mostly_alone() {
        let idx = RefineIndex::build(&training_tracks(5), 384.0, 224.0, None);
        // a track already spanning the full horizontal path
        let mut t = Track::new(99, ObjectClass::Car);
        for f in 0..20usize {
            t.push(f, det(f as f32 * 20.0, 102.0));
        }
        let len_before = t.len();
        let start_before = t.dets.first().unwrap().1.rect.center();
        idx.refine(&mut t);
        let start_after = t.dets.first().unwrap().1.rect.center();
        assert!(
            start_after.dist(&start_before) < 30.0,
            "full track start moved {} px",
            start_after.dist(&start_before)
        );
        assert!(t.len() <= len_before + 2);
    }

    #[test]
    fn empty_index_is_a_noop() {
        let idx = RefineIndex::build(&[], 384.0, 224.0, None);
        let mut t = Track::new(0, ObjectClass::Car);
        t.push(0, det(10.0, 10.0));
        t.push(4, det(50.0, 10.0));
        let before = t.clone().dets;
        idx.refine(&mut t);
        assert_eq!(t.dets.len(), before.len());
    }

    #[test]
    fn weighted_median_respects_weights() {
        let pts = vec![
            (Point::new(0.0, 0.0), 1.0),
            (Point::new(10.0, 10.0), 10.0),
            (Point::new(20.0, 20.0), 1.0),
        ];
        let m = weighted_median(&pts);
        assert_eq!(m, Point::new(10.0, 10.0));
    }

    #[test]
    fn reversed_direction_cluster_is_oriented() {
        // training tracks run left→right; query track runs right→left
        let idx = RefineIndex::build(&training_tracks(5), 384.0, 224.0, None);
        let mut t = Track::new(99, ObjectClass::Car);
        for f in 0..5usize {
            t.push(f * 4, det(260.0 - f as f32 * 30.0, 102.0));
        }
        let (start, end) = idx.estimate_endpoints(&t).unwrap();
        // estimated start should be on the right, end on the left
        assert!(start.x > end.x, "start {start:?} end {end:?}");
    }
}
