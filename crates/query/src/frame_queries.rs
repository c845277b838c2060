//! Frame-level limit queries (§4.2).
//!
//! Count / region / hot-spot queries select video frames whose objects
//! satisfy a predicate, returning up to `limit` frames at least 5 seconds
//! apart. OTIF answers them by post-processing extracted tracks: object
//! positions at arbitrary frames are interpolated from track detections
//! (no decoding or inference), and candidate frames are ranked by the
//! minimum duration of the visible tracks, as in §4.2's execution
//! details.

use otif_geom::{Point, Polygon};
use otif_sim::{Clip, ObjectClass};
use otif_track::Track;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// The predicate of a frame-level query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FrameQueryKind {
    /// At least `n` objects anywhere in the frame (UAV, Tokyo).
    Count,
    /// At least `n` objects inside the polygon (Jackson, Caldot1).
    Region(Polygon),
    /// At least `n` objects within a circle of radius `radius` around
    /// some object (Warsaw, Amsterdam).
    HotSpot {
        /// Cluster radius in native px.
        radius: f32,
    },
}

/// A frame-level limit query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameLimitQuery {
    /// The predicate.
    pub kind: FrameQueryKind,
    /// Minimum number of objects satisfying the predicate.
    pub n: usize,
    /// Desired output cardinality (the paper uses 25 or 50).
    pub limit: usize,
    /// Minimum separation between output frames in seconds (paper: 5 s).
    pub min_separation_s: f32,
}

/// A query output: a clip and frame index ("clip filename and
/// timestamp").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameRef {
    /// Clip index within the split.
    pub clip: usize,
    /// Frame index within the clip.
    pub frame: usize,
}

/// One clip's contribution to a frame-limit query: the clip id, its
/// frame rate, and the `(min_track_duration, frame)` matches from
/// [`FrameLimitQuery::clip_matches`].
pub type ClipMatches = (usize, f32, Vec<(usize, usize)>);

fn is_car(class: ObjectClass) -> bool {
    matches!(
        class,
        ObjectClass::Car | ObjectClass::Truck | ObjectClass::Bus
    )
}

impl FrameLimitQuery {
    /// Does a set of object positions satisfy the predicate?
    pub fn positions_match(&self, positions: &[Point]) -> bool {
        match &self.kind {
            FrameQueryKind::Count => positions.len() >= self.n,
            FrameQueryKind::Region(poly) => {
                positions.iter().filter(|p| poly.contains(p)).count() >= self.n
            }
            FrameQueryKind::HotSpot { radius } => positions
                .iter()
                .any(|c| positions.iter().filter(|p| p.dist(c) <= *radius).count() >= self.n),
        }
    }

    /// Matching frames of one clip, as `(min visible-track duration,
    /// frame)` in frame order. This is the per-clip half of
    /// [`execute_on_tracks`](Self::execute_on_tracks): it depends only on
    /// the clip's own tracks and frame count, so clips can be evaluated
    /// independently (in parallel, or skipped entirely when an index
    /// proves no frame can match) and merged with
    /// [`select_frames`](Self::select_frames).
    ///
    /// A car track is visible over its whole span, at positions
    /// interpolated between its sampled detections. One forward sweep
    /// over the frames keeps the visible tracks in an active list: a
    /// track enters at its first frame, leaves after its last, and keeps
    /// a cursor on its last detection at or before the current frame.
    /// The cursor lands where [`Track::center_at`]'s binary search does
    /// and both interpolate through [`Track::center_from`], so positions
    /// are bitwise those of a per-frame probe of every track; every
    /// predicate is a count, an `any` or a `min`, so the order of the
    /// active list does not matter either.
    pub fn clip_matches(&self, tracks: &[Track], num_frames: usize) -> Vec<(usize, usize)> {
        let mut spans: Vec<&Track> = tracks
            .iter()
            .filter(|t| is_car(t.class) && !t.is_empty())
            .collect();
        spans.sort_unstable_by_key(|t| t.first_frame());
        let mut entering = spans.into_iter().peekable();
        // (track, last frame, duration, detection cursor)
        let mut active: Vec<(&Track, usize, usize, usize)> = Vec::new();
        let mut pts: Vec<Point> = Vec::new();
        let mut out = Vec::new();
        for f in 0..num_frames {
            while let Some(t) = entering.next_if(|t| t.first_frame() <= f) {
                active.push((t, t.last_frame(), t.last_frame() - t.first_frame(), 0));
            }
            active.retain(|a| a.1 >= f);
            let hit = match &self.kind {
                FrameQueryKind::Count => active.len() >= self.n,
                _ => {
                    pts.clear();
                    for (t, _, _, cursor) in active.iter_mut() {
                        while *cursor + 1 < t.dets.len() && t.dets[*cursor + 1].0 <= f {
                            *cursor += 1;
                        }
                        pts.push(t.center_from(*cursor, f));
                    }
                    self.positions_match(&pts)
                }
            };
            if hit {
                let min_dur = active.iter().map(|a| a.2).min().unwrap_or(0);
                out.push((min_dur, f));
            }
        }
        out
    }

    /// The cross-clip half of [`execute_on_tracks`](Self::execute_on_tracks):
    /// merge per-clip match lists (each tagged with its clip id and frame
    /// rate) into the final ranked, separation-constrained output.
    ///
    /// `per_clip` entries must be in ascending clip-id order, one entry
    /// per clip, with frames in ascending order (as produced by
    /// [`clip_matches`](Self::clip_matches)); clips with no possible
    /// matches may simply be absent — the output is identical to passing
    /// them with empty match lists.
    ///
    /// Matches are ranked by highest minimum duration, then clip, then
    /// frame, and taken greedily unless an already-taken frame of the
    /// same clip lies closer than the separation.
    ///
    /// A clip's matches come in frame order, and consecutive ones mostly
    /// share their duration (it changes only when a track enters or
    /// leaves), so the ranking sorts runs of equal duration rather than
    /// single matches: runs ordered by (highest duration, clip, first
    /// frame), each expanded in frame order, are exactly the matches
    /// ordered by (highest duration, clip, frame). Expansion stops once
    /// `limit` frames are taken. The taken frames of each clip are kept
    /// sorted, so only the nearest one on either side needs checking.
    pub fn select_frames(&self, per_clip: &[ClipMatches]) -> Vec<FrameRef> {
        let mut out: Vec<FrameRef> = Vec::new();
        if self.limit == 0 {
            return out;
        }
        // (min_dur, clip, run, index into per_clip)
        let mut runs: Vec<_> = per_clip
            .iter()
            .enumerate()
            .flat_map(|(i, (clip, _, ms))| {
                ms.chunk_by(|a, b| a.0 == b.0)
                    .map(move |run| (run[0].0, *clip, run, i))
            })
            .collect();
        runs.sort_unstable_by_key(|&(min_dur, clip, run, _)| (Reverse(min_dur), clip, run[0].1));

        let mut taken: Vec<Vec<usize>> = vec![Vec::new(); per_clip.len()];
        for (_, clip, run, i) in runs {
            let sep = (self.min_separation_s * per_clip[i].1) as usize;
            let frames = &mut taken[i];
            for &(_, frame) in run {
                let pos = frames.partition_point(|&o| o < frame);
                let conflict = frames[pos..].first().is_some_and(|o| o - frame < sep)
                    || (pos > 0 && frame - frames[pos - 1] < sep);
                if !conflict {
                    frames.insert(pos, frame);
                    out.push(FrameRef { clip, frame });
                    if out.len() >= self.limit {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Execute over extracted tracks: returns up to `limit` matching
    /// frames, each at least `min_separation_s` apart within a clip,
    /// ranked by the minimum visible-track duration (frames supported by
    /// long tracks are least likely to be detector noise, §4.2).
    pub fn execute_on_tracks(
        &self,
        tracks_per_clip: &[Vec<Track>],
        clips: &[Clip],
    ) -> Vec<FrameRef> {
        let per_clip: Vec<ClipMatches> = tracks_per_clip
            .iter()
            .zip(clips)
            .enumerate()
            .map(|(ci, (tracks, clip))| {
                (
                    ci,
                    clip.scene.fps as f32,
                    self.clip_matches(tracks, clip.num_frames()),
                )
            })
            .collect();
        self.select_frames(&per_clip)
    }

    /// Ground-truth check: does the frame actually satisfy the predicate
    /// (per the simulator's exact object positions)?
    pub fn frame_matches_gt(&self, clip: &Clip, frame: usize) -> bool {
        let pts: Vec<Point> = clip.frames[frame]
            .objs
            .iter()
            .filter(|o| is_car(o.class))
            .map(|o| o.rect.center())
            .collect();
        self.positions_match(&pts)
    }

    /// All ground-truth matching frames in a split (for sizing query
    /// parameters).
    pub fn gt_matching_frames(&self, clips: &[Clip]) -> Vec<FrameRef> {
        let mut out = Vec::new();
        for (ci, clip) in clips.iter().enumerate() {
            for f in 0..clip.num_frames() {
                if self.frame_matches_gt(clip, f) {
                    out.push(FrameRef { clip: ci, frame: f });
                }
            }
        }
        out
    }

    /// The paper's limit-query accuracy: fraction of output frames that
    /// satisfy the query under ground truth. Empty output scores 0
    /// when matches exist.
    pub fn accuracy(&self, outputs: &[FrameRef], clips: &[Clip]) -> f32 {
        if outputs.is_empty() {
            return if self.gt_matching_frames(clips).is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let good = outputs
            .iter()
            .filter(|r| self.frame_matches_gt(&clips[r.clip], r.frame))
            .count();
        good as f32 / outputs.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_cv::Detection;
    use otif_geom::Rect;
    use otif_sim::{DatasetConfig, DatasetKind};

    fn det(x: f32, y: f32) -> Detection {
        Detection {
            rect: Rect::new(x - 10.0, y - 6.0, 20.0, 12.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    fn gt_as_tracks(clips: &[Clip]) -> Vec<Vec<Track>> {
        clips
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
            .collect()
    }

    fn count_query(n: usize, limit: usize) -> FrameLimitQuery {
        FrameLimitQuery {
            kind: FrameQueryKind::Count,
            n,
            limit,
            min_separation_s: 5.0,
        }
    }

    #[test]
    fn count_predicate() {
        let q = count_query(2, 10);
        assert!(!q.positions_match(&[Point::new(0.0, 0.0)]));
        assert!(q.positions_match(&[Point::new(0.0, 0.0), Point::new(5.0, 5.0)]));
    }

    #[test]
    fn region_predicate() {
        let q = FrameLimitQuery {
            kind: FrameQueryKind::Region(Polygon::from_rect(&Rect::new(0.0, 0.0, 50.0, 50.0))),
            n: 1,
            limit: 10,
            min_separation_s: 5.0,
        };
        assert!(q.positions_match(&[Point::new(25.0, 25.0)]));
        assert!(!q.positions_match(&[Point::new(100.0, 100.0)]));
    }

    #[test]
    fn hotspot_predicate_requires_clustered_objects() {
        let q = FrameLimitQuery {
            kind: FrameQueryKind::HotSpot { radius: 20.0 },
            n: 3,
            limit: 10,
            min_separation_s: 5.0,
        };
        // 3 clustered
        assert!(q.positions_match(&[
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ]));
        // 3 spread out
        assert!(!q.positions_match(&[
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(0.0, 100.0),
        ]));
    }

    #[test]
    fn execute_respects_limit_and_separation() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 61).generate();
        let tracks = gt_as_tracks(&d.test);
        let q = count_query(1, 3);
        let out = q.execute_on_tracks(&tracks, &d.test);
        assert!(out.len() <= 3);
        // separation within each clip
        for a in &out {
            for b in &out {
                if a != b && a.clip == b.clip {
                    let sep = (5.0 * d.test[a.clip].scene.fps as f32) as usize;
                    assert!(a.frame.abs_diff(b.frame) >= sep);
                }
            }
        }
    }

    #[test]
    fn perfect_tracks_give_high_accuracy() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 62).generate();
        let tracks = gt_as_tracks(&d.test);
        let q = count_query(2, 10);
        let out = q.execute_on_tracks(&tracks, &d.test);
        assert!(!out.is_empty(), "busy highway should have ≥2-car frames");
        let acc = q.accuracy(&out, &d.test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn accuracy_zero_when_results_missing_but_matches_exist() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 63).generate();
        let q = count_query(1, 10);
        assert!(!q.gt_matching_frames(&d.test).is_empty());
        assert_eq!(q.accuracy(&[], &d.test), 0.0);
    }

    #[test]
    fn impossible_query_with_empty_output_is_perfect() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 64).generate();
        let q = count_query(1000, 10);
        assert!(q.gt_matching_frames(&d.test).is_empty());
        assert_eq!(q.accuracy(&[], &d.test), 1.0);
    }

    #[test]
    fn interpolated_positions_used_between_samples() {
        // a track sampled at frames 0 and 10 must still support frame 5:
        // only its interpolated position there (x = 50) lies in the box
        let mut t = Track::new(0, ObjectClass::Car);
        t.push(0, det(0.0, 0.0));
        t.push(10, det(100.0, 0.0));
        let q = FrameLimitQuery {
            kind: FrameQueryKind::Region(Polygon::from_rect(&Rect::new(45.0, -5.0, 10.0, 10.0))),
            n: 1,
            limit: 10,
            min_separation_s: 0.0,
        };
        assert_eq!(q.clip_matches(&[t.clone()], 11), vec![(10, 5)]);
        assert_eq!(oracle_clip_matches(&q, &[t], 11), vec![(10, 5)]);
    }

    #[test]
    fn positions_at_a_detection_frame_are_its_exact_center() {
        // interpolating onto a detection does not always land on it:
        // with these centers a + (b − a) · 1 rounds below b
        let mut t = Track::new(0, ObjectClass::Car);
        t.push(0, det(1000.7, 0.0));
        t.push(4, det(100.1, 0.0));
        t.push(8, det(50.0, 0.0));
        let (a, b) = (t.dets[0].1.rect.center(), t.dets[1].1.rect.center());
        assert!(a.lerp(&b, 1.0).x < b.x);
        // a box whose left edge is b.x holds the exact center only
        let q = FrameLimitQuery {
            kind: FrameQueryKind::Region(Polygon::from_rect(&Rect::new(b.x, -5.0, 1.0, 10.0))),
            n: 1,
            limit: 10,
            min_separation_s: 0.0,
        };
        assert_eq!(q.clip_matches(&[t], 9), vec![(8, 4)]);
    }

    // Oracles: the per-frame scan of every track and the stable-sort
    // greedy selection that checks every taken frame.

    fn oracle_clip_matches(
        q: &FrameLimitQuery,
        tracks: &[Track],
        num_frames: usize,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for f in 0..num_frames {
            let mut pts = Vec::new();
            let mut min_duration = usize::MAX;
            for t in tracks.iter().filter(|t| is_car(t.class)) {
                if let Some(p) = t.center_at(f) {
                    pts.push(p);
                    min_duration = min_duration.min(t.last_frame() - t.first_frame());
                }
            }
            if pts.is_empty() {
                min_duration = 0;
            }
            if q.positions_match(&pts) {
                out.push((min_duration, f));
            }
        }
        out
    }

    fn oracle_select_frames(q: &FrameLimitQuery, per_clip: &[ClipMatches]) -> Vec<FrameRef> {
        let mut matches: Vec<(usize, f32, FrameRef)> = Vec::new();
        for (clip, fps, ms) in per_clip {
            for (min_dur, frame) in ms {
                let r = FrameRef {
                    clip: *clip,
                    frame: *frame,
                };
                matches.push((*min_dur, *fps, r));
            }
        }
        matches.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.clip.cmp(&b.2.clip)));
        let mut out: Vec<FrameRef> = Vec::new();
        for (_, fps, r) in matches {
            if out.len() >= q.limit {
                break;
            }
            let sep = (q.min_separation_s * fps) as usize;
            let conflict = out
                .iter()
                .any(|o| o.clip == r.clip && o.frame.abs_diff(r.frame) < sep);
            if !conflict {
                out.push(r);
            }
        }
        out
    }

    /// Tracks from `(class, first frame, detections, step, seed)` specs:
    /// any class (pedestrians are not cars), possibly no detections,
    /// uneven steps between detections, and random-walk centers.
    fn spec_tracks(specs: &[(usize, usize, usize, usize, u64)]) -> Vec<Track> {
        specs
            .iter()
            .enumerate()
            .map(|(id, &(class, first, n, step, seed))| {
                let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut next = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 40) as f32 / (1u64 << 24) as f32
                };
                let mut t = Track::new(id as u32, ObjectClass::ALL[class % 4]);
                let (mut x, mut y, mut f) = (next() * 100.0, next() * 100.0, first);
                for _ in 0..n {
                    t.push(f, det(x, y));
                    f += 1 + (next() * step as f32) as usize;
                    x += (next() - 0.5) * 30.0;
                    y += (next() - 0.5) * 30.0;
                }
                t
            })
            .collect()
    }

    fn kind_for(k: usize, radius: f32) -> FrameQueryKind {
        match k % 3 {
            0 => FrameQueryKind::Count,
            1 => FrameQueryKind::Region(Polygon::from_rect(&Rect::new(20.0, 10.0, 50.0, 60.0))),
            _ => FrameQueryKind::HotSpot { radius },
        }
    }

    proptest::proptest! {
        #[test]
        fn sweep_matches_per_frame_scan(
            specs in proptest::collection::vec((0usize..5, 0usize..40, 0usize..7, 0usize..6, 0u64..1000), 0..14),
            num_frames in 0usize..60,
            k in 0usize..3,
            n in 0usize..5,
            radius in 5.0f32..60.0,
        ) {
            let tracks = spec_tracks(&specs);
            let q = FrameLimitQuery {
                kind: kind_for(k, radius),
                n,
                limit: 10,
                min_separation_s: 5.0,
            };
            proptest::prop_assert_eq!(
                q.clip_matches(&tracks, num_frames),
                oracle_clip_matches(&q, &tracks, num_frames)
            );
        }

        #[test]
        fn selection_matches_stable_sort_greedy(
            clips in proptest::collection::vec((0usize..4, 0usize..50, 0u64..1000), 0..6),
            limit in 0usize..12,
            sep_tenths in 0usize..30,
            fps in 1usize..12,
        ) {
            // few distinct durations, so ties across clips are common
            let per_clip: Vec<ClipMatches> = clips
                .iter()
                .enumerate()
                .map(|(ci, &(durs, frames, seed))| {
                    let ms = (0..frames)
                        .filter(|f| (seed >> (f % 60)) & 1 == 1)
                        .map(|f| ((f as u64 * seed % 7) as usize % (durs + 1), f))
                        .collect();
                    (ci * 2, (fps + ci) as f32, ms)
                })
                .collect();
            let q = FrameLimitQuery {
                kind: FrameQueryKind::Count,
                n: 1,
                limit,
                min_separation_s: sep_tenths as f32 / 10.0,
            };
            proptest::prop_assert_eq!(q.select_frames(&per_clip), oracle_select_frames(&q, &per_clip));
        }

        #[test]
        fn per_clip_sweeps_and_selection_match_oracles(
            specs in proptest::collection::vec((0usize..5, 0usize..30, 0usize..6, 0usize..4, 0u64..1000), 0..24),
            frames in proptest::collection::vec(0usize..45, 1..4),
            k in 0usize..3,
            n in 0usize..4,
            limit in 0usize..8,
            sep in 0usize..3,
        ) {
            // tracks dealt round-robin to clips; each clip's frame count
            // may cut its tracks short
            let all = spec_tracks(&specs);
            let per_clip_tracks: Vec<Vec<Track>> = (0..frames.len())
                .map(|c| all.iter().skip(c).step_by(frames.len()).cloned().collect())
                .collect();
            let q = FrameLimitQuery {
                kind: kind_for(k, 25.0),
                n,
                limit,
                min_separation_s: sep as f32,
            };
            let fps = 3.0;
            let per_clip: Vec<ClipMatches> = per_clip_tracks
                .iter()
                .zip(&frames)
                .enumerate()
                .map(|(ci, (ts, &nf))| (ci, fps, oracle_clip_matches(&q, ts, nf)))
                .collect();
            let want = oracle_select_frames(&q, &per_clip);
            let got_per_clip: Vec<ClipMatches> = per_clip_tracks
                .iter()
                .zip(&frames)
                .enumerate()
                .map(|(ci, (ts, &nf))| (ci, fps, q.clip_matches(ts, nf)))
                .collect();
            proptest::prop_assert_eq!(q.select_frames(&got_per_clip), want);
        }
    }
}
