//! Frame-level limit queries (§4.2).
//!
//! Count / region / hot-spot queries select video frames whose objects
//! satisfy a predicate, returning up to `limit` frames at least 5 seconds
//! apart. OTIF answers them by post-processing extracted tracks: object
//! positions at arbitrary frames are interpolated from track detections
//! (no decoding or inference), and candidate frames are ranked by the
//! minimum duration of the visible tracks, as in §4.2's execution
//! details.

use crate::is_car;
use otif_geom::{Point, Polygon};
use otif_sim::Clip;
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

/// A clip's frame table: the positions of the car tracks visible at
/// each frame, stored frame by frame, with each frame's minimum
/// visible-track duration. It is built once per clip
/// ([`FrameTable::build`]), and every frame-limit query on the clip reads
/// it ([`FrameLimitQuery::table_matches`]).
///
/// `offsets` and `min_dur` depend only on the spans `(first_frame,
/// last_frame)` of the clip's non-empty car tracks. Frame `f` holds one
/// position per span covering it, and `min_dur[f]` is the shortest such
/// span's `last_frame − first_frame`. A `Count` query reads only these
/// two columns, so a constructor could fill them from a stored span
/// column without decoding tracks.
#[derive(Debug)]
pub struct FrameTable {
    /// Frame `f`'s positions are `positions[offsets[f]..offsets[f + 1]]`;
    /// one entry per frame, plus one.
    offsets: Vec<u32>,
    /// The interpolated centers of the car tracks visible at each frame,
    /// frame after frame, each frame's in ascending `x`
    /// (`f32::total_cmp`), which the hot-spot test relies on.
    positions: Vec<Point>,
    /// Per frame, the minimum `last_frame − first_frame` of the car
    /// tracks visible there (0 when none), saturating at `u32::MAX`.
    min_dur: Vec<u32>,
}

impl FrameTable {
    /// The table of a clip's tracks over frames `0..num_frames`.
    ///
    /// A car track is visible over its whole span, at positions
    /// interpolated between its sampled detections. One forward sweep
    /// over the frames keeps the visible tracks in an active list: a
    /// track enters at its first frame, leaves after its last, and keeps
    /// a cursor on its last detection at or before the current frame.
    /// The cursor lands where [`Track::center_at`]'s binary search does
    /// and both interpolate through [`Track::center_from`], so positions
    /// are bitwise those of a per-frame probe of every track. Each
    /// frame's positions are then sorted by `x` for the hot-spot test;
    /// every predicate is a count, an `any` or a `min`, so their order
    /// cannot change an answer.
    pub fn build(tracks: &[Track], num_frames: usize) -> FrameTable {
        let mut spans: Vec<&Track> = tracks
            .iter()
            .filter(|t| is_car(t.class) && !t.is_empty() && t.first_frame() < num_frames)
            .collect();
        spans.sort_unstable_by_key(|t| t.first_frame());
        let visible: usize = spans
            .iter()
            .map(|t| t.last_frame().min(num_frames - 1) - t.first_frame() + 1)
            .sum();
        let mut table = FrameTable {
            offsets: Vec::with_capacity(num_frames + 1),
            positions: Vec::with_capacity(visible),
            min_dur: Vec::with_capacity(num_frames),
        };
        table.offsets.push(0);
        let mut entering = spans.into_iter().peekable();
        // (track, last frame, duration, detection cursor)
        let mut active: Vec<(&Track, usize, u32, usize)> = Vec::new();
        for f in 0..num_frames {
            while let Some(t) = entering.next_if(|t| t.first_frame() <= f) {
                let dur = u32::try_from(t.last_frame() - t.first_frame()).unwrap_or(u32::MAX);
                active.push((t, t.last_frame(), dur, 0));
            }
            active.retain(|a| a.1 >= f);
            let start = table.positions.len();
            for (t, _, _, cursor) in active.iter_mut() {
                while *cursor + 1 < t.dets.len() && t.dets[*cursor + 1].0 <= f {
                    *cursor += 1;
                }
                table.positions.push(t.center_from(*cursor, f));
            }
            sort_by_x(&mut table.positions[start..]);
            table
                .min_dur
                .push(active.iter().map(|a| a.2).min().unwrap_or(0));
            let end =
                u32::try_from(table.positions.len()).expect("frame table under 2^32 positions");
            table.offsets.push(end);
        }
        table
    }

    /// Number of frames the table covers.
    pub fn num_frames(&self) -> usize {
        self.min_dur.len()
    }

    /// The positions of the car tracks visible at `frame`.
    pub fn positions_at(&self, frame: usize) -> &[Point] {
        &self.positions[self.offsets[frame] as usize..self.offsets[frame + 1] as usize]
    }

    /// Heap bytes held by the table's three columns.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.positions.as_slice())
            + std::mem::size_of_val(self.min_dur.as_slice())
    }
}

/// `p.dist(c) <= radius`, decided on the squared distance away from the
/// boundary. `Point::dist` is the correctly rounded square root of the
/// same `f32` squared distance `d²`, and `radius` is an `f32`, so the
/// rounded root is at most `radius` whenever `d² < radius²·(1 − 10⁻⁶)`
/// and above it whenever `d² > radius²·(1 + 10⁻⁶)`: the band is about
/// eight times wider than the root's rounding error. Inside the band,
/// and for negative or NaN radii, the root itself is compared.
struct Within {
    radius: f32,
    lo: f64,
    hi: f64,
}

impl Within {
    fn new(radius: f32) -> Within {
        let r2 = f64::from(radius) * f64::from(radius);
        let (lo, hi) = if radius >= 0.0 {
            (r2 * (1.0 - 1e-6), r2 * (1.0 + 1e-6))
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        Within { radius, lo, hi }
    }

    fn test(&self, p: &Point, c: &Point) -> bool {
        let d2 = f64::from(p.dist_sq(c));
        if d2 < self.lo {
            true
        } else if d2 > self.hi {
            false
        } else {
            p.dist(c) <= self.radius
        }
    }
}

/// Order positions by `x` (`f32::total_cmp`), as [`hotspot_match`]
/// expects them.
fn sort_by_x(positions: &mut [Point]) {
    positions.sort_unstable_by(|a, b| a.x.total_cmp(&b.x));
}

/// The hot-spot predicate on positions sorted by [`sort_by_x`]: is some
/// position within `radius` of at least `n` positions, itself included?
///
/// Each pair is tested once and counts for both ends (the test is
/// symmetric: swapping the ends only negates `dx` and `dy`). A
/// position's partners are walked in `x` order only while `dx·dx`,
/// rounded as [`Point::dist_sq`] rounds it, stays within the band's top:
/// `d²` is at least that square, and a later partner's `dx` is no
/// smaller, so no later partner can be within the radius. A position
/// tests itself (false only for a non-finite position or a negative or
/// NaN radius) once its partners bring it to `n − 1`, and counting
/// stops as soon as one position reaches `n`. `counts` is scratch.
fn hotspot_match(sorted: &[Point], within: &Within, n: usize, counts: &mut Vec<usize>) -> bool {
    let reaches = |count: usize, c: &Point| count >= n || (count + 1 == n && within.test(c, c));
    if n <= 1 {
        return sorted.iter().any(|c| reaches(0, c));
    }
    counts.clear();
    counts.resize(sorted.len(), 0);
    for (i, c) in sorted.iter().enumerate() {
        for (j, p) in sorted.iter().enumerate().skip(i + 1) {
            let dx = p.x - c.x;
            if f64::from(dx * dx) > within.hi {
                break;
            }
            if within.test(p, c) {
                counts[i] += 1;
                counts[j] += 1;
                if reaches(counts[i], c) || reaches(counts[j], p) {
                    return true;
                }
            }
        }
    }
    false
}

/// The region predicate: at least `n` positions inside `poly`.
fn region_match(poly: &Polygon, positions: &[Point], n: usize) -> bool {
    positions
        .iter()
        .filter(|p| poly.contains(p))
        .take(n)
        .count()
        >= n
}

/// `(min_dur, frame)` of every frame of `table` with at least `n`
/// positions that satisfy `pred`, in frame order.
fn frames_where(
    table: &FrameTable,
    n: usize,
    mut pred: impl FnMut(&[Point]) -> bool,
) -> Vec<(usize, usize)> {
    (0..table.num_frames())
        .filter(|&f| {
            let pts = table.positions_at(f);
            pts.len() >= n && pred(pts)
        })
        .map(|f| (table.min_dur[f] as usize, f))
        .collect()
}

impl FrameLimitQuery {
    /// Does a set of object positions satisfy the predicate? Counting
    /// stops once it reaches `n`.
    pub fn positions_match(&self, positions: &[Point]) -> bool {
        let n = self.n;
        match &self.kind {
            FrameQueryKind::Count => positions.len() >= n,
            FrameQueryKind::Region(poly) => region_match(poly, positions, n),
            FrameQueryKind::HotSpot { radius } => {
                let mut sorted = positions.to_vec();
                sort_by_x(&mut sorted);
                hotspot_match(&sorted, &Within::new(*radius), n, &mut Vec::new())
            }
        }
    }

    /// Matching frames of one clip, as `(min visible-track duration,
    /// frame)` in frame order. This is the per-clip half of
    /// [`execute_on_tracks`](Self::execute_on_tracks): it depends only on
    /// the clip's own tracks and frame count, so clips can be evaluated
    /// independently (in parallel, or skipped entirely when an index
    /// proves no frame can match) and merged with
    /// [`select_frames`](Self::select_frames). It builds the clip's
    /// [`FrameTable`] and matches on it.
    pub fn clip_matches(&self, tracks: &[Track], num_frames: usize) -> Vec<(usize, usize)> {
        self.table_matches(&FrameTable::build(tracks, num_frames))
    }

    /// [`clip_matches`](Self::clip_matches) on a clip's prebuilt frame
    /// table. A frame with `k` positions can match only if `k >= n`,
    /// since every predicate counts a subset of them, so the predicate
    /// is evaluated only there.
    pub fn table_matches(&self, table: &FrameTable) -> Vec<(usize, usize)> {
        let n = self.n;
        match &self.kind {
            FrameQueryKind::Count => frames_where(table, n, |_| true),
            FrameQueryKind::Region(poly) => {
                frames_where(table, n, |pts| region_match(poly, pts, n))
            }
            FrameQueryKind::HotSpot { radius } => {
                let within = Within::new(*radius);
                let mut counts = Vec::new();
                frames_where(table, n, |pts| hotspot_match(pts, &within, n, &mut counts))
            }
        }
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

    #[test]
    fn hotspot_at_exactly_the_radius() {
        let pts = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let hotspot = |radius: f32| FrameLimitQuery {
            kind: FrameQueryKind::HotSpot { radius },
            n: 2,
            limit: 10,
            min_separation_s: 5.0,
        };
        assert!(hotspot(5.0).positions_match(&pts));
        assert!(hotspot(5.0f32.next_up()).positions_match(&pts));
        assert!(!hotspot(5.0f32.next_down()).positions_match(&pts));
        assert!(!hotspot(-5.0).positions_match(&pts));
        assert!(!hotspot(f32::NAN).positions_match(&pts));
    }

    #[test]
    fn zero_n_matches_every_frame_but_hotspot_needs_a_position() {
        let mut t = Track::new(0, ObjectClass::Car);
        t.push(2, det(30.0, 30.0));
        t.push(3, det(31.0, 30.0));
        let q = |kind| FrameLimitQuery {
            kind,
            n: 0,
            limit: 10,
            min_separation_s: 0.0,
        };
        let all: Vec<(usize, usize)> = vec![(0, 0), (0, 1), (1, 2), (1, 3), (0, 4)];
        assert_eq!(q(FrameQueryKind::Count).clip_matches(&[t.clone()], 5), all);
        let region = FrameQueryKind::Region(Polygon::from_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)));
        assert_eq!(q(region).clip_matches(&[t.clone()], 5), all);
        let hotspot = q(FrameQueryKind::HotSpot { radius: 1.0 });
        assert_eq!(hotspot.clip_matches(&[t], 5), vec![(1, 2), (1, 3)]);
        // a zero limit selects nothing
        let per_clip: Vec<ClipMatches> = vec![(0, 1.0, all)];
        assert!(count_query(1, 0).select_frames(&per_clip).is_empty());
    }

    #[test]
    fn frame_table_layout() {
        // a car over frames 1..=4 (one past the clip's end), a car at
        // frame 2 only, an empty car and a pedestrian
        let mut long = Track::new(0, ObjectClass::Truck);
        long.push(1, det(0.0, 0.0));
        long.push(4, det(30.0, 0.0));
        let mut short = Track::new(1, ObjectClass::Car);
        short.push(2, det(50.0, 50.0));
        let mut ped = Track::new(3, ObjectClass::Pedestrian);
        ped.push(0, det(9.0, 9.0));
        let tracks = [long, short, Track::new(2, ObjectClass::Bus), ped];
        let table = FrameTable::build(&tracks, 4);
        assert_eq!(table.offsets, vec![0, 0, 1, 3, 4]);
        assert_eq!(table.min_dur, vec![0, 3, 0, 3]);
        assert_eq!(
            table.positions_at(2),
            &[Point::new(10.0, 0.0), Point::new(50.0, 50.0)]
        );
        assert_eq!(table.bytes(), 5 * 4 + 4 * 8 + 4 * 4);
        assert_eq!(FrameTable::build(&tracks, 0).offsets, vec![0]);
    }

    // Oracles: the predicate with a square root per pair and no early
    // stop, the per-frame scan of every track, the track-span sweep that
    // matched each frame as it went, and the stable-sort greedy
    // selection that checks every taken frame.

    fn oracle_positions_match(q: &FrameLimitQuery, positions: &[Point]) -> bool {
        match &q.kind {
            FrameQueryKind::Count => positions.len() >= q.n,
            FrameQueryKind::Region(poly) => {
                positions.iter().filter(|p| poly.contains(p)).count() >= q.n
            }
            FrameQueryKind::HotSpot { radius } => positions
                .iter()
                .any(|c| positions.iter().filter(|p| p.dist(c) <= *radius).count() >= q.n),
        }
    }

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
            if oracle_positions_match(q, &pts) {
                out.push((min_duration, f));
            }
        }
        out
    }

    fn oracle_sweep_clip_matches(
        q: &FrameLimitQuery,
        tracks: &[Track],
        num_frames: usize,
    ) -> Vec<(usize, usize)> {
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
            let hit = match &q.kind {
                FrameQueryKind::Count => active.len() >= q.n,
                _ => {
                    pts.clear();
                    for (t, _, _, cursor) in active.iter_mut() {
                        while *cursor + 1 < t.dets.len() && t.dets[*cursor + 1].0 <= f {
                            *cursor += 1;
                        }
                        pts.push(t.center_from(*cursor, f));
                    }
                    oracle_positions_match(q, &pts)
                }
            };
            if hit {
                let min_dur = active.iter().map(|a| a.2).min().unwrap_or(0);
                out.push((min_dur, f));
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
        fn table_matches_per_frame_scan_and_sweep(
            specs in proptest::collection::vec((0usize..5, 0usize..40, 0usize..7, 0usize..6, 0u64..1000), 0..14),
            num_frames in 0usize..60,
            k in 0usize..3,
            n in 0usize..5,
            radius in 5.0f32..60.0,
            pick in 0usize..6,
        ) {
            // empty, non-car and single-detection tracks, tracks that run
            // past the clip's end, and zero, negative and NaN radii
            let tracks = spec_tracks(&specs);
            let radius = match pick {
                0 => 0.0,
                1 => -radius,
                2 => f32::NAN,
                _ => radius,
            };
            let q = FrameLimitQuery {
                kind: kind_for(k, radius),
                n,
                limit: 10,
                min_separation_s: 5.0,
            };
            let got = q.clip_matches(&tracks, num_frames);
            proptest::prop_assert_eq!(&got, &oracle_clip_matches(&q, &tracks, num_frames));
            proptest::prop_assert_eq!(&got, &oracle_sweep_clip_matches(&q, &tracks, num_frames));
        }

        #[test]
        fn hotspot_band_is_exact_at_the_radius(
            pts in proptest::collection::vec((0u32..48, 0u32..48), 2..9),
            scale in 0usize..4,
            pair in (0usize..8, 0usize..8),
            ulps in 0usize..3,
            n in 0usize..4,
            odd in (0usize..12, 0usize..8),
        ) {
            // the radius is a pair's distance or one ulp either side of
            // it; whole-number coordinates make exact distances common,
            // and some cases get a NaN, infinite or negative-zero
            // coordinate
            let s = [1.0f32, 0.1, 3.7, 0.01][scale];
            let mut pts: Vec<Point> = pts
                .iter()
                .map(|&(x, y)| Point::new(x as f32 * s, y as f32 * s))
                .collect();
            let (a, b) = (pts[pair.0 % pts.len()], pts[pair.1 % pts.len()]);
            let d = a.dist(&b);
            let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
            if let Some(&v) = specials.get(odd.0) {
                let i = odd.1 % pts.len();
                if odd.1 % 2 == 0 {
                    pts[i].x = v;
                } else {
                    pts[i].y = v;
                }
            }
            let radius = [d.next_down(), d, d.next_up()][ulps];
            let q = FrameLimitQuery {
                kind: FrameQueryKind::HotSpot { radius },
                n,
                limit: 10,
                min_separation_s: 5.0,
            };
            proptest::prop_assert_eq!(q.positions_match(&pts), oracle_positions_match(&q, &pts));
            // the pair alone decides a two-position frame at n = 2
            let q = FrameLimitQuery { n: 2, ..q };
            proptest::prop_assert_eq!(q.positions_match(&[a, b]), oracle_positions_match(&q, &[a, b]));
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
