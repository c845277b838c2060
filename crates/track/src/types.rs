//! Track data structures: the output format of every tracker and the
//! input format of every query.

use otif_cv::Detection;
use otif_geom::{Point, Polyline};
use otif_sim::ObjectClass;
use serde::{Deserialize, Serialize};

/// Identifier of an extracted track (unique within a clip).
pub type TrackId = u32;

/// An extracted object track: a category plus a time-ordered sequence of
/// detections — `s_i = (C_k, ⟨d_1, …, d_m⟩)` in the paper's notation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Track {
    /// Track identifier.
    pub id: TrackId,
    /// Object category of the track.
    pub class: ObjectClass,
    /// `(frame index, detection)`, strictly increasing in frame index.
    pub dets: Vec<(usize, Detection)>,
}

impl Track {
    /// Create an empty track.
    pub fn new(id: TrackId, class: ObjectClass) -> Self {
        Track {
            id,
            class,
            dets: Vec::new(),
        }
    }

    /// Number of detections.
    pub fn len(&self) -> usize {
        self.dets.len()
    }

    /// Whether the track holds no detections.
    pub fn is_empty(&self) -> bool {
        self.dets.is_empty()
    }

    /// Frame of the first detection.
    pub fn first_frame(&self) -> usize {
        self.dets.first().map(|(f, _)| *f).unwrap_or(0)
    }

    /// Frame of the last detection.
    pub fn last_frame(&self) -> usize {
        self.dets.last().map(|(f, _)| *f).unwrap_or(0)
    }

    /// Whether the track has a detection at (or spans) the given frame.
    pub fn alive_at(&self, frame: usize) -> bool {
        !self.is_empty() && self.first_frame() <= frame && frame <= self.last_frame()
    }

    /// Interpolated center position at an arbitrary frame within the
    /// track's span.
    pub fn center_at(&self, frame: usize) -> Option<Point> {
        if !self.alive_at(frame) {
            return None;
        }
        // the last detection at or before `frame`
        let i = self.dets.partition_point(|(f, _)| *f <= frame) - 1;
        Some(self.center_from(i, frame))
    }

    /// Center position at `frame`, given `i`, the index of the last
    /// detection at or before it: that detection's center when it lies
    /// on `frame`, else the interpolation towards detection `i + 1`.
    /// [`center_at`](Self::center_at) finds `i` by binary search; a sweep
    /// over frames in order can keep `i` as a forward-only cursor, and
    /// both then round identically.
    pub fn center_from(&self, i: usize, frame: usize) -> Point {
        let (f0, d0) = &self.dets[i];
        if *f0 == frame {
            return d0.rect.center();
        }
        let (f1, d1) = &self.dets[i + 1];
        let t = (frame - f0) as f32 / (f1 - f0) as f32;
        d0.rect.center().lerp(&d1.rect.center(), t)
    }

    /// Track centers as a polyline (for path classification and
    /// refinement clustering).
    pub fn center_polyline(&self) -> Polyline {
        Polyline::new(self.dets.iter().map(|(_, d)| d.rect.center()).collect())
    }

    /// Mean speed in px/frame over the track.
    pub fn mean_speed(&self) -> f32 {
        if self.dets.len() < 2 {
            return 0.0;
        }
        let dist = self.center_polyline().length();
        let frames = (self.last_frame() - self.first_frame()) as f32;
        if frames > 0.0 {
            dist / frames
        } else {
            0.0
        }
    }

    /// Per-interval speeds (px/s) between consecutive detections, given
    /// the clip frame rate. Used by the hard-braking query.
    pub fn interval_speeds(&self, fps: f32) -> Vec<f32> {
        self.dets
            .windows(2)
            .map(|w| {
                let (f0, d0) = &w[0];
                let (f1, d1) = &w[1];
                let dt = (*f1 - *f0) as f32 / fps;
                if dt > 0.0 {
                    d0.rect.center().dist(&d1.rect.center()) / dt
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Append a detection (frames must increase).
    pub fn push(&mut self, frame: usize, det: Detection) {
        debug_assert!(
            self.dets.last().map(|(f, _)| *f < frame).unwrap_or(true),
            "detections must be appended in frame order"
        );
        self.dets.push((frame, det));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_geom::Rect;

    fn det(x: f32, y: f32) -> Detection {
        Detection {
            rect: Rect::new(x, y, 10.0, 10.0),
            class: ObjectClass::Car,
            confidence: 0.9,
            appearance: vec![],
            debug_gt: None,
        }
    }

    fn track() -> Track {
        let mut t = Track::new(1, ObjectClass::Car);
        t.push(10, det(0.0, 0.0));
        t.push(14, det(40.0, 0.0));
        t.push(18, det(80.0, 0.0));
        t
    }

    #[test]
    fn span_and_alive() {
        let t = track();
        assert_eq!(t.first_frame(), 10);
        assert_eq!(t.last_frame(), 18);
        assert!(t.alive_at(10));
        assert!(t.alive_at(13));
        assert!(t.alive_at(18));
        assert!(!t.alive_at(9));
        assert!(!t.alive_at(19));
    }

    #[test]
    fn center_interpolates_between_detections() {
        let t = track();
        // frame 12 is halfway between 10 and 14
        let c = t.center_at(12).unwrap();
        assert!((c.x - 25.0).abs() < 1e-4); // centers at 5 and 45
                                            // exactly at a detection
        let c = t.center_at(14).unwrap();
        assert!((c.x - 45.0).abs() < 1e-4);
        assert!(t.center_at(5).is_none());
    }

    #[test]
    fn mean_speed_px_per_frame() {
        let t = track();
        // 80 px over 8 frames
        assert!((t.mean_speed() - 10.0).abs() < 1e-4);
    }

    #[test]
    fn interval_speeds_reflect_deceleration() {
        let mut t = Track::new(2, ObjectClass::Car);
        t.push(0, det(0.0, 0.0));
        t.push(10, det(100.0, 0.0)); // 10 px/frame
        t.push(20, det(120.0, 0.0)); // 2 px/frame
        let v = t.interval_speeds(10.0);
        assert_eq!(v.len(), 2);
        assert!((v[0] - 100.0).abs() < 1e-3); // 100 px/s
        assert!((v[1] - 20.0).abs() < 1e-3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "frame order")]
    fn push_out_of_order_panics() {
        let mut t = track();
        t.push(15, det(0.0, 0.0));
    }
}
