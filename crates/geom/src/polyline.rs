//! Polylines (paths) with the resampling + distance operations the paper
//! uses to cluster tracks for refinement (§3.4).

use crate::Point;
use serde::{Deserialize, Serialize};

/// An open polyline given by an ordered sequence of points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    /// Ordered points of the open polyline.
    pub points: Vec<Point>,
}

impl Polyline {
    /// Build a polyline; panics on an empty point list.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(!points.is_empty(), "polyline needs at least one point");
        Polyline { points }
    }

    /// Total arc length.
    pub fn length(&self) -> f32 {
        self.points
            .windows(2)
            .map(|w| w[0].dist(&w[1]))
            .sum::<f32>()
    }

    /// First point.
    pub fn first(&self) -> Point {
        self.points[0]
    }

    /// Last point.
    pub fn last(&self) -> Point {
        *self.points.last().unwrap()
    }

    /// Point at arc-length parameter `t` in `[0, 1]` along the polyline.
    pub fn point_at(&self, t: f32) -> Point {
        if self.points.len() == 1 {
            return self.points[0];
        }
        let total = self.length();
        if total <= 0.0 {
            return self.points[0];
        }
        let target = t.clamp(0.0, 1.0) * total;
        let mut acc = 0.0;
        for w in self.points.windows(2) {
            let seg = w[0].dist(&w[1]);
            if acc + seg >= target {
                let local = if seg > 0.0 { (target - acc) / seg } else { 0.0 };
                return w[0].lerp(&w[1], local);
            }
            acc += seg;
        }
        self.last()
    }

    /// Resample into exactly `n` points evenly spaced by arc length.
    ///
    /// This is the `P(s)` operation in §3.4 (the paper uses `N = 20`).
    ///
    /// ```
    /// use otif_geom::{Point, Polyline};
    /// let line = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
    /// let r = line.resample(3);
    /// assert_eq!(r.points[1], Point::new(5.0, 0.0));
    /// ```
    ///
    /// Each point equals `self.point_at(i / (n - 1))`. The targets never
    /// decrease, so one walk serves them all: `point_at` would skip the
    /// same leading segments, summing the same lengths in the same order.
    pub fn resample(&self, n: usize) -> Polyline {
        assert!(n >= 1);
        if n == 1 || self.points.len() == 1 {
            return Polyline::new(vec![self.first(); n]);
        }
        let total = self.length();
        if total <= 0.0 {
            return Polyline::new(vec![self.first(); n]);
        }
        let mut pts = Vec::with_capacity(n);
        let (mut seg_i, mut acc) = (0, 0.0);
        for i in 0..n {
            let target = (i as f32 / (n - 1) as f32).clamp(0.0, 1.0) * total;
            // A NaN target (0 · ∞) matches no segment.
            while !target.is_nan() && seg_i + 1 < self.points.len() {
                let (a, b) = (self.points[seg_i], self.points[seg_i + 1]);
                let seg = a.dist(&b);
                if acc + seg >= target {
                    let local = if seg > 0.0 { (target - acc) / seg } else { 0.0 };
                    pts.push(a.lerp(&b, local));
                    break;
                }
                acc += seg;
                seg_i += 1;
            }
            if pts.len() == i {
                pts.push(self.last());
            }
        }
        Polyline::new(pts)
    }

    /// Average distance between corresponding points of two equal-length
    /// resampled polylines:
    /// `d(s1, s2) = (1/N) Σ eucl(P(s1)[i], P(s2)[i])`.
    pub fn avg_point_distance(&self, other: &Polyline) -> f32 {
        assert_eq!(
            self.points.len(),
            other.points.len(),
            "avg_point_distance requires equal-length polylines (resample first)"
        );
        let n = self.points.len();
        let sum: f32 = self
            .points
            .iter()
            .zip(other.points.iter())
            .map(|(a, b)| a.dist(b))
            .sum();
        sum / n as f32
    }

    /// Pointwise mean of several equal-length polylines; the cluster-center
    /// construction in §3.4.
    pub fn mean(lines: &[&Polyline]) -> Polyline {
        assert!(!lines.is_empty());
        let n = lines[0].points.len();
        for l in lines {
            assert_eq!(l.points.len(), n, "mean requires equal-length polylines");
        }
        let mut pts = vec![Point::default(); n];
        for l in lines {
            for (acc, p) in pts.iter_mut().zip(l.points.iter()) {
                *acc = *acc + *p;
            }
        }
        let k = lines.len() as f32;
        Polyline::new(pts.into_iter().map(|p| p / k).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ps: &[(f32, f32)]) -> Polyline {
        Polyline::new(ps.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn length_of_segments() {
        let l = line(&[(0.0, 0.0), (3.0, 4.0), (3.0, 10.0)]);
        assert!((l.length() - 11.0).abs() < 1e-5);
    }

    #[test]
    fn point_at_midpoint() {
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        assert_eq!(l.point_at(0.5), Point::new(5.0, 0.0));
        assert_eq!(l.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(l.point_at(1.0), Point::new(10.0, 0.0));
    }

    #[test]
    fn resample_preserves_endpoints_and_count() {
        let l = line(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)]);
        let r = l.resample(5);
        assert_eq!(r.points.len(), 5);
        assert_eq!(r.first(), l.first());
        assert!(r.last().dist(&l.last()) < 1e-4);
        // arc-length spacing: second point at distance 2 along path
        assert!(r.points[1].dist(&Point::new(2.0, 0.0)) < 1e-4);
    }

    // The one-walk `resample` equals `point_at` at each fraction,
    // bit for bit, on random polylines with repeated points
    // (zero-length segments).
    proptest::proptest! {
        #[test]
        fn resample_matches_point_at(
            len in 1usize..12,
            n in 1usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 400.0 - 50.0
            };
            let mut pts: Vec<Point> = Vec::new();
            for i in 0..len {
                let p = match pts.last() {
                    Some(&last) if i % 4 == 3 => last,
                    _ => Point::new(next(), next()),
                };
                pts.push(p);
            }
            let line = Polyline::new(pts);
            let got = line.resample(n);
            proptest::prop_assert_eq!(got.points.len(), n);
            for (i, p) in got.points.iter().enumerate() {
                let want = if n == 1 {
                    line.first()
                } else {
                    line.point_at(i as f32 / (n - 1) as f32)
                };
                proptest::prop_assert_eq!((p.x.to_bits(), p.y.to_bits()), (want.x.to_bits(), want.y.to_bits()));
            }
        }
    }

    #[test]
    fn resample_single_point_polyline() {
        let l = line(&[(2.0, 3.0)]);
        let r = l.resample(4);
        assert_eq!(r.points.len(), 4);
        assert!(r.points.iter().all(|p| *p == Point::new(2.0, 3.0)));
    }

    #[test]
    fn avg_point_distance_parallel_lines() {
        let a = line(&[(0.0, 0.0), (10.0, 0.0)]).resample(20);
        let b = line(&[(0.0, 3.0), (10.0, 3.0)]).resample(20);
        assert!((a.avg_point_distance(&b) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = line(&[(0.0, 0.0), (5.0, 5.0), (9.0, 2.0)]).resample(20);
        assert!(a.avg_point_distance(&a) < 1e-6);
    }

    #[test]
    fn mean_of_two_lines_is_midline() {
        let a = line(&[(0.0, 0.0), (10.0, 0.0)]).resample(3);
        let b = line(&[(0.0, 2.0), (10.0, 2.0)]).resample(3);
        let m = Polyline::mean(&[&a, &b]);
        assert!(m.points.iter().all(|p| (p.y - 1.0).abs() < 1e-5));
    }
}
