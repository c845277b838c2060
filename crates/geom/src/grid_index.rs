//! A uniform-grid spatial index over 2D points with payloads.
//!
//! §3.4 builds "a spatial index over cluster centers" so refinement can
//! find clusters whose paths pass near a track's first/last detection.
//! A uniform grid is the right tool here: the key space is a fixed camera
//! frame and queries are small-radius lookups.

use crate::Point;

/// A uniform grid over `[0, width) × [0, height)` storing items of type `T`
/// at points. Points outside the bounds are clamped into the boundary
/// cells, so inserts never fail.
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell_size: f32,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<(Point, T)>>,
    len: usize,
}

impl<T: Clone> GridIndex<T> {
    /// Create an index covering `width × height` with square cells of side
    /// `cell_size`.
    pub fn new(width: f32, height: f32, cell_size: f32) -> Self {
        assert!(cell_size > 0.0 && width > 0.0 && height > 0.0);
        let cols = (width / cell_size).ceil().max(1.0) as usize;
        let rows = (height / cell_size).ceil().max(1.0) as usize;
        GridIndex {
            cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            len: 0,
        }
    }

    fn cell_of(&self, p: &Point) -> (usize, usize) {
        let cx = ((p.x / self.cell_size).floor() as i64).clamp(0, self.cols as i64 - 1) as usize;
        let cy = ((p.y / self.cell_size).floor() as i64).clamp(0, self.rows as i64 - 1) as usize;
        (cx, cy)
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item at a point (out-of-bounds points are clamped).
    pub fn insert(&mut self, p: Point, item: T) {
        let (cx, cy) = self.cell_of(&p);
        self.cells[cy * self.cols + cx].push((p, item));
        self.len += 1;
    }

    /// All items within Euclidean distance `radius` of `p`.
    ///
    /// Equivalent to [`query_circle`](Self::query_circle); kept as the
    /// historical name.
    pub fn query_radius(&self, p: &Point, radius: f32) -> Vec<(Point, T)> {
        self.query_circle(p, radius)
    }

    /// Squared distance from `p` to the closest point of cell
    /// `(cx, cy)`'s rectangle (0 when `p` is inside the cell).
    fn cell_dist_sq(&self, cx: usize, cy: usize, p: &Point) -> f32 {
        let x0 = cx as f32 * self.cell_size;
        let y0 = cy as f32 * self.cell_size;
        let dx = (x0 - p.x).max(p.x - (x0 + self.cell_size)).max(0.0);
        let dy = (y0 - p.y).max(p.y - (y0 + self.cell_size)).max(0.0);
        dx * dx + dy * dy
    }

    /// All items within Euclidean distance `radius` of `p`, visiting only
    /// grid cells whose rectangle actually intersects the circle.
    ///
    /// A plain bounding-rectangle sweep visits `O((2r/cell)^2)` cells; the
    /// corner cells of that rectangle (≈ 21 % of it for large `r`) cannot
    /// contain matches and are skipped here before their contents are
    /// touched. Output order is the cell scan order (row-major, insertion
    /// order within a cell) — identical to the bounding-rectangle sweep,
    /// since skipped cells contribute no items.
    pub fn query_circle(&self, p: &Point, radius: f32) -> Vec<(Point, T)> {
        let mut out = Vec::new();
        self.for_each_in_circle(p, radius, |q, item| out.push((*q, item.clone())));
        out
    }

    /// Call `f` on every item [`Self::query_circle`] returns, in its
    /// order.
    fn for_each_in_circle(&self, p: &Point, radius: f32, mut f: impl FnMut(&Point, &T)) {
        let r2 = radius * radius;
        let cx0 = (((p.x - radius) / self.cell_size).floor() as i64).clamp(0, self.cols as i64 - 1)
            as usize;
        let cx1 = (((p.x + radius) / self.cell_size).floor() as i64).clamp(0, self.cols as i64 - 1)
            as usize;
        let cy0 = (((p.y - radius) / self.cell_size).floor() as i64).clamp(0, self.rows as i64 - 1)
            as usize;
        let cy1 = (((p.y + radius) / self.cell_size).floor() as i64).clamp(0, self.rows as i64 - 1)
            as usize;
        // Out-of-bounds inserts clamp into boundary cells, so boundary
        // cells may hold points arbitrarily far outside the grid; they
        // must not be distance-pruned.
        let boundary =
            |cx: usize, cy: usize| cx == 0 || cy == 0 || cx == self.cols - 1 || cy == self.rows - 1;
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let cell = &self.cells[cy * self.cols + cx];
                if cell.is_empty() || !boundary(cx, cy) && self.cell_dist_sq(cx, cy, p) > r2 {
                    continue;
                }
                for (q, item) in cell {
                    if q.dist_sq(p) <= r2 {
                        f(q, item);
                    }
                }
            }
        }
    }

    /// The `k` nearest items to `p`, nearest first (ties in cell scan
    /// order).
    ///
    /// Searches outward ring by ring: circles of radius
    /// `cell_size · 2^j` for `j = 0, 1, …`, stopping at the first that
    /// holds `k` items or, once the radius reaches twice the grid's
    /// extent, all of them (small indexes); that circle's items, sorted
    /// by distance, give the answer. The rings share one buffer, only the
    /// last is sorted, and with fewer than `k` items the rings that
    /// cannot end the search are skipped. Points with a NaN coordinate
    /// are in no circle and never returned.
    pub fn knn(&self, p: &Point, k: usize) -> Vec<(Point, T)> {
        let mut found = Vec::new();
        if k == 0 || self.len == 0 {
            return found;
        }
        let max_dim = (self.cols.max(self.rows) as f32 + 1.0) * self.cell_size;
        let mut radius = self.cell_size;
        loop {
            let wide = radius >= max_dim * 2.0;
            // With fewer than k items, only a wide circle can end the
            // search.
            if k <= self.len || wide {
                found.clear();
                self.for_each_in_circle(p, radius, |q, item| found.push((*q, item.clone())));
                let n = found.len();
                // An infinite circle holds every point any circle will.
                if n >= k || (wide && n == self.len) || radius.is_infinite() {
                    break;
                }
            }
            radius *= 2.0;
        }
        found.sort_by(|a, b| {
            a.0.dist_sq(p)
                .partial_cmp(&b.0.dist_sq(p))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        found.truncate(k);
        found
    }

    /// [`Self::knn`] as it was first written, collecting and sorting
    /// every ring. Kept as its test oracle.
    #[cfg(test)]
    fn knn_by_rings(&self, p: &Point, k: usize) -> Vec<(Point, T)> {
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        let mut radius = self.cell_size;
        let max_dim = (self.cols.max(self.rows) as f32 + 1.0) * self.cell_size;
        loop {
            let mut found = self.query_radius(p, radius);
            if found.len() >= k || radius >= max_dim * 2.0 {
                found.sort_by(|a, b| {
                    a.0.dist_sq(p)
                        .partial_cmp(&b.0.dist_sq(p))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                found.truncate(k);
                if found.len() >= k.min(self.len) {
                    return found;
                }
            }
            radius *= 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> GridIndex<usize> {
        let mut g = GridIndex::new(100.0, 100.0, 10.0);
        g.insert(Point::new(5.0, 5.0), 0);
        g.insert(Point::new(6.0, 5.0), 1);
        g.insert(Point::new(50.0, 50.0), 2);
        g.insert(Point::new(95.0, 95.0), 3);
        g
    }

    #[test]
    fn radius_query_finds_near_items_only() {
        let g = build();
        let mut ids: Vec<usize> = g
            .query_radius(&Point::new(5.0, 5.0), 2.0)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn radius_query_spanning_cells() {
        let g = build();
        let ids: Vec<usize> = g
            .query_radius(&Point::new(48.0, 48.0), 5.0)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn knn_returns_sorted_by_distance() {
        let g = build();
        let ids: Vec<usize> = g
            .knn(&Point::new(0.0, 0.0), 3)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn knn_with_k_larger_than_len() {
        let g = build();
        let all = g.knn(&Point::new(50.0, 50.0), 10);
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].1, 2);
    }

    #[test]
    fn out_of_bounds_points_are_clamped() {
        let mut g = GridIndex::new(10.0, 10.0, 5.0);
        g.insert(Point::new(-100.0, -100.0), 7);
        let found = g.query_radius(&Point::new(-100.0, -100.0), 1.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, 7);
    }

    #[test]
    fn query_circle_matches_brute_force() {
        // Deterministic LCG scatter over the grid, including out-of-bounds
        // points (exercises the boundary-cell no-prune rule).
        let mut g = GridIndex::new(200.0, 120.0, 8.0);
        let mut pts = Vec::new();
        let mut s: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) * 300.0 - 50.0
        };
        for i in 0..500usize {
            let p = Point::new(next(), next());
            g.insert(p, i);
            pts.push(p);
        }
        for (cx, cy, r) in [
            (100.0, 60.0, 25.0),
            (0.0, 0.0, 40.0),
            (199.0, 119.0, 13.0),
            (-30.0, -30.0, 35.0),
            (100.0, 60.0, 3.0),
            (50.0, 110.0, 500.0),
        ] {
            let c = Point::new(cx, cy);
            let mut brute: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist_sq(&c) <= r * r)
                .map(|(i, _)| i)
                .collect();
            let mut fast: Vec<usize> = g.query_circle(&c, r).into_iter().map(|(_, i)| i).collect();
            // query_radius must stay the same lookup under its old name
            let mut old: Vec<usize> = g.query_radius(&c, r).into_iter().map(|(_, i)| i).collect();
            brute.sort_unstable();
            fast.sort_unstable();
            old.sort_unstable();
            assert_eq!(fast, brute, "center ({cx},{cy}) r {r}");
            assert_eq!(old, brute);
        }
    }

    // The one-buffer `knn` returns the ring search's items in its
    // order: random grids and cell sizes, points in and outside the
    // bounds (boundary cells), coordinates on a 4 px lattice so equal
    // distances tie, and any `k` from 0 past the item count.
    proptest::proptest! {
        #[test]
        fn knn_matches_ring_search(
            dims in (1.0f32..400.0, 1.0f32..300.0, 2.0f32..80.0),
            n in 0usize..120,
            k in 0usize..40,
            seed in 0u64..u64::MAX,
        ) {
            let (w, h, cell) = dims;
            let mut s = seed;
            let mut next = |lo: f32, hi: f32| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = lo + (hi - lo) * ((s >> 40) as f32 / (1u64 << 24) as f32);
                (v / 4.0).round() * 4.0
            };
            let mut g = GridIndex::new(w, h, cell);
            for i in 0..n {
                g.insert(Point::new(next(-60.0, w + 60.0), next(-60.0, h + 60.0)), i);
            }
            for _ in 0..4 {
                let q = Point::new(next(-80.0, w + 80.0), next(-80.0, h + 80.0));
                let key = |v: Vec<(Point, usize)>| -> Vec<(u32, u32, usize)> {
                    v.into_iter().map(|(p, i)| (p.x.to_bits(), p.y.to_bits(), i)).collect()
                };
                proptest::prop_assert_eq!(key(g.knn(&q, k)), key(g.knn_by_rings(&q, k)));
            }
        }
    }

    #[test]
    fn empty_index_queries() {
        let g: GridIndex<usize> = GridIndex::new(10.0, 10.0, 5.0);
        assert!(g.is_empty());
        assert!(g.query_radius(&Point::new(1.0, 1.0), 100.0).is_empty());
        assert!(g.knn(&Point::new(1.0, 1.0), 3).is_empty());
    }
}
