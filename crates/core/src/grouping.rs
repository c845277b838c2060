//! Grouping positive cells into detector windows (§3.3, "Grouping Cells
//! during Execution").
//!
//! Given the set of positive cells from the proxy model and a fixed set of
//! window sizes `W` with per-size detector execution times `T_{w,h}`, find
//! a set of rectangles (sized from `W`) covering all positive cells with
//! an (approximately) minimal estimated execution time `est(R) = Σ T`.
//!
//! Implementation follows the paper: initialize one cluster per connected
//! component of positive cells, then greedily merge cluster pairs whenever
//! the merge lowers `est(R)`; fall back to the whole frame when that is
//! cheaper.

use crate::windows::WindowSet;
use otif_geom::Rect;

/// A cluster of positive cells tracked by its cell-space bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cluster {
    cx0: usize,
    cy0: usize,
    cx1: usize, // inclusive
    cy1: usize, // inclusive
}

impl Cluster {
    fn of_cell(c: (usize, usize)) -> Self {
        Cluster {
            cx0: c.0,
            cy0: c.1,
            cx1: c.0,
            cy1: c.1,
        }
    }

    fn merge(&self, o: &Cluster) -> Cluster {
        Cluster {
            cx0: self.cx0.min(o.cx0),
            cy0: self.cy0.min(o.cy0),
            cx1: self.cx1.max(o.cx1),
            cy1: self.cy1.max(o.cy1),
        }
    }

    /// Pixel-space extent (cells are 32×32).
    fn px_size(&self) -> (f32, f32) {
        (
            ((self.cx1 - self.cx0 + 1) * 32) as f32,
            ((self.cy1 - self.cy0 + 1) * 32) as f32,
        )
    }
}

/// The bounding clusters of the connected components (4-connectivity)
/// of positive cells, in order of each component's first cell in
/// `cells`. Membership and visits live in one dense state map over the
/// cells' bounding grid.
fn components(cells: &[(usize, usize)]) -> Vec<Cluster> {
    const POSITIVE: u8 = 1;
    const VISITED: u8 = 2;
    let gw = cells.iter().map(|c| c.0 + 1).max().unwrap_or(0);
    let gh = cells.iter().map(|c| c.1 + 1).max().unwrap_or(0);
    let mut state = vec![0u8; gw * gh];
    for &(x, y) in cells {
        state[y * gw + x] = POSITIVE;
    }
    let mut clusters = Vec::new();
    let mut stack = Vec::new();
    for &start in cells {
        if state[start.1 * gw + start.0] == VISITED {
            continue;
        }
        state[start.1 * gw + start.0] = VISITED;
        stack.push(start);
        let mut cluster = Cluster::of_cell(start);
        while let Some((x, y)) = stack.pop() {
            cluster = cluster.merge(&Cluster::of_cell((x, y)));
            let neighbours = [
                (x + 1 < gw).then(|| (x + 1, y)),
                (y + 1 < gh).then(|| (x, y + 1)),
                x.checked_sub(1).map(|x| (x, y)),
                y.checked_sub(1).map(|y| (x, y)),
            ];
            for (nx, ny) in neighbours.into_iter().flatten() {
                let s = &mut state[ny * gw + nx];
                if *s == POSITIVE {
                    *s = VISITED;
                    stack.push((nx, ny));
                }
            }
        }
        clusters.push(cluster);
    }
    clusters
}

/// How one cluster is covered: the cost of its tiles, the window size
/// and the tile counts along x and y.
type Tiling = (f64, (f32, f32), usize, usize);

/// Cost of covering one cluster with tiles of the cheapest suitable window
/// size from `ws`, and the chosen size.
fn cluster_cost(cluster: &Cluster, ws: &WindowSet) -> Tiling {
    let (need_w, need_h) = cluster.px_size();
    let mut best: Option<Tiling> = None;
    for &(w, h) in &ws.sizes {
        let tx = (need_w / w).ceil().max(1.0) as usize;
        let ty = (need_h / h).ceil().max(1.0) as usize;
        let cost = (tx * ty) as f64 * ws.window_time(w, h);
        if best.map(|(c, ..)| cost < c).unwrap_or(true) {
            best = Some((cost, (w, h), tx, ty));
        }
    }
    best.expect("WindowSet always contains the full-frame size")
}

/// Group positive cells into detector windows.
///
/// Returns native-coordinate rectangles covering all positive cells,
/// using sizes from `ws` only. Returns an empty vec when there are no
/// positive cells (the frame can skip detection entirely — the NoScope
/// case). Falls back to a single full-frame window when tiling would be
/// slower.
pub fn group_cells(cells: &[(usize, usize)], ws: &WindowSet) -> Vec<Rect> {
    if cells.is_empty() {
        return Vec::new();
    }
    // 1. connected components → initial clusters, each with its tiling
    let mut clusters = components(cells);
    let mut tilings: Vec<Tiling> = clusters.iter().map(|c| cluster_cost(c, ws)).collect();

    // 2. greedy agglomerative merging while est(R) decreases
    loop {
        let mut best: Option<(usize, usize, f64, Tiling)> = None; // (i, j, gain, merged)
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let merged = cluster_cost(&clusters[i].merge(&clusters[j]), ws);
                let gain = tilings[i].0 + tilings[j].0 - merged.0;
                if gain > 1e-12 && best.map(|(_, _, g, _)| gain > g).unwrap_or(true) {
                    best = Some((i, j, gain, merged));
                }
            }
        }
        match best {
            Some((i, j, _, merged)) => {
                let cj = clusters.swap_remove(j);
                tilings.swap_remove(j);
                clusters[i] = clusters[i].merge(&cj);
                tilings[i] = merged;
            }
            None => break,
        }
    }

    // 3. emit tiled windows per cluster, clamped inside the frame
    emit_windows(&clusters, &tilings, ws)
}

/// Tile each cluster with its window size (final tiles shifted back
/// inside the frame), or one full-frame window when that is no dearer.
fn emit_windows(clusters: &[Cluster], tilings: &[Tiling], ws: &WindowSet) -> Vec<Rect> {
    let frame = Rect::new(0.0, 0.0, ws.frame_w, ws.frame_h);
    let mut rects = Vec::new();
    let mut total_cost = 0.0;
    for (c, &(cost, (w, h), tx, ty)) in clusters.iter().zip(tilings) {
        total_cost += cost;
        let x0 = (c.cx0 * 32) as f32;
        let y0 = (c.cy0 * 32) as f32;
        for iy in 0..ty {
            for ix in 0..tx {
                let mut x = x0 + ix as f32 * w;
                let mut y = y0 + iy as f32 * h;
                // shift the final tiles back inside the frame
                x = x.min(ws.frame_w - w).max(0.0);
                y = y.min(ws.frame_h - h).max(0.0);
                rects.push(Rect::new(x, y, w, h));
            }
        }
    }
    // 4. whole-frame fallback
    let full_cost = ws.window_time(ws.frame_w, ws.frame_h);
    if total_cost >= full_cost {
        return vec![frame];
    }
    rects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::WindowSet;
    use proptest::prelude::*;

    /// Connected components (4-connectivity) of positive cells: the
    /// hash-set search [`components`] replaced, kept as its oracle.
    fn connected_components(cells: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
        use std::collections::HashSet;
        let set: HashSet<(usize, usize)> = cells.iter().copied().collect();
        let mut visited: HashSet<(usize, usize)> = HashSet::new();
        let mut comps = Vec::new();
        for &start in cells {
            if visited.contains(&start) {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            visited.insert(start);
            while let Some(c) = stack.pop() {
                comp.push(c);
                let (x, y) = c;
                let mut push = |n: (usize, usize)| {
                    if set.contains(&n) && visited.insert(n) {
                        stack.push(n);
                    }
                };
                push((x + 1, y));
                push((x, y + 1));
                if x > 0 {
                    push((x - 1, y));
                }
                if y > 0 {
                    push((x, y - 1));
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// [`group_cells`] as it was before each cluster kept its tiling:
    /// every round recomputes both clusters' costs for every pair. The
    /// oracle the incremental loop is tested against.
    fn group_cells_reference(cells: &[(usize, usize)], ws: &WindowSet) -> Vec<Rect> {
        if cells.is_empty() {
            return Vec::new();
        }
        let mut clusters: Vec<Cluster> = connected_components(cells)
            .into_iter()
            .map(|comp| {
                comp.into_iter()
                    .map(Cluster::of_cell)
                    .reduce(|a, b| a.merge(&b))
                    .unwrap()
            })
            .collect();
        loop {
            let mut best: Option<(usize, usize, f64)> = None; // (i, j, gain)
            for i in 0..clusters.len() {
                let (ci, ..) = cluster_cost(&clusters[i], ws);
                for j in (i + 1)..clusters.len() {
                    let (cj, ..) = cluster_cost(&clusters[j], ws);
                    let merged = clusters[i].merge(&clusters[j]);
                    let (cm, ..) = cluster_cost(&merged, ws);
                    let gain = ci + cj - cm;
                    if gain > 1e-12 && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                        best = Some((i, j, gain));
                    }
                }
            }
            match best {
                Some((i, j, _)) => {
                    let cj = clusters.swap_remove(j);
                    let merged = clusters[i].merge(&cj);
                    clusters[i] = merged;
                }
                None => break,
            }
        }
        let tilings: Vec<Tiling> = clusters.iter().map(|c| cluster_cost(c, ws)).collect();
        emit_windows(&clusters, &tilings, ws)
    }

    /// A window set over a 384×224 frame with sizes full, 128×96, 64×64.
    fn ws() -> WindowSet {
        WindowSet::new(
            384.0,
            224.0,
            vec![(384.0, 224.0), (128.0, 96.0), (64.0, 64.0)],
            6.2e-8,
            8.0e-4,
        )
    }

    #[test]
    fn no_cells_no_windows() {
        assert!(group_cells(&[], &ws()).is_empty());
    }

    #[test]
    fn single_cell_covered_by_smallest_window() {
        let r = group_cells(&[(2, 3)], &ws());
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].w, r[0].h), (64.0, 64.0));
        // covers the cell at (64..96, 96..128)
        assert!(r[0].contains_point(&otif_geom::Point::new(70.0, 100.0)));
    }

    #[test]
    fn adjacent_cells_merge_into_one_window() {
        let r = group_cells(&[(2, 3), (3, 3)], &ws());
        assert_eq!(r.len(), 1);
        // two cells wide = 64 px fits a 64×64 window
        assert_eq!((r[0].w, r[0].h), (64.0, 64.0));
    }

    #[test]
    fn far_apart_cells_stay_separate() {
        let r = group_cells(&[(0, 0), (10, 5)], &ws());
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|r| (r.w, r.h) == (64.0, 64.0)));
    }

    #[test]
    fn windows_cover_all_positive_cells() {
        let cells = vec![(0, 0), (1, 0), (5, 2), (6, 2), (6, 3), (11, 6)];
        let r = group_cells(&cells, &ws());
        for (cx, cy) in cells {
            let center = otif_geom::Point::new(cx as f32 * 32.0 + 16.0, cy as f32 * 32.0 + 16.0);
            assert!(
                r.iter().any(|w| w.contains_point(&center)),
                "cell ({cx},{cy}) uncovered by {r:?}"
            );
        }
    }

    #[test]
    fn dense_frame_falls_back_to_full_frame() {
        // every cell positive
        let mut cells = Vec::new();
        for cy in 0..7 {
            for cx in 0..12 {
                cells.push((cx, cy));
            }
        }
        let r = group_cells(&cells, &ws());
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].w, r[0].h), (384.0, 224.0));
    }

    #[test]
    fn windows_stay_inside_frame() {
        // cell at the bottom-right corner
        let r = group_cells(&[(11, 6)], &ws());
        let frame = Rect::new(0.0, 0.0, 384.0, 224.0);
        for w in &r {
            assert!(frame.contains_rect(w), "window {w:?} leaves the frame");
        }
    }

    #[test]
    fn grouped_cost_never_exceeds_full_frame() {
        let ws = ws();
        let full = ws.window_time(384.0, 224.0);
        for pattern in [
            vec![(0usize, 0usize)],
            vec![(0, 0), (11, 6), (5, 3)],
            (0..12)
                .flat_map(|x| (0..7).map(move |y| (x, y)))
                .collect::<Vec<_>>(),
        ] {
            let r = group_cells(&pattern, &ws);
            let cost: f64 = r.iter().map(|w| ws.window_time(w.w, w.h)).sum();
            assert!(
                cost <= full + 1e-9,
                "pattern of {} cells cost {cost} > full {full}",
                pattern.len()
            );
        }
    }

    #[test]
    fn connected_components_diagonals_are_separate() {
        let comps = components(&[(0, 0), (1, 1)]);
        assert_eq!(comps.len(), 2, "4-connectivity: diagonal cells separate");
        let comps = components(&[(0, 0), (1, 0), (1, 1)]);
        assert_eq!(comps.len(), 1);
    }

    /// A window set over Warsaw's 640×384 frame with four sizes, so
    /// merges trade off between them.
    fn warsaw_ws() -> WindowSet {
        WindowSet::new(
            640.0,
            384.0,
            vec![(640.0, 384.0), (256.0, 192.0), (128.0, 96.0), (64.0, 64.0)],
            6.2e-8,
            8.0e-4,
        )
    }

    proptest! {
        #[test]
        fn group_cells_matches_reference(
            cells in proptest::collection::vec((0usize..20, 0usize..12), 0..60),
            row_major in 0usize..2,
        ) {
            // duplicates in any order, or the proxy's deduped row-major
            // lists
            let mut cells = cells;
            if row_major == 1 {
                cells.sort_unstable_by_key(|&(x, y)| (y, x));
                cells.dedup();
            }
            for ws in [ws(), warsaw_ws()] {
                let fast = group_cells(&cells, &ws);
                let reference = group_cells_reference(&cells, &ws);
                prop_assert_eq!(&fast, &reference, "cells {:?}", cells);
            }
            let clusters: Vec<Cluster> = connected_components(&cells)
                .into_iter()
                .map(|comp| comp.into_iter().map(Cluster::of_cell).reduce(|a, b| a.merge(&b)).unwrap())
                .collect();
            prop_assert_eq!(components(&cells), clusters);
        }
    }
}
