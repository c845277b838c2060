//! Hungarian (Kuhn–Munkres) algorithm for minimum-cost assignment.
//!
//! Both the SORT baseline and OTIF's recurrent tracker must match a set of
//! new detections against a set of active tracks; both reduce to an
//! assignment problem over a score/cost matrix.

/// Solve the rectangular assignment problem.
///
/// `cost` is a `rows × cols` matrix given as one `Vec` per row. Returns,
/// for each row, the assigned column (or `None` if the row is unassigned
/// because `rows > cols`). The total cost of the returned assignment is
/// minimal. Callers that solve one problem per frame use
/// [`Hungarian::solve`] on a flat matrix instead, which reuses its
/// buffers and returns the same assignment.
///
/// ```
/// use otif_geom::hungarian;
/// let cost = vec![vec![4.0, 1.0], vec![2.0, 3.0]];
/// // row 0 takes the cheap column 1, freeing column 0 for row 1
/// assert_eq!(hungarian(&cost), vec![Some(1), Some(0)]);
/// ```
pub fn hungarian(cost: &[Vec<f32>]) -> Vec<Option<usize>> {
    let cols = cost.first().map_or(0, Vec::len);
    for r in cost {
        assert_eq!(r.len(), cols, "cost matrix rows must have equal length");
    }
    Hungarian::default()
        .solve(&cost.concat(), cost.len(), cols)
        .to_vec()
}

/// The buffers of the assignment solver, kept between calls so that a
/// tracker solving one problem per frame allocates only while its
/// matrices grow.
#[derive(Debug, Clone, Default)]
pub struct Hungarian {
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    assign: Vec<Option<usize>>,
}

/// Refill `buf` with `len` copies of `value`.
fn reset<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

impl Hungarian {
    /// Solve the assignment problem for the row-major `rows × cols`
    /// matrix `cost`: for each row, the assigned column, or `None` if the
    /// row is unassigned because `rows > cols`. The total cost is
    /// minimal.
    ///
    /// Implementation: the classic O(n³) potentials/augmenting-path
    /// algorithm on the matrix padded to `n × n`, `n = max(rows, cols)`.
    ///
    /// ```
    /// use otif_geom::Hungarian;
    /// let mut solver = Hungarian::default();
    /// assert_eq!(solver.solve(&[4.0, 1.0, 2.0, 3.0], 2, 2), &[Some(1), Some(0)]);
    /// ```
    pub fn solve(&mut self, cost: &[f32], rows: usize, cols: usize) -> &[Option<usize>] {
        assert_eq!(cost.len(), rows * cols, "cost matrix shape");
        let Hungarian {
            u,
            v,
            p,
            way,
            minv,
            used,
            assign,
        } = self;
        reset(assign, rows, None);
        if rows == 0 || cols == 0 {
            return assign;
        }
        let n = rows.max(cols);

        // Pad to n×n with zeros (padded cells are "free" dummy assignments).
        // Using f64 internally for numerical stability of the potentials.
        let get = |i: usize, j: usize| -> f64 {
            if i < rows && j < cols {
                cost[i * cols + j] as f64
            } else {
                0.0
            }
        };

        // 1-indexed arrays per the standard formulation.
        reset(u, n + 1, 0.0);
        reset(v, n + 1, 0.0);
        reset(p, n + 1, 0); // p[j] = row assigned to column j
        reset(way, n + 1, 0);

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0_usize;
            reset(minv, n + 1, f64::INFINITY);
            reset(used, n + 1, false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0;
                for j in 1..=n {
                    if !used[j] {
                        let cur = get(i0 - 1, j - 1) - u[i0] - v[j];
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                for j in 0..=n {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Augment along the alternating path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        for (j, &i) in p.iter().enumerate().take(n + 1).skip(1) {
            if i >= 1 && i <= rows && j <= cols {
                assign[i - 1] = Some(j - 1);
            }
        }
        assign
    }
}

/// Total cost of an assignment produced by [`hungarian`].
pub fn assignment_cost(cost: &[Vec<f32>], assign: &[Option<usize>]) -> f32 {
    assign
        .iter()
        .enumerate()
        .filter_map(|(i, j)| j.map(|j| cost[i][j]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_optimal_for_diagonal_matrix() {
        let cost = vec![
            vec![1.0, 10.0, 10.0],
            vec![10.0, 1.0, 10.0],
            vec![10.0, 10.0, 1.0],
        ];
        let a = hungarian(&cost);
        assert_eq!(a, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(assignment_cost(&cost, &a), 3.0);
    }

    #[test]
    fn classic_3x3() {
        // Known optimum: rows→cols (0→1, 1→0, 2→2) with cost 5.
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = hungarian(&cost);
        assert_eq!(assignment_cost(&cost, &a), 5.0);
        // must be a permutation
        let mut cols: Vec<usize> = a.iter().map(|c| c.unwrap()).collect();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }

    #[test]
    fn rectangular_more_rows_than_cols() {
        let cost = vec![vec![1.0], vec![0.5], vec![2.0]];
        let a = hungarian(&cost);
        // Exactly one row assigned, the cheapest.
        let assigned: Vec<usize> = a
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(assigned, vec![1]);
    }

    #[test]
    fn rectangular_more_cols_than_rows() {
        let cost = vec![vec![3.0, 1.0, 2.0]];
        let a = hungarian(&cost);
        assert_eq!(a, vec![Some(1)]);
    }

    #[test]
    fn empty_matrices() {
        assert!(hungarian(&[]).is_empty());
        let cost: Vec<Vec<f32>> = vec![vec![], vec![]];
        assert_eq!(hungarian(&cost), vec![None, None]);
    }

    #[test]
    fn negative_costs_supported() {
        let cost = vec![vec![-5.0, 0.0], vec![0.0, -5.0]];
        let a = hungarian(&cost);
        assert_eq!(a, vec![Some(0), Some(1)]);
        assert_eq!(assignment_cost(&cost, &a), -10.0);
    }

    #[test]
    fn brute_force_agreement_on_random_matrices() {
        // Compare to exhaustive search on small matrices.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(1..=5usize);
            let cost: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect();
            let a = hungarian(&cost);
            let got = assignment_cost(&cost, &a);
            let best = brute_force(&cost);
            assert!(
                (got - best).abs() < 1e-3,
                "hungarian={got} brute={best} cost={cost:?}"
            );
        }
    }

    fn brute_force(cost: &[Vec<f32>]) -> f32 {
        let n = cost.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best = f32::INFINITY;
        permute(&mut perm, 0, &mut |p| {
            let c: f32 = p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            if c < best {
                best = c;
            }
        });
        best
    }

    fn permute(arr: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == arr.len() {
            f(arr);
            return;
        }
        for i in k..arr.len() {
            arr.swap(k, i);
            permute(arr, k + 1, f);
            arr.swap(k, i);
        }
    }
}
