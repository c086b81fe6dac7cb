//! An exact bucketed index over unit quaternions up to sign.
//!
//! Every single-qubit unitary is a unit quaternion `x` up to phase, and
//! `x` is fixed up to sign (`mps::quaternion`). Nearness of two unitaries
//! is nearness of `±x` on the 3-sphere S³, so every table query trasyn
//! makes — the argmax closing, `UnitaryTable::closest`, the peephole's
//! window lookups — is a ball query on S³ up to sign.
//!
//! The index is a uniform grid over the cube `[−1, 1]⁴` holding each
//! point under both signs, stored as compressed rows: one offset per cell
//! (the cells in row-major order) into a flat array of `u32` signed ids.
//! A query walks every cell the ball's bounding box meets (cells along the
//! last axis are contiguous, so each `(c₀, c₁, c₂)` column of the box is
//! one run of ids) and reports exactly the signed points inside the ball.

/// The uniform-grid index. See the module docs.
#[derive(Clone, Debug)]
pub struct S3Index {
    /// Cells per axis.
    cells: usize,
    /// Cell `c` holds `ids[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// Point ids grouped by cell, with `NEGATED` set on the copy that
    /// stands for `−x`.
    ids: Vec<u32>,
    /// The points as coordinate planes: point `s` is
    /// `[x₀[s], x₁[s], x₂[s], x₃[s]]`.
    planes: [Vec<f64>; 4],
}

/// The id bit marking a point's negated copy.
const NEGATED: u32 = 1 << 31;

/// Widens every query box by this much, so the box's float bounds contain
/// every point within the requested distance.
const ROUNDING_PAD: f64 = 1e-12;

impl S3Index {
    /// Indexes the points in `planes` and their negatives.
    ///
    /// The grid has `round(∛(n/8))` cells per axis for `n` points: the
    /// sphere meets about `2.5·k³` of the `k⁴` cells, so a cell it meets
    /// holds about 7 of the `2n` signed points.
    ///
    /// # Panics
    ///
    /// Panics if the planes differ in length or hold `2³¹` points or more.
    pub fn new(planes: [Vec<f64>; 4]) -> Self {
        let n = planes[0].len();
        assert!(planes.iter().all(|p| p.len() == n), "ragged planes");
        assert!(n < NEGATED as usize, "too many points for 31-bit ids");
        let cells = ((n as f64 / 8.0).cbrt().round() as usize).max(1);
        let mut index = S3Index {
            cells,
            offsets: vec![0; cells.pow(4) + 1],
            ids: vec![0; 2 * n],
            planes,
        };
        let signed_cells = |index: &S3Index, s: usize| {
            let x = index.point(s);
            [
                (s as u32, index.cell(x)),
                (s as u32 | NEGATED, index.cell(x.map(|v| -v))),
            ]
        };
        // Counting sort by cell: sizes, then exclusive running sums, then
        // one pass placing each id at its cell's cursor.
        for s in 0..n {
            for (_, c) in signed_cells(&index, s) {
                index.offsets[c + 1] += 1;
            }
        }
        for c in 1..index.offsets.len() {
            index.offsets[c] += index.offsets[c - 1];
        }
        let mut cursor = index.offsets.clone();
        for s in 0..n {
            for (id, c) in signed_cells(&index, s) {
                index.ids[cursor[c] as usize] = id;
                cursor[c] += 1;
            }
        }
        index
    }

    /// The indexed points as coordinate planes.
    pub fn planes(&self) -> [&[f64]; 4] {
        self.planes.each_ref().map(Vec::as_slice)
    }

    /// Point `s`.
    #[inline]
    pub fn point(&self, s: usize) -> [f64; 4] {
        self.planes.each_ref().map(|plane| plane[s])
    }

    /// The side of a grid cell.
    pub fn cell_side(&self) -> f64 {
        2.0 / self.cells as f64
    }

    /// Calls `f(s)` for every point `s` with `+x_s` or `−x_s` within
    /// Euclidean (chordal) distance `d` of `y`: once per sign inside the
    /// ball, so twice only when both are, which needs `d ≥ 1`.
    pub fn visit(&self, y: [f64; 4], d: f64, mut f: impl FnMut(usize)) {
        let lo = y.map(|v| self.axis(v - d - ROUNDING_PAD));
        let hi = y.map(|v| self.axis(v + d + ROUNDING_PAD));
        let k = self.cells;
        for c0 in lo[0]..=hi[0] {
            for c1 in lo[1]..=hi[1] {
                for c2 in lo[2]..=hi[2] {
                    let column = ((c0 * k + c1) * k + c2) * k;
                    let run = self.offsets[column + lo[3]]..self.offsets[column + hi[3] + 1];
                    for &id in &self.ids[run.start as usize..run.end as usize] {
                        let s = (id & !NEGATED) as usize;
                        let sign = if id & NEGATED == 0 { 1.0 } else { -1.0 };
                        let x = self.point(s);
                        let dist2: f64 = (0..4).map(|j| (sign * x[j] - y[j]).powi(2)).sum();
                        if dist2 <= d * d {
                            f(s);
                        }
                    }
                }
            }
        }
    }

    /// The cell coordinate of `v` along one axis, clamped to the grid.
    #[inline]
    fn axis(&self, v: f64) -> usize {
        // Monotone in `v` (so query boxes are exact) and saturating: a NaN
        // or out-of-range coordinate lands in an edge cell.
        ((v + 1.0) * (self.cells as f64 / 2.0))
            .floor()
            .clamp(0.0, (self.cells - 1) as f64) as usize
    }

    /// The row-major cell of a point.
    fn cell(&self, x: [f64; 4]) -> usize {
        x.iter().fold(0, |c, &v| c * self.cells + self.axis(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dist(x: [f64; 4], y: [f64; 4]) -> f64 {
        (0..4).map(|j| (x[j] - y[j]).powi(2)).sum::<f64>().sqrt()
    }

    fn dist_up_to_sign(x: [f64; 4], y: [f64; 4]) -> f64 {
        dist(x, y).min(dist(x.map(|v| -v), y))
    }

    fn planes(points: &[[f64; 4]]) -> [Vec<f64>; 4] {
        std::array::from_fn(|k| points.iter().map(|x| x[k]).collect())
    }

    fn unit(v: [f64; 4]) -> [f64; 4] {
        let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
        v.map(|a| a / norm)
    }

    fn quaternion() -> impl Strategy<Value = [f64; 4]> {
        (-1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64)
            .prop_filter("nonzero", |&(a, b, c, d)| {
                a * a + b * b + c * c + d * d > 1e-6
            })
            .prop_map(|(a, b, c, d)| unit([a, b, c, d]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The index against a linear scan, at random `y` and `d`
        /// (including radii past 1, where points come back twice): each
        /// point is visited once per sign within `d` of `y`.
        #[test]
        fn visit_covers_the_ball(
            points in prop::collection::vec(quaternion(), 1..400),
            y in quaternion(),
            d in 0.0..1.6f64,
        ) {
            let index = S3Index::new(planes(&points));
            let mut seen = vec![0usize; points.len()];
            index.visit(y, d, |s| seen[s] += 1);
            for (s, &x) in points.iter().enumerate() {
                let inside = [x, x.map(|v| -v)]
                    .iter()
                    .filter(|p| dist(**p, y) <= d)
                    .count();
                prop_assert_eq!(seen[s], inside, "point {} at {}", s, dist_up_to_sign(x, y));
            }
        }
    }

    #[test]
    fn a_full_radius_visits_every_point_under_both_signs() {
        let points = [
            [1.0, 0.0, 0.0, 0.0],
            unit([0.5, -0.5, 0.5, 0.5]),
            unit([0.1, 0.2, -0.3, 0.9]),
        ];
        let index = S3Index::new(planes(&points));
        let mut seen = [0usize; 3];
        index.visit([0.0; 4], 2.0, |s| seen[s] += 1);
        assert_eq!(seen, [2, 2, 2]);
    }
}
