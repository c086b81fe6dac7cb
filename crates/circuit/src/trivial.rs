//! Recognizing "trivial" rotations.
//!
//! Paper §2.2 footnote 3: a rotation is *nontrivial* if it needs more than
//! one T gate — `Rz` angles at integer multiples of π/4 (and generally any
//! unitary within the 96-element set `{Clifford, Clifford·T·Clifford}`)
//! synthesize exactly with at most one T, so they are excluded from
//! rotation counts and synthesized by table lookup.
//!
//! # The phase-invariant index
//!
//! [`as_trivial`] returns the first entry of [`trivial_set`], in set order,
//! that `m.approx_eq_phase(&entry.matrix, tol)` accepts. It finds that entry
//! without comparing `m` against all 96.
//!
//! [`Mat2::approx_eq_phase`] accepts only when every entry of `m` is within
//! `tol` of `φ·e` for one complex `φ` with `||φ| − 1| ≤ tol` (`φ = 1` in its
//! small-entry branch). Write `m = φ·e + d` with `|dᵢⱼ| < tol`; every `|eᵢⱼ|`
//! is at most 1. Then:
//!
//! * `||m₀₀| − |e₀₀|| ≤ |d₀₀| + ||φ| − 1|·|e₀₀| < 2·tol`. The modulus `|m₀₀|`
//!   does not depend on `m`'s global phase. Over the set, `|e₀₀|` takes five
//!   values: 1, cos π/8, 1/√2, sin π/8 and 0. The index groups the entries by
//!   that value when it is built, and a query looks only in the group whose
//!   `|e₀₀|` lies within `2·tol` of `|m₀₀|`. A generic rotation falls in no
//!   group and needs no comparison at all.
//! * The products `m₁₁·m̄₀₀` and `m₁₀·m̄₁₁` do not depend on global phase
//!   either. Expanding `(φ·e₁₁ + d₁₁)·conj(φ·e₀₀ + d₀₀)`, each lies within
//!   `||φ|² − 1| + 2·|φ|·tol + tol² ≤ 4·tol + 4·tol²` of the same product of
//!   `e`. Within the group, only the members whose products are that close
//!   reach `approx_eq_phase`, in set order, so the first one it accepts is
//!   the entry a scan of the whole set returns.
//!
//! Each bound gets a slack of 1e-12 on top. That is far above the rounding
//! error of a modulus or a product of entries near the unit circle, and of
//! `approx_eq_phase`'s own arithmetic.
//!
//! When `tol` is so wide that two groups' windows could overlap, that is
//! when `2·(2·tol + 1e-12)` reaches the smallest gap between the groups'
//! values (1 − cos π/8 ≈ 0.076), a match could lie in either group. Then
//! [`as_trivial`] scans the whole set, as it did before the index. Only
//! lint's ε-tolerance query (`L0204`) gets there.

use gates::clifford::clifford_elements;
use gates::{ExactMat2, Gate, GateSeq};
use qmath::{Complex64, Mat2};
use std::sync::OnceLock;

/// An exactly-representable gate with at most one T.
#[derive(Clone, Debug)]
pub struct TrivialEntry {
    /// Numeric matrix.
    pub matrix: Mat2,
    /// A gate sequence for the matrix with the fewest T gates: none for
    /// the 24 Cliffords, one for the other 72. Its H/S/S† count is not
    /// always the fewest a sequence with that T count needs.
    pub seq: GateSeq,
}

/// The 96 matrices with T count ≤ 1 (24 Cliffords + 72 with one T),
/// each with a sequence of that T count (see [`TrivialEntry::seq`]).
pub fn trivial_set() -> &'static [TrivialEntry] {
    static CACHE: OnceLock<Vec<TrivialEntry>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let cliffords = clifford_elements();
        let mut seen: Vec<ExactMat2> = Vec::new();
        let mut out: Vec<TrivialEntry> = Vec::new();
        let mut push = |seq: GateSeq| {
            let exact = ExactMat2::from_seq(&seq);
            let key = exact.phase_canonical();
            if !seen.contains(&key) {
                seen.push(key);
                out.push(TrivialEntry {
                    matrix: exact.to_mat2(),
                    seq,
                });
            }
        };
        for c in cliffords {
            push(c.seq.clone());
        }
        for c1 in cliffords {
            for c2 in cliffords {
                let mut seq = c1.seq.clone();
                seq.push(Gate::T);
                seq.extend_seq(&c2.seq);
                push(seq.simplified());
            }
        }
        out
    })
}

/// Rounding allowance added to every bound of the index (module doc).
const SLACK: f64 = 1e-12;

/// Two entries whose `|e₀₀|` differ by less than this share a group. The
/// values of one group differ by rounding only, those of different groups
/// by more than 0.07.
const SAME_MODULUS: f64 = 1e-6;

/// [`trivial_set`] grouped by `|e₀₀|` (module doc).
struct Index {
    groups: Vec<Group>,
    /// Smallest distance between two groups' `|e₀₀|` ranges.
    min_gap: f64,
}

/// The entries sharing one value of `|e₀₀|`.
struct Group {
    /// Smallest and largest `|e₀₀|` over the members.
    lo: f64,
    hi: f64,
    /// In set order.
    members: Vec<Member>,
}

struct Member {
    products: [Complex64; 2],
    entry: &'static TrivialEntry,
}

/// `[m₁₁·m̄₀₀, m₁₀·m̄₁₁]`: unchanged when `m` is multiplied by a unit phase.
fn phase_invariant_products(m: &Mat2) -> [Complex64; 2] {
    [m.e[3] * m.e[0].conj(), m.e[2] * m.e[3].conj()]
}

fn index() -> &'static Index {
    static INDEX: OnceLock<Index> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut groups: Vec<Group> = Vec::new();
        for entry in trivial_set() {
            let a = entry.matrix.e[0].abs();
            let member = Member {
                products: phase_invariant_products(&entry.matrix),
                entry,
            };
            match groups.iter_mut().find(|g| (a - g.lo).abs() < SAME_MODULUS) {
                Some(g) => {
                    g.lo = g.lo.min(a);
                    g.hi = g.hi.max(a);
                    g.members.push(member);
                }
                None => groups.push(Group {
                    lo: a,
                    hi: a,
                    members: vec![member],
                }),
            }
        }
        let min_gap = groups
            .iter()
            .flat_map(|g| groups.iter().filter(|h| h.lo > g.hi).map(|h| h.lo - g.hi))
            .fold(f64::INFINITY, f64::min);
        Index { groups, min_gap }
    })
}

/// The first entry of [`trivial_set`] that equals `m` up to global phase
/// within `tol`, by comparing `m` with every entry in turn.
fn scan(m: &Mat2, tol: f64) -> Option<&'static GateSeq> {
    trivial_set()
        .iter()
        .find(|e| m.approx_eq_phase(&e.matrix, tol))
        .map(|e| &e.seq)
}

/// If `m` equals (up to global phase, within `tol`) a unitary with T count
/// ≤ 1, returns that entry's sequence (see [`TrivialEntry::seq`]). The
/// entry is the first in [`trivial_set`] order that
/// [`Mat2::approx_eq_phase`] accepts; the module doc says how the index
/// finds it.
pub fn as_trivial(m: &Mat2, tol: f64) -> Option<&'static GateSeq> {
    let index = index();
    let window = 2.0 * tol + SLACK;
    if 2.0 * window >= index.min_gap {
        return scan(m, tol);
    }
    let a = m.e[0].abs();
    let group = index
        .groups
        .iter()
        .find(|g| g.lo - window <= a && a <= g.hi + window)?;
    let products = phase_invariant_products(m);
    let reach = 4.0 * tol * (1.0 + tol) + SLACK;
    let near = |x: Complex64, y: Complex64| (x - y).norm_sqr() <= reach * reach;
    group
        .members
        .iter()
        .find(|x| {
            near(products[0], x.products[0])
                && near(products[1], x.products[1])
                && m.approx_eq_phase(&x.entry.matrix, tol)
        })
        .map(|x| &x.entry.seq)
}

/// `true` when the rotation needs more than one T gate — the paper's
/// "nontrivial rotation" predicate used in all rotation counts.
pub fn is_nontrivial(m: &Mat2) -> bool {
    as_trivial(m, 1e-9).is_none()
}

/// `true` when `angle` is (numerically) an integer multiple of π/4.
pub fn is_pi4_multiple(angle: f64) -> bool {
    let steps = angle / std::f64::consts::FRAC_PI_4;
    (steps - steps.round()).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, FRAC_PI_8, PI};

    #[test]
    fn set_has_96_elements() {
        // 24·(3·2¹ − 2) = 96 unique matrices with T ≤ 1.
        assert_eq!(trivial_set().len(), 96);
    }

    #[test]
    fn rz_pi4_multiples_are_trivial() {
        for m in -8..=8 {
            let rz = Mat2::rz(m as f64 * FRAC_PI_4);
            assert!(!is_nontrivial(&rz), "Rz({m}π/4) should be trivial");
        }
    }

    #[test]
    fn generic_rotation_is_nontrivial() {
        assert!(is_nontrivial(&Mat2::rz(0.3)));
        assert!(is_nontrivial(&Mat2::u3(0.5, 0.2, 0.9)));
    }

    #[test]
    fn rx_pi2_is_trivial() {
        // Rx(π/2) = H·S·H·(phase): Clifford.
        assert!(!is_nontrivial(&Mat2::rx(FRAC_PI_2)));
    }

    #[test]
    fn sequences_reproduce_matrices() {
        let mut by_t = [0usize; 2];
        for e in trivial_set() {
            assert!(e.seq.matrix().approx_eq(&e.matrix, 1e-9), "{}", e.seq);
            assert!(e.seq.t_count() <= 1, "{}", e.seq);
            by_t[e.seq.t_count()] += 1;
        }
        assert_eq!(by_t, [24, 72]);
    }

    #[test]
    fn index_groups_the_set_by_modulus() {
        let index = index();
        let mut groups: Vec<(f64, usize)> = index
            .groups
            .iter()
            .map(|g| {
                assert!(g.hi - g.lo < 1e-15);
                (g.lo, g.members.len())
            })
            .collect();
        groups.sort_by(|x, y| x.0.total_cmp(&y.0));
        let want = [
            (0.0, 8),
            (FRAC_PI_8.sin(), 16),
            (0.5f64.sqrt(), 48),
            (FRAC_PI_8.cos(), 16),
            (1.0, 8),
        ];
        assert_eq!(groups.len(), want.len());
        for ((got, n), (value, len)) in groups.into_iter().zip(want) {
            assert!((got - value).abs() < 1e-15 && n == len, "{got} ×{n}");
        }
        assert!((index.min_gap - (1.0 - FRAC_PI_8.cos())).abs() < 1e-15);
    }

    /// `as_trivial` returns the same entry as the scan, compared by
    /// pointer: on generic rotations, on rotations within ±3e-9 of
    /// π/4-multiple angles, and on every set member times a random phase
    /// plus entrywise noise up to `tol`. The phase's modulus is drawn
    /// within `tol` of 1, as `approx_eq_phase` allows, so some inputs
    /// reach the index's bounds.
    #[test]
    fn index_returns_the_scans_entry() {
        let mut rng = StdRng::seed_from_u64(0x7121);
        let angle = |rng: &mut StdRng| rng.gen_range(-2.0 * PI..2.0 * PI);
        let near_pi4 = |rng: &mut StdRng| {
            rng.gen_range(-8i32..=8) as f64 * FRAC_PI_4 + rng.gen_range(-3e-9..=3e-9)
        };
        let mut inputs: Vec<Mat2> = Vec::new();
        for _ in 0..2_000 {
            inputs.push(Mat2::u3(angle(&mut rng), angle(&mut rng), angle(&mut rng)));
            inputs.push(Mat2::rz(angle(&mut rng)));
            inputs.push(Mat2::rx(angle(&mut rng)));
            inputs.push(Mat2::ry(angle(&mut rng)));
            inputs.push(Mat2::rz(near_pi4(&mut rng)));
            inputs.push(Mat2::rx(near_pi4(&mut rng)));
            inputs.push(Mat2::ry(near_pi4(&mut rng)));
            let (theta, phi, lambda) = (near_pi4(&mut rng), near_pi4(&mut rng), near_pi4(&mut rng));
            inputs.push(Mat2::u3(theta, phi, lambda));
        }
        for tol in [1e-9, 1e-2, 0.3] {
            let mut cases: Vec<Mat2> = inputs.clone();
            for e in trivial_set() {
                for _ in 0..100 {
                    let phase =
                        Complex64::from_polar(1.0 + rng.gen_range(-tol..tol), angle(&mut rng));
                    let mut m = e.matrix.scale(phase);
                    for z in &mut m.e {
                        *z += Complex64::from_polar(rng.gen_range(0.0..tol), angle(&mut rng));
                    }
                    cases.push(m);
                }
            }
            let mut found = 0;
            for m in &cases {
                let want = scan(m, tol).map(|s| s as *const GateSeq);
                let got = as_trivial(m, tol).map(|s| s as *const GateSeq);
                assert_eq!(got, want, "tol {tol}: {m:?}");
                found += usize::from(want.is_some());
            }
            // The inputs reach both answers at every tolerance.
            assert!(
                found > 1_000 && found < cases.len(),
                "tol {tol}: {found} of {}",
                cases.len()
            );
        }
    }

    #[test]
    fn pi4_multiple_predicate() {
        assert!(is_pi4_multiple(FRAC_PI_4));
        assert!(is_pi4_multiple(0.0));
        assert!(is_pi4_multiple(-3.0 * FRAC_PI_4));
        assert!(!is_pi4_multiple(0.3));
    }
}
