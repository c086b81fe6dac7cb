//! Step 3: post-processing the sampled concatenation.
//!
//! Per-site sequences are individually optimal, but their concatenation
//! can contain suboptimal *windows* (e.g. a trailing Clifford of one site
//! merging with the head of the next). We slide windows over the sequence
//! and look each one up in the step-0 table; any hit with a cheaper cost
//! replaces the window.
//!
//! A window with at most `max_t` T gates has a product of T-count at most
//! `max_t`, so the table holds it. Each window's product is accumulated in
//! floating point and found through the table's S³ index (`find`), its
//! cost counted gate by gate; no exact arithmetic or sequence is built per
//! window. The one replacement a pass applies is checked exactly with
//! [`ExactMat2::phase_equivalent`] first.

use crate::enumerate::UnitaryTable;
use gates::{ExactMat2, Gate, GateSeq};
use qmath::Mat2;

/// Maximum window length (in gates) considered for replacement; windows
/// longer than this are never products of a single table entry anyway for
/// practical table budgets.
const MAX_WINDOW: usize = 32;

/// Applies the step-3 peephole: repeatedly replaces windows of the
/// sequence with cheaper equivalents from `table`, then runs the local
/// algebraic simplifier. The result's matrix equals the input's up to
/// global phase.
///
/// ```
/// use gates::{Gate, GateSeq};
/// use trasyn::{peephole::optimize, UnitaryTable};
///
/// let table = UnitaryTable::build(2);
/// // T·T·T·T is Z: the peephole collapses it to zero T gates.
/// let seq: GateSeq = [Gate::T, Gate::T, Gate::T, Gate::T].into_iter().collect();
/// let opt = optimize(&seq, &table);
/// assert_eq!(opt.t_count(), 0);
/// ```
pub fn optimize(seq: &GateSeq, table: &UnitaryTable) -> GateSeq {
    let matrices = Gate::ALL.map(Gate::matrix);
    let mut current = seq.simplified();
    let mut lookups = 0u64;
    let mut passes = 0usize;
    loop {
        passes += 1;
        if passes > 64 {
            break;
        }
        match improve_once(&current, table, &matrices, &mut lookups) {
            Some(better) => current = better.simplified(),
            None => break,
        }
    }
    prof::work::add(prof::WorkKind::PeepholeLookups, lookups);
    current
}

/// A gate's contribution to [`GateSeq::cost`]: `(T, S+S†, H, length)`.
fn gate_cost(g: Gate) -> [isize; 4] {
    [
        isize::from(g.is_t_like()),
        isize::from(matches!(g, Gate::S | Gate::Sdg)),
        isize::from(g == Gate::H),
        1,
    ]
}

/// Finds the single best window replacement, if any window can be
/// replaced by a cheaper table sequence. `matrices` holds each gate's
/// matrix in [`Gate::ALL`] order; `lookups` counts the windows looked up.
fn improve_once(
    seq: &GateSeq,
    table: &UnitaryTable,
    matrices: &[Mat2; 8],
    lookups: &mut u64,
) -> Option<GateSeq> {
    let gates = seq.gates();
    let n = gates.len();
    let mut best: Option<(usize, usize, usize, isize)> = None; // (start, end, entry, saving)
    for start in 0..n {
        let mut m = Mat2::identity();
        let mut window = [0isize; 4];
        let end_max = (start + MAX_WINDOW).min(n);
        for (offset, &g) in gates[start..end_max].iter().enumerate() {
            let end = start + offset;
            // `Gate::ALL` lists the gates in declaration order.
            m = m * matrices[g as usize];
            for (w, c) in window.iter_mut().zip(gate_cost(g)) {
                *w += c;
            }
            if window[0] > table.max_t() as isize {
                break; // window no longer representable in the table
            }
            if offset == 0 {
                continue;
            }
            *lookups += 1;
            let Some(id) = table.find(&m) else {
                continue;
            };
            let (et, es, eh, el) = table.entries()[id].seq.cost();
            // Weighted saving: T gates dominate, then S, H, length.
            let saving = 1000 * (window[0] - et as isize)
                + 100 * (window[1] - es as isize)
                + 10 * (window[2] - eh as isize)
                + (window[3] - el as isize);
            if saving > 0 && best.is_none_or(|b| saving > b.3) {
                best = Some((start, end, id, saving));
            }
        }
    }
    let (start, end, id, _) = best?;
    let replacement = &table.entries()[id];
    let window: GateSeq = gates[start..=end].iter().copied().collect();
    // The float match is exact for every table this crate builds (entries
    // are far apart); a replacement that is not equal up to phase is never
    // applied.
    if !ExactMat2::from_seq(&window).phase_equivalent(&replacement.exact) {
        return None;
    }
    let mut out = GateSeq::new();
    out.extend(gates[..start].iter().copied());
    out.extend_seq(&replacement.seq);
    out.extend(gates[end + 1..].iter().copied());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates::Gate;
    use qmath::Mat2;

    fn table() -> UnitaryTable {
        UnitaryTable::build(3)
    }

    #[test]
    fn preserves_matrix_up_to_phase() {
        let t = table();
        let seq: GateSeq = [
            Gate::H,
            Gate::T,
            Gate::S,
            Gate::S,
            Gate::H,
            Gate::H,
            Gate::T,
            Gate::Tdg,
            Gate::X,
        ]
        .into_iter()
        .collect();
        let opt = optimize(&seq, &t);
        assert!(
            opt.matrix().approx_eq_phase(&seq.matrix(), 1e-8),
            "peephole changed the operator: {seq} -> {opt}"
        );
    }

    #[test]
    fn reduces_t_count_across_boundaries() {
        // Concatenation artifact: ...T][T... should fuse to S.
        let t = table();
        let seq: GateSeq = [Gate::H, Gate::T, Gate::T, Gate::H].into_iter().collect();
        let opt = optimize(&seq, &t);
        assert_eq!(opt.t_count(), 0, "HTTH = HSH is Clifford: {opt}");
    }

    #[test]
    fn collapses_identity_products() {
        let t = table();
        let seq: GateSeq = [Gate::H, Gate::S, Gate::Sdg, Gate::H].into_iter().collect();
        let opt = optimize(&seq, &t);
        assert!(opt.is_empty() || opt.matrix().approx_eq_phase(&Mat2::identity(), 1e-9));
    }

    #[test]
    fn never_increases_cost() {
        let t = table();
        let seq: GateSeq = [
            Gate::T,
            Gate::H,
            Gate::T,
            Gate::S,
            Gate::H,
            Gate::T,
            Gate::H,
            Gate::S,
            Gate::T,
        ]
        .into_iter()
        .collect();
        let opt = optimize(&seq, &t);
        assert!(opt.t_count() <= seq.t_count());
        assert!(opt.cost() <= seq.cost());
    }

    #[test]
    fn idempotent() {
        let t = table();
        let seq: GateSeq = [Gate::T, Gate::H, Gate::T, Gate::H, Gate::T]
            .into_iter()
            .collect();
        let once = optimize(&seq, &t);
        let twice = optimize(&once, &t);
        assert_eq!(once, twice);
    }
}
