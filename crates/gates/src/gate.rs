//! The discrete single-qubit gate alphabet.

use qmath::Mat2;
use std::fmt;

/// A gate from the Clifford+T alphabet.
///
/// The Pauli gates are "free" in error-corrected execution (they are
/// absorbed into the Pauli frame), the non-Pauli Cliffords `H`, `S`, `S†`
/// are cheap, and `T`/`T†` are the expensive non-Clifford gates requiring a
/// magic state each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Phase gate `diag(1, i)`.
    S,
    /// Inverse phase gate `diag(1, −i)`.
    Sdg,
    /// `diag(1, e^{iπ/4})` — the expensive non-Clifford gate.
    T,
    /// `diag(1, e^{−iπ/4})`.
    Tdg,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Gate {
    /// All eight gates, in a fixed order.
    pub const ALL: [Gate; 8] = [
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::X,
        Gate::Y,
        Gate::Z,
    ];

    /// The numerical 2×2 matrix of the gate.
    pub fn matrix(self) -> Mat2 {
        match self {
            Gate::H => Mat2::h(),
            Gate::S => Mat2::s(),
            Gate::Sdg => Mat2::sdg(),
            Gate::T => Mat2::t(),
            Gate::Tdg => Mat2::tdg(),
            Gate::X => Mat2::x(),
            Gate::Y => Mat2::y(),
            Gate::Z => Mat2::z(),
        }
    }

    /// `true` for T and T†, the non-Clifford gates.
    #[inline]
    pub fn is_t_like(self) -> bool {
        matches!(self, Gate::T | Gate::Tdg)
    }

    /// `true` for Pauli gates (free under Pauli-frame tracking).
    #[inline]
    pub fn is_pauli(self) -> bool {
        matches!(self, Gate::X | Gate::Y | Gate::Z)
    }

    /// `true` for Clifford gates (everything except T/T†).
    #[inline]
    pub fn is_clifford(self) -> bool {
        !self.is_t_like()
    }

    /// The inverse gate (every gate in the alphabet has its inverse in the
    /// alphabet, up to global phase for Y).
    pub fn inverse(self) -> Gate {
        match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            g => g, // H, X, Y, Z are involutions
        }
    }

    /// One-letter mnemonic used in sequence displays.
    pub fn symbol(self) -> &'static str {
        match self {
            Gate::H => "H",
            Gate::S => "S",
            Gate::Sdg => "s",
            Gate::T => "T",
            Gate::Tdg => "t",
            Gate::X => "X",
            Gate::Y => "Y",
            Gate::Z => "Z",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_are_unitary() {
        for g in Gate::ALL {
            assert!(g.matrix().is_unitary(1e-12), "{g}");
        }
    }

    #[test]
    fn inverse_matrices_multiply_to_identity() {
        for g in Gate::ALL {
            let prod = g.matrix() * g.inverse().matrix();
            assert!(
                prod.approx_eq_phase(&Mat2::identity(), 1e-12),
                "{g} inverse wrong"
            );
        }
    }

    #[test]
    fn classification() {
        assert!(Gate::T.is_t_like() && Gate::Tdg.is_t_like());
        assert!(!Gate::S.is_t_like());
        assert!(Gate::X.is_pauli() && !Gate::H.is_pauli());
        assert!(Gate::H.is_clifford() && !Gate::T.is_clifford());
    }
}
