//! Quantum simulators and the paper's logical-error model.
//!
//! The fidelity studies (RQ2, RQ4) need three simulation capabilities:
//!
//! * [`statevector`] — ideal state evolution up to ~20 qubits, for the
//!   absolute circuit-infidelity numbers of Figure 11;
//! * [`channel`] — single-qubit Pauli transfer matrices, composing the
//!   synthesized sequence with depolarizing noise *exactly* (the RQ2
//!   synthesis-vs-logical-error tradeoff, Figure 9);
//! * [`density`] — exact density-matrix evolution with noise for circuits
//!   up to ~10 qubits (Figure 13).
//!
//! # Noise convention
//!
//! Depolarizing with rate `λ` means `E(ρ) = (1−λ)ρ + λ·I/2` per noisy
//! gate — equivalently a uniform Pauli fault with probability `3λ/4`.
//! Following §4.2, noise attaches to T gates only (worst case for
//! synthesis error) or to all non-Pauli gates (§4.4).

pub mod channel;
pub mod density;
pub mod fidelity;
pub mod noise;
pub mod statevector;

pub use channel::Ptm;
pub use density::DensityMatrix;
pub use statevector::{SimError, State};
