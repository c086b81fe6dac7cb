//! Benchmark workloads for the evaluation.
//!
//! The paper evaluates on 187 circuits drawn from Benchpress, MQTBench,
//! QASMBench and HamLib, in four categories (Figure 10): QAOA, quantum
//! Hamiltonians, classical Hamiltonians, and FT algorithms. Those suites
//! are external data artifacts; this crate regenerates the same *circuit
//! structure* — rotation counts, axis mixes, and mergeability — from
//! parametrized generators, a substitution for the external suites:
//!
//! * [`qaoa`] — MaxCut QAOA on random 3-regular graphs with the
//!   merge-friendly gate ordering of §3.4;
//! * [`hamiltonian`] — first-order Trotter circuits for quantum
//!   (Heisenberg/TFIM/XY/random-Pauli) and classical (Z-only Ising)
//!   Hamiltonians;
//! * [`ftalg`] — fault-tolerant algorithm kernels (QFT, QPE, Grover,
//!   Draper adder, GHZ rotations, hardware-efficient ansatz);
//! * [`suite`] — the named 187-circuit registry with Table 2 statistics;
//! * [`random`] — Haar-random single-qubit unitaries for RQ1;
//! * [`requests`] — deterministic serving-workload request mixes for the
//!   `trasyn-loadgen` load generator;
//! * [`lintcorpus`] — adversarial inputs for the `lint` crate's
//!   meta-tests: one seeded defect per lint rule family.

pub mod ftalg;
pub mod hamiltonian;
pub mod lintcorpus;
pub mod qaoa;
pub mod random;
pub mod requests;
pub mod suite;

pub use requests::{MixKind, RequestMix, RequestPayload, SampledRequest};
pub use suite::{benchmark_suite, BenchmarkCircuit, Category};
