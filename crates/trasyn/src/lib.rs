//! **trasyn** — TensoR-based Arbitrary unitary SYNthesis.
//!
//! The paper's core contribution: a single-qubit Clifford+T synthesizer
//! that directly approximates *arbitrary* unitaries (`U3`), avoiding the
//! ~3× T-count premium of the `Rz`-only `gridsynth` workflow.
//!
//! The algorithm (paper §3.3):
//!
//! * **Step 0** ([`enumerate`]): enumerate every unique Clifford+T matrix
//!   (up to the 8 global phases `ω^j`) within a per-tensor T budget,
//!   keeping the cheapest sequence per matrix. The count is exactly
//!   `24·(3·2^#T − 2)`. Each entry is also a unit quaternion up to sign,
//!   and every query the later steps make goes through an exact index
//!   over those on S³ ([`s3index`]) or through running sums of their
//!   quadratic monomials; no step scans the table per particle.
//! * **Step 1** ([`mps`]): chain the per-tensor matrix tables into a
//!   matrix product state whose full contraction holds the trace value
//!   `Tr(U†·M₁[s₁]⋯M_l[s_l])` of every candidate sequence. We contract
//!   the target into the first site and use *right environment* matrices
//!   `E_i = Σ_rest r·r†` — an exactly equivalent, allocation-free form of
//!   the paper's canonicalized MPS (the environments are what the
//!   canonical form makes implicitly equal to the identity). Every site's
//!   table is closed under Cliffords, a unitary 2-design, so the
//!   environments are scaled identities in closed form, and a middle
//!   site's marginals are uniform.
//! * **Step 2** ([`sample`]): perfect sampling of gate-sequence indices
//!   from the joint distribution `p ∝ |trace|²`, k sequences per pass,
//!   each sample carrying its trace value for free. Each particle folds
//!   its bond state and the site's environment into one 4×4 real
//!   symmetric form `R` over the entries' quaternions `x`, so an entry's
//!   weight is `xᵀRx` and a block of entries' weight is `R`'s 10
//!   coefficients dotted with the block's summed monomials: a draw is a
//!   binary search over blocks and a scan of at most 8 entries. Bond
//!   states are built only for drawn children. The argmax closing's score
//!   is `4(y·x)²` for the particle's direction `y`, so it queries the S³
//!   index around each particle at the closing window below the running
//!   best, then re-scores every near-tie exactly under the reference tie
//!   rule: the chosen sequence and its trace are exactly the per-entry
//!   reference's. Draws could differ only if a uniform variate fell
//!   within rounding (~1e-13) of a running-sum boundary, which a golden
//!   corpus pins.
//! * **Step 3** ([`peephole`]): replace suboptimal subsequences of the
//!   concatenation with shorter equivalents, each window's product looked
//!   up in the step-0 table through the index and every replacement
//!   checked exactly.
//!
//! [`Trasyn`] wires the steps together and [`Trasyn::synthesize`]
//! implements the paper's Algorithm 1 (T-budget escalation with an
//! optional error threshold).
//!
//! ```
//! use qmath::Mat2;
//! use trasyn::{SynthesisConfig, Trasyn};
//!
//! let synth = Trasyn::new(4); // small table for the doctest
//! let target = Mat2::u3(0.7, 0.3, -0.4);
//! let cfg = SynthesisConfig {
//!     samples: 128,
//!     budgets: vec![4, 4],
//!     ..SynthesisConfig::default()
//! };
//! let out = synth.synthesize(&target, &cfg);
//! assert!(out.error < 0.25);
//! ```

pub mod enumerate;
pub mod mps;
pub mod peephole;
pub mod s3index;
pub mod sample;
pub mod synth;

pub use enumerate::{TableEntry, UnitaryTable};
pub use synth::{SynthesisConfig, Synthesized, Trasyn};
