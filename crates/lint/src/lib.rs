//! Compiler-grade static checking for trasyn: an IR verifier over
//! circuits and pipeline specs, in the spirit of LLVM/MLIR's verifier
//! layer.
//!
//! Everything this crate reports is a [`Diagnostic`]: a stable code
//! (`L0101`), a [`Severity`], an optional instruction (or pass-list)
//! index, and a human message. Codes are append-only — tools and golden
//! tests pin them — and group by family:
//!
//! | family  | subject                                        |
//! |---------|------------------------------------------------|
//! | `L01xx` | circuit structure (bounds, angles, widths)     |
//! | `L02xx` | basis / gate-set conformance of outputs        |
//! | `L03xx` | pipeline-spec well-formedness beyond parse     |
//! | `L04xx` | pass-contract violations ([`CheckedPipeline`]) |
//!
//! The three entry points mirror the compile flow: [`lint_circuit`]
//! checks an input IR before it reaches any pass, [`lint_spec`] checks a
//! [`PipelineSpec`](circuit::PipelineSpec) before it is built, and
//! [`lint_output`] checks a lowered/synthesized circuit against the
//! gate-set its producer promised. [`CheckedPipeline`] wraps a
//! [`Pipeline`](circuit::Pipeline) and verifies each pass's declared
//! postconditions between stages (see [`contract`] for the contract
//! table); the engine runs every compile through it, so the whole test
//! suite and the fuzzer double as contract checks.

pub mod contract;
pub mod diag;
pub mod rules;

pub use contract::CheckedPipeline;
pub use diag::{diagnostics_json, Diagnostic, Severity};
pub use rules::{
    lint_circuit, lint_instrs, lint_output, lint_spec, spec_error_diagnostic, Expectation,
};
