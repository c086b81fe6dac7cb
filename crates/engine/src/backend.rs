//! Pluggable synthesizer backends.
//!
//! The engine treats every single-qubit synthesizer in the workspace —
//! trasyn (the paper's contribution), gridsynth (the Ross–Selinger
//! baseline), and the Synthetiq-style annealer — uniformly through the
//! [`Synthesizer`] trait: a thread-safe, deterministic function from
//! `(unitary, epsilon)` to `(Clifford+T sequence, achieved error)`.
//!
//! Determinism is load-bearing: the engine caches results process-wide and
//! splices them into circuits compiled on any number of threads, which is
//! only sound because every backend derives its randomness from a seed
//! carried in its settings. [`Synthesizer::settings_key`] must therefore
//! cover *every* parameter (including seeds) that can change the output,
//! so that cache entries are shared exactly when the output would be
//! identical.

use baselines::{anneal_synthesize, AnnealConfig};
use gates::GateSeq;
use gridsynth::{synthesize_rz_with, synthesize_u3_with, RzOptions};
use qmath::Mat2;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use trasyn::{SynthesisConfig, Trasyn};

/// Smallest per-rotation error threshold any front-end should accept.
/// The bounds are backend preconditions, not taste: gridsynth asserts
/// `eps < 1.0` and is only guaranteed to converge for `eps ≥ 1e-7` — an
/// out-of-range epsilon must be rejected at the API boundary (CLI usage
/// error, HTTP 400), never allowed to panic a synthesis call.
pub const MIN_EPSILON: f64 = 1e-7;

/// Largest accepted per-rotation error threshold; see [`MIN_EPSILON`].
pub const MAX_EPSILON: f64 = 0.5;

/// The synthesizer backends the engine can host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Tensor-network direct `U3` synthesis (the paper's algorithm).
    Trasyn,
    /// Ross–Selinger style `Rz` synthesis; non-diagonal targets fall back
    /// to the three-`Rz` Euler workflow.
    Gridsynth,
    /// Synthetiq-style simulated annealing.
    Annealing,
}

impl BackendKind {
    /// Stable lowercase label, used by the CLI and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Trasyn => "trasyn",
            BackendKind::Gridsynth => "gridsynth",
            BackendKind::Annealing => "annealing",
        }
    }

    /// Parses a [`BackendKind::label`] string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "trasyn" => Some(BackendKind::Trasyn),
            "gridsynth" => Some(BackendKind::Gridsynth),
            "annealing" => Some(BackendKind::Annealing),
            _ => None,
        }
    }

    /// Stable one-byte wire code, part of the cache snapshot format (see
    /// [`crate::snapshot`]). Codes are append-only: existing values never
    /// change meaning, new backends take the next free code.
    pub const fn code(self) -> u8 {
        match self {
            BackendKind::Trasyn => 0,
            BackendKind::Gridsynth => 1,
            BackendKind::Annealing => 2,
        }
    }

    /// Inverse of [`BackendKind::code`].
    pub const fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(BackendKind::Trasyn),
            1 => Some(BackendKind::Gridsynth),
            2 => Some(BackendKind::Annealing),
            _ => None,
        }
    }

    /// The lowering basis this backend synthesizes best from: `Rz` for
    /// gridsynth (diagonal rotations), `U3` for the direct synthesizers.
    pub fn basis(&self) -> circuit::levels::Basis {
        match self {
            BackendKind::Gridsynth => circuit::levels::Basis::Rz,
            BackendKind::Trasyn | BackendKind::Annealing => circuit::levels::Basis::U3,
        }
    }
}

/// The synthesizer-settings half of a cache key (the other half is the
/// quantized unitary).
///
/// `eps_bits` is the exact bit pattern of the requested epsilon — two
/// requests share cache entries only at *identical* thresholds, because a
/// looser threshold can legally return a cheaper sequence. `params`
/// digests every other output-relevant backend parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SettingsKey {
    /// Which backend synthesizes this entry.
    pub backend: BackendKind,
    /// `f64::to_bits` of the per-rotation error threshold.
    pub eps_bits: u64,
    /// Hash of the backend's remaining parameters (budgets, sample
    /// counts, seeds, …).
    pub params: u64,
}

/// `params` digests are persisted in cache snapshots (see
/// [`crate::snapshot`]), so they are computed with the crate's stable
/// [`crate::fnv`] hash — std's `DefaultHasher` is explicitly unstable
/// across Rust releases and would silently turn every warm start cold
/// after a toolchain upgrade.
fn hash_params(h: impl Hash) -> u64 {
    let mut hasher = crate::fnv::Fnv1a64::new();
    h.hash(&mut hasher);
    hasher.finish()
}

/// A deterministic, thread-safe single-qubit synthesizer.
pub trait Synthesizer: Send + Sync {
    /// Which [`BackendKind`] this is.
    fn kind(&self) -> BackendKind;

    /// The cache-key settings for a request at threshold `eps`. Must
    /// cover every parameter that can change [`Synthesizer::synthesize`]'s
    /// output for a fixed target.
    fn settings_key(&self, eps: f64) -> SettingsKey;

    /// Approximates `target` at threshold `eps`, returning the sequence
    /// and the achieved unitary distance. Must be a pure function of
    /// `(target, eps, settings)`. The bound is the backend's: trasyn and
    /// annealing return the best they found, which may exceed `eps`;
    /// gridsynth is within `eps` on diagonal targets and within `3 · eps`
    /// on the three-`Rz` route every other target takes.
    fn synthesize(&self, target: &Mat2, eps: f64) -> (GateSeq, f64);
}

/// The trasyn backend: direct tensor-network synthesis of arbitrary
/// unitaries. The step-0 table is shared (it is immutable after
/// construction), so cloning the `Arc` is cheap.
pub struct TrasynBackend {
    synth: Arc<Trasyn>,
    base: SynthesisConfig,
}

impl TrasynBackend {
    /// Wraps a synthesizer; `base.epsilon` is overridden per request.
    pub fn new(synth: Arc<Trasyn>, base: SynthesisConfig) -> Self {
        TrasynBackend { synth, base }
    }

    /// Per-tensor T budget of the backend the binaries serve.
    pub const SHIPPED_MAX_T: usize = 6;

    /// Samples per pass of the backend the binaries serve.
    pub const SHIPPED_SAMPLES: usize = 1024;

    /// The backend `trasyn-compile` and `trasyn-server` serve: a fresh
    /// table at [`Self::SHIPPED_MAX_T`] and [`Self::SHIPPED_SAMPLES`].
    pub fn shipped() -> Self {
        Self::with_table(Self::SHIPPED_MAX_T, Self::SHIPPED_SAMPLES)
    }

    /// Builds a fresh table with `max_t` T gates per tensor and default
    /// Algorithm-1 settings at `samples` samples per pass.
    pub fn with_table(max_t: usize, samples: usize) -> Self {
        let synth = Arc::new(Trasyn::new(max_t));
        let base = SynthesisConfig {
            samples,
            budgets: vec![max_t; 3],
            ..SynthesisConfig::default()
        };
        TrasynBackend::new(synth, base)
    }
}

impl Synthesizer for TrasynBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Trasyn
    }

    fn settings_key(&self, eps: f64) -> SettingsKey {
        SettingsKey {
            backend: self.kind(),
            eps_bits: eps.to_bits(),
            params: hash_params((
                self.base.samples,
                &self.base.budgets,
                self.base.min_tensors,
                self.base.attempts,
                self.base.seed,
            )),
        }
    }

    fn synthesize(&self, target: &Mat2, eps: f64) -> (GateSeq, f64) {
        let cfg = SynthesisConfig {
            epsilon: Some(eps),
            ..self.base.clone()
        };
        let out = self.synth.synthesize(target, &cfg);
        (out.seq, out.error)
    }
}

/// The gridsynth backend. Diagonal targets go through `Rz` synthesis at
/// `eps`; non-diagonal targets take the three-`Rz` Euler route at a total
/// budget of `3 · eps` (i.e. `eps` per constituent rotation, matching the
/// repro driver's error-matching convention).
pub struct GridsynthBackend {
    opts: RzOptions,
}

impl GridsynthBackend {
    /// Builds the backend with explicit grid-search options.
    pub fn new(opts: RzOptions) -> Self {
        GridsynthBackend { opts }
    }
}

impl Default for GridsynthBackend {
    fn default() -> Self {
        GridsynthBackend::new(RzOptions::default())
    }
}

/// If `m` is diagonal (up to global phase), the `Rz` angle it implements.
pub fn rz_angle_of(m: &Mat2) -> Option<f64> {
    if m.e[1].abs() > 1e-9 || m.e[2].abs() > 1e-9 {
        return None;
    }
    // m = e^{iα}·diag(e^{-iθ/2}, e^{iθ/2}).
    Some((m.e[3] / m.e[0]).arg())
}

impl Synthesizer for GridsynthBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Gridsynth
    }

    fn settings_key(&self, eps: f64) -> SettingsKey {
        SettingsKey {
            backend: self.kind(),
            eps_bits: eps.to_bits(),
            params: hash_params((self.opts.max_k, self.opts.candidates_per_k)),
        }
    }

    fn synthesize(&self, target: &Mat2, eps: f64) -> (GateSeq, f64) {
        match rz_angle_of(target) {
            Some(theta) => {
                let r = synthesize_rz_with(theta, eps, self.opts)
                    .expect("gridsynth converges for eps >= 1e-7");
                (r.seq, r.error)
            }
            None => {
                let r = synthesize_u3_with(target, eps * 3.0, self.opts)
                    .expect("gridsynth u3 converges");
                (r.seq, r.error)
            }
        }
    }
}

/// The Synthetiq-style annealing backend; `base.epsilon` is overridden
/// per request.
pub struct AnnealingBackend {
    base: AnnealConfig,
}

impl AnnealingBackend {
    /// Builds the backend around a base configuration.
    pub fn new(base: AnnealConfig) -> Self {
        AnnealingBackend { base }
    }
}

impl Default for AnnealingBackend {
    fn default() -> Self {
        AnnealingBackend::new(AnnealConfig::default())
    }
}

impl Synthesizer for AnnealingBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Annealing
    }

    fn settings_key(&self, eps: f64) -> SettingsKey {
        SettingsKey {
            backend: self.kind(),
            eps_bits: eps.to_bits(),
            params: hash_params((
                self.base.length,
                self.base.max_iters,
                self.base.restarts,
                self.base.t0.to_bits(),
                self.base.seed,
            )),
        }
    }

    fn synthesize(&self, target: &Mat2, eps: f64) -> (GateSeq, f64) {
        let cfg = AnnealConfig {
            epsilon: eps,
            ..self.base
        };
        let r = anneal_synthesize(target, &cfg);
        (r.seq, r.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for k in [
            BackendKind::Trasyn,
            BackendKind::Gridsynth,
            BackendKind::Annealing,
        ] {
            assert_eq!(BackendKind::parse(k.label()), Some(k));
        }
        assert_eq!(BackendKind::parse("qiskit"), None);
    }

    #[test]
    fn wire_codes_roundtrip_and_are_stable() {
        // Snapshot compatibility: these exact values are on disk.
        assert_eq!(BackendKind::Trasyn.code(), 0);
        assert_eq!(BackendKind::Gridsynth.code(), 1);
        assert_eq!(BackendKind::Annealing.code(), 2);
        for k in [
            BackendKind::Trasyn,
            BackendKind::Gridsynth,
            BackendKind::Annealing,
        ] {
            assert_eq!(BackendKind::from_code(k.code()), Some(k));
        }
        assert_eq!(BackendKind::from_code(200), None);
    }

    #[test]
    fn settings_key_distinguishes_epsilons() {
        let b = GridsynthBackend::default();
        assert_ne!(b.settings_key(1e-2), b.settings_key(1e-3));
        assert_eq!(b.settings_key(1e-2), b.settings_key(1e-2));
    }

    #[test]
    fn gridsynth_diagonal_and_general_targets() {
        let b = GridsynthBackend::default();
        let (seq, err) = b.synthesize(&Mat2::rz(0.37), 1e-2);
        assert!(err <= 1e-2);
        assert!(!seq.is_empty());
        let (seq, err) = b.synthesize(&Mat2::u3(0.7, 0.3, -0.4), 1e-2);
        assert!(err <= 3e-2 + 1e-9, "three-Rz budget: {err}");
        assert!(!seq.is_empty());
    }

    #[test]
    fn backends_are_deterministic() {
        let t = TrasynBackend::with_table(4, 64);
        let u = Mat2::u3(0.9, 0.2, -1.4);
        assert_eq!(t.synthesize(&u, 0.2).0, t.synthesize(&u, 0.2).0);
        let a = AnnealingBackend::new(AnnealConfig {
            max_iters: 2_000,
            restarts: 2,
            ..AnnealConfig::default()
        });
        assert_eq!(a.synthesize(&u, 0.3).0, a.synthesize(&u, 0.3).0);
    }
}
