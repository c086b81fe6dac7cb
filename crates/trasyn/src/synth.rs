//! The trasyn driver: steps 1–3 plus the paper's Algorithm 1.

use crate::enumerate::UnitaryTable;
use crate::mps::TraceMps;
use crate::peephole;
use crate::sample::sample_best;
use gates::GateSeq;
use qmath::distance::unitary_distance;
use qmath::Mat2;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a synthesis run (the inputs of Algorithm 1).
#[derive(Clone, Debug)]
pub struct SynthesisConfig {
    /// Number of samples per pass (`k`; paper default 40 000, scaled to
    /// CPU-friendly 4 096 here).
    pub samples: usize,
    /// Per-tensor T budgets (`m`, a list — each tensor may differ).
    pub budgets: Vec<usize>,
    /// Minimum number of tensors to start from (`l` in Algorithm 1).
    pub min_tensors: usize,
    /// Optional error threshold (`ε`): stop as soon as a solution beats it.
    pub epsilon: Option<f64>,
    /// Number of re-sampling attempts per tensor count (`r`).
    pub attempts: usize,
    /// RNG seed for reproducible sampling.
    pub seed: u64,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            samples: 4096,
            budgets: vec![7, 7, 7],
            min_tensors: 1,
            epsilon: None,
            attempts: 1,
            seed: 0xC11F_F0D5,
        }
    }
}

/// A synthesized approximation of a target unitary.
#[derive(Clone, Debug)]
pub struct Synthesized {
    /// The Clifford+T gate sequence (leftmost factor first).
    pub seq: GateSeq,
    /// Achieved unitary distance (paper Eq. 2).
    pub error: f64,
    /// Number of tensors used by the winning pass.
    pub tensors: usize,
}

impl Synthesized {
    /// T count of the sequence.
    pub fn t_count(&self) -> usize {
        self.seq.t_count()
    }

    /// Non-Pauli Clifford count of the sequence.
    pub fn clifford_count(&self) -> usize {
        self.seq.clifford_count()
    }
}

/// The trasyn synthesizer: owns the step-0 table, and nothing else.
///
/// Building the table is a one-time cost per process (paper: "one-time
/// cost as the FT gate set is fixed"); synthesis calls are then fast.
/// Every multi-tensor pass builds its [`TraceMps`] afresh, which costs
/// nothing worth caching: its environments are closed-form scaled
/// identities.
pub struct Trasyn {
    table: UnitaryTable,
}

impl Trasyn {
    /// Builds a synthesizer whose table holds all matrices with at most
    /// `max_t_per_tensor` T gates (step 0).
    pub fn new(max_t_per_tensor: usize) -> Self {
        Trasyn {
            table: UnitaryTable::build(max_t_per_tensor),
        }
    }

    /// Wraps an already-built table.
    pub fn with_table(table: UnitaryTable) -> Self {
        Trasyn { table }
    }

    /// The step-0 table.
    pub fn table(&self) -> &UnitaryTable {
        &self.table
    }

    /// Paper Algorithm 1: tries tensor counts from
    /// `cfg.min_tensors` up to `cfg.budgets.len()` with `cfg.attempts`
    /// re-samplings each, returns the best solution found (early exit when
    /// `cfg.epsilon` is met). Increasing budgets by one tensor at a time
    /// makes the search prefer low T counts.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.budgets` is empty or `cfg.min_tensors` is zero.
    pub fn synthesize(&self, target: &Mat2, cfg: &SynthesisConfig) -> Synthesized {
        assert!(!cfg.budgets.is_empty(), "budgets must be non-empty");
        assert!(cfg.min_tensors >= 1, "need at least one tensor");
        let mut best: Option<Synthesized> = None;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let max_tensors = cfg.budgets.len();
        'outer: for l in cfg.min_tensors..=max_tensors {
            for _ in 0..cfg.attempts.max(1) {
                let got = self.synthesize_once(target, &cfg.budgets[..l], cfg.samples, &mut rng);
                let better = best.as_ref().is_none_or(|b| got.error < b.error);
                if better {
                    best = Some(got);
                }
                if let (Some(eps), Some(b)) = (cfg.epsilon, best.as_ref()) {
                    if b.error < eps {
                        break 'outer;
                    }
                }
            }
        }
        best.expect("at least one pass ran")
    }

    /// One pass of steps 1–3 (`Synthesize()` in Algorithm 1) with a fixed
    /// tensor structure.
    pub fn synthesize_once(
        &self,
        target: &Mat2,
        budgets: &[usize],
        samples: usize,
        rng: &mut StdRng,
    ) -> Synthesized {
        // Single tensor degenerates to the exhaustive lookup (paper §4.1:
        // "only one tensor is needed, which effectively serves as a
        // lookup table" — optimal by construction).
        if budgets.len() == 1 {
            let e = self.table.closest(target, budgets[0]);
            let seq = peephole::optimize(&e.seq, &self.table);
            let error = unitary_distance(target, &e.matrix);
            return Synthesized {
                seq,
                error,
                tensors: 1,
            };
        }
        let mps = TraceMps::new(&self.table, budgets);
        // Error-aware sampling of the prefix sites plus an argmax closing
        // (see `sample_best`): the trace of every closing choice is
        // computed for the conditional anyway, so taking the best one is
        // free and much sharper than drawing it.
        let best = sample_best(&mps, target, samples.max(1), rng);
        let mut seq = GateSeq::new();
        for (site, &idx) in mps.sites.iter().zip(best.indices.iter()) {
            seq.extend_seq(&site[idx].seq);
        }
        let seq = peephole::optimize(&seq, &self.table);
        let error = unitary_distance(target, &seq.matrix());
        Synthesized {
            seq,
            error,
            tensors: budgets.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::haar::haar_mat2;
    use rand::Rng;

    fn small_synth() -> Trasyn {
        Trasyn::new(4)
    }

    #[test]
    fn exact_targets_synthesize_exactly() {
        let s = small_synth();
        let cfg = SynthesisConfig {
            samples: 256,
            budgets: vec![4],
            ..Default::default()
        };
        for target in [Mat2::t(), Mat2::h(), Mat2::s(), Mat2::h() * Mat2::t()] {
            let out = s.synthesize(&target, &cfg);
            assert!(out.error < 1e-8, "error {} for exact target", out.error);
        }
    }

    #[test]
    fn single_tensor_is_optimal() {
        let s = small_synth();
        let mut rng = StdRng::seed_from_u64(1);
        let u = haar_mat2(&mut rng);
        let cfg = SynthesisConfig {
            samples: 64,
            budgets: vec![4],
            ..Default::default()
        };
        let out = s.synthesize(&u, &cfg);
        let opt = s.table().closest(&u, 4);
        let opt_err = unitary_distance(&u, &opt.matrix);
        assert!(out.error <= opt_err + 1e-9);
    }

    #[test]
    fn two_tensors_beat_one_on_average() {
        let s = small_synth();
        let mut rng = StdRng::seed_from_u64(2);
        let mut one_sum = 0.0;
        let mut two_sum = 0.0;
        for _ in 0..6 {
            let u = haar_mat2(&mut rng);
            let one = s.synthesize(
                &u,
                &SynthesisConfig {
                    samples: 256,
                    budgets: vec![4],
                    ..Default::default()
                },
            );
            let two = s.synthesize(
                &u,
                &SynthesisConfig {
                    samples: 1024,
                    budgets: vec![4, 4],
                    min_tensors: 2,
                    ..Default::default()
                },
            );
            one_sum += one.error;
            two_sum += two.error;
        }
        assert!(
            two_sum < one_sum,
            "two tensors ({two_sum}) should beat one ({one_sum}) in aggregate"
        );
    }

    #[test]
    fn epsilon_early_exit_prefers_fewer_tensors() {
        let s = small_synth();
        let mut rng = StdRng::seed_from_u64(3);
        let u = haar_mat2(&mut rng);
        let out = s.synthesize(
            &u,
            &SynthesisConfig {
                samples: 256,
                budgets: vec![4, 4, 4],
                epsilon: Some(0.5), // easily met by one tensor
                ..Default::default()
            },
        );
        assert_eq!(out.tensors, 1);
        assert!(out.error < 0.5);
    }

    #[test]
    fn reported_error_matches_sequence() {
        let s = small_synth();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let u = haar_mat2(&mut rng);
            let out = s.synthesize(
                &u,
                &SynthesisConfig {
                    samples: 512,
                    budgets: vec![4, 4],
                    ..Default::default()
                },
            );
            let d = unitary_distance(&u, &out.seq.matrix());
            assert!((d - out.error).abs() < 1e-9);
        }
    }

    #[test]
    fn t_count_within_capacity() {
        let s = small_synth();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let u = haar_mat2(&mut rng);
            let budgets = vec![4usize, 4];
            let cap: usize = budgets.iter().sum();
            let out = s.synthesize(
                &u,
                &SynthesisConfig {
                    samples: 256,
                    budgets,
                    min_tensors: 2,
                    ..Default::default()
                },
            );
            assert!(out.t_count() <= cap, "{} > {}", out.t_count(), cap);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let s = small_synth();
        let u = Mat2::u3(0.9, 0.2, -1.4);
        let cfg = SynthesisConfig {
            samples: 128,
            budgets: vec![4, 4],
            seed: 42,
            ..Default::default()
        };
        let a = s.synthesize(&u, &cfg);
        let b = s.synthesize(&u, &cfg);
        assert_eq!(a.seq, b.seq);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = rng.gen::<u64>(); // unrelated RNG does not affect it
        let c = s.synthesize(&u, &cfg);
        assert_eq!(a.seq, c.seq);
    }
}
