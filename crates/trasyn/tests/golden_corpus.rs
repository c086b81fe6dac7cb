//! Golden corpus: trasyn's outputs, bit for bit.
//!
//! `data/golden_corpus.txt` holds the outputs of the per-entry complex
//! reference sampler: every site drawn from the running sums of its exact
//! marginals, `mps::{advance, close}` and the right-environment quadratic
//! forms evaluated for every table entry (the sampler's tests keep them).
//! Every line must reproduce exactly: sequences, `error.to_bits()`, tensor
//! counts, and for direct sampler calls the outcome indices,
//! multiplicities, trace bits and the RNG's next word.
//!
//! The corpus covers
//! * 64 Haar targets at the shipped backend configuration (max_t 6, 1024
//!   samples, budgets [6, 6, 6], ε 1e-2);
//! * fixed-tensor-count runs (ε `None`) on exactly representable,
//!   tie-heavy targets — T, H·T and random H/S/T/T† words of 12–36 gates —
//!   at several budgets and seeds;
//! * direct `sample_best` and `sample_sequences` calls, including the
//!   single-site case.

use gates::{Gate, GateSeq};
use qmath::haar::haar_mat2;
use qmath::{Complex64, Mat2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use trasyn::mps::TraceMps;
use trasyn::sample::{sample_best, sample_sequences, SampleOutcome};
use trasyn::{SynthesisConfig, Synthesized, Trasyn};

const GOLDEN: &str = include_str!("data/golden_corpus.txt");

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn trace_bits(z: Complex64) -> String {
    format!("{},{}", bits(z.re), bits(z.im))
}

fn synth_line(out: &mut String, label: &str, s: &Synthesized) {
    writeln!(
        out,
        "{label} seq={} err={} tensors={}",
        s.seq,
        bits(s.error),
        s.tensors
    )
    .unwrap();
}

fn outcome_line(out: &mut String, o: &SampleOutcome) {
    let idx: Vec<String> = o.indices.iter().map(usize::to_string).collect();
    writeln!(
        out,
        "  idx={} mult={} trace={}",
        idx.join("."),
        o.multiplicity,
        trace_bits(o.trace)
    )
    .unwrap();
}

/// A random word of `len` gates over {H, S, T, T†}.
fn word(len: usize, rng: &mut StdRng) -> GateSeq {
    const ALPHABET: [Gate; 4] = [Gate::H, Gate::S, Gate::T, Gate::Tdg];
    (0..len).map(|_| ALPHABET[rng.gen_range(0..4)]).collect()
}

/// Exactly representable targets, where many table entries tie.
fn exact_targets() -> Vec<(String, Mat2)> {
    let mut targets = vec![
        ("T".to_string(), Mat2::t()),
        ("HT".to_string(), Mat2::h() * Mat2::t()),
    ];
    let mut rng = StdRng::seed_from_u64(0x7135);
    for len in [12, 16, 20, 24, 28, 32, 36] {
        let w = word(len, &mut rng);
        targets.push((format!("word{len}:{w}"), w.matrix()));
    }
    targets
}

fn render(synth: &Trasyn) -> String {
    let mut out = String::new();

    // The shipped backend configuration on Haar targets.
    let shipped = SynthesisConfig {
        samples: 1024,
        budgets: vec![6; 3],
        epsilon: Some(1e-2),
        ..SynthesisConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x6A1D);
    for i in 0..64 {
        let u = haar_mat2(&mut rng);
        synth_line(
            &mut out,
            &format!("haar{i}"),
            &synth.synthesize(&u, &shipped),
        );
    }

    // Fixed tensor counts on tie-heavy targets.
    let exact = exact_targets();
    for (name, u) in &exact {
        for budgets in [vec![3, 3], vec![6, 6], vec![2, 2, 2], vec![4, 4, 4]] {
            for (seed, samples) in [(1, 256), (7, 256), (1, 1024), (201, 1024)] {
                let cfg = SynthesisConfig {
                    samples,
                    min_tensors: budgets.len(),
                    budgets: budgets.clone(),
                    epsilon: None,
                    seed,
                    ..SynthesisConfig::default()
                };
                let label = format!("{name} budgets={budgets:?} seed={seed} k={samples}");
                synth_line(&mut out, &label, &synth.synthesize(u, &cfg));
            }
        }
    }

    // Direct sampler calls.
    let mut rng = StdRng::seed_from_u64(0xD1EC);
    let haar: Vec<(String, Mat2)> = (0..2)
        .map(|i| (format!("haar-direct{i}"), haar_mat2(&mut rng)))
        .collect();
    let targets: Vec<&(String, Mat2)> = haar.iter().chain(&exact[..4]).collect();
    let table = synth.table();
    for budgets in [vec![6, 6], vec![3, 3, 3], vec![4, 4], vec![2]] {
        let mps = TraceMps::new(table, &budgets);
        for (name, u) in &targets {
            for seed in [11u64, 12] {
                let mut rng = StdRng::seed_from_u64(seed);
                let best = sample_best(&mps, u, 512, &mut rng);
                writeln!(out, "best {name} budgets={budgets:?} seed={seed}").unwrap();
                outcome_line(&mut out, &best);
                let outcomes = sample_sequences(&mps, u, 48, &mut rng);
                writeln!(out, "sequences {name} budgets={budgets:?} seed={seed}").unwrap();
                for o in &outcomes {
                    outcome_line(&mut out, o);
                }
                // The sampler must leave the stream where it always did.
                writeln!(out, "  next={:016x}", rng.gen::<u64>()).unwrap();
            }
        }
    }
    out
}

#[test]
fn golden_corpus_reproduces_bit_for_bit() {
    let synth = Trasyn::new(6);
    let got = render(&synth);
    let want_lines: Vec<&str> = GOLDEN.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    let diffs: Vec<String> = want_lines
        .iter()
        .zip(&got_lines)
        .enumerate()
        .filter(|(_, (w, g))| w != g)
        .take(8)
        .map(|(i, (w, g))| format!("line {}:\n  want {w}\n  got  {g}", i + 1))
        .collect();
    assert!(
        diffs.is_empty() && want_lines.len() == got_lines.len(),
        "golden corpus differs ({} vs {} lines):\n{}",
        got_lines.len(),
        want_lines.len(),
        diffs.join("\n")
    );
}
