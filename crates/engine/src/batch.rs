//! Batch compilation requests and reports.
//!
//! A [`BatchRequest`] bundles circuits with per-item epsilon and backend
//! choices; the engine compiles the whole bundle through one shared cache
//! and one worker pool, then returns a [`BatchReport`] with per-item and
//! aggregate error / T-count / timing / cache statistics. Reports
//! serialize to JSON ([`BatchReport::to_json`]) for the `trasyn-compile`
//! CLI — hand-rolled, since the workspace is std-only.

use crate::backend::BackendKind;
use crate::cache::CacheStats;
use crate::stats::{work_json, PassTotals};
use circuit::pass::{PassStats, PipelineSpec};
use circuit::synthesize::SynthesizedCircuit;
use circuit::Circuit;
use trace::{fmt_f64, json_string};

/// One circuit to compile.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Name echoed into the report (file name, benchmark name, …).
    pub name: String,
    /// The circuit; may still contain rotations.
    pub circuit: Circuit,
    /// Per-rotation error threshold.
    pub epsilon: f64,
    /// Which backend synthesizes this item's rotations.
    pub backend: BackendKind,
    /// The lowering pipeline run before synthesis. Presets lower to the
    /// backend's basis ([`BackendKind::basis`]); `none` synthesizes the
    /// circuit as-is.
    pub pipeline: PipelineSpec,
    /// When `true`, the compiled circuit is checked against this item's
    /// *input* circuit (pipeline and synthesis end to end) by the
    /// `verify` crate, and the resulting [`verify::Certificate`] is
    /// attached to the [`ItemReport`]. Circuits beyond
    /// [`verify::MAX_ORACLE_QUBITS`] are reported without a certificate
    /// (unverifiable, not failed).
    pub verify: bool,
    /// When `true`, the input circuit and pipeline spec are statically
    /// linted before any synthesis work: error-severity findings fail
    /// the batch with `EngineError::Lint`, warnings land in
    /// [`ItemReport::diagnostics`], and the compiled output is checked
    /// for gate-set conformance. Pass-contract checking
    /// (`lint::CheckedPipeline`) runs regardless of this flag.
    pub lint: bool,
}

impl BatchItem {
    /// An item lowered through the `default` preset, without verification.
    pub fn new(
        name: impl Into<String>,
        circuit: Circuit,
        epsilon: f64,
        backend: BackendKind,
    ) -> Self {
        BatchItem {
            name: name.into(),
            circuit,
            epsilon,
            backend,
            pipeline: PipelineSpec::default(),
            verify: false,
            lint: false,
        }
    }

    /// Sets the lowering pipeline, builder style.
    pub fn pipeline(mut self, spec: PipelineSpec) -> Self {
        self.pipeline = spec;
        self
    }

    /// Requests an equivalence certificate for this item, builder style.
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Requests static lint for this item, builder style.
    pub fn lint(mut self, lint: bool) -> Self {
        self.lint = lint;
        self
    }
}

/// A bundle of circuits compiled as one unit of work.
#[derive(Clone, Debug, Default)]
pub struct BatchRequest {
    /// The items, compiled in order (synthesis itself is pooled across
    /// all items at once).
    pub items: Vec<BatchItem>,
}

impl BatchRequest {
    /// An empty request.
    pub fn new() -> Self {
        BatchRequest::default()
    }

    /// Appends an item, builder style.
    pub fn item(mut self, item: BatchItem) -> Self {
        self.items.push(item);
        self
    }
}

/// Compilation outcome of one [`BatchItem`].
#[derive(Clone, Debug)]
pub struct ItemReport {
    /// Item name.
    pub name: String,
    /// Backend that synthesized it.
    pub backend: BackendKind,
    /// Per-rotation error threshold used.
    pub epsilon: f64,
    /// Qubit count.
    pub n_qubits: usize,
    /// Canonical spec string of the lowering pipeline that ran.
    pub pipeline: String,
    /// Per-pass instrumentation from the lowering pipeline, in run order
    /// (empty for the `none` pipeline).
    pub passes: Vec<PassStats>,
    /// The discrete circuit plus error/rotation accounting.
    pub synthesized: SynthesizedCircuit,
    /// T count of the compiled circuit.
    pub t_count: usize,
    /// Non-Pauli Clifford count of the compiled circuit.
    pub clifford_count: usize,
    /// Distinct rotations served by the shared cache (or by an earlier
    /// item in the same batch).
    pub cache_hits: u64,
    /// Distinct rotations this item had to synthesize.
    pub cache_misses: u64,
    /// Wall-clock milliseconds spent on this item outside the shared
    /// synthesis phase (lowering + splicing).
    pub wall_ms: f64,
    /// Equivalence certificate for compiled-vs-requested, present iff the
    /// item asked for verification ([`BatchItem::verify`]) *and* the
    /// circuit fit the oracle ([`verify::MAX_ORACLE_QUBITS`]).
    pub certificate: Option<verify::Certificate>,
    /// Static-analysis findings for this item: pass-contract violations
    /// (always collected) plus, when the item asked for lint
    /// ([`BatchItem::lint`]), input warnings and output gate-set
    /// findings. Empty for a clean compile.
    pub diagnostics: Vec<lint::Diagnostic>,
}

impl ItemReport {
    /// Serializes this item as a single-line JSON object — the one item
    /// shape used by [`BatchReport::to_json`], the server's
    /// `/v1/compile` response, and `trasyn-compile`. With `include_qasm`,
    /// the compiled circuit is appended as a `"qasm"` string (clients use
    /// it to verify bit-identity across surfaces), rendered straight into
    /// the report by [`circuit::qasm::push_json_literal`].
    pub fn to_json(&self, include_qasm: bool) -> String {
        let passes: Vec<String> = self.passes.iter().map(pass_stats_json).collect();
        let mut s = format!(
            "{{\"name\": {}, \"backend\": {}, \"epsilon\": {}, \"n_qubits\": {}, \
             \"pipeline\": {}, \"rotations\": {}, \"distinct_rotations\": {}, \"t_count\": {}, \
             \"clifford_count\": {}, \"total_error\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"wall_ms\": {}, \"passes\": [{}]",
            json_string(&self.name),
            json_string(self.backend.label()),
            fmt_f64(self.epsilon),
            self.n_qubits,
            json_string(&self.pipeline),
            self.synthesized.rotations,
            self.synthesized.distinct_rotations,
            self.t_count,
            self.clifford_count,
            fmt_f64(self.synthesized.total_error),
            self.cache_hits,
            self.cache_misses,
            fmt_f64(self.wall_ms),
            passes.join(", "),
        );
        if let Some(cert) = &self.certificate {
            s.push_str(", \"certificate\": ");
            s.push_str(&cert.to_json());
        }
        if !self.diagnostics.is_empty() {
            s.push_str(", \"diagnostics\": ");
            s.push_str(&lint::diagnostics_json(&self.diagnostics));
        }
        if include_qasm {
            s.push_str(", \"qasm\": ");
            circuit::qasm::push_json_literal(&mut s, &self.synthesized.circuit);
        }
        s.push('}');
        s
    }
}

/// One [`PassStats`] as a JSON object.
pub fn pass_stats_json(s: &PassStats) -> String {
    format!(
        "{{\"name\": {}, \"wall_ms\": {}, \"instrs_before\": {}, \"instrs_after\": {}, \
         \"rotations_before\": {}, \"rotations_after\": {}}}",
        json_string(s.name),
        fmt_f64(s.wall_ms),
        s.instrs_before,
        s.instrs_after,
        s.rotations_before,
        s.rotations_after,
    )
}

/// Aggregate outcome of a [`BatchRequest`].
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-item outcomes, in request order.
    pub items: Vec<ItemReport>,
    /// Worker threads used for synthesis.
    pub threads: usize,
    /// End-to-end wall-clock milliseconds.
    pub wall_ms: f64,
    /// Wall-clock milliseconds of the pooled synthesis phase.
    pub synthesis_ms: f64,
    /// Sum of per-item cache hits.
    pub cache_hits: u64,
    /// Sum of per-item cache misses (= synthesizer invocations).
    pub cache_misses: u64,
    /// Sum of per-item T counts.
    pub total_t_count: usize,
    /// Sum of per-item summed synthesis errors.
    pub total_error: f64,
    /// Per-pass lowering totals aggregated across the batch's items,
    /// first-appearance order.
    pub passes: Vec<PassTotals>,
    /// Shared-cache counters after the batch.
    pub cache: CacheStats,
    /// Synthesis work counters for this batch (per-job deltas summed in
    /// job order, plus the cache probes of the phase-1 scan).
    pub work: prof::WorkSnapshot,
}

impl BatchReport {
    /// Serializes the report as a JSON object (2-space indent).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        push_kv(&mut s, 1, "threads", &self.threads.to_string(), true);
        push_kv(&mut s, 1, "wall_ms", &fmt_f64(self.wall_ms), true);
        push_kv(&mut s, 1, "synthesis_ms", &fmt_f64(self.synthesis_ms), true);
        push_kv(&mut s, 1, "cache_hits", &self.cache_hits.to_string(), true);
        push_kv(
            &mut s,
            1,
            "cache_misses",
            &self.cache_misses.to_string(),
            true,
        );
        push_kv(
            &mut s,
            1,
            "total_t_count",
            &self.total_t_count.to_string(),
            true,
        );
        push_kv(&mut s, 1, "total_error", &fmt_f64(self.total_error), true);
        s.push_str("  \"cache\": {\n");
        push_kv(&mut s, 2, "hits", &self.cache.hits.to_string(), true);
        push_kv(&mut s, 2, "misses", &self.cache.misses.to_string(), true);
        push_kv(
            &mut s,
            2,
            "insertions",
            &self.cache.insertions.to_string(),
            true,
        );
        push_kv(
            &mut s,
            2,
            "evictions",
            &self.cache.evictions.to_string(),
            true,
        );
        push_kv(&mut s, 2, "entries", &self.cache.entries.to_string(), false);
        s.push_str("  },\n");
        push_kv(&mut s, 1, "work", &work_json(&self.work), true);
        s.push_str("  \"passes\": [\n");
        for (i, p) in self.passes.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&p.to_json());
            s.push_str(if i + 1 == self.passes.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ],\n  \"items\": [\n");
        for (i, it) in self.items.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&it.to_json(false));
            s.push_str(if i + 1 == self.items.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn push_kv(s: &mut String, indent: usize, key: &str, value: &str, comma: bool) {
    for _ in 0..indent {
        s.push_str("  ");
    }
    s.push('"');
    s.push_str(key);
    s.push_str("\": ");
    s.push_str(value);
    if comma {
        s.push(',');
    }
    s.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
