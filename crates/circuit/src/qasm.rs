//! OpenQASM 2.0 export.
//!
//! Lets synthesized circuits flow into external toolchains (Qiskit, PyZX,
//! staq …) for cross-validation. Only the gate set this workspace emits is
//! supported: `h s sdg t tdg x y z rz rx ry u3 cx`.

use crate::ir::{Circuit, Op};
use gates::Gate;
use std::fmt;
use std::fmt::Write;

/// Serializes a circuit as an OpenQASM 2.0 program.
///
/// ```
/// use circuit::Circuit;
/// let mut c = Circuit::new(2);
/// c.h(0);
/// c.cx(0, 1);
/// let q = circuit::qasm::to_qasm(&c);
/// assert!(q.contains("h q[0];"));
/// assert!(q.contains("cx q[0],q[1];"));
/// ```
pub fn to_qasm(c: &Circuit) -> String {
    let mut out = String::new();
    write_program(&mut out, c, "\n", "\"");
    out
}

/// Appends [`to_qasm`]`(c)` to `out` as a JSON string literal, quotes
/// included: byte for byte what a JSON escaper makes of `to_qasm(c)`,
/// rendered in one pass with no intermediate program string. The only
/// characters of a program that JSON escapes are its line breaks and the
/// quotes around `qelib1.inc`, so the literal is the same rendering with
/// those two spelled `\n` and `\"`.
///
/// ```
/// use circuit::Circuit;
/// let mut c = Circuit::new(1);
/// c.h(0);
/// let mut json = String::new();
/// circuit::qasm::push_json_literal(&mut json, &c);
/// assert!(json.starts_with(r#""OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"#));
/// assert!(json.ends_with(r#"h q[0];\n""#));
/// ```
pub fn push_json_literal(out: &mut String, c: &Circuit) {
    out.push('"');
    write_program(out, c, "\\n", "\\\"");
    out.push('"');
}

/// The one QASM renderer behind [`to_qasm`] and [`push_json_literal`]:
/// appends the program to `out`, ending each line with `newline` and
/// quoting the include file with `quote`. Each instruction is built from
/// static pieces and its qubit indices; only rotation angles go through
/// `fmt`.
fn write_program(out: &mut String, c: &Circuit, newline: &str, quote: &str) {
    // A Clifford+T line is 8 to 14 bytes.
    out.reserve(48 + 12 * c.len());
    out.push_str("OPENQASM 2.0;");
    out.push_str(newline);
    out.push_str("include ");
    out.push_str(quote);
    out.push_str("qelib1.inc");
    out.push_str(quote);
    out.push(';');
    out.push_str(newline);
    out.push_str("qreg q[");
    push_index(out, c.n_qubits());
    out.push_str("];");
    out.push_str(newline);
    for i in c.instrs() {
        match i.op {
            Op::Cx => out.push_str("cx q["),
            Op::Rz(a) => push_params(out, "rz(", &[a]),
            Op::Rx(a) => push_params(out, "rx(", &[a]),
            Op::Ry(a) => push_params(out, "ry(", &[a]),
            Op::U3 { theta, phi, lambda } => push_params(out, "u3(", &[theta, phi, lambda]),
            Op::Gate1(g) => out.push_str(match g {
                Gate::H => "h q[",
                Gate::S => "s q[",
                Gate::Sdg => "sdg q[",
                Gate::T => "t q[",
                Gate::Tdg => "tdg q[",
                Gate::X => "x q[",
                Gate::Y => "y q[",
                Gate::Z => "z q[",
            }),
        }
        push_index(out, i.q0);
        if matches!(i.op, Op::Cx) {
            out.push_str("],q[");
            push_index(out, i.q1.expect("cx target"));
        }
        out.push_str("];");
        out.push_str(newline);
    }
}

/// Appends `name` (which includes the opening parenthesis), the angles
/// separated by commas, and `) q[`. `Display` prints each `f64` in the
/// shortest form that parses back to the same value.
fn push_params(out: &mut String, name: &str, angles: &[f64]) {
    out.push_str(name);
    for (k, a) in angles.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{a}");
    }
    out.push_str(") q[");
}

/// Appends `n` in decimal.
fn push_index(out: &mut String, mut n: usize) {
    // Most indices are one digit. Without this branch, `to_json(true)`
    // took 1.6x as long on the circuits mix (criterion group
    // `request_bytes`, one core of a 2-vCPU Xeon).
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while n > 0 {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A parse failure with its 1-based source line, so front ends (the
/// `trasyn-compile` CLI, the server's 400 responses) can say *what*
/// failed, not just that something did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QasmError {
    /// 1-based line number of the offending statement (`0` for
    /// whole-program failures like a missing `qreg`).
    pub line: usize,
    /// What went wrong on that line.
    pub message: String,
}

impl QasmError {
    fn at(line: usize, message: impl Into<String>) -> QasmError {
        QasmError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for QasmError {}

/// Largest register [`parse_qasm`] accepts. Generous for every workload
/// in this workspace (the suite tops out at dozens of qubits), but small
/// enough that per-qubit scratch allocations downstream (fusion
/// accumulators, parity tables) stay trivially cheap — a hostile
/// `qreg q[10000000000];` must be a parse error, not a 700 GB
/// allocation that aborts the server.
pub const MAX_QUBITS: usize = 4096;

/// Parses the subset of OpenQASM 2.0 emitted by [`to_qasm`], reporting
/// the first unsupported construct with its line number (this is a
/// round-trip aid, not a general front end). Registers larger than
/// [`MAX_QUBITS`] are rejected.
///
/// Real-world QASM 2.0 trimmings are tolerated without contributing
/// instructions: `//` comments (whole-line or trailing), blank lines, the
/// `OPENQASM 2.0;` version line, and an `include "qelib1.inc";` line.
pub fn parse_qasm(src: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        // Comments run to end of line; `//` cannot occur inside any
        // supported statement (no string literals in this subset).
        let line = match raw.split_once("//") {
            Some((code, _)) => code.trim(),
            None => raw.trim(),
        };
        if line.is_empty() || line.starts_with("OPENQASM") || line.starts_with("include") {
            continue;
        }
        let line = line
            .strip_suffix(';')
            .ok_or_else(|| QasmError::at(lineno, format!("missing ';' after '{}'", echo(line))))?;
        if let Some(rest) = line.strip_prefix("qreg q[") {
            let n: usize = rest
                .strip_suffix(']')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    QasmError::at(lineno, format!("malformed register '{};'", echo(line)))
                })?;
            if n > MAX_QUBITS {
                return Err(QasmError::at(
                    lineno,
                    format!("register too large: {n} qubits (max {MAX_QUBITS})"),
                ));
            }
            circuit = Some(Circuit::new(n));
            continue;
        }
        let c = circuit
            .as_mut()
            .ok_or_else(|| QasmError::at(lineno, "statement before the 'qreg q[n];' declaration"))?;
        let bad_stmt = || QasmError::at(lineno, format!("unsupported statement '{};'", echo(line)));
        let in_range = |q: usize, c: &Circuit| {
            if q < c.n_qubits() {
                Ok(q)
            } else {
                Err(QasmError::at(
                    lineno,
                    format!("qubit q[{q}] out of range (register has {})", c.n_qubits()),
                ))
            }
        };
        let (head, args) = line.split_once(" q[").ok_or_else(bad_stmt)?;
        if head == "cx" {
            // "cx q[a],q[b]" split differently: args = "a],q[b]".
            let (a, b) = args
                .split_once("],q[")
                .and_then(|(a, rest)| Some((a, rest.strip_suffix(']')?)))
                .ok_or_else(bad_stmt)?;
            let (a, b) = match (a.parse(), b.parse()) {
                (Ok(a), Ok(b)) => (in_range(a, c)?, in_range(b, c)?),
                _ => return Err(bad_stmt()),
            };
            if a == b {
                return Err(QasmError::at(lineno, format!("self-CNOT on q[{a}]")));
            }
            c.cx(a, b);
            continue;
        }
        let q: usize = args
            .strip_suffix(']')
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad_stmt)?;
        let q = in_range(q, c)?;
        if let Some(g) = match head {
            "h" => Some(Gate::H),
            "s" => Some(Gate::S),
            "sdg" => Some(Gate::Sdg),
            "t" => Some(Gate::T),
            "tdg" => Some(Gate::Tdg),
            "x" => Some(Gate::X),
            "y" => Some(Gate::Y),
            "z" => Some(Gate::Z),
            _ => None,
        } {
            c.gate(q, g);
            continue;
        }
        // Parametrized forms: name(params).
        let (name, params) = head.split_once('(').ok_or_else(bad_stmt)?;
        let params = params.strip_suffix(')').ok_or_else(bad_stmt)?;
        let vals: Vec<f64> = params
            .split(',')
            .map(|s| s.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad_stmt())?;
        match (name, vals.as_slice()) {
            ("rz", [a]) => c.rz(q, *a),
            ("rx", [a]) => c.rx(q, *a),
            ("ry", [a]) => c.ry(q, *a),
            ("u3", [t, p, l]) => c.u3(q, *t, *p, *l),
            _ => return Err(bad_stmt()),
        }
    }
    circuit.ok_or_else(|| QasmError::at(0, "no 'qreg q[n];' declaration"))
}

/// Most characters of a statement an error message quotes: enough to
/// tell which statement failed, while a hostile multi-megabyte line
/// does not come back whole in the error (and in the server's 400).
const ECHO_CHARS: usize = 64;

/// `stmt` as an error message quotes it: its first [`ECHO_CHARS`]
/// characters, and `…` if it is longer.
fn echo(stmt: &str) -> String {
    match stmt.char_indices().nth(ECHO_CHARS) {
        Some((cut, _)) => format!("{}…", &stmt[..cut]),
        None => stmt.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.gate(1, Gate::Tdg);
        c.rz(2, 0.25);
        c.u3(0, 0.1, -0.2, 0.3);
        c.cx(0, 2);
        c.gate(2, Gate::Sdg);
        c
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let q = to_qasm(&c);
        let back = parse_qasm(&q).expect("own output parses");
        assert_eq!(back.n_qubits(), c.n_qubits());
        assert_eq!(back.len(), c.len());
        assert_eq!(back.instrs(), c.instrs());
    }

    #[test]
    fn header_and_register() {
        let q = to_qasm(&sample());
        assert!(q.starts_with("OPENQASM 2.0;"));
        assert!(q.contains("qreg q[3];"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_qasm("qreg q[2];\nfoo q[0];").is_err());
        assert!(parse_qasm("h q[0];").is_err(), "missing qreg");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let src = "OPENQASM 2.0;\n// a comment\n\nqreg q[1];\nh q[0];\n";
        let c = parse_qasm(src).expect("parses");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn real_world_trimmings_tolerated() {
        // Trailing comments, indentation, blank lines, and the qelib
        // include — the shape of files Qiskit and hand authors produce.
        let src = "\
// exported by some toolchain
OPENQASM 2.0;
include \"qelib1.inc\";   // standard library

qreg q[2];  // two qubits
  h q[0];   // indented + trailing comment
cx q[0],q[1]; // entangle
// rz below
rz(0.25) q[1];
";
        let c = parse_qasm(src).expect("real-world trimmings parse");
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn comment_only_and_empty_sources_have_no_register() {
        assert!(parse_qasm("// nothing here\n\n").is_err());
        assert!(parse_qasm("").is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("frobnicate"), "{err}");
        assert_eq!(err.to_string(), format!("line 3: {}", err.message));

        let err = parse_qasm("qreg q[2];\nh q[0]").unwrap_err();
        assert_eq!(err.line, 2, "missing semicolon: {err}");
        assert!(err.message.contains("';'"));

        let err = parse_qasm("h q[0];\nqreg q[1];").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("qreg"), "{err}");

        let err = parse_qasm("// only comments\n").unwrap_err();
        assert_eq!(err.line, 0, "whole-program failure has no line");
        assert!(err.to_string().contains("no 'qreg"));
    }

    #[test]
    fn out_of_range_qubits_are_errors_not_panics() {
        // The old Option parser panicked on these (Circuit::push asserts);
        // hostile network input must produce a clean error instead.
        let err = parse_qasm("qreg q[2];\nrz(0.3) q[5];").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("out of range"), "{err}");

        let err = parse_qasm("qreg q[2];\ncx q[0],q[7];").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("out of range"), "{err}");

        let err = parse_qasm("qreg q[2];\ncx q[1],q[1];").unwrap_err();
        assert!(err.message.contains("self-CNOT"), "{err}");
    }

    #[test]
    fn oversized_registers_are_rejected_cheaply() {
        // A 22-byte hostile request must not become a multi-hundred-GB
        // per-qubit scratch allocation downstream.
        let err = parse_qasm("qreg q[10000000000];").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("too large"), "{err}");
        // The boundary itself parses.
        let c = parse_qasm(&format!("qreg q[{MAX_QUBITS}];")).unwrap();
        assert_eq!(c.n_qubits(), MAX_QUBITS);
        assert!(parse_qasm(&format!("qreg q[{}];", MAX_QUBITS + 1)).is_err());
    }

    #[test]
    fn errors_quote_long_statements_cut_short() {
        // A hostile one-line program must not come back whole in its
        // error; the cut falls on a character boundary.
        let long = "é".repeat(1 << 20);
        for (src, start) in [
            (long.clone(), "missing ';' after '"),
            (format!("qreg q[{long}];"), "malformed register '"),
            (format!("qreg q[1];\n{long};"), "unsupported statement '"),
        ] {
            let err = parse_qasm(&src).unwrap_err();
            assert!(err.message.starts_with(start), "{err}");
            assert!(err.message.contains("é…"), "{err}");
            let quoted = err.message.chars().count() - start.chars().count();
            assert!(quoted <= ECHO_CHARS + 3, "{err}");
        }
        // Short statements are quoted whole.
        let err = parse_qasm("qreg q[2];\nfoo q[0];").unwrap_err();
        assert_eq!(err.message, "unsupported statement 'foo q[0];'");
    }

    mod roundtrip_property {
        use super::*;
        use proptest::prelude::*;

        /// Raw instruction spec: an op selector plus more raw material
        /// than any op needs; `build` folds it into a valid instruction
        /// for the circuit's qubit count.
        type RawOp = (usize, usize, usize, f64, f64, f64);

        fn arb_circuit() -> impl Strategy<Value = Circuit> {
            let raw_op = (0usize..13, 0usize..8, 0usize..7, -7.0f64..7.0, -7.0f64..7.0, -7.0f64..7.0);
            (1usize..4, prop::collection::vec(raw_op, 0..24)).prop_map(build)
        }

        fn build((n, ops): (usize, Vec<RawOp>)) -> Circuit {
            let mut c = Circuit::new(n);
            for (kind, qa, qb, t, p, l) in ops {
                let q = qa % n;
                match kind {
                    0 => c.rz(q, t),
                    1 => c.rx(q, t),
                    2 => c.ry(q, t),
                    3 => c.u3(q, t, p, l),
                    4 => {
                        if n > 1 {
                            c.cx(q, (q + 1 + qb % (n - 1)) % n);
                        }
                    }
                    k => {
                        let g = [
                            Gate::H,
                            Gate::S,
                            Gate::Sdg,
                            Gate::T,
                            Gate::Tdg,
                            Gate::X,
                            Gate::Y,
                            Gate::Z,
                        ][(k - 5) % 8];
                        c.gate(q, g);
                    }
                }
            }
            c
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// parse(emit(c)) == c for random circuits: f64 angles survive
            /// because `Display` prints the shortest exactly-round-tripping
            /// decimal form.
            #[test]
            fn qasm_roundtrips(c in arb_circuit()) {
                let back = parse_qasm(&to_qasm(&c)).expect("own output parses");
                prop_assert_eq!(back, c);
            }
        }
    }
}
