//! The diagnostic record: stable codes, severity, machine-readable JSON.

use std::fmt;

/// How bad a finding is. `Error` means the artifact must not proceed to
/// synthesis (and drives nonzero exit / HTTP 400); `Warning` means it
/// can, but something is suspicious or wasteful.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but compilable.
    Warning,
    /// Must not reach synthesis.
    Error,
}

impl Severity {
    /// Stable lowercase label (`"warning"` / `"error"`), used in both
    /// the table and JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint finding. Codes are stable and append-only; see the crate
/// docs for the family table and [`crate::rules`] / [`crate::contract`]
/// for which rule assigns which code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `"L0103"`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Instruction index (for `L01xx`/`L02xx`/adjacency `L04xx`) or
    /// pass-list index (for `L03xx`); `None` for whole-artifact findings.
    pub index: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds an error-severity diagnostic.
    pub fn error(code: &'static str, index: Option<usize>, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            index,
            message,
        }
    }

    /// Builds a warning-severity diagnostic.
    pub fn warning(code: &'static str, index: Option<usize>, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            index,
            message,
        }
    }

    /// The machine-readable form:
    /// `{"code": "L0101", "severity": "error", "index": 3, "message": "..."}`
    /// (`index` is `null` for whole-artifact findings). Key order is
    /// pinned by golden tests.
    pub fn to_json(&self) -> String {
        let idx = match self.index {
            Some(i) => i.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"code\": \"{}\", \"severity\": \"{}\", \"index\": {}, \"message\": {}}}",
            self.code,
            self.severity.label(),
            idx,
            escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    /// One table row: `L0101 error @3: qubit 5 out of range ...`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(i) = self.index {
            write!(f, " @{i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Renders a slice of diagnostics as a JSON array (no trailing newline).
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(", "))
}

/// JSON string literal with the minimal required escapes, shared with
/// the `trasyn-lint` binary. Kept local so `lint` stays a leaf crate
/// under `circuit` (the engine's writer lives above us in the dependency
/// graph).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let d = Diagnostic::error("L0101", Some(3), "qubit 5 out of range".to_string());
        assert_eq!(
            d.to_json(),
            "{\"code\": \"L0101\", \"severity\": \"error\", \"index\": 3, \
             \"message\": \"qubit 5 out of range\"}"
        );
        let w = Diagnostic::warning("L0105", None, "unused".to_string());
        assert_eq!(
            w.to_json(),
            "{\"code\": \"L0105\", \"severity\": \"warning\", \"index\": null, \
             \"message\": \"unused\"}"
        );
        assert_eq!(
            diagnostics_json(&[w.clone(), d]),
            format!(
                "[{}, {}]",
                w.to_json(),
                "{\"code\": \"L0101\", \"severity\": \"error\", \"index\": 3, \
                 \"message\": \"qubit 5 out of range\"}"
            )
        );
        assert_eq!(diagnostics_json(&[]), "[]");
    }

    #[test]
    fn display_is_stable() {
        let d = Diagnostic::error("L0102", Some(0), "control equals target".to_string());
        assert_eq!(d.to_string(), "L0102 error @0: control equals target");
        let w = Diagnostic::warning("L0304", None, "oscillates".to_string());
        assert_eq!(w.to_string(), "L0304 warning: oscillates");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
