//! The compiled program reaches JSON reports as a literal rendered in one
//! pass (`circuit::qasm::push_json_literal`). These tests pin it, byte for
//! byte, to escaping the program text: the literal must equal
//! `trace::json_string(&to_qasm(c))` for any circuit, and a report's
//! `"qasm"` field must be exactly that literal.

use circuit::qasm::{push_json_literal, to_qasm};
use circuit::Circuit;
use engine::{BackendKind, BatchItem, BatchRequest, Engine, GridsynthBackend};
use gates::Gate;
use proptest::prelude::*;
use trace::json_string;

/// An angle: half the time any finite `f64` (from raw bits, so huge,
/// tiny and subnormal values occur), half the time an ordinary one.
fn arb_angle() -> impl Strategy<Value = f64> {
    (0u8..2, 0u64..u64::MAX, -7.0f64..7.0).prop_map(|(pick, bits, ordinary)| {
        let any = f64::from_bits(bits);
        if pick == 0 && any.is_finite() {
            any
        } else {
            ordinary
        }
    })
}

/// Raw instruction: op selector, two qubit choices, three angles.
type RawOp = (usize, usize, usize, f64, f64, f64);

fn build((n, ops): (usize, Vec<RawOp>)) -> Circuit {
    let mut c = Circuit::new(n);
    for (kind, qa, qb, t, p, l) in ops {
        let q = qa % n;
        match kind {
            0 => c.rz(q, t),
            1 => c.rx(q, t),
            2 => c.ry(q, t),
            3 => c.u3(q, t, p, l),
            4 => c.cx(q, (q + 1 + qb % (n - 1)) % n),
            k => c.gate(q, Gate::ALL[(k - 5) % Gate::ALL.len()]),
        }
    }
    c
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let raw_op = (
        0usize..13,
        0usize..1000,
        0usize..1000,
        arb_angle(),
        arb_angle(),
        arb_angle(),
    );
    // Up to 123 qubits, so indices of one to three digits occur.
    (2usize..124, prop::collection::vec(raw_op, 0..40)).prop_map(build)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn literal_equals_escaped_program(c in arb_circuit()) {
        let mut literal = String::from("prefix: ");
        push_json_literal(&mut literal, &c);
        prop_assert_eq!(literal, format!("prefix: {}", json_string(&to_qasm(&c))));
    }
}

#[test]
fn report_qasm_field_is_the_escaped_program() {
    let mut c = Circuit::new(11);
    c.h(0);
    c.rz(10, 0.37);
    c.cx(10, 0);
    c.u3(3, 0.5, -0.25, 1.75);
    let engine = Engine::builder()
        .threads(1)
        .backend(GridsynthBackend::default())
        .build();
    let report = engine
        .compile_batch(&BatchRequest::new().item(BatchItem::new(
            "c",
            c,
            1e-2,
            BackendKind::Gridsynth,
        )))
        .unwrap();
    let item = &report.items[0];
    let without = item.to_json(false);
    let head = without.strip_suffix('}').expect("an object");
    assert_eq!(
        item.to_json(true),
        format!(
            "{head}, \"qasm\": {}}}",
            json_string(&to_qasm(&item.synthesized.circuit))
        )
    );
}
