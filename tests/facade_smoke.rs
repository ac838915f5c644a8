//! Build-surface smoke test: the exact workflow the README and the
//! quickstart doctest advertise, driven through the `reo` facade only —
//! parse a stdlib source, builder-compile, `connect()` into a `Session`,
//! move data through typed and untyped handles. If a facade re-export
//! drifts from what the layer crates actually export, this is the test
//! that fails to *compile*.

use reo::runtime::{Connector, Mode};
use reo::Value;

/// Every public facade path used below is the re-export surface the
/// workspace manifests promise: `reo::dsl::{parse_program, stdlib}`,
/// `reo::runtime::{Connector, Mode}`, `reo::{Session, Value}`.
#[test]
fn stdlib_connector_connects_end_to_end() {
    let program = reo::dsl::parse_program(reo::dsl::stdlib::FIG9_SOURCE).unwrap();
    let connector = Connector::builder(&program, "ConnectorEx11N")
        .mode(Mode::jit())
        .build()
        .unwrap();

    // N chosen at run time — the paper's headline generalization.
    for n in [1, 2, 4] {
        let mut session: reo::Session = connector
            .session()
            .replicate("tl", n)
            .replicate("hd", n)
            .connect()
            .unwrap();
        let producers = session.typed_outports::<i64>("tl").unwrap();
        let consumers = session.typed_inports::<i64>("hd").unwrap();
        assert_eq!(producers.len(), n);
        assert_eq!(consumers.len(), n);

        // Producer 1 is always allowed to go first in the ordered protocol.
        producers[0].send(41 + n as i64).unwrap();
        assert_eq!(
            consumers[0].recv().unwrap(),
            41 + n as i64,
            "N={n}: first message must arrive at the consumer"
        );
    }
}

/// The untyped (`Value`) handles keep the paper's original blocking
/// surface available unchanged.
#[test]
fn untyped_handles_still_speak_raw_values() {
    let program = reo::dsl::parse_program(reo::dsl::stdlib::FIG9_SOURCE).unwrap();
    let connector = Connector::builder(&program, "ConnectorEx11N")
        .mode(Mode::jit())
        .build()
        .unwrap();
    let mut session = connector
        .session()
        .replicate("tl", 2)
        .replicate("hd", 2)
        .connect()
        .unwrap();
    let producers = session.outports("tl").unwrap();
    let consumers = session.inports("hd").unwrap();
    producers[0].send(Value::Int(99)).unwrap();
    assert_eq!(consumers[0].recv().unwrap().as_int(), Some(99));
}

/// The ahead-of-time composition path (`Mode::compiled()`) must work
/// through the same facade surface as the JIT path.
#[test]
fn facade_exposes_aot_mode_too() {
    let program = reo::dsl::parse_program(reo::dsl::stdlib::FIG9_SOURCE).unwrap();
    let connector = Connector::builder(&program, "ConnectorEx11N")
        .mode(Mode::compiled())
        .build()
        .unwrap();
    let mut session = connector
        .session()
        .replicate("tl", 2)
        .replicate("hd", 2)
        .connect()
        .unwrap();
    let producers = session.outports("tl").unwrap();
    let consumers = session.inports("hd").unwrap();
    producers[0].send(Value::Int(7)).unwrap();
    assert_eq!(consumers[0].recv().unwrap().as_int(), Some(7));
    assert!(session.handle().steps() > 0);
}
