//! End-to-end checks of the paper's running examples (Exs. 1–11), across
//! all execution modes, under real threads.

use std::sync::Arc;
use std::thread;

use reo::runtime::{Connector, Mode};
use reo::Value;

/// Example 1, enforced by ConnectorEx11a (Fig. 8): C receives A's message
/// strictly before B's, without any auxiliary communication in the tasks.
#[test]
fn example1_order_enforced_in_every_mode() {
    let program = reo::dsl::parse_program(reo::dsl::stdlib::FIG8_SOURCE).unwrap();
    for &(_, mode) in Mode::grid() {
        for def in ["ConnectorEx11a", "ConnectorEx11b"] {
            let connector = Connector::builder(&program, def)
                .mode(mode)
                .build()
                .unwrap();
            let mut connected = connector.session().connect().unwrap();
            let a_out = connected.outports("tl1").unwrap().pop().unwrap();
            let b_out = connected.outports("tl2").unwrap().pop().unwrap();
            let c1 = connected.inports("hd1").unwrap().pop().unwrap();
            let c2 = connected.inports("hd2").unwrap().pop().unwrap();

            // A sends; its operation completes immediately (buffered).
            a_out.send(Value::Int(1)).unwrap();
            // B tries to send — the connector must hold it back until C has
            // received A's message.
            let b_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flag = Arc::clone(&b_done);
            let b = thread::spawn(move || {
                b_out.send(Value::Int(2)).unwrap();
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            thread::sleep(std::time::Duration::from_millis(60));
            assert!(
                !b_done.load(std::sync::atomic::Ordering::SeqCst),
                "{def} {mode:?}: B's send completed before C received A's message"
            );
            let first = c1.recv().unwrap();
            assert_eq!(first.as_int(), Some(1), "{def} {mode:?}");
            b.join().unwrap();
            assert!(b_done.load(std::sync::atomic::Ordering::SeqCst));
            let second = c2.recv().unwrap();
            assert_eq!(second.as_int(), Some(2), "{def} {mode:?}");
        }
    }
}

/// Example 9: ConnectorEx11a and ConnectorEx11b are the same connector
/// (flattening makes them coincide); observable behaviour agrees.
#[test]
fn example9_a_and_b_have_equal_medium_structure() {
    let program = reo::dsl::parse_program(reo::dsl::stdlib::FIG8_SOURCE).unwrap();
    let a = reo::core::compile(&program, "ConnectorEx11a").unwrap();
    let b = reo::core::compile(&program, "ConnectorEx11b").unwrap();
    assert_eq!(a.root.template_count(), b.root.template_count());
    match (&a.root, &b.root) {
        (reo::core::CompiledNode::Medium(ma), reo::core::CompiledNode::Medium(mb)) => {
            assert_eq!(ma.automaton.state_count(), mb.automaton.state_count());
            assert_eq!(
                ma.automaton.transition_count(),
                mb.automaton.transition_count()
            );
            assert_eq!(ma.mem_count, mb.mem_count);
        }
        other => panic!("expected single mediums, got {other:?}"),
    }
}

/// Example 8 / Fig. 9 at several N, all modes: strict producer order.
#[test]
fn example8_parametrized_order_all_modes() {
    let program = reo::dsl::parse_program(reo::dsl::stdlib::FIG9_SOURCE).unwrap();
    for &(_, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "ConnectorEx11N")
            .mode(mode)
            .build()
            .unwrap();
        // Reconfigurable sessions step the existing approach's primitives
        // instead of their simplified product.
        for (n, reconfigurable) in [1usize, 2, 5]
            .into_iter()
            .flat_map(|n| [(n, false), (n, true)])
        {
            let spec = connector.session().replicate("tl", n).replicate("hd", n);
            let spec = if reconfigurable {
                spec.reconfigurable()
            } else {
                spec
            };
            let mut connected = spec.connect().unwrap();
            let producers = connected.outports("tl").unwrap();
            let consumers = connected.inports("hd").unwrap();
            let senders: Vec<_> = producers
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    thread::spawn(move || {
                        p.send(Value::Int(i as i64)).unwrap();
                    })
                })
                .collect();
            for (i, c) in consumers.iter().enumerate() {
                assert_eq!(
                    c.recv().unwrap().as_int(),
                    Some(i as i64),
                    "mode {mode:?}, n={n}, reconfigurable={reconfigurable}"
                );
            }
            for s in senders {
                s.join().unwrap();
            }
        }
    }
}

/// The Fig. 5 diagram, translated by the graph-to-text component, compiles
/// and behaves like the hand-written Fig. 8 definition.
#[test]
fn fig5_diagram_runs_like_fig8() {
    let def = reo::dsl::graph::fig5_diagram().to_def().unwrap();
    let program = reo::core::Program::new(vec![def]);
    let connector = Connector::builder(&program, "ConnectorEx11")
        .mode(Mode::jit())
        .build()
        .unwrap();
    let mut connected = connector.session().connect().unwrap();
    let a_out = connected.outports("tl1").unwrap().pop().unwrap();
    let b_out = connected.outports("tl2").unwrap().pop().unwrap();
    let c1 = connected.inports("hd1").unwrap().pop().unwrap();
    let c2 = connected.inports("hd2").unwrap().pop().unwrap();

    let b = thread::spawn(move || b_out.send(Value::Int(2)).unwrap());
    a_out.send(Value::Int(1)).unwrap();
    assert_eq!(c1.recv().unwrap().as_int(), Some(1));
    assert_eq!(c2.recv().unwrap().as_int(), Some(2));
    b.join().unwrap();
}

/// Footnote 1: a buffered connector makes sends effectively nonblocking;
/// an unbuffered (sync) connector blocks the sender until the receiver
/// arrives.
#[test]
fn footnote1_buffering_controls_send_blocking() {
    let program =
        reo::dsl::parse_program("Buffered(a;b) = Fifo1(a;b)\nUnbuffered(a;b) = Sync(a;b)").unwrap();
    // Buffered: send completes without any receiver.
    let connector = Connector::builder(&program, "Buffered")
        .mode(Mode::jit())
        .build()
        .unwrap();
    let mut connected = connector.session().connect().unwrap();
    let tx = connected.outports("a").unwrap().pop().unwrap();
    tx.send(Value::Int(1)).unwrap(); // returns immediately

    // Unbuffered: send blocks until the receiver shows up.
    let connector = Connector::builder(&program, "Unbuffered")
        .mode(Mode::jit())
        .build()
        .unwrap();
    let mut connected = connector.session().connect().unwrap();
    let tx = connected.outports("a").unwrap().pop().unwrap();
    let rx = connected.inports("b").unwrap().pop().unwrap();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let sender = thread::spawn(move || {
        tx.send(Value::Int(5)).unwrap();
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        !done.load(std::sync::atomic::Ordering::SeqCst),
        "sync send completed without a receiver"
    );
    assert_eq!(rx.recv().unwrap().as_int(), Some(5));
    sender.join().unwrap();
}
