//! End-to-end regressions for the adversarial-input limits: every resource
//! bound added for the fuzzer must surface as a *typed* error through the
//! public facade — never a panic, hang, or allocation storm. Each case here
//! mirrors a defect class the structured fuzzer (`reo-fuzz`) probes for.

use reo::runtime::{Connector, Mode, RuntimeError};

fn build(src: &str, name: &str) -> Connector {
    let program = reo::dsl::parse_program(src).unwrap();
    Connector::builder(&program, name)
        .mode(Mode::jit())
        .build()
        .unwrap()
}

const WIDE: &str = "P(a[];b[]) = prod (i:1..#a) Sync(a[i];b[i])";

fn assert_over_budget<T>(result: Result<T, RuntimeError>) {
    let err = result.err().expect("must be refused");
    assert!(
        matches!(
            err,
            RuntimeError::Core(reo::core::CoreError::InstantiationBudget { .. })
        ),
        "got: {err}"
    );
}

/// A replication count beyond the instantiation budget is refused before a
/// single port is allocated.
#[test]
fn oversized_replication_is_a_typed_error() {
    let connector = build(WIDE, "P");
    assert_over_budget(
        (connector.session())
            .replicate("a", reo::core::INSTANTIATION_BUDGET + 1)
            .replicate("b", 1)
            .connect(),
    );
}

/// `analyze` binds ports as `connect` does, budget check included: a size
/// past it is the same typed error, not a `capacity overflow` panic in the
/// port allocator.
#[test]
fn oversized_replication_is_a_typed_error_in_analyze() {
    let connector = build(WIDE, "P");
    let opts = reo::automata::ProductOptions::default();
    assert_over_budget(connector.analyze(&[("a", usize::MAX), ("b", 1)], &opts));
}

/// So does the stepping microbench.
#[test]
fn oversized_replication_is_a_typed_error_in_stepping_run() {
    use reo::runtime::{stepping_run, Limits, SteppingMode};
    let program = reo::dsl::parse_program(WIDE).unwrap();
    let sizes = [("a", usize::MAX), ("b", 1)];
    let window = std::time::Duration::from_millis(1);
    for mode in [SteppingMode::Jit, SteppingMode::Compiled] {
        let run = stepping_run(&program, "P", &sizes, mode, Limits::default(), window);
        assert_over_budget(run);
    }
}

/// A constant `prod` range far beyond any real workload terminates with the
/// budget error instead of unrolling forever at `connect`, in every mode:
/// the existing approach instantiates through the same budgeted walk.
#[test]
fn huge_constant_prod_range_is_a_typed_error() {
    use std::time::{Duration, Instant};
    let src = "P(a;b) = Sync(a;b) mult prod (i:1..999999999) if (1 == 2) { Sync(a;b) }";
    let program = reo::dsl::parse_program(src).unwrap();
    for &(name, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "P")
            .mode(mode)
            .build()
            .unwrap();
        let start = Instant::now();
        assert_over_budget(connector.session().connect());
        assert!(start.elapsed() < Duration::from_secs(5), "{name}");
    }
}

/// An empty replicated parameter is refused by name, the same way in
/// every mode.
#[test]
fn empty_array_is_the_same_typed_error_in_every_mode() {
    use reo::core::CoreError;
    let program = reo::dsl::parse_program("P(a[];b) = Sync(a[1];b)").unwrap();
    for &(name, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "P")
            .mode(mode)
            .build()
            .unwrap();
        let err = connector.session().replicate("a", 0).connect().err();
        assert!(
            matches!(&err, Some(RuntimeError::Core(CoreError::EmptyArray(a))) if a == "a"),
            "{name}: got {err:?}"
        );
    }
}

/// `FifoN` materializes one control state per fill level; adversarial
/// capacities (zero, negative, enormous) must be rejected up front.
#[test]
fn adversarial_fifon_capacities_are_typed_errors() {
    for cap in ["0", "-3", "999999999", "9223372036854775807"] {
        // Constant capacities are caught while compiling the medium
        // automaton, before a session even exists.
        let src = format!("P(a;b) = FifoN<{cap}>(a;b)");
        let program = reo::dsl::parse_program(&src).unwrap();
        let err = Connector::builder(&program, "P")
            .mode(Mode::jit())
            .build()
            .err()
            .expect("build must fail");
        assert!(
            err.to_string().contains("invalid integer argument"),
            "capacity {cap}: expected BadIntArg, got: {err}"
        );
    }
}

/// Near-`i64::MAX` literals in index arithmetic overflow into a typed
/// error, not a debug-build panic.
#[test]
fn giant_int_literal_arithmetic_is_a_typed_error() {
    // 2^62 * #a overflows once #a >= 4.
    let connector = build(
        "P(a[];b[]) = prod (i:1..4611686018427387904*#a) Sync(a[1];b[1])",
        "P",
    );
    let err = connector
        .session()
        .replicate("a", 4)
        .replicate("b", 4)
        .connect()
        .err()
        .expect("connect must fail");
    assert!(
        err.to_string().contains("overflow"),
        "expected IndexOverflow, got: {err}"
    );
}

/// The parser's recursion-depth limit is visible through the facade parse
/// entry point (the fuzzer feeds sources this deep constantly).
#[test]
fn deep_nesting_is_a_typed_parse_error() {
    let src = format!("P(a;b) = {}Sync(a;b){}", "{".repeat(9000), "}".repeat(9000));
    let err = reo::dsl::parse_program(&src).unwrap_err();
    assert!(err.to_string().contains("nesting"), "got: {err}");
}

/// Ahead-of-time composition that outgrows its product budget is refused at
/// `connect`, typed, however the session is spelled: twenty buffers behind
/// one merger are one synchronous region of 2^20 states, composed into one
/// product or filled as rows, on one engine or partitioned, reconfigurable
/// or not. (Only a *splice* of a running session steps just-in-time for
/// the epoch instead of failing.)
#[test]
fn eager_composition_past_its_budget_is_an_explosion_at_connect() {
    use reo::automata::ProductOptions;
    use reo::runtime::Limits;
    let program = reo::dsl::parse_program(
        "Gather(a[];b) = prod (i:1..#a) Fifo1(a[i];m[i]) mult Merger(m[1..#a];b)",
    )
    .unwrap();
    let limits = Limits {
        product: ProductOptions {
            max_states: 1 << 12,
            max_transitions: 1 << 14,
        },
        ..Limits::default()
    };
    for mode in [
        Mode::existing(),
        Mode::compiled(),
        Mode::compiled_partitioned(),
    ] {
        let connector = Connector::builder(&program, "Gather")
            .mode(mode)
            .limits(limits)
            .build()
            .unwrap();
        for reconfigurable in [false, true] {
            let mut spec = connector.session().replicate("a", 20);
            if reconfigurable {
                spec = spec.reconfigurable();
            }
            let err = spec.connect().err().unwrap_or_else(|| {
                panic!("{mode:?}, reconfigurable={reconfigurable}: connect must fail")
            });
            assert!(
                matches!(err, RuntimeError::Explosion(_)),
                "{mode:?}, reconfigurable={reconfigurable}: got {err}"
            );
        }
    }
}

/// The compiled modes fill the rows of every reachable tuple at `connect`,
/// each enumerated under what is left of the step budget. One replicator
/// into 32 `Lossy`s has 2^32 connected steps in its one state: that is an
/// explosion at `connect`, found before a single step past the budget is
/// enumerated (a small budget, so a debug build keeps the time bound too).
#[test]
fn a_row_past_the_step_budget_is_an_explosion_at_connect() {
    use reo::automata::ProductOptions;
    use reo::runtime::Limits;
    use std::time::{Duration, Instant};
    let family = reo::connectors::families()
        .into_iter()
        .find(|f| f.name == "lossy_bcast")
        .unwrap();
    let (program, sizes) = (family.program(), (family.sizes)(32));
    let product = ProductOptions {
        max_transitions: 1 << 14,
        ..ProductOptions::default()
    };
    let limits = Limits {
        product,
        ..Limits::default()
    };
    for mode in [Mode::compiled(), Mode::compiled_partitioned()] {
        let connector = Connector::builder(&program, family.def)
            .mode(mode)
            .limits(limits)
            .build()
            .unwrap();
        let start = Instant::now();
        let err = connector.session().replicate_all(&sizes).connect().err();
        let Some(RuntimeError::Explosion(e)) = err else {
            panic!("{mode:?}: connect must explode, got {err:?}");
        };
        assert!(start.elapsed() < Duration::from_secs(10), "{mode:?}");
        assert_eq!(e.transitions_built, product.max_transitions + 1, "{mode:?}");
    }
}

/// What the engine can fire is what the budgets bound in the compiled
/// modes, not the unions of independent steps an eager product would hold:
/// 64 independent channels are one tuple of 64 steps, sixteen buffers 2^16
/// tuples of 16, and under the default limits each of these connects and
/// passes a value. (As a composed product, all four exploded at `connect`.)
#[test]
fn compiled_sessions_connect_what_their_product_could_not() {
    use reo::connectors::{families, Role};
    use std::task::{Context, Poll, Waker};
    for (name, n) in [
        ("channels", 64),
        ("exchanger", 64),
        ("token_ring", 16),
        ("load_balancer", 8),
    ] {
        let family = families().into_iter().find(|f| f.name == name).unwrap();
        let connector = Connector::builder(&family.program(), family.def)
            .mode(Mode::compiled())
            .build()
            .unwrap();
        let mut session = (connector
            .session()
            .replicate_all(&(family.sizes)(n))
            .connect())
        .unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
        let (mut senders, mut receivers) = (Vec::new(), Vec::new());
        for &(param, role) in family.drivers {
            match role {
                Role::Send => senders.extend(session.outports(param).unwrap()),
                Role::Recv => receivers.extend(session.inports(param).unwrap()),
            }
        }
        // Every sender offers, then receivers poll until one has a value.
        let mut cx = Context::from_waker(Waker::noop());
        for tx in &senders {
            let _ = tx.poll_send(&mut cx, &mut Some(7i64.into()));
        }
        let mut polls = receivers.iter().map(|rx| rx.poll_recv(&mut cx, &mut false));
        let received = polls.any(|poll| matches!(poll, Poll::Ready(Ok(_))));
        assert!(received, "{name} n={n}: no value came through");
    }
}

/// `analyze` inspects the rows a compiled session fills, so it succeeds on
/// the same four cells (as a composed product, each exploded here too):
/// the channels are one deadlock-free row of one step per channel.
#[test]
fn analysis_runs_where_compiled_sessions_connect() {
    use reo::automata::ProductOptions;
    use reo::connectors::families;
    for (name, n) in [
        ("channels", 64),
        ("exchanger", 64),
        ("token_ring", 16),
        ("load_balancer", 8),
    ] {
        let family = families().into_iter().find(|f| f.name == name).unwrap();
        let connector = Connector::builder(&family.program(), family.def)
            .mode(Mode::compiled())
            .build()
            .unwrap();
        let report = (connector.analyze(&(family.sizes)(n), &ProductOptions::default()))
            .unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
        assert!(report.is_deadlock_free(), "{name} n={n}: {report:?}");
        assert!(!report.has_dead_ports(), "{name} n={n}: {report:?}");
        if name == "channels" {
            assert_eq!((report.states, report.max_row_steps), (1, n));
        }
    }
}

/// The budgets bound the product that comes out, not a partial product on
/// the way: these four families compose to 2n / n / n / 1 states, and under
/// the default limits they connect — as rows on one engine or partitioned,
/// and in the existing approach as the product of every primitive — and
/// pass a value. (Folding
/// binary products in declaration order, each of them ran out of the same
/// budgets at these sizes on constituents only a later operand
/// synchronises.)
#[test]
fn eager_budgets_bound_the_product_not_a_partial_one() {
    use reo::automata::ProductOptions;
    use reo::connectors::{families, Role};
    use std::task::{Context, Waker};

    let cells = [
        ("ordered", 16, 32),
        ("sequencer", 64, 64),
        ("alternator", 64, 64),
        ("barrier", 64, 1),
    ];
    for (name, n, states) in cells {
        let family = families().into_iter().find(|f| f.name == name).unwrap();
        let (program, sizes) = (family.program(), (family.sizes)(n));

        for mode in [
            Mode::existing(),
            Mode::compiled(),
            Mode::compiled_partitioned(),
        ] {
            let connector = Connector::builder(&program, family.def)
                .mode(mode)
                .build()
                .unwrap();
            let report = connector.analyze(&sizes, &ProductOptions::default());
            assert_eq!(report.unwrap().states, states, "{name} n={n}, {mode:?}");
            let mut session = (connector.session().replicate_all(&sizes).connect())
                .unwrap_or_else(|e| panic!("{name} n={n}, {mode:?}: {e}"));
            if mode == Mode::existing() {
                // One composed product on one engine, every row filled.
                let resident = session.handle().cache_stats().unwrap().resident;
                assert_eq!(resident, states, "{name} n={n}, existing");
            }

            // Every task offers at once (the barrier needs them all); the
            // value is through when a receiver has it — a sender, where
            // the family has no receivers.
            let mut cx = Context::from_waker(Waker::noop());
            let (mut senders, mut receivers) = (Vec::new(), Vec::new());
            for (param, role) in family.drivers {
                match role {
                    Role::Send => senders.extend(session.outports(param).unwrap()),
                    Role::Recv => receivers.extend(session.inports(param).unwrap()),
                }
            }
            let mut offers: Vec<_> = senders.iter().map(|_| Some(7i64.into())).collect();
            let mut registered = vec![false; receivers.len()];
            let (mut sent, mut received) = (vec![false; senders.len()], false);
            for _ in 0..4 {
                for ((tx, offer), done) in senders.iter().zip(&mut offers).zip(&mut sent) {
                    *done = *done || tx.poll_send(&mut cx, offer).is_ready();
                }
                for (rx, reg) in receivers.iter().zip(&mut registered) {
                    received = received || rx.poll_recv(&mut cx, reg).is_ready();
                }
                if received || receivers.is_empty() {
                    break;
                }
            }
            let passed = received || (receivers.is_empty() && sent.contains(&true));
            assert!(passed, "{name} n={n}, {mode:?}: no value came through");
        }
    }
}
