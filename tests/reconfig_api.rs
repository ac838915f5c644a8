//! Dynamic reconfiguration end to end: replicated branches join and
//! leave a running session, across the full runtime-mode grid.
//!
//! The buffered merger used throughout — one `Fifo1` per producer branch
//! into a shared sink — lets a single thread drive every mode: a send
//! completes into the branch's buffer without a rendezvous partner, and
//! the sink drains at leisure. The properties checked are the tentpole's
//! contract: *exactly-once* delivery across churn (no value lost with a
//! leaving branch, none duplicated by a joining one), epoch advancement
//! per splice, typed refusals instead of panics, and trace equivalence
//! with a statically-sized reference connector between epochs.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use reo::automata::ProductOptions;
use reo::runtime::{Connector, Limits, Mode};
use reo::{RuntimeError, Value};

/// One `Fifo1` per producer branch feeding a variadic stateless
/// [`Merger`]: the fifo gives each branch unit capacity (a send completes
/// without a rendezvous partner), and the merger delivers buffered values
/// to `c` one at a time. Churn reshapes the merger itself — a
/// variable-shape *deferred* constituent — while the matched fifos carry
/// their buffered state across the splice. Every fifo's tail faces a task,
/// so no fifo is cut: the connector is one region without links in every
/// mode, and churn reshapes that region.
const MERGER: &str = "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) \
    mult Merger(m[1..#src];c)";

fn connect_merger(
    src: &str,
    mode: Mode,
    n: usize,
) -> (reo::Session, reo::runtime::ConnectorHandle) {
    let program = reo::dsl::parse_program(src).unwrap();
    let connector = Connector::builder(&program, "M")
        .mode(mode)
        .build()
        .unwrap();
    let session = connector
        .session()
        .replicate("src", n)
        .reconfigurable()
        .connect()
        .unwrap();
    let handle = session.handle();
    (session, handle)
}

/// Join then leave on the buffered merger, in every mode: values sent on
/// pre-existing, freshly attached, and surviving branches all arrive
/// exactly once, and the epoch counter ticks once per splice.
#[test]
fn attach_and_detach_round_trip_in_every_mode() {
    for &(_, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(MERGER, mode, 2);
        assert!(handle.is_reconfigurable());
        assert_eq!(handle.epoch(), 0);

        let txs = session.outports("src").unwrap();
        let rx = session.typed_inport::<i64>("c").unwrap();
        let mut got = Vec::new();

        txs[0].send(Value::Int(10)).unwrap();
        txs[1].send(Value::Int(11)).unwrap();
        got.push(rx.recv().unwrap());
        got.push(rx.recv().unwrap());

        // Join: a third producer appears mid-run.
        let mut branch = handle.attach("src").unwrap();
        assert_eq!(handle.epoch(), 1, "{mode:?}: attach advances the epoch");
        assert_eq!(branch.param(), "src");
        let tx2 = branch.outport().unwrap();
        tx2.send(Value::Int(12)).unwrap();
        got.push(rx.recv().unwrap());

        // The original branches keep working across the splice.
        txs[0].send(Value::Int(13)).unwrap();
        got.push(rx.recv().unwrap());

        // Leave: the attached branch departs (it is drained, so the
        // quiescence check passes immediately).
        drop(tx2);
        branch.detach().unwrap();
        assert_eq!(handle.epoch(), 2, "{mode:?}: detach advances the epoch");

        txs[1].send(Value::Int(14)).unwrap();
        got.push(rx.recv().unwrap());

        got.sort_unstable();
        assert_eq!(
            got,
            vec![10, 11, 12, 13, 14],
            "{mode:?}: exactly-once across churn"
        );
        handle.close();
    }
}

/// Same round trip on the linked merger: under the partitioned modes the
/// splice must add and remove a cut link (and its kick routing), and
/// in-flight values buffered in *unaffected* links must survive.
#[test]
fn attach_and_detach_round_trip_across_region_links() {
    for &(_, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(MERGER, mode, 2);
        let txs = session.outports("src").unwrap();
        let rx = session.typed_inport::<i64>("c").unwrap();

        // Park a value inside branch 0's fifo, then splice.
        txs[0].send(Value::Int(1)).unwrap();
        let mut branch = handle.attach("src").unwrap();
        let tx2 = branch.outport().unwrap();
        tx2.send(Value::Int(2)).unwrap();
        txs[1].send(Value::Int(3)).unwrap();

        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap(), rx.recv().unwrap()];

        drop(tx2);
        branch.detach().unwrap();
        assert_eq!(handle.epoch(), 2);

        txs[0].send(Value::Int(4)).unwrap();
        got.push(rx.recv().unwrap());

        got.sort_unstable();
        assert_eq!(
            got,
            vec![1, 2, 3, 4],
            "{mode:?}: linked churn keeps every value"
        );
        handle.close();
    }
}

/// Every branch reaches the merger through a *cut* link here (its `Sync`
/// is a region of its own), so the link protocol keeps a receive armed on
/// the branch's side of the fifo. That receive is the protocol's, not
/// traffic: a drained branch leaves at once — it used to be refused for the
/// whole detach budget — while values parked in the other links stay put.
const LINKED_MERGER: &str = "M(src[];c) = prod (i:1..#src) Sync(src[i];a[i]) \
    mult prod (i:1..#src) Fifo1(a[i];m[i]) mult Merger(m[1..#src];x) mult Sync(x;c)";

#[test]
fn a_branch_joined_by_a_cut_link_detaches_once_drained() {
    for (label, mode) in Mode::grid_subset(&["part", "comp-part"]) {
        let (mut session, handle) = connect_merger(LINKED_MERGER, mode, 2);
        assert_eq!(handle.link_count(), 2, "{label}: one cut link per branch");
        let txs = session.outports("src").unwrap();
        let rx = session.typed_inport::<i64>("c").unwrap();

        txs[0].send(Value::Int(1)).unwrap(); // parked in branch 0's link
        let mut branch = handle.attach("src").unwrap();
        assert_eq!(
            handle.link_count(),
            3,
            "{label}: the new branch brings its link"
        );
        let tx2 = branch.outport().unwrap();
        tx2.send(Value::Int(2)).unwrap();
        let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
        txs[1].send(Value::Int(3)).unwrap(); // parked while the branch leaves

        drop(tx2);
        let asked = Instant::now();
        branch.detach().unwrap();
        let took = asked.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{label}: detach took {took:?}"
        );
        assert_eq!((handle.epoch(), handle.link_count()), (2, 2), "{label}");

        got.push(rx.recv().unwrap());
        txs[0].send(Value::Int(4)).unwrap();
        got.push(rx.recv().unwrap());
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4], "{label}: every value, once");

        // A branch whose link still holds a value is traffic, and stays.
        let mut branch = handle.attach("src").unwrap();
        branch.outport().unwrap().send(Value::Int(5)).unwrap();
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            rx.recv().unwrap()
        });
        branch.detach().unwrap();
        assert_eq!(drainer.join().unwrap(), 5, "{label}");
        handle.close();
    }
}

/// The merger is the only member of its region here and borders a cut
/// link that survives the splice. Attaching re-shapes the merger, so no
/// constituent of the region is kept: the region is still the one at the
/// tail of that link, keeps its engine, and the receive the link protocol
/// has armed there moves with it (it used to read as traffic on a region
/// that leaves, and the attach was refused for ever).
const FUNNEL: &str = "M(src[];c) = Merger(src[1..#src];m[1]) \
    mult prod (i:1..1) Fifo1(m[i];n[i]) mult prod (i:1..1) Sync(n[i];c)";

#[test]
fn a_branch_joins_a_merger_that_feeds_a_cut_link() {
    for &(label, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(FUNNEL, mode, 2);
        let partitioned = handle.link_count() > 0;
        assert_eq!(partitioned, label.ends_with("part"), "{label}");
        let txs = session.typed_outports::<i64>("src").unwrap();
        let rx = session.typed_inport::<i64>("c").unwrap();
        txs[0].send(1).unwrap();
        assert_eq!(rx.recv().unwrap(), 1, "{label}");

        let mut branch = handle
            .attach("src")
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let tx2 = branch.outport().unwrap();
        tx2.send(Value::Int(2)).unwrap();
        assert_eq!(rx.recv().unwrap(), 2, "{label}: through the new branch");
        drop(tx2);
        branch.detach().unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(handle.epoch(), 2, "{label}");
        if partitioned {
            assert_eq!(handle.link_count(), 1, "{label}: the link survived both");
        }
        txs[1].send(3).unwrap();
        assert_eq!(
            rx.recv().unwrap(),
            3,
            "{label}: the old branches still work"
        );
        handle.close();
    }
}

/// Once every sender has left, the sink answers `Hangup` — across the cut
/// link too. A link port is hung up only because the far end of its link is
/// dead, so a splice that takes the cause away takes the hangup away: a
/// sender attached afterwards gets its value through in every mode (the
/// partitioned ones used to keep the link ports in their monotone hangup
/// sets and answer `Hangup` for ever).
#[test]
fn a_sender_attached_after_every_sender_left_revives_the_path() {
    const WAIT: Duration = Duration::from_secs(5);
    let source = "M(src[];c) = prod (i:1..#src) Sync(src[i];a[i]) \
        mult Merger(a[1..#src];m[1]) mult prod (i:1..1) Fifo1(m[i];n[i]) \
        mult prod (i:1..1) Sync(n[i];c)";
    for &(label, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(source, mode, 2);
        let txs = session.typed_outports::<i64>("src").unwrap();
        let rx = session.typed_inport::<i64>("c").unwrap();
        txs[0].send(1).unwrap();
        assert_eq!(rx.recv().unwrap(), 1, "{label}");
        drop(txs);
        let gone = rx.recv_timeout(WAIT);
        assert!(
            matches!(gone, Err(RuntimeError::Hangup(_))),
            "{label}: {gone:?}"
        );

        let mut branch = handle
            .attach("src")
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let tx = branch.outport().unwrap();
        let sent = tx.send_timeout(Value::Int(2), WAIT);
        assert!(sent.is_ok(), "{label}: send {sent:?}");
        let got = rx.recv_timeout(WAIT);
        assert!(matches!(got, Ok(2)), "{label}: recv {got:?}");
        handle.close();
    }
}

/// A branch that still buffers a value refuses to leave until the value
/// drains: detach blocks, a late consumer frees it, and nothing is lost.
#[test]
fn detach_waits_for_the_branch_to_drain() {
    for &(label, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(MERGER, mode, 1);
        let rx = session.typed_inport::<i64>("c").unwrap();

        let mut branch = handle.attach("src").unwrap();
        let tx = branch.outport().unwrap();
        tx.send(Value::Int(7)).unwrap(); // parked in the branch's fifo
        drop(tx);

        let drainer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            rx.recv().unwrap()
        });
        // Blocks until the drainer empties the fifo, then succeeds.
        branch.detach().unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(drainer.join().unwrap(), 7, "{label}");
        assert_eq!(handle.epoch(), 2, "{label}");
        handle.close();
    }
}

/// After a branch leaves, a surviving handle to its port reports
/// [`RuntimeError::Detached`] — a typed error, not a panic or a hang.
#[test]
fn detached_branch_port_reports_detached() {
    for &(_, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(MERGER, mode, 1);
        let rx = session.typed_inport::<i64>("c").unwrap();

        let mut branch = handle.attach("src").unwrap();
        let tx = branch.outport().unwrap();
        tx.send(Value::Int(1)).unwrap();
        assert_eq!(rx.recv().unwrap(), 1); // drained: the branch may leave
        branch.detach().unwrap();

        assert!(
            matches!(tx.try_send(Value::Int(2)), Err(RuntimeError::Detached(_))),
            "{mode:?}: stale port handle must fail Detached"
        );
        handle.close();
    }
}

/// A splice whose eager fill outgrows [`Limits::product`] steps its region
/// just in time for that epoch instead of failing. The buffered merger has
/// 2^n reachable tuples, so under a 64-tuple budget it fills at six
/// branches and not at seven: growing from two to eight branches and back
/// takes the fallback on every splice past six, yet each one succeeds and
/// every value arrives exactly once.
#[test]
fn a_splice_past_the_eager_budget_steps_just_in_time() {
    let product = ProductOptions {
        max_states: 64,
        ..ProductOptions::default()
    };
    let limits = Limits {
        product,
        ..Limits::default()
    };
    let program = reo::dsl::parse_program(MERGER).unwrap();
    for (label, mode) in Mode::grid_subset(&["comp", "comp-part"]) {
        let connector = (Connector::builder(&program, "M").mode(mode))
            .limits(limits)
            .build()
            .unwrap();
        let connect = |n| {
            (connector.session().replicate("src", n))
                .reconfigurable()
                .connect()
        };
        assert!(connect(6).is_ok(), "{label}: six branches fit");
        let seven = connect(7).err();
        assert!(matches!(seven, Some(RuntimeError::Explosion(_))), "{label}");

        let mut session = connect(2).unwrap();
        let handle = session.handle();
        let rx = session.typed_inport::<i64>("c").unwrap();
        let mut txs = session.outports("src").unwrap();
        let mut branches = Vec::new();
        let (mut sent, mut got) = (Vec::new(), Vec::new());
        let mut round = |txs: &[reo::Outport], tag: i64| {
            for (i, tx) in txs.iter().enumerate() {
                tx.send(Value::Int(tag * 100 + i as i64)).unwrap();
                sent.push(tag * 100 + i as i64);
            }
            for _ in txs {
                got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
            }
        };
        for epoch in 1..=6 {
            let mut branch = (handle.attach("src"))
                .unwrap_or_else(|e| panic!("{label}: attach to {} branches: {e}", epoch + 2));
            assert_eq!(handle.epoch(), epoch, "{label}");
            txs.push(branch.outport().unwrap());
            branches.push(branch);
            round(&txs, epoch as i64);
        }
        for epoch in 7..=12 {
            drop(txs.pop());
            let branch = branches.pop().unwrap();
            branch
                .detach()
                .unwrap_or_else(|e| panic!("{label}: detach: {e}"));
            assert_eq!(handle.epoch(), epoch, "{label}");
            round(&txs, epoch as i64);
        }
        sent.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, sent, "{label}: exactly once across every splice");
        handle.close();
    }
}

/// Churn needs the opt-in: a session connected without
/// [`reconfigurable`](reo::runtime::SessionSpec::reconfigurable) refuses
/// to attach, and so do scalar or unknown parameters.
#[test]
fn attach_refusals_are_typed() {
    let program = reo::dsl::parse_program(MERGER).unwrap();
    let connector = Connector::builder(&program, "M").build().unwrap();

    let static_session = connector.session().replicate("src", 2).connect().unwrap();
    assert!(!static_session.handle().is_reconfigurable());
    assert!(matches!(
        static_session.attach("src"),
        Err(RuntimeError::NotReconfigurable)
    ));

    let dynamic = connector
        .session()
        .replicate("src", 2)
        .reconfigurable()
        .connect()
        .unwrap();
    // `c` is scalar: not a replicated parameter.
    assert!(matches!(
        dynamic.attach("c"),
        Err(RuntimeError::NotReconfigurable)
    ));
    assert!(matches!(
        dynamic.attach("nope"),
        Err(RuntimeError::UnknownParam { name }) if name == "nope"
    ));
    dynamic.handle().close();
    static_session.handle().close();
}

/// Splices serialize: concurrent attaches either succeed or report
/// [`RuntimeError::ReconfigInFlight`], and the epoch counts exactly the
/// successes.
#[test]
fn concurrent_attaches_serialize_on_the_reconfig_lock() {
    let (_session, handle) = connect_merger(MERGER, Mode::jit(), 1);
    let mut threads = Vec::new();
    for _ in 0..4 {
        let h = handle.clone();
        threads.push(std::thread::spawn(move || {
            let mut won = 0u64;
            let mut branches = Vec::new();
            for _ in 0..8 {
                match h.attach("src") {
                    Ok(b) => {
                        won += 1;
                        branches.push(b); // keep alive: no detach races
                    }
                    Err(RuntimeError::ReconfigInFlight) => {}
                    Err(e) => panic!("unexpected attach error: {e}"),
                }
            }
            std::mem::forget(branches); // leave attached; drop would detach
            won
        }));
    }
    let wins: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(wins >= 1, "at least one attach must win");
    assert_eq!(handle.epoch(), wins, "epoch counts successful splices only");
    handle.close();
}

/// Churn under live traffic: two producers never stop offering values
/// while the main thread attaches a branch, pushes one value through it
/// and detaches it again. Every value a port accepted reaches the sink
/// exactly once, and the epoch counts every splice.
#[test]
fn churn_under_live_traffic_delivers_exactly_once() {
    const CYCLES: u64 = 8;
    for (label, mode) in Mode::grid_subset(&["jit", "part", "comp-part"]) {
        let (mut session, handle) = connect_merger(MERGER, mode, 2);
        let rx = session.typed_inport::<i64>("c").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicU64::new(0));
        let received = Arc::new(AtomicU64::new(0));

        // Non-blocking offers, counted on acceptance: a refused offer is
        // retracted, so `sent` is exactly what the connector owes the sink.
        let producers: Vec<_> = session
            .outports("src")
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(p, tx)| {
                let (stop, sent) = (Arc::clone(&stop), Arc::clone(&sent));
                std::thread::spawn(move || {
                    let mut k = 0i64;
                    while !stop.load(Ordering::SeqCst) {
                        if tx.try_send(Value::Int(p as i64 * 1_000_000 + k)).unwrap() {
                            k += 1;
                            sent.fetch_add(1, Ordering::SeqCst);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let received = Arc::clone(&received);
            std::thread::spawn(move || {
                let mut seen = HashSet::new();
                let mut duplicates = 0u64;
                while let Ok(v) = rx.recv() {
                    duplicates += u64::from(!seen.insert(v));
                    received.fetch_add(1, Ordering::SeqCst);
                }
                duplicates
            })
        };

        for j in 0..CYCLES {
            let mut branch = handle.attach("src").unwrap();
            let tx = branch.outport().unwrap();
            tx.send(Value::Int(900_000_000 + j as i64)).unwrap();
            let mark = sent.fetch_add(1, Ordering::SeqCst) + 1;
            // The static branches must move traffic while this one is
            // spliced in, or the test would not be churning under load.
            let deadline = Instant::now() + Duration::from_secs(10);
            while sent.load(Ordering::SeqCst) == mark {
                assert!(Instant::now() < deadline, "{label}: traffic stalled");
                std::thread::yield_now();
            }
            drop(tx);
            branch.detach().unwrap();
        }
        assert_eq!(handle.epoch(), 2 * CYCLES, "{label}: one epoch per splice");

        stop.store(true, Ordering::SeqCst);
        for p in producers {
            p.join().unwrap();
        }
        let sent = sent.load(Ordering::SeqCst);
        // A lost value never arrives: give up after a bound, don't hang.
        let deadline = Instant::now() + Duration::from_secs(10);
        while received.load(Ordering::SeqCst) < sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.close();
        assert_eq!(
            consumer.join().unwrap(),
            0,
            "{label}: a value arrived twice"
        );
        assert_eq!(
            received.load(Ordering::SeqCst),
            sent,
            "{label}: accepted values lost across churn"
        );
    }
}

/// One churn step of the random script below.
#[derive(Clone, Copy, Debug)]
enum Churn {
    Join,
    Leave(usize),
}

fn churn_strategy() -> impl Strategy<Value = Churn> {
    prop_oneof![Just(Churn::Join), (0usize..8).prop_map(Churn::Leave),]
}

/// Drive one round on an arbitrary set of live outports: send one
/// distinct value per branch, drain them all, return the sorted trace.
fn round(txs: &[&reo::Outport], rx: &reo::Inport<i64>, base: i64) -> Vec<i64> {
    for (i, tx) in txs.iter().enumerate() {
        tx.send(Value::Int(base + i as i64)).unwrap();
    }
    let mut got: Vec<i64> = (0..txs.len()).map(|_| rx.recv().unwrap()).collect();
    got.sort_unstable();
    got
}

/// Reference trace: a *statically sized* merger of width `k` driven with
/// the same values. Between epochs the reconfigured session must be
/// indistinguishable from this connector.
fn static_reference_round(mode: Mode, k: usize, base: i64) -> Vec<i64> {
    let program = reo::dsl::parse_program(MERGER).unwrap();
    let connector = Connector::builder(&program, "M")
        .mode(mode)
        .build()
        .unwrap();
    let mut session = connector.session().replicate("src", k).connect().unwrap();
    let txs = session.outports("src").unwrap();
    let rx = session.typed_inport::<i64>("c").unwrap();
    let refs: Vec<&reo::Outport> = txs.iter().collect();
    let trace = round(&refs, &rx, base);
    session.handle().close();
    trace
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Join/leave property across the full mode grid: after every churn
    /// step, a full send/drain round over the live branches produces
    /// exactly the trace of a statically sized reference connector of the
    /// same width — no loss, no duplication, per-epoch equivalence.
    #[test]
    fn churn_script_matches_static_reference(
        initial in 1usize..3,
        script in proptest::collection::vec(churn_strategy(), 1..5),
    ) {
        for &(_, mode) in Mode::grid() {
            let (mut session, handle) = connect_merger(MERGER, mode, initial);
            let initial_txs = session.outports("src").unwrap();
            let rx = session.typed_inport::<i64>("c").unwrap();
            let mut attached: Vec<(reo::runtime::Branch, reo::Outport)> = Vec::new();
            let mut expected_epoch = 0u64;
            let mut base = 0i64;
            let mut seen: HashSet<i64> = HashSet::new();

            for step in &script {
                match step {
                    Churn::Join => {
                        let mut b = handle.attach("src").unwrap();
                        let tx = b.outport().unwrap();
                        attached.push((b, tx));
                        expected_epoch += 1;
                    }
                    Churn::Leave(i) => {
                        if attached.is_empty() {
                            continue;
                        }
                        let (b, tx) = attached.remove(i % attached.len());
                        drop(tx);
                        b.detach().unwrap();
                        expected_epoch += 1;
                    }
                }
                prop_assert_eq!(handle.epoch(), expected_epoch);

                // Per-epoch round over every live branch.
                let live: Vec<&reo::Outport> = initial_txs
                    .iter()
                    .chain(attached.iter().map(|(_, tx)| tx))
                    .collect();
                let k = live.len();
                let trace = round(&live, &rx, base);
                let reference = static_reference_round(mode, k, base);
                prop_assert_eq!(&trace, &reference,
                    "{:?}: epoch {} trace diverges from static width-{} reference",
                    mode, expected_epoch, k);
                for v in &trace {
                    prop_assert!(seen.insert(*v), "{:?}: value {} delivered twice", mode, v);
                }
                base += k as i64;
            }

            // Attached branches detach on drop; do it explicitly so
            // errors surface as failures rather than silent leaks.
            for (b, tx) in attached {
                drop(tx);
                b.detach().unwrap();
            }
            handle.close();
        }
    }
}

/// A one-region splice continues that region's engine even when none of
/// its constituents survives unchanged: a receive parked on the bare
/// merger's output before a sender joins is served by the joiner.
#[test]
fn a_receive_parked_across_a_one_region_splice_is_served() {
    const BARE: &str = "M(src[];c) = Merger(src[1..#src];c)";
    for &(label, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(BARE, mode, 1);
        assert_eq!(handle.region_count(), 1, "{label}");
        let rx = session.typed_inport::<i64>("c").unwrap();
        let (mut cx, mut registered) = (Context::from_waker(Waker::noop()), false);
        assert!(
            rx.poll_recv(&mut cx, &mut registered).is_pending(),
            "{label}"
        );

        let mut branch = handle
            .attach("src")
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        branch.outport().unwrap().send(Value::Int(7)).unwrap();
        match rx.poll_recv(&mut cx, &mut registered) {
            Poll::Ready(Ok(7)) => {}
            other => panic!("{label}: {other:?}"),
        }
        handle.close();
    }
}

/// A splice carries each port's whole slot into the region's new table: a
/// delivery that a dropped receive future left parked on the merger's
/// consumer — an abandoned `DoneRecv` — crosses an `attach` that rebuilds
/// the region's core and port table, and the next receive absorbs it
/// exactly once.
#[test]
fn an_abandoned_delivery_crosses_a_splice_exactly_once() {
    for (label, mode) in Mode::grid_subset(&["jit", "part"]) {
        let (mut session, handle) = connect_merger(MERGER, mode, 1);
        let tx = session.outports("src").unwrap().remove(0);
        let rx = session.typed_inport::<i64>("c").unwrap();
        let mut fut = Box::pin(rx.recv_async());
        let mut cx = Context::from_waker(Waker::noop());
        let first = std::future::Future::poll(fut.as_mut(), &mut cx);
        assert!(first.is_pending(), "{label}");
        tx.send(Value::Int(7)).unwrap(); // its hold commits the delivery to `c`
        drop(fut); // abandoned: the delivery stays parked in `c`'s slot

        let mut branch = handle
            .attach("src")
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(rx.recv().unwrap(), 7, "{label}: the parked delivery");
        branch.outport().unwrap().send(Value::Int(8)).unwrap();
        assert_eq!(
            rx.recv().unwrap(),
            8,
            "{label}: the parked delivery came twice"
        );
        assert!(matches!(rx.try_recv(), Ok(None)), "{label}");
        handle.close();
    }
}

/// The merger is re-shaped by the attach and the `Sync` beside it is not:
/// the partitioned modes plan them as two regions, so no region has one
/// member before and after and no link borders the merger's. It is still
/// the region serving `c`, keeps its engine, and a receive parked on `c`
/// is served by the joiner (the partitioned modes refused the attach, the
/// parked receive reading as traffic on a region that leaves).
#[test]
fn a_reshaped_region_without_links_keeps_its_engine() {
    const LONE: &str = "M(src[],x;c,y) = Merger(src[1..#src];c) mult Sync(x;y)";
    for &(label, mode) in Mode::grid() {
        let (mut session, handle) = connect_merger(LONE, mode, 2);
        let rx = session.typed_inport::<i64>("c").unwrap();
        let (mut cx, mut registered) = (Context::from_waker(Waker::noop()), false);
        assert!(
            rx.poll_recv(&mut cx, &mut registered).is_pending(),
            "{label}"
        );

        let mut branch = handle
            .attach("src")
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        branch.outport().unwrap().send(Value::Int(7)).unwrap();
        match rx.poll_recv(&mut cx, &mut registered) {
            Poll::Ready(Ok(7)) => {}
            other => panic!("{label}: {other:?}"),
        }
        handle.close();
    }
}

/// One value from every sender at once, each on its own thread: the
/// values `rx` received, sorted, after every send returned `Ok`.
fn send_all_at_once(txs: &[&reo::Outport], rx: &reo::Inport<i64>, label: &str) -> Vec<i64> {
    const WAIT: Duration = Duration::from_secs(5);
    std::thread::scope(|s| {
        let sends: Vec<_> = (txs.iter().enumerate())
            .map(|(i, tx)| s.spawn(move || tx.send_timeout(Value::Int(i as i64), WAIT)))
            .collect();
        let mut got: Vec<i64> = (0..txs.len())
            .filter_map(|_| rx.recv_timeout(WAIT).ok())
            .collect();
        for (i, send) in sends.into_iter().enumerate() {
            let sent = send.join().unwrap();
            assert!(sent.is_ok(), "{label}: sender {i}: {sent:?}");
        }
        got.sort_unstable();
        got
    })
}

/// Fig. 12's `merger` and `alternator` chain binary mergers and end in
/// `Sync(m[#tl];hd)`, whose signature is the same at every width: a
/// grown chain must not rename two new ports onto the live `m[n]`. After
/// an attach, the n + 1 senders deliver as on a fresh connect; after the
/// detach, the n old ones still do.
#[test]
fn fig12_chains_attach_like_a_fresh_connect() {
    let families = reo::connectors::families();
    for name in ["merger", "alternator"] {
        let family = families.iter().find(|f| f.name == name).unwrap();
        let program = family.program();
        let (param, _) = (family.sizes)(1)[0];
        for n in 2..=4 {
            for &(mode_label, mode) in Mode::grid() {
                let label = format!("{name} n={n} {mode_label}");
                let connector = Connector::builder(&program, family.def)
                    .mode(mode)
                    .build()
                    .unwrap();
                let mut session = (connector.session().replicate(param, n))
                    .reconfigurable()
                    .connect()
                    .unwrap();
                let handle = session.handle();
                let txs = session.outports(param).unwrap();
                let rx = session.typed_inport::<i64>("hd").unwrap();

                let mut branch = handle
                    .attach(param)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let tx = branch.outport().unwrap();
                let all: Vec<&reo::Outport> = txs.iter().chain([&tx]).collect();
                let got = send_all_at_once(&all, &rx, &label);
                assert_eq!(got, (0..=n as i64).collect::<Vec<_>>(), "{label}");

                drop(tx);
                branch
                    .detach()
                    .unwrap_or_else(|e| panic!("{label}: detach: {e}"));
                let old: Vec<&reo::Outport> = txs.iter().collect();
                let got = send_all_at_once(&old, &rx, &label);
                assert_eq!(got, (0..n as i64).collect::<Vec<_>>(), "{label}");
                handle.close();
            }
        }
    }
}

/// Fig. 12's `sequencer` passes one token around a ring of `Fifo1`s that
/// a `Fifo1Full` closes; its `Repl2(y[i];u[i],z[i])` stages have only
/// local ports and one shape, so only their instantiation addresses tell
/// them apart. Attached with the token at home, the n + 1 senders take
/// their turns in order. Attached with the token away, the splice is
/// refused in every mode — the re-stamped `Fifo1Full` would put a second
/// token in the ring — and the old turn order still holds.
#[test]
fn a_sequencer_ring_grows_in_every_mode() {
    const WAIT: Duration = Duration::from_secs(5);
    let families = reo::connectors::families();
    let family = families.iter().find(|f| f.name == "sequencer").unwrap();
    let program = family.program();
    // One round: each sender in turn, and the next one is refused first.
    let round = |ring: &[&reo::Outport], label: &str| {
        for (i, t) in ring.iter().enumerate() {
            let next = ring[(i + 1) % ring.len()];
            let early = next.try_send(Value::Int(-1));
            assert!(matches!(early, Ok(false)), "{label}: t{} early", i + 2);
            let sent = t.send_timeout(Value::Int(i as i64), WAIT);
            assert!(sent.is_ok(), "{label}: t{}: {sent:?}", i + 1);
        }
    };
    for n in 2..=3 {
        for &(mode_label, mode) in Mode::grid() {
            let label = format!("sequencer n={n} {mode_label}");
            let connector = Connector::builder(&program, family.def)
                .mode(mode)
                .build()
                .unwrap();
            let mut session = (connector.session().replicate("t", n))
                .reconfigurable()
                .connect()
                .unwrap();
            let handle = session.handle();
            let ts = session.outports("t").unwrap();

            let mut branch = handle
                .attach("t")
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let tx = branch.outport().unwrap();
            let ring: Vec<&reo::Outport> = ts.iter().chain([&tx]).collect();
            round(&ring, &label);
            round(&ring, &label);

            // The token leaves home with t1's turn.
            ring[0].send_timeout(Value::Int(0), WAIT).unwrap();
            let away = handle.attach("t");
            assert!(
                matches!(away, Err(RuntimeError::Reconfig(_))),
                "{label}: token-away attach: {:?}",
                away.map(|b| b.port())
            );
            for (i, t) in ring.iter().enumerate().skip(1) {
                let sent = t.send_timeout(Value::Int(i as i64), WAIT);
                assert!(sent.is_ok(), "{label}: after refusal, t{}: {sent:?}", i + 1);
            }
            round(&ring, &label);
            handle.close();
        }
    }
}

/// A splice allocates only what it adds: on the buffered merger, an
/// attach takes the branch port and its `m[i]` vertex and a detach takes
/// none, so the branch port index grows by at most two per pair however
/// wide the merger is. The lazy modes only: at this width an eager
/// splice spends its whole product budget before it falls back.
#[test]
fn a_churning_session_keeps_its_id_space() {
    const N: usize = 16;
    for (label, mode) in Mode::grid_subset(&["jit", "part"]) {
        let (mut session, handle) = connect_merger(MERGER, mode, N);
        let rx = session.typed_inport::<i64>("c").unwrap();
        let mut first = None;
        for pair in 0..50 {
            let mut branch = handle
                .attach("src")
                .unwrap_or_else(|e| panic!("{label}: pair {pair}: {e}"));
            let port = branch.port().index();
            let first = *first.get_or_insert(port);
            assert!(
                port <= first + 2 * pair,
                "{label}: pair {pair}: branch port p{port}, first p{first}"
            );
            branch
                .outport()
                .unwrap()
                .send(Value::Int(pair as i64))
                .unwrap();
            assert_eq!(rx.recv().unwrap(), pair as i64, "{label}");
            branch
                .detach()
                .unwrap_or_else(|e| panic!("{label}: pair {pair}: detach: {e}"));
        }
        handle.close();
    }
}
