//! Property tests: the execution approaches (every runtime of
//! `Mode::grid()`) are observationally equivalent. The paper's
//! correctness claim for parametrized compilation is that it "strictly
//! generalizes the existing compilation approach"; here random connector
//! programs are generated and driven end to end, and every mode must
//! deliver the same data.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use proptest::prelude::*;

use reo::runtime::{Connector, Mode};
use reo::Value;

/// A do-nothing waker for polling port futures by hand (the poll-once
/// cancellation loops below never wait on a wake — they drop and retry).
fn noop_waker() -> Waker {
    struct Noop;
    impl std::task::Wake for Noop {
        fn wake(self: std::sync::Arc<Self>) {}
    }
    Waker::from(std::sync::Arc::new(Noop))
}

/// A random pipeline stage.
#[derive(Clone, Copy, Debug)]
enum Stage {
    Sync,
    Fifo1,
    Fifo2,
    Fifo3,
}

impl Stage {
    fn dsl(&self, a: &str, b: &str) -> String {
        match self {
            Stage::Sync => format!("Sync({a};{b})"),
            Stage::Fifo1 => format!("Fifo1({a};{b})"),
            Stage::Fifo2 => format!("FifoN<2>({a};{b})"),
            Stage::Fifo3 => format!("FifoN<3>({a};{b})"),
        }
    }
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::Sync),
        Just(Stage::Fifo1),
        Just(Stage::Fifo2),
        Just(Stage::Fifo3),
    ]
}

/// Build a linear pipeline definition `P(a;b)` from stages.
fn pipeline_program(stages: &[Stage]) -> String {
    let mut parts = Vec::new();
    for (k, s) in stages.iter().enumerate() {
        let a = if k == 0 {
            "a".to_string()
        } else {
            format!("v{k}")
        };
        let b = if k == stages.len() - 1 {
            "b".to_string()
        } else {
            format!("v{}", k + 1)
        };
        parts.push(s.dsl(&a, &b));
    }
    format!("P(a;b) = {}", parts.join(" mult "))
}

/// The parametrized runtimes: everything but the monolithic baseline
/// (which composes the whole-connector product and explodes on the wide
/// stress workloads below).
const PARAMETRIZED: &[&str] = &["jit", "part", "comp", "comp-part"];

/// Push `k` messages through a pipeline; they must come out in order, in
/// every mode. (At least one buffered stage is required: an all-sync
/// pipeline would deadlock a single driving thread, so the generator
/// guarantees a fifo.)
fn run_pipeline(src: &str, k: usize, mode: Mode) -> Vec<i64> {
    let program = reo::dsl::parse_program(src).unwrap();
    let connector = Connector::builder(&program, "P")
        .mode(mode)
        .build()
        .unwrap();
    let mut connected = connector.session().connect().unwrap();
    let tx = connected.outports("a").unwrap().pop().unwrap();
    let rx = connected.inports("b").unwrap().pop().unwrap();
    let producer = std::thread::spawn(move || {
        for i in 0..k {
            tx.send(Value::Int(i as i64)).unwrap();
        }
    });
    let mut got = Vec::with_capacity(k);
    for _ in 0..k {
        got.push(rx.recv().unwrap().as_int().unwrap());
    }
    producer.join().unwrap();
    got
}

/// Drive `channels` disjoint channels of connector source `src` (params
/// `a[]`/`b[]`) with one sender and one receiver thread each; return
/// every receiver's observed trace plus the engine contention counters
/// (snapshotted before `close()` adds its final wake-everyone burst).
fn traces_for(
    src: &str,
    mode: Mode,
    channels: usize,
    k: usize,
) -> (Vec<Vec<i64>>, reo::runtime::EngineStats) {
    let program = reo::dsl::parse_program(src).unwrap();
    let connector = Connector::builder(&program, "P")
        .mode(mode)
        .build()
        .unwrap();
    let mut session = connector
        .session()
        .replicate("a", channels)
        .replicate("b", channels)
        .connect()
        .unwrap();
    let txs = session.typed_outports::<i64>("a").unwrap();
    let rxs = session.typed_inports::<i64>("b").unwrap();
    let handle = session.handle();
    let senders: Vec<_> = txs
        .into_iter()
        .map(|tx| {
            std::thread::spawn(move || {
                for v in 0..k as i64 {
                    tx.send(v).unwrap();
                }
            })
        })
        .collect();
    let receivers: Vec<_> = rxs
        .into_iter()
        .map(|rx| {
            std::thread::spawn(move || (0..k).map(|_| rx.recv().unwrap()).collect::<Vec<i64>>())
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }
    let traces = receivers.into_iter().map(|r| r.join().unwrap()).collect();
    let stats = handle.stats();
    handle.close();
    (traces, stats)
}

/// [`traces_for`] on the plain disjoint-fifo workload.
fn channel_traces(
    mode: Mode,
    channels: usize,
    k: usize,
) -> (Vec<Vec<i64>>, reo::runtime::EngineStats) {
    traces_for(
        "P(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])",
        mode,
        channels,
        k,
    )
}

/// [`run_pipeline`], but driven by the async backend: producer and
/// consumer are futures on the hand-rolled executor, moving data with
/// `send_async`/`recv_async` instead of parking OS threads.
fn run_pipeline_async(src: &str, k: usize, mode: Mode) -> Vec<i64> {
    let program = reo::dsl::parse_program(src).unwrap();
    let connector = Connector::builder(&program, "P")
        .mode(mode)
        .build()
        .unwrap();
    let mut session = connector.session().connect().unwrap();
    let tx = session.typed_outport::<i64>("a").unwrap();
    let rx = session.typed_inport::<i64>("b").unwrap();
    let exec = reo::exec::Executor::new(2);
    let producer = exec.spawn(async move {
        for i in 0..k as i64 {
            tx.send_async(i).await.unwrap();
        }
    });
    let consumer = exec.spawn(async move {
        let mut got = Vec::with_capacity(k);
        for _ in 0..k {
            got.push(rx.recv_async().await.unwrap());
        }
        got
    });
    producer.join().unwrap();
    consumer.join().unwrap()
}

/// The async backend joins the grid: futures-driven traces must be
/// identical to what the synchronous drivers observe (the `0..k` FIFO
/// reference that `pipelines_agree_across_all_modes` pins for the same
/// sources) — on every one of the 10 runtimes.
#[test]
fn async_driving_matches_the_sync_reference_across_all_modes() {
    const K: usize = 200;
    let srcs = [
        "P(a;b) = Fifo1(a;b)",
        "P(a;b) = Sync(a;m) mult FifoN<2>(m;n) mult Sync(n;b)",
    ];
    let reference: Vec<i64> = (0..K as i64).collect();
    for src in srcs {
        for &(_, mode) in Mode::grid() {
            let got = run_pipeline_async(src, K, mode);
            assert_eq!(got, reference, "{mode:?} on {src}: async trace diverged");
        }
    }
}

/// PR 2's retraction stress, futures edition: every receive is a
/// `RecvFuture` polled once by hand and *dropped mid-flight* whenever it
/// is not immediately ready. A delivery racing such a drop stays parked
/// in the port's slot and must satisfy the next receive — so across
/// thousands of cancelled in-flight futures, the observed stream is
/// exactly `0..k` in every runtime: nothing lost, nothing duplicated.
#[test]
fn cancelled_recv_futures_lose_nothing_across_the_runtime_grid() {
    const K: i64 = 400;
    for &(_, mode) in Mode::grid() {
        let program = reo::dsl::parse_program("P(a;b) = Fifo1(a;b)").unwrap();
        let connector = Connector::builder(&program, "P")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        // Deterministic seed cancellation: register on the empty fifo,
        // then drop the in-flight future.
        let mut dropped = 0u64;
        {
            let mut fut = rx.recv_async();
            assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
            dropped += 1;
        }
        let producer = std::thread::spawn(move || {
            for v in 0..K {
                tx.send(v).unwrap();
            }
        });
        let mut got = Vec::with_capacity(K as usize);
        while got.len() < K as usize {
            let mut fut = rx.recv_async();
            match Pin::new(&mut fut).poll(&mut cx) {
                Poll::Ready(r) => got.push(r.unwrap()),
                Poll::Pending => {
                    dropped += 1; // drop(fut) retracts the registration
                    drop(fut);
                    std::thread::yield_now();
                }
            }
        }
        producer.join().unwrap();
        let reference: Vec<i64> = (0..K).collect();
        assert_eq!(
            got, reference,
            "{mode:?}: cancellation lost or duplicated values"
        );
        assert!(dropped > 0);
        eprintln!("{mode:?}: {dropped} in-flight receives dropped across {K} deliveries");
    }
}

/// The contended stress case: 16 tasks, > 10k port operations, on a
/// disjoint-port workload (8 independent fifo channels). All
/// parametrized runtimes must produce identical per-port observable
/// traces, and targeted wakeups must stay bounded — no thundering herd:
/// with per-port wait queues, wakeups stay within 2× completions, where
/// the old per-engine broadcast condvar would have woken every blocked
/// task on every step (≈ steps × 14 here).
#[test]
fn contended_disjoint_channels_agree_and_wakeups_stay_bounded() {
    const CHANNELS: usize = 8;
    const K: usize = 700; // 8×700 sends + 8×700 recvs = 11 200 ops
    let reference: Vec<Vec<i64>> = (0..CHANNELS).map(|_| (0..K as i64).collect()).collect();
    for (label, mode) in Mode::grid_subset(PARAMETRIZED) {
        let (traces, stats) = channel_traces(mode, CHANNELS, K);
        assert_eq!(traces, reference, "{label}: per-port traces diverged");
        let ops = (2 * CHANNELS * K) as u64;
        assert!(
            stats.completions >= ops,
            "{label}: only {} completions for {ops} operations",
            stats.completions
        );
        assert!(
            stats.wakeups <= 2 * stats.completions,
            "{label}: thundering herd — {} wakeups for {} completions ({stats:?})",
            stats.wakeups,
            stats.completions
        );
    }
}

/// Per channel `Sync – Fifo1 – Sync`: two synchronous regions joined by
/// one cut link, channels fully disjoint: the workload that proves
/// single-link chains never count a kick. (The fifo must sit in its own iteration section
/// to become a link; see `reo_runtime::partition`.)
const RELAY_SRC: &str = "P(a[];b[]) = prod (i:1..#a) Sync(a[i];m[i]) \
    mult prod (i:1..#a) Fifo1(m[i];n[i]) \
    mult prod (i:1..#a) Sync(n[i];b[i])";

/// Per channel `Sync – FifoN<4> – Sync`: the deep-burst variant of the
/// relay — a capacity-4 cut link lets each producer run ahead of its
/// consumer by four values, so the link ends face real backlog.
const DEEP_RELAY_SRC: &str = "P(a[];b[]) = prod (i:1..#a) Sync(a[i];m[i]) \
    mult prod (i:1..#a) FifoN<4>(m[i];n[i]) \
    mult prod (i:1..#a) Sync(n[i];b[i])";

/// Per channel `Repl2 – (FifoN<4> ∥ FifoN<4>) – Merg2`: every region
/// borders **two** capacity-4 links, so — unlike the relays above —
/// operations that leave link events to drain count as kicks. Every
/// sent value arrives at the consumer exactly twice, once through each
/// fifo, each copy stream in FIFO order.
const DUAL_RELAY_SRC: &str = "P(a[];b[]) = prod (i:1..#a) Repl2(a[i];m[i],u[i]) \
    mult prod (i:1..#a) FifoN<4>(m[i];n[i]) \
    mult prod (i:1..#a) FifoN<4>(u[i];v[i]) \
    mult prod (i:1..#a) Merg2(n[i],v[i];b[i])";

/// Is `trace` a merge of two in-order copies of `0..k`? Each value must
/// appear exactly twice, and both the first-occurrence and the
/// second-occurrence subsequences must be strictly increasing (each copy
/// stream is FIFO; the interleaving between them is free).
fn is_merge_of_two_ordered_copies(trace: &[i64], k: i64) -> bool {
    let mut seen = vec![0u8; k as usize];
    let (mut first, mut second) = (-1i64, -1i64);
    for &v in trace {
        if v < 0 || v >= k {
            return false;
        }
        let c = &mut seen[v as usize];
        *c += 1;
        match *c {
            1 if v > first => first = v,
            2 if v > second => second = v,
            _ => return false,
        }
    }
    trace.len() == 2 * k as usize
}

/// Skewed load over channels whose regions border two cross-region links
/// each (channel 0 carries 8× the traffic of the others), in both
/// partitioned runtimes: operations count kicks, their event drains
/// race other tasks' drains over the same links, and every
/// channel's trace must still be a merge of two FIFO copy streams —
/// concurrent drains never reorder or lose.
#[test]
fn dual_link_regions_kick_and_keep_both_copy_streams_fifo() {
    const CHANNELS: usize = 4;
    const K_HOT: usize = 1200; // channel 0
    const K_COLD: usize = 150; // channels 1..

    for (label, mode) in Mode::grid_subset(&["part", "comp-part"]) {
        let program = reo::dsl::parse_program(DUAL_RELAY_SRC).unwrap();
        let connector = Connector::builder(&program, "P")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector
            .session()
            .replicate("a", CHANNELS)
            .replicate("b", CHANNELS)
            .connect()
            .unwrap();
        let handle = session.handle();
        assert_eq!(handle.region_count(), 2 * CHANNELS);
        assert_eq!(handle.link_count(), 2 * CHANNELS);

        let txs = session.typed_outports::<i64>("a").unwrap();
        let rxs = session.typed_inports::<i64>("b").unwrap();
        let k_of = |ch: usize| if ch == 0 { K_HOT } else { K_COLD };
        let senders: Vec<_> = txs
            .into_iter()
            .enumerate()
            .map(|(ch, tx)| {
                std::thread::spawn(move || {
                    for v in 0..k_of(ch) as i64 {
                        tx.send(v).unwrap();
                    }
                })
            })
            .collect();
        let receivers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(ch, rx)| {
                std::thread::spawn(move || {
                    (0..2 * k_of(ch))
                        .map(|_| rx.recv().unwrap())
                        .collect::<Vec<i64>>()
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        for (ch, r) in receivers.into_iter().enumerate() {
            let trace = r.join().unwrap();
            assert!(
                is_merge_of_two_ordered_copies(&trace, k_of(ch) as i64),
                "{label}, channel {ch}: trace diverged: {trace:?}"
            );
        }
        let stats = handle.stats();
        assert!(stats.kicks > 0, "{label}: dual-link regions must kick");
        handle.close();
    }
}

/// The steady-state relay: per-port traces identical across the
/// parametrized runtimes, and the partitioned modes complete the whole
/// run without a single counted kick (the PR 4 scheduler counted one per
/// port operation here).
#[test]
fn relay_chains_run_kick_free_with_identical_traces() {
    const CHANNELS: usize = 4;
    const K: usize = 400;
    let reference: Vec<Vec<i64>> = (0..CHANNELS).map(|_| (0..K as i64).collect()).collect();
    for (label, mode) in Mode::grid_subset(PARAMETRIZED) {
        let (traces, stats) = traces_for(RELAY_SRC, mode, CHANNELS, K);
        assert_eq!(traces, reference, "{label}: per-port traces diverged");
        if label.contains("part") {
            assert_eq!(
                stats.kicks, 0,
                "{label}: relay chains must pump uncounted: {stats:?}"
            );
        }
    }
}

/// Deep producer bursts through capacity-4 links: per-port traces stay
/// identical (and strictly FIFO) across the runtimes even though
/// the link ends move multi-value backlogs, and the single-link
/// chains stay entirely kick-free in every partitioned mode.
#[test]
fn deep_bursts_through_capacity_links_agree_and_stay_fifo() {
    const CHANNELS: usize = 6;
    const K: usize = 700;
    // No monolithic `comp` here: like the baseline it composes the full
    // 18-automaton product, which explodes at this size.
    let reference: Vec<Vec<i64>> = (0..CHANNELS).map(|_| (0..K as i64).collect()).collect();
    for (label, mode) in Mode::grid_subset(&["jit", "part", "comp-part"]) {
        let (traces, stats) = traces_for(DEEP_RELAY_SRC, mode, CHANNELS, K);
        assert_eq!(traces, reference, "{label}: per-port traces diverged");
        if label.contains("part") {
            assert_eq!(
                stats.kicks, 0,
                "{label}: single-link chains must stay kick-free: {stats:?}"
            );
            assert!(
                stats.batch_moves > 0,
                "{label}: link traffic must flow through batched transfers: {stats:?}"
            );
            assert!(
                stats.batched_values >= 2 * (CHANNELS * K) as u64,
                "{label}: every value crosses its link once per side: {stats:?}"
            );
        }
    }
}

/// One session over a connector family at `n` tasks.
fn family_session(family: &reo::connectors::Family, n: usize, mode: Mode) -> reo::runtime::Session {
    let connector = Connector::builder(&family.program(), family.def)
        .mode(mode)
        .build()
        .unwrap();
    (connector.session())
        .replicate_all(&(family.sizes)(n))
        .connect()
        .unwrap()
}

/// The armed set has no width limit: 80 relays are 160 boundary ports (320
/// table slots) on one jit engine, and every row has 80 steps. Filling all
/// the buffers and then draining them walks states whose needs sit in
/// every word of the armed set.
#[test]
fn wide_relay_delivers_every_value_in_per_port_order_under_jit() {
    const N: usize = 80;
    const ROUNDS: i64 = 4;
    let mut session = family_session(&reo::connectors::relay_family(), N, Mode::jit());
    let txs = session.typed_outports::<i64>("t").unwrap();
    let rxs = session.typed_inports::<i64>("hd").unwrap();
    for round in 0..ROUNDS {
        for (i, tx) in txs.iter().enumerate() {
            tx.send(round * 1000 + i as i64).unwrap();
        }
        // Every buffer is full: a second value is refused everywhere.
        assert!(!txs[N - 1].try_send(-1).unwrap());
        for (i, rx) in rxs.iter().enumerate().rev() {
            assert_eq!(rx.recv().unwrap(), round * 1000 + i as i64, "port {i}");
        }
        assert_eq!(rxs[0].try_recv().unwrap(), None, "drained");
    }
}

/// One state, 130 steps, the longest a chain of 130 participants: every
/// sender's values reach the one receiver in that sender's order.
#[test]
fn wide_merger_delivers_every_value_in_per_port_order_under_jit() {
    const N: usize = 130;
    const K: i64 = 3;
    let family = &reo::connectors::families()[0];
    assert_eq!(family.name, "merger");
    let mut session = family_session(family, N, Mode::jit());
    let txs = session.typed_outports::<i64>("tl").unwrap();
    let rx = session.typed_inport::<i64>("hd").unwrap();
    let receiver = std::thread::spawn(move || {
        (0..N as i64 * K)
            .map(|_| rx.recv().unwrap())
            .collect::<Vec<_>>()
    });
    for k in 0..K {
        for (i, tx) in txs.iter().enumerate() {
            tx.send(i as i64 * 100 + k).unwrap();
        }
    }
    let got = receiver.join().unwrap();
    for i in 0..N as i64 {
        let from_i: Vec<i64> = got.iter().copied().filter(|v| v / 100 == i).collect();
        let sent: Vec<i64> = (0..K).map(|k| i * 100 + k).collect();
        assert_eq!(from_i, sent, "sender {i}");
    }
}

/// `analyze` reads the template a session instantiates: the primitives in
/// the existing approach, the medium automata in the new one. Both find
/// the same reachable states, deadlocks and dead ports on every Fig. 12
/// family and both link workloads at n = 1..4. (Not the steps per row: a
/// medium automaton's step may be a union of its section's steps.)
#[test]
fn analysis_agrees_on_primitives_and_medium_automata() {
    use reo::automata::ProductOptions;
    use reo::runtime::analyze::AnalysisReport;
    let mut families = reo::connectors::families();
    families.extend([
        reo::connectors::relay_family(),
        reo::connectors::burst_family(),
    ]);
    let seen = |r: AnalysisReport| (r.states, r.deadlocks, r.dead_ports);
    for family in &families {
        let program = family.program();
        for n in 1..=4 {
            let analyze = |mode: Mode| {
                let connector = Connector::builder(&program, family.def).mode(mode);
                let report = connector
                    .build()
                    .unwrap()
                    .analyze(&(family.sizes)(n), &ProductOptions::default());
                report.unwrap_or_else(|e| panic!("{} n={n}, {mode:?}: {e}", family.name))
            };
            let (existing, new) = (analyze(Mode::existing()), analyze(Mode::compiled()));
            assert_eq!(seen(existing), seen(new), "{} n={n}", family.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case spins up the whole grid x threads; keep it lean
        .. ProptestConfig::default()
    })]

    #[test]
    fn pipelines_agree_across_all_modes(
        stages in proptest::collection::vec(stage_strategy(), 1..5),
        k in 1usize..8,
    ) {
        // Ensure at least one buffered stage (see docs above).
        let mut stages = stages;
        if stages.iter().all(|s| matches!(s, Stage::Sync)) {
            stages.push(Stage::Fifo1);
        }
        let src = pipeline_program(&stages);
        let reference: Vec<i64> = (0..k as i64).collect();
        for &(_, mode) in Mode::grid() {
            let got = run_pipeline(&src, k, mode);
            prop_assert_eq!(&got, &reference, "mode {:?} on {}", mode, src);
        }
    }

    #[test]
    fn capacity_n_links_agree_across_the_runtime_grid(
        cap in 1usize..5,
        channels in 1usize..4,
        k in 1usize..10,
    ) {
        // Random-capacity cut links: producers run ahead by up to `cap`,
        // exercising batched drains at every depth; traces must stay
        // identical (strict per-channel FIFO) across the whole grid.
        let src = format!(
            "P(a[];b[]) = prod (i:1..#a) Sync(a[i];m[i]) \
             mult prod (i:1..#a) FifoN<{cap}>(m[i];n[i]) \
             mult prod (i:1..#a) Sync(n[i];b[i])"
        );
        let reference: Vec<Vec<i64>> =
            (0..channels).map(|_| (0..k as i64).collect()).collect();
        for (label, mode) in Mode::grid_subset(PARAMETRIZED) {
            let (traces, _) = traces_for(&src, mode, channels, k);
            prop_assert_eq!(
                &traces, &reference,
                "{} diverged at capacity {}", label, cap
            );
        }
    }

    #[test]
    fn fan_out_fan_in_delivers_every_message_once(
        n in 2usize..5,
        k in 1usize..6,
    ) {
        // replicator -> per-leg fifo -> merger: every broadcast message
        // arrives exactly n times at the sink, in every mode.
        let src = "
            F(a;b) =
              Replicator(a;c[1..#legs]) mult prod (i:1..#legs) Fifo1(c[i];d[i])
              mult Merger(d[1..#legs];b)
        ";
        // #legs is not a real parameter above; build the program textually.
        let src = src.replace("#legs", &n.to_string());
        for &(_, mode) in Mode::grid() {
            let program = reo::dsl::parse_program(&src).unwrap();
            let connector = Connector::builder(&program, "F").mode(mode).build().unwrap();
            let mut connected = connector.session().connect().unwrap();
            let tx = connected.outports("a").unwrap().pop().unwrap();
            let rx = connected.inports("b").unwrap().pop().unwrap();
            let kk = k;
            let producer = std::thread::spawn(move || {
                for i in 0..kk {
                    tx.send(Value::Int(i as i64)).unwrap();
                }
            });
            let mut counts = vec![0usize; k];
            for _ in 0..k * n {
                let v = rx.recv().unwrap().as_int().unwrap() as usize;
                counts[v] += 1;
            }
            producer.join().unwrap();
            prop_assert!(counts.iter().all(|&c| c == n),
                "mode {:?}: counts {:?}", mode, counts);
        }
    }
}
