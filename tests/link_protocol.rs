//! The link protocol, enumerated instead of sampled (`reo::runtime::partition`,
//! "The link protocol").
//!
//! Every step of the protocol is one critical section: a port call's
//! registration hold, or the service of one link event in a hold of the
//! other engine. So a handful of logical tasks, each a script of sends and
//! receives with its own event worklist, can be taken through **every**
//! interleaving at hold granularity on one thread: a schedule is replayed
//! from a fresh partition, the last choice with an untried alternative is
//! advanced, until none is left. At the end of each schedule nothing may be
//! stuck, every value arrived exactly once and in its sender's order, and
//! every link is served: no queue front off offer, no tail with credit
//! un-armed, no event outstanding.
//!
//! The file also holds the hold budget of a value as the facade sees it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};

use reo::automata::{primitives, Automaton, MemId, MemLayout, PortId, Value};
use reo::runtime::partition::{partition, LinkEvents, Partitioned};
use reo::runtime::{CachePolicy, Connector, Mode};

fn p(i: u32) -> PortId {
    PortId(i)
}

#[derive(Clone, Copy)]
enum Op {
    Send(PortId, i64),
    Recv(PortId),
}

/// Set when the engine wakes the task's parked operation.
#[derive(Default)]
struct Woken(AtomicBool);

impl Wake for Woken {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One logical task: a script, where it stands in it, and the events its
/// own holds raised and it has not served yet.
struct Task {
    script: Vec<Op>,
    pc: usize,
    /// The current operation is registered and was pending at its last poll.
    parked: bool,
    woken: Arc<Woken>,
    events: LinkEvents,
    got: Vec<i64>,
}

struct World {
    part: Partitioned,
    tasks: Vec<Task>,
}

impl World {
    fn new(autos: Vec<Automaton>, cells: usize, scripts: &[Vec<Op>]) -> World {
        let ports = autos
            .iter()
            .flat_map(|a| a.ports().iter().collect::<Vec<_>>());
        let port_count = ports.map(|p| p.index() + 1).max().unwrap_or(0);
        let layout = MemLayout::cells(cells);
        let part = partition(autos, port_count, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        part.pump(); // connect-time arming
        let task = |script: &Vec<Op>| Task {
            script: script.clone(),
            pc: 0,
            parked: false,
            woken: Arc::default(),
            events: LinkEvents::default(),
            got: Vec::new(),
        };
        World {
            part,
            tasks: scripts.iter().map(task).collect(),
        }
    }

    /// The tasks that have a hold to take: an event to serve first (a port
    /// call drains before it goes on), else a parked operation that was
    /// woken, else the next operation of the script.
    fn enabled(&self) -> Vec<usize> {
        let ready = |t: &Task| {
            !t.events.is_empty()
                || if t.parked {
                    t.woken.0.load(Ordering::SeqCst)
                } else {
                    t.pc < t.script.len()
                }
        };
        (0..self.tasks.len())
            .filter(|&i| ready(&self.tasks[i]))
            .collect()
    }

    /// One hold of task `i`.
    fn step(&mut self, i: usize) {
        let topo = self.part.topo();
        let t = &mut self.tasks[i];
        if self.part.serve_one(&topo, &mut t.events) {
            return;
        }
        t.woken.0.store(false, Ordering::SeqCst);
        let waker = Waker::from(Arc::clone(&t.woken));
        let done = match t.script[t.pc] {
            Op::Send(port, v) => {
                let mut value = (!t.parked).then_some(Value::Int(v));
                let engine = topo.engine_for(port);
                let r = engine.poll_send(port, &mut value, &waker, Some(&mut t.events));
                r.map(|r| r.expect("send failed"))
            }
            Op::Recv(port) => {
                let mut registered = t.parked;
                let engine = topo.engine_for(port);
                let r = engine.poll_recv(port, &mut registered, &waker, Some(&mut t.events));
                r.map(|r| t.got.push(r.expect("recv failed").as_int().unwrap()))
            }
        };
        t.parked = done.is_none();
        t.pc += usize::from(done.is_some());
    }
}

/// Run every schedule of `build()`'s tasks and `check` each at its end.
fn explore(name: &str, build: impl Fn() -> World, check: impl Fn(&World, &dyn Fn() -> String)) {
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0;
    loop {
        let mut world = build();
        // (choice taken, choices there were, task it named) per step.
        let mut trail: Vec<(usize, usize, usize)> = Vec::new();
        loop {
            let enabled = world.enabled();
            if enabled.is_empty() {
                break;
            }
            let choice = prefix.get(trail.len()).copied().unwrap_or(0);
            trail.push((choice, enabled.len(), enabled[choice]));
            world.step(enabled[choice]);
        }
        let schedule = || format!("{:?}", trail.iter().map(|t| t.2).collect::<Vec<_>>());
        for (i, t) in world.tasks.iter().enumerate() {
            assert!(
                t.pc == t.script.len() && !t.parked,
                "task {i} is stuck at op {} under schedule {}",
                t.pc,
                schedule()
            );
        }
        let unserved = world.part.unserved_links();
        assert!(unserved.is_empty(), "{unserved:?} after {}", schedule());
        check(&world, &schedule);
        schedules += 1;
        assert!(schedules <= 60_000, "the scripts outgrew the enumeration");
        // Advance the deepest choice that has an alternative left.
        while trail.last().is_some_and(|&(c, n, _)| c + 1 == n) {
            trail.pop();
        }
        let Some((c, ..)) = trail.pop() else {
            break;
        };
        prefix = trail.iter().map(|t| t.0).collect();
        prefix.push(c + 1);
    }
    println!("{name}: {schedules} schedules");
    assert!(schedules > 100, "{name}: nothing interleaved");
}

/// Values are `sender * 100 + seq`: each sender's must arrive in order,
/// `count` of them, none twice.
fn in_sender_order(got: &[i64], senders: &[(i64, i64)]) -> bool {
    senders.iter().all(|&(sender, count)| {
        let seqs = got.iter().filter(|v| **v / 100 == sender).map(|v| v % 100);
        seqs.eq(0..count)
    }) && got.len() as i64 == senders.iter().map(|s| s.1).sum::<i64>()
}

fn sends(port: PortId, sender: i64, count: i64) -> Vec<Op> {
    (0..count)
        .map(|seq| Op::Send(port, sender * 100 + seq))
        .collect()
}

fn recvs(port: PortId, count: usize) -> Vec<Op> {
    vec![Op::Recv(port); count]
}

#[test]
fn sync_fifo1_sync_every_schedule() {
    let build = || {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1(p(1), p(2), MemId(0)),
            primitives::sync(p(2), p(3)),
        ];
        World::new(autos, 1, &[sends(p(0), 1, 5), recvs(p(3), 5)])
    };
    explore("Sync-Fifo1-Sync", build, |w, schedule| {
        let got = &w.tasks[1].got;
        let ok = in_sender_order(got, &[(1, 5)]);
        assert!(ok, "{got:?} after {}", schedule());
    });
}

#[test]
fn two_link_fifo1_chain_every_schedule() {
    let build = || {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1(p(1), p(2), MemId(0)),
            primitives::sync(p(2), p(3)),
            primitives::fifo1(p(3), p(4), MemId(1)),
            primitives::sync(p(4), p(5)),
        ];
        World::new(autos, 2, &[sends(p(0), 1, 3), recvs(p(5), 3)])
    };
    explore("two-link chain", build, |w, schedule| {
        let got = &w.tasks[1].got;
        let ok = in_sender_order(got, &[(1, 3)]);
        assert!(ok, "{got:?} after {}", schedule());
    });
}

#[test]
fn two_producers_into_a_fifo2_link_every_schedule() {
    let build = || {
        let autos = vec![
            primitives::merger(&[p(0), p(1)], p(2)),
            primitives::fifo_n(p(2), p(3), MemId(0), 2),
            primitives::sync(p(3), p(4)),
        ];
        let scripts = [sends(p(0), 1, 2), sends(p(1), 2, 1), recvs(p(4), 3)];
        World::new(autos, 1, &scripts)
    };
    explore("two producers, FifoN<2>", build, |w, schedule| {
        let got = &w.tasks[2].got;
        let ok = in_sender_order(got, &[(1, 2), (2, 1)]);
        assert!(ok, "{got:?} after {}", schedule());
    });
}

/// The four-stage chains of the benchmark's `chain4` cell
/// (`benchmark/src/workloads.rs::CHAIN_SOURCE`).
const CHAIN_SOURCE: &str = "
ChainN(t[];hd) =
  prod (i:1..#t) Sync(t[i];a[i])
  mult prod (i:1..#t) Fifo1(a[i];b[i])
  mult prod (i:1..#t) Sync(b[i];c[i])
  mult prod (i:1..#t) Fifo1(c[i];d[i])
  mult prod (i:1..#t) Sync(d[i];e[i])
  mult prod (i:1..#t) Fifo1(e[i];f[i])
  mult prod (i:1..#t) Sync(f[i];g[i])
  mult prod (i:1..#t) Fifo1(g[i];h[i])
  mult Merger(h[1..#t];hd)
";

/// Generous: a value that is not stuck never sees it.
const DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// Engine-lock holds one value costs end to end through the facade, one
/// thread, steady state: counted, so exact.
#[test]
fn a_value_costs_a_fixed_number_of_holds() {
    // `ports` names the sending and the receiving parameter.
    let holds_per_value = |source: &str, mode: Mode, ports: [&str; 2], links: usize| {
        let program = reo::dsl::parse_program(source).unwrap();
        let connector = Connector::builder(&program, "P")
            .mode(mode)
            .build()
            .unwrap();
        let sizes = [(ports[0], 2), (ports[1], 2)];
        let mut session = connector.session().replicate_all(&sizes).connect().unwrap();
        let handle = session.handle();
        assert_eq!(handle.link_count(), links);
        let tx = &session.typed_outports::<i64>(ports[0]).unwrap()[0];
        let rx = &session.typed_inports::<i64>(ports[1]).unwrap()[0];
        let mut readings = Vec::new();
        for v in 0..4 {
            tx.send_timeout(v, DEADLINE).unwrap();
            assert_eq!(rx.recv_timeout(DEADLINE).unwrap(), v);
            readings.push(handle.stats().lock_acquisitions);
        }
        // Each reading locks every region once itself.
        let per_value = readings[3] - readings[2] - handle.region_count() as u64;
        assert_eq!(
            per_value,
            readings[2] - readings[1] - handle.region_count() as u64
        );
        per_value
    };
    let relay = "P(a[];b[]) = prod (i:1..#a) Sync(a[i];m[i]) \
        mult prod (i:1..#a) Fifo1(m[i];n[i]) mult prod (i:1..#a) Sync(n[i];b[i])";
    // register, Offer, wait; register, Rearm, wait (17 under the pump).
    assert_eq!(
        holds_per_value(relay, Mode::partitioned(), ["a", "b"], 2),
        6
    );
    // Two holds per link on the way (Offer ahead, Rearm behind) on top of
    // the four of the two port calls (50 under the pump; the budget is 16).
    let chain = CHAIN_SOURCE
        .replace("ChainN(t[];hd)", "P(t[];hd[])")
        .replace(";hd)", ";hd[1])");
    assert_eq!(
        holds_per_value(&chain, Mode::partitioned(), ["t", "hd"], 8),
        12
    );
    // No link, nothing added: register and wait, twice.
    assert_eq!(holds_per_value(relay, Mode::jit(), ["a", "b"], 0), 4);
    let buffers = "P(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])";
    assert_eq!(
        holds_per_value(buffers, Mode::partitioned(), ["a", "b"], 0),
        4
    );
}
