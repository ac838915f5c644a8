//! The link protocol, enumerated instead of sampled (`reo::runtime::partition`,
//! "The link protocol").
//!
//! Every step of the protocol is one critical section: a port call's
//! poll, or the service of one link event in a hold of the other engine. So
//! `schedules::explore` takes a handful of logical tasks, each a script of
//! sends and receives with its own event worklist, through **every**
//! interleaving at hold granularity. At the end of each schedule nothing may
//! be stuck, every value arrived exactly once and in its sender's order, and
//! every link is served: no queue front off offer, no tail with credit
//! un-armed, no event outstanding.
//!
//! The file also holds the hold budget of a value as the facade sees it.

mod schedules;

use reo::automata::{primitives, MemId, PortId};
use reo::runtime::{Connector, Mode};
use schedules::{explore, p, Op, World};

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
    // The poll that completes the send and the Offer it raised; the poll
    // that completes the receive and the Rearm it raised (6 while a
    // blocking call was a register and a wait, 17 under the pump).
    assert_eq!(
        holds_per_value(relay, Mode::partitioned(), ["a", "b"], 2),
        4
    );
    // Two holds per link on the way (Offer ahead, Rearm behind) on top of
    // the two polls (50 under the pump).
    let chain = CHAIN_SOURCE
        .replace("ChainN(t[];hd)", "P(t[];hd[])")
        .replace(";hd)", ";hd[1])");
    assert_eq!(
        holds_per_value(&chain, Mode::partitioned(), ["t", "hd"], 8),
        10
    );
    // No link, nothing added: one poll each, and each completes in it.
    assert_eq!(holds_per_value(relay, Mode::jit(), ["a", "b"], 0), 2);
    let buffers = "P(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])";
    assert_eq!(
        holds_per_value(buffers, Mode::partitioned(), ["a", "b"], 0),
        2
    );
}
