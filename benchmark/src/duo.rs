//! The two-thread closed loop behind `handoff` and `links`: one thread
//! owns every sending port, the other every receiving port, and each
//! visits its ports round-robin with blocking, deadline-bounded calls.
//! Two clients, so never more threads than this host has cores.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use reo::runtime::ConnectorHandle;
use reo::{Inport, Outport};

use crate::run::{CellRun, Config, Inject, Window, OP_DEADLINE, SALT_BITS, SALT_MASK};
use crate::session::{open, resident, ModeName, Spec};
use crate::sizing::Size;
use crate::trace::{Trace, PORT_SAMPLE};

/// How values may arrive, which fixes what the receiver checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Receiving port `i` sees exactly the values of sending port `i`,
    /// in order.
    Fifo,
    /// Any receiving port may see any sending port's values; each sending
    /// port's values still arrive in order, and none is lost or repeated.
    Merge,
    /// No receiving port (the sequencer): the two threads send on
    /// alternating ports and the connector makes them take turns.
    Tokens,
}

pub struct DuoCell {
    pub name: &'static str,
    pub spec: Spec,
    pub mode: ModeName,
    pub kind: Kind,
}

/// Send times are kept in a side array indexed by the value's sequence
/// number. A ring is enough: fewer values than this are ever inside a
/// connector at once (the deepest buffers 8 values plus one per port).
const RING: usize = 1024;

#[derive(Default)]
struct Stamp {
    sent_ns: AtomicU64,
    /// Id of the op's root span when the op is traced, else 0.
    root: AtomicU32,
}

/// One cell of one epoch: open a fresh session, warm it up with a fixed
/// number of ops, then measure a fixed number of ops.
pub fn run_cell(cell: &DuoCell, size: &Size, cfg: &Config, tr: &mut Trace) -> CellRun {
    let warm = cfg.warmup(size.warmup);
    let measured = cfg.measured(size.measured);
    let start = Instant::now();
    let setup = tr.begin("driver.setup", 0, 0);
    let opened = open(&cell.spec, cell.mode, tr, setup.id, 0);
    tr.end(setup);
    let mut session = match opened {
        Ok(s) => s,
        Err(e) => return CellRun::refused(cell.name, measured, start.elapsed().as_secs_f64(), e),
    };
    let handle = session.handle();
    let mut run = CellRun::connected(cell.name, measured, &handle);
    let ports = session
        .typed_outports::<i64>(&cell.spec.sends[0])
        .map_err(|e| e.to_string())
        .and_then(|txs| match cell.kind {
            Kind::Tokens => Ok((txs, Vec::new())),
            _ => session
                .typed_inports::<i64>(&cell.spec.recvs[0])
                .map(|rxs| (txs, rxs))
                .map_err(|e| e.to_string()),
        });
    let (txs, rxs) = match ports {
        Ok(p) => p,
        Err(e) => return CellRun::refused(cell.name, measured, start.elapsed().as_secs_f64(), e),
    };
    let drive = Drive {
        handle: &handle,
        cfg,
        warm,
        measured,
        start,
    };
    match cell.kind {
        Kind::Tokens => drive.tokens(txs, tr, &mut run),
        kind => drive.stream(txs, rxs, kind == Kind::Fifo, tr, &mut run),
    }
    run.gauges.resident = resident(&handle);
    run
}

struct Drive<'a> {
    handle: &'a ConnectorHandle,
    cfg: &'a Config,
    warm: u64,
    measured: u64,
    start: Instant,
}

impl Drive<'_> {
    /// Record the first failure and count `n` failed ops.
    fn fail(run: &mut CellRun, n: u64, why: impl FnOnce() -> String) {
        run.failed = (run.failed + n).min(run.ops);
        if run.error.is_none() {
            run.error = Some(why());
        }
    }

    /// Sender on a thread of its own, receiver here. An op is one value
    /// received; its time runs from the `send` call to the `recv` return.
    fn stream(
        &self,
        txs: Vec<Outport<i64>>,
        rxs: Vec<Inport<i64>>,
        fifo: bool,
        tr: &mut Trace,
        run: &mut CellRun,
    ) {
        let total = self.warm + self.measured;
        let cfg = self.cfg;
        let n_send = txs.len() as u64;
        let ring: Vec<Stamp> = (0..RING).map(|_| Stamp::default()).collect();
        let ring = &ring[..];
        let inject = self.cfg.inject;
        let (warm, measured) = (self.warm, self.measured);
        let mut sender_tr = tr.fork(1);

        std::thread::scope(|s| {
            let sender = s.spawn(move || {
                for seq in 0..total {
                    if inject == Some(Inject::DropPort) && seq == warm + measured / 2 {
                        break;
                    }
                    let mut payload = cfg.payload(seq);
                    if inject == Some(Inject::WrongValue) && seq == warm + measured / 2 {
                        payload ^= 1;
                    }
                    let tx = &txs[(seq % n_send) as usize];
                    let stamp = &ring[seq as usize % RING];
                    let sampled = sender_tr.on() && seq % PORT_SAMPLE == 0;
                    let root = if sampled { sender_tr.fresh_id() } else { 0 };
                    // Relaxed: the engine lock the value passes through
                    // orders these stores before the receiver's loads.
                    stamp.root.store(root, Ordering::Relaxed);
                    stamp.sent_ns.store(sender_tr.now_ns(), Ordering::Relaxed);
                    let sent = if sampled {
                        sender_tr.span("runtime.port.send", root, seq, || {
                            tx.send_timeout(payload, OP_DEADLINE)
                        })
                    } else {
                        tx.send_timeout(payload, OP_DEADLINE)
                    };
                    if let Err(e) = sent {
                        return (sender_tr, Some(format!("send #{seq}: {e}")));
                    }
                }
                // Dropping `txs` here hangs up the sending side.
                (sender_tr, None)
            });

            // Next sequence number expected from each sending port.
            let mut expected: Vec<u64> = (0..n_send).collect();
            let mut window: Option<Window> = None;
            for k in 0..total {
                if k == self.warm * 9 / 10 {
                    run.gauges.late_warmup_growth = resident(self.handle);
                }
                if k == self.warm {
                    run.gauges.late_warmup_growth =
                        resident(self.handle).saturating_sub(run.gauges.late_warmup_growth);
                    run.setup_s = self.start.elapsed().as_secs_f64();
                    window = Some(Window::open(self.handle, self.measured, 1));
                }
                let rx_index = (k % rxs.len() as u64) as usize;
                let recv_span =
                    (tr.on() && k % PORT_SAMPLE == 0).then(|| tr.begin("runtime.port.recv", 0, k));
                let got = rxs[rx_index].recv_timeout(OP_DEADLINE);
                let now_ns = tr.now_ns();
                let value = match got {
                    Ok(v) => v,
                    Err(e) => {
                        let left = total - k.max(self.warm);
                        Self::fail(run, left, || format!("recv #{k}: {e}"));
                        break;
                    }
                };
                let seq = (value >> SALT_BITS) as u64;
                let source = (seq % n_send) as usize;
                let stamp = &ring[seq as usize % RING];
                let sent_ns = stamp.sent_ns.load(Ordering::Relaxed);
                if let Some(mut recv_span) = recv_span {
                    // The op's root span began on the sender; it ends here.
                    let root = stamp.root.load(Ordering::Relaxed);
                    recv_span.parent = root;
                    recv_span.op = seq;
                    tr.end(recv_span);
                    if root != 0 {
                        tr.record("driver.op", root, seq, sent_ns, now_ns);
                    }
                }
                let in_order = expected[source] == seq
                    && value & SALT_MASK == cfg.salt()
                    && (!fifo || source == rx_index);
                if seq >= expected[source] {
                    expected[source] = seq + n_send;
                }
                if let Some(w) = &mut window {
                    w.op(in_order.then(|| now_ns.saturating_sub(sent_ns)));
                    if !in_order {
                        Self::fail(run, 1, || {
                            format!(
                                "recv #{k} on port {rx_index}: wrong or out-of-order value {value}"
                            )
                        });
                    }
                }
            }
            if let Some(w) = window {
                w.close(self.handle, run);
            }
            // Hang up the receiving side before joining, so a sender still
            // blocked in a send is released instead of running out its
            // deadline.
            drop(rxs);
            let (sender_tr, send_error) = sender.join().expect("sender thread panicked");
            tr.absorb(sender_tr);
            if let Some(e) = send_error {
                Self::fail(run, 1, || e);
            }
        });
    }

    /// The sequencer has only sending ports: the side thread takes the
    /// even ones, this thread the odd ones, and the connector makes the
    /// sends complete in port order, so the threads hand the turn back and
    /// forth. An op is one completed send; its time is the duration of the
    /// `send` call (which includes waiting for the turn).
    fn tokens(&self, ports: Vec<Outport<i64>>, tr: &mut Trace, run: &mut CellRun) {
        let (mut side, mut mine) = (Vec::new(), Vec::new());
        for (i, p) in ports.into_iter().enumerate() {
            if i % 2 == 0 { &mut side } else { &mut mine }.push(p);
        }
        // Each thread makes half the sends.
        let (warm, measured) = (self.warm / 2, self.measured / 2);
        let total = warm + measured;
        let cfg = self.cfg;
        let inject = cfg.inject;

        std::thread::scope(|s| {
            let partner = s.spawn(move || {
                for j in 0..total {
                    if inject == Some(Inject::DropPort) && j == warm + measured / 2 {
                        break;
                    }
                    let tx = &side[(j % side.len() as u64) as usize];
                    if let Err(e) = tx.send_timeout(cfg.payload(j), OP_DEADLINE) {
                        return Some(format!("partner send #{j}: {e}"));
                    }
                }
                None
            });

            let mut window: Option<Window> = None;
            for j in 0..total {
                if j == warm {
                    run.setup_s = self.start.elapsed().as_secs_f64();
                    // Each send here stands for two ops: the partner's
                    // send that handed over the turn, and this one.
                    window = Some(Window::open(self.handle, measured, 2));
                }
                let tx = &mine[(j % mine.len() as u64) as usize];
                let payload = cfg.payload(j);
                let before = Instant::now();
                let sent = if tr.on() && j % PORT_SAMPLE == 0 {
                    tr.span("runtime.port.send", 0, j, || {
                        tx.send_timeout(payload, OP_DEADLINE)
                    })
                } else {
                    tx.send_timeout(payload, OP_DEADLINE)
                };
                if let Err(e) = sent {
                    let left = 2 * (total - j.max(warm));
                    Self::fail(run, left, || format!("send #{j}: {e}"));
                    break;
                }
                if let Some(w) = &mut window {
                    w.op(Some(before.elapsed().as_nanos() as u64));
                }
            }
            if let Some(w) = window {
                w.close(self.handle, run);
            }
            drop(mine);
            if let Some(e) = partner.join().expect("partner thread panicked") {
                Self::fail(run, 1, || e);
            }
        });
    }
}
