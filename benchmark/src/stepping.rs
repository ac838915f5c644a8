//! The single-thread poll-driven loop behind `stepping`: one thread
//! completes every rendezvous itself with `poll_send`/`poll_recv` under a
//! no-op waker, so nothing parks and nothing context-switches. What is
//! left is the port call, an uncontended engine lock and `try_step`.

use std::task::{Context, Poll, Waker};
use std::time::Instant;

use reo::{Inport, IntoValue, Outport};

use crate::run::{CellRun, Config, Inject, Window};
use crate::session::{open, resident, ModeName, Spec};
use crate::sizing::Size;
use crate::trace::{Trace, PORT_SAMPLE};

pub struct StepCell {
    pub name: &'static str,
    pub spec: Spec,
    pub mode: ModeName,
}

/// One full exchange: offer `payload` on `tx`; if the connector does not
/// accept it at once (a rendezvous), take it out at `rx` and collect the
/// send's completion. Three polls for a synchronous connector, one for a
/// connector that accepts by itself (the sequencer).
fn exchange(
    tx: &Outport<i64>,
    rx: Option<&Inport<i64>>,
    payload: i64,
    expect: i64,
    cx: &mut Context<'_>,
) -> Result<(), String> {
    let mut offered = Some(payload.into_value());
    match tx.poll_send(cx, &mut offered) {
        Poll::Ready(r) => return r.map_err(|e| format!("send: {e}")),
        Poll::Pending => {}
    }
    let rx = rx.ok_or("send stayed pending on a connector with nothing to receive from")?;
    let mut registered = false;
    match rx.poll_recv(cx, &mut registered) {
        Poll::Ready(Ok(v)) if v == expect => {}
        Poll::Ready(Ok(v)) => return Err(format!("received {v}, expected {expect}")),
        Poll::Ready(Err(e)) => return Err(format!("recv: {e}")),
        Poll::Pending => return Err("recv stayed pending: the rendezvous did not complete".into()),
    }
    match tx.poll_send(cx, &mut offered) {
        Poll::Ready(r) => r.map_err(|e| format!("send completion: {e}")),
        Poll::Pending => Err("send stayed pending after its value was received".into()),
    }
}

/// One cell of one epoch. An op is one exchange; sending and receiving
/// ports are visited round-robin.
pub fn run_cell(cell: &StepCell, size: &Size, cfg: &Config, tr: &mut Trace) -> CellRun {
    let warm = cfg.warmup(size.warmup);
    let measured = cfg.measured(size.measured);
    let start = Instant::now();
    let refused =
        |e: String| CellRun::refused(cell.name, measured, start.elapsed().as_secs_f64(), e);

    let setup = tr.begin("driver.setup", 0, 0);
    let opened = open(&cell.spec, cell.mode, tr, setup.id, 0);
    tr.end(setup);
    let mut session = match opened {
        Ok(s) => s,
        Err(e) => return refused(e),
    };
    let handle = session.handle();
    let txs = match session.typed_outports::<i64>(&cell.spec.sends[0]) {
        Ok(p) => p,
        Err(e) => return refused(e.to_string()),
    };
    let mut rxs = match cell.spec.recvs.first() {
        None => Vec::new(),
        Some(param) => match session.typed_inports::<i64>(param) {
            Ok(p) => p,
            Err(e) => return refused(e.to_string()),
        },
    };

    let mut run = CellRun::connected(cell.name, measured, &handle);
    let mut cx = Context::from_waker(Waker::noop());
    let mut window: Option<Window> = None;
    let mut last = start;
    for k in 0..warm + measured {
        if k == warm * 9 / 10 {
            run.gauges.late_warmup_growth = resident(&handle);
        }
        if k == warm {
            run.gauges.late_warmup_growth =
                resident(&handle).saturating_sub(run.gauges.late_warmup_growth);
            run.setup_s = start.elapsed().as_secs_f64();
            window = Some(Window::open(&handle, measured, 1));
            last = Instant::now();
        }
        let midway = k == warm + measured / 2;
        if midway && cfg.inject == Some(Inject::DropPort) {
            rxs.clear();
        }
        let payload = cfg.payload(k);
        let offered = if midway && cfg.inject == Some(Inject::WrongValue) {
            payload ^ 1
        } else {
            payload
        };
        let tx = &txs[k as usize % txs.len()];
        let rx = (!rxs.is_empty()).then(|| &rxs[k as usize % rxs.len()]);
        // One exchange in 64 of a traced epoch is written out as a span.
        let op_span = (tr.on() && k % PORT_SAMPLE == 0).then(|| tr.begin("driver.op", 0, k));
        let exchanged = exchange(tx, rx, offered, payload, &mut cx);
        if let Some(span) = op_span {
            tr.end(span);
        }
        match exchanged {
            Ok(()) => {
                if let Some(w) = &mut window {
                    // One clock read per op: an op runs from the end of
                    // the one before it.
                    let now = Instant::now();
                    w.op(Some((now - last).as_nanos() as u64));
                    last = now;
                }
            }
            Err(e) => {
                // The port is in an unknown state after a failed exchange:
                // give the rest of the cell up as failed.
                run.failed = warm + measured - k.max(warm);
                run.error = Some(format!("op #{k}: {e}"));
                break;
            }
        }
    }
    match window {
        Some(w) => w.close(&handle, &mut run),
        // Failed during the warm-up: never 0, so rates stay finite.
        None => run.measured_s = f64::MIN_POSITIVE,
    }
    run.gauges.resident = resident(&handle);
    run
}
