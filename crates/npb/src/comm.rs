//! The synchronization/communication layer of the NPB programs.
//!
//! Fig. 13 compares "hand-written code for a full program" against
//! "compiler-generated code using the new parametrized compilation
//! approach". Both variants run the *same* numerical tasks; they differ
//! only in this module: [`HandWritten`] wires the tasks up with crossbeam
//! channels (the "original programs" bars), [`ReoComm`] runs the protocol
//! as a Reo connector (the "Reo-based programs" bars).
//!
//! The protocol is the master–slaves pattern of the paper: broadcast from
//! master to all slaves, tagged gather from slaves to master, plus — for
//! LU — forward/backward pipelines between neighbouring slaves.

use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};
use reo_automata::Value;
use reo_core::ir::Program;
use reo_runtime::{Connector, ConnectorHandle, Inport, Mode, Outport, RuntimeError};

/// The stop sentinel the master broadcasts at shutdown.
pub fn stop_value() -> Value {
    Value::str("stop")
}

/// Is this the stop sentinel?
pub fn is_stop(v: &Value) -> bool {
    matches!(v, Value::Str(s) if &**s == "stop")
}

/// Master–slaves (+ pipeline) communication.
pub trait Comm: Send + Sync {
    fn slaves(&self) -> usize;

    // -- master side ------------------------------------------------------
    /// Deliver `v` to every slave.
    fn bcast(&self, v: Value);
    /// Collect one `(id, payload)`-tagged value per slave, sorted by id.
    fn gather(&self) -> Vec<Value>;

    // -- slave side -------------------------------------------------------
    /// Receive the next broadcast (returns the stop sentinel on shutdown).
    fn recv_bcast(&self, id: usize) -> Value;
    /// Send `Pair(id, payload)` to the master.
    fn send_master(&self, id: usize, payload: Value);

    // -- pipeline (LU) ----------------------------------------------------
    fn send_next(&self, id: usize, v: Value);
    /// Returns the stop sentinel on shutdown.
    fn recv_prev(&self, id: usize) -> Value;
    fn send_prev(&self, id: usize, v: Value);
    fn recv_next(&self, id: usize) -> Value;

    /// Tear down (unblocks everything).
    fn close(&self);
    /// Global connector steps (0 for the hand-written backend).
    fn steps(&self) -> u64;
    /// Why the backend stopped serving, if it did: the typed cause a
    /// harness reports when the run on top of it dies.
    fn failure(&self) -> Option<String> {
        None
    }
}

/// Tag a payload with its slave id.
pub fn tagged(id: usize, payload: Value) -> Value {
    Value::pair(Value::Int(id as i64), payload)
}

/// Sort gathered `Pair(id, payload)` values by id and strip the tags.
pub fn untag_sorted(mut values: Vec<Value>) -> Vec<Value> {
    values.sort_by_key(|v| {
        v.as_pair()
            .and_then(|(id, _)| id.as_int())
            .expect("gathered values are tagged")
    });
    values
        .into_iter()
        .map(|v| v.as_pair().expect("tagged").1.clone())
        .collect()
}

// ---------------------------------------------------------------------------
// Hand-written backend
// ---------------------------------------------------------------------------

/// Crossbeam-channel implementation — the "original program" wiring.
pub struct HandWritten {
    n: usize,
    to_slave: Vec<Sender<Value>>,
    slave_in: Vec<Receiver<Value>>,
    master_tx: Sender<Value>,
    master_rx: Receiver<Value>,
    fwd_tx: Vec<Sender<Value>>,
    fwd_rx: Vec<Receiver<Value>>,
    bwd_tx: Vec<Sender<Value>>,
    bwd_rx: Vec<Receiver<Value>>,
}

impl HandWritten {
    pub fn new(n: usize) -> Arc<Self> {
        let mut to_slave = Vec::new();
        let mut slave_in = Vec::new();
        for _ in 0..n {
            let (tx, rx) = unbounded();
            to_slave.push(tx);
            slave_in.push(rx);
        }
        let (master_tx, master_rx) = unbounded();
        // fwd[i]: slave i -> slave i+1 ; bwd[i]: slave i -> slave i-1.
        let mut fwd_tx = Vec::new();
        let mut fwd_rx = Vec::new();
        let mut bwd_tx = Vec::new();
        let mut bwd_rx = Vec::new();
        for _ in 0..n {
            let (tx, rx) = unbounded();
            fwd_tx.push(tx);
            fwd_rx.push(rx);
            let (tx, rx) = unbounded();
            bwd_tx.push(tx);
            bwd_rx.push(rx);
        }
        Arc::new(HandWritten {
            n,
            to_slave,
            slave_in,
            master_tx,
            master_rx,
            fwd_tx,
            fwd_rx,
            bwd_tx,
            bwd_rx,
        })
    }
}

impl Comm for HandWritten {
    fn slaves(&self) -> usize {
        self.n
    }

    fn bcast(&self, v: Value) {
        for tx in &self.to_slave {
            let _ = tx.send(v.clone());
        }
    }

    fn gather(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            out.push(self.master_rx.recv().expect("slaves alive during gather"));
        }
        out
    }

    fn recv_bcast(&self, id: usize) -> Value {
        self.slave_in[id].recv().unwrap_or_else(|_| stop_value())
    }

    fn send_master(&self, id: usize, payload: Value) {
        let _ = self.master_tx.send(tagged(id, payload));
    }

    fn send_next(&self, id: usize, v: Value) {
        let _ = self.fwd_tx[id].send(v);
    }

    fn recv_prev(&self, id: usize) -> Value {
        debug_assert!(id > 0);
        self.fwd_rx[id - 1].recv().unwrap_or_else(|_| stop_value())
    }

    fn send_prev(&self, id: usize, v: Value) {
        let _ = self.bwd_tx[id].send(v);
    }

    fn recv_next(&self, id: usize) -> Value {
        self.bwd_rx[id + 1].recv().unwrap_or_else(|_| stop_value())
    }

    fn close(&self) {
        // Dropping senders would unblock receivers, but we share Arcs;
        // broadcast the sentinel instead.
        self.bcast(stop_value());
    }

    fn steps(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Reo backend
// ---------------------------------------------------------------------------

/// The master–slaves (+ pipelines) protocol as one parametrized connector.
pub const NPB_COMM_SOURCE: &str = "
NpbComm(m,v[],fwd[],bwd[];w[],res,fin[],bin[]) =
  Replicator(m;c[1..#w])
  mult prod (i:1..#w) Fifo1(c[i];w[i])
  mult prod (i:1..#v) Fifo1(v[i];d[i])
  mult Merger(d[1..#v];res)
  mult prod (i:1..#fwd-1) Fifo(fwd[i];fin[i+1])
  mult prod (i:2..#bwd) Fifo(bwd[i];bin[i-1])
";

/// Connector-backed implementation — the "Reo-based program" wiring.
pub struct ReoComm {
    n: usize,
    handle: ConnectorHandle,
    m: Outport,
    res: Inport,
    w: Vec<Inport>,
    v: Vec<Outport>,
    fwd: Vec<Outport>,
    fin: Vec<Inport>,
    bwd: Vec<Outport>,
    bin: Vec<Inport>,
    /// The first port error a [`Comm`] call absorbed (the trait is
    /// infallible; later errors are its consequences).
    failed: OnceLock<String>,
}

impl ReoComm {
    /// Parse + compile + connect the protocol for `n` slaves.
    pub fn new(n: usize, mode: Mode) -> Result<Arc<Self>, RuntimeError> {
        let program: Program =
            reo_dsl::parse_program(NPB_COMM_SOURCE).expect("NPB comm source parses");
        let connector = Connector::builder(&program, "NpbComm").mode(mode).build()?;
        let mut session = connector
            .session()
            .replicate("v", n)
            .replicate("w", n)
            .replicate("fwd", n)
            .replicate("bwd", n)
            .replicate("fin", n)
            .replicate("bin", n)
            .connect()?;
        let handle = session.handle();
        Ok(Arc::new(ReoComm {
            n,
            handle,
            m: session.outport("m")?,
            res: session.inport("res")?,
            w: session.inports("w")?,
            v: session.outports("v")?,
            fwd: session.outports("fwd")?,
            fin: session.inports("fin")?,
            bwd: session.outports("bwd")?,
            bin: session.inports("bin")?,
            failed: OnceLock::new(),
        }))
    }

    fn noted<T>(&self, r: Result<T, RuntimeError>) -> Option<T> {
        if let Err(e) = &r {
            self.failed.get_or_init(|| e.to_string());
        }
        r.ok()
    }

    pub fn handle(&self) -> &ConnectorHandle {
        &self.handle
    }
}

impl Comm for ReoComm {
    fn slaves(&self) -> usize {
        self.n
    }

    fn bcast(&self, v: Value) {
        self.noted(self.m.send(v));
    }

    fn gather(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            match self.noted(self.res.recv()) {
                Some(v) => out.push(v),
                None => break,
            }
        }
        out
    }

    fn recv_bcast(&self, id: usize) -> Value {
        self.noted(self.w[id].recv()).unwrap_or_else(stop_value)
    }

    fn send_master(&self, id: usize, payload: Value) {
        self.noted(self.v[id].send(tagged(id, payload)));
    }

    fn send_next(&self, id: usize, v: Value) {
        self.noted(self.fwd[id].send(v));
    }

    fn recv_prev(&self, id: usize) -> Value {
        self.noted(self.fin[id].recv()).unwrap_or_else(stop_value)
    }

    fn send_prev(&self, id: usize, v: Value) {
        self.noted(self.bwd[id].send(v));
    }

    fn recv_next(&self, id: usize) -> Value {
        self.noted(self.bin[id].recv()).unwrap_or_else(stop_value)
    }

    fn close(&self) {
        self.handle.close();
    }

    fn steps(&self) -> u64 {
        self.handle.steps()
    }

    fn failure(&self) -> Option<String> {
        (self.failed.get().cloned()).or_else(|| self.handle.poison_message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(comm: Arc<dyn Comm>) {
        let n = comm.slaves();
        let mut slaves = Vec::new();
        for id in 0..n {
            let c = Arc::clone(&comm);
            slaves.push(std::thread::spawn(move || loop {
                let v = c.recv_bcast(id);
                if is_stop(&v) {
                    return;
                }
                let x = v.as_int().expect("int broadcast");
                c.send_master(id, Value::Int(x + id as i64));
            }));
        }
        for round in 0..3 {
            comm.bcast(Value::Int(round * 100));
            let got = untag_sorted(comm.gather());
            let ints: Vec<i64> = got.iter().map(|v| v.as_int().unwrap()).collect();
            let expect: Vec<i64> = (0..n as i64).map(|id| round * 100 + id).collect();
            assert_eq!(ints, expect);
        }
        comm.close();
        // Unblock any slave still waiting on a broadcast.
        for s in slaves {
            s.join().unwrap();
        }
    }

    #[test]
    fn handwritten_bcast_gather_round_trip() {
        exercise(HandWritten::new(3));
    }

    #[test]
    fn reo_bcast_gather_round_trip() {
        exercise(ReoComm::new(3, Mode::jit()).unwrap());
    }

    #[test]
    fn reo_partitioned_bcast_gather_round_trip() {
        exercise(ReoComm::new(3, Mode::partitioned()).unwrap());
    }

    #[test]
    fn reo_failure_names_the_typed_cause() {
        let comm = ReoComm::new(2, Mode::jit()).unwrap();
        assert_eq!(comm.failure(), None);
        comm.handle().poison("expansion overflow: 5000 transitions");
        comm.bcast(Value::Int(1));
        assert!(comm.gather().is_empty());
        let cause = comm.failure().expect("a poisoned connector reports why");
        assert!(cause.contains("expansion overflow"), "{cause}");
    }

    #[test]
    fn pipelines_carry_values_forward_and_backward() {
        for comm in [
            HandWritten::new(2) as Arc<dyn Comm>,
            ReoComm::new(2, Mode::jit()).unwrap() as Arc<dyn Comm>,
        ] {
            let c = Arc::clone(&comm);
            let t = std::thread::spawn(move || {
                // Slave 1: receive from prev, echo back along bwd.
                let v = c.recv_prev(1);
                c.send_prev(1, v);
            });
            comm.send_next(0, Value::Int(42));
            let echoed = comm.recv_next(0);
            assert_eq!(echoed.as_int(), Some(42));
            t.join().unwrap();
            comm.close();
        }
    }
}
