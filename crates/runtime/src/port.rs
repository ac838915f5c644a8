//! The task-side API: outports and inports (Figs. 1/3 of the paper),
//! optionally typed.
//!
//! In the generalized Foster–Chandy model both operations block: a `send`
//! completes only when the connector accepts the message (a connector with
//! buffer space accepts immediately, making the send effectively
//! nonblocking — Footnote 1), and a `recv` completes only when the
//! connector delivers one.
//!
//! Every operation here runs the engine's one wait protocol
//! ([`crate::engine`], "One wait protocol") through the session's
//! [`Partitioned`]. What differs is who stands behind the [`Waker`]:
//!
//! * **blocking** [`Outport::send`]/[`Inport::recv`] run the protocol in
//!   place (`block_on`): the waker unparks the calling thread, which parks
//!   between polls. [`Outport::send_timeout`]/[`Inport::recv_timeout`]
//!   park up to a [`Duration`] and then retract; `for v in &inport { … }`
//!   receives until the connector closes.
//! * **non-blocking** [`Outport::try_send`]/[`Inport::try_recv`] poll once
//!   and retract at once if that is pending.
//! * **async** [`Outport::send_async`]/[`Inport::recv_async`] return
//!   hand-rolled [`SendFuture`]/[`RecvFuture`]s (no external runtime
//!   required; any executor works, e.g. `reo-exec`) that park the task's
//!   waker; dropping a pending future retracts it, so cancellation — e.g.
//!   losing a [`crate::select::select2`] race — is safe.
//!
//! Handles are **typed**: [`Outport<T>`]/[`Inport<T>`] over the
//! [`IntoValue`]/[`FromValue`] conversion traits, so tasks send `i64`s or
//! `(i64, f64)` tuples directly and `recv()` returns `T`, not a raw
//! [`Value`]. The default `T = Value` keeps the untyped surface intact.

use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use reo_automata::{FromValue, IntoValue, PortId, Value};

use crate::engine::{Engine, LinkEvents};
use crate::error::RuntimeError;
use crate::partition::Partitioned;

/// A thread as a [`Waker`]: waking it unparks the thread.
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

thread_local! {
    /// The calling thread's waker, made once per thread: a blocking call
    /// that has to park clones an `Arc`, not a thread handle.
    static THREAD_WAKER: Waker = Waker::from(Arc::new(Unpark(thread::current())));
}

/// A blocking port call: the polling protocol run in place on the calling
/// thread. `poll` once; while the operation is pending, park the thread —
/// `poll` left this thread's waker in the port's slot, and an unpark that
/// comes before the park makes it return at once, so no wake-up is lost —
/// and `poll` again; `retract` the operation that is still pending when
/// `deadline` has passed. A stale unpark (a wake that raced an expiry)
/// costs one extra poll.
pub(crate) fn block_on<T>(
    deadline: Option<Instant>,
    mut poll: impl FnMut(&Waker) -> Option<Result<T, RuntimeError>>,
    retract: impl FnOnce() -> Result<T, RuntimeError>,
) -> Result<T, RuntimeError> {
    THREAD_WAKER.with(|waker| {
        loop {
            if let Some(outcome) = poll(waker) {
                return outcome;
            }
            let Some(deadline) = deadline else {
                thread::park();
                continue;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            thread::park_timeout(left);
        }
        retract()
    })
}

/// The port calls, on the one backend every session has: a [`Partitioned`]
/// — on one engine, a partition with one region and no links.
impl Partitioned {
    /// Run `f` against the engine that serves `p` — every port operation
    /// is made of these. The call routes by one topology (`with_topo`), and
    /// once `f` is through drains the link events its holds raised
    /// against the same snapshot ([`Partitioned::drain`]): one hold of the
    /// other engine per event; regions that border no link raise none.
    /// With `sweep`, every link is served first: a one-shot probe gets no
    /// second chance, so it must see everything already in flight,
    /// including what another task's drain has not served yet.
    fn hold<R>(&self, p: PortId, sweep: bool, f: impl FnOnce(&Engine, &mut LinkEvents) -> R) -> R {
        self.with_topo(|topo| {
            if sweep {
                self.pump_on(topo);
            }
            self.drain(topo, |events| f(topo.engine_for(p), events))
        })
    }

    /// `send` is `send_async` run in place: polled with the thread's
    /// waker, parked between polls (the waker is in its slot *before* the
    /// drain, so a completion the drain's own holds bring about cannot be
    /// lost), and retracted when the deadline passes — which still
    /// succeeds if a step took the value first.
    fn send(&self, p: PortId, v: Value, deadline: Option<Instant>) -> Result<(), RuntimeError> {
        let mut value = Some(v);
        let poll =
            |e: &Engine, w: &Waker, ev: &mut LinkEvents| e.poll_send(p, &mut value, w, true, ev);
        self.block_on(p, deadline, poll, |e| e.retract_send(p))
    }

    fn recv(&self, p: PortId, deadline: Option<Instant>) -> Result<Value, RuntimeError> {
        let mut registered = false;
        let poll = |e: &Engine, w: &Waker, ev: &mut LinkEvents| {
            e.poll_recv(p, &mut registered, w, true, ev)
        };
        self.block_on(p, deadline, poll, |e| e.retract_recv(p))
    }

    /// [`block_on`] with every hold routed by [`Partitioned::hold`]. On a
    /// session with a watchdog, a timed operation observes it
    /// ([`crate::watchdog`]) once it is pending and again before it
    /// retracts, no engine lock held; a deadline that expires on a stalled
    /// session answers `Stalled`.
    fn block_on<T>(
        &self,
        p: PortId,
        deadline: Option<Instant>,
        mut poll: impl FnMut(&Engine, &Waker, &mut LinkEvents) -> Option<Result<T, RuntimeError>>,
        retract: impl FnOnce(&Engine) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let watched = deadline.is_some() && self.watchdog.is_some();
        let mut unobserved = watched;
        block_on(
            deadline,
            |waker| {
                let outcome = self.hold(p, false, |e, ev| poll(e, waker, ev));
                if outcome.is_none() && std::mem::take(&mut unobserved) {
                    self.observe();
                }
                outcome
            },
            || {
                let stall = watched.then(|| self.observe()).flatten();
                match (self.hold(p, false, |e, _| retract(e)), stall) {
                    (Err(RuntimeError::Timeout), Some(report)) => {
                        Err(RuntimeError::Stalled(Box::new(report)))
                    }
                    (outcome, _) => outcome,
                }
            },
        )
    }

    /// One poll, and a retraction if it is pending: nobody parks behind a
    /// probe, so the waker is a no-op.
    fn try_send(&self, p: PortId, v: Value) -> Result<bool, RuntimeError> {
        let sent = self.hold(p, true, |e, ev| {
            e.poll_send(p, &mut Some(v), Waker::noop(), false, ev)
                .unwrap_or_else(|| e.retract_send(p))
        });
        match sent {
            Err(RuntimeError::Timeout) => Ok(false),
            sent => sent.map(|()| true),
        }
    }

    fn try_recv(&self, p: PortId) -> Result<Option<Value>, RuntimeError> {
        let got = self.hold(p, true, |e, ev| {
            e.poll_recv(p, &mut false, Waker::noop(), false, ev)
                .unwrap_or_else(|| e.retract_recv(p))
        });
        match got {
            Err(RuntimeError::Timeout) => Ok(None),
            got => got.map(Some),
        }
    }

    /// One poll of an async send (see `Engine::poll_send`).
    fn poll_send(
        &self,
        p: PortId,
        value: &mut Option<Value>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<(), RuntimeError>> {
        self.hold(p, false, |e, ev| {
            e.poll_send(p, value, cx.waker(), false, ev)
        })
        .map_or(Poll::Pending, Poll::Ready)
    }

    /// One poll of an async recv; as [`Partitioned::poll_send`].
    fn poll_recv(
        &self,
        p: PortId,
        registered: &mut bool,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Value, RuntimeError>> {
        self.hold(p, false, |e, ev| {
            e.poll_recv(p, registered, cx.waker(), false, ev)
        })
        .map_or(Poll::Pending, Poll::Ready)
    }

    /// The hangup a dropped handle owes (see `Registration`): one hold, and
    /// the drain of what it raised — deadness crosses links like a value.
    fn hangup(&self, p: PortId) {
        self.hold(p, false, |e, ev| e.hangup(p, ev))
    }
}

fn deadline_in(timeout: Duration) -> Option<Instant> {
    Some(Instant::now() + timeout)
}

/// Where a task sends messages into the connector (`void send(Object o)`).
///
/// `T` is the payload type; the default `Value` is the untyped handle with
/// the paper's original semantics. Obtain typed handles from
/// [`crate::Session::typed_outports`] or via [`Outport::typed`].
pub struct Outport<T = Value> {
    reg: Registration,
    _payload: PhantomData<fn(T) -> T>,
}

impl<T: IntoValue> Outport<T> {
    pub(crate) fn new(parts: Arc<Partitioned>, port: PortId) -> Self {
        Outport {
            reg: Registration { parts, port },
            _payload: PhantomData,
        }
    }

    /// Blocking send: returns once the connector has accepted the message.
    pub fn send(&self, v: impl Into<T>) -> Result<(), RuntimeError> {
        self.reg
            .parts
            .send(self.reg.port, v.into().into_value(), None)
    }

    /// Non-blocking send: `Ok(true)` if the connector accepted the message
    /// in one engine step, `Ok(false)` if it would have blocked (the
    /// registration is retracted; nothing entered the connector, so
    /// sending the message again cannot duplicate it). The payload itself
    /// is consumed either way — retry with a clone or a fresh value
    /// ([`Value`] clones are cheap, bulk data is `Arc`-shared).
    pub fn try_send(&self, v: impl Into<T>) -> Result<bool, RuntimeError> {
        self.reg
            .parts
            .try_send(self.reg.port, v.into().into_value())
    }

    /// Deadline-bounded send: blocks up to `timeout`, then retracts and
    /// returns [`RuntimeError::Timeout`]. A retracted send was never
    /// accepted, so retrying cannot duplicate a message; as with
    /// [`Outport::try_send`], retry with a clone or a fresh value.
    pub fn send_timeout(&self, v: impl Into<T>, timeout: Duration) -> Result<(), RuntimeError> {
        self.reg
            .parts
            .send(self.reg.port, v.into().into_value(), deadline_in(timeout))
    }

    /// Async send: resolves once the connector has accepted the message.
    ///
    /// The returned [`SendFuture`] registers the operation on its first
    /// poll (the uncontended case completes right there, without parking
    /// anything) and otherwise parks the task's waker in the engine's
    /// per-port slot — it is woken exactly when this port completes, not
    /// on unrelated traffic. Dropping the future before completion
    /// retracts the registration atomically; a send whose value was
    /// already taken by a transition counts as delivered (exactly once).
    pub fn send_async(&self, v: impl Into<T>) -> SendFuture<'_> {
        SendFuture {
            parts: &self.reg.parts,
            port: self.reg.port,
            value: Some(v.into().into_value()),
            done: false,
        }
    }

    /// Low-level poll of an async send, for hand-written futures.
    ///
    /// `value` is the operation's state: `Some(v)` registers the send on
    /// this poll (taking the value); `None` re-polls an already
    /// registered one. On [`Poll::Pending`] the waker of `cx` is parked
    /// in the port's waker slot. A caller that abandons a registered,
    /// still-pending operation without polling it to completion must not
    /// reuse the port until the connector closes — prefer
    /// [`Outport::send_async`], whose future retracts on drop.
    pub fn poll_send(
        &self,
        cx: &mut Context<'_>,
        value: &mut Option<Value>,
    ) -> Poll<Result<(), RuntimeError>> {
        self.reg.parts.poll_send(self.reg.port, value, cx)
    }

    /// Re-type the handle; the connector itself is data-agnostic, so this
    /// only changes what the `send` signature accepts.
    pub fn typed<U: IntoValue>(self) -> Outport<U> {
        // Re-typing is not a departure: the registration (and with it the
        // one partition reference) moves into the new handle, so nothing is
        // dropped and no hangup fires.
        Outport {
            reg: self.reg,
            _payload: PhantomData,
        }
    }

    /// Back to the untyped handle.
    pub fn untyped(self) -> Outport<Value> {
        self.typed()
    }

    /// The underlying vertex (diagnostics).
    pub fn id(&self) -> PortId {
        self.reg.port
    }
}

/// Where a task receives messages from the connector (`Object recv()`).
///
/// `T` is the payload type; the default `Value` is the untyped handle.
/// Typed receives unwrap the delivered [`Value`] via [`FromValue`] and
/// report a [`RuntimeError::TypeMismatch`] (carrying the value) on the
/// wrong shape.
pub struct Inport<T = Value> {
    reg: Registration,
    _payload: PhantomData<fn(T) -> T>,
}

fn convert<T: FromValue>(v: Value) -> Result<T, RuntimeError> {
    T::from_value(v).map_err(|found| RuntimeError::TypeMismatch {
        expected: T::expected(),
        found,
    })
}

impl<T: FromValue> Inport<T> {
    pub(crate) fn new(parts: Arc<Partitioned>, port: PortId) -> Self {
        Inport {
            reg: Registration { parts, port },
            _payload: PhantomData,
        }
    }

    /// Blocking receive: returns the delivered message.
    pub fn recv(&self) -> Result<T, RuntimeError> {
        convert(self.reg.parts.recv(self.reg.port, None)?)
    }

    /// Non-blocking receive: `Ok(Some(v))` if a delivery was ready within
    /// one engine step, `Ok(None)` if the operation would have blocked
    /// (it is retracted; the port is immediately reusable).
    pub fn try_recv(&self) -> Result<Option<T>, RuntimeError> {
        self.reg
            .parts
            .try_recv(self.reg.port)?
            .map(convert)
            .transpose()
    }

    /// Deadline-bounded receive: blocks up to `timeout`, then retracts and
    /// returns [`RuntimeError::Timeout`]. A delivery that races the
    /// deadline is still handed out — never dropped.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RuntimeError> {
        convert(self.reg.parts.recv(self.reg.port, deadline_in(timeout))?)
    }

    /// Iterate over deliveries until the connector closes (or a typed
    /// conversion fails). Equivalent to looping on [`Inport::recv`]; a
    /// non-`Closed` terminating error — with the consumed value, for a
    /// [`RuntimeError::TypeMismatch`] — stays recoverable via
    /// [`Messages::take_error`].
    pub fn iter(&self) -> Messages<'_, T> {
        Messages {
            port: self,
            terminal: None,
        }
    }

    /// Async receive: resolves to the delivered message.
    ///
    /// The returned [`RecvFuture`] registers the receive on its first
    /// poll and parks the task's waker while the operation is pending
    /// (see [`Outport::send_async`] for the wakeup discipline). Dropping
    /// the future before completion retracts the registration; a
    /// delivery that raced the drop is *not* lost — it stays parked in
    /// the port's slot and satisfies the next receive on this port.
    pub fn recv_async(&self) -> RecvFuture<'_, T> {
        RecvFuture {
            parts: &self.reg.parts,
            port: self.reg.port,
            registered: false,
            done: false,
            _payload: PhantomData,
        }
    }

    /// Low-level poll of an async receive, for hand-written futures.
    ///
    /// `registered` is the operation's state (start with `false`; set by
    /// this call once the receive is registered). On [`Poll::Pending`]
    /// the waker of `cx` is parked in the port's waker slot. Prefer
    /// [`Inport::recv_async`], whose future retracts on drop.
    pub fn poll_recv(
        &self,
        cx: &mut Context<'_>,
        registered: &mut bool,
    ) -> Poll<Result<T, RuntimeError>> {
        match self.reg.parts.poll_recv(self.reg.port, registered, cx) {
            Poll::Ready(r) => Poll::Ready(r.and_then(convert)),
            Poll::Pending => Poll::Pending,
        }
    }

    /// Re-type the handle: subsequent receives unwrap into `U`.
    pub fn typed<U: FromValue>(self) -> Inport<U> {
        // Not a departure — see `Outport::typed`.
        Inport {
            reg: self.reg,
            _payload: PhantomData,
        }
    }

    /// Back to the untyped handle.
    pub fn untyped(self) -> Inport<Value> {
        self.typed()
    }

    pub fn id(&self) -> PortId {
        self.reg.port
    }
}

impl Inport<Value> {
    /// One-shot typed receive on an untyped handle: unwrap the next
    /// delivery into `U` without re-typing the port. Handy where handles
    /// arrive untyped (e.g. [`crate::TaskCtx`]) but payloads are known.
    pub fn recv_as<U: FromValue>(&self) -> Result<U, RuntimeError> {
        convert(self.reg.parts.recv(self.reg.port, None)?)
    }
}

/// Iterator over an inport's deliveries. Ends cleanly on `Closed`; any
/// other receive error also ends iteration but is retained — so a
/// [`RuntimeError::TypeMismatch`]'s value is not lost — and can be taken
/// with [`Messages::take_error`].
pub struct Messages<'a, T> {
    port: &'a Inport<T>,
    terminal: Option<RuntimeError>,
}

impl<T> Messages<'_, T> {
    /// The non-`Closed` error that ended iteration, if any. A
    /// `TypeMismatch` here still carries the delivered value.
    pub fn take_error(&mut self) -> Option<RuntimeError> {
        self.terminal.take()
    }
}

impl<T: FromValue> Iterator for Messages<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.terminal.is_some() {
            return None;
        }
        match self.port.recv() {
            Ok(v) => Some(v),
            Err(RuntimeError::Closed) => None,
            Err(e) => {
                self.terminal = Some(e);
                None
            }
        }
    }
}

/// The `for v in &inport { … }` sugar. The temporary iterator is
/// inaccessible after the loop, so a terminating [`RuntimeError`] (and a
/// `TypeMismatch`'s value) cannot be inspected — use this form only when
/// the stream is homogeneous in `T`; otherwise bind `let mut it =
/// inport.iter()` and check [`Messages::take_error`] after the loop.
impl<'a, T: FromValue> IntoIterator for &'a Inport<T> {
    type Item = T;
    type IntoIter = Messages<'a, T>;

    fn into_iter(self) -> Messages<'a, T> {
        self.iter()
    }
}

/// The future of [`Outport::send_async`]: resolves once the connector
/// accepts the message.
///
/// State machine: `value: Some` = not yet registered (the first poll
/// registers and may complete immediately); `value: None, done: false` =
/// registered and pending (waker parked); `done: true` = resolved.
/// Dropping the future in the registered-pending state retracts the
/// operation atomically under the engine lock — the cancelled send was
/// never accepted, so re-sending the value cannot duplicate it. If a
/// transition took the value before the drop, it was delivered exactly
/// once and the drop merely acknowledges.
#[must_use = "futures do nothing unless polled"]
pub struct SendFuture<'a> {
    parts: &'a Partitioned,
    port: PortId,
    /// `Some` until the first poll registers the operation.
    value: Option<Value>,
    /// Resolved: drop must no longer retract.
    done: bool,
}

impl Future for SendFuture<'_> {
    type Output = Result<(), RuntimeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.done, "SendFuture polled after completion");
        match this.parts.poll_send(this.port, &mut this.value, cx) {
            Poll::Ready(r) => {
                this.done = true;
                Poll::Ready(r)
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

impl Drop for SendFuture<'_> {
    fn drop(&mut self) {
        // Registered (value taken by the first poll) but never resolved:
        // retract — withdrawn, or a step took the value first and it is
        // delivered exactly once; either way there is nobody to tell. An
        // unpolled future (value still Some) armed nothing.
        if !self.done && self.value.is_none() {
            let p = self.port;
            let _ = self.parts.hold(p, false, |e, _| e.retract_send(p));
        }
    }
}

impl std::fmt::Debug for SendFuture<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SendFuture({})", self.port)
    }
}

/// The future of [`Inport::recv_async`]: resolves to the delivered
/// message (converted to `T`).
///
/// Dropping the future while its receive is pending retracts the
/// registration; a delivery that raced the drop stays parked in the
/// port's slot and satisfies the next receive on this port — cancelled
/// receives never lose values.
#[must_use = "futures do nothing unless polled"]
pub struct RecvFuture<'a, T = Value> {
    parts: &'a Partitioned,
    port: PortId,
    /// Set once the first poll registered the receive.
    registered: bool,
    /// Resolved: drop must no longer retract.
    done: bool,
    _payload: PhantomData<fn() -> T>,
}

impl<T: FromValue> Future for RecvFuture<'_, T> {
    type Output = Result<T, RuntimeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.done, "RecvFuture polled after completion");
        match this.parts.poll_recv(this.port, &mut this.registered, cx) {
            Poll::Ready(r) => {
                this.done = true;
                Poll::Ready(r.and_then(convert))
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<T> Drop for RecvFuture<'_, T> {
    fn drop(&mut self) {
        // A raced delivery has nobody to go to: it stays parked for the
        // next receive on the port (`Engine::abandon_recv`).
        if self.registered && !self.done {
            let p = self.port;
            self.parts.hold(p, false, |e, _| e.abandon_recv(p));
        }
    }
}

impl<T> std::fmt::Debug for RecvFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecvFuture({})", self.port)
    }
}

/// A port handle's claim on its vertex: the route to its engine plus
/// the hangup-on-drop duty. Typed handles wrap it and move it whole when
/// re-typed, so exactly one hangup fires per port — when the last-typed
/// handle is dropped — and a handle never holds more than one partition
/// reference.
///
/// Hangup on drop is phaser-style deregistration: a departed producer can
/// never offer again, so transitions synchronizing this port are dead
/// from here on. Peers left with only dead transitions are woken with
/// [`RuntimeError::Hangup`] instead of blocking forever — a producer
/// blocked on (or later attempting) a send that requires a departed
/// consumer's port included —, in other regions too, before the drop
/// returns. Values already *inside* the connector (buffers, link queues)
/// still deliver — only after they drain does deadness go downstream.
struct Registration {
    parts: Arc<Partitioned>,
    port: PortId,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.parts.hangup(self.port);
    }
}

impl<T> std::fmt::Debug for Outport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Outport({})", self.reg.port)
    }
}

impl<T> std::fmt::Debug for Inport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Inport({})", self.reg.port)
    }
}
