//! The task-side API: outports and inports (Figs. 1/3 of the paper),
//! optionally typed.
//!
//! In the generalized Foster–Chandy model both operations block: a `send`
//! completes only when the connector accepts the message (a connector with
//! buffer space accepts immediately, making the send effectively
//! nonblocking — Footnote 1), and a `recv` completes only when the
//! connector delivers one.
//!
//! On top of the blocking pair this module layers:
//!
//! * **typed handles** — [`Outport<T>`]/[`Inport<T>`] over the
//!   [`IntoValue`]/[`FromValue`] conversion traits, so tasks send `i64`s
//!   or `(i64, f64)` tuples directly and `recv()` returns `T`, not a raw
//!   [`Value`]. The default `T = Value` keeps the untyped surface intact.
//! * **non-blocking operations** — [`Outport::try_send`] and
//!   [`Inport::try_recv`], which register the operation, give the engine
//!   one chance to fire, and retract cleanly if nothing did.
//! * **deadline-bounded operations** — [`Outport::send_timeout`] and
//!   [`Inport::recv_timeout`], which block up to a [`Duration`] and then
//!   retract atomically (see [`crate::engine`] for why retraction can
//!   never lose or duplicate a message).
//! * **iteration** — `for v in &inport { … }` drains deliveries until the
//!   connector closes.
//! * **async operations** — [`Outport::send_async`]/[`Inport::recv_async`]
//!   return hand-rolled [`SendFuture`]/[`RecvFuture`]s (no external
//!   runtime required; any executor works, e.g. `reo-exec`). A pending
//!   future parks its [`Waker`](std::task::Waker) in the engine's
//!   per-port waker slot and is woken exactly when its port completes —
//!   the same targeted-wakeup discipline as the blocking path, counted
//!   as `waker_wakes` in [`crate::EngineStats`]. Dropping a pending
//!   future *retracts* its registered operation atomically under the
//!   engine lock (the timeout-retraction path), so cancellation — e.g.
//!   losing a [`crate::select::select2`] race — can never lose or
//!   duplicate a message.

use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use reo_automata::{FromValue, IntoValue, PortId, Value};

use crate::engine::Engine;
use crate::error::RuntimeError;
use crate::partition::Partitioned;

/// How a port reaches its engine(s). In the `Multi` (partitioned) case a
/// port call takes one topology snapshot, routes by it, and — the engine
/// lock released — drains the link events its registration hold raised
/// against the same snapshot ([`Partitioned::drain`]): one hold of the
/// other engine per event. Regions that border no link raise none. The
/// wait phase takes a settled result, which enables nothing, so nothing
/// follows it.
#[derive(Clone)]
pub(crate) enum Backend {
    Single(Arc<Engine>),
    Multi(Arc<Partitioned>),
}

impl Backend {
    fn send(&self, p: PortId, v: Value, deadline: Option<Instant>) -> Result<(), RuntimeError> {
        match self {
            Backend::Single(e) => {
                e.register_send(p, v, None)?;
                e.wait_send(p, deadline)
            }
            Backend::Multi(m) => {
                let topo = m.topo();
                let e = topo.engine_for(p);
                m.drain(&topo, |events| e.register_send(p, v, Some(events)))?;
                e.wait_send(p, deadline)
            }
        }
    }

    fn recv(&self, p: PortId, deadline: Option<Instant>) -> Result<Value, RuntimeError> {
        match self {
            Backend::Single(e) => {
                e.register_recv(p, None)?;
                e.wait_recv(p, deadline)
            }
            Backend::Multi(m) => {
                let topo = m.topo();
                let e = topo.engine_for(p);
                m.drain(&topo, |events| e.register_recv(p, Some(events)))?;
                e.wait_recv(p, deadline)
            }
        }
    }

    fn try_send(&self, p: PortId, v: Value) -> Result<bool, RuntimeError> {
        match self {
            Backend::Single(e) => {
                e.register_send(p, v, None)?;
                e.finish_or_retract_send(p)
            }
            Backend::Multi(m) => {
                let e = m.engine_for(p);
                e.register_send(p, v, None)?;
                // One-shot probe: the full sweep (not this hold's events
                // alone) is required. A value whose events another task's
                // drain has not served yet is unreachable from here — and
                // a probe gets no second chance.
                m.pump();
                e.finish_or_retract_send(p)
            }
        }
    }

    fn try_recv(&self, p: PortId) -> Result<Option<Value>, RuntimeError> {
        match self {
            Backend::Single(e) => {
                e.register_recv(p, None)?;
                e.finish_or_retract_recv(p)
            }
            Backend::Multi(m) => {
                let e = m.engine_for(p);
                e.register_recv(p, None)?;
                m.pump(); // see try_send
                e.finish_or_retract_recv(p)
            }
        }
    }

    /// One poll of an async send (see `Engine::poll_send`): one hold, then
    /// in the `Multi` case the drain of what it raised. The waker is
    /// parked *before* the drain, so a completion the drain's own holds
    /// bring about cannot be lost.
    fn poll_send(
        &self,
        p: PortId,
        value: &mut Option<Value>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<(), RuntimeError>> {
        let r = match self {
            Backend::Single(e) => e.poll_send(p, value, cx.waker(), None),
            Backend::Multi(m) => {
                let topo = m.topo();
                let e = topo.engine_for(p);
                m.drain(&topo, |events| {
                    e.poll_send(p, value, cx.waker(), Some(events))
                })
            }
        };
        r.map_or(Poll::Pending, Poll::Ready)
    }

    /// One poll of an async recv; as [`Backend::poll_send`].
    fn poll_recv(
        &self,
        p: PortId,
        registered: &mut bool,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Value, RuntimeError>> {
        let r = match self {
            Backend::Single(e) => e.poll_recv(p, registered, cx.waker(), None),
            Backend::Multi(m) => {
                let topo = m.topo();
                let e = topo.engine_for(p);
                m.drain(&topo, |events| {
                    e.poll_recv(p, registered, cx.waker(), Some(events))
                })
            }
        };
        r.map_or(Poll::Pending, Poll::Ready)
    }

    /// Drop-retraction of a cancelled async send (see
    /// `Engine::abandon_send`). A retraction removes an operation and
    /// cannot enable new transitions, so there is nothing to drain.
    fn abandon_send(&self, p: PortId) {
        match self {
            Backend::Single(e) => e.abandon_send(p),
            Backend::Multi(m) => m.engine_for(p).abandon_send(p),
        }
    }

    /// Drop-retraction of a cancelled async recv (see
    /// `Engine::abandon_recv`; a raced delivery stays parked for the next
    /// receive on the port).
    fn abandon_recv(&self, p: PortId) {
        match self {
            Backend::Single(e) => e.abandon_recv(p),
            Backend::Multi(m) => m.engine_for(p).abandon_recv(p),
        }
    }

    /// Phaser-style deregistration on handle drop: the task behind `p` is
    /// gone, so transitions that synchronize `p` can never fire again.
    /// The engine's hangup analysis wakes every peer whose remaining
    /// transitions are all dead with [`RuntimeError::Hangup`]; the
    /// partitioned backend also propagates deadness across drained links.
    fn hangup(&self, p: PortId) {
        match self {
            Backend::Single(e) => {
                e.hangup(&[p]);
            }
            Backend::Multi(m) => m.hangup(&[p]),
        }
    }

    pub(crate) fn steps(&self) -> u64 {
        match self {
            Backend::Single(e) => e.steps(),
            Backend::Multi(m) => m.steps(),
        }
    }

    pub(crate) fn stats(&self) -> crate::engine::EngineStats {
        match self {
            Backend::Single(e) => e.stats(),
            Backend::Multi(m) => m.stats(),
        }
    }

    pub(crate) fn poison_message(&self) -> Option<String> {
        match self {
            Backend::Single(e) => e.poison_message(),
            Backend::Multi(m) => m.poison_message(),
        }
    }

    pub(crate) fn close(&self) {
        match self {
            Backend::Single(e) => e.close(),
            Backend::Multi(m) => m.close(),
        }
    }

    pub(crate) fn poison(&self, msg: &str) {
        match self {
            Backend::Single(e) => e.poison(msg),
            Backend::Multi(m) => m.poison_all(msg),
        }
    }

    pub(crate) fn arm_panic_after_steps(&self, n: u64) {
        match self {
            Backend::Single(e) => e.arm_panic_after_steps(n),
            Backend::Multi(m) => {
                for e in &m.topo().engines {
                    e.arm_panic_after_steps(n);
                }
            }
        }
    }

    pub(crate) fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        match self {
            Backend::Single(e) => e.cache_stats(),
            Backend::Multi(m) => {
                let mut acc = crate::cache::CacheStats::default();
                let t = m.topo();
                for e in &t.engines {
                    if let Some(s) = e.cache_stats() {
                        acc.hits += s.hits;
                        acc.misses += s.misses;
                        acc.evictions += s.evictions;
                        acc.resident += s.resident;
                        acc.steps += s.steps;
                    }
                }
                Some(acc)
            }
        }
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
    pub(crate) fn new(backend: Backend, port: PortId) -> Self {
        Outport {
            reg: Registration { backend, port },
            _payload: PhantomData,
        }
    }

    /// Blocking send: returns once the connector has accepted the message.
    pub fn send(&self, v: impl Into<T>) -> Result<(), RuntimeError> {
        self.reg
            .backend
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
            .backend
            .try_send(self.reg.port, v.into().into_value())
    }

    /// Deadline-bounded send: blocks up to `timeout`, then retracts and
    /// returns [`RuntimeError::Timeout`]. A retracted send was never
    /// accepted, so retrying cannot duplicate a message; as with
    /// [`Outport::try_send`], retry with a clone or a fresh value.
    pub fn send_timeout(&self, v: impl Into<T>, timeout: Duration) -> Result<(), RuntimeError> {
        self.reg
            .backend
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
            backend: &self.reg.backend,
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
        self.reg.backend.poll_send(self.reg.port, value, cx)
    }

    /// Re-type the handle; the connector itself is data-agnostic, so this
    /// only changes what the `send` signature accepts.
    pub fn typed<U: IntoValue>(self) -> Outport<U> {
        // Re-typing is not a departure: the registration (and with it the
        // one backend reference) moves into the new handle, so nothing is
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
    pub(crate) fn new(backend: Backend, port: PortId) -> Self {
        Inport {
            reg: Registration { backend, port },
            _payload: PhantomData,
        }
    }

    /// Blocking receive: returns the delivered message.
    pub fn recv(&self) -> Result<T, RuntimeError> {
        convert(self.reg.backend.recv(self.reg.port, None)?)
    }

    /// Non-blocking receive: `Ok(Some(v))` if a delivery was ready within
    /// one engine step, `Ok(None)` if the operation would have blocked
    /// (it is retracted; the port is immediately reusable).
    pub fn try_recv(&self) -> Result<Option<T>, RuntimeError> {
        self.reg
            .backend
            .try_recv(self.reg.port)?
            .map(convert)
            .transpose()
    }

    /// Deadline-bounded receive: blocks up to `timeout`, then retracts and
    /// returns [`RuntimeError::Timeout`]. A delivery that races the
    /// deadline is still handed out — never dropped.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RuntimeError> {
        convert(self.reg.backend.recv(self.reg.port, deadline_in(timeout))?)
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
            backend: &self.reg.backend,
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
        match self.reg.backend.poll_recv(self.reg.port, registered, cx) {
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
        convert(self.reg.backend.recv(self.reg.port, None)?)
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
    backend: &'a Backend,
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
        match this.backend.poll_send(this.port, &mut this.value, cx) {
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
        // retract. An unpolled future (value still Some) armed nothing.
        if !self.done && self.value.is_none() {
            self.backend.abandon_send(self.port);
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
    backend: &'a Backend,
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
        match this.backend.poll_recv(this.port, &mut this.registered, cx) {
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
        if self.registered && !self.done {
            self.backend.abandon_recv(self.port);
        }
    }
}

impl<T> std::fmt::Debug for RecvFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecvFuture({})", self.port)
    }
}

/// A port handle's claim on its vertex: the route to the engine(s) plus
/// the hangup-on-drop duty. Typed handles wrap it and move it whole when
/// re-typed, so exactly one hangup fires per port — when the last-typed
/// handle is dropped — and a handle never holds more than one backend
/// reference.
///
/// Hangup on drop is phaser-style deregistration: a departed producer can
/// never offer again, so transitions synchronizing this port are dead
/// from here on. Peers left with only dead transitions are woken with
/// [`RuntimeError::Hangup`] instead of blocking forever — a producer
/// blocked on (or later attempting) a send that requires a departed
/// consumer's port included. Values already *inside* the connector
/// (buffers, link queues) still deliver — only after they drain does
/// deadness propagate downstream.
struct Registration {
    backend: Backend,
    port: PortId,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.backend.hangup(self.port);
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
