//! # reo-exec
//!
//! A minimal, dependency-free async executor, sized for the protocol
//! sessions of `reo-runtime`: hundreds of thousands of tiny cooperative
//! tasks — one producer/consumer pair per open session — multiplexed
//! onto a handful of OS threads. No I/O reactor, no timers: tasks are
//! woken exclusively through [`std::task::Waker`]s that the protocol
//! engines park in their per-port waker slots, so a task runs only when
//! one of its port operations actually completed.
//!
//! ## Design
//!
//! * **Task arena** — each spawned future lives in one `Arc`'d `Task`
//!   holding the boxed future and an atomic scheduling state
//!   (idle / scheduled / running / notified / done). The `Arc` itself is
//!   the waker (via [`std::task::Wake`]): waking costs one CAS, and a
//!   wake that lands *during* a poll re-schedules instead of being lost.
//!   A task blocked on a port costs ~one allocation plus its future —
//!   no OS thread, no stack.
//! * **Global + local run queues** — ready tasks go to the worker's own
//!   local queue when woken from a worker thread (cache affinity, no
//!   cross-thread handoff on ping-pong wakes), to the shared injector
//!   queue otherwise. Worker threads drain local first, then the
//!   injector, then *steal* from sibling locals, so a skewed wake pattern
//!   cannot strand ready tasks behind one busy worker.
//! * **Parker** — idle workers sleep on one condvar guarded by a
//!   generation counter: every schedule bumps the generation, and a
//!   worker re-checks it between its last failed pop and the wait, so a
//!   wake that races the park is never lost. Schedules only touch the
//!   condvar when a sleeper is registered (one relaxed atomic read on the
//!   hot path).
//!
//! [`block_on`] is the single-threaded form: it drives one future on the
//! caller's thread with a thread-parking waker and no queues at all.
//!
//! ## Examples
//!
//! Drive a future to completion on the current thread:
//!
//! ```
//! assert_eq!(reo_exec::block_on(async { 6 * 7 }), 42);
//! ```
//!
//! Spawn tasks on a pool and join them — [`JoinHandle`] works both as a
//! blocking join and as a future:
//!
//! ```
//! use reo_exec::Executor;
//!
//! let exec = Executor::new(2);
//! let a = exec.spawn(async { 40 });
//! let b = exec.spawn(async { 2 });
//! let sum = reo_exec::block_on(async move { a.await.unwrap() + b.await.unwrap() });
//! assert_eq!(sum, 42);
//!
//! let c = exec.spawn(async { "done" });
//! assert_eq!(c.join().unwrap(), "done"); // blocking join, same handle type
//! ```
//!
//! ## Fault containment
//!
//! A panic inside a spawned future is **contained**: the poll runs under
//! [`std::panic::catch_unwind`], the panicking task is retired, and its
//! [`JoinHandle`] resolves to [`JoinError::Panicked`] carrying the panic
//! message — a join never hangs on a dead task, and the worker thread
//! survives to keep driving every other task. Contained panics are
//! counted in [`Executor::contained_panics`].
//!
//! ```
//! use reo_exec::{Executor, JoinError};
//!
//! let exec = Executor::new(1);
//! let bad = exec.spawn(async { panic!("boom") });
//! assert!(matches!(bad.join(), Err(JoinError::Panicked(m)) if m.contains("boom")));
//! let good = exec.spawn(async { 7 }); // the worker survived
//! assert_eq!(good.join().unwrap(), 7);
//! assert_eq!(exec.contained_panics(), 1);
//! ```
//!
//! Dropping the [`Executor`] shuts the pool down: workers finish the
//! poll they are in, queued-but-unpolled tasks are dropped (their
//! futures' own `Drop` impls run — a pending `reo` port future retracts
//! its operation), and late wakes on surviving wakers become no-ops.

use std::collections::VecDeque;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::{Condvar, Mutex};

/// Why a [`JoinHandle`] resolved without the task's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The task's future panicked. The panic was contained (the worker
    /// thread survived); the payload's message is carried here.
    Panicked(String),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Panicked(msg) => write!(f, "task panicked: {msg}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Best-effort text of a panic payload (`&str` and `String` payloads
/// cover `panic!`/`assert!`/`unwrap`; anything else gets a placeholder).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Future adapter that polls its inner future under `catch_unwind`,
/// turning a panic into a `Err(payload)` completion instead of letting
/// it unwind through the executor. The inner future is boxed, so the
/// adapter is `Unpin` and needs no pin projection; after a panic the
/// poisoned future is dropped immediately (a half-unwound future must
/// never be polled again).
struct CatchUnwind<F: Future> {
    inner: Option<Pin<Box<F>>>,
}

impl<F: Future> Future for CatchUnwind<F> {
    type Output = Result<F::Output, String>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let inner = self
            .inner
            .as_mut()
            .expect("CatchUnwind polled after completion");
        match std::panic::catch_unwind(AssertUnwindSafe(|| inner.as_mut().poll(cx))) {
            Ok(Poll::Ready(v)) => {
                self.inner = None;
                Poll::Ready(Ok(v))
            }
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => {
                let msg = payload_message(payload.as_ref());
                // Dropping a future that panicked mid-poll may itself
                // panic; contain that too rather than poison the worker.
                let inner = self.inner.take();
                let _ = std::panic::catch_unwind(AssertUnwindSafe(move || drop(inner)));
                Poll::Ready(Err(msg))
            }
        }
    }
}

/// Scheduling states of a [`Task`] (one `AtomicU8`).
mod state {
    /// Not queued, not running: waiting for a wake.
    pub const IDLE: u8 = 0;
    /// Sitting in a run queue (wakes are no-ops until it runs).
    pub const SCHEDULED: u8 = 1;
    /// Being polled right now.
    pub const RUNNING: u8 = 2;
    /// Woken *while* being polled: re-schedule after the poll returns.
    pub const NOTIFIED: u8 = 3;
    /// Completed (or cancelled): every further wake is a no-op.
    pub const DONE: u8 = 4;
}

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned task: the boxed future plus its scheduling state. The
/// `Arc<Task>` doubles as the task's [`Waker`].
struct Task {
    /// One of the [`state`] constants.
    state: AtomicU8,
    /// The future, present until the task completes. The mutex is never
    /// contended in steady state (only the polling worker touches it);
    /// it exists so a `Waker` — which is `Send + Sync` — can own the
    /// task without making the future `Sync`.
    future: Mutex<Option<BoxFuture>>,
    /// Home executor; `Weak` so tasks that outlive a dropped pool (a
    /// waker parked in an engine slot, say) do not keep it alive.
    shared: Weak<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::Acquire) {
                state::IDLE => {
                    if self
                        .state
                        .compare_exchange(
                            state::IDLE,
                            state::SCHEDULED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        if let Some(shared) = self.shared.upgrade() {
                            shared.schedule(Arc::clone(self));
                        }
                        return;
                    }
                }
                state::RUNNING => {
                    if self
                        .state
                        .compare_exchange(
                            state::RUNNING,
                            state::NOTIFIED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return; // the polling worker re-schedules
                    }
                }
                // Already queued, already notified, or done: nothing to do.
                _ => return,
            }
        }
    }
}

/// State shared between the [`Executor`] handle and its workers.
struct Shared {
    /// The global injector queue: tasks woken off-pool land here.
    injector: Mutex<VecDeque<Arc<Task>>>,
    /// Per-worker local queues; workers push their own wakes here and
    /// steal from each other's when idle.
    locals: Box<[Mutex<VecDeque<Arc<Task>>>]>,
    /// Bumped on every schedule; the parker's lost-wakeup guard.
    generation: AtomicU64,
    /// Worker threads currently inside the park protocol.
    sleepers: AtomicUsize,
    /// Guards the park condvar; the flag is the shutdown signal.
    park_lock: Mutex<bool>,
    park_cv: Condvar,
    /// Tasks spawned and not yet completed (diagnostics).
    live: AtomicUsize,
    /// Panics contained by the poll wrapper or the worker backstop
    /// (diagnostics): each one is a task that died without taking its
    /// worker thread — or any sibling task — down with it.
    contained_panics: AtomicU64,
}

impl Shared {
    /// Enqueue a task that just became `SCHEDULED` and wake a worker.
    fn schedule(&self, task: Arc<Task>) {
        let pushed_local = CURRENT_WORKER.with(|c| {
            if let Some((shared, idx)) = &*c.borrow() {
                if let Some(shared) = shared.upgrade() {
                    if std::ptr::eq(Arc::as_ptr(&shared), self) {
                        self.locals[*idx].lock().push_back(Arc::clone(&task));
                        return true;
                    }
                }
            }
            false
        });
        if !pushed_local {
            self.injector.lock().push_back(task);
        }
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park_lock.lock();
            self.park_cv.notify_all();
        }
    }

    /// Pop a ready task for worker `idx`: own local queue, then the
    /// injector, then a steal sweep over the sibling locals.
    fn pop(&self, idx: usize) -> Option<Arc<Task>> {
        if let Some(t) = self.locals[idx].lock().pop_front() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().pop_front() {
            return Some(t);
        }
        let n = self.locals.len();
        for k in 1..n {
            let victim = (idx + k) % n;
            if let Some(t) = self.locals[victim].lock().pop_back() {
                return Some(t);
            }
        }
        None
    }
}

thread_local! {
    /// Which worker (of which pool) the current thread is, if any —
    /// routes same-pool wakes to the local queue.
    static CURRENT_WORKER: std::cell::RefCell<Option<(Weak<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// A fixed-size pool of worker threads driving spawned futures.
///
/// Create with [`Executor::new`], submit work with [`Executor::spawn`].
/// Dropping the executor shuts the workers down; see the crate docs for
/// the cancellation semantics of still-queued tasks.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawn a pool of `threads` workers (`threads ≥ 1`; a single worker
    /// is the run-to-completion single-threaded executor).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "an executor needs at least one worker");
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            park_lock: Mutex::new(false),
            park_cv: Condvar::new(),
            live: AtomicUsize::new(0),
            contained_panics: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("reo-exec-{idx}"))
                    .spawn(move || worker_loop(shared, idx))
                    .expect("spawning an executor worker thread")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Tasks spawned and not yet run to completion. A task blocked on a
    /// port operation counts as live — this is the executor-side measure
    /// of concurrent open sessions.
    pub fn live_tasks(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Panics contained so far: tasks whose future panicked and were
    /// retired with a [`JoinError::Panicked`] while their worker thread
    /// — and every sibling task — kept running.
    pub fn contained_panics(&self) -> u64 {
        self.shared.contained_panics.load(Ordering::Relaxed)
    }

    /// Spawn a future onto the pool; returns a [`JoinHandle`] yielding
    /// its output. The task starts running without any further action —
    /// dropping the handle detaches it.
    ///
    /// A panic inside `future` is contained: the handle resolves to
    /// [`JoinError::Panicked`] instead of hanging, and the worker thread
    /// survives (see the crate docs).
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let join = Arc::new(JoinState {
            slot: Mutex::new(JoinSlot {
                result: None,
                waker: None,
            }),
            cv: Condvar::new(),
        });
        let shared = Arc::clone(&self.shared);
        shared.live.fetch_add(1, Ordering::Relaxed);
        let join2 = Arc::clone(&join);
        let shared2 = Arc::clone(&shared);
        let wrapped = async move {
            let out = CatchUnwind {
                inner: Some(Box::pin(future)),
            }
            .await;
            let out = out.map_err(|msg| {
                shared2.contained_panics.fetch_add(1, Ordering::Relaxed);
                JoinError::Panicked(msg)
            });
            let mut slot = join2.slot.lock();
            // Decrement *before* publishing the result (still under the
            // slot lock): once any join observes completion,
            // `live_tasks()` has already dropped.
            shared2.live.fetch_sub(1, Ordering::Relaxed);
            slot.result = Some(out);
            if let Some(w) = slot.waker.take() {
                w.wake();
            }
            join2.cv.notify_all();
        };
        let task = Arc::new(Task {
            state: AtomicU8::new(state::SCHEDULED),
            future: Mutex::new(Some(Box::pin(wrapped))),
            shared: Arc::downgrade(&self.shared),
        });
        self.shared.schedule(task);
        JoinHandle { state: join }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut shutdown = self.shared.park_lock.lock();
            *shutdown = true;
            self.shared.park_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Cancel whatever never got polled: dropping the queued tasks
        // drops their futures, which run their cleanup (port futures
        // retract their pending operations).
        self.shared.injector.lock().clear();
        for q in self.shared.locals.iter() {
            q.lock().clear();
        }
    }
}

/// The worker main loop: pop → poll → handle state transitions → park.
fn worker_loop(shared: Arc<Shared>, idx: usize) {
    CURRENT_WORKER.with(|c| *c.borrow_mut() = Some((Arc::downgrade(&shared), idx)));
    loop {
        // Snapshot the generation *before* looking for work: any
        // schedule that lands after this read bumps it, and the re-check
        // under the park lock below catches exactly those.
        let gen = shared.generation.load(Ordering::SeqCst);
        if let Some(task) = shared.pop(idx) {
            // Backstop containment: the poll adapter inside the spawn
            // wrapper already catches panics from the user future, so
            // anything unwinding out of `run_task` is a pathology (a
            // panicking future `Drop`, say). Contain it too — retire the
            // task and keep this worker alive — rather than let one bad
            // task strand every sibling queued behind the dead thread.
            let contained = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_task(Arc::clone(&task));
            }));
            if contained.is_err() {
                shared.contained_panics.fetch_add(1, Ordering::Relaxed);
                task.state.store(state::DONE, Ordering::Release);
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    *task.future.lock() = None;
                }));
            }
            continue;
        }
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut shutdown = shared.park_lock.lock();
        if *shutdown {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if shared.generation.load(Ordering::SeqCst) != gen {
            // A schedule raced our failed pop: retry instead of parking.
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        shared.park_cv.wait(&mut shutdown);
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    // (unreachable; the thread-local Weak dies with the thread)
}

/// Poll one scheduled task, handling wakes that land mid-poll.
fn run_task(task: Arc<Task>) {
    task.state.store(state::RUNNING, Ordering::Release);
    let waker = Waker::from(Arc::clone(&task));
    let mut cx = Context::from_waker(&waker);
    let mut future_slot = task.future.lock();
    let Some(future) = future_slot.as_mut() else {
        // Completed by an earlier poll (stale queue entry): nothing to do.
        task.state.store(state::DONE, Ordering::Release);
        return;
    };
    match future.as_mut().poll(&mut cx) {
        Poll::Ready(()) => {
            *future_slot = None;
            task.state.store(state::DONE, Ordering::Release);
        }
        Poll::Pending => {
            drop(future_slot);
            // RUNNING → IDLE unless a wake upgraded us to NOTIFIED
            // mid-poll; then the task must run again.
            if task
                .state
                .compare_exchange(
                    state::RUNNING,
                    state::IDLE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                task.state.store(state::SCHEDULED, Ordering::Release);
                if let Some(shared) = task.shared.upgrade() {
                    shared.schedule(Arc::clone(&task));
                }
            }
        }
    }
}

/// Output slot shared between a running task and its [`JoinHandle`].
struct JoinState<T> {
    slot: Mutex<JoinSlot<T>>,
    cv: Condvar,
}

struct JoinSlot<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
}

/// Handle to a spawned task's output. Use as a future (`handle.await`
/// inside another task) or call [`JoinHandle::join`] to block an OS
/// thread on it; both yield `Err(JoinError::Panicked)` if the task's
/// future panicked (the panic was contained — see the crate docs).
/// Dropping the handle detaches the task (it keeps running; its output
/// is discarded).
#[must_use = "dropping a JoinHandle detaches the task"]
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// Block the calling OS thread until the task completes, returning
    /// its output — or [`JoinError::Panicked`] if the task panicked,
    /// never hanging on a dead task. Do not call from inside an executor
    /// task — that parks a worker thread.
    pub fn join(self) -> Result<T, JoinError> {
        let mut slot = self.state.slot.lock();
        loop {
            if let Some(v) = slot.result.take() {
                return v;
            }
            self.state.cv.wait(&mut slot);
        }
    }

    /// Completion probe without blocking or consuming the handle.
    pub fn is_finished(&self) -> bool {
        self.state.slot.lock().result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slot = self.state.slot.lock();
        if let Some(v) = slot.result.take() {
            Poll::Ready(v)
        } else {
            slot.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Thread-parking waker for [`block_on`].
struct ThreadParker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut woken = self.woken.lock();
        *woken = true;
        self.cv.notify_all();
    }
}

/// Drive one future to completion on the calling thread — the
/// single-threaded executor. Wakes park/unpark the thread through a
/// private condvar; no queues, no pool.
///
/// ```
/// let v = reo_exec::block_on(async { 1 + 1 });
/// assert_eq!(v, 2);
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = Box::pin(future);
    let parker = Arc::new(ThreadParker {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => {
                let mut woken = parker.woken.lock();
                while !*woken {
                    parker.cv.wait(&mut woken);
                }
                *woken = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn block_on_runs_simple_future() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn block_on_handles_wakes_from_another_thread() {
        // A future that is pending until a side thread flips a flag and
        // wakes it — exercises the parker, not just the fast path.
        struct FlagFuture {
            flag: Arc<AtomicBool>,
            spawned: bool,
        }
        impl Future for FlagFuture {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.flag.load(Ordering::SeqCst) {
                    return Poll::Ready(());
                }
                if !self.spawned {
                    self.spawned = true;
                    let flag = Arc::clone(&self.flag);
                    let waker = cx.waker().clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        flag.store(true, Ordering::SeqCst);
                        waker.wake();
                    });
                }
                Poll::Pending
            }
        }
        block_on(FlagFuture {
            flag: Arc::new(AtomicBool::new(false)),
            spawned: false,
        });
    }

    #[test]
    fn spawned_tasks_complete_and_join() {
        let exec = Executor::new(2);
        let handles: Vec<_> = (0..100).map(|i| exec.spawn(async move { i * 2 })).collect();
        let mut sum = 0;
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i * 2);
            sum += i;
        }
        assert_eq!(sum, 4950);
        assert_eq!(exec.live_tasks(), 0);
    }

    #[test]
    fn join_handle_is_awaitable() {
        let exec = Executor::new(1);
        let a = exec.spawn(async { 40 });
        let b = exec.spawn(async { 2 });
        assert_eq!(
            block_on(async move { a.await.unwrap() + b.await.unwrap() }),
            42
        );
    }

    #[test]
    fn tasks_wake_each_other_across_workers() {
        // A chain of oneshot handoffs: task k completes task k+1's
        // input. Exercises cross-task wakes through the run queues.
        struct Oneshot {
            slot: Mutex<(Option<u64>, Option<Waker>)>,
        }
        impl Oneshot {
            fn put(&self, v: u64) {
                let mut s = self.slot.lock();
                s.0 = Some(v);
                if let Some(w) = s.1.take() {
                    w.wake();
                }
            }
        }
        struct Take<'a>(&'a Oneshot);
        impl Future for Take<'_> {
            type Output = u64;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
                let mut s = self.0.slot.lock();
                if let Some(v) = s.0.take() {
                    Poll::Ready(v)
                } else {
                    s.1 = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }

        let exec = Executor::new(3);
        const N: usize = 200;
        let slots: Vec<Arc<Oneshot>> = (0..=N)
            .map(|_| {
                Arc::new(Oneshot {
                    slot: Mutex::new((None, None)),
                })
            })
            .collect();
        let handles: Vec<_> = (0..N)
            .map(|k| {
                let input = Arc::clone(&slots[k]);
                let output = Arc::clone(&slots[k + 1]);
                exec.spawn(async move {
                    let v = Take(&input).await;
                    output.put(v + 1);
                })
            })
            .collect();
        slots[0].put(0);
        for h in handles {
            h.join().unwrap();
        }
        let got = block_on(Take(&slots[N]));
        assert_eq!(got, N as u64);
    }

    #[test]
    fn many_tasks_on_few_threads() {
        // 50k no-op tasks on 2 workers: the arena + queues must not
        // degrade or deadlock at session-like task counts.
        let exec = Executor::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..50_000)
            .map(|_| {
                let c = Arc::clone(&counter);
                exec.spawn(async move {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50_000);
    }

    #[test]
    fn join_on_panicked_task_returns_typed_error_not_blocking() {
        // Regression: a panic inside a spawned future used to unwind
        // through the worker, killing the thread and leaving every
        // JoinHandle to block forever. It must instead resolve to a
        // typed error carrying the panic message — promptly.
        let exec = Executor::new(2);
        let h = exec.spawn(async { panic!("kaboom {}", 41 + 1) });
        let start = std::time::Instant::now();
        match h.join() {
            Err(JoinError::Panicked(msg)) => assert!(msg.contains("kaboom 42"), "got {msg:?}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "join blocked on the dead task"
        );
        assert_eq!(exec.contained_panics(), 1);
        assert_eq!(exec.live_tasks(), 0, "panicked task still counted live");
    }

    #[test]
    fn panicked_task_is_awaitable_and_spares_its_siblings() {
        // One task of many panics: its handle resolves Err when awaited
        // from another task, and every sibling still runs to completion
        // on the surviving workers.
        let exec = Executor::new(2);
        let bad = exec.spawn(async { panic!("contained") });
        let goods: Vec<_> = (0..64).map(|i| exec.spawn(async move { i })).collect();
        let bad_err = block_on(bad);
        assert!(matches!(bad_err, Err(JoinError::Panicked(_))));
        for (i, g) in goods.into_iter().enumerate() {
            assert_eq!(g.join().unwrap(), i);
        }
        assert_eq!(exec.contained_panics(), 1);
    }

    #[test]
    fn executor_shutdown_drops_every_task_future() {
        // A future whose Drop is observable: on shutdown every spawned
        // future must have been dropped — either by running to
        // completion or by queue-clearing cancellation. Cancellation is
        // what lets a pending reo port future retract on shutdown.
        struct DropFlag(Arc<AtomicUsize>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let exec = Executor::new(1);
            let _detached = exec.spawn(std::future::pending::<()>());
            for _ in 0..8 {
                let flag = DropFlag(Arc::clone(&dropped));
                let h = exec.spawn(async move {
                    let _keep = flag;
                });
                drop(h); // detach
            }
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 8);
    }
}
