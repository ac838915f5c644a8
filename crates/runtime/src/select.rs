//! Racing port operations: first ready wins, losers retract.
//!
//! [`select2`] and [`select_slice`] fall directly out of the waker
//! plumbing of [`SendFuture`](crate::port::SendFuture) /
//! [`RecvFuture`](crate::port::RecvFuture): each contender parks the
//! *same* task waker in its own port's waker slot, so whichever port
//! completes first wakes the select exactly once. When one contender
//! resolves, the select drops the others — and dropping a pending port
//! future retracts its registered operation atomically under the engine
//! lock, so a lost race can never leak a half-armed operation, lose a
//! raced delivery, or duplicate a value (see `crate::engine`'s
//! `retract_send`/`abandon_recv` semantics).
//!
//! The combinators are generic over any [`Unpin`] futures, not just port
//! futures; the retraction guarantee is the port futures' own `Drop`.
//!
//! ```
//! use reo_runtime::{select::{select2, Either}, Connector, Mode};
//!
//! let program = reo_dsl::parse_program(
//!     "Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])",
//! ).unwrap();
//! let connector = Connector::builder(&program, "Buf").mode(Mode::jit()).build().unwrap();
//! let mut session = connector.session().replicate("a", 2).replicate("b", 2).connect().unwrap();
//! let txs = session.typed_outports::<i64>("a").unwrap();
//! let rxs = session.typed_inports::<i64>("b").unwrap();
//!
//! // Only fifo 1 holds a value: the select resolves right, and the
//! //  losing receive on fifo 0 retracts — port 0 stays reusable.
//! txs[1].send(42).unwrap();
//! let won = reo_exec::block_on(async {
//!     select2(rxs[0].recv_async(), rxs[1].recv_async()).await
//! });
//! assert!(matches!(won, Either::Right(Ok(42))));
//! assert_eq!(rxs[0].try_recv().unwrap(), None); // no half-armed op left
//! ```

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// The winner of a [`select2`] race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first contender resolved first.
    Left(A),
    /// The second contender resolved first.
    Right(B),
}

/// Race two futures: resolves to the first one ready; the loser is
/// dropped (port futures retract their pending operation).
///
/// Both contenders are polled on the first poll, so two
/// already-completed operations resolve deterministically to
/// [`Either::Left`].
pub fn select2<A, B>(a: A, b: B) -> Select2<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    Select2 {
        a: Some(a),
        b: Some(b),
    }
}

/// The future of [`select2`].
#[must_use = "futures do nothing unless polled"]
pub struct Select2<A, B> {
    a: Option<A>,
    b: Option<B>,
}

impl<A, B> Future for Select2<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    type Output = Either<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let a = this.a.as_mut().expect("Select2 polled after completion");
        if let Poll::Ready(out) = Pin::new(a).poll(cx) {
            // Drop both in place: the loser's Drop retracts its op.
            this.a = None;
            this.b = None;
            return Poll::Ready(Either::Left(out));
        }
        let b = this.b.as_mut().expect("Select2 polled after completion");
        if let Poll::Ready(out) = Pin::new(b).poll(cx) {
            this.a = None;
            this.b = None;
            return Poll::Ready(Either::Right(out));
        }
        Poll::Pending
    }
}

/// Race a whole slice's worth of futures: resolves to `(index, output)`
/// of the first one ready; every loser is dropped (port futures retract).
///
/// Polling rotates its starting index so that a persistently ready
/// low-index contender cannot starve the others across repeated selects
/// on re-created futures.
pub fn select_slice<F: Future + Unpin>(futures: Vec<F>) -> SelectSlice<F> {
    SelectSlice {
        futures: futures.into_iter().map(Some).collect(),
        next_start: 0,
    }
}

/// The future of [`select_slice`].
#[must_use = "futures do nothing unless polled"]
pub struct SelectSlice<F> {
    futures: Vec<Option<F>>,
    next_start: usize,
}

impl<F: Future + Unpin> Future for SelectSlice<F> {
    type Output = (usize, F::Output);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let n = this.futures.len();
        assert!(n > 0, "select_slice over no futures would never resolve");
        let start = this.next_start % n;
        this.next_start = this.next_start.wrapping_add(1);
        for k in 0..n {
            let i = (start + k) % n;
            let f = this.futures[i]
                .as_mut()
                .expect("SelectSlice polled after completion");
            if let Poll::Ready(out) = Pin::new(f).poll(cx) {
                this.futures.clear(); // drops every loser: ops retract
                return Poll::Ready((i, out));
            }
        }
        Poll::Pending
    }
}
