//! Minimal future combinators (the simulator avoids external async crates).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Await two futures concurrently, returning both outputs.
pub fn join2<A, B>(a: A, b: B) -> Join2<A, B>
where
    A: Future,
    B: Future,
{
    Join2 {
        a: MaybeDone::Pending(a),
        b: MaybeDone::Pending(b),
    }
}

enum MaybeDone<F: Future> {
    Pending(F),
    Done(Option<F::Output>),
}

impl<F: Future> MaybeDone<F> {
    /// Polls the inner future if still pending; returns true when done.
    /// Safety: structural pinning — we never move the future once polled.
    fn poll_done(self: Pin<&mut Self>, cx: &mut Context<'_>) -> bool {
        // SAFETY: we never move the pinned future out; replacement happens
        // only after it has completed.
        let this = unsafe { self.get_unchecked_mut() };
        match this {
            MaybeDone::Pending(f) => {
                let pinned = unsafe { Pin::new_unchecked(f) };
                match pinned.poll(cx) {
                    Poll::Ready(out) => {
                        *this = MaybeDone::Done(Some(out));
                        true
                    }
                    Poll::Pending => false,
                }
            }
            MaybeDone::Done(_) => true,
        }
    }

    fn take(self: Pin<&mut Self>) -> F::Output {
        let this = unsafe { self.get_unchecked_mut() };
        match this {
            MaybeDone::Done(v) => v.take().expect("output already taken"),
            MaybeDone::Pending(_) => panic!("join2 output taken before completion"),
        }
    }
}

/// Future returned by [`join2`].
pub struct Join2<A: Future, B: Future> {
    a: MaybeDone<A>,
    b: MaybeDone<B>,
}

impl<A: Future, B: Future> Future for Join2<A, B> {
    type Output = (A::Output, B::Output);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of both fields.
        let this = unsafe { self.get_unchecked_mut() };
        let a_done = unsafe { Pin::new_unchecked(&mut this.a) }.poll_done(cx);
        let b_done = unsafe { Pin::new_unchecked(&mut this.b) }.poll_done(cx);
        if a_done && b_done {
            let a = unsafe { Pin::new_unchecked(&mut this.a) }.take();
            let b = unsafe { Pin::new_unchecked(&mut this.b) }.take();
            Poll::Ready((a, b))
        } else {
            Poll::Pending
        }
    }
}

/// Await a dynamic set of futures, returning outputs in input order.
/// The futures live once, in one pinned boxed slice; every wake polls the
/// unfinished ones in index order.
pub fn join_all<F: Future>(futs: impl IntoIterator<Item = F>) -> JoinAll<F> {
    JoinAll {
        futs: Box::into_pin(futs.into_iter().map(MaybeDone::Pending).collect()),
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    futs: Pin<Box<[MaybeDone<F>]>>,
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: the boxed slice is never moved or reallocated, so each
        // element stays where it was first polled.
        let futs = unsafe { self.get_mut().futs.as_mut().get_unchecked_mut() };
        let mut all_done = true;
        for f in futs.iter_mut() {
            // SAFETY: `f` is an element of the pinned slice above.
            all_done &= unsafe { Pin::new_unchecked(f) }.poll_done(cx);
        }
        if all_done {
            // SAFETY: as above; `take` only moves out a finished output.
            let take = |f: &mut MaybeDone<F>| unsafe { Pin::new_unchecked(f) }.take();
            Poll::Ready(futs.iter_mut().map(take).collect())
        } else {
            Poll::Pending
        }
    }
}

/// Outcome of [`select2`].
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Await whichever of two futures completes first; the loser is dropped.
/// Ties (both ready on the same poll) resolve to the left.
pub fn select2<A, B>(a: A, b: B) -> Select2<A, B>
where
    A: Future,
    B: Future,
{
    Select2 { a, b }
}

/// Future returned by [`select2`].
pub struct Select2<A, B> {
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Select2<A, B> {
    type Output = Either<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning; neither field is moved.
        let this = unsafe { self.get_unchecked_mut() };
        if let Poll::Ready(v) = unsafe { Pin::new_unchecked(&mut this.a) }.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = unsafe { Pin::new_unchecked(&mut this.b) }.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::{SimDuration, SimTime};
    use std::cell::{Cell, RefCell};
    use std::marker::PhantomPinned;
    use std::pin::pin;
    use std::rc::Rc;
    use std::task::Waker;

    #[test]
    fn join2_runs_concurrently() {
        let sim = Sim::new();
        let s = sim.clone();
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let (a, b) = join2(
                async {
                    s.sleep(SimDuration::from_secs(3)).await;
                    "a"
                },
                async {
                    s.sleep(SimDuration::from_secs(5)).await;
                    "b"
                },
            )
            .await;
            assert_eq!((a, b), ("a", "b"));
            d.set(s.now());
        });
        sim.run().unwrap();
        // Concurrent: max(3, 5), not 8.
        assert_eq!(done.get(), SimTime::from_secs(5));
    }

    #[test]
    fn join_all_preserves_order_and_overlaps() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = Rc::new(Cell::new(SimTime::ZERO));
        let o = Rc::clone(&out);
        sim.spawn(async move {
            let futs: Vec<_> = (0..4u64)
                .map(|i| {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_secs(4 - i)).await;
                        i
                    }
                })
                .collect();
            let results = join_all(futs).await;
            assert_eq!(results, vec![0, 1, 2, 3]);
            o.set(s.now());
        });
        sim.run().unwrap();
        assert_eq!(out.get(), SimTime::from_secs(4));
    }

    /// Completes on its `idx + 1`-th poll, logging `(idx, own address)`
    /// on every poll.
    struct Probe {
        idx: usize,
        polls: usize,
        log: Rc<RefCell<Vec<(usize, usize)>>>,
        _pinned: PhantomPinned,
    }

    impl Future for Probe {
        type Output = usize;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
            // SAFETY: only plain fields are touched; nothing is moved out.
            let this = unsafe { self.get_unchecked_mut() };
            this.log
                .borrow_mut()
                .push((this.idx, this as *const Probe as usize));
            this.polls += 1;
            if this.polls > this.idx {
                Poll::Ready(this.idx * 10)
            } else {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn join_all_keeps_each_future_in_place_and_polls_in_index_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let probes = (0..4).map(|idx| Probe {
            idx,
            polls: 0,
            log: Rc::clone(&log),
            _pinned: PhantomPinned,
        });
        let mut all = pin!(join_all(probes));
        let mut cx = Context::from_waker(Waker::noop());
        let out = loop {
            if let Poll::Ready(out) = all.as_mut().poll(&mut cx) {
                break out;
            }
        };
        assert_eq!(out, vec![0, 10, 20, 30]);
        let log = log.borrow();
        // Every wake polls the unfinished futures in index order.
        let order: Vec<usize> = log.iter().map(|&(idx, _)| idx).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 1, 2, 3, 2, 3, 3]);
        // No future moves between its first poll and its completion.
        for idx in 0..4 {
            let mut addrs = log.iter().filter(|&&(i, _)| i == idx).map(|&(_, a)| a);
            let first = addrs.next().unwrap();
            assert!(addrs.all(|a| a == first), "future {idx} moved while pinned");
        }
    }

    #[test]
    fn select2_picks_the_faster() {
        let sim = Sim::new();
        let s = sim.clone();
        let winner = Rc::new(Cell::new(0u8));
        let w = Rc::clone(&winner);
        sim.spawn(async move {
            let r = select2(
                async {
                    s.sleep(SimDuration::from_secs(10)).await;
                    1u8
                },
                async {
                    s.sleep(SimDuration::from_secs(2)).await;
                    2u8
                },
            )
            .await;
            match r {
                Either::Left(v) | Either::Right(v) => w.set(v),
            }
        });
        sim.run().unwrap();
        assert_eq!(winner.get(), 2);
        // The losing sleep does not hold the sim at 10 s.
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn join_all_empty() {
        let sim = Sim::new();
        sim.spawn(async {
            let results: Vec<u8> = join_all(Vec::<std::future::Ready<u8>>::new()).await;
            assert!(results.is_empty());
        });
        sim.run().unwrap();
    }
}
