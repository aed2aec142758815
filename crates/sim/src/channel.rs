//! Zero-simulated-time message channels between tasks.
//!
//! These carry values instantly within the simulation — they are plumbing,
//! not network. Anything that should cost time must go through the network
//! model in `gcr-net`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned when sending on a channel whose receiver was dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

struct ChanInner<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Create an unbounded multi-producer single-consumer channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChanInner {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

/// Sending half of a [`channel`]. Cloneable.
pub struct Sender<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut c = self.inner.borrow_mut();
        c.senders -= 1;
        if c.senders == 0 {
            if let Some(w) = c.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue a value. Never blocks (the channel is unbounded).
    ///
    /// # Errors
    /// Returns the value back if the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut c = self.inner.borrow_mut();
        if !c.receiver_alive {
            return Err(SendError(value));
        }
        c.queue.push_back(value);
        if let Some(w) = c.recv_waker.take() {
            w.wake();
        }
        Ok(())
    }
}

/// Receiving half of a [`channel`].
pub struct Receiver<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.borrow_mut().receiver_alive = false;
    }
}

impl<T> Receiver<T> {
    /// Await the next value; resolves to `None` once all senders are dropped
    /// and the queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut c = self.rx.inner.borrow_mut();
        match c.queue.pop_front() {
            Some(v) => Poll::Ready(Some(v)),
            None if c.senders == 0 => Poll::Ready(None),
            None => {
                c.recv_waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

struct OneshotInner<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_alive: bool,
}

/// Create a single-value channel.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Rc::new(RefCell::new(OneshotInner {
        value: None,
        waker: None,
        sender_alive: true,
    }));
    (
        OneshotSender {
            inner: Rc::clone(&inner),
        },
        OneshotReceiver { inner },
    )
}

/// Sending half of a [`oneshot`] channel.
pub struct OneshotSender<T> {
    inner: Rc<RefCell<OneshotInner<T>>>,
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(self, value: T) {
        let mut c = self.inner.borrow_mut();
        c.value = Some(value);
        c.sender_alive = false;
        if let Some(w) = c.waker.take() {
            w.wake();
        }
        // `Drop` then finds the sender already dead and no waker to wake.
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut c = self.inner.borrow_mut();
        c.sender_alive = false;
        if let Some(w) = c.waker.take() {
            w.wake();
        }
    }
}

/// Receiving half of a [`oneshot`] channel.
pub struct OneshotReceiver<T> {
    inner: Rc<RefCell<OneshotInner<T>>>,
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut c = self.inner.borrow_mut();
        if let Some(v) = c.value.take() {
            Poll::Ready(Some(v))
        } else if !c.sender_alive {
            Poll::Ready(None)
        } else {
            c.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn values_arrive_in_order() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let g = Rc::clone(&got);
            sim.spawn(async move {
                while let Some(v) = rx.recv().await {
                    g.borrow_mut().push(v);
                }
            });
        }
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..5 {
                s.sleep(SimDuration::from_millis(1)).await;
                tx.send(i).unwrap();
            }
            // tx dropped here closes the channel
        });
        sim.run().unwrap();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_returns_none_when_senders_gone() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        drop(tx);
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            assert_eq!(rx.recv().await, None);
            d.set(true);
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn cloned_senders_all_feed_receiver() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        let total = Rc::new(Cell::new(0));
        {
            let t = Rc::clone(&total);
            sim.spawn(async move {
                while let Some(v) = rx.recv().await {
                    t.set(t.get() + v);
                }
            });
        }
        for i in 1..=3 {
            let tx = tx.clone();
            sim.spawn(async move {
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        sim.run().unwrap();
        assert_eq!(total.get(), 6);
    }

    #[test]
    fn oneshot_delivers_value() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<&'static str>();
        let got = Rc::new(RefCell::new(None));
        {
            let g = Rc::clone(&got);
            sim.spawn(async move {
                *g.borrow_mut() = rx.await;
            });
        }
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(2)).await;
            tx.send("hello");
        });
        sim.run().unwrap();
        assert_eq!(*got.borrow(), Some("hello"));
    }

    #[test]
    fn oneshot_frees_its_channel_after_a_send() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        let inner = Rc::downgrade(&tx.inner);
        let got = Rc::new(Cell::new(None));
        let g = Rc::clone(&got);
        sim.spawn(async move { g.set(rx.await) });
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            tx.send(7);
        });
        sim.run().unwrap();
        assert_eq!(got.get(), Some(7));
        assert!(inner.upgrade().is_none(), "both halves are gone");
    }

    #[test]
    fn oneshot_dropped_sender_yields_none() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<u8>();
        drop(tx);
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            assert_eq!(rx.await, None);
            d.set(true);
        });
        sim.run().unwrap();
        assert!(done.get());
    }
}
