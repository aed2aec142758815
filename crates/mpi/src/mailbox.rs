//! Per-rank message matching: posted receives and the unexpected queue.
//!
//! Matching is by `(source selector, exact tag)` in arrival order, which
//! preserves MPI's non-overtaking guarantee per `(src, tag)` pair (the
//! network layer never reorders a channel, see `gcr-net`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use gcr_sim::channel::OneshotSender;
use gcr_sim::SimTime;

use crate::message::{Envelope, Tag};
use crate::rank::SrcSel;

/// Completion cell shared between a posted receive and the delivery path.
pub struct RecvSlot {
    result: Option<Envelope>,
    waker: Option<Waker>,
}

impl RecvSlot {
    /// Fresh empty slot.
    pub fn new() -> Rc<RefCell<RecvSlot>> {
        Rc::new(RefCell::new(RecvSlot {
            result: None,
            waker: None,
        }))
    }

    /// Fill the slot and wake the receiver.
    pub fn fulfill(slot: &Rc<RefCell<RecvSlot>>, env: Envelope) {
        let mut s = slot.borrow_mut();
        debug_assert!(s.result.is_none(), "recv slot fulfilled twice");
        s.result = Some(env);
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

/// Future returned by a posted receive.
pub struct RecvFut {
    slot: Rc<RefCell<RecvSlot>>,
}

impl RecvFut {
    /// Wrap a slot.
    pub fn new(slot: Rc<RefCell<RecvSlot>>) -> Self {
        RecvFut { slot }
    }
}

impl Future for RecvFut {
    type Output = Envelope;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Envelope> {
        let mut s = self.slot.borrow_mut();
        if let Some(env) = s.result.take() {
            Poll::Ready(env)
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// What the rendezvous sender receives when its RTS is matched: the time its
/// CTS-granted clearance arrives back at the sender, plus the receive slot to
/// fill at data delivery.
pub type RtsGrant = (SimTime, Rc<RefCell<RecvSlot>>);

/// An entry in the unexpected-message queue.
pub enum Arrival {
    /// Fully-arrived message (eager data or control).
    Ready(Envelope),
    /// Rendezvous announcement: data not yet on the wire.
    Rts {
        /// Metadata of the announced message (bytes = data size).
        env: Envelope,
        /// Channel used to hand the sender its grant.
        grant: OneshotSender<RtsGrant>,
    },
}

impl Arrival {
    fn env(&self) -> &Envelope {
        match self {
            Arrival::Ready(e) => e,
            Arrival::Rts { env, .. } => env,
        }
    }
}

/// A receive waiting for a matching arrival.
pub struct Posted {
    /// Source selector.
    pub src: SrcSel,
    /// Exact tag to match.
    pub tag: Tag,
    /// Completion cell.
    pub slot: Rc<RefCell<RecvSlot>>,
}

/// One rank's matching state.
#[derive(Default)]
pub struct Mailbox {
    arrived: VecDeque<Arrival>,
    posted: VecDeque<Posted>,
}

impl Mailbox {
    /// Empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Try to match a posted receive against the unexpected queue, removing
    /// and returning the first match.
    pub fn take_matching_arrival(&mut self, src: SrcSel, tag: Tag) -> Option<Arrival> {
        // Hot path: the FIFO head matches. Tight send/recv loops hit this
        // almost always, skipping the linear scan and the queue shift.
        if let Some(a) = self.arrived.front() {
            if a.env().tag == tag && src.matches(a.env().src) {
                return self.arrived.pop_front();
            }
        }
        let pos = self
            .arrived
            .iter()
            .position(|a| a.env().tag == tag && src.matches(a.env().src))?;
        self.arrived.remove(pos)
    }

    /// Try to match a new arrival against the posted queue, removing and
    /// returning the first matching posted receive.
    pub fn take_matching_posted(&mut self, env: &Envelope) -> Option<Posted> {
        if let Some(p) = self.posted.front() {
            if p.tag == env.tag && p.src.matches(env.src) {
                return self.posted.pop_front();
            }
        }
        let pos = self
            .posted
            .iter()
            .position(|p| p.tag == env.tag && p.src.matches(env.src))?;
        self.posted.remove(pos)
    }

    /// Queue an unmatched arrival.
    pub fn push_arrival(&mut self, a: Arrival) {
        self.arrived.push_back(a);
    }

    /// Queue an unmatched receive.
    pub fn push_posted(&mut self, p: Posted) {
        self.posted.push_back(p);
    }
}

/// A broadcast pulse: waiters wake on the next [`Pulse::pulse`] after they
/// started waiting. Used for "re-check a counter condition whenever a new
/// message arrives".
#[derive(Clone, Default)]
pub struct Pulse {
    waiters: Rc<RefCell<Vec<Waker>>>,
}

impl Pulse {
    /// New pulse source.
    pub fn new() -> Self {
        Pulse::default()
    }

    /// Wake everyone currently waiting.
    pub fn pulse(&self) {
        for w in self.waiters.borrow_mut().drain(..) {
            w.wake();
        }
    }

    /// Wait for the next pulse.
    pub fn wait_next(&self) -> PulseWait {
        PulseWait {
            pulse: self.clone(),
            fired: false,
            registered: false,
        }
    }
}

/// Future returned by [`Pulse::wait_next`].
pub struct PulseWait {
    pulse: Pulse,
    fired: bool,
    registered: bool,
}

impl Future for PulseWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.registered {
            // Woken by a pulse (or spuriously — either way the caller
            // re-checks its condition in a loop).
            self.fired = true;
            return Poll::Ready(());
        }
        self.registered = true;
        self.pulse.waiters.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgId, MsgKind};
    use crate::rank::Rank;

    fn env(src: u32, tag: u64, seq: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(9),
            tag: Tag::app(tag),
            bytes: 10,
            id: MsgId {
                src: Rank(src),
                seq,
            },
            kind: MsgKind::App,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload: None,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        }
    }

    #[test]
    fn arrivals_match_in_fifo_order() {
        let mut mb = Mailbox::new();
        mb.push_arrival(Arrival::Ready(env(1, 5, 0)));
        mb.push_arrival(Arrival::Ready(env(1, 5, 1)));
        let a = mb
            .take_matching_arrival(SrcSel::From(Rank(1)), Tag::app(5))
            .unwrap();
        match a {
            Arrival::Ready(e) => assert_eq!(e.id.seq, 0),
            _ => panic!("expected ready"),
        }
        let rest = mb
            .take_matching_arrival(SrcSel::From(Rank(1)), Tag::app(5))
            .unwrap();
        assert_eq!(rest.env().id.seq, 1);
        assert!(mb.take_matching_arrival(SrcSel::Any, Tag::app(5)).is_none());
    }

    #[test]
    fn tag_and_source_filter() {
        let mut mb = Mailbox::new();
        mb.push_arrival(Arrival::Ready(env(1, 5, 0)));
        mb.push_arrival(Arrival::Ready(env(2, 6, 1)));
        assert!(mb
            .take_matching_arrival(SrcSel::From(Rank(1)), Tag::app(6))
            .is_none());
        assert!(mb
            .take_matching_arrival(SrcSel::From(Rank(2)), Tag::app(5))
            .is_none());
        let got = mb.take_matching_arrival(SrcSel::Any, Tag::app(6)).unwrap();
        assert_eq!(got.env().src, Rank(2));
    }

    #[test]
    fn posted_receives_match_in_post_order() {
        let mut mb = Mailbox::new();
        let s1 = RecvSlot::new();
        let s2 = RecvSlot::new();
        mb.push_posted(Posted {
            src: SrcSel::Any,
            tag: Tag::app(1),
            slot: Rc::clone(&s1),
        });
        mb.push_posted(Posted {
            src: SrcSel::Any,
            tag: Tag::app(1),
            slot: Rc::clone(&s2),
        });
        let e = env(3, 1, 0);
        let p = mb.take_matching_posted(&e).unwrap();
        assert!(Rc::ptr_eq(&p.slot, &s1));
        let p = mb.take_matching_posted(&e).unwrap();
        assert!(Rc::ptr_eq(&p.slot, &s2));
        assert!(mb.take_matching_posted(&e).is_none());
    }

    #[test]
    fn pulse_wakes_current_waiters_only() {
        use gcr_sim::Sim;
        let sim = Sim::new();
        let pulse = Pulse::new();
        let hits = Rc::new(std::cell::Cell::new(0));
        {
            let p = pulse.clone();
            let h = Rc::clone(&hits);
            sim.spawn(async move {
                p.wait_next().await;
                h.set(h.get() + 1);
            });
        }
        {
            let p = pulse.clone();
            sim.spawn(async move {
                // Give the waiter a chance to register, then pulse.
                p.pulse();
            });
        }
        sim.run().unwrap();
        assert_eq!(hits.get(), 1);
    }
}
