//! Synchronization primitives for simulated tasks.
//!
//! These cost **zero simulated time** by themselves — they only order task
//! execution within an instant. Anything that should take time (network
//! transfers, disk writes, computation) must go through [`crate::Sim::sleep`]
//! or a [`crate::resource::FifoResource`].

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Wakes every waker in the list, draining it.
fn wake_all(waiters: &mut Vec<Waker>) {
    for w in waiters.drain(..) {
        w.wake();
    }
}

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

/// A reusable open/closed gate. Tasks `await` [`Gate::wait_open`]; while the
/// gate is closed they park, and opening the gate releases them all.
///
/// Used to model "MPI is locked" / "sends are suspended" windows in the
/// checkpoint protocols.
#[derive(Clone)]
pub struct Gate {
    inner: Rc<RefCell<GateInner>>,
}

struct GateInner {
    open: bool,
    waiters: Vec<Waker>,
}

impl Gate {
    /// Create a gate in the given initial state.
    pub fn new(open: bool) -> Self {
        Gate {
            inner: Rc::new(RefCell::new(GateInner {
                open,
                waiters: Vec::new(),
            })),
        }
    }

    /// Open the gate, releasing all waiting tasks.
    pub fn open(&self) {
        let mut g = self.inner.borrow_mut();
        g.open = true;
        wake_all(&mut g.waiters);
    }

    /// Close the gate; subsequent waiters park until it reopens.
    pub fn close(&self) {
        self.inner.borrow_mut().open = false;
    }

    /// Completes once the gate is open (immediately if already open).
    pub fn wait_open(&self) -> GateWait {
        GateWait { gate: self.clone() }
    }
}

/// Future returned by [`Gate::wait_open`].
pub struct GateWait {
    gate: Gate,
}

impl Future for GateWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut g = self.gate.inner.borrow_mut();
        if g.open {
            Poll::Ready(())
        } else {
            g.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

/// A one-shot event: once [`Event::set`] is called every current and future
/// waiter completes. Cannot be reset.
#[derive(Clone)]
pub struct Event {
    inner: Rc<RefCell<EventInner>>,
}

struct EventInner {
    set: bool,
    waiters: Vec<Waker>,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl Event {
    /// Create an unset event.
    pub fn new() -> Self {
        Event {
            inner: Rc::new(RefCell::new(EventInner {
                set: false,
                waiters: Vec::new(),
            })),
        }
    }

    /// Fire the event. Idempotent.
    pub fn set(&self) {
        let mut e = self.inner.borrow_mut();
        if !e.set {
            e.set = true;
            wake_all(&mut e.waiters);
        }
    }

    /// Completes once the event has fired.
    pub fn wait(&self) -> EventWait {
        EventWait {
            event: self.clone(),
        }
    }
}

/// Future returned by [`Event::wait`].
pub struct EventWait {
    event: Event,
}

impl Future for EventWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut e = self.event.inner.borrow_mut();
        if e.set {
            Poll::Ready(())
        } else {
            e.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

/// Go-style wait group: `add` registers pending work, `done` retires it,
/// `wait` completes when the count reaches zero.
///
/// Used for "wait until all group members finish taking the checkpoint".
#[derive(Clone)]
pub struct WaitGroup {
    inner: Rc<RefCell<WgInner>>,
}

struct WgInner {
    count: usize,
    waiters: Vec<Waker>,
}

impl Default for WaitGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitGroup {
    /// Create an empty wait group (count 0).
    pub fn new() -> Self {
        WaitGroup {
            inner: Rc::new(RefCell::new(WgInner {
                count: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Register `n` additional units of pending work.
    pub fn add(&self, n: usize) {
        self.inner.borrow_mut().count += n;
    }

    /// Retire one unit of work.
    ///
    /// # Panics
    /// Panics if the count is already zero.
    pub fn done(&self) {
        let mut w = self.inner.borrow_mut();
        assert!(w.count > 0, "WaitGroup::done called more times than add");
        w.count -= 1;
        if w.count == 0 {
            wake_all(&mut w.waiters);
        }
    }

    /// Current outstanding count.
    pub fn count(&self) -> usize {
        self.inner.borrow().count
    }

    /// Completes when the count is zero (immediately if already zero).
    pub fn wait(&self) -> WgWait {
        WgWait { wg: self.clone() }
    }
}

/// Future returned by [`WaitGroup::wait`].
pub struct WgWait {
    wg: WaitGroup,
}

impl Future for WgWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut w = self.wg.inner.borrow_mut();
        if w.count == 0 {
            Poll::Ready(())
        } else {
            w.waiters.push(cx.waker().clone());
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
    fn gate_blocks_until_open() {
        let sim = Sim::new();
        let gate = Gate::new(false);
        let passed = Rc::new(Cell::new(false));
        {
            let g = gate.clone();
            let p = Rc::clone(&passed);
            sim.spawn(async move {
                g.wait_open().await;
                p.set(true);
            });
        }
        {
            let g = gate.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_secs(1)).await;
                g.open();
            });
        }
        sim.run().unwrap();
        assert!(passed.get());
        assert_eq!(sim.now().as_secs_f64(), 1.0);
    }

    #[test]
    fn gate_reusable_after_close() {
        let sim = Sim::new();
        let gate = Gate::new(true);
        gate.close();
        gate.open();
        let g = gate.clone();
        sim.spawn(async move {
            g.wait_open().await; // open: passes immediately
        });
        sim.run().unwrap();
    }

    #[test]
    fn event_releases_all_waiters() {
        let sim = Sim::new();
        let event = Event::new();
        let count = Rc::new(Cell::new(0));
        for _ in 0..5 {
            let e = event.clone();
            let c = Rc::clone(&count);
            sim.spawn(async move {
                e.wait().await;
                c.set(c.get() + 1);
            });
        }
        let e = event.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_millis(10)).await;
            e.set();
        });
        sim.run().unwrap();
        assert_eq!(count.get(), 5);
        // Late waiters also pass.
        let c = Rc::clone(&count);
        let e2 = event.clone();
        sim.spawn(async move {
            e2.wait().await;
            c.set(c.get() + 1);
        });
        sim.run().unwrap();
        assert_eq!(count.get(), 6);
    }

    #[test]
    fn waitgroup_waits_for_all() {
        let sim = Sim::new();
        let wg = WaitGroup::new();
        wg.add(3);
        let finished = Rc::new(Cell::new(false));
        {
            let w = wg.clone();
            let f = Rc::clone(&finished);
            sim.spawn(async move {
                w.wait().await;
                f.set(true);
            });
        }
        for i in 0..3u64 {
            let w = wg.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(i * 5)).await;
                w.done();
            });
        }
        sim.run().unwrap();
        assert!(finished.get());
        assert_eq!(wg.count(), 0);
    }

    #[test]
    fn waitgroup_zero_passes_immediately() {
        let sim = Sim::new();
        let wg = WaitGroup::new();
        let w = wg.clone();
        sim.spawn(async move { w.wait().await });
        sim.run().unwrap();
    }
}
