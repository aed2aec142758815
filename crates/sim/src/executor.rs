//! The deterministic sharded async executor at the heart of the DES.
//!
//! Simulated processes (MPI ranks, protocol daemons, the `mpirun`
//! controller…) are ordinary Rust futures. The executor interleaves them
//! cooperatively and advances a virtual clock: when no task is runnable, the
//! clock jumps to the next scheduled event. There is no real-time blocking
//! anywhere, so a full 128-rank run finishes in milliseconds of wall time.
//!
//! Pending events are partitioned into per-group *shards* (the private
//! `shard` module), each with its own timer heap. A conservative-window
//! merge picks the next instant: because every event carries a sequence
//! number from one global counter, the merged order is the exact total
//! order `(deadline, sequence)` no matter how many shards exist — shard
//! count is a layout choice, not a semantic one.
//!
//! Determinism: tasks are polled in FIFO wake order, events fire in
//! `(deadline, sequence-number)` order, and all randomness is drawn from a
//! seeded [`crate::rng::DetRng`]. Two runs with the same seed produce
//! identical event schedules, at any shard count.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::time::{SimDuration, SimTime};

// Only this module touches the shard heaps: the compiler rejects any
// other module that names a shard type.
mod shard;
use shard::{EventKind, EventSlot, HeapEntry, Shard, RUN_END};

/// Identifies a spawned task. Stable for the lifetime of the task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId {
    slot: usize,
    generation: u64,
}

/// A task's name: a static kind and an optional index, printed as the
/// kind followed by the index (`("rank", 17)` prints `rank17`). Kept
/// unformatted until a [`Deadlock`] report prints it, so a task's name
/// costs no allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskName {
    kind: &'static str,
    index: Option<u32>,
}

impl From<&'static str> for TaskName {
    fn from(kind: &'static str) -> Self {
        TaskName { kind, index: None }
    }
}

impl From<(&'static str, u32)> for TaskName {
    fn from((kind, index): (&'static str, u32)) -> Self {
        TaskName {
            kind,
            index: Some(index),
        }
    }
}

impl fmt::Display for TaskName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind)?;
        match self.index {
            Some(i) => write!(f, "{i}"),
            None => Ok(()),
        }
    }
}

/// Error returned by [`Sim::run`] when no task can make progress but live
/// tasks remain — i.e. every remaining task waits on an event that will
/// never fire. The names of the stuck tasks are reported to make protocol
/// deadlocks debuggable; with a sharded executor the shard of each stuck
/// task is reported too, so a stall that looks like a cross-shard window
/// that never closed can be localized to its group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// Simulated time at which the simulation stalled.
    pub at: SimTime,
    /// Names of the tasks that were still alive.
    pub stuck: Vec<TaskName>,
    /// Shard index of each stuck task, parallel to `stuck`.
    pub stuck_shards: Vec<u32>,
}

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation deadlocked at {} with {} stuck task(s): ",
            self.at,
            self.stuck.len()
        )?;
        let multi_shard = self.stuck_shards.iter().any(|&s| s != 0);
        for (i, name) in self.stuck.iter().take(8).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}")?;
            if multi_shard {
                if let Some(s) = self.stuck_shards.get(i) {
                    write!(f, "[shard {s}]")?;
                }
            }
        }
        if self.stuck.len() > 8 {
            write!(f, ", …")?;
        }
        if multi_shard {
            let mut shards: Vec<u32> = self.stuck_shards.clone();
            shards.sort_unstable();
            shards.dedup();
            write!(f, " (blocked across {} shard(s))", shards.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for Deadlock {}

/// Outcome of [`Sim::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All tasks completed before the horizon.
    AllDone,
    /// The horizon was reached with tasks still alive.
    HorizonReached,
}

/// Snapshot of executor counters, for benchmarks and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of event shards.
    pub shard_count: usize,
    /// Task polls performed.
    pub polls: u64,
    /// Events fired off the shard heaps (wakes and calls).
    pub events_fired: u64,
    /// Scheduled closures run (arena-allocated in-flight work).
    pub calls_run: u64,
    /// Clock advances (cross-shard merge decisions).
    pub merges: u64,
    /// Merge decisions that needed the slow same-instant cross-shard path.
    pub window_batches: u64,
    /// Events drained through the slow same-instant path.
    pub window_events: u64,
}

/// Work item on the ready FIFO. Besides woken tasks, the FIFO carries the
/// two-step lifecycle of scheduled calls: `CallInit` assigns the global
/// sequence number at the FIFO position where the old task-per-message
/// scheme performed its first poll (and timer registration), and `CallRun`
/// runs the closure at the position where that task would have been polled
/// after its timer fired. This is what keeps same-instant ordering
/// bit-identical with the pre-shard executor.
#[derive(Clone, Copy, Debug)]
enum ReadyItem {
    Task(TaskId),
    CallInit(u32, SimTime),
    CallRun(u32),
}

/// Wake state shared by a task's slab entry and its [`Waker`]s. Lives in
/// an `Rc`: the simulation is single-threaded, and [`thread_waker`] makes
/// every waker operation check that it runs on the owning thread.
struct TaskWaker {
    /// [`thread_waker::token`] of the thread that spawned the task. Never
    /// written after construction, so any thread may read it.
    owner: usize,
    slot: usize,
    generation: u64,
    queued: Cell<bool>,
    ready: Rc<ReadyQueue>,
}

impl TaskWaker {
    fn enqueue(&self) {
        if !self.queued.replace(true) {
            self.ready.push(ReadyItem::Task(TaskId {
                slot: self.slot,
                generation: self.generation,
            }));
        }
    }
}

/// Thread-bound [`Waker`]s over `Rc<TaskWaker>`: the only `unsafe` in the
/// executor.
///
/// A standard `Waker` is `Send + Sync`, but the simulation never leaves
/// the thread that built it, so the refcount and the ready FIFO need no
/// atomics. Every vtable entry first compares the waker's owner with the
/// calling thread's token. On a foreign thread `clone`, `wake` and
/// `wake_by_ref` panic, and `drop` leaks the count instead of touching
/// it; the `Rc` is only ever read or written by its owner.
mod thread_waker {
    use std::rc::Rc;
    use std::task::{RawWaker, RawWakerVTable, Waker};

    use super::TaskWaker;

    thread_local! {
        /// The address of a byte leaked on the thread's first use. Leaked
        /// memory is never reused, so no two threads of the process ever
        /// share a token, even after one of them has exited.
        static TOKEN: usize = Box::leak(Box::new(0u8)) as *const u8 as usize;
    }

    /// The calling thread's token.
    pub(super) fn token() -> usize {
        TOKEN.with(|t| *t)
    }

    /// Build the waker for `task`, taking over its count.
    pub(super) fn waker(task: Rc<TaskWaker>) -> Waker {
        let raw = RawWaker::new(Rc::into_raw(task).cast(), &VTABLE);
        // SAFETY: the data pointer owns one strong count of an
        // `Rc<TaskWaker>`, and every `VTABLE` entry honours the `RawWaker`
        // contract for it on the owning thread (see each entry).
        unsafe { Waker::from_raw(raw) }
    }

    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_waker);

    /// Whether the calling thread owns the waker at `data`.
    ///
    /// # Safety
    /// `data` must come from a live waker built by [`waker`].
    unsafe fn owned_here(data: *const ()) -> bool {
        // SAFETY: the caller's waker holds a count, so the `TaskWaker` is
        // alive; `owner` is never written after construction, so reading
        // it from a foreign thread does not race with the owner.
        let owner = unsafe { (*data.cast::<TaskWaker>()).owner };
        owner == token()
    }

    fn assert_owned(owned: bool) {
        assert!(
            owned,
            "a simulation task waker was used on a thread other than the one running its simulation"
        );
    }

    unsafe fn clone(data: *const ()) -> RawWaker {
        // SAFETY: `data` belongs to the waker being cloned.
        assert_owned(unsafe { owned_here(data) });
        // SAFETY: on the owning thread `data` is a live `Rc` pointer; the
        // new waker takes the extra count.
        unsafe { Rc::increment_strong_count(data.cast::<TaskWaker>()) };
        RawWaker::new(data, &VTABLE)
    }

    unsafe fn wake(data: *const ()) {
        // SAFETY: `data` belongs to the waker being consumed. On a foreign
        // thread the panic leaves its count untouched (a leak).
        assert_owned(unsafe { owned_here(data) });
        // SAFETY: on the owning thread, take over the consumed waker's count.
        let task = unsafe { Rc::from_raw(data.cast::<TaskWaker>()) };
        task.enqueue();
    }

    unsafe fn wake_by_ref(data: *const ()) {
        // SAFETY: `data` belongs to the borrowed waker.
        assert_owned(unsafe { owned_here(data) });
        // SAFETY: the borrowed waker keeps the `TaskWaker` alive, and only
        // the owning thread reaches this reference.
        unsafe { &*data.cast::<TaskWaker>() }.enqueue();
    }

    unsafe fn drop_waker(data: *const ()) {
        // SAFETY: `data` belongs to the waker being dropped.
        if unsafe { owned_here(data) } {
            // SAFETY: on the owning thread, release the dropped waker's count.
            drop(unsafe { Rc::from_raw(data.cast::<TaskWaker>()) });
        }
    }
}

/// FIFO of runnable work. A plain `RefCell`: task wakers are bound to the
/// simulation's thread (see [`thread_waker`]), so nothing else reaches it.
struct ReadyQueue {
    queue: RefCell<VecDeque<ReadyItem>>,
}

impl ReadyQueue {
    fn push(&self, item: ReadyItem) {
        self.queue.borrow_mut().push_back(item);
    }

    fn pop(&self) -> Option<ReadyItem> {
        self.queue.borrow_mut().pop_front()
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

struct Task {
    future: Option<BoxFuture>,
    name: TaskName,
    /// The task's waker, built once at spawn. [`Sim::poll_task`] lends it
    /// to each poll.
    waker: Waker,
    wake: Rc<TaskWaker>,
    generation: u64,
    /// Shard this task's timers are attributed to.
    shard: u32,
}

/// What to do for an event popped off a shard heap. Built in global
/// sequence order under the core borrow, executed after it is released.
enum FireOp {
    Wake(Waker),
    Run(u32),
}

struct Core {
    now: SimTime,
    /// Single global schedule counter — the tiebreak of the total order.
    event_seq: u64,
    shards: Vec<Shard>,
    /// Event arena; heaps and the ready FIFO refer to slots by index.
    events: Vec<EventSlot>,
    free_events: Vec<u32>,
    tasks: Vec<Option<Task>>,
    free_slots: Vec<usize>,
    live_tasks: usize,
    /// Calls scheduled but not yet run (they keep the simulation alive the
    /// way the in-flight tasks they replace did).
    pending_calls: usize,
    next_generation: u64,
    /// Shard of the task/call currently being polled; spawns and timer
    /// registrations inherit it.
    current_shard: u32,
    polls: u64,
    events_fired: u64,
    calls_run: u64,
    merges: u64,
    window_batches: u64,
    window_events: u64,
    /// Reusable scratch for the fire loop.
    fire_scratch: Vec<FireOp>,
    batch_scratch: Vec<HeapEntry>,
}

impl Core {
    fn alloc_event(&mut self, ev: EventSlot) -> u32 {
        match self.free_events.pop() {
            Some(slot) => {
                self.events[slot as usize] = ev;
                slot
            }
            None => {
                self.events.push(ev);
                (self.events.len() - 1) as u32
            }
        }
    }

    /// Convert a popped heap entry into its fire op. Wake slots are freed
    /// here; Call slots stay allocated until their `CallRun` drains.
    fn op_for(&mut self, entry: HeapEntry) -> FireOp {
        let wake = self
            .events
            .get_mut(entry.slot as usize)
            .and_then(|ev| ev.kind.take_if(|k| matches!(k, EventKind::Wake(_))));
        match wake {
            Some(EventKind::Wake(w)) => {
                self.free_events.push(entry.slot);
                FireOp::Wake(w)
            }
            _ => FireOp::Run(entry.slot),
        }
    }
}

/// A cheaply-cloneable handle to the simulation. All spawned futures
/// typically capture one.
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
    ready: Rc<ReadyQueue>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty single-shard simulation with the clock at zero.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Create an empty simulation with `shards` event shards. The shard
    /// count never affects the event order — only how pending events are
    /// partitioned — so any count is digest-equivalent to one shard.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                event_seq: 0,
                shards: (0..shards).map(|_| Shard::new()).collect(),
                events: Vec::new(),
                free_events: Vec::new(),
                tasks: Vec::new(),
                free_slots: Vec::new(),
                live_tasks: 0,
                pending_calls: 0,
                next_generation: 0,
                current_shard: 0,
                polls: 0,
                events_fired: 0,
                calls_run: 0,
                merges: 0,
                window_batches: 0,
                window_events: 0,
                fire_scratch: Vec::new(),
                batch_scratch: Vec::new(),
            })),
            ready: Rc::new(ReadyQueue {
                queue: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Number of event shards.
    pub fn shard_count(&self) -> usize {
        self.core.borrow().shards.len()
    }

    /// Total number of task polls performed so far (diagnostic).
    pub fn poll_count(&self) -> u64 {
        self.core.borrow().polls
    }

    /// Number of events currently waiting in the shards.
    pub fn pending_events(&self) -> usize {
        self.core.borrow().shards.iter().map(|s| s.len()).sum()
    }

    /// Snapshot of kernel counters (polls, fired events, merge behavior).
    pub fn stats(&self) -> SimStats {
        let core = self.core.borrow();
        SimStats {
            shard_count: core.shards.len(),
            polls: core.polls,
            events_fired: core.events_fired,
            calls_run: core.calls_run,
            merges: core.merges,
            window_batches: core.window_batches,
            window_events: core.window_events,
        }
    }

    /// Spawn a named task on the shard of the current task (shard 0 when
    /// spawned from outside the executor). The name appears in deadlock
    /// reports.
    pub fn spawn_named<F>(&self, name: impl Into<TaskName>, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let shard = self.core.borrow().current_shard;
        self.spawn_on_shard(shard, name, fut)
    }

    /// Spawn a named task attributed to `shard` (taken modulo the shard
    /// count). Attribution decides which heap the task's timers wait in;
    /// it never affects ordering.
    pub fn spawn_named_on<F>(&self, shard: usize, name: impl Into<TaskName>, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let count = self.core.borrow().shards.len();
        self.spawn_on_shard((shard % count) as u32, name, fut)
    }

    fn spawn_on_shard<F>(&self, shard: u32, name: impl Into<TaskName>, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let mut core = self.core.borrow_mut();
        let shard = shard % core.shards.len() as u32;
        let generation = core.next_generation;
        core.next_generation += 1;
        let slot = core.free_slots.pop().unwrap_or_else(|| {
            core.tasks.push(None);
            core.tasks.len() - 1
        });
        let wake = Rc::new(TaskWaker {
            owner: thread_waker::token(),
            slot,
            generation,
            queued: Cell::new(true), // spawned tasks start on the ready queue
            ready: Rc::clone(&self.ready),
        });
        core.tasks[slot] = Some(Task {
            future: Some(Box::pin(fut)),
            name: name.into(),
            waker: thread_waker::waker(Rc::clone(&wake)),
            wake,
            generation,
            shard,
        });
        core.live_tasks += 1;
        drop(core);
        let id = TaskId { slot, generation };
        self.ready.push(ReadyItem::Task(id));
        id
    }

    /// Spawn an anonymous task.
    pub fn spawn<F>(&self, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_named("task", fut)
    }

    /// Schedule `waker` to be invoked at absolute time `at`.
    /// This is the primitive all timed futures are built on.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_waker(&self, at: SimTime, waker: Waker) {
        let mut core = self.core.borrow_mut();
        assert!(
            at >= core.now,
            "cannot schedule a waker in the past ({} < {})",
            at,
            core.now
        );
        let seq = core.event_seq;
        core.event_seq += 1;
        let shard = core.current_shard;
        let slot = core.alloc_event(EventSlot {
            seq,
            next: RUN_END,
            shard,
            kind: Some(EventKind::Wake(waker)),
        });
        let Core { shards, events, .. } = &mut *core;
        shards[shard as usize].push(HeapEntry { at, seq, slot }, events);
    }

    /// Schedule `f` to run on the executor at absolute time `at`,
    /// attributed to the current shard. This is the arena-allocated
    /// replacement for spawning a task that sleeps and then acts: no
    /// future, no task slot, no waker — one event slot and one closure.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_call(&self, at: SimTime, f: impl FnOnce() + 'static) {
        let shard = self.core.borrow().current_shard;
        self.schedule_call_on(shard as usize, at, f);
    }

    /// Schedule `f` to run at `at`, attributed to `shard` (taken modulo
    /// the shard count). Cross-shard message deliveries use this with the
    /// destination's shard.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_call_on(&self, shard: usize, at: SimTime, f: impl FnOnce() + 'static) {
        let mut core = self.core.borrow_mut();
        assert!(
            at >= core.now,
            "cannot schedule a call in the past ({} < {})",
            at,
            core.now
        );
        let shard = (shard % core.shards.len()) as u32;
        let slot = core.alloc_event(EventSlot {
            seq: 0,
            next: RUN_END,
            shard,
            kind: Some(EventKind::Call(Box::new(f))),
        });
        core.pending_calls += 1;
        drop(core);
        // The sequence number is assigned when this drains — the same FIFO
        // position where the task-per-message scheme registered its timer.
        self.ready.push(ReadyItem::CallInit(slot, at));
    }

    /// A future that completes at absolute simulated time `deadline`.
    /// Completes immediately if `deadline` has already passed.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            registered: false,
        }
    }

    /// A future that completes after `dur` of simulated time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        let deadline = self.now() + dur;
        self.sleep_until(deadline)
    }

    /// Yield to other ready tasks without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Run until all tasks complete.
    ///
    /// # Errors
    /// Returns [`Deadlock`] if live tasks remain but no timer or wake can
    /// ever run them again.
    pub fn run(&self) -> Result<(), Deadlock> {
        match self.run_inner(SimTime::MAX) {
            Ok(_) => Ok(()),
            Err(d) => Err(d),
        }
    }

    /// Run until all tasks complete or the clock would pass `horizon`.
    /// Timers at exactly `horizon` still fire.
    ///
    /// # Errors
    /// Returns [`Deadlock`] on a stall before the horizon.
    pub fn run_until(&self, horizon: SimTime) -> Result<RunOutcome, Deadlock> {
        self.run_inner(horizon)
    }

    fn run_inner(&self, horizon: SimTime) -> Result<RunOutcome, Deadlock> {
        loop {
            // Drain the ready FIFO.
            while let Some(item) = self.ready.pop() {
                match item {
                    ReadyItem::Task(id) => self.poll_task(id),
                    ReadyItem::CallInit(slot, at) => self.init_call(slot, at),
                    ReadyItem::CallRun(slot) => self.run_call(slot),
                }
            }
            let mut guard = self.core.borrow_mut();
            let core = &mut *guard;
            if core.live_tasks == 0 && core.pending_calls == 0 {
                return Ok(RunOutcome::AllDone);
            }
            // No runnable work: merge the shard heads. The winner is the
            // global minimum `(at, seq)`; `other_at` tracks the earliest
            // deadline in any *other* shard, which decides whether the
            // winning instant can be drained from one shard alone.
            let mut best: Option<(SimTime, u64, usize)> = None;
            let mut other_at: Option<SimTime> = None;
            for i in 0..core.shards.len() {
                if let Some((at, seq)) = core.shards[i].head() {
                    match best {
                        None => best = Some((at, seq, i)),
                        Some((bat, bseq, _)) => {
                            if (at, seq) < (bat, bseq) {
                                other_at = Some(other_at.map_or(bat, |o| o.min(bat)));
                                best = Some((at, seq, i));
                            } else {
                                other_at = Some(other_at.map_or(at, |o| o.min(at)));
                            }
                        }
                    }
                }
            }
            match best {
                Some((at, _, shard)) if at <= horizon => {
                    core.now = at;
                    core.merges += 1;
                    let mut ops = std::mem::take(&mut core.fire_scratch);
                    ops.clear();
                    if other_at != Some(at) {
                        // Conservative-window fast path: every event at
                        // this instant lives in one shard, whose heap
                        // already yields them in sequence order.
                        while let Some(entry) = core.shards[shard].pop_at(at, &core.events) {
                            let op = core.op_for(entry);
                            ops.push(op);
                        }
                    } else {
                        // Slow path: the instant spans shards; collect and
                        // restore the global sequence order explicitly.
                        core.window_batches += 1;
                        let mut batch = std::mem::take(&mut core.batch_scratch);
                        batch.clear();
                        for i in 0..core.shards.len() {
                            while let Some(entry) = core.shards[i].pop_at(at, &core.events) {
                                batch.push(entry);
                            }
                        }
                        batch.sort_unstable_by_key(|e| e.seq);
                        core.window_events += batch.len() as u64;
                        for entry in batch.drain(..) {
                            let op = core.op_for(entry);
                            ops.push(op);
                        }
                        core.batch_scratch = batch;
                    }
                    core.events_fired += ops.len() as u64;
                    drop(guard);
                    for op in ops.drain(..) {
                        match op {
                            FireOp::Wake(w) => w.wake(),
                            FireOp::Run(slot) => self.ready.push(ReadyItem::CallRun(slot)),
                        }
                    }
                    self.core.borrow_mut().fire_scratch = ops;
                }
                Some(_) => return Ok(RunOutcome::HorizonReached),
                None => {
                    // Live work but no pending event can ever fire. Calls
                    // always sit in a shard run once initialized (and the
                    // FIFO is drained), so this is a pure task deadlock.
                    let mut stuck = Vec::new();
                    let mut stuck_shards = Vec::new();
                    for t in core.tasks.iter().flatten() {
                        if t.future.is_some() {
                            stuck.push(t.name);
                            stuck_shards.push(t.shard);
                        }
                    }
                    return Err(Deadlock {
                        at: core.now,
                        stuck,
                        stuck_shards,
                    });
                }
            }
        }
    }

    /// Second half of `schedule_call`: assign the global sequence number
    /// and move the event into its shard heap.
    fn init_call(&self, slot: u32, at: SimTime) {
        let mut guard = self.core.borrow_mut();
        let Core {
            event_seq,
            shards,
            events,
            ..
        } = &mut *guard;
        let Some(ev) = events.get_mut(slot as usize) else {
            return;
        };
        let seq = *event_seq;
        *event_seq += 1;
        ev.seq = seq;
        let shard = ev.shard;
        shards[shard as usize].push(HeapEntry { at, seq, slot }, events);
    }

    /// Final half of a scheduled call: take the closure, free the slot,
    /// run the closure with the core released.
    fn run_call(&self, slot: u32) {
        let f = {
            let mut core = self.core.borrow_mut();
            let taken = core
                .events
                .get_mut(slot as usize)
                .and_then(|e| e.kind.take());
            match taken {
                Some(EventKind::Call(f)) => {
                    let shard = core.events[slot as usize].shard;
                    core.free_events.push(slot);
                    core.pending_calls -= 1;
                    core.calls_run += 1;
                    core.current_shard = shard;
                    f
                }
                Some(EventKind::Wake(w)) => {
                    // Defensive: never produced by the fire loop.
                    core.free_events.push(slot);
                    drop(core);
                    w.wake();
                    return;
                }
                None => return,
            }
        };
        f();
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future and the waker out of the slab so the core is not
        // borrowed while the task body runs (the body will re-borrow it).
        let (mut fut, waker) = {
            let mut core = self.core.borrow_mut();
            let task = match core.tasks.get_mut(id.slot) {
                Some(Some(task)) if task.generation == id.generation => task,
                _ => return, // task already finished; stale wake
            };
            task.wake.queued.set(false);
            let Some(fut) = task.future.take() else {
                return;
            };
            let waker = std::mem::replace(&mut task.waker, Waker::noop().clone());
            core.current_shard = task.shard;
            core.polls += 1;
            (fut, waker)
        };
        let ready = fut
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_ready();
        // The future and waker drop after this borrow ends: a future's
        // destructor may re-enter the executor.
        let mut core = self.core.borrow_mut();
        let Some(Some(task)) = core.tasks.get_mut(id.slot) else {
            return;
        };
        if task.generation != id.generation {
            return;
        }
        if !ready {
            task.future = Some(fut);
            task.waker = waker;
            return;
        }
        core.tasks[id.slot] = None;
        core.free_slots.push(id.slot);
        core.live_tasks -= 1;
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            self.sim.schedule_waker(self.deadline, cx.waker().clone());
        }
        Poll::Pending
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn empty_sim_finishes_immediately() {
        let sim = Sim::new();
        sim.run().unwrap();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let observed = Rc::new(Cell::new(SimTime::ZERO));
        let obs = Rc::clone(&observed);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(5)).await;
            obs.set(s.now());
        });
        sim.run().unwrap();
        assert_eq!(observed.get(), SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, delay_ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let s = sim.clone();
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(delay_ms)).await;
                ord.borrow_mut().push(label);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_timers_fire_in_schedule_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for label in 0..10 {
            let s = sim.clone();
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(5)).await;
                ord.borrow_mut().push(label);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn simultaneous_timers_fire_in_schedule_order_across_shards() {
        // Same program as above, but each task parks its timer in a
        // different shard: the same-instant merge must restore the global
        // schedule order, not the per-shard one.
        let sim = Sim::with_shards(4);
        let order = Rc::new(RefCell::new(Vec::new()));
        for label in 0..10usize {
            let s = sim.clone();
            let ord = Rc::clone(&order);
            sim.spawn_named_on(label % 4, ("t", label as u32), async move {
                s.sleep(SimDuration::from_millis(5)).await;
                ord.borrow_mut().push(label);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
        let stats = sim.stats();
        assert_eq!(stats.shard_count, 4);
        assert!(
            stats.window_batches >= 1,
            "same-instant merge should engage"
        );
    }

    #[test]
    fn shard_count_does_not_change_event_order() {
        // A mix of staggered and simultaneous timers spread over shards
        // must produce the identical firing order at every shard count.
        let run = |shards: usize| {
            let sim = Sim::with_shards(shards);
            let order = Rc::new(RefCell::new(Vec::new()));
            for label in 0..12usize {
                let s = sim.clone();
                let ord = Rc::clone(&order);
                sim.spawn_named_on(label % 5, ("t", label as u32), async move {
                    s.sleep(SimDuration::from_millis((label as u64 % 3) * 7))
                        .await;
                    ord.borrow_mut().push(label);
                    s.sleep(SimDuration::from_millis(11)).await;
                    ord.borrow_mut().push(100 + label);
                });
            }
            sim.run().unwrap();
            Rc::try_unwrap(order).unwrap().into_inner()
        };
        let base = run(1);
        assert_eq!(run(4), base);
        assert_eq!(run(16), base);
    }

    #[test]
    fn scheduled_calls_run_at_their_deadline() {
        let sim = Sim::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let s = sim.clone();
        let h = Rc::clone(&hits);
        sim.spawn(async move {
            let at = s.now() + SimDuration::from_millis(5);
            let (s2, h2) = (s.clone(), Rc::clone(&h));
            s.schedule_call(at, move || h2.borrow_mut().push(s2.now()));
            s.sleep(SimDuration::from_millis(10)).await;
            h.borrow_mut().push(s.now());
        });
        sim.run().unwrap();
        assert_eq!(
            *hits.borrow(),
            vec![SimTime::from_millis(5), SimTime::from_millis(10)]
        );
        assert_eq!(sim.stats().calls_run, 1);
    }

    #[test]
    fn calls_and_sleeps_at_same_instant_keep_schedule_order() {
        // Interleave sleeps and scheduled calls with the same deadline:
        // they must fire in the order they were scheduled, across shards.
        let run = |shards: usize| {
            let sim = Sim::with_shards(shards);
            let order = Rc::new(RefCell::new(Vec::new()));
            for label in 0..8usize {
                let s = sim.clone();
                let ord = Rc::clone(&order);
                sim.spawn_named_on(label % 3, ("t", label as u32), async move {
                    let at = s.now() + SimDuration::from_millis(5);
                    if label % 2 == 0 {
                        let ord2 = Rc::clone(&ord);
                        s.schedule_call_on(label, at, move || ord2.borrow_mut().push(label));
                    } else {
                        s.sleep_until(at).await;
                        ord.borrow_mut().push(label);
                    }
                });
            }
            sim.run().unwrap();
            Rc::try_unwrap(order).unwrap().into_inner()
        };
        let base = run(1);
        assert_eq!(run(4), base);
        assert_eq!(run(16), base);
    }

    #[test]
    fn pending_calls_keep_the_sim_alive() {
        let sim = Sim::new();
        let done = Rc::new(Cell::new(false));
        let s = sim.clone();
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let at = s.now() + SimDuration::from_secs(3);
            s.schedule_call(at, move || d.set(true));
            // Task completes immediately; the call alone must keep the
            // run loop going.
        });
        sim.run().unwrap();
        assert!(done.get());
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn yield_now_reschedules_without_time() {
        let sim = Sim::new();
        let count = Rc::new(Cell::new(0));
        let c = Rc::clone(&count);
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..100 {
                s.yield_now().await;
                c.set(c.get() + 1);
            }
        });
        sim.run().unwrap();
        assert_eq!(count.get(), 100);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn deadlock_is_reported_with_names() {
        let sim = Sim::new();
        sim.spawn_named("waits-forever", std::future::pending::<()>());
        sim.spawn_named(("rank", 7), std::future::pending::<()>());
        let err = sim.run().unwrap_err();
        assert_eq!(err.stuck, vec!["waits-forever".into(), ("rank", 7).into()]);
        // The text chaos violations embed: kind and index run together.
        assert_eq!(
            err.to_string(),
            "simulation deadlocked at 0ns with 2 stuck task(s): waits-forever, rank7"
        );
    }

    #[test]
    fn multi_shard_deadlock_reports_blocked_shards() {
        // A quiescent multi-shard run must terminate with a deadlock
        // report naming the blocked tasks and their shards — not hang
        // waiting for a cross-shard window that never closes.
        let sim = Sim::with_shards(4);
        sim.spawn_named_on(1, "stuck-a", std::future::pending::<()>());
        sim.spawn_named_on(3, "stuck-b", std::future::pending::<()>());
        let err = sim.run().unwrap_err();
        assert_eq!(err.stuck, vec!["stuck-a".into(), "stuck-b".into()]);
        assert_eq!(err.stuck_shards, vec![1, 3]);
        let msg = err.to_string();
        assert!(msg.contains("stuck-a[shard 1]"), "got: {msg}");
        assert!(msg.contains("2 shard(s)"), "got: {msg}");
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(100)).await;
        });
        let outcome = sim.run_until(SimTime::from_secs(10)).unwrap();
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.core.borrow().live_tasks, 1);
        // Resuming without a horizon finishes the task.
        sim.run().unwrap();
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn nested_spawns_run() {
        let sim = Sim::new();
        let hits = Rc::new(Cell::new(0));
        let s = sim.clone();
        let h = Rc::clone(&hits);
        sim.spawn(async move {
            for i in 0..5 {
                let s2 = s.clone();
                let h2 = Rc::clone(&h);
                s.spawn(async move {
                    s2.sleep(SimDuration::from_millis(i)).await;
                    h2.set(h2.get() + 1);
                });
            }
        });
        sim.run().unwrap();
        assert_eq!(hits.get(), 5);
    }

    #[test]
    fn sleep_zero_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            s.sleep(SimDuration::ZERO).await;
            d.set(true);
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn task_slots_are_reused_safely() {
        let sim = Sim::new();
        // First generation of tasks.
        for _ in 0..4 {
            sim.spawn(async {});
        }
        sim.run().unwrap();
        // Second generation reuses slots; stale wakes must not corrupt them.
        let count = Rc::new(Cell::new(0));
        for _ in 0..4 {
            let s = sim.clone();
            let c = Rc::clone(&count);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(1)).await;
                c.set(c.get() + 1);
            });
        }
        sim.run().unwrap();
        assert_eq!(count.get(), 4);
    }

    #[test]
    fn consecutive_polls_see_one_waker() {
        let sim = Sim::new();
        let seen: Rc<RefCell<Vec<Waker>>> = Rc::new(RefCell::new(Vec::new()));
        let s = sim.clone();
        let mut body = Box::pin(async move {
            s.yield_now().await;
            s.sleep(SimDuration::from_millis(1)).await;
        });
        let log = Rc::clone(&seen);
        sim.spawn(std::future::poll_fn(move |cx| {
            log.borrow_mut().push(cx.waker().clone());
            body.as_mut().poll(cx)
        }));
        sim.run().unwrap();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3, "a wake_by_ref, a timer, then completion");
        assert!(seen.windows(2).all(|w| w[0].will_wake(&w[1])));
        assert!(!seen[0].will_wake(Waker::noop()));
    }

    #[test]
    fn task_wakers_are_bound_to_the_simulation_thread() {
        let sim = Sim::new();
        let parked: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let done = Rc::new(Cell::new(false));
        let (p, d) = (Rc::clone(&parked), Rc::clone(&done));
        let id = sim.spawn(std::future::poll_fn(move |cx| {
            if p.borrow().is_some() {
                d.set(true);
                return Poll::Ready(());
            }
            *p.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }));
        assert!(sim.run().is_err(), "the task waits on its parked waker");
        let waker = parked.borrow().clone().unwrap();
        let count = || {
            let core = sim.core.borrow();
            Rc::strong_count(&core.tasks[id.slot].as_ref().unwrap().wake)
        };
        let before = count();

        // Every use on a foreign thread panics; every foreign drop (the
        // plain one and the ones during unwinding) leaks its count.
        let w = waker.clone();
        assert!(std::thread::spawn(move || w.wake()).join().is_err());
        let w = waker.clone();
        assert!(std::thread::spawn(move || w.wake_by_ref()).join().is_err());
        let w = waker.clone();
        assert!(std::thread::spawn(move || drop(w.clone())).join().is_err());
        let w = waker.clone();
        std::thread::spawn(move || drop(w)).join().unwrap();
        assert_eq!(count(), before + 4);
        assert!(
            sim.ready.pop().is_none(),
            "no foreign wake reached the FIFO"
        );

        waker.wake();
        sim.run().unwrap();
        assert!(done.get());
        assert_eq!(sim.core.borrow().live_tasks, 0);
    }

    #[test]
    fn event_slots_are_reused() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..100 {
                s.sleep(SimDuration::from_millis(1)).await;
            }
        });
        sim.run().unwrap();
        // One live sleep at a time: the arena should stay tiny.
        assert!(sim.core.borrow().events.len() <= 2);
        assert_eq!(sim.stats().events_fired, 100);
    }

    #[test]
    fn pending_events_count_events_not_runs() {
        let sim = Sim::new();
        let at = SimTime::from_millis(5);
        let s = sim.clone();
        sim.spawn(async move { s.sleep_until(at).await });
        for _ in 0..3 {
            sim.schedule_waker(at, Waker::noop().clone());
        }
        assert_eq!(sim.pending_events(), 3);
        sim.run().unwrap();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.stats().events_fired, 4);
    }
}
