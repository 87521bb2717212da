//! The per-LP kernel every engine runs on.
//!
//! Each engine is a synchronization policy around this shared machinery:
//! the [`Outbox`] stamping drain (tie keys in staging order, routing over
//! declared edges only), the [`Kernel`] event state with its pop, traced
//! delivery and flush steps and the conservative lower bound, the
//! [`run_per_thread`] executor, and the one way a thread waits (a bounded
//! spin, then a park: [`Inbox::recv`] and [`Parking`]). The engines keep
//! only *when* an event is safe to pop, *how* events and promises reach a
//! neighbor, and *what* a waiting thread waits for.

use crate::lp::{tie_key, validate_edges, InitialEvents, LogicalProcess, LpCtx, LpId, Outgoing};
use lsds_core::{BinaryHeapQueue, EventQueue, PooledQueue, ScheduledEvent, SimTime, NO_PARENT};
use lsds_obs::{SpanKind, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryIter, TryRecvError};
use std::sync::{Condvar, Mutex, PoisonError};

/// Polls of a wait condition before the waiting thread parks. At ~18 ns
/// per `spin_loop` iteration on a 2-vCPU Xeon this is ~4-5 µs: long
/// enough to catch a peer's hand-off on a core of its own, short of a
/// futex sleep/wake round trip.
const SPIN_POLLS: u32 = 256;

/// The spin budget of an engine that runs `threads` threads at once: none
/// when they outnumber the cores, where a spinning waiter only holds a
/// core the thread it waits for may need.
fn spin_budget(threads: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if threads > cores {
        0
    } else {
        SPIN_POLLS
    }
}

/// Polls `poll` up to `budget` times, hinting a spin loop between polls,
/// and returns its first `Some`.
#[inline]
fn spin<T>(budget: u32, mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..budget {
        if let Some(v) = poll() {
            return Some(v);
        }
        std::hint::spin_loop();
    }
    None
}

/// An LP thread's mailbox.
pub(crate) struct Inbox<P> {
    rx: Receiver<P>,
    /// Spin budget of the run, from [`spin_budget`].
    spin: u32,
}

impl<P> Inbox<P> {
    /// The next packet, if one is waiting.
    #[inline]
    pub(crate) fn try_recv(&self) -> Result<P, TryRecvError> {
        self.rx.try_recv()
    }

    /// Every packet waiting now.
    pub(crate) fn try_iter(&self) -> TryIter<'_, P> {
        self.rx.try_iter()
    }

    /// Waits for the next packet: polls for the spin budget, then parks
    /// in a blocking receive. Fails once every sender is gone and the
    /// channel is drained.
    pub(crate) fn recv(&self) -> Result<P, RecvError> {
        spin(self.spin, || match self.rx.try_recv() {
            Ok(p) => Some(Ok(p)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
        })
        .unwrap_or_else(|| self.rx.recv())
    }
}

/// Threads waiting for a condition on shared state, woken only when one
/// of them sleeps.
///
/// A waiter polls the condition for its spin budget, then registers as a
/// sleeper and re-checks the condition under the lock before each park.
/// A notifier first publishes the state the condition reads, then reads
/// the sleeper count; both sides use `SeqCst`, so either the notifier
/// sees the sleeper and wakes it under the lock, or the sleeper's
/// re-check sees the published state. No wake-up is lost, and a notifier
/// with no sleeper makes no syscall.
pub(crate) struct Parking {
    /// Spin budget of a waiter, from [`spin_budget`].
    spin: u32,
    sleepers: AtomicUsize,
    /// Guards nothing but the re-check-then-park step; the state lives
    /// in the callers' atomics.
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parking {
    /// Parking for the waiters of an engine that runs `threads` threads.
    pub(crate) fn new(threads: usize) -> Self {
        Parking {
            spin: spin_budget(threads),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Returns once `ready()` holds: polls it for the spin budget, then
    /// parks until a notifier wakes the thread and it holds. `ready` must
    /// read only state its notifiers publish with `SeqCst` before
    /// notifying. Returns whether the thread parked.
    pub(crate) fn wait(&self, ready: impl Fn() -> bool) -> bool {
        if spin(self.spin, || ready().then_some(())).is_some() {
            return false;
        }
        self.sleepers.fetch_add(1, SeqCst);
        // The mutex guards `()`, so a poisoned lock holds nothing broken.
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let mut parked = false;
        while !ready() {
            parked = true;
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);
        self.sleepers.fetch_sub(1, SeqCst);
        parked
    }

    /// Wakes one sleeper, if any; call after publishing the state.
    pub(crate) fn wake_one(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_one();
        }
    }

    /// Wakes every sleeper, if any; call after publishing the state.
    pub(crate) fn wake_all(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_all();
        }
    }
}

/// An LP's staged sends and the stamping/routing step that drains them.
pub(crate) struct Outbox<M> {
    me: LpId,
    /// Declared out-neighbors, in declaration order.
    outs: Vec<LpId>,
    /// Next per-source sequence number of this LP's tie keys. Time Warp
    /// rewinds it on rollback so re-execution regenerates the same keys.
    pub(crate) seq: u64,
    staged: Vec<Outgoing<M>>,
}

impl<M> Outbox<M> {
    /// An empty outbox for LP `me`, which may send only to `outs`.
    pub(crate) fn new(me: LpId, outs: Vec<LpId>) -> Self {
        Outbox {
            me,
            outs,
            seq: 0,
            staged: Vec::new(),
        }
    }

    /// The handler context for an event at `now` caused by `cause`; sends
    /// are held to `lookahead`.
    #[inline]
    pub(crate) fn ctx(&mut self, now: SimTime, lookahead: f64, cause: u64) -> LpCtx<'_, M> {
        LpCtx {
            now,
            me: self.me,
            lookahead,
            cause,
            staged: &mut self.staged,
        }
    }

    /// Stages `lp`'s t = 0 initial events.
    pub(crate) fn stage_initial<L>(&mut self, lp: &mut L, lookahead: f64)
    where
        L: InitialEvents<Msg = M>,
    {
        lp.initial_events(&mut self.ctx(SimTime::ZERO, lookahead, NO_PARENT));
    }

    /// The stamping drain: assigns tie keys in staging order and hands
    /// each staged event to `route(to, edge, event)`. `to` is the
    /// receiving LP; `edge` is the sender's out-edge number (the position
    /// of `to` among its out-neighbors), or `None` for a local event.
    ///
    /// Panics on a send to an LP this one declared no edge to, so a model
    /// that strays off its topology fails the same way on every engine
    /// instead of being dropped by some and delivered by others.
    // `always` here and on `Kernel::{deliver, flush}`: plain hints left them
    // out of line in the work-stealing loop (6-13% CPU on zipf_32lp).
    #[inline(always)]
    pub(crate) fn drain(&mut self, mut route: impl FnMut(LpId, Option<usize>, ScheduledEvent<M>)) {
        for out in self.staged.drain(..) {
            let tie = tie_key(self.me, self.seq);
            self.seq += 1;
            match out {
                Outgoing::Local { at, parent, msg } => {
                    let ev = ScheduledEvent::with_parent(at, tie, parent, msg);
                    route(self.me, None, ev);
                }
                Outgoing::Remote {
                    dst,
                    at,
                    parent,
                    msg,
                } => {
                    let Some(edge) = self.outs.iter().position(|&d| d == dst) else {
                        // lsds-lint: allow(hot-path-panic) reason="a send off the declared topology is a model bug; every engine rejects it identically rather than diverging from the sequential oracle"
                        panic!("LP {} sent to LP {dst} over an undeclared edge", self.me);
                    };
                    let ev = ScheduledEvent::with_parent(at, tie, parent, msg);
                    route(dst, Some(edge), ev);
                }
            }
        }
    }
}

/// Pops the earliest event of `queue` if it is strictly below `bound` and
/// at or before `t_end` (the horizon is inclusive).
#[inline]
pub(crate) fn pop_due<E, Q: EventQueue<E>>(
    queue: &mut Q,
    bound: f64,
    t_end: SimTime,
) -> Option<ScheduledEvent<E>> {
    let t = queue.peek_time()?;
    if t.seconds() < bound && t <= t_end {
        queue.pop_min()
    } else {
        None
    }
}

/// Checks a conservative run's inputs: a valid declared topology, and
/// the strictly positive, finite lookahead every LP must promise.
pub(crate) fn check_conservative<L: LogicalProcess>(lps: &[L], edges: &[(LpId, LpId)]) {
    validate_edges(lps.len(), edges);
    for (i, lp) in lps.iter().enumerate() {
        let la = lp.lookahead();
        assert!(
            la > 0.0 && la.is_finite(),
            "LP {i} must declare positive finite lookahead"
        );
    }
}

/// Safe time of a conservative LP: the minimum of its input-channel
/// clocks (`+∞` with no in-edges).
#[inline]
pub(crate) fn safe_time(in_clocks: &[(LpId, f64)]) -> f64 {
    in_clocks
        .iter()
        .map(|(_, c)| *c)
        .fold(f64::INFINITY, f64::min)
}

/// One logical process with its event state.
pub(crate) struct Kernel<L: LogicalProcess> {
    pub(crate) lp: L,
    /// The lookahead the LP's handlers are held to.
    pub(crate) lookahead: f64,
    /// Pooled: payloads park in a slab, the heap orders fixed 32-byte
    /// records — no per-event boxing in the LP hot loop.
    pub(crate) queue: PooledQueue<L::Msg, BinaryHeapQueue<u32>>,
    /// Time of the last delivered event.
    clock: SimTime,
    /// Events delivered.
    pub(crate) events: u64,
    pub(crate) out: Outbox<L::Msg>,
}

impl<L: LogicalProcess> Kernel<L> {
    /// LP `me` with an empty event list, sending only to `outs` and held
    /// to `lookahead`.
    pub(crate) fn new(me: LpId, lp: L, lookahead: f64, outs: Vec<LpId>) -> Self {
        Kernel {
            lp,
            lookahead,
            queue: PooledQueue::new(BinaryHeapQueue::new()),
            clock: SimTime::ZERO,
            events: 0,
            out: Outbox::new(me, outs),
        }
    }

    /// This LP's id.
    #[inline]
    pub(crate) fn me(&self) -> LpId {
        self.out.me
    }

    /// Stages the LP's t = 0 initial events.
    pub(crate) fn stage_initial(&mut self)
    where
        L: InitialEvents,
    {
        self.out.stage_initial(&mut self.lp, self.lookahead);
    }

    /// Pops the next event strictly below `bound` and at or before `t_end`.
    #[inline]
    pub(crate) fn pop(&mut self, bound: f64, t_end: SimTime) -> Option<ScheduledEvent<L::Msg>> {
        pop_due(&mut self.queue, bound, t_end)
    }

    /// Whether an event strictly below `bound` and at or before `t_end`
    /// is waiting.
    #[inline]
    pub(crate) fn runnable(&mut self, bound: f64, t_end: SimTime) -> bool {
        self.queue
            .peek_time()
            .is_some_and(|t| t.seconds() < bound && t <= t_end)
    }

    /// Whether no event at or before `t_end` is left.
    #[inline]
    pub(crate) fn drained(&mut self, t_end: SimTime) -> bool {
        self.queue.peek_time().is_none_or(|t| t > t_end)
    }

    /// Runs the handler for `ev`, bracketed by `tracer`. Its sends stay
    /// staged until [`Kernel::flush`].
    // `always`: see `Outbox::drain`.
    #[inline(always)]
    pub(crate) fn deliver<T: Tracer>(&mut self, ev: ScheduledEvent<L::Msg>, tracer: &mut T) {
        let at = ev.time;
        debug_assert!(
            at >= self.clock,
            "causality: LP {} delivered t={at} after t={}",
            self.me(),
            self.clock
        );
        self.clock = at;
        self.events += 1;
        let kind = if T::ENABLED {
            self.lp.trace_kind(&ev.event)
        } else {
            SpanKind::DEFAULT
        };
        let token = tracer.begin(ev.seq);
        let mut ctx = self.out.ctx(at, self.lookahead, ev.seq);
        self.lp.handle(at, ev.event, &mut ctx);
        let track = self.me() as u32;
        tracer.record(ev.seq, ev.parent, kind, track, at.seconds(), token);
    }

    /// Drains the staged sends: locals back into this LP's queue, remotes
    /// to `remote(edge, dst, event)`.
    // `always`: see `Outbox::drain`.
    #[inline(always)]
    pub(crate) fn flush(&mut self, mut remote: impl FnMut(usize, LpId, ScheduledEvent<L::Msg>)) {
        let queue = &mut self.queue;
        self.out.drain(|to, edge, ev| match edge {
            None => queue.insert(ev),
            Some(edge) => remote(edge, to, ev),
        });
    }

    /// Lower bound on this LP's future sends given its safe time: its
    /// earliest possible next handler time (capped at the horizon) plus
    /// lookahead. This is CMB's null-message payload.
    #[inline]
    pub(crate) fn lower_bound(&mut self, safe: f64, t_end: SimTime) -> f64 {
        let next = self
            .queue
            .peek_time()
            .map_or(f64::INFINITY, |t| t.seconds());
        next.min(safe).min(t_end.seconds()) + self.lookahead
    }
}

/// Runs every LP on its own scoped thread and returns the per-LP
/// `(lp, stats, tracer, telemetry)` results as columns in id order.
///
/// Each thread runs `body(me, lp, inbox, mail, tracer, telemetry)`: LP
/// `me` receives packets on `inbox` and reaches LP `d` through `mail[d]`.
/// The inbox's spin budget is [`spin_budget`] of the LP count.
/// A thread that unwinds first calls `on_unwind(me, mail)`, which must
/// release every peer that could block on it forever; the original panic
/// then propagates to the caller.
pub(crate) fn run_per_thread<L, P, S, T, Y>(
    lps: Vec<L>,
    mk_tracer: impl Fn(LpId) -> T,
    mk_tel: impl Fn(LpId) -> Y,
    body: impl Fn(LpId, L, Inbox<P>, &[Sender<P>], T, Y) -> (L, S, T, Y) + Sync,
    on_unwind: impl Fn(LpId, &[Sender<P>]) + Sync,
) -> (Vec<L>, Vec<S>, Vec<T>, Vec<Y>)
where
    L: Send,
    P: Send,
    S: Send,
    T: Send,
    Y: Send,
{
    struct Unwind<'a, P, F: Fn(LpId, &[Sender<P>])>(LpId, &'a [Sender<P>], &'a F);
    impl<P, F: Fn(LpId, &[Sender<P>])> Drop for Unwind<'_, P, F> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                (self.2)(self.0, self.1);
            }
        }
    }
    let spin = spin_budget(lps.len());
    let (mail, inboxes): (Vec<Sender<P>>, Vec<Inbox<P>>) = lps
        .iter()
        .map(|_| {
            let (tx, rx) = channel();
            (tx, Inbox { rx, spin })
        })
        .unzip();
    let (mail, body, on_unwind) = (&mail[..], &body, &on_unwind);
    let mut cols = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = lps
            .into_iter()
            .zip(inboxes)
            .enumerate()
            .map(|(me, (lp, inbox))| {
                let (tracer, tel) = (mk_tracer(me), mk_tel(me));
                scope.spawn(move || {
                    let _unwind = Unwind(me, mail, on_unwind);
                    body(me, lp, inbox, mail, tracer, tel)
                })
            })
            .collect();
        for h in handles {
            let (lp, stats, tracer, tel) =
                h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            cols.0.push(lp);
            cols.1.push(stats);
            cols.2.push(tracer);
            cols.3.push(tel);
        }
    });
    cols
}
