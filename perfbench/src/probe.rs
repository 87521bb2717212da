//! Host-time probes: sampled span meters, the process CPU clock, peak RSS,
//! and an event-list wrapper that times queue operations.
//!
//! Every probe lives in the benchmark's own code, around its calls into
//! the library; nothing inside the library is instrumented. Spans are
//! sampled — one call in [`SAMPLE_EVERY`] reads the clock, every call is
//! counted — because two ~45 ns clock reads around each of the network
//! workload's ~12M queue, handler and network calls would nearly double
//! its run time.

use lsds_core::{EventQueue, ScheduledEvent, SimTime};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

/// One call in this many is timed. Prime, so a periodic event pattern
/// (kick, begin, complete, …) does not alias with the sampling stride.
pub const SAMPLE_EVERY: u64 = 61;

/// Counts every call to one layer boundary and times a sample of them.
#[derive(Debug, Default)]
pub struct Meter {
    calls: Cell<u64>,
    left: Cell<u64>,
    samples: Cell<u64>,
    ns: Cell<u64>,
}

impl Meter {
    /// Counts one call; true when this call is to be timed.
    #[inline]
    pub fn tick(&self) -> bool {
        self.calls.set(self.calls.get() + 1);
        let left = self.left.get();
        if left == 0 {
            self.left.set(SAMPLE_EVERY - 1);
            true
        } else {
            self.left.set(left - 1);
            false
        }
    }

    /// Records one timed call.
    #[inline]
    pub fn add(&self, ns: u64) {
        self.samples.set(self.samples.get() + 1);
        self.ns.set(self.ns.get() + ns);
    }

    /// Runs `f`, timing it if this call is sampled.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.tick() {
            let t = Instant::now();
            let r = f();
            self.add(t.elapsed().as_nanos() as u64);
            r
        } else {
            f()
        }
    }

    /// The counts so far, detached from the cells.
    pub fn totals(&self) -> Span {
        Span {
            calls: self.calls.get(),
            samples: self.samples.get(),
            ns: self.ns.get(),
        }
    }
}

/// Sampled totals of one meter: `calls` counted, `samples` of them timed
/// for `ns` host nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls counted.
    pub calls: u64,
    /// Calls timed.
    pub samples: u64,
    /// Host nanoseconds over the timed calls.
    pub ns: u64,
}

impl Span {
    /// Mean host nanoseconds per call, net of the clock reads the timing
    /// itself adds (0 when nothing was timed).
    pub fn ns_per_call(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            (self.ns as f64 / self.samples as f64 - clock_overhead_ns()).max(0.0)
        }
    }

    /// Estimated host seconds over all calls.
    pub fn total_s(&self) -> f64 {
        self.ns_per_call() * self.calls as f64 * 1e-9
    }

    /// Sums two meters' totals.
    pub fn plus(self, o: Span) -> Span {
        Span {
            calls: self.calls + o.calls,
            samples: self.samples + o.samples,
            ns: self.ns + o.ns,
        }
    }
}

/// Shared probe of one traced event-driven run: the queue wrapper and the
/// model wrapper both write into it (the run is single-threaded).
#[derive(Debug, Default)]
pub struct EdProbe {
    /// `pop_*` and `peek_time` calls on the event list.
    pub pop: Meter,
    /// Inserts scheduled by model code outside network calls.
    pub insert: Meter,
    /// Inserts scheduled from inside a network call.
    pub insert_net: Meter,
    /// Whole `Model::handle` bodies.
    pub handler: Meter,
    /// Network calls (`FlowNet::try_start` / `handle_into`, or a grid
    /// model's network events).
    pub net: Meter,
    /// Set while a network call runs, so its inserts are attributed to it.
    pub in_net: Cell<bool>,
    /// Largest pending-event count seen after an insert.
    pub pending_max: Cell<usize>,
    /// Sampled handler nanoseconds per span kind: `(samples, ns)`.
    pub kinds: RefCell<BTreeMap<&'static str, (u64, u64)>>,
}

impl EdProbe {
    /// Runs a network call, timed by the `net` meter, with its inserts
    /// attributed to the network.
    #[inline]
    pub fn net_call<R>(&self, f: impl FnOnce() -> R) -> R {
        self.in_net.set(true);
        let r = self.net.time(f);
        self.in_net.set(false);
        r
    }

    /// Detaches the totals from the cells.
    pub fn finish(&self) -> EdSpans {
        EdSpans {
            pop: self.pop.totals(),
            insert: self.insert.totals(),
            insert_net: self.insert_net.totals(),
            handler: self.handler.totals(),
            net: self.net.totals(),
            pending_max: self.pending_max.get(),
            kinds: self.kinds.borrow().clone(),
        }
    }
}

/// Plain-data totals of an [`EdProbe`], sendable across threads.
#[derive(Debug, Clone, Default)]
pub struct EdSpans {
    /// Event-list pops and peeks.
    pub pop: Span,
    /// Model-side inserts.
    pub insert: Span,
    /// Inserts made inside network calls.
    pub insert_net: Span,
    /// Whole handler bodies.
    pub handler: Span,
    /// Network calls.
    pub net: Span,
    /// Largest pending-event count.
    pub pending_max: usize,
    /// Sampled `(samples, ns)` per handler span kind.
    pub kinds: BTreeMap<&'static str, (u64, u64)>,
}

impl EdSpans {
    /// All event-list operations.
    pub fn queue(&self) -> Span {
        self.pop.plus(self.insert).plus(self.insert_net)
    }
}

/// Event list wrapper that counts every operation and times a sample.
pub struct TimedQueue<Q> {
    inner: Q,
    probe: Rc<EdProbe>,
}

impl<Q> TimedQueue<Q> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Q, probe: Rc<EdProbe>) -> Self {
        TimedQueue { inner, probe }
    }
}

impl<E, Q: EventQueue<E>> EventQueue<E> for TimedQueue<Q> {
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let p = &self.probe;
        let meter = if p.in_net.get() {
            &p.insert_net
        } else {
            &p.insert
        };
        meter.time(|| self.inner.insert(ev));
        let len = self.inner.len();
        if len > p.pending_max.get() {
            p.pending_max.set(len);
        }
    }

    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        self.probe.pop.time(|| self.inner.pop_min())
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.probe.pop.time(|| self.inner.peek_time())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn pop_run(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        self.probe.pop.time(|| self.inner.pop_run(out))
    }

    fn pop_next(&mut self, ties: &mut Vec<ScheduledEvent<E>>) -> Option<ScheduledEvent<E>> {
        self.probe.pop.time(|| self.inner.pop_next(ties))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn occupancy(&self) -> Option<(usize, usize)> {
        self.inner.occupancy()
    }
}

/// Host nanoseconds an empty timed span reads: the cost of the clock
/// reads themselves, which every sampled span includes. Measured once per
/// process as the median over batches of empty spans.
pub fn clock_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        const SPANS: u32 = 1000;
        let batches: Vec<f64> = (0..50)
            .map(|_| {
                let mut ns = 0u128;
                for _ in 0..SPANS {
                    let t = Instant::now();
                    ns += std::hint::black_box(t).elapsed().as_nanos();
                }
                ns as f64 / f64::from(SPANS)
            })
            .collect();
        median(&batches)
    })
}

/// Pending events of the calibration kernel: 512 KB of heap, so it
/// misses in L1 like the workloads do without adding to their peak RSS
/// more than the smallest of them can absorb.
const CALIBRATION_PENDING: u32 = 1 << 15;
/// Hold operations (one pop, one push) per calibration.
const CALIBRATION_OPS: u32 = 100_000;

thread_local! {
    static CALIBRATION_HEAP: RefCell<BinaryHeap<Reverse<(u64, u32)>>> =
        RefCell::new(BinaryHeap::with_capacity(CALIBRATION_PENDING as usize));
}

/// The calibration kernel: a fixed hold model (pop the earliest of
/// [`CALIBRATION_PENDING`] pending events, push it back a pseudo-random
/// delay later) on `std`'s binary heap. It uses no code of the
/// repository's crates, so a change to the program cannot move its time,
/// only the host can. Returns a checksum, the same on every call.
pub fn calibration_work() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut step = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x
    };
    CALIBRATION_HEAP.with(|heap| {
        let mut heap = heap.borrow_mut();
        heap.clear();
        for id in 0..CALIBRATION_PENDING {
            heap.push(Reverse((step() >> 40, id)));
        }
        let mut sum = 0u64;
        for _ in 0..CALIBRATION_OPS {
            let Reverse((t, id)) = heap.pop().expect("the hold model keeps its events");
            sum = sum.wrapping_add(t ^ u64::from(id));
            heap.push(Reverse((t + (step() >> 44), id)));
        }
        sum
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process so
/// far, threads that have already exited included. Nanosecond resolution,
/// where `/proc/self/stat` counts 10 ms ticks.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this builds for),
    // and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs`, `0 <= q <= 1`, interpolated linearly between
/// the two nearest order statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(&hi) if frac > 0.0 => v[lo] + (hi - v[lo]) * frac,
        _ => v[lo],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_every_call_and_times_one_in_stride() {
        let m = Meter::default();
        for _ in 0..(3 * SAMPLE_EVERY) {
            m.time(|| ());
        }
        let t = m.totals();
        assert_eq!(t.calls, 3 * SAMPLE_EVERY);
        assert_eq!(t.samples, 3);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_s();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(x != 0);
        assert!(process_cpu_s() > a);
    }

    #[test]
    fn clock_overhead_is_small_and_positive() {
        let c = clock_overhead_ns();
        assert!(c > 0.0 && c < 10_000.0, "{c}");
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn calibration_does_the_same_work_every_call() {
        assert_eq!(calibration_work(), calibration_work());
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }
}
