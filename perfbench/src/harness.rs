//! Running engine runs under a deadline, checking them against the
//! oracle, and rendering the result.

use crate::probe::process_cpu_s;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a run simulated: the checked part of its result. Two runs of the
/// same inputs must agree on both fields, whatever engine ran them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Fold of the simulated results (completions, finish times, final
    /// LP state).
    pub fingerprint: u64,
    /// Committed simulation events.
    pub events: u64,
}

/// A finished run with its host costs.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// Host wall seconds of the run itself.
    pub wall_s: f64,
    /// User + system CPU seconds of the run, over all its threads.
    pub cpu_s: f64,
    /// What the run returned.
    pub value: T,
}

/// Why a run produced no checked result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The run panicked (an engine assertion, a worker panic).
    Panicked,
    /// The run was still going at the deadline (a hang, e.g. a lost
    /// wakeup). Its thread cannot be stopped, so the process must end
    /// once the result is printed.
    Deadline,
    /// The run finished but disagreed with the oracle.
    Mismatch,
}

/// Wall-clock limit of one engine run.
pub const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// Folds one 64-bit word into an FNV-style running hash.
pub fn fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x100_0000_01b3)
}

/// FNV offset basis: the starting value of a [`fold`] chain.
pub const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Host seconds `build` takes; what it built is dropped untimed.
pub fn time_build<I>(build: impl FnOnce() -> I) -> f64 {
    let t = Instant::now();
    let input = std::hint::black_box(build());
    let s = t.elapsed().as_secs_f64();
    drop(input);
    s
}

type Job = Box<dyn FnOnce() + Send>;

/// The long-lived thread every run executes on: one thread, so the
/// allocator reuses one arena across runs and peak RSS does not depend on
/// which arena a fresh thread happens to get.
static WORKER: Mutex<Option<(mpsc::Sender<Job>, JoinHandle<()>)>> = Mutex::new(None);

fn spawn_worker() -> (mpsc::Sender<Job>, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<Job>();
    let handle = std::thread::Builder::new()
        .name("bench-run".into())
        .stack_size(16 << 20)
        .spawn(move || {
            for job in rx {
                // a panicking run drops its result sender, which its
                // caller reads as `Failure::Panicked`
                let _ = panic::catch_unwind(AssertUnwindSafe(job));
            }
        })
        .expect("spawn benchmark run thread");
    (tx, handle)
}

fn submit(job: Job) {
    let mut worker = WORKER
        .lock()
        .expect("worker lock is never held across a panic");
    let (tx, _) = worker.get_or_insert_with(spawn_worker);
    tx.send(job).expect("the run thread outlives its sender");
}

/// Ends the run thread and waits for it. Only call this when no run has
/// missed its deadline: a hung run would never let the thread end.
pub fn stop_worker() {
    let worker = WORKER.lock().expect("worker lock").take();
    if let Some((tx, handle)) = worker {
        drop(tx);
        handle.join().expect("run thread catches run panics");
    }
}

/// Builds inputs with `build` and runs them with `run` on the run thread,
/// timing the run. A panic or a run still going after `deadline` is a
/// [`Failure`] instead of an abort, so one bad engine run is counted
/// rather than ending the benchmark.
pub fn guarded<I, T>(
    deadline: Duration,
    build: impl FnOnce() -> I + Send + 'static,
    run: impl FnOnce(I) -> T + Send + 'static,
) -> Result<Timed<T>, Failure>
where
    T: Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    submit(Box::new(move || {
        let input = build();
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let value = run(input);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        // the receiver only goes away after a deadline miss, when nobody
        // waits for this result any more
        let _ = tx.send(Timed {
            wall_s,
            cpu_s,
            value,
        });
    }));
    match rx.recv_timeout(deadline) {
        Ok(r) => Ok(r),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(Failure::Panicked),
        // the run thread is stuck; the caller stops and the process exits
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::Deadline),
    }
}

/// Engine runs attempted and failed, with one human line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted, the oracle's included.
    pub attempted: u64,
    /// Runs that panicked, hung, or disagreed with the oracle.
    pub failed: u64,
    /// A run hung: its thread still runs, so no further run may start.
    pub abandoned: bool,
    /// One line per failed run.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one run and checks it against `expected`. Returns the run
    /// when it passed.
    pub fn check<T>(
        &mut self,
        what: &str,
        r: Result<Timed<T>, Failure>,
        outcome: impl Fn(&T) -> Outcome,
        expected: Outcome,
    ) -> Option<Timed<T>> {
        self.attempted += 1;
        let failure = match &r {
            Ok(t) if outcome(&t.value) == expected => return r.ok(),
            Ok(t) => {
                let got = outcome(&t.value);
                self.notes.push(format!(
                    "FAILED {what}: fingerprint {:016x} events {} where the oracle has {:016x} / {}",
                    got.fingerprint, got.events, expected.fingerprint, expected.events
                ));
                Failure::Mismatch
            }
            Err(f) => *f,
        };
        if failure != Failure::Mismatch {
            self.notes.push(format!("FAILED {what}: {failure:?}"));
        }
        if failure == Failure::Deadline {
            self.abandoned = true;
        }
        self.failed += 1;
        None
    }

    /// Counts the oracle run itself: it can only fail by panicking or
    /// hanging, and without it nothing else can be checked.
    pub fn oracle<T>(&mut self, what: &str, r: Result<Timed<T>, Failure>) -> Option<Timed<T>> {
        self.attempted += 1;
        match r {
            Ok(t) => Some(t),
            Err(f) => {
                self.notes.push(format!("FAILED oracle {what}: {f:?}"));
                self.abandoned |= f == Failure::Deadline;
                self.failed += 1;
                None
            }
        }
    }

    /// Failed runs over attempted runs.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Run counts.
    pub tally: Tally,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_counts_a_panic_as_failure() {
        let r = guarded(Duration::from_secs(5), || (), |_| -> u64 { panic!("boom") });
        assert_eq!(r.err(), Some(Failure::Panicked));
    }

    #[test]
    fn guarded_counts_a_hang_as_deadline_failure() {
        let r = guarded(
            Duration::from_millis(20),
            || (),
            |_| std::thread::sleep(Duration::from_millis(500)),
        );
        assert_eq!(r.err(), Some(Failure::Deadline));
    }

    #[test]
    fn tally_counts_mismatch() {
        let mut t = Tally::default();
        let exp = Outcome {
            fingerprint: 1,
            events: 2,
        };
        let ok = guarded(Duration::from_secs(5), || (), move |_| exp);
        assert!(t.check("ok", ok, |o| *o, exp).is_some());
        let bad = guarded(
            Duration::from_secs(5),
            || (),
            |_| Outcome {
                fingerprint: 9,
                events: 2,
            },
        );
        assert!(t.check("bad", bad, |o| *o, exp).is_none());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(!t.abandoned);
    }
}
