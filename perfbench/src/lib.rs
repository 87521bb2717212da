//! The lsds benchmark: named workloads through the public APIs of
//! `lsds-core`, `lsds-net`, `lsds-grid` and `lsds-parallel`, each engine
//! run checked against a sequential oracle, host-time metrics end to end
//! and, in a separate traced run, per layer. See `README.md` beside this
//! crate for the workloads and what each metric should move.

pub mod grid;
pub mod harness;
pub mod layers;
pub mod lp;
pub mod net;
pub mod probe;

use harness::{guarded, Failure, Metric, Outcome, Report, Timed, RUN_DEADLINE};
use layers::{layer_values, Raw, PER_LAYER};
use lsds_core::{Ctx, Model};
use lsds_obs::SpanKind;
use probe::{median, peak_rss_mb, quantile, EdProbe};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Workload sizes: the benchmark's own, and a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A size the benchmark's own tests run in milliseconds.
    Tiny,
}

/// Every workload name, as passed to `--workload`.
pub const WORKLOADS: &[&str] = &[
    "net_1m_100k",
    "lhc_analysis",
    "e4_ring.cmb",
    "e4_ring.timestep",
    "e4_ring.timewarp",
    "zipf_32lp.worksteal",
];

/// Every end-to-end metric, with its unit, in output order.
///
/// The engine under test is timed by its CPU time, not its wall time: on
/// a 2-vCPU shared host the parallel engines' wall time doubles for
/// minutes at a time while their CPU time stays within a few percent, so
/// a bound on wall time would reject on host weather. Wall time and speedup are printed with
/// every run and are per-layer metrics of the traced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One workload: the engine under test, the sequential reference it is
/// compared with, and the oracle every run is checked against.
pub trait Bench {
    /// Label of the engine under test.
    fn label(&self) -> String;
    /// True when the sequential reference is itself the engine under test.
    fn reference_is_engine(&self) -> bool;
    /// Threads the engine under test runs.
    fn threads(&self) -> usize;
    /// The oracle run, with its label: the outcome every other run must
    /// reproduce.
    fn oracle(&self) -> (String, Result<Timed<Outcome>, Failure>);
    /// Host seconds to build the inputs of one run (dropped untimed).
    fn setup(&self) -> f64;
    /// One run of the sequential reference engine.
    fn reference(&self) -> Result<Timed<Outcome>, Failure>;
    /// Name of the parallel engine under test in per-layer metric names.
    fn engine_key(&self) -> Option<&'static str> {
        None
    }
    /// One run of the engine under test.
    fn run_engine(&self) -> Result<Timed<Outcome>, Failure>;
    /// One run of the engine under test with the benchmark's sampled spans
    /// attached.
    fn traced(&self) -> Result<Timed<(Outcome, Raw)>, Failure>;
    /// One run of the engine under test with the library's sampled
    /// `RingTracer`, where the engine offers one.
    fn ring_traced(&self) -> Option<Result<Timed<Outcome>, Failure>>;
}

/// Model wrapper timing a sample of `Model::handle` bodies by span kind.
/// Events `is_net` picks out count as network calls.
pub struct Traced<M: Model> {
    /// The wrapped model.
    pub inner: M,
    probe: Rc<EdProbe>,
    is_net: fn(&M::Event) -> bool,
}

impl<M: Model> Traced<M> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: M, probe: Rc<EdProbe>, is_net: fn(&M::Event) -> bool) -> Self {
        Traced {
            inner,
            probe,
            is_net,
        }
    }
}

impl<M: Model> Model for Traced<M> {
    type Event = M::Event;

    fn handle(&mut self, ev: M::Event, ctx: &mut Ctx<'_, M::Event>) {
        let (probe, inner) = (&self.probe, &mut self.inner);
        let sampled = probe.handler.tick();
        let kind = sampled.then(|| inner.trace_kind(&ev).name);
        let t = sampled.then(Instant::now);
        if (self.is_net)(&ev) {
            probe.net_call(|| inner.handle(ev, ctx));
        } else {
            inner.handle(ev, ctx);
        }
        if let (Some(t), Some(kind)) = (t, kind) {
            let ns = t.elapsed().as_nanos() as u64;
            probe.handler.add(ns);
            let mut kinds = probe.kinds.borrow_mut();
            let e = kinds.entry(kind).or_default();
            e.0 += 1;
            e.1 += ns;
        }
    }

    fn trace_kind(&self, ev: &M::Event) -> SpanKind {
        self.inner.trace_kind(ev)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed all inputs are drawn from.
    pub seed: u64,
    /// Host seconds to keep starting timed runs for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Flip the oracle's fingerprint, so every checked run must fail:
    /// exercises the failure path.
    pub corrupt_oracle: bool,
}

/// Builds the named workload.
pub fn workload(name: &str, seed: u64, size: Size) -> Option<Box<dyn Bench>> {
    use lp::{e4_ring, zipf_32lp, Engine, LpBench};
    let e4 = |engine| -> Box<dyn Bench> { Box::new(LpBench::new(e4_ring, seed, size, engine)) };
    Some(match name {
        "net_1m_100k" => Box::new(net::NetBench::new(seed, size)),
        "lhc_analysis" => Box::new(grid::LhcBench::new(seed, size)),
        "e4_ring.cmb" => e4(Engine::Cmb),
        "e4_ring.timestep" => e4(Engine::Timestep),
        "e4_ring.timewarp" => e4(Engine::Timewarp),
        "zipf_32lp.worksteal" => Box::new(LpBench::new(zipf_32lp, seed, size, Engine::Worksteal)),
        _ => return None,
    })
}

/// Runs one invocation.
pub fn run(spec: &Spec) -> Result<Report, String> {
    let bench = workload(&spec.workload, spec.seed, spec.size)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let mut report = Report::default();
    report.lines.push(format!(
        "workload {} | seed {} | engine {} | {} run",
        spec.workload,
        spec.seed,
        bench.label(),
        if spec.trace { "traced" } else { "untraced" }
    ));
    let (label, oracle) = bench.oracle();
    let Some(oracle) = report.tally.oracle(&label, oracle) else {
        report.lines.append(&mut report.tally.notes);
        return Ok(report);
    };
    let mut expected = oracle.value;
    if spec.corrupt_oracle {
        expected.fingerprint ^= 1;
    }
    report.lines.push(format!(
        "oracle {label}: fingerprint {:016x}, {} events, {:.3} s",
        oracle.value.fingerprint, oracle.value.events, oracle.wall_s
    ));
    let deadline = Instant::now() + Duration::from_secs_f64(spec.seconds);
    if spec.trace {
        trace(&*bench, expected, deadline, &mut report);
    } else {
        measure(&*bench, expected, deadline, &mut report);
    }
    let t = &report.tally;
    report.lines.push(format!(
        "failed_share = {} ratio ({} of {} engine runs failed)",
        t.failed_share(),
        t.failed,
        t.attempted
    ));
    report.lines.append(&mut report.tally.notes);
    Ok(report)
}

/// Timed runs of one engine.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

impl Samples {
    fn push<T>(&mut self, t: &Timed<T>) {
        self.wall.push(t.wall_s);
        self.cpu.push(t.cpu_s);
    }
}

/// `setup_s` samples are taken in every round of timed runs, so their
/// median covers the whole run rather than whichever host regime (see
/// [`FAST_QUANTILE`]) its first quarter second fell in. Each sample is the
/// mean of back-to-back input builds spanning at least [`SETUP_BATCH`]
/// (one build for the big inputs, many for an LP set that builds in
/// ~100 ns); a round takes samples until [`SETUP_PER_ROUND`] is spent.
const SETUP_BATCH: Duration = Duration::from_millis(1);
const SETUP_PER_ROUND: Duration = Duration::from_millis(10);

fn setup_samples(bench: &dyn Bench, samples: &mut Vec<f64>) {
    let started = Instant::now();
    while started.elapsed() < SETUP_PER_ROUND {
        let batch = Instant::now();
        let (mut spent, mut builds) = (0.0, 0u32);
        while builds == 0 || batch.elapsed() < SETUP_BATCH {
            spent += bench.setup();
            builds += 1;
        }
        samples.push(spent / f64::from(builds));
    }
}

/// Which quantile of a run's timed runs the time metrics report.
///
/// The shared host runs a vCPU in two regimes that alternate every few
/// seconds: a pure arithmetic loop takes either ~0.045 s or ~0.075 s
/// there. Host contention only ever slows a run down, so the median of a
/// run reports how much of it fell in the slow regime, while the fast
/// tail measures the program. A slower program moves every run, this
/// quantile included.
pub const FAST_QUANTILE: f64 = 0.1;

/// Host seconds [`probe::calibration_work`] takes at the reference host
/// speed: its 10th percentile on a 2-vCPU Xeon VM in its fast regime.
///
/// Over minutes the whole host also slows down and speeds up by up to
/// ~1.5x, so that even the fast tail of one 18 s run moved by 25-30 %
/// between runs minutes apart. Every round of timed runs therefore also
/// times the calibration kernel, which runs no program code, and the time
/// metrics are scaled by `CALIBRATION_REF_S / (its 10th percentile)`:
/// they read as host time at the reference speed.
pub const CALIBRATION_REF_S: f64 = 0.0125;

/// End-to-end metrics: alternate timed runs of the reference and the
/// engine under test until `deadline`, every run checked, each round
/// beginning with the calibration kernel and a few input builds.
fn measure(bench: &dyn Bench, expected: Outcome, deadline: Instant, report: &mut Report) {
    let id = |o: &Outcome| *o;
    let (mut reference, mut engine) = (Samples::default(), Samples::default());
    let (mut setup, mut calibration) = (Vec::new(), Vec::new());
    let mut events = 0;
    loop {
        setup_samples(bench, &mut setup);
        match guarded(RUN_DEADLINE, || (), |()| probe::calibration_work()) {
            Ok(t) => calibration.push(t.wall_s),
            Err(f) => {
                report.tally.notes.push(format!("FAILED calibration run: {f:?}"));
                report.tally.attempted += 1;
                report.tally.failed += 1;
                report.tally.abandoned |= f == Failure::Deadline;
                break;
            }
        }
        let r = bench.reference();
        if let Some(t) = report.tally.check("reference run", r, id, expected) {
            reference.push(&t);
            events = t.value.events;
        }
        if !bench.reference_is_engine() && !report.tally.abandoned {
            let r = bench.run_engine();
            if let Some(t) = report.tally.check("engine run", r, id, expected) {
                engine.push(&t);
            }
        }
        if report.tally.abandoned || Instant::now() >= deadline {
            break;
        }
    }
    if bench.reference_is_engine() {
        engine.wall = reference.wall.clone();
        engine.cpu = reference.cpu.clone();
    }
    let fast = |xs: &[f64]| quantile(xs, FAST_QUANTILE);
    let scale = CALIBRATION_REF_S / fast(&calibration);
    let (seq_wall, cpu) = (fast(&reference.wall), fast(&engine.cpu));
    let (wall, fast_wall) = (median(&engine.wall), fast(&engine.wall));
    let values = [
        events as f64 / (seq_wall * scale),
        cpu * scale,
        peak_rss_mb(),
        median(&setup) * scale,
    ];
    for (&(name, unit), value) in END_TO_END.iter().zip(values) {
        report.metrics.push(Metric { name, unit, value });
    }
    let n = engine.wall.len();
    report.lines.extend([
        format!(
            "host speed: calibration kernel 10th percentile {:.5} s, median {:.5} s over {} rounds; time metrics scaled by {scale:.4} to the reference {CALIBRATION_REF_S} s",
            fast(&calibration),
            median(&calibration),
            calibration.len()
        ),
        format!(
            "events_per_s = {:.1} events/s  (sequential reference: {events} events; unscaled wall 10th percentile {seq_wall:.4} s of {} runs, median {:.4} s)",
            values[0],
            reference.wall.len(),
            median(&reference.wall)
        ),
        format!(
            "cpu_s = {:.4} s  (engine under test, user+sys over all threads; unscaled 10th percentile {cpu:.4} s of {n} runs, median {:.4} s; {:.2} CPUs busy on {} threads)",
            values[1],
            median(&engine.cpu),
            median(&engine.cpu) / wall,
            bench.threads()
        ),
        format!(
            "wall (not bounded, unscaled) = {wall:.4} s  (median of {n} runs, 10th percentile {fast_wall:.4} s, range {:.4}..{:.4} s; speedup {:.3}x over the sequential reference at the 10th percentile)",
            engine.wall.iter().copied().fold(f64::INFINITY, f64::min),
            engine.wall.iter().copied().fold(0.0, f64::max),
            seq_wall / fast_wall
        ),
        format!("peak_rss_mb = {:.1} MB", values[2]),
        format!(
            "setup_s = {:.3e} s  (scaled median of {} samples over the run, each the mean of builds spanning >= 1 ms; unscaled {:.3e} s)",
            values[3],
            setup.len(),
            median(&setup)
        ),
    ]);
}

/// Per-layer metrics: round after round until `deadline`, run the
/// sequential reference, then the engine under test untraced, traced and
/// with a `RingTracer`; report each metric's median over the rounds.
fn trace(bench: &dyn Bench, expected: Outcome, deadline: Instant, report: &mut Report) {
    let id = |o: &Outcome| *o;
    let (mut seq, mut plain, mut traced, mut ring) =
        (Vec::new(), Samples::default(), Vec::new(), Vec::new());
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // a hung run leaves the run thread busy for good: start nothing after it
    loop {
        if !bench.reference_is_engine() {
            if let Some(t) = report
                .tally
                .check("reference run", bench.reference(), id, expected)
            {
                seq.push(t.wall_s);
            }
        }
        if report.tally.abandoned {
            break;
        }
        if let Some(t) = report
            .tally
            .check("untraced run", bench.run_engine(), id, expected)
        {
            plain.push(&t);
        }
        if report.tally.abandoned {
            break;
        }
        let r = bench.traced();
        if let Some(t) = report.tally.check("traced run", r, |v| v.0, expected) {
            traced.push(t.wall_s);
            for (name, v) in layer_values(&t.value.1, t.wall_s, t.cpu_s) {
                values.entry(name).or_default().push(v);
            }
        }
        if report.tally.abandoned {
            break;
        }
        if let Some(r) = bench.ring_traced() {
            if let Some(t) = report.tally.check("RingTracer run", r, id, expected) {
                ring.push(t.wall_s);
            }
        }
        if report.tally.abandoned || Instant::now() >= deadline {
            break;
        }
    }
    let (plain_wall, plain_cpu, traced_wall) =
        (median(&plain.wall), median(&plain.cpu), median(&traced));
    let mut derived: BTreeMap<String, f64> = BTreeMap::from([
        ("trace.wall_s".into(), traced_wall),
        ("trace.untraced_wall_s".into(), plain_wall),
        ("trace.overhead".into(), traced_wall / plain_wall),
        ("trace.runs".into(), traced.len() as f64),
    ]);
    if !ring.is_empty() {
        derived.insert("obs.tracer_overhead".into(), median(&ring) / plain_wall);
    }
    if let Some(key) = bench.engine_key() {
        let seq_wall = median(&seq);
        derived.insert(format!("parallel.{key}.speedup"), seq_wall / plain_wall);
        derived.insert(format!("parallel.{key}.cpus_busy"), plain_cpu / plain_wall);
        report.lines.push(format!(
            "engine {}: untraced wall {plain_wall:.4} s, cpu {plain_cpu:.4} s (medians of {} runs); speedup {:.3}x over run_sequential {seq_wall:.4} s",
            bench.label(),
            plain.wall.len(),
            seq_wall / plain_wall
        ));
    }
    for &(name, unit) in PER_LAYER {
        let value = derived
            .get(name)
            .copied()
            .or_else(|| values.get(name).map(|v| median(v)))
            .unwrap_or(0.0);
        report.metrics.push(Metric { name, unit, value });
        report.lines.push(format!("{name} = {value} {unit}"));
    }
    report.lines.push(format!(
        "tracing overhead: traced wall {traced_wall:.4} s vs untraced {plain_wall:.4} s (medians of {} and {} runs), one span in {} timed",
        traced.len(),
        plain.wall.len(),
        probe::SAMPLE_EVERY
    ));
}
