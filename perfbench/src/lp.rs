//! Logical-process workloads on the `lsds-parallel` engines.
//!
//! * `e4_ring.<engine>` — the E4 ring of `exp_timewarp`: 2 LPs, dense
//!   per-event compute (2000 mixing iterations), a cross-LP message every
//!   5th local event at delay == lookahead 0.02, horizon 800. The sync
//!   protocol dominates CMB and timestep time here while handlers stay
//!   fixed.
//! * `zipf_32lp.worksteal` — the `zipf` ring of `exp_worksteal`: 32 LPs
//!   with harmonic per-LP compute, horizon 4000, on 2 work-stealing
//!   workers with epoch migration. LPs outnumber cores 16:1, so the deque
//!   scheduler, stealing and the rebalancer do the work.
//!
//! Every engine run is checked against `run_sequential` on the same LPs:
//! the fold of every LP's final state and the committed event count must
//! match.

use crate::harness::{fold, guarded, time_build, Failure, Outcome, Timed, FOLD_SEED, RUN_DEADLINE};
use crate::layers::{EngineCounts, LpRaw, Raw};
use crate::probe::{Meter, SAMPLE_EVERY};
use crate::{Bench, Size};
use lsds_core::SimTime;
use lsds_obs::{SpanKind, TelemetryConfig, TraceConfig};
use lsds_parallel::cmb::InitialEvents;
use lsds_parallel::{
    run_cmb, run_cmb_telemetry, run_cmb_traced, run_sequential, run_timestep,
    run_timestep_telemetry, run_timestep_traced, run_timewarp_cfg, run_timewarp_telemetry,
    run_worksteal_cfg, run_worksteal_telemetry, LogicalProcess, LpCtx, SaveState, TwConfig,
    WsConfig,
};

/// An LP whose final state can be folded into a fingerprint.
pub trait State {
    /// The LP's final state words.
    fn state(&self) -> [u64; 2];
}

/// SplitMix64 finaliser: seeds per-LP initial state from the run seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- E4 ring ----

const E4_PERIOD: f64 = 0.1;
const E4_CROSS_EVERY: u64 = 5;
const E4_WORK_ITERS: u32 = 2_000;
const E4_LOOKAHEAD: f64 = 0.02;

/// E4 event: a self-clocking local tick, or a cross-LP notification that
/// only folds into state.
#[derive(Clone, Copy)]
pub enum E4Ev {
    /// Local work.
    Internal,
    /// Message from the previous LP of the ring.
    Cross(u64),
}

/// Per-event model computation, identical under every engine.
fn busy_work(seed: u64, iters: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xD1B5;
    }
    x
}

/// One node of the E4 ring.
#[derive(Clone)]
pub struct E4Lp {
    n: usize,
    horizon: f64,
    counter: u64,
    sink: u64,
}

impl LogicalProcess for E4Lp {
    type Msg = E4Ev;

    fn handle(&mut self, now: SimTime, ev: E4Ev, ctx: &mut LpCtx<'_, E4Ev>) {
        self.counter += 1;
        let v = match ev {
            E4Ev::Internal => self.counter,
            E4Ev::Cross(x) => x,
        };
        self.sink ^= busy_work(v ^ now.seconds().to_bits(), E4_WORK_ITERS);
        if let E4Ev::Internal = ev {
            if now.seconds() + E4_PERIOD <= self.horizon {
                ctx.schedule_in(E4_PERIOD, E4Ev::Internal);
            }
            if self.counter.is_multiple_of(E4_CROSS_EVERY)
                && now.seconds() + E4_LOOKAHEAD <= self.horizon
            {
                ctx.send(
                    (ctx.me() + 1) % self.n,
                    E4_LOOKAHEAD,
                    E4Ev::Cross(self.sink),
                );
            }
        }
    }

    fn lookahead(&self) -> f64 {
        E4_LOOKAHEAD
    }
}

impl InitialEvents for E4Lp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, E4Ev>) {
        ctx.schedule_in(0.0, E4Ev::Internal);
    }
}

impl SaveState for E4Lp {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        (self.counter, self.sink)
    }
    fn restore(&mut self, saved: (u64, u64)) {
        (self.counter, self.sink) = saved;
    }
}

impl State for E4Lp {
    fn state(&self) -> [u64; 2] {
        [self.counter, self.sink]
    }
}

/// The E4 ring; `seed` salts each LP's initial state, which changes every
/// exchanged value but neither the event set nor the per-event cost.
pub fn e4_ring(seed: u64, size: Size) -> LpSet<E4Lp> {
    const N: usize = 2;
    let horizon = match size {
        Size::Full => 800.0,
        Size::Tiny => 20.0,
    };
    let lps = (0..N)
        .map(|i| E4Lp {
            n: N,
            horizon,
            counter: 0,
            sink: mix(seed, i as u64),
        })
        .collect();
    LpSet {
        lps,
        edges: ring_edges(N),
        t_end: SimTime::new(horizon),
        lookahead: E4_LOOKAHEAD,
    }
}

// ---- zipf ring ----

/// Marks a cross-LP message: it folds into state and schedules nothing.
const REMOTE: u64 = 1 << 63;
const ZIPF_CROSS_EVERY: u64 = 8;
const ZIPF_LOOKAHEAD: f64 = 0.25;

/// A ring node with its own per-event compute (`work` mixing iterations).
#[derive(Clone)]
pub struct SkewLp {
    n: usize,
    until: f64,
    local_dt: f64,
    work: u32,
    acc: u64,
    events: u64,
}

impl LogicalProcess for SkewLp {
    type Msg = u64;

    fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
        self.events += 1;
        let mut h = self.acc ^ (v & !REMOTE) ^ now.seconds().to_bits();
        for i in 0..self.work {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
        }
        self.acc = h;
        if v & REMOTE != 0 {
            return;
        }
        if now.seconds() + self.local_dt <= self.until {
            ctx.schedule_in(self.local_dt, h >> 32);
        }
        if self.events.is_multiple_of(ZIPF_CROSS_EVERY)
            && self.n > 1
            && now.seconds() + ZIPF_LOOKAHEAD <= self.until
        {
            ctx.send(
                (ctx.me() + 1) % self.n,
                ZIPF_LOOKAHEAD,
                REMOTE | (h & 0xffff_ffff),
            );
        }
    }

    fn lookahead(&self) -> f64 {
        ZIPF_LOOKAHEAD
    }
}

impl InitialEvents for SkewLp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        ctx.schedule_in(0.0, ctx.me() as u64 + 1);
    }
}

impl SaveState for SkewLp {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        (self.acc, self.events)
    }
    fn restore(&mut self, saved: (u64, u64)) {
        (self.acc, self.events) = saved;
    }
}

impl State for SkewLp {
    fn state(&self) -> [u64; 2] {
        [self.acc, self.events]
    }
}

/// The zipf ring: LP `i` does `2000 / (i + 1)` mixing iterations per
/// event at a uniform event rate; `seed` salts each LP's initial state.
pub fn zipf_32lp(seed: u64, size: Size) -> LpSet<SkewLp> {
    const N: usize = 32;
    let until = match size {
        Size::Full => 4000.0,
        Size::Tiny => 40.0,
    };
    let lps = (0..N)
        .map(|i| SkewLp {
            n: N,
            until,
            local_dt: 0.05,
            work: (2_000 / (i as u32 + 1)).max(1),
            acc: mix(seed, i as u64),
            events: 0,
        })
        .collect();
    LpSet {
        lps,
        edges: ring_edges(N),
        t_end: SimTime::new(until),
        lookahead: ZIPF_LOOKAHEAD,
    }
}

fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

// ---- engines ----

/// The inputs of one LP run.
pub struct LpSet<L> {
    lps: Vec<L>,
    edges: Vec<(usize, usize)>,
    t_end: SimTime,
    lookahead: f64,
}

/// LP wrapper timing a sample of its handler calls.
pub struct Spanned<L> {
    inner: L,
    meter: Meter,
}

impl<L: LogicalProcess> LogicalProcess for Spanned<L> {
    type Msg = L::Msg;

    fn handle(&mut self, now: SimTime, msg: L::Msg, ctx: &mut LpCtx<'_, L::Msg>) {
        self.meter.time(|| self.inner.handle(now, msg, ctx));
    }

    fn lookahead(&self) -> f64 {
        self.inner.lookahead()
    }

    fn trace_kind(&self, msg: &L::Msg) -> SpanKind {
        self.inner.trace_kind(msg)
    }
}

impl<L: InitialEvents> InitialEvents for Spanned<L> {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, L::Msg>) {
        self.inner.initial_events(ctx);
    }
}

impl<L: SaveState> SaveState for Spanned<L> {
    type Saved = L::Saved;
    fn save(&self) -> L::Saved {
        self.inner.save()
    }
    fn restore(&mut self, saved: L::Saved) {
        self.inner.restore(saved);
    }
}

impl<L> LpSet<L> {
    fn spanned(self) -> LpSet<Spanned<L>> {
        LpSet {
            lps: self
                .lps
                .into_iter()
                .map(|inner| Spanned {
                    inner,
                    meter: Meter::default(),
                })
                .collect(),
            edges: self.edges,
            t_end: self.t_end,
            lookahead: self.lookahead,
        }
    }
}

fn fingerprint<'a, L: State + 'a>(lps: impl Iterator<Item = &'a L>) -> u64 {
    lps.fold(FOLD_SEED, |h, lp| {
        let [a, b] = lp.state();
        fold(fold(h, a), b)
    })
}

/// The parallel engines a workload can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Thread-per-LP Chandy–Misra–Bryant with null messages.
    Cmb,
    /// Thread-per-LP synchronous windows of one lookahead.
    Timestep,
    /// Thread-per-LP Time Warp, bounded by a 0.4 s optimism window.
    Timewarp,
    /// Work-stealing LP scheduler on 2 workers, migrating LPs every 5000
    /// events.
    Worksteal,
}

/// Work-stealing worker count: the host's two cores.
const WS_WORKERS: usize = 2;

impl Engine {
    fn ws_config() -> WsConfig {
        WsConfig {
            workers: WS_WORKERS,
            batch: 64,
            migration_epoch: Some(5_000),
        }
    }

    fn tw_config() -> TwConfig {
        TwConfig {
            checkpoint_every: 1,
            window: 0.4,
        }
    }

    /// Runs `set` on this engine; returns the outcome.
    fn run<L>(self, set: LpSet<L>) -> Outcome
    where
        L: SaveState + InitialEvents + State,
        L::Msg: Clone,
    {
        let LpSet {
            lps,
            edges,
            t_end,
            lookahead,
        } = set;
        let (fp, events) = match self {
            Engine::Cmb => {
                let r = run_cmb(lps, &edges, t_end);
                (fingerprint(r.lps.iter()), r.total_events())
            }
            Engine::Timestep => {
                let r = run_timestep(lps, lookahead, t_end);
                (fingerprint(r.lps.iter()), r.total_events())
            }
            Engine::Timewarp => {
                let r = run_timewarp_cfg(lps, &edges, t_end, Self::tw_config());
                (fingerprint(r.lps.iter()), r.total_events())
            }
            Engine::Worksteal => {
                let r = run_worksteal_cfg(lps, &edges, t_end, Self::ws_config());
                (fingerprint(r.lps.iter()), r.total_events())
            }
        };
        Outcome {
            fingerprint: fp,
            events,
        }
    }

    /// Runs `set` with every handler wrapped in a sampled span and the
    /// engine's telemetry sink attached.
    fn run_spanned<L>(self, set: LpSet<L>) -> (Outcome, LpRaw)
    where
        L: SaveState + InitialEvents + State,
        L::Msg: Clone,
    {
        let LpSet {
            lps,
            edges,
            t_end,
            lookahead,
        } = set.spanned();
        let tcfg = TelemetryConfig::new();
        let (lps, events, counts, threads) = match self {
            Engine::Cmb => {
                let n = lps.len();
                let (r, tel) = run_cmb_telemetry(lps, &edges, t_end, tcfg);
                let counts = EngineCounts::Cmb {
                    nulls: r.total_nulls(),
                    blocks: r.stats.iter().map(|s| s.blocks).sum(),
                    blocked_ns: tel.counter("cmb.blocked_ns"),
                };
                let events = r.total_events();
                (r.lps, events, counts, n)
            }
            Engine::Timestep => {
                let n = lps.len();
                let (r, tel) = run_timestep_telemetry(lps, lookahead, t_end, tcfg);
                let counts = EngineCounts::Timestep {
                    windows: r.windows,
                    barrier_ns: tel.counter("ts.barrier_ns"),
                };
                let events = r.total_events();
                (r.lps, events, counts, n)
            }
            Engine::Timewarp => {
                let n = lps.len();
                let (r, _) = run_timewarp_telemetry(lps, &edges, t_end, Self::tw_config(), tcfg);
                let sum = |f: fn(&lsds_parallel::TwStats) -> u64| r.stats.iter().map(f).sum();
                let counts = EngineCounts::Timewarp {
                    processed: sum(|s| s.processed),
                    rolled_back: sum(|s| s.rolled_back),
                    antis: sum(|s| s.antis_sent),
                    gvt_rounds: sum(|s| s.gvt_rounds),
                    states_saved: sum(|s| s.states_saved),
                    blocks: sum(|s| s.blocks),
                };
                let events = r.total_events();
                (r.lps, events, counts, n)
            }
            Engine::Worksteal => {
                let (r, _) = run_worksteal_telemetry(lps, &edges, t_end, Self::ws_config(), tcfg);
                let counts = EngineCounts::Worksteal {
                    bound_updates: r.sched.bound_updates,
                    steals: r.sched.steals,
                    parks: r.sched.parks,
                    migrations: r.sched.migrations,
                    activations: r.stats.iter().map(|s| s.activations).sum(),
                    imbalance: r.observed_imbalance(),
                };
                let events = r.total_events();
                let threads = r.sched.workers;
                (r.lps, events, counts, threads)
            }
        };
        let handler = lps
            .iter()
            .map(|lp| lp.meter.totals())
            .fold(Default::default(), |a: crate::probe::Span, b| a.plus(b));
        let outcome = Outcome {
            fingerprint: fingerprint(lps.iter().map(|lp| &lp.inner)),
            events,
        };
        (
            outcome,
            LpRaw {
                handler,
                threads,
                counts,
            },
        )
    }

    /// Runs `set` with the library's sampled `RingTracer`, where the
    /// engine has a traced entry point with the same configuration.
    fn run_ring<L>(self, set: LpSet<L>) -> Option<Outcome>
    where
        L: SaveState + InitialEvents + State,
        L::Msg: Clone,
    {
        let cfg = TraceConfig::with_capacity(1 << 16).sampled(SAMPLE_EVERY);
        let LpSet {
            lps,
            edges,
            t_end,
            lookahead,
        } = set;
        let (fp, events) = match self {
            Engine::Cmb => {
                let (r, _) = run_cmb_traced(lps, &edges, t_end, cfg);
                (fingerprint(r.lps.iter()), r.total_events())
            }
            Engine::Timestep => {
                let (r, _) = run_timestep_traced(lps, lookahead, t_end, cfg);
                (fingerprint(r.lps.iter()), r.total_events())
            }
            // `run_timewarp_traced` fixes the default (unbounded) window, and
            // the work-stealing engine has no traced entry point
            Engine::Timewarp | Engine::Worksteal => return None,
        };
        Some(Outcome {
            fingerprint: fp,
            events,
        })
    }

    fn label(self) -> String {
        match self {
            Engine::Cmb => "run_cmb (2 threads)".into(),
            Engine::Timestep => "run_timestep (2 threads, window = lookahead)".into(),
            Engine::Timewarp => "run_timewarp_cfg (2 threads, optimism window 0.4)".into(),
            Engine::Worksteal => format!(
                "run_worksteal_cfg ({WS_WORKERS} workers, batch 64, migration every 5000 events)"
            ),
        }
    }

    fn has_ring(self) -> bool {
        matches!(self, Engine::Cmb | Engine::Timestep)
    }

    /// The engine's name in per-layer metric names.
    fn key(self) -> &'static str {
        match self {
            Engine::Cmb => "cmb",
            Engine::Timestep => "timestep",
            Engine::Timewarp => "timewarp",
            Engine::Worksteal => "worksteal",
        }
    }
}

/// An LP workload on one engine under test, checked against
/// `run_sequential`.
pub struct LpBench<L> {
    make: fn(u64, Size) -> LpSet<L>,
    seed: u64,
    size: Size,
    engine: Engine,
}

impl<L> LpBench<L> {
    /// `make` builds the LP set from a seed.
    pub fn new(make: fn(u64, Size) -> LpSet<L>, seed: u64, size: Size, engine: Engine) -> Self {
        LpBench {
            make,
            seed,
            size,
            engine,
        }
    }
}

impl<L> Bench for LpBench<L>
where
    L: SaveState + InitialEvents + State + 'static,
    L::Msg: Clone,
{
    fn label(&self) -> String {
        self.engine.label()
    }

    fn reference_is_engine(&self) -> bool {
        false
    }

    fn threads(&self) -> usize {
        match self.engine {
            Engine::Worksteal => WS_WORKERS,
            _ => (self.make)(self.seed, self.size).lps.len(),
        }
    }

    fn oracle(&self) -> (String, Result<Timed<Outcome>, Failure>) {
        ("run_sequential".into(), self.reference())
    }

    fn setup(&self) -> f64 {
        time_build(|| (self.make)(self.seed, self.size))
    }

    fn reference(&self) -> Result<Timed<Outcome>, Failure> {
        let (make, seed, size) = (self.make, self.seed, self.size);
        guarded(
            RUN_DEADLINE,
            move || make(seed, size),
            |set| {
                let r = run_sequential(set.lps, &set.edges, set.t_end);
                Outcome {
                    fingerprint: fingerprint(r.lps.iter()),
                    events: r.total_events(),
                }
            },
        )
    }

    fn engine_key(&self) -> Option<&'static str> {
        Some(self.engine.key())
    }

    fn run_engine(&self) -> Result<Timed<Outcome>, Failure> {
        let (make, seed, size, engine) = (self.make, self.seed, self.size, self.engine);
        guarded(
            RUN_DEADLINE,
            move || make(seed, size),
            move |set| engine.run(set),
        )
    }

    fn traced(&self) -> Result<Timed<(Outcome, Raw)>, Failure> {
        let (make, seed, size, engine) = (self.make, self.seed, self.size, self.engine);
        guarded(
            RUN_DEADLINE,
            move || make(seed, size),
            move |set| {
                let (outcome, lp) = engine.run_spanned(set);
                let raw = Raw {
                    events: outcome.events,
                    lp: Some(lp),
                    ..Raw::default()
                };
                (outcome, raw)
            },
        )
    }

    fn ring_traced(&self) -> Option<Result<Timed<Outcome>, Failure>> {
        let engine = self.engine;
        if !engine.has_ring() {
            return None;
        }
        let (make, seed, size) = (self.make, self.seed, self.size);
        Some(guarded(
            RUN_DEADLINE,
            move || make(seed, size),
            move |set| {
                engine
                    .run_ring(set)
                    .expect("engine has a traced entry point")
            },
        ))
    }
}
