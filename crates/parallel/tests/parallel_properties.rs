//! Randomized tests of the distributed engines: for arbitrary ring
//! workloads, the conservative CMB engine, the time-stepped engine, and an
//! analytically computed reference all agree — parallel execution never
//! changes results (the determinism guarantee of `lsds-parallel`).
//!
//! Cases are generated with the deterministic [`SimRng`] (seeded per
//! trial), replacing the property-testing framework the offline build
//! cannot fetch.

use lsds_core::SimTime;
use lsds_parallel::cmb::InitialEvents;
use lsds_parallel::{
    run_cmb, run_sequential, run_timestep, run_timewarp, run_worksteal, run_worksteal_cfg,
    LogicalProcess, LpCtx, SaveState, WsConfig,
};
use lsds_stats::SimRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

const TRIALS: u64 = 24;

/// Token-passing ring node with per-node hop counts.
#[derive(Clone)]
struct Ring {
    n: usize,
    delay: f64,
    seen: u64,
}

impl LogicalProcess for Ring {
    type Msg = u64;
    fn handle(&mut self, _now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
        self.seen += 1;
        ctx.send((ctx.me() + 1) % self.n, self.delay, hop + 1);
    }
    fn lookahead(&self) -> f64 {
        self.delay
    }
}

impl InitialEvents for Ring {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        if ctx.me() == 0 {
            ctx.schedule_in(0.0, 0);
        }
    }
}

impl SaveState for Ring {
    type Saved = u64;
    fn save(&self) -> u64 {
        self.seen
    }
    fn restore(&mut self, saved: u64) {
        self.seen = saved;
    }
}

fn ring(n: usize, delay: f64) -> Vec<Ring> {
    (0..n).map(|_| Ring { n, delay, seen: 0 }).collect()
}

fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

/// Analytic reference: hop k fires at time k·delay; LP (k mod n) sees it.
fn analytic_counts(n: usize, delay: f64, t_end: f64) -> Vec<u64> {
    let mut counts = vec![0u64; n];
    let hops = (t_end / delay).floor() as u64;
    for k in 0..=hops {
        counts[(k % n as u64) as usize] += 1;
    }
    counts
}

#[test]
fn cmb_matches_analytic_ring() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B0 + trial);
        let n = 2 + rng.next_below(4) as usize;
        let delay = rng.range_f64(0.1, 5.0);
        let periods = 10 + rng.next_below(190) as u32;
        let t_end = delay * periods as f64 * 0.999; // avoid boundary ties
        let report = run_cmb(ring(n, delay), &ring_edges(n), SimTime::new(t_end));
        let expect = analytic_counts(n, delay, t_end);
        let got: Vec<u64> = report.lps.iter().map(|l| l.seen).collect();
        assert_eq!(got, expect, "n={n} delay={delay} periods={periods}");
    }
}

#[test]
fn timestep_matches_cmb() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B1 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let delay = rng.range_f64(0.2, 2.0);
        let periods = 10 + rng.next_below(90) as u32;
        let t_end = delay * periods as f64 * 0.999;
        let a = run_cmb(ring(n, delay), &ring_edges(n), SimTime::new(t_end));
        let b = run_timestep(ring(n, delay), delay, SimTime::new(t_end));
        let ca: Vec<u64> = a.lps.iter().map(|l| l.seen).collect();
        let cb: Vec<u64> = b.lps.iter().map(|l| l.seen).collect();
        assert_eq!(ca, cb, "n={n} delay={delay} periods={periods}");
    }
}

#[test]
fn timewarp_matches_analytic_ring() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B3 + trial);
        let n = 2 + rng.next_below(4) as usize;
        let delay = rng.range_f64(0.1, 5.0);
        let periods = 10 + rng.next_below(190) as u32;
        let t_end = delay * periods as f64 * 0.999;
        let report = run_timewarp(ring(n, delay), &ring_edges(n), SimTime::new(t_end));
        let expect = analytic_counts(n, delay, t_end);
        let got: Vec<u64> = report.lps.iter().map(|l| l.seen).collect();
        assert_eq!(got, expect, "n={n} delay={delay} periods={periods}");
        assert_eq!(
            report.total_events(),
            report.total_processed() - report.total_rolled_back(),
            "accounting must balance"
        );
    }
}

/// All five executors agree with t_end landing *exactly* on event times —
/// the adversarial boundary for CMB's t_end fold (S1) and for Time Warp's
/// inclusive-horizon handling. No `0.999` slack on purpose.
#[test]
fn engines_agree_at_exact_horizon_boundary() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B4 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let delay = rng.range_f64(0.2, 2.0);
        let periods = 5 + rng.next_below(45) as u32;
        let t_end = SimTime::new(delay * periods as f64);
        let seq = run_sequential(ring(n, delay), &ring_edges(n), t_end);
        let cmb = run_cmb(ring(n, delay), &ring_edges(n), t_end);
        let ts = run_timestep(ring(n, delay), delay, t_end);
        let tw = run_timewarp(ring(n, delay), &ring_edges(n), t_end);
        let ws = run_worksteal(ring(n, delay), &ring_edges(n), t_end);
        let cs: Vec<u64> = seq.lps.iter().map(|l| l.seen).collect();
        let cc: Vec<u64> = cmb.lps.iter().map(|l| l.seen).collect();
        let ct: Vec<u64> = ts.lps.iter().map(|l| l.seen).collect();
        let cw: Vec<u64> = tw.lps.iter().map(|l| l.seen).collect();
        let cx: Vec<u64> = ws.lps.iter().map(|l| l.seen).collect();
        assert_eq!(cs, cc, "cmb diverged: n={n} delay={delay} p={periods}");
        assert_eq!(cs, ct, "timestep diverged: n={n} delay={delay} p={periods}");
        assert_eq!(cs, cw, "timewarp diverged: n={n} delay={delay} p={periods}");
        assert_eq!(
            cs, cx,
            "worksteal diverged: n={n} delay={delay} p={periods}"
        );
        assert_eq!(seq.total_events(), tw.total_events());
        assert_eq!(seq.total_events(), ws.total_events());
    }
}

/// S4: a workload whose inter-LP delays are *far below* the declared
/// lookahead (so Time Warp speculates wrongly and must roll back) commits
/// exactly the sequential engine's event set and final state, across
/// seeds. The messages sent and their timestamps depend only on model
/// state, so any lost/duplicated/mis-ordered delivery diverges the hash.
///
/// Remote messages carry [`REMOTE`] and are pure sinks (they mutate state
/// but schedule nothing) — otherwise every delivery would seed a fresh
/// local chain and the event population would grow combinatorially. The
/// sinks still force rollbacks at the receiver, and rolling back the
/// *local* chain cancels its optimistic sends, exercising anti-messages.
const REMOTE: u64 = 1 << 63;

#[derive(Clone)]
struct Chaotic {
    n: usize,
    acc: u64,
    events: u64,
    local_dt: f64,
    until: f64,
}

impl LogicalProcess for Chaotic {
    type Msg = u64;
    fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
        self.events += 1;
        self.acc = self
            .acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add((v & !REMOTE) ^ now.seconds().to_bits());
        if v & REMOTE != 0 {
            return;
        }
        if now.seconds() + self.local_dt <= self.until {
            ctx.schedule_in(self.local_dt, self.acc >> 32);
        }
        // deterministic function of state: roughly every third event sends
        // to the next LP with a sub-lookahead delay in (0, 0.16]
        if self.acc.is_multiple_of(3) && self.n > 1 {
            let delay = 0.01 + (self.acc % 16) as f64 * 0.01;
            if now.seconds() + delay <= self.until {
                ctx.send(
                    (ctx.me() + 1) % self.n,
                    delay,
                    REMOTE | (self.acc & 0xffff_ffff),
                );
            }
        }
    }
    fn lookahead(&self) -> f64 {
        1.0 // a lie: actual sends go as low as 0.01
    }
}

impl InitialEvents for Chaotic {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        ctx.schedule_in(0.0, ctx.me() as u64 + 1);
    }
}

impl SaveState for Chaotic {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        (self.acc, self.events)
    }
    fn restore(&mut self, saved: (u64, u64)) {
        self.acc = saved.0;
        self.events = saved.1;
    }
}

#[test]
fn forced_stragglers_bit_identical_across_seeds() {
    let mut total_rollbacks = 0u64;
    for trial in 0..12 {
        let mut rng = SimRng::new(0x7153 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let until = 10.0 + rng.next_below(20) as f64;
        let mk = |rng: &mut SimRng| -> Vec<Chaotic> {
            (0..n)
                .map(|i| Chaotic {
                    n,
                    acc: 0x9e37 + i as u64 + rng.next_below(1000),
                    events: 0,
                    local_dt: 0.05 + (i as f64) * 0.03,
                    until,
                })
                .collect()
        };
        let proto = mk(&mut rng);
        let edges = ring_edges(n);
        let t_end = SimTime::new(until);
        let seq = run_sequential(proto.clone(), &edges, t_end);
        let tw = run_timewarp(proto, &edges, t_end);
        // bit-identical final state
        for i in 0..n {
            assert_eq!(
                seq.lps[i].acc, tw.lps[i].acc,
                "trial {trial} LP {i} state diverged"
            );
            assert_eq!(seq.lps[i].events, tw.lps[i].events, "trial {trial} LP {i}");
            // event-count accounting: committed == sequential deliveries
            assert_eq!(
                seq.events[i], tw.stats[i].committed,
                "trial {trial} LP {i} committed count"
            );
        }
        assert_eq!(
            tw.total_events(),
            tw.total_processed() - tw.total_rolled_back(),
            "trial {trial} accounting"
        );
        total_rollbacks += tw.total_rollbacks();
    }
    // the whole point: optimism must actually have been wrong sometimes
    assert!(
        total_rollbacks > 0,
        "straggler workload never forced a rollback — test lost its teeth"
    );
}

#[test]
fn cmb_repeatable() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B2 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let delay = rng.range_f64(0.1, 2.0);
        let t_end = SimTime::new(50.0);
        let a = run_cmb(ring(n, delay), &ring_edges(n), t_end);
        let b = run_cmb(ring(n, delay), &ring_edges(n), t_end);
        let ca: Vec<u64> = a.lps.iter().map(|l| l.seen).collect();
        let cb: Vec<u64> = b.lps.iter().map(|l| l.seen).collect();
        assert_eq!(ca, cb);
        assert_eq!(a.total_remote(), b.total_remote());
    }
}

/// Ring node of the topology 0→1→2→0 whose LP 0 also sends to LP 2 —
/// an edge the topology never declares.
#[derive(Clone)]
struct Stray {
    seen: u64,
}

impl LogicalProcess for Stray {
    type Msg = u64;
    fn handle(&mut self, _now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
        self.seen += 1;
        ctx.send((ctx.me() + 1) % 3, 1.0, hop + 1);
        if ctx.me() == 0 {
            ctx.send(2, 1.0, hop + 1);
        }
    }
    fn lookahead(&self) -> f64 {
        1.0
    }
}

impl InitialEvents for Stray {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        if ctx.me() == 0 {
            ctx.schedule_in(0.0, 0);
        }
    }
}

impl SaveState for Stray {
    type Saved = u64;
    fn save(&self) -> u64 {
        self.seen
    }
    fn restore(&mut self, saved: u64) {
        self.seen = saved;
    }
}

/// A send over an undeclared edge is a model bug that every edge-taking
/// engine must reject the same way: a panic, never a silent drop on some
/// engines and a delivery on others (which would make the sequential
/// oracle disagree with CMB without any error).
#[test]
fn undeclared_edge_send_panics_on_every_engine() {
    let lps = || vec![Stray { seen: 0 }; 3];
    let edges = ring_edges(3);
    let t_end = SimTime::new(10.0);
    let outcomes = [
        (
            "sequential",
            std::panic::catch_unwind(|| run_sequential(lps(), &edges, t_end).total_events()),
        ),
        (
            "cmb",
            std::panic::catch_unwind(|| run_cmb(lps(), &edges, t_end).total_events()),
        ),
        (
            "timewarp",
            std::panic::catch_unwind(|| run_timewarp(lps(), &edges, t_end).total_events()),
        ),
        (
            "worksteal",
            std::panic::catch_unwind(|| run_worksteal(lps(), &edges, t_end).total_events()),
        ),
    ];
    for (engine, outcome) in outcomes {
        assert!(
            outcome.is_err(),
            "{engine} accepted a send over an undeclared edge ({:?} events)",
            outcome.ok()
        );
    }
}

/// Wall-clock limit of one engine run in the tests below: far beyond what
/// any of them needs, so only a hang trips it.
const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `f` on a helper thread and returns its outcome, panic included.
/// A run that misses [`DEADLINE`] fails the test instead of hanging the
/// suite; its thread is left behind, since a hung thread cannot be joined.
fn within_deadline<R: Send + 'static>(
    what: &str,
    f: impl FnOnce() -> R + Send + 'static,
) -> std::thread::Result<R> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        tx.send(catch_unwind(AssertUnwindSafe(f))).ok();
    });
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what}: no result within {DEADLINE:?}; the run hung"))
}

/// Ring node whose LP 1 panics at t = 5.
#[derive(Clone)]
struct Fragile(Ring);

impl LogicalProcess for Fragile {
    type Msg = u64;
    fn handle(&mut self, now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
        if ctx.me() == 1 && now.seconds() >= 5.0 {
            panic!("fragile LP 1 fails at t={now}");
        }
        self.0.handle(now, hop, ctx);
    }
    fn lookahead(&self) -> f64 {
        self.0.lookahead()
    }
}

impl InitialEvents for Fragile {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        self.0.initial_events(ctx);
    }
}

impl SaveState for Fragile {
    type Saved = u64;
    fn save(&self) -> u64 {
        self.0.save()
    }
    fn restore(&mut self, saved: u64) {
        self.0.restore(saved);
    }
}

/// A panicking LP must not hang a thread-per-LP engine: its peers are
/// released and the caller gets the LP's own panic.
#[test]
fn lp_panic_reaches_caller_on_every_thread_per_lp_engine() {
    type Run = fn(Vec<Fragile>, &[(usize, usize)], SimTime) -> u64;
    let engines: [(&str, Run); 3] = [
        ("cmb", |l, e, t| run_cmb(l, e, t).total_events()),
        ("timestep", |l, _, t| run_timestep(l, 1.0, t).total_events()),
        ("timewarp", |l, e, t| run_timewarp(l, e, t).total_events()),
    ];
    for n in [2, 4] {
        for (engine, run) in engines {
            let lps: Vec<Fragile> = ring(n, 1.0).into_iter().map(Fragile).collect();
            let outcome = within_deadline(&format!("{engine} with {n} LPs"), move || {
                run(lps, &ring_edges(n), SimTime::new(20.0))
            });
            let Err(payload) = outcome else {
                panic!("{engine} with {n} LPs finished despite a panicking LP");
            };
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                msg.starts_with("fragile LP 1 fails"),
                "{engine} with {n} LPs raised {msg:?}, not the LP's own panic"
            );
        }
    }
}

/// Seeds per engine and size in the lost-wakeup stress below.
const STRESS_SEEDS: u64 = 50;

/// LP 0 runs a chain of local events and every other LP has none, so a
/// work-stealing pool with a worker per LP keeps all but one worker idle.
#[derive(Clone)]
struct Chain {
    seen: u64,
}

impl LogicalProcess for Chain {
    type Msg = ();
    fn handle(&mut self, _now: SimTime, _: (), ctx: &mut LpCtx<'_, ()>) {
        self.seen += 1;
        ctx.schedule_in(0.01, ());
    }
    fn lookahead(&self) -> f64 {
        1.0
    }
}

impl InitialEvents for Chain {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, ()>) {
        if ctx.me() == 0 {
            ctx.schedule_in(0.0, ());
        }
    }
}

/// Lost-wakeup stress on both wait paths. A one-token ring with a
/// trivial handler makes every LP (or worker) wait between hops, so runs
/// are almost all hand-offs; a [`Chain`] leaves work-stealing workers
/// idle for whole runs. `cores` threads take the spin-then-park path;
/// `cores + 2` outnumber the cores and park at once. Every run must
/// finish within the deadline and match `run_sequential` exactly.
#[test]
fn waits_lose_no_wakeup_spinning_or_parked() {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    // Threads at or below the core count spin first (a one-core host has
    // no such ring: every run there parks at once).
    for n in [cores.clamp(2, 4), cores + 2] {
        let mut parks = 0;
        for seed in 0..STRESS_SEEDS {
            let mut rng = SimRng::new(0x5717 + seed);
            let delay = rng.range_f64(0.5, 1.5);
            let t_end = SimTime::new(delay * (40 + rng.next_below(80)) as f64 * 0.999);
            let chain_end = SimTime::new(20.0 + rng.next_below(40) as f64);
            let edges = ring_edges(n);
            let seq = run_sequential(ring(n, delay), &edges, t_end);
            let want: Vec<u64> = seq.lps.iter().map(|l| l.seen).collect();
            let chain_seq = run_sequential(vec![Chain { seen: 0 }; n], &[], chain_end);
            let ws_cfg = WsConfig {
                workers: n,
                ..WsConfig::default()
            };
            let (runs, chain) = within_deadline(&format!("n={n} seed={seed}"), move || {
                let seen = |lps: &[Ring]| lps.iter().map(|l| l.seen).collect::<Vec<_>>();
                let cmb = run_cmb(ring(n, delay), &edges, t_end);
                let ts = run_timestep(ring(n, delay), delay, t_end);
                let tw = run_timewarp(ring(n, delay), &edges, t_end);
                let ws = run_worksteal_cfg(ring(n, delay), &edges, t_end, ws_cfg);
                let chain = run_worksteal_cfg(vec![Chain { seen: 0 }; n], &[], chain_end, ws_cfg);
                let runs = [
                    ("cmb", seen(&cmb.lps), cmb.total_events()),
                    ("timestep", seen(&ts.lps), ts.total_events()),
                    ("timewarp", seen(&tw.lps), tw.total_events()),
                    ("worksteal", seen(&ws.lps), ws.total_events()),
                ];
                (runs, chain)
            })
            .unwrap_or_else(|p| resume_unwind(p));
            for (engine, got, events) in runs {
                assert_eq!(got, want, "{engine} state: n={n} seed={seed}");
                assert_eq!(
                    events,
                    seq.total_events(),
                    "{engine} events: n={n} seed={seed}"
                );
            }
            assert_eq!(
                chain.lps[0].seen, chain_seq.lps[0].seen,
                "chain: n={n} seed={seed}"
            );
            assert_eq!(chain.total_events(), chain_seq.total_events());
            parks += chain.sched.parks;
        }
        if n > cores {
            assert!(parks > 0, "{n} workers with one runnable LP never parked");
        }
    }
}
