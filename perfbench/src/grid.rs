//! `lhc_analysis`: the MONARC T0→T1 study with analysis load — 10 T1
//! regional centres behind a shared 10 Gbps T0 uplink, the replication
//! agent shipping 50 produced datasets to every T1, and 25k analysis jobs
//! at each T1 over the pre-produced datasets (250k jobs).
//!
//! `Monarc::run` hides its engine, so the same configuration is built here
//! from the public `lsds-grid` parts and run through `GridModel::build`,
//! which gives the run's event count.

use crate::harness::{fold, guarded, time_build, Failure, Outcome, Timed, FOLD_SEED, RUN_DEADLINE};
use crate::layers::{GridCounts, NetCounts, Raw};
use crate::probe::{EdProbe, TimedQueue, SAMPLE_EVERY};
use crate::{Bench, Size, Traced};
use lsds_core::{BinaryHeapQueue, CalendarQueue, EventDriven, SimTime};
use lsds_grid::cpu::{CpuFarm, Discipline, Sharing};
use lsds_grid::model::{GridConfig, GridEvent, GridModel, Production};
use lsds_grid::organization::{BuiltGrid, Organization};
use lsds_grid::replication::FileId;
use lsds_grid::scheduler::LeastLoaded;
use lsds_grid::site::Site;
use lsds_grid::storage::{DbServer, MassStorage, StorageElement};
use lsds_grid::{Activity, ReplicationPolicy, SiteId};
use lsds_net::{gbps, NodeKind, Topology};
use lsds_obs::{RingTracer, TraceConfig};
use lsds_stats::{Dist, SimRng};
use std::rc::Rc;

const N_T1: usize = 10;
const UPLINK_GBPS: f64 = 10.0;
const T1_LINK_GBPS: f64 = 10.0;
const DATASET_BYTES: f64 = 100.0e9;
const PRODUCTION_INTERVAL: f64 = 320.0;
const DATASETS: u64 = 50;
const INITIAL_DATASETS: usize = 20;
const T1_CORES: usize = 32;

/// The `lhc_analysis` workload.
pub struct LhcBench {
    seed: u64,
    jobs_per_t1: u64,
}

impl LhcBench {
    /// The workload at `size`, seeded by `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let jobs_per_t1 = match size {
            Size::Full => 25_000,
            Size::Tiny => 200,
        };
        LhcBench { seed, jobs_per_t1 }
    }
}

/// T0 — uplink — gateway — fat links — T1s, as in `Monarc`.
fn grid() -> BuiltGrid {
    let mut topo = Topology::new();
    let t0 = topo.add_node(NodeKind::Host, "T0");
    let gw = topo.add_node(NodeKind::Router, "T0-gateway");
    topo.add_duplex(t0, gw, gbps(UPLINK_GBPS), 0.001);
    let mut sites = vec![Site::new(
        SiteId(0),
        "T0",
        0,
        t0,
        CpuFarm::new(1, 1e-6, Sharing::Space, Discipline::Fifo),
        StorageElement::new(1.0e16),
        f64::INFINITY,
    )
    .with_tape(MassStorage::new(4, 45.0, 400.0e6))
    .with_db(DbServer::new(8, 0.2))];
    let mut parents = vec![None];
    for i in 0..N_T1 {
        let node = topo.add_node(NodeKind::Host, format!("T1-{i}"));
        topo.add_duplex(gw, node, gbps(T1_LINK_GBPS), 0.02);
        sites.push(Site::new(
            SiteId(i + 1),
            format!("T1-{i}"),
            1,
            node,
            CpuFarm::new(T1_CORES, 1.0, Sharing::Space, Discipline::Fifo),
            StorageElement::new(1.0e15),
            1.0,
        ));
        parents.push(Some(SiteId(0)));
    }
    BuiltGrid {
        sites,
        topology: topo,
        organization: Organization::Tiered,
        parents,
    }
}

fn config(seed: u64, jobs_per_t1: u64) -> GridConfig {
    let master = SimRng::new(seed);
    let activities = (0..N_T1)
        .map(|i| {
            Activity::analysis(
                i as u32,
                60.0,
                Dist::exp_mean(600.0),
                1,
                INITIAL_DATASETS,
                0.8,
                master.fork(i as u64 + 10),
            )
            .with_limit(jobs_per_t1)
        })
        .collect();
    GridConfig {
        grid: grid(),
        policy: Box::new(LeastLoaded),
        replication: ReplicationPolicy::PullLru,
        activities,
        production: Some(Production {
            site: SiteId(0),
            interarrival: Dist::constant(PRODUCTION_INTERVAL),
            size: Dist::constant(DATASET_BYTES),
            limit: Some(DATASETS),
        }),
        agent: Some(N_T1 * 2),
        eligible: None,
        initial_files: (0..INITIAL_DATASETS)
            .map(|_| (DATASET_BYTES, SiteId(0)))
            .collect(),
        seed,
    }
}

/// The agent already shipped the pre-produced datasets to every T1.
fn prestage(m: &mut GridModel) {
    for f in 0..INITIAL_DATASETS {
        for t1 in 1..=N_T1 {
            m.prestage_replica(FileId(f as u64), SiteId(t1));
        }
    }
}

/// A model ready to run, for engines other than `GridModel::build`'s.
fn model(seed: u64, jobs_per_t1: u64) -> GridModel {
    let mut m = GridModel::new(config(seed, jobs_per_t1));
    prestage(&mut m);
    m
}

/// `GridModel::build`: the public entry point, default event list.
fn built(seed: u64, jobs_per_t1: u64) -> EventDriven<GridModel> {
    let mut sim = GridModel::build(config(seed, jobs_per_t1));
    prestage(sim.model_mut());
    sim
}

fn outcome(m: &GridModel, events: u64, jobs_per_t1: u64) -> Outcome {
    let records = m.records();
    assert_eq!(
        records.len() as u64,
        jobs_per_t1 * N_T1 as u64,
        "not every analysis job finished"
    );
    assert_eq!(m.produced(), DATASETS, "production stopped early");
    assert_eq!(
        m.agent_log().len() as u64,
        DATASETS * N_T1 as u64,
        "not every dataset reached every T1"
    );
    let mut h = FOLD_SEED;
    for r in records {
        h = fold(h, r.id.0);
        h = fold(h, r.site.0 as u64);
        h = fold(h, r.finished.seconds().to_bits());
    }
    for &(file, dst, at) in m.agent_log() {
        h = fold(fold(fold(h, file), dst as u64), at.to_bits());
    }
    Outcome {
        fingerprint: h,
        events,
    }
}

impl Bench for LhcBench {
    fn label(&self) -> String {
        "GridModel::build (EventDriven<BinaryHeapQueue>)".into()
    }

    fn reference_is_engine(&self) -> bool {
        true
    }

    fn threads(&self) -> usize {
        1
    }

    fn oracle(&self) -> (String, Result<Timed<Outcome>, Failure>) {
        let (seed, jobs) = (self.seed, self.jobs_per_t1);
        let r = guarded(
            RUN_DEADLINE,
            move || {
                let mut sim = EventDriven::with_queue(model(seed, jobs), CalendarQueue::new());
                sim.schedule(SimTime::ZERO, GridEvent::Init);
                sim
            },
            move |mut sim| {
                let events = sim.run().events;
                outcome(sim.model(), events, jobs)
            },
        );
        ("GridModel on EventDriven<CalendarQueue>".into(), r)
    }

    fn setup(&self) -> f64 {
        time_build(|| built(self.seed, self.jobs_per_t1))
    }

    fn reference(&self) -> Result<Timed<Outcome>, Failure> {
        let (seed, jobs) = (self.seed, self.jobs_per_t1);
        guarded(
            RUN_DEADLINE,
            move || built(seed, jobs),
            move |mut sim| {
                let events = sim.run().events;
                outcome(sim.model(), events, jobs)
            },
        )
    }

    fn run_engine(&self) -> Result<Timed<Outcome>, Failure> {
        self.reference()
    }

    fn traced(&self) -> Result<Timed<(Outcome, Raw)>, Failure> {
        let (seed, jobs) = (self.seed, self.jobs_per_t1);
        guarded(
            RUN_DEADLINE,
            move || {
                let probe = Rc::new(EdProbe::default());
                let traced = Traced::new(model(seed, jobs), probe.clone(), |ev| {
                    matches!(ev, GridEvent::Net(_))
                });
                let queue = TimedQueue::new(BinaryHeapQueue::new(), probe.clone());
                let mut sim = EventDriven::with_queue(traced, queue);
                sim.schedule(SimTime::ZERO, GridEvent::Init);
                (sim, probe)
            },
            move |(mut sim, probe)| {
                let events = sim.run().events;
                let m = &sim.model().inner;
                let report = m.report();
                let (hits, misses) = m.net().route_cache_stats();
                let raw = Raw {
                    events,
                    ed: Some(probe.finish()),
                    net: Some(NetCounts {
                        reshares: m.net().reshare_count(),
                        flows_touched: m.net().flows_touched(),
                        links_touched: m.net().links_touched(),
                        route_hits: hits,
                        route_misses: misses,
                    }),
                    grid: Some(GridCounts {
                        jobs: report.records.len() as u64,
                        shipped: report.agent_shipped,
                        transfer_retries: report.transfer_retries,
                        jobs_requeued: report.jobs_requeued,
                        jobs_deferred: report.jobs_deferred,
                    }),
                    ..Raw::default()
                };
                (outcome(m, events, jobs), raw)
            },
        )
    }

    fn ring_traced(&self) -> Option<Result<Timed<Outcome>, Failure>> {
        let (seed, jobs) = (self.seed, self.jobs_per_t1);
        Some(guarded(
            RUN_DEADLINE,
            move || {
                built(seed, jobs).with_tracer(RingTracer::new(
                    TraceConfig::with_capacity(1 << 16).sampled(SAMPLE_EVERY),
                ))
            },
            move |mut sim| {
                let events = sim.run().events;
                outcome(sim.model(), events, jobs)
            },
        ))
    }
}
