//! Per-layer metrics of a traced run.
//!
//! Layers are named after the crates: `core` (the `lsds-core` event list
//! and `EventDriven` dispatch), `net` (`lsds-net` `FlowNet`), `grid`
//! (`lsds-grid` scheduler, farms, replication), `parallel` (the
//! `lsds-parallel` engines) and `obs` (`lsds-obs` tracing). Every workload
//! prints every metric; a layer the workload leaves idle reads 0.

use crate::probe::{EdSpans, Span, SAMPLE_EVERY};
use std::collections::BTreeMap;

/// Counters read from a `FlowNet` after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounts {
    /// Rate reshares.
    pub reshares: u64,
    /// Flows whose rate a reshare recomputed, summed.
    pub flows_touched: u64,
    /// Links a reshare visited, summed.
    pub links_touched: u64,
    /// Route cache hits.
    pub route_hits: u64,
    /// Route cache misses.
    pub route_misses: u64,
}

/// Counts read from a `GridReport` after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridCounts {
    /// Analysis jobs finished.
    pub jobs: u64,
    /// Agent shipments completed.
    pub shipped: u64,
    /// Transfer retries.
    pub transfer_retries: u64,
    /// Jobs requeued after a site fault.
    pub jobs_requeued: u64,
    /// Jobs deferred for lack of an eligible site.
    pub jobs_deferred: u64,
}

/// Engine-specific counters of one parallel run, from the public report
/// structs and the engine's telemetry sink.
#[derive(Debug, Clone, Copy)]
pub enum EngineCounts {
    /// `CmbStats` + `cmb.blocked_ns`.
    Cmb {
        /// Null messages sent.
        nulls: u64,
        /// Times an LP blocked on input.
        blocks: u64,
        /// Host nanoseconds LPs spent blocked.
        blocked_ns: u64,
    },
    /// `TimestepReport` + `ts.barrier_ns`.
    Timestep {
        /// Synchronous windows executed.
        windows: u64,
        /// Host nanoseconds LPs waited at barriers.
        barrier_ns: u64,
    },
    /// `TwStats`, summed over LPs.
    Timewarp {
        /// Events executed, rolled-back executions included.
        processed: u64,
        /// Events undone by rollbacks.
        rolled_back: u64,
        /// Anti-messages sent.
        antis: u64,
        /// GVT rounds.
        gvt_rounds: u64,
        /// State snapshots saved.
        states_saved: u64,
        /// Times an LP blocked (window or empty queue).
        blocks: u64,
    },
    /// `WsSchedStats` + `WsStats` + `observed_imbalance`.
    Worksteal {
        /// Channel-clock advances.
        bound_updates: u64,
        /// Activations stolen from another worker.
        steals: u64,
        /// Worker parks.
        parks: u64,
        /// LP home changes at epoch boundaries.
        migrations: u64,
        /// LP activations.
        activations: u64,
        /// Max over mean worker load of the final placement.
        imbalance: f64,
    },
}

/// Raw measurements of one parallel run.
#[derive(Debug, Clone, Copy)]
pub struct LpRaw {
    /// Handler spans, summed over LPs.
    pub handler: Span,
    /// Threads the engine ran.
    pub threads: usize,
    /// The engine's own counters.
    pub counts: EngineCounts,
}

/// Raw measurements of one traced run, before they are turned into
/// metrics. Absent parts belong to idle layers.
#[derive(Debug, Clone, Default)]
pub struct Raw {
    /// Committed events.
    pub events: u64,
    /// Event-list and handler spans of an `EventDriven` run.
    pub ed: Option<EdSpans>,
    /// `FlowNet` counters.
    pub net: Option<NetCounts>,
    /// `GridReport` counts.
    pub grid: Option<GridCounts>,
    /// Parallel-engine spans and counters.
    pub lp: Option<LpRaw>,
}

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.events", "count"),
    ("core.queue.ops", "count"),
    ("core.queue.ns_per_op", "ns/op"),
    ("core.queue.pending_max", "count"),
    ("core.queue.share", "ratio"),
    ("core.handler.share", "ratio"),
    ("core.dispatch.share", "ratio"),
    ("net.flow.calls", "count"),
    ("net.flow.ns_per_call", "ns/call"),
    ("net.flow.share", "ratio"),
    ("net.flow.reshares", "count"),
    ("net.flow.flows_touched_per_reshare", "ratio"),
    ("net.flow.links_touched_per_reshare", "ratio"),
    ("net.route.cache_hit_ratio", "ratio"),
    ("grid.jobs", "count"),
    ("grid.shipped", "count"),
    ("grid.transfer_retries", "count"),
    ("grid.jobs_requeued", "count"),
    ("grid.jobs_deferred", "count"),
    ("grid.share.activity", "ratio"),
    ("grid.share.submit", "ratio"),
    ("grid.share.cpu", "ratio"),
    ("grid.share.produce", "ratio"),
    ("grid.share.net_flow_begin", "ratio"),
    ("grid.share.net_flow_complete", "ratio"),
    ("grid.share.other", "ratio"),
    ("parallel.cmb.speedup", "ratio"),
    ("parallel.cmb.cpus_busy", "ratio"),
    ("parallel.cmb.model_share", "ratio"),
    ("parallel.cmb.overhead_share", "ratio"),
    ("parallel.cmb.nulls_per_event", "ratio"),
    ("parallel.cmb.blocks", "count"),
    ("parallel.cmb.blocked_share", "ratio"),
    ("parallel.timestep.speedup", "ratio"),
    ("parallel.timestep.cpus_busy", "ratio"),
    ("parallel.timestep.model_share", "ratio"),
    ("parallel.timestep.overhead_share", "ratio"),
    ("parallel.timestep.windows", "count"),
    ("parallel.timestep.barrier_wait_share", "ratio"),
    ("parallel.timewarp.speedup", "ratio"),
    ("parallel.timewarp.cpus_busy", "ratio"),
    ("parallel.timewarp.model_share", "ratio"),
    ("parallel.timewarp.overhead_share", "ratio"),
    ("parallel.timewarp.rollback_ratio", "ratio"),
    ("parallel.timewarp.antis", "count"),
    ("parallel.timewarp.gvt_rounds", "count"),
    ("parallel.timewarp.states_saved", "count"),
    ("parallel.timewarp.blocks", "count"),
    ("parallel.worksteal.speedup", "ratio"),
    ("parallel.worksteal.cpus_busy", "ratio"),
    ("parallel.worksteal.model_share", "ratio"),
    ("parallel.worksteal.overhead_share", "ratio"),
    ("parallel.worksteal.bound_updates_per_event", "ratio"),
    ("parallel.worksteal.steals", "count"),
    ("parallel.worksteal.parks", "count"),
    ("parallel.worksteal.migrations", "count"),
    ("parallel.worksteal.events_per_activation", "ratio"),
    ("parallel.partition.imbalance", "ratio"),
    ("obs.tracer_overhead", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.sample_every", "count"),
    ("trace.runs", "count"),
];

/// Grid span kinds reported on their own; the rest go to `other`.
const GRID_KINDS: &[(&str, &str)] = &[
    ("grid.activity", "grid.share.activity"),
    ("grid.submit", "grid.share.submit"),
    ("grid.cpu", "grid.share.cpu"),
    ("grid.produce", "grid.share.produce"),
    ("net.flow_begin", "grid.share.net_flow_begin"),
    ("net.flow_complete", "grid.share.net_flow_complete"),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer values of one traced run that took `wall` host seconds and
/// `cpu` CPU seconds. Only metrics of active layers are set; the caller
/// fills the rest of [`PER_LAYER`] with 0.
pub fn layer_values(raw: &Raw, wall: f64, cpu: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("core.events", raw.events as f64);
    m.insert("trace.sample_every", SAMPLE_EVERY as f64);
    if let Some(ed) = &raw.ed {
        let queue = ed.queue();
        // handler ⊇ net calls ⊇ their inserts; handler ⊇ model inserts
        let handler_self = (ed.handler.total_s() - ed.net.total_s() - ed.insert.total_s()).max(0.0);
        let net_self = (ed.net.total_s() - ed.insert_net.total_s()).max(0.0);
        let dispatch = (wall - ed.pop.total_s() - ed.handler.total_s()).max(0.0);
        m.insert("core.queue.ops", queue.calls as f64);
        m.insert(
            "core.queue.ns_per_op",
            ratio(queue.total_s() * 1e9, queue.calls as f64),
        );
        m.insert("core.queue.pending_max", ed.pending_max as f64);
        m.insert("core.queue.share", ratio(queue.total_s(), wall));
        m.insert("core.handler.share", ratio(handler_self, wall));
        m.insert("core.dispatch.share", ratio(dispatch, wall));
        m.insert("net.flow.calls", ed.net.calls as f64);
        m.insert(
            "net.flow.ns_per_call",
            ratio(net_self * 1e9, ed.net.calls as f64),
        );
        m.insert("net.flow.share", ratio(net_self, wall));
        if raw.grid.is_some() {
            let per_sample = ratio(ed.handler.calls as f64, ed.handler.samples as f64) * 1e-9;
            let mut other = 0.0;
            for (&kind, &(_, ns)) in &ed.kinds {
                let share = ratio(ns as f64 * per_sample, wall);
                match GRID_KINDS.iter().find(|(k, _)| *k == kind) {
                    Some((_, name)) => {
                        m.insert(name, share);
                    }
                    None => other += share,
                }
            }
            m.insert("grid.share.other", other);
        }
    }
    if let Some(n) = raw.net {
        m.insert("net.flow.reshares", n.reshares as f64);
        m.insert(
            "net.flow.flows_touched_per_reshare",
            ratio(n.flows_touched as f64, n.reshares as f64),
        );
        m.insert(
            "net.flow.links_touched_per_reshare",
            ratio(n.links_touched as f64, n.reshares as f64),
        );
        m.insert(
            "net.route.cache_hit_ratio",
            ratio(n.route_hits as f64, (n.route_hits + n.route_misses) as f64),
        );
    }
    if let Some(g) = raw.grid {
        m.insert("grid.jobs", g.jobs as f64);
        m.insert("grid.shipped", g.shipped as f64);
        m.insert("grid.transfer_retries", g.transfer_retries as f64);
        m.insert("grid.jobs_requeued", g.jobs_requeued as f64);
        m.insert("grid.jobs_deferred", g.jobs_deferred as f64);
    }
    if let Some(lp) = raw.lp {
        let handler = lp.handler.total_s();
        let threads = lp.threads as f64;
        let events = raw.events as f64;
        let (model_share, overhead_share) = match lp.counts {
            EngineCounts::Cmb { .. } => ("parallel.cmb.model_share", "parallel.cmb.overhead_share"),
            EngineCounts::Timestep { .. } => (
                "parallel.timestep.model_share",
                "parallel.timestep.overhead_share",
            ),
            EngineCounts::Timewarp { .. } => (
                "parallel.timewarp.model_share",
                "parallel.timewarp.overhead_share",
            ),
            EngineCounts::Worksteal { .. } => (
                "parallel.worksteal.model_share",
                "parallel.worksteal.overhead_share",
            ),
        };
        m.insert(model_share, ratio(handler, wall * threads));
        m.insert(overhead_share, ratio((cpu - handler).max(0.0), cpu));
        match lp.counts {
            EngineCounts::Cmb {
                nulls,
                blocks,
                blocked_ns,
            } => {
                m.insert("parallel.cmb.nulls_per_event", ratio(nulls as f64, events));
                m.insert("parallel.cmb.blocks", blocks as f64);
                m.insert(
                    "parallel.cmb.blocked_share",
                    ratio(blocked_ns as f64 * 1e-9, wall * threads),
                );
            }
            EngineCounts::Timestep {
                windows,
                barrier_ns,
            } => {
                m.insert("parallel.timestep.windows", windows as f64);
                m.insert(
                    "parallel.timestep.barrier_wait_share",
                    ratio(barrier_ns as f64 * 1e-9, wall * threads),
                );
            }
            EngineCounts::Timewarp {
                processed,
                rolled_back,
                antis,
                gvt_rounds,
                states_saved,
                blocks,
            } => {
                m.insert(
                    "parallel.timewarp.rollback_ratio",
                    ratio(rolled_back as f64, processed as f64),
                );
                m.insert("parallel.timewarp.antis", antis as f64);
                m.insert("parallel.timewarp.gvt_rounds", gvt_rounds as f64);
                m.insert("parallel.timewarp.states_saved", states_saved as f64);
                m.insert("parallel.timewarp.blocks", blocks as f64);
            }
            EngineCounts::Worksteal {
                bound_updates,
                steals,
                parks,
                migrations,
                activations,
                imbalance,
            } => {
                m.insert(
                    "parallel.worksteal.bound_updates_per_event",
                    ratio(bound_updates as f64, events),
                );
                m.insert("parallel.worksteal.steals", steals as f64);
                m.insert("parallel.worksteal.parks", parks as f64);
                m.insert("parallel.worksteal.migrations", migrations as f64);
                m.insert(
                    "parallel.worksteal.events_per_activation",
                    ratio(events, activations as f64),
                );
                m.insert("parallel.partition.imbalance", imbalance);
            }
        }
    }
    m
}
