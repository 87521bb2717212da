//! `net_1m_100k`: the sliding-window transfer shape on `EventDriven` +
//! `FlowNet`, 30k duplex host pairs (120k modelled entities), 34
//! transfers per pair, at most 256 pairs active at once.
//!
//! Each pair runs its transfers back to back; a pair that finishes its
//! quota activates the next idle pair, so the pending-event set stays
//! near the window while every entity of the topology takes part.

use crate::harness::{fold, guarded, time_build, Failure, Outcome, Timed, FOLD_SEED, RUN_DEADLINE};
use crate::layers::{NetCounts, Raw};
use crate::probe::{EdProbe, TimedQueue, SAMPLE_EVERY};
use crate::{Bench, Size, Traced};
use lsds_core::{BinaryHeapQueue, CalendarQueue, Ctx, EventDriven, EventQueue, Model, SimTime};
use lsds_net::{mbps, FlowDone, FlowEvent, FlowNet, NodeId, NodeKind, ShareMode, Topology};
use lsds_obs::{RingTracer, SpanKind, TraceConfig};
use lsds_stats::SimRng;
use std::rc::Rc;

/// Timing hook around the model's network calls: nothing on untraced
/// runs, a sampled span on traced ones.
pub trait NetSpans {
    /// Runs one call into `FlowNet`.
    fn net_call<R>(&self, f: impl FnOnce() -> R) -> R;
}

impl NetSpans for () {
    #[inline(always)]
    fn net_call<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl NetSpans for Rc<EdProbe> {
    #[inline]
    fn net_call<R>(&self, f: impl FnOnce() -> R) -> R {
        EdProbe::net_call(self, f)
    }
}

/// Event alphabet of the transfer model.
pub enum Ev {
    /// Start the next transfer of this pair.
    Kick(u32),
    /// An event of the embedded flow network.
    Net(FlowEvent),
}

/// The transfer generator.
pub struct NetModel<S> {
    net: FlowNet,
    endpoints: Vec<(NodeId, NodeId)>,
    remaining: Vec<u32>,
    next_pair: usize,
    rng: SimRng,
    completions: u64,
    fingerprint: u64,
    done: Vec<FlowDone>,
    spans: S,
}

impl<S: NetSpans> NetModel<S> {
    fn kick(&mut self, p: u32, ctx: &mut Ctx<'_, Ev>) {
        let (a, b) = self.endpoints[p as usize];
        let bytes = self.rng.range_f64(5.0e5, 2.0e6);
        let started = self.spans.net_call(|| {
            self.net
                .try_start(a, b, bytes, p as u64, &mut ctx.map(Ev::Net))
        });
        // pairs are disjoint and nothing fails a link, so every start routes
        assert!(started.is_ok(), "transfer between pair {p} failed to route");
    }

    fn schedule_next(&mut self, p: u32, ctx: &mut Ctx<'_, Ev>) {
        self.remaining[p as usize] -= 1;
        let next = if self.remaining[p as usize] > 0 {
            p
        } else if self.next_pair < self.endpoints.len() {
            self.next_pair += 1;
            (self.next_pair - 1) as u32
        } else {
            return;
        };
        let gap = self.rng.range_f64(0.01, 0.5);
        ctx.schedule_in(gap, Ev::Kick(next));
    }
}

impl<S: NetSpans> Model for NetModel<S> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Kick(p) => self.kick(p, ctx),
            Ev::Net(fe) => {
                let mut done = std::mem::take(&mut self.done);
                self.spans
                    .net_call(|| self.net.handle_into(fe, &mut ctx.map(Ev::Net), &mut done));
                for d in done.drain(..) {
                    self.completions += 1;
                    self.fingerprint = fold(
                        fold(self.fingerprint, d.tag),
                        d.finished.seconds().to_bits(),
                    );
                    self.schedule_next(d.tag as u32, ctx);
                }
                self.done = done;
            }
        }
    }

    fn trace_kind(&self, ev: &Ev) -> SpanKind {
        match ev {
            Ev::Kick(p) => SpanKind::tagged("net.kick", *p as u64),
            Ev::Net(fe) => fe.span_kind(),
        }
    }
}

/// Sizes of the transfer shape.
#[derive(Debug, Clone, Copy)]
pub struct NetShape {
    pairs: usize,
    per_pair: u32,
    window: usize,
}

impl NetShape {
    /// The workload's size.
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => NetShape {
                pairs: 30_000,
                per_pair: 34,
                window: 256,
            },
            Size::Tiny => NetShape {
                pairs: 64,
                per_pair: 6,
                window: 16,
            },
        }
    }

    /// Builds the topology and the model; `seed` draws transfer sizes and
    /// gaps.
    fn model<S>(self, seed: u64, spans: S) -> NetModel<S> {
        let mut topo = Topology::new();
        let mut endpoints = Vec::with_capacity(self.pairs);
        for p in 0..self.pairs {
            let a = topo.add_node(NodeKind::Host, format!("a{p}"));
            let b = topo.add_node(NodeKind::Host, format!("b{p}"));
            topo.add_duplex(a, b, mbps(100.0), 0.001);
            endpoints.push((a, b));
        }
        let mut net = FlowNet::new(topo);
        net.set_share_mode(ShareMode::Incremental);
        NetModel {
            net,
            endpoints,
            remaining: vec![self.per_pair; self.pairs],
            next_pair: self.window.min(self.pairs),
            rng: SimRng::new(seed),
            completions: 0,
            fingerprint: FOLD_SEED,
            done: Vec::new(),
            spans,
        }
    }

    /// Model plus engine with the first window of pairs kicked off.
    fn sim<M: Model<Event = Ev>, Q: EventQueue<Ev>>(self, model: M, queue: Q) -> EventDriven<M, Q> {
        let mut sim = EventDriven::with_queue(model, queue);
        for p in 0..self.window.min(self.pairs) {
            sim.schedule(SimTime::new(p as f64 * 1.0e-3), Ev::Kick(p as u32));
        }
        sim
    }

    fn outcome<S>(self, m: &NetModel<S>, events: u64) -> Outcome {
        let expected = self.pairs as u64 * self.per_pair as u64;
        assert_eq!(m.completions, expected, "not every transfer completed");
        assert_eq!(m.net.in_flight(), 0, "flows left in flight");
        Outcome {
            fingerprint: fold(m.fingerprint, m.completions),
            events,
        }
    }
}

/// The `net_1m_100k` workload.
pub struct NetBench {
    shape: NetShape,
    seed: u64,
}

impl NetBench {
    /// The workload at `size`, inputs drawn from `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        NetBench {
            shape: NetShape::new(size),
            seed,
        }
    }
}

impl Bench for NetBench {
    fn label(&self) -> String {
        "EventDriven<BinaryHeapQueue> + FlowNet (incremental sharing)".into()
    }

    fn reference_is_engine(&self) -> bool {
        true
    }

    fn threads(&self) -> usize {
        1
    }

    fn oracle(&self) -> (String, Result<Timed<Outcome>, Failure>) {
        let (shape, seed) = (self.shape, self.seed);
        let r = guarded(
            RUN_DEADLINE,
            move || shape.sim(shape.model(seed, ()), CalendarQueue::new()),
            move |mut sim| {
                let events = sim.run().events;
                shape.outcome(sim.model(), events)
            },
        );
        ("EventDriven<CalendarQueue>".into(), r)
    }

    fn setup(&self) -> f64 {
        let (shape, seed) = (self.shape, self.seed);
        time_build(|| shape.sim(shape.model(seed, ()), BinaryHeapQueue::new()))
    }

    fn reference(&self) -> Result<Timed<Outcome>, Failure> {
        let (shape, seed) = (self.shape, self.seed);
        guarded(
            RUN_DEADLINE,
            move || shape.sim(shape.model(seed, ()), BinaryHeapQueue::new()),
            move |mut sim| {
                let events = sim.run().events;
                shape.outcome(sim.model(), events)
            },
        )
    }

    fn run_engine(&self) -> Result<Timed<Outcome>, Failure> {
        self.reference()
    }

    fn traced(&self) -> Result<Timed<(Outcome, Raw)>, Failure> {
        let (shape, seed) = (self.shape, self.seed);
        guarded(
            RUN_DEADLINE,
            move || {
                let probe = Rc::new(EdProbe::default());
                let model = Traced::new(shape.model(seed, probe.clone()), probe.clone(), |_| false);
                (
                    shape.sim(
                        model,
                        TimedQueue::new(BinaryHeapQueue::new(), probe.clone()),
                    ),
                    probe,
                )
            },
            move |(mut sim, probe)| {
                let events = sim.run().events;
                let m = &sim.model().inner;
                let (hits, misses) = m.net.route_cache_stats();
                let raw = Raw {
                    events,
                    ed: Some(probe.finish()),
                    net: Some(NetCounts {
                        reshares: m.net.reshare_count(),
                        flows_touched: m.net.flows_touched(),
                        links_touched: m.net.links_touched(),
                        route_hits: hits,
                        route_misses: misses,
                    }),
                    ..Raw::default()
                };
                (shape.outcome(m, events), raw)
            },
        )
    }

    fn ring_traced(&self) -> Option<Result<Timed<Outcome>, Failure>> {
        let (shape, seed) = (self.shape, self.seed);
        Some(guarded(
            RUN_DEADLINE,
            move || {
                shape
                    .sim(shape.model(seed, ()), BinaryHeapQueue::new())
                    .with_tracer(RingTracer::new(
                        TraceConfig::with_capacity(1 << 16).sampled(SAMPLE_EVERY),
                    ))
            },
            move |mut sim| {
                let events = sim.run().events;
                shape.outcome(sim.model(), events)
            },
        ))
    }
}
