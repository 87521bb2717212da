//! Logical processes — the unit of distribution.

use lsds_core::SimTime;
use lsds_obs::SpanKind;

/// Identifier of a logical process within a parallel run.
pub type LpId = usize;

/// One partition of a distributed simulation.
///
/// A logical process (LP) owns part of the model state; it handles locally
/// scheduled events and messages arriving from other LPs, in timestamp
/// order, and communicates only through [`LpCtx`]. The conservative
/// engines guarantee that `handle` observes a non-decreasing clock and
/// never sees a message "from the past".
pub trait LogicalProcess: Send {
    /// Message/event payload. One type covers both local events and
    /// inter-LP messages, mirroring how the surveyed simulators route
    /// everything through their event systems.
    type Msg: Send;

    /// Handles one event at time `now`.
    fn handle(&mut self, now: SimTime, msg: Self::Msg, ctx: &mut LpCtx<'_, Self::Msg>);

    /// Minimum simulated delay on any message this LP sends to another LP.
    ///
    /// This is the *lookahead* that makes conservative synchronization
    /// live; it must be strictly positive. Larger lookahead means fewer
    /// null messages (E4 sweeps this).
    fn lookahead(&self) -> f64;

    /// Classifies a message for the tracing layer (`lsds_obs::prof`).
    /// Only called when tracing is enabled; the exported track is always
    /// the handling LP's id.
    fn trace_kind(&self, _msg: &Self::Msg) -> SpanKind {
        SpanKind::DEFAULT
    }
}

/// Initial-events hook: called once per LP at time zero, before the run.
pub trait InitialEvents: LogicalProcess {
    /// Schedules the LP's initial events (local or remote).
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, Self::Msg>);
}

/// Outgoing traffic staged by an LP handler. `parent` is the tie key of
/// the event whose handler staged it (the causal edge of the trace DAG).
#[derive(Debug)]
pub(crate) enum Outgoing<M> {
    Local {
        at: SimTime,
        parent: u64,
        msg: M,
    },
    Remote {
        dst: LpId,
        at: SimTime,
        parent: u64,
        msg: M,
    },
}

/// Scheduling/communication handle passed to [`LogicalProcess::handle`].
pub struct LpCtx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) me: LpId,
    pub(crate) lookahead: f64,
    /// Tie key of the event being handled ([`lsds_core::NO_PARENT`] for
    /// initial-event staging).
    pub(crate) cause: u64,
    pub(crate) staged: &'a mut Vec<Outgoing<M>>,
}

impl<'a, M> LpCtx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This LP's id.
    pub fn me(&self) -> LpId {
        self.me
    }

    /// Schedules a local event after `dt ≥ 0`.
    ///
    /// Panics on a negative or non-finite `dt`: a buggy LP scheduling into
    /// the past would silently violate the conservative engines' clock
    /// invariant (events delivered in non-decreasing time order), so it is
    /// rejected here at the staging point rather than detected downstream.
    pub fn schedule_in(&mut self, dt: f64, msg: M) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "LP {} scheduled a local event with invalid delay {dt} at {}",
            self.me,
            self.now
        );
        let at = self.now.after(dt);
        self.staged.push(Outgoing::Local {
            at,
            parent: self.cause,
            msg,
        });
    }

    /// Sends a message to LP `dst`, arriving after `delay`.
    ///
    /// Under the conservative engines `delay` must be at least the LP's
    /// declared lookahead — the engine asserts this, because a shorter
    /// delay would invalidate the null-message guarantees already given
    /// to `dst`. The optimistic engine ([`crate::run_timewarp`]) instead
    /// runs handlers with an effective lookahead of the smallest positive
    /// double: it tolerates any *strictly positive* delay, however far
    /// below the declared lookahead, repairing mis-speculation with
    /// rollback where CMB would have tripped this assertion.
    pub fn send(&mut self, dst: LpId, delay: f64, msg: M) {
        assert!(
            delay >= self.lookahead,
            "send delay {delay} below lookahead {}",
            self.lookahead
        );
        assert!(dst != self.me, "use schedule_in for local events");
        let at = self.now.after(delay);
        self.staged.push(Outgoing::Remote {
            dst,
            at,
            parent: self.cause,
            msg,
        });
    }
}

/// Composite tie-break key making cross-LP delivery deterministic: events
/// at equal times are ordered by `(source LP, per-source sequence)`.
#[inline]
pub(crate) fn tie_key(src: LpId, seq: u64) -> u64 {
    debug_assert!(src < (1 << 16), "LP id too large for tie key");
    debug_assert!(seq < (1 << 48), "sequence overflow in tie key");
    ((src as u64) << 48) | seq
}

/// Total order on `(time, tie)` as one integer: IEEE-754 bit patterns of
/// non-negative finite doubles compare like the doubles themselves.
#[inline]
pub(crate) fn pack(at: SimTime, tie: u64) -> u128 {
    let s = at.seconds();
    debug_assert!(s >= 0.0, "negative sim time in tie pack");
    ((s.to_bits() as u128) << 64) | tie as u128
}

/// Validates a declared topology: every edge in range, no self-loops.
/// Shared by every engine so a bad edge list fails identically whichever
/// executor runs it.
pub(crate) fn validate_edges(n: usize, edges: &[(LpId, LpId)]) {
    for &(s, d) in edges {
        assert!(s < n && d < n && s != d, "bad edge ({s},{d})");
    }
}

/// In-neighbors of `me` under a declared edge list, in declaration order.
pub(crate) fn in_neighbors(edges: &[(LpId, LpId)], me: LpId) -> Vec<LpId> {
    edges
        .iter()
        .filter(|(_, d)| *d == me)
        .map(|(s, _)| *s)
        .collect()
}

/// Out-neighbors of `me` under a declared edge list, in declaration order.
pub(crate) fn out_neighbors(edges: &[(LpId, LpId)], me: LpId) -> Vec<LpId> {
    edges
        .iter()
        .filter(|(s, _)| *s == me)
        .map(|(_, d)| *d)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_core::NO_PARENT;

    #[test]
    fn pack_orders_by_time_then_tie() {
        assert!(pack(SimTime::new(1.0), 7) < pack(SimTime::new(2.0), 0));
        assert!(pack(SimTime::new(3.0), 1) < pack(SimTime::new(3.0), 2));
        assert!(pack(SimTime::ZERO, u64::MAX) < pack(SimTime::new(1e-300), 0));
    }

    #[test]
    fn neighbor_lists_follow_declaration_order() {
        let edges = [(0usize, 2usize), (1, 2), (2, 0), (0, 1)];
        assert_eq!(in_neighbors(&edges, 2), vec![0, 1]);
        assert_eq!(out_neighbors(&edges, 0), vec![2, 1]);
        assert_eq!(in_neighbors(&edges, 0), vec![2]);
        assert_eq!(out_neighbors(&edges, 2), vec![0]);
    }

    #[test]
    #[should_panic(expected = "bad edge")]
    fn validate_edges_rejects_self_loop() {
        validate_edges(3, &[(1, 1)]);
    }

    #[test]
    fn tie_key_orders_by_src_then_seq() {
        assert!(tie_key(0, 5) < tie_key(0, 6));
        assert!(tie_key(0, u32::MAX as u64) < tie_key(1, 0));
        assert!(tie_key(1, 7) < tie_key(2, 0));
    }

    #[test]
    fn ctx_stages_local_and_remote() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.schedule_in(0.0, 1);
        ctx.send(1, 1.0, 2);
        assert_eq!(staged.len(), 2);
        match &staged[1] {
            Outgoing::Remote { dst, at, msg, .. } => {
                assert_eq!(*dst, 1);
                assert_eq!(*at, SimTime::new(11.0));
                assert_eq!(*msg, 2);
            }
            _ => panic!("expected remote"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn schedule_in_negative_dt_panics() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.schedule_in(-0.5, 1);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn schedule_in_nan_dt_panics() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.schedule_in(f64::NAN, 1);
    }

    /// The conservative contract: `send` rejects delays below the
    /// declared lookahead. Time Warp runs handlers with `lookahead =
    /// f64::MIN_POSITIVE`, so the same model code is accepted there for
    /// any strictly positive delay — only zero-delay cross-LP sends stay
    /// forbidden (they would make equal-time ordering race-dependent).
    #[test]
    #[should_panic]
    fn send_below_lookahead_panics() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.send(1, 0.5, 2);
    }
}
