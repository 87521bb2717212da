//! `lsds-parallel` — distributed simulation execution.
//!
//! The taxonomy (§3) classifies engines by *execution* into **centralized**
//! (one execution unit, regardless of available cores — `lsds-core`'s
//! engines) and **distributed** (multiple cooperating processors). The
//! paper traces distributed simulation to Misra's 1986 survey and notes
//! that "despite over two decades of research, the technology of
//! distributed simulations has not significantly impressed the general
//! simulation community" (Fujimoto 1993) — because "considerable efforts
//! and expertise are still required to develop efficient simulation
//! programs". This crate implements four distributed engines and a
//! sequential oracle as sync policies on one per-LP kernel (`kernel.rs`),
//! so experiment E4 can quantify exactly that trade-off:
//!
//! * [`cmb`] — asynchronous conservative synchronization with **null
//!   messages** (Chandy–Misra–Bryant). Each logical process advances as
//!   far as its input-channel clocks allow; lookahead bounds the null-
//!   message overhead.
//! * [`timestep`] — synchronous (barrier) execution in fixed windows no
//!   wider than the system lookahead.
//! * [`timewarp`] — **optimistic** synchronization (Jefferson's Time
//!   Warp): speculative execution with state saving, rollback on
//!   stragglers, anti-message annihilation, and token-based GVT driving
//!   fossil collection. Wins where lookahead is short (E4's bad case for
//!   CMB).
//! * [`worksteal`] — conservative synchronization on a **work-stealing
//!   worker pool**: LPs are decoupled from OS threads, channel clocks
//!   are written through shared memory instead of null messages, and an
//!   epoch rebalancer migrates LPs between workers by measured cost.
//!   Wins when LPs outnumber cores (the oversubscription case
//!   `exp_worksteal` measures).
//!
//! All engines are deterministic: events are processed per logical
//! process in `(time, source, sequence)` order, independent of thread
//! interleaving, so a parallel run reproduces the centralized result —
//! [`sequential`] is the single-threaded reference the equivalence tests
//! compare every engine against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cmb;
mod kernel;
pub mod lp;
pub mod partition;
pub mod sequential;
pub mod timestep;
pub mod timewarp;
pub mod worksteal;

pub use cmb::{run_cmb, run_cmb_telemetry, run_cmb_traced, CmbReport, CmbStats};
pub use lp::{InitialEvents, LogicalProcess, LpCtx, LpId};
pub use partition::{
    block_partition, owners, profiled, profiled_from_trace, round_robin_partition,
};
pub use sequential::{run_sequential, run_sequential_telemetry, SequentialReport};
pub use timestep::{run_timestep, run_timestep_telemetry, run_timestep_traced, TimestepReport};
pub use timewarp::{
    run_timewarp, run_timewarp_cfg, run_timewarp_telemetry, run_timewarp_traced, SaveState,
    TwConfig, TwReport, TwStats,
};
pub use worksteal::{
    run_worksteal, run_worksteal_cfg, run_worksteal_telemetry, WsConfig, WsReport, WsSchedStats,
    WsStats,
};
