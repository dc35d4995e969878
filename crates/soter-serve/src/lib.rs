//! Crash-safe sharded campaigns: a process-level coordinator, worker
//! subprocesses, and a long-running `soter-serve` daemon.
//!
//! The in-process [`Campaign`](soter_scenarios::campaign::Campaign)
//! parallelises a scenario × seed matrix across worker *threads*; this
//! crate lifts the same matrix across worker *processes*, which buys two
//! things threads cannot offer:
//!
//! * **Crash isolation** — a worker that segfaults, aborts, is OOM-killed
//!   or wedges takes out only its shard; the coordinator detects the loss
//!   (EOF or heartbeat timeout) and re-issues the shard's remaining jobs
//!   to a fresh worker.  Runs are seed-deterministic, so the merged
//!   report is byte-identical to an undisturbed run.
//! * **A service boundary** — the [`daemon::Daemon`] wraps the
//!   coordinator as a persistent service speaking a line protocol over
//!   stdin or a unix socket, multiplexing concurrent clients over one
//!   bounded [`coordinator::WorkerPool`].
//!
//! Module map: [`protocol`] defines the coordinator ⇄ worker wire format,
//! [`shard`] the request/plan types, [`coordinator`] the supervising
//! fan-out/merge machinery, [`worker`] the worker-process loop, and
//! [`daemon`] the service layer.  See `docs/ARCHITECTURE.md`
//! ("Distribution") for the failure state machine and
//! `docs/SCENARIOS.md` for a cookbook.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod coordinator;
pub mod daemon;
pub mod error;
pub mod protocol;
pub mod shard;
pub mod worker;

pub use coordinator::{
    worker_binary, KillPlan, ServeStats, ShardConfig, ShardCoordinator, WorkerPool,
};
pub use daemon::{Daemon, ServeConfig};
pub use error::ServeError;
pub use protocol::{CoordMsg, ProtocolError, WorkerMsg, PROTOCOL_VERSION};
pub use shard::{plan_shards, plan_shards_over, CampaignRequest, ShardPlan};
