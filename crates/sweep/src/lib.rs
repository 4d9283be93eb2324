//! Checkpointed, crash-resilient sweeps over the bounded-exhaustive
//! enumeration space.
//!
//! The synthesis sweeps of Table 1 grow super-exponentially in the event
//! bound; at |E| ≥ 6 a run is hours long, and losing it to a crash, an OOM
//! kill or a cluster preemption means starting over. This crate makes the
//! sweep *restartable* without changing what it computes:
//!
//! * the enumeration is already partitioned into deterministic
//!   [`WorkUnit`](tm_synth::WorkUnit)s with stable cross-process ids;
//! * each completed unit's results (counts, banked Forbid candidates) are
//!   appended to a CRC-checked [`journal`](crate::journal) and fsync'd;
//! * on resume the journal is replayed, completed units are skipped, and
//!   the final suites are assembled from the union — **bit-identical** to
//!   an uninterrupted run, because units are deterministic and assembly
//!   sorts by canonical signature;
//! * a unit that panics or blows its deadline is retried with backoff and
//!   then quarantined: the sweep finishes degraded (and says so) instead of
//!   dying;
//! * inside a process, workers take the heaviest pending unit first and
//!   split oversized or in-flight units so no core idles behind a straggler;
//! * across processes, units shard deterministically by id (`id % m == i`),
//!   and a [`supervisor`](crate::supervisor) can keep a fleet of shard
//!   processes alive, restarting crashed ones against their own
//!   checkpoints. A shard that exhausts its restarts leaves its units
//!   pending; `--resume` finishes them.
//!
//! Fault injection ([`FailPlan`]) is a first-class citizen: the crash/resume
//! guarantees above are only worth having if they are exercised, so the
//! runner can be told to panic, exit or stall after K units — the
//! crash-resume tests and CI smoke jobs are built on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
pub mod journal;
pub mod report;
mod runner;
pub mod supervisor;

pub use codec::{decode_execution, encode_execution, CodecError};
pub use report::{report_json, write_report, Heartbeat, HEARTBEAT_FILE, REPORT_SCHEMA};
pub use runner::{
    merge_sharded, run_sweep, FailKind, FailPlan, QuarantinedUnit, SweepError, SweepJob, SweepMode,
    SweepOptions, SweepOutcome, SweepStatus, SweepTimings, UnitReport, INJECTED_EXIT_CODE,
};
pub use supervisor::{supervise, supervise_with, ShardRun, SupervisorOptions};
