//! Operational weak-memory + HTM simulators and a litmus-test runner.
//!
//! The paper validates its axiomatic models by running synthesised litmus
//! tests on real TSX and POWER8 hardware. This crate is the substitute for
//! that silicon: operational machines for x86 (TSO store
//! buffers), ARMv8 (out-of-order, multicopy-atomic) and Power (out-of-order,
//! non-multicopy-atomic write propagation), each with a best-effort hardware
//! transactional memory, plus a runner that executes a litmus test under many
//! randomised schedules and reports whether its postcondition is observable.
//!
//! Soundness of an axiomatic model with respect to these machines plays the
//! role of soundness with respect to hardware: no test in a Forbid suite
//! should ever be observed.
//!
//! # Compiled tests
//!
//! [`run_test`] compiles its test once. Locations and mutexes become small
//! ids in sorted-name order, each thread's registers become slots in
//! register order, and the postcondition is resolved to those ids. Every
//! ordering rule of the out-of-order machines depends only on the two
//! instructions involved, so each thread gets a static table: for each
//! instruction, the bitmask of earlier instructions it must wait for.
//!
//! All runs of the test then replay on one reused machine whose state is
//! bitmasks and flat arrays: per-write thread-visibility masks, the
//! transactional read, write and stale sets as location masks, write-set
//! values in an array, and reused buffers for the enabled actions and their
//! weights. A run allocates nothing; distinct final states are counted by a
//! compact key of final values, written registers and transaction outcomes.
//! The schedules are the ones the machines have always drawn, step for
//! step: `tests/sim_parity.rs` pins them.
//!
//! The bitmasks are `u32`, which bounds what a test may contain:
//! [`MAX_THREADS`] threads, [`MAX_INSTRS_PER_THREAD`] instructions in one
//! thread, [`MAX_LOCATIONS`] locations and [`MAX_MUTEXES`] mutexes.
//! [`run_test`] panics, naming the limit, on a test past any of them.
//! Synthesised tests have at most 3 threads, and the hand-written catalog
//! tests at most 5 instructions per thread.
//!
//! # Quick start
//!
//! ```
//! use tm_exec::catalog;
//! use tm_litmus::from_execution;
//! use tm_sim::{run_test, SimArch};
//!
//! let sb = from_execution(&catalog::sb(), "sb");
//! let report = run_test(SimArch::X86, &sb, 500, 42);
//! assert!(report.observed); // store buffering is real on x86
//!
//! let sb_txn = from_execution(&catalog::sb_txn(), "sb+txn");
//! let report = run_test(SimArch::X86, &sb_txn, 500, 42);
//! assert!(!report.observed); // transactions serialise it away
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod program;
mod rng;
mod runner;

pub use machine::SimArch;
pub use program::{MAX_INSTRS_PER_THREAD, MAX_LOCATIONS, MAX_MUTEXES, MAX_THREADS};
pub use rng::SimRng;
pub use runner::{run_suite, run_test, ObservationReport, SuiteObservation};
