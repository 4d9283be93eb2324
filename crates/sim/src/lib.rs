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
mod rng;
mod runner;

pub use machine::{explore, FinalState, Machine, SimArch};
pub use rng::SimRng;
pub use runner::{run_suite, run_test, satisfies, ObservationReport, SuiteObservation};
