//! Metatheory of the transactional memory models (§8 of the paper, Table 2).
//!
//! Four families of checks, each bounded and fully mechanical:
//!
//! * [`check_monotonicity`] — introducing, enlarging or coalescing
//!   transactions never makes an inconsistent execution consistent (§8.1).
//!   Holds for x86 and C++; Power and ARMv8 have the 2-event
//!   RMW-straddles-a-boundary counterexample. [`syntactic_monotonicity`]
//!   derives the property from axiom *structure* alone (polarity analysis
//!   over the shared axiom IR) wherever every axiom body is positive in the
//!   transactional structure, and is cross-checked against the enumeration.
//! * [`check_compilation`] — compiling C++ transactions directly to x86,
//!   Power or ARMv8 transactions is sound (§8.2).
//! * [`check_lock_elision`] — the lock-elision mapping of Table 3 preserves
//!   critical-region serialisability (§8.3). Unsound on ARMv8 (Example 1.1);
//!   no witness for x86 within the searched family; the §1.1 DMB repair
//!   removes the ARMv8 witness.
//! * [`check_theorem_7_2`] / [`check_theorem_7_3`] — bounded checks of the
//!   two hand-proved theorems about the C++ TM model (§7).
//!
//! The bounded searches (all but lock elision, which checks a fixed family)
//! walk the delta-threading enumerator with one stateful
//! [`DeltaChecker`](tm_models::DeltaChecker) per worker, and stop at the
//! first counterexample.
//!
//! # Quick start
//!
//! ```
//! use tm_litmus::Arch;
//! use tm_metatheory::check_lock_elision;
//!
//! let result = check_lock_elision(Arch::Armv8, false);
//! assert!(!result.sound()); // Example 1.1 rediscovered
//! let fixed = check_lock_elision(Arch::Armv8, true);
//! assert!(fixed.sound());   // the DMB repair removes the witness
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod elision;
mod monotonicity;
mod search;
mod theorems;

pub use compile::{check_compilation, compile_execution, CompilationResult};
pub use elision::{abstract_family, check_lock_elision, elide, CrBody, ElisionResult, LOCK_VAR};
pub use monotonicity::{
    check_monotonicity, syntactic_monotonicity, syntactic_monotonicity_of,
    transaction_reduction_edits, transaction_reductions, MonotonicityResult, SyntacticMonotonicity,
};
pub use theorems::{check_theorem_7_2, check_theorem_7_3, TheoremResult};
