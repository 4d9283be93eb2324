//! Bounded exhaustive synthesis of conformance tests for transactional
//! weak-memory models.
//!
//! This crate replaces the paper's SAT-based Memalloy backend with an
//! explicit bounded search. Within a bound both visit every well-formed
//! candidate execution (up to symmetry), so they synthesise the same
//! suites; the explicit search pays in time instead, which is why it runs
//! at smaller bounds than the paper's 6–7 events. It provides:
//!
//! * [`enumerate`] — enumeration of every well-formed candidate execution
//!   within a [`SynthConfig`] bound: one in-place walker
//!   ([`enumerate_unit`], over the [`work_units`] of the space) on one
//!   pool of scoped worker threads, in full or symmetry-reduced mode, with
//!   [`enumerate_exact`] as the full-mode convenience;
//! * [`weakenings`] — the ⊏ execution-weakening order of §4.2 (event
//!   removal, dependency removal, annotation downgrade, transaction shrink);
//! * [`synthesise_suites`] — the Forbid (minimally-forbidden) and Allow
//!   (maximally-allowed) conformance suites of Table 1;
//! * [`find_distinguishing`] — Memalloy's core query: one execution that
//!   separates two models;
//! * [`canonical_signature`] — deduplication up to thread/location renaming.
//!
//! # Quick start
//!
//! ```
//! use tm_models::{ScModel, X86Model};
//! use tm_synth::{synthesise_suites, SynthConfig};
//!
//! // Synthesise the 3-event Forbid/Allow suites for x86+TM.
//! let cfg = SynthConfig::x86(3);
//! let report = synthesise_suites(&X86Model::tm(), &X86Model::baseline(), &cfg, 3);
//! println!(
//!     "|E|=3: enumerated {}, forbid {}, allow {}",
//!     report.enumerated,
//!     report.forbid.len(),
//!     report.allow.len()
//! );
//! # let _ = ScModel::sc();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod config;
mod enumerate;
mod suite;
mod symmetry;
mod weaken;

pub use canon::{canonical_signature, CanonSig};
pub use config::SynthConfig;
pub use enumerate::{
    enumerate, enumerate_exact, enumerate_exact_reference, enumerate_unit, work_units,
    worker_count, WorkUnit,
};
pub use suite::{
    assemble_suites, find_distinguishing, synthesise_suites, synthesise_suites_per_execution,
    synthesise_suites_with, ForbidFilter, SuiteReport, SynthesisedTest,
};
pub use symmetry::{labelled_orbit, ReducedCount, Symmetry};
pub use weaken::{
    apply_weakening_edits, probe_edit_script, undo_weakening_edits, weakening_edits, weakenings,
    weakenings_with_signatures, Weakening, WeakeningEdit,
};
