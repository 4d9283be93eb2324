//! Bounded exhaustive synthesis of conformance tests for transactional
//! weak-memory models.
//!
//! This crate replaces the paper's SAT-based Memalloy backend with an
//! explicit bounded search. Within a bound both visit every well-formed
//! candidate execution (up to symmetry), so they synthesise the same
//! suites; the explicit search pays in time instead, which is why it runs
//! at smaller bounds than the paper's 6–7 events. It provides:
//!
//! * [`enumerate_exact`] / [`enumerate_all`] — enumeration of every
//!   well-formed candidate execution within a [`SynthConfig`] bound;
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
mod hash;
mod suite;
mod symmetry;
mod weaken;

pub use canon::{canonical_signature, CanonSig};
pub use config::SynthConfig;
pub use enumerate::{
    enumerate_all, enumerate_exact, enumerate_exact_incremental, enumerate_exact_incremental_until,
    enumerate_exact_reference, enumerate_exact_until, enumerate_reduced,
    enumerate_reduced_incremental, enumerate_reduced_incremental_until, enumerate_reduced_until,
    enumerate_unit_incremental, enumerate_unit_reduced, split_unit, unit_weight, work_units,
    WorkUnit,
};
pub use suite::{
    assemble_suites, find_distinguishing, minimal_under_weakenings, synthesise_suites,
    synthesise_suites_per_execution, synthesise_suites_with, SuiteReport, SynthesisedTest,
};
pub use symmetry::{labelled_orbit, ReducedCount, Symmetry};
pub use weaken::{
    apply_weakening_edits, probe_edit_script, undo_weakening_edits, weakening_edits, weakenings,
    weakenings_with_signatures, Weakening, WeakeningEdit,
};
