//! Axiomatic weak-memory models with transactional extensions.
//!
//! This crate is the core of the reproduction of the PLDI'18 paper *The
//! Semantics of Transactions and Weak Memory in x86, Power, ARM, and C++*:
//! it implements the consistency predicates of Fig. 4 (SC / TSC), Fig. 5
//! (x86 ± TM), Fig. 6 (Power ± TM), Fig. 8 (ARMv8 ± TM) and Fig. 9
//! (C++ ± TM), the isolation axioms of §3.3, and the `CROrder` axiom used
//! for lock-elision checking in §8.3.
//!
//! Every model is an [`ir::IrModel`]: a table of axioms over the relational
//! IR of [`tm_exec::ir`]. The built-in models are tables of one shared
//! catalog ([`ir::catalog`]); [`Target::model`] and the constructors
//! [`X86Model`], [`PowerModel`], [`Armv8Model`], [`CppModel`] and
//! [`ScModel`] hand out copies of them. Models check
//! [`tm_exec::Execution`] candidates and report per-axiom verdicts, which
//! the synthesiser (`tm-synth`), the metatheory checks (`tm-metatheory`)
//! and the benchmark harness rely on.
//!
//! # Quick start
//!
//! ```
//! use tm_exec::catalog;
//! use tm_models::{MemoryModel, Target};
//!
//! // Ask every model about the transactional store-buffering test.
//! for target in Target::ALL {
//!     let verdict = target.model().check(&catalog::sb_txn());
//!     println!("{verdict}");
//! }
//! // Transactions forbid store buffering even on x86.
//! assert!(Target::X86.model().is_consistent(&catalog::sb_txn()));
//! assert!(!Target::X86Tm.model().is_consistent(&catalog::sb_txn()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod armv8;
mod cpp;
pub mod ir;
pub mod isolation;
mod power;
mod sc;
mod verdict;
mod x86;

pub use armv8::Armv8Model;
pub use cpp::CppModel;
pub use ir::IrModel;
pub use power::PowerModel;
pub use sc::ScModel;
pub use verdict::{Verdict, Violation};
pub use x86::X86Model;

use tm_exec::ir::Delta;
use tm_exec::{ExecView, Execution};

/// A stateful, delta-driven consistency checker: the object-safe face of
/// the incremental axiom-IR evaluators, letting generic pipelines (suite
/// synthesis, the distinguishing-execution search) drive *any* model
/// incrementally without knowing whether it is a built-in catalog table or
/// a runtime-loaded `.cat` model.
///
/// The protocol matches [`tm_exec::ir::IncrementalEval`]: mutate the
/// execution first, then [`advance`](DeltaChecker::advance) with the
/// matching delta, then query. [`savepoint`](DeltaChecker::savepoint) and
/// [`rollback`](DeltaChecker::rollback) bracket a *probe* — apply a delta
/// (a ⊏-weakening of the current candidate, say), query it, and restore the
/// pre-probe state in O(touched nodes).
pub trait DeltaChecker {
    /// Absorbs the edits that turned the previous candidate into `exec`.
    /// Call once per candidate, before any query about it — even when the
    /// candidate will be skipped, so the cached state stays coherent.
    fn advance(&mut self, exec: &Execution, delta: &Delta);

    /// True if `exec` satisfies every axiom of the model — early-exit,
    /// cached verdicts reused across deltas that miss their footprints.
    fn is_consistent(&mut self, exec: &Execution) -> bool;

    /// Starts recording undo state; one savepoint may be active at a time.
    fn savepoint(&mut self);

    /// Restores the state captured by the active savepoint.
    fn rollback(&mut self);

    /// The checker's evaluation telemetry, when it keeps any — maintenance
    /// counters of the underlying incremental evaluator plus how often
    /// consistency queries early-exited. `None` (the default) means the
    /// checker does not track telemetry; callers must treat that as
    /// "unknown", not zero.
    fn telemetry(&self) -> Option<CheckerTelemetry> {
        None
    }
}

/// What a [`DeltaChecker`] can report about its own work: the incremental
/// evaluator's [`MaintenanceStats`](tm_exec::ir::MaintenanceStats) and the
/// number of consistency queries that early-exited before the last axiom.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerTelemetry {
    /// Maintenance counters of the underlying evaluator.
    pub stats: tm_exec::ir::MaintenanceStats,
    /// Consistency queries answered `false` before the cost order's last
    /// axiom was evaluated.
    pub early_exits: u64,
}

impl CheckerTelemetry {
    /// Folds `other` into `self` — the cross-checker rollup.
    pub fn merge(&mut self, other: CheckerTelemetry) {
        self.stats.merge(other.stats);
        self.early_exits += other.early_exits;
    }
}

/// A memory model: a named consistency predicate over candidate executions.
///
/// Implementations report *which* axioms an execution violates via
/// [`MemoryModel::check_view`]; [`MemoryModel::is_consistent`] is the boolean
/// summary.
///
/// Checks are written against an [`ExecView`] so that the derived relations
/// (`sloc`, `fr`, `com`, fence relations, …) an execution's axioms share are
/// computed once per execution — and, when several models check the same
/// execution (as the synthesis sweep does), once across *all* of them if the
/// callers share one view. The [`MemoryModel::check`] convenience wraps a
/// fresh view around a bare [`Execution`].
///
/// Models are `Send + Sync` so `&dyn MemoryModel` can be shared by the
/// parallel enumeration workers. [`ir::IrModel`] is the one implementation
/// in this crate; the trait stays so callers can wrap a model (to time or
/// instrument it, say) and hand the wrapper to any pipeline.
pub trait MemoryModel: Send + Sync {
    /// A short human-readable name (e.g. `"Power+TM"`). Borrowed from the
    /// model so that runtime-loaded models (whose names come from `.cat`
    /// source text) can implement the trait too.
    fn name(&self) -> &str;

    /// The names of the axioms this model checks, in check order.
    fn axioms(&self) -> Vec<&str>;

    /// Checks the viewed execution against every axiom and reports all
    /// violations. Derived relations are fetched through `view`, memoized.
    fn check_view(&self, view: &ExecView<'_>) -> Verdict;

    /// Checks `exec` against every axiom and reports all violations.
    fn check(&self, exec: &Execution) -> Verdict {
        self.check_view(&ExecView::new(exec))
    }

    /// True if the viewed execution satisfies every axiom of this model.
    fn is_consistent_view(&self, view: &ExecView<'_>) -> bool {
        self.check_view(view).is_consistent()
    }

    /// True if `exec` satisfies every axiom of this model.
    fn is_consistent(&self, exec: &Execution) -> bool {
        // Route through the view-based check so models with an early-exit
        // `is_consistent_view` (cheapest axiom first, stop at the first
        // violation, no witness extraction) benefit here too.
        self.is_consistent_view(&ExecView::new(exec))
    }

    /// A delta-driven [`DeltaChecker`] for this model, or `None` if it only
    /// supports per-execution checking. Every [`ir::IrModel`] returns one.
    /// Pipelines take [`delta_checker`], which answers from scratch when
    /// this is `None`.
    fn incremental_checker(&self) -> Option<Box<dyn DeltaChecker + '_>> {
        None
    }

    /// A structural hash of the model's axioms (names, heads and bodies),
    /// independent of how the bodies were written or interned, or `None`
    /// if the model cannot describe its content. Checkpointed sweeps bind
    /// their journals to it, so a resume with an edited model that kept
    /// its name is refused.
    fn content_hash(&self) -> Option<u64> {
        None
    }

    /// Unused: nothing in this workspace calls it, and every model here
    /// returns `None`. It stays only because the benchmark harness
    /// (`perfbench`) forwards it in its timing wrapper; remove it together
    /// with the next change to that harness.
    fn catalog_target(&self) -> Option<(Target, bool)> {
        None
    }
}

/// `model`'s delta-driven checker or, for a model without one, an adapter
/// that ignores deltas and answers every query from scratch — how the
/// enumeration pipelines drive a model whatever it supports.
pub fn delta_checker(model: &dyn MemoryModel) -> Box<dyn DeltaChecker + '_> {
    model
        .incremental_checker()
        .unwrap_or_else(|| Box::new(FromScratch(model)))
}

/// A stateless [`DeltaChecker`]: every query builds a fresh view.
struct FromScratch<'m>(&'m dyn MemoryModel);

impl DeltaChecker for FromScratch<'_> {
    fn advance(&mut self, _exec: &Execution, _delta: &Delta) {}

    fn is_consistent(&mut self, exec: &Execution) -> bool {
        self.0.is_consistent(exec)
    }

    fn savepoint(&mut self) {}

    fn rollback(&mut self) {}
}

/// The memory-model targets studied in the paper, with and without their
/// transactional extensions.
///
/// `Target` is a convenience for tools (synthesis, benchmarks, examples)
/// that are parameterised by model; each variant names one table of the
/// shared catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Target {
    /// Sequential consistency (Fig. 4, baseline).
    Sc,
    /// Transactional sequential consistency (Fig. 4 with TxnOrder).
    Tsc,
    /// x86-TSO (Fig. 5, baseline).
    X86,
    /// x86-TSO with TSX transactions (Fig. 5).
    X86Tm,
    /// Power (Fig. 6, baseline).
    Power,
    /// Power with transactions (Fig. 6).
    PowerTm,
    /// ARMv8 (Fig. 8, baseline).
    Armv8,
    /// ARMv8 with the proposed TM extension (Fig. 8).
    Armv8Tm,
    /// C++ / RC11 (Fig. 9, baseline).
    Cpp,
    /// C++ with the TM technical specification (Fig. 9, §7).
    CppTm,
}

impl Target {
    /// Every target, baseline and transactional.
    pub const ALL: [Target; 10] = [
        Target::Sc,
        Target::Tsc,
        Target::X86,
        Target::X86Tm,
        Target::Power,
        Target::PowerTm,
        Target::Armv8,
        Target::Armv8Tm,
        Target::Cpp,
        Target::CppTm,
    ];

    /// The transactional targets (the models proposed by the paper).
    pub const TRANSACTIONAL: [Target; 5] = [
        Target::Tsc,
        Target::X86Tm,
        Target::PowerTm,
        Target::Armv8Tm,
        Target::CppTm,
    ];

    /// The hardware architecture targets with TM.
    pub const HARDWARE_TM: [Target; 3] = [Target::X86Tm, Target::PowerTm, Target::Armv8Tm];

    /// The memory model of this target: a copy of its catalog table over
    /// the shared catalog pool.
    pub fn model(self) -> IrModel {
        IrModel::builtin(self)
    }

    /// The non-transactional baseline this target is built on (`self` if it
    /// already is a baseline).
    pub fn baseline(self) -> Target {
        match self {
            Target::Tsc => Target::Sc,
            Target::X86Tm => Target::X86,
            Target::PowerTm => Target::Power,
            Target::Armv8Tm => Target::Armv8,
            Target::CppTm => Target::Cpp,
            other => other,
        }
    }

    /// The transactional extension of this target (`self` if it already is
    /// transactional).
    pub fn transactional(self) -> Target {
        match self {
            Target::Sc => Target::Tsc,
            Target::X86 => Target::X86Tm,
            Target::Power => Target::PowerTm,
            Target::Armv8 => Target::Armv8Tm,
            Target::Cpp => Target::CppTm,
            other => other,
        }
    }

    /// True if this target includes the TM axioms.
    pub fn is_transactional(self) -> bool {
        self.transactional() == self
    }

    /// A short stable name, usable in file names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Target::Sc => "sc",
            Target::Tsc => "tsc",
            Target::X86 => "x86",
            Target::X86Tm => "x86-tm",
            Target::Power => "power",
            Target::PowerTm => "power-tm",
            Target::Armv8 => "armv8",
            Target::Armv8Tm => "armv8-tm",
            Target::Cpp => "cpp",
            Target::CppTm => "cpp-tm",
        }
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::catalog;

    #[test]
    fn target_roundtrips_between_baseline_and_transactional() {
        for t in Target::ALL {
            assert_eq!(t.baseline().transactional(), t.transactional());
            assert_eq!(t.transactional().baseline(), t.baseline());
        }
        assert!(Target::PowerTm.is_transactional());
        assert!(!Target::Power.is_transactional());
    }

    #[test]
    fn every_target_produces_a_model_with_its_axioms() {
        for t in Target::ALL {
            let model = t.model();
            assert!(!model.axioms().is_empty());
            assert!(!model.name().is_empty());
        }
    }

    #[test]
    fn transactional_models_are_stronger_on_the_catalog() {
        // For every catalog execution, a transactional model forbids at
        // least as much as its baseline (monotone strengthening).
        let execs = [
            catalog::sb(),
            catalog::sb_txn(),
            catalog::mp(),
            catalog::mp_txn(),
            catalog::lb(),
            catalog::lb_txn(),
            catalog::fig2(),
            catalog::fig3('a'),
            catalog::power_wrc_tprop1(),
            catalog::power_iriw_two_txns(),
        ];
        for t in Target::TRANSACTIONAL {
            let tm = t.model();
            let base = t.baseline().model();
            for e in &execs {
                if tm.is_consistent(e) {
                    assert!(
                        base.is_consistent(e),
                        "{} allows an execution {} forbids",
                        tm.name(),
                        base.name()
                    );
                }
            }
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Target::X86Tm.to_string(), "x86-tm");
        assert_eq!(Target::Cpp.to_string(), "cpp");
    }
}
