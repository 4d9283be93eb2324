//! The ARMv8 (AArch64) memory model with the proposed TM extension (Fig. 8).

use tm_exec::{ExecView, Execution, Fence};
use tm_relation::Relation;

use crate::{MemoryModel, Verdict};

/// The multicopy-atomic ARMv8 memory model (Deacon's aarch64.cat, as used by
/// Pulte et al.), extended — when `transactional` — with the unofficial TM
/// axioms of §6:
///
/// * `Coherence` — `acyclic(poloc ∪ com)`;
/// * `Order` — `acyclic(ob)` with
///   `ob = come ∪ dob ∪ aob ∪ bob ∪ tfence`, where `dob` is dependency
///   order, `aob` atomic-RMW order, and `bob` barrier order
///   (DMB/DMB LD/DMB ST and one-way acquire/release instructions);
/// * `RMWIsol` — `empty(rmw ∩ (fre ; coe))`;
/// * `StrongIsol`, `TxnOrder` (over `ob`) and `TxnCancelsRMW` (TM only).
///
/// The `dob`/`aob`/`bob` definitions cover what the ARMv8 enumeration
/// produces (address, data and control dependencies, RMW pairs, `DMB`
/// variants, `LDAR`/`STLR`). They leave out aarch64.cat's clauses for
/// `ISB`, which the enumeration never emits, and for dependencies into
/// later coherence or program order (`(ctrl | data) ; coi`,
/// `addr ; po ; [W]`).
///
/// # Examples
///
/// ```
/// use tm_exec::catalog;
/// use tm_models::{Armv8Model, MemoryModel};
///
/// // ARMv8 is multicopy-atomic: IRIW with address dependencies is forbidden
/// // even without transactions.
/// assert!(!Armv8Model::baseline().is_consistent(&catalog::iriw()));
/// // Example 1.1: the lock-elision counterexample is *consistent* under the
/// // proposed TM extension — lock elision is unsound on ARMv8.
/// assert!(Armv8Model::tm().is_consistent(&catalog::example_1_1_concrete(false)));
/// // Appending a DMB to lock() removes this witness.
/// assert!(!Armv8Model::tm().is_consistent(&catalog::example_1_1_concrete(true)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Armv8Model {
    transactional: bool,
    cr_order: bool,
}

impl Armv8Model {
    /// The non-transactional baseline model.
    pub fn baseline() -> Armv8Model {
        Armv8Model {
            transactional: false,
            cr_order: false,
        }
    }

    /// The model with the proposed TM extension.
    pub fn tm() -> Armv8Model {
        Armv8Model {
            transactional: true,
            cr_order: false,
        }
    }

    /// Adds the `CROrder` axiom (serialisability of critical regions).
    pub fn with_cr_order(mut self) -> Armv8Model {
        self.cr_order = true;
        self
    }

    /// True if the TM axioms are enabled.
    pub fn is_transactional(&self) -> bool {
        self.transactional
    }

    /// The [`crate::Target`] whose axiom table this model checks.
    fn target(&self) -> crate::Target {
        if self.transactional {
            crate::Target::Armv8Tm
        } else {
            crate::Target::Armv8
        }
    }

    /// Dependency-ordered-before: address and data dependencies, control
    /// dependencies to stores, and dependencies feeding internal reads-from.
    pub fn dob(&self, exec: &Execution) -> Relation {
        self.dob_view(&ExecView::new(exec))
    }

    /// [`Armv8Model::dob`] over a memoized view.
    pub fn dob_view(&self, view: &ExecView<'_>) -> Relation {
        let exec = view.exec();
        let deps = exec.addr.union(&exec.data);
        let ctrl_to_writes = exec.ctrl.compose(&view.id_writes());
        let mut dob = deps.compose(&view.rfi());
        dob.union_in_place(&deps);
        dob.union_in_place(&ctrl_to_writes);
        dob.intersect_in_place(&exec.po);
        dob
    }

    /// Atomic-ordered-before: the RMW pairing, plus ordering from an RMW's
    /// write to a program-order-later acquire load of the same value chain.
    pub fn aob(&self, exec: &Execution) -> Relation {
        self.aob_view(&ExecView::new(exec))
    }

    /// [`Armv8Model::aob`] over a memoized view.
    pub fn aob_view(&self, view: &ExecView<'_>) -> Relation {
        let exec = view.exec();
        let rmw_writes = Relation::identity_on(&exec.rmw.range());
        let acq_reads = Relation::identity_on(&view.acquires().intersection(&view.reads()));
        let mut aob = rmw_writes.compose(&view.rfi()).compose(&acq_reads);
        aob.union_in_place(&exec.rmw);
        aob
    }

    /// Barrier-ordered-before: DMB variants plus the one-way barriers implied
    /// by acquire loads and release stores.
    pub fn bob(&self, exec: &Execution) -> Relation {
        self.bob_view(&ExecView::new(exec))
    }

    /// [`Armv8Model::bob`] over a memoized view.
    pub fn bob_view(&self, view: &ExecView<'_>) -> Relation {
        let exec = view.exec();
        let dmb_ld = view.id_reads().compose(&view.fence_rel(Fence::DmbLd));
        let dmb_st = view
            .id_writes()
            .compose(&view.fence_rel(Fence::DmbSt))
            .compose(&view.id_writes());
        let acq_reads = view.acquires().intersection(&view.reads());
        let rel_writes = view.releases().intersection(&view.writes());
        let acq_first = Relation::identity_on(&acq_reads).compose(&exec.po);
        let rel_last = exec.po.compose(&Relation::identity_on(&rel_writes));
        // A release store is ordered before a program-order-later acquire
        // load ([L] ; po ; [A] in aarch64.cat) — the edge the C++ seq_cst
        // mapping relies on.
        let rel_acq = Relation::identity_on(&rel_writes)
            .compose(&exec.po)
            .compose(&Relation::identity_on(&acq_reads));
        let mut bob = view.fence_rel(Fence::Dmb).into_owned();
        bob.union_in_place(&dmb_ld);
        bob.union_in_place(&dmb_st);
        bob.union_in_place(&acq_first);
        bob.union_in_place(&rel_last);
        bob.union_in_place(&rel_acq);
        bob
    }

    /// The ordered-before relation of Fig. 8.
    pub fn ob(&self, exec: &Execution) -> Relation {
        self.ob_view(&ExecView::new(exec))
    }

    /// [`Armv8Model::ob`] over a memoized view.
    pub fn ob_view(&self, view: &ExecView<'_>) -> Relation {
        let mut ob = view.come().into_owned();
        ob.union_in_place(&self.dob_view(view));
        ob.union_in_place(&self.aob_view(view));
        ob.union_in_place(&self.bob_view(view));
        if self.transactional {
            ob.union_in_place(&view.tfence());
        }
        ob
    }
}

impl MemoryModel for Armv8Model {
    fn name(&self) -> &str {
        if self.transactional {
            "ARMv8+TM"
        } else {
            "ARMv8"
        }
    }

    fn axioms(&self) -> Vec<&str> {
        let mut axioms = vec!["Coherence", "Order", "RMWIsol"];
        if self.transactional {
            axioms.extend(["StrongIsol", "TxnOrder", "TxnCancelsRMW"]);
        }
        if self.cr_order {
            axioms.push("CROrder");
        }
        axioms
    }

    fn check_view(&self, view: &ExecView<'_>) -> Verdict {
        crate::ir::check_table(
            crate::ir::catalog().model(self.target()),
            self.cr_order,
            view,
        )
    }

    fn is_consistent_view(&self, view: &ExecView<'_>) -> bool {
        crate::ir::table_holds(
            crate::ir::catalog().model(self.target()),
            self.cr_order,
            view,
        )
    }
    fn catalog_target(&self) -> Option<(crate::Target, bool)> {
        Some((self.target(), self.cr_order))
    }

    fn incremental_checker(&self) -> Option<Box<dyn crate::DeltaChecker + '_>> {
        Some(Box::new(crate::ir::TargetChecker::new(
            self.target(),
            self.cr_order,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::{catalog, Annot, Event, ExecutionBuilder};

    #[test]
    fn baseline_allows_po_relaxations_but_is_multicopy_atomic() {
        let m = Armv8Model::baseline();
        assert!(m.is_consistent(&catalog::sb()));
        assert!(m.is_consistent(&catalog::mp()));
        assert!(m.is_consistent(&catalog::lb()));
        // Multicopy atomicity: WRC and IRIW with dependencies are forbidden.
        assert!(!m.is_consistent(&catalog::wrc()));
        assert!(!m.is_consistent(&catalog::iriw()));
    }

    #[test]
    fn dmb_restores_order_for_sb() {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0));
        b.push(Event::fence(0, Fence::Dmb));
        b.push(Event::read(0, 1));
        b.push(Event::write(1, 1));
        b.push(Event::fence(1, Fence::Dmb));
        b.push(Event::read(1, 0));
        let e = b.build().unwrap();
        assert!(!Armv8Model::baseline().is_consistent(&e));
    }

    #[test]
    fn release_acquire_restores_order_for_mp() {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0));
        let wy = b.push(Event::write(0, 1).with_annot(Annot::release()));
        let ry = b.push(Event::read(1, 1).with_annot(Annot::acquire()));
        b.push(Event::read(1, 0));
        b.rf(wy, ry);
        let e = b.build().unwrap();
        assert!(!Armv8Model::baseline().is_consistent(&e));
        // The plain-variant without annotations stays allowed.
        assert!(Armv8Model::baseline().is_consistent(&catalog::mp()));
    }

    #[test]
    fn transactional_classics_are_forbidden() {
        let m = Armv8Model::tm();
        assert!(!m.is_consistent(&catalog::sb_txn()));
        assert!(!m.is_consistent(&catalog::mp_txn()));
        assert!(!m.is_consistent(&catalog::lb_txn()));
        assert!(!m.is_consistent(&catalog::fig2()));
        for which in ['a', 'b', 'c', 'd'] {
            assert!(!m.is_consistent(&catalog::fig3(which)));
        }
    }

    #[test]
    fn tm_model_agrees_with_baseline_on_plain_executions() {
        for e in [
            catalog::sb(),
            catalog::mp(),
            catalog::lb(),
            catalog::wrc(),
            catalog::iriw(),
        ] {
            assert_eq!(
                Armv8Model::baseline().is_consistent(&e),
                Armv8Model::tm().is_consistent(&e)
            );
        }
    }

    #[test]
    fn txn_cancels_rmw_detects_straddling_rmw() {
        let verdict = Armv8Model::tm().check(&catalog::monotonicity_cex_split());
        assert!(verdict.violates("TxnCancelsRMW"), "{verdict}");
        assert!(Armv8Model::tm().is_consistent(&catalog::monotonicity_cex_coalesced()));
    }

    #[test]
    fn example_1_1_witnesses_lock_elision_unsoundness() {
        // The concrete ARMv8 execution of Example 1.1 is consistent: the
        // speculative load of x before the store-exclusive completes lets
        // the elided transaction slip inside the critical region.
        let witness = catalog::example_1_1_concrete(false);
        let verdict = Armv8Model::tm().check(&witness);
        assert!(verdict.is_consistent(), "{verdict}");

        // Appending a DMB to lock() (the §1.1 fix) makes it inconsistent.
        let fixed = catalog::example_1_1_concrete(true);
        let verdict = Armv8Model::tm().check(&fixed);
        assert!(verdict.violates("TxnOrder"), "{verdict}");
    }

    #[test]
    fn appendix_b_second_witness_behaves_the_same_way() {
        assert!(Armv8Model::tm().is_consistent(&catalog::appendix_b_concrete(false)));
        assert!(!Armv8Model::tm().is_consistent(&catalog::appendix_b_concrete(true)));
    }

    #[test]
    fn cr_order_is_opt_in() {
        let abstract_exec = catalog::fig10_abstract();
        assert!(Armv8Model::tm().is_consistent(&abstract_exec));
        assert!(!Armv8Model::tm()
            .with_cr_order()
            .is_consistent(&abstract_exec));
    }
}
