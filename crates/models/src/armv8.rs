//! The ARMv8 (AArch64) memory model with the proposed TM extension (Fig. 8).

use crate::ir::IrModel;
use crate::Target;

/// The multicopy-atomic ARMv8 memory model (Deacon's aarch64.cat, as used by
/// Pulte et al.), extended — in [`Armv8Model::tm`] — with the unofficial TM
/// axioms of §6:
///
/// * `Coherence` — `acyclic(poloc ∪ com)`;
/// * `Order` — `acyclic(ob)` with
///   `ob = come ∪ dob ∪ aob ∪ bob ∪ tfence`, where `dob` is dependency
///   order, `aob` atomic-RMW order, and `bob` barrier order
///   (DMB/DMB LD/DMB ST, the one-way acquire/release instructions, and a
///   release store before a program-order-later acquire load);
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
/// The tables live in the shared catalog ([`crate::ir::catalog`]); this
/// type only names their constructors.
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
pub enum Armv8Model {}

impl Armv8Model {
    /// The non-transactional baseline model.
    pub fn baseline() -> IrModel {
        Target::Armv8.model()
    }

    /// The model with the proposed TM extension.
    pub fn tm() -> IrModel {
        Target::Armv8Tm.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryModel;
    use tm_exec::{catalog, Annot, Event, ExecutionBuilder, Fence};

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
