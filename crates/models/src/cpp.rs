//! The C++ memory model (RC11 à la Lahav et al.) with the Transactional
//! Memory technical-specification extension (Fig. 9, §7).

use crate::ir::IrModel;
use crate::Target;

/// The C++ memory model, following the RC11 formulation of Lahav et al.
/// (whose fix is what makes compilation to Power sound), extended — in
/// [`CppModel::tm`] — with the paper's reformulated transactional
/// synchronisation (§7.2):
///
/// * `HbCom` — `irreflexive(hb ; com*)` where
///   `hb = (sw ∪ tsw ∪ po)+` and, with TM,
///   `tsw = weaklift(ecom, stxn)` orders conflicting transactions without
///   any explicit total order over transactions;
/// * `RMWIsol` — `empty(rmw ∩ (fre ; coe))`;
/// * `NoThinAir` — `acyclic(po ∪ rf)`;
/// * `SeqCst` — `acyclic(psc)` over SC accesses and fences.
///
/// The tables live in the shared catalog ([`crate::ir::catalog`]); this
/// type only names their constructors. The *race-freedom* predicate
/// (`NoRace`) is a separate catalog axiom, checked by
/// [`crate::isolation::no_race`]: a program with a racy consistent
/// execution is undefined, and several theorems (7.2, 7.3) assume race
/// freedom.
///
/// # Examples
///
/// ```
/// use tm_exec::catalog;
/// use tm_models::{CppModel, MemoryModel};
///
/// // Transactional message passing is forbidden: conflicting transactions
/// // synchronise, so the stale read contradicts happens-before.
/// assert!(CppModel::baseline().is_consistent(&catalog::mp_txn()));
/// assert!(!CppModel::tm().is_consistent(&catalog::mp_txn()));
/// ```
pub enum CppModel {}

impl CppModel {
    /// The non-transactional baseline (RC11).
    pub fn baseline() -> IrModel {
        Target::Cpp.model()
    }

    /// The model with the TM extension.
    pub fn tm() -> IrModel {
        Target::CppTm.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolation::{atomic_txns_contain_no_atomics, no_race};
    use crate::MemoryModel;
    use tm_exec::{catalog, Annot, Event, Execution, ExecutionBuilder, Fence};

    /// MP with a release store of the flag and an acquire load of it.
    fn mp_rel_acq() -> Execution {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0));
        let wy = b.push(Event::write(0, 1).with_annot(Annot::release_atomic()));
        let ry = b.push(Event::read(1, 1).with_annot(Annot::acquire_atomic()));
        b.push(Event::read(1, 0));
        b.rf(wy, ry);
        b.build().unwrap()
    }

    /// SB with every access seq_cst.
    fn sb_sc() -> Execution {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0).with_annot(Annot::seq_cst()));
        b.push(Event::read(0, 1).with_annot(Annot::seq_cst()));
        b.push(Event::write(1, 1).with_annot(Annot::seq_cst()));
        b.push(Event::read(1, 0).with_annot(Annot::seq_cst()));
        b.build().unwrap()
    }

    #[test]
    fn relaxed_weak_behaviours_are_consistent_but_racy_when_non_atomic() {
        let m = CppModel::baseline();
        assert!(m.is_consistent(&catalog::mp()));
        assert!(!no_race(&catalog::mp(), false));
        assert!(m.is_consistent(&catalog::sb()));
    }

    #[test]
    fn release_acquire_forbids_stale_reads() {
        let m = CppModel::baseline();
        let e = mp_rel_acq();
        let verdict = m.check(&e);
        assert!(verdict.violates("HbCom"), "{verdict}");
        // The synchronisation also removes the race on x.
        // (The read of x is hb-after the write of x via the sw edge.)
        assert!(no_race(&e, false));
    }

    #[test]
    fn seq_cst_forbids_store_buffering() {
        let verdict = CppModel::baseline().check(&sb_sc());
        assert!(verdict.violates("SeqCst"), "{verdict}");
        assert!(CppModel::baseline().is_consistent(&catalog::sb()));
    }

    #[test]
    fn load_buffering_is_forbidden_by_no_thin_air() {
        let verdict = CppModel::baseline().check(&catalog::lb());
        assert!(verdict.violates("NoThinAir"), "{verdict}");
    }

    #[test]
    fn conflicting_transactions_synchronise() {
        let m = CppModel::tm();
        // MP, LB and SB between two transactions are all forbidden.
        assert!(!m.is_consistent(&catalog::mp_txn()));
        assert!(!m.is_consistent(&catalog::lb_txn()));
        assert!(!m.is_consistent(&catalog::sb_txn()));
        // The baseline (ignoring transactions) allows MP and SB.
        assert!(CppModel::baseline().is_consistent(&catalog::mp_txn()));
        assert!(CppModel::baseline().is_consistent(&catalog::sb_txn()));
    }

    #[test]
    fn dongol_example_is_forbidden_by_cpp() {
        let verdict = CppModel::tm().check(&catalog::dongol_mp_txn());
        assert!(verdict.violates("HbCom"), "{verdict}");
    }

    #[test]
    fn weak_isolation_follows_from_the_axioms() {
        // §7.2: WeakIsol follows from the other C++ consistency axioms. All
        // catalog executions that the TM model accepts satisfy WeakIsol.
        for e in [
            catalog::fig2(),
            catalog::mp_txn(),
            catalog::lb_txn(),
            catalog::sb_txn(),
            catalog::fig3('a'),
            catalog::fig3('b'),
        ] {
            if CppModel::tm().is_consistent(&e) {
                assert!(crate::isolation::weak_isolation(&e));
            }
        }
    }

    #[test]
    fn single_transaction_racing_an_atomic_store_is_racy() {
        // §7.2 "Transactions and Data Races": atomic{ x=1; } || atomic_store(&x,2)
        // is racy because the transactional store is not an atomic operation.
        let mut b = ExecutionBuilder::new();
        let wt = b.push(Event::write(0, 0));
        let wa = b.push(Event::write(1, 0).with_annot(Annot::seq_cst()));
        b.atomic_txn(&[wt]);
        b.co(wt, wa);
        let e = b.build().unwrap();
        assert!(!no_race(&e, true));
        assert!(atomic_txns_contain_no_atomics(&e));
    }

    #[test]
    fn atomic_txn_scoping_check_detects_atomics_inside() {
        let mut b = ExecutionBuilder::new();
        let w = b.push(Event::write(0, 0).with_annot(Annot::seq_cst()));
        b.atomic_txn(&[w]);
        let e = b.build().unwrap();
        assert!(!atomic_txns_contain_no_atomics(&e));
    }

    #[test]
    fn sc_fences_order_sb() {
        // SB with relaxed atomics but seq_cst fences between each pair.
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0).with_annot(Annot::relaxed_atomic()));
        b.push(Event::fence(0, Fence::FenceSc));
        b.push(Event::read(0, 1).with_annot(Annot::relaxed_atomic()));
        b.push(Event::write(1, 1).with_annot(Annot::relaxed_atomic()));
        b.push(Event::fence(1, Fence::FenceSc));
        b.push(Event::read(1, 0).with_annot(Annot::relaxed_atomic()));
        let e = b.build().unwrap();
        let verdict = CppModel::baseline().check(&e);
        assert!(verdict.violates("SeqCst"), "{verdict}");
    }

    #[test]
    fn tm_and_baseline_agree_without_transactions() {
        for e in [
            catalog::sb(),
            catalog::mp(),
            catalog::lb(),
            mp_rel_acq(),
            sb_sc(),
        ] {
            assert_eq!(
                CppModel::baseline().is_consistent(&e),
                CppModel::tm().is_consistent(&e)
            );
        }
    }
}
