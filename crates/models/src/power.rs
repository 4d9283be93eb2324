//! The Power memory model with transactional extensions (Fig. 6).

use crate::ir::IrModel;
use crate::Target;

/// The Power memory model of Alglave et al. ("herding cats"), extended —
/// in [`PowerModel::tm`] — with the paper's TM axioms:
///
/// * `Coherence`, `RMWIsol`, `Order` (`acyclic(hb)`), `Propagation`
///   (`acyclic(co ∪ prop)`) and `Observation`
///   (`irreflexive(fre ; prop ; hb*)`) from the baseline model;
/// * implicit fences at transaction boundaries (`tfence` joins `sync` in
///   the fence relation and in `prop2`);
/// * `tprop1 = rfe ; stxn ; [W]` — the transaction's integrated memory
///   barrier: writes it observed propagate before its own writes;
/// * `tprop2 = stxn ; rfe` — transactional writes are multicopy-atomic;
/// * `thb`, lifted over transactions into `hb` — successful transactions
///   serialise in an order no thread can contradict;
/// * `StrongIsol`, `TxnOrder`, and `TxnCancelsRMW` (an RMW straddling a
///   transaction boundary always fails).
///
/// The preserved-program-order (`ppo`) fragment is approximated by
/// dependencies (`addr`, `data`, control dependencies to stores, and
/// dependency-into-internal-read-from chains); the paper elides the exact
/// definition and our conformance suites only rely on this fragment.
///
/// The tables live in the shared catalog ([`crate::ir::catalog`]); this
/// type only names their constructors.
///
/// # Examples
///
/// ```
/// use tm_exec::catalog;
/// use tm_models::{MemoryModel, PowerModel};
///
/// // WRC with dependencies is allowed on Power (it is not multicopy-atomic) …
/// assert!(PowerModel::baseline().is_consistent(&catalog::wrc()));
/// // … but becomes forbidden once the observer chain passes through a
/// // transaction (execution (1) of §5.2).
/// assert!(!PowerModel::tm().is_consistent(&catalog::power_wrc_tprop1()));
/// ```
pub enum PowerModel {}

impl PowerModel {
    /// The non-transactional baseline model.
    pub fn baseline() -> IrModel {
        Target::Power.model()
    }

    /// The transactional model.
    pub fn tm() -> IrModel {
        Target::PowerTm.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryModel;
    use tm_exec::{catalog, Event, ExecutionBuilder, Fence};

    #[test]
    fn baseline_allows_the_classic_power_relaxations() {
        let m = PowerModel::baseline();
        assert!(m.is_consistent(&catalog::sb()));
        assert!(m.is_consistent(&catalog::mp()));
        assert!(m.is_consistent(&catalog::lb()));
        assert!(m.is_consistent(&catalog::wrc()));
        assert!(m.is_consistent(&catalog::iriw()));
    }

    #[test]
    fn mp_with_lwsync_and_addr_is_forbidden() {
        let mut b = ExecutionBuilder::new();
        let wx = b.push(Event::write(0, 0));
        b.push(Event::fence(0, Fence::Lwsync));
        let wy = b.push(Event::write(0, 1));
        let ry = b.push(Event::read(1, 1));
        let rx = b.push(Event::read(1, 0));
        b.rf(wy, ry);
        b.addr(ry, rx);
        let e = b.build().unwrap();
        let _ = (wx, rx);
        let verdict = PowerModel::baseline().check(&e);
        assert!(verdict.violates("Observation"), "{verdict}");
    }

    #[test]
    fn sb_with_syncs_is_forbidden() {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0));
        b.push(Event::fence(0, Fence::Sync));
        b.push(Event::read(0, 1));
        b.push(Event::write(1, 1));
        b.push(Event::fence(1, Fence::Sync));
        b.push(Event::read(1, 0));
        let e = b.build().unwrap();
        assert!(!PowerModel::baseline().is_consistent(&e));
    }

    #[test]
    fn paper_power_executions_get_the_paper_verdicts() {
        // Execution (1): forbidden with the transaction, allowed without TM
        // semantics (§5.2, "Barriers within Transactions").
        let e1 = catalog::power_wrc_tprop1();
        assert!(PowerModel::baseline().is_consistent(&e1));
        let verdict = PowerModel::tm().check(&e1);
        assert!(verdict.violates("Observation"), "{verdict}");

        // Execution (2): transactional writes are multicopy-atomic.
        let e2 = catalog::power_wrc_tprop2();
        assert!(PowerModel::baseline().is_consistent(&e2));
        assert!(!PowerModel::tm().is_consistent(&e2));

        // Execution (3): incompatible transaction serialisation orders.
        let e3 = catalog::power_iriw_two_txns();
        assert!(PowerModel::baseline().is_consistent(&e3));
        let verdict = PowerModel::tm().check(&e3);
        assert!(verdict.violates("Order"), "{verdict}");

        // The one-transaction variant was observed on hardware and must stay
        // allowed.
        assert!(PowerModel::tm().is_consistent(&catalog::power_iriw_one_txn()));
    }

    #[test]
    fn remark_5_1_executions_are_permitted() {
        assert!(PowerModel::tm().is_consistent(&catalog::remark_5_1_first()));
        assert!(PowerModel::tm().is_consistent(&catalog::remark_5_1_second()));
    }

    #[test]
    fn transactional_classics_are_forbidden() {
        let m = PowerModel::tm();
        assert!(!m.is_consistent(&catalog::sb_txn()));
        assert!(!m.is_consistent(&catalog::mp_txn()));
        assert!(!m.is_consistent(&catalog::lb_txn()));
        assert!(!m.is_consistent(&catalog::fig2()));
        for which in ['a', 'b', 'c', 'd'] {
            assert!(!m.is_consistent(&catalog::fig3(which)));
        }
    }

    #[test]
    fn txn_cancels_rmw_detects_straddling_rmw() {
        let split = catalog::monotonicity_cex_split();
        let verdict = PowerModel::tm().check(&split);
        assert!(verdict.violates("TxnCancelsRMW"), "{verdict}");
        assert!(PowerModel::tm().is_consistent(&catalog::monotonicity_cex_coalesced()));
    }

    #[test]
    fn dongol_example_is_forbidden_by_our_stronger_model() {
        // §9: Dongol et al.'s Power model allows this, ours forbids it,
        // which is what makes the C++ compilation mapping sound.
        let verdict = PowerModel::tm().check(&catalog::dongol_mp_txn());
        assert!(!verdict.is_consistent());
    }

    #[test]
    fn tm_model_agrees_with_baseline_on_plain_executions() {
        for e in [
            catalog::sb(),
            catalog::mp(),
            catalog::lb(),
            catalog::wrc(),
            catalog::iriw(),
            catalog::sb_mfence(),
        ] {
            assert_eq!(
                PowerModel::baseline().is_consistent(&e),
                PowerModel::tm().is_consistent(&e)
            );
        }
    }

    #[test]
    fn cr_order_is_opt_in() {
        let abstract_exec = catalog::fig10_abstract();
        assert!(PowerModel::tm().is_consistent(&abstract_exec));
        assert!(!PowerModel::tm()
            .with_cr_order()
            .is_consistent(&abstract_exec));
    }
}
