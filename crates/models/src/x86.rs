//! The x86-TSO memory model with Intel TSX transactions (Fig. 5).

use crate::ir::IrModel;
use crate::Target;

/// The x86 memory model of Alglave et al., extended (in [`X86Model::tm`])
/// with the paper's TM axioms:
///
/// * `Coherence` — `acyclic(poloc ∪ com)`;
/// * `RMWIsol` — `empty(rmw ∩ (fre ; coe))`;
/// * `Order` — `acyclic(hb)` with
///   `hb = mfence ∪ ppo ∪ implied ∪ rfe ∪ fr ∪ co`, where
///   `ppo` keeps all program order except write→read pairs,
///   `implied` orders everything around `LOCK`'d RMWs, and — with TM — the
///   implicit fences at transaction boundaries (`tfence`);
/// * `StrongIsol` and `TxnOrder` (TM only) — transactions are strongly
///   isolated and appear atomic in `hb`.
///
/// The tables live in the shared catalog ([`crate::ir::catalog`]); this
/// type only names their constructors. Lock-elision checking (§8.3)
/// additionally needs `CROrder`; append it with
/// [`IrModel::with_cr_order`].
///
/// # Examples
///
/// ```
/// use tm_exec::catalog;
/// use tm_models::{MemoryModel, X86Model};
///
/// // Store buffering is the one classic relaxation x86 exhibits …
/// assert!(X86Model::baseline().is_consistent(&catalog::sb()));
/// // … and it disappears once both threads are transactions.
/// assert!(!X86Model::tm().is_consistent(&catalog::sb_txn()));
/// ```
pub enum X86Model {}

impl X86Model {
    /// The non-transactional baseline model.
    pub fn baseline() -> IrModel {
        Target::X86.model()
    }

    /// The transactional (TSX) model.
    pub fn tm() -> IrModel {
        Target::X86Tm.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryModel;
    use tm_exec::{catalog, Event, ExecutionBuilder};

    #[test]
    fn x86_allows_store_buffering_but_nothing_weaker() {
        let m = X86Model::baseline();
        assert!(m.is_consistent(&catalog::sb()));
        assert!(!m.is_consistent(&catalog::mp()));
        assert!(!m.is_consistent(&catalog::lb()));
        assert!(!m.is_consistent(&catalog::iriw()));
        assert!(!m.is_consistent(&catalog::wrc()));
    }

    #[test]
    fn mfence_restores_order_for_sb() {
        assert!(!X86Model::baseline().is_consistent(&catalog::sb_mfence()));
    }

    #[test]
    fn locked_rmw_restores_order_for_sb() {
        // SB where both stores are LOCK'd RMWs: the implied fences forbid
        // the store-buffering relaxation.
        let mut b = ExecutionBuilder::new();
        let r0 = b.push(Event::read(0, 0));
        let w0 = b.push(Event::write(0, 0));
        let _ry = b.push(Event::read(0, 1));
        let r1 = b.push(Event::read(1, 1));
        let w1 = b.push(Event::write(1, 1));
        let _rx = b.push(Event::read(1, 0));
        b.rmw(r0, w0);
        b.rmw(r1, w1);
        let e = b.build().unwrap();
        assert!(!X86Model::baseline().is_consistent(&e));

        // With a LOCK'd RMW on only one thread, the other thread may still
        // reorder its store with its load, so the outcome stays allowed.
        let mut b = ExecutionBuilder::new();
        let r0 = b.push(Event::read(0, 0));
        let w0 = b.push(Event::write(0, 0));
        let _ry = b.push(Event::read(0, 1));
        let _wy = b.push(Event::write(1, 1));
        let _rx = b.push(Event::read(1, 0));
        b.rmw(r0, w0);
        let e = b.build().unwrap();
        assert!(X86Model::baseline().is_consistent(&e));
    }

    #[test]
    fn transactions_forbid_sb() {
        assert!(X86Model::baseline().is_consistent(&catalog::sb_txn()));
        let verdict = X86Model::tm().check(&catalog::sb_txn());
        assert!(!verdict.is_consistent());
        // The implicit boundary fences and transaction ordering both fire.
        assert!(verdict.violates("TxnOrder") || verdict.violates("Order"));
    }

    #[test]
    fn tm_model_enforces_strong_isolation() {
        for which in ['a', 'b', 'c', 'd'] {
            let e = catalog::fig3(which);
            assert!(X86Model::baseline().is_consistent(&e));
            let verdict = X86Model::tm().check(&e);
            assert!(verdict.violates("StrongIsol"), "fig3({which}): {verdict}");
        }
        assert!(!X86Model::tm().is_consistent(&catalog::fig2()));
    }

    #[test]
    fn tm_model_agrees_with_baseline_on_plain_executions() {
        for e in [
            catalog::sb(),
            catalog::mp(),
            catalog::lb(),
            catalog::iriw(),
            catalog::wrc(),
            catalog::fig1(),
            catalog::sb_mfence(),
        ] {
            assert_eq!(
                X86Model::baseline().is_consistent(&e),
                X86Model::tm().is_consistent(&e),
                "baseline and TM model must agree on transaction-free executions"
            );
        }
    }

    #[test]
    fn cr_order_is_opt_in() {
        let abstract_exec = catalog::fig10_abstract();
        assert!(X86Model::tm().is_consistent(&abstract_exec));
        assert!(!X86Model::tm().with_cr_order().is_consistent(&abstract_exec));
    }

    #[test]
    fn coherence_violation_is_reported() {
        // Fig. 1 reads from a po-later write: coherence violation.
        let verdict = X86Model::baseline().check(&catalog::fig1());
        assert!(verdict.violates("Coherence"));
    }
}
