//! Sequential consistency and transactional sequential consistency (Fig. 4).

use crate::ir::IrModel;
use crate::Target;

/// The SC memory model, optionally strengthened to transactional SC (TSC).
///
/// * `Order` — `acyclic(hb)` with `hb = po ∪ com` (Shasha & Snir);
/// * `TxnOrder` (TSC only) — `acyclic(stronglift(hb, stxn))`: consecutive
///   events of a transaction appear consecutively in the overall order.
///
/// TSC is the upper bound on what a reasonable TM implementation provides
/// (§3.4); all the architecture models of this crate lie between
/// [`crate::isolation::weak_isolation`] and TSC. The tables live in the
/// shared catalog ([`crate::ir::catalog`]); this type only names their
/// constructors.
///
/// # Examples
///
/// ```
/// use tm_exec::catalog;
/// use tm_models::{MemoryModel, ScModel};
///
/// // Store buffering is forbidden under SC.
/// assert!(!ScModel::sc().is_consistent(&catalog::sb()));
/// // Fig. 2 is SC-consistent but TSC-inconsistent: the external write
/// // intrudes into the transaction.
/// assert!(ScModel::sc().is_consistent(&catalog::fig2()));
/// assert!(!ScModel::tsc().is_consistent(&catalog::fig2()));
/// ```
pub enum ScModel {}

impl ScModel {
    /// Plain sequential consistency (ignores transactions entirely).
    pub fn sc() -> IrModel {
        Target::Sc.model()
    }

    /// Transactional sequential consistency (adds `TxnOrder`).
    pub fn tsc() -> IrModel {
        Target::Tsc.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryModel;
    use tm_exec::catalog;

    #[test]
    fn sc_forbids_the_classic_relaxations() {
        let sc = ScModel::sc();
        assert!(!sc.is_consistent(&catalog::sb()));
        assert!(!sc.is_consistent(&catalog::mp()));
        assert!(!sc.is_consistent(&catalog::lb()));
        assert!(!sc.is_consistent(&catalog::iriw()));
        assert!(!sc.is_consistent(&catalog::wrc()));
    }

    #[test]
    fn sc_allows_interleaved_executions() {
        let sc = ScModel::sc();
        // Fig. 1 reads from a po-later write, so even SC rejects it; it is
        // only an illustration of litmus-test construction.
        assert!(!sc.is_consistent(&catalog::fig1()));
        assert!(sc.is_consistent(&catalog::fig2()));
        for which in ['a', 'b', 'c', 'd'] {
            assert!(sc.is_consistent(&catalog::fig3(which)));
        }
    }

    #[test]
    fn tsc_subsumes_strong_isolation() {
        // TxnOrder subsumes StrongIsol (§3.4): everything fig. 3 shows to
        // violate strong isolation is also TSC-inconsistent.
        let tsc = ScModel::tsc();
        for which in ['a', 'b', 'c', 'd'] {
            let verdict = tsc.check(&catalog::fig3(which));
            assert!(verdict.violates("TxnOrder"), "fig3({which}): {verdict}");
        }
    }

    #[test]
    fn tsc_equals_sc_on_transaction_free_executions() {
        for e in [catalog::sb(), catalog::mp(), catalog::lb(), catalog::fig1()] {
            assert_eq!(
                ScModel::sc().is_consistent(&e),
                ScModel::tsc().is_consistent(&e)
            );
        }
    }

    #[test]
    fn names_and_axioms() {
        assert_eq!(ScModel::sc().name(), "SC");
        assert_eq!(ScModel::tsc().name(), "TSC");
        assert_eq!(ScModel::tsc().axioms(), vec!["Order", "TxnOrder"]);
    }
}
