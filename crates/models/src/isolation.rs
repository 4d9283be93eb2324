//! The standalone catalog axioms: isolation (§3.3), the critical-region
//! serialisation axiom used for lock-elision checking (§8.3), and the C++
//! side conditions of Theorems 7.2 and 7.3 (race freedom, and no atomic
//! operations inside atomic transactions).

use tm_exec::{ExecView, Execution};

/// The `WeakIsol` axiom: `acyclic(weaklift(com, stxn))`.
///
/// Transactions are isolated from *other transactions*: no communication
/// cycle exists among whole transactions.
pub fn weak_isolation(exec: &Execution) -> bool {
    weak_isolation_view(&ExecView::new(exec))
}

/// [`weak_isolation`] over a memoized view.
pub fn weak_isolation_view(view: &ExecView<'_>) -> bool {
    crate::ir::axiom_holds(crate::ir::catalog().weak_isol(), view)
}

/// The `StrongIsol` axiom: `acyclic(stronglift(com, stxn))`.
///
/// Transactions are isolated from *all other code*, transactional or not.
pub fn strong_isolation(exec: &Execution) -> bool {
    strong_isolation_view(&ExecView::new(exec))
}

/// [`strong_isolation`] over a memoized view.
pub fn strong_isolation_view(view: &ExecView<'_>) -> bool {
    crate::ir::axiom_holds(crate::ir::catalog().strong_isol(), view)
}

/// Like [`strong_isolation`] but lifted over the *atomic* transactions only
/// (`stxnat`). This is the conclusion of Theorem 7.2.
pub fn strong_isolation_atomic(exec: &Execution) -> bool {
    strong_isolation_atomic_view(&ExecView::new(exec))
}

/// [`strong_isolation_atomic`] over a memoized view.
pub fn strong_isolation_atomic_view(view: &ExecView<'_>) -> bool {
    crate::ir::axiom_holds(crate::ir::catalog().strong_isol_atomic(), view)
}

/// The `CROrder` axiom of §8.3: `acyclic(weaklift(po ∪ com, scr))` — all
/// critical regions (locked or elided) must be serialisable. This is the
/// *specification* a lock or lock-elision library must meet.
pub fn cr_order(exec: &Execution) -> bool {
    cr_order_view(&ExecView::new(exec))
}

/// [`cr_order`] over a memoized view.
pub fn cr_order_view(view: &ExecView<'_>) -> bool {
    crate::ir::axiom_holds(crate::ir::catalog().cr_order(), view)
}

/// The `NoRace` axiom of Fig. 9 over the C++ happens-before — with the TM
/// extension's transactional synchronisation when `transactional` is set:
/// true if no two conflicting events, not both atomic, are unordered by
/// `hb`. A program with a racy consistent execution has undefined
/// behaviour, and Theorems 7.2 and 7.3 assume race freedom.
pub fn no_race(exec: &Execution, transactional: bool) -> bool {
    no_race_view(&ExecView::new(exec), transactional)
}

/// [`no_race`] over a memoized view.
pub fn no_race_view(view: &ExecView<'_>, transactional: bool) -> bool {
    crate::ir::axiom_holds(crate::ir::catalog().no_race(transactional), view)
}

/// True if every atomic transaction contains no atomic operation — the
/// syntactic restriction the C++ TM specification places on
/// `atomic { … }` blocks, and a hypothesis of Theorem 7.2.
pub fn atomic_txns_contain_no_atomics(exec: &Execution) -> bool {
    atomic_txns_contain_no_atomics_view(&ExecView::new(exec))
}

/// [`atomic_txns_contain_no_atomics`] over a memoized view.
pub fn atomic_txns_contain_no_atomics_view(view: &ExecView<'_>) -> bool {
    view.exec()
        .stxnat
        .domain()
        .is_disjoint_from(&view.atomics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::catalog;

    #[test]
    fn fig3_separates_weak_from_strong_isolation() {
        for which in ['a', 'b', 'c', 'd'] {
            let e = catalog::fig3(which);
            assert!(weak_isolation(&e), "fig3({which}) satisfies weak isolation");
            assert!(
                !strong_isolation(&e),
                "fig3({which}) violates strong isolation"
            );
        }
    }

    #[test]
    fn fig2_violates_strong_isolation_only() {
        let e = catalog::fig2();
        assert!(weak_isolation(&e));
        assert!(!strong_isolation(&e));
    }

    #[test]
    fn transactional_sb_violates_weak_isolation() {
        // Two transactions communicating in a cycle violate even weak
        // isolation.
        let e = catalog::lb_txn();
        assert!(!weak_isolation(&e));
        assert!(!strong_isolation(&e));
    }

    #[test]
    fn plain_executions_are_trivially_isolated() {
        for e in [catalog::sb(), catalog::mp(), catalog::iriw()] {
            assert!(weak_isolation(&e));
            assert!(strong_isolation(&e));
        }
    }

    #[test]
    fn atomic_isolation_tracks_stxnat_only() {
        // fig2's transaction is relaxed (not atomic), so the atomic variant
        // of strong isolation holds vacuously.
        let e = catalog::fig2();
        assert!(strong_isolation_atomic(&e));
    }

    #[test]
    fn cr_order_rejects_mutual_exclusion_violation() {
        assert!(!cr_order(&catalog::fig10_abstract()));
        // An execution without critical regions satisfies CROrder trivially.
        assert!(cr_order(&catalog::sb()));
    }
}
