//! Regression tests for the `ExecView` migration: every model must produce
//! identical verdicts on the full litmus catalog whether derived relations
//! are memoized (the post-migration hot path) or recomputed on every access
//! (the pre-migration behaviour, reproduced by `ExecView::uncached`).
//!
//! A golden table of consistency verdicts additionally pins the catalog
//! behaviour of all ten targets, so a future change to the cache layer that
//! silently flips a verdict fails loudly here.

use tm_weak_memory::exec::catalog;
use tm_weak_memory::exec::{ExecView, Execution};
use tm_weak_memory::models::{MemoryModel, Target};

/// The full catalog: every execution discussed in the paper, with a stable
/// name for error messages.
fn full_catalog() -> Vec<(String, Execution)> {
    let mut execs = vec![
        ("fig1".to_string(), catalog::fig1()),
        ("fig2".to_string(), catalog::fig2()),
        ("power_wrc_tprop1".to_string(), catalog::power_wrc_tprop1()),
        ("power_wrc_tprop2".to_string(), catalog::power_wrc_tprop2()),
        (
            "power_iriw_two_txns".to_string(),
            catalog::power_iriw_two_txns(),
        ),
        (
            "power_iriw_one_txn".to_string(),
            catalog::power_iriw_one_txn(),
        ),
        ("remark_5_1_first".to_string(), catalog::remark_5_1_first()),
        (
            "remark_5_1_second".to_string(),
            catalog::remark_5_1_second(),
        ),
        (
            "monotonicity_cex_split".to_string(),
            catalog::monotonicity_cex_split(),
        ),
        (
            "monotonicity_cex_coalesced".to_string(),
            catalog::monotonicity_cex_coalesced(),
        ),
        ("dongol_mp_txn".to_string(), catalog::dongol_mp_txn()),
        ("sb".to_string(), catalog::sb()),
        ("sb_txn".to_string(), catalog::sb_txn()),
        ("sb_mfence".to_string(), catalog::sb_mfence()),
        ("mp".to_string(), catalog::mp()),
        ("mp_txn".to_string(), catalog::mp_txn()),
        ("lb".to_string(), catalog::lb()),
        ("lb_txn".to_string(), catalog::lb_txn()),
        ("wrc".to_string(), catalog::wrc()),
        ("iriw".to_string(), catalog::iriw()),
        ("fig10_abstract".to_string(), catalog::fig10_abstract()),
    ];
    for which in ['a', 'b', 'c', 'd'] {
        execs.push((format!("fig3_{which}"), catalog::fig3(which)));
    }
    for dmb in [false, true] {
        execs.push((
            format!("example_1_1_concrete_{dmb}"),
            catalog::example_1_1_concrete(dmb),
        ));
        execs.push((
            format!("appendix_b_concrete_{dmb}"),
            catalog::appendix_b_concrete(dmb),
        ));
    }
    execs
}

/// The acceptance gate of the memoization refactor: on the full catalog,
/// every target's verdict through the memoized view equals its verdict
/// through the uncached (recompute-per-access) view — violated axioms
/// included, not just the boolean.
#[test]
fn all_models_agree_memoized_vs_uncached_on_full_catalog() {
    for (name, exec) in full_catalog() {
        for target in Target::ALL {
            let model = target.model();
            let memoized = model.check_view(&ExecView::new(&exec));
            let uncached = model.check_view(&ExecView::uncached(&exec));
            assert_eq!(
                memoized.violated_axioms(),
                uncached.violated_axioms(),
                "{target} disagrees between memoized and uncached views on {name}: \
                 memoized={memoized}, uncached={uncached}"
            );
        }
    }
}

/// `MemoryModel::check` (the bare-`Execution` entry point) must route
/// through the same machinery: same verdict as an explicit memoized view.
#[test]
fn check_and_check_view_agree_on_full_catalog() {
    for (name, exec) in full_catalog() {
        for target in Target::ALL {
            let model = target.model();
            let via_exec = model.check(&exec);
            let via_view = model.check_view(&ExecView::new(&exec));
            assert_eq!(
                via_exec.violated_axioms(),
                via_view.violated_axioms(),
                "{target} disagrees between check and check_view on {name}"
            );
            assert_eq!(
                model.is_consistent(&exec),
                model.is_consistent_view(&ExecView::new(&exec)),
                "{target} boolean disagreement on {name}"
            );
        }
    }
}

/// Golden consistency verdicts for a few load-bearing catalog entries (the
/// paper's headline claims), pinned so a cache-layer bug cannot silently
/// flip them. `true` = consistent.
#[test]
fn golden_catalog_verdicts_are_stable() {
    let cases: Vec<(&str, Execution, Target, bool)> = vec![
        // Transactions serialise store buffering away on x86 …
        ("sb", catalog::sb(), Target::X86, true),
        ("sb_txn", catalog::sb_txn(), Target::X86, true),
        ("sb_txn", catalog::sb_txn(), Target::X86Tm, false),
        // … and the TM models enforce strong isolation (Fig. 2 / Fig. 3).
        ("fig2", catalog::fig2(), Target::Sc, true),
        ("fig2", catalog::fig2(), Target::Tsc, false),
        ("fig3_a", catalog::fig3('a'), Target::X86, true),
        ("fig3_a", catalog::fig3('a'), Target::X86Tm, false),
        // The Power barrier-in-transaction executions of §5.2.
        (
            "power_wrc_tprop1",
            catalog::power_wrc_tprop1(),
            Target::Power,
            true,
        ),
        (
            "power_wrc_tprop1",
            catalog::power_wrc_tprop1(),
            Target::PowerTm,
            false,
        ),
        (
            "power_iriw_one_txn",
            catalog::power_iriw_one_txn(),
            Target::PowerTm,
            true,
        ),
        // The headline lock-elision witness (Example 1.1): consistent under
        // the ARMv8 TM extension without the DMB repair, inconsistent with.
        (
            "example_1_1",
            catalog::example_1_1_concrete(false),
            Target::Armv8Tm,
            true,
        ),
        (
            "example_1_1_fixed",
            catalog::example_1_1_concrete(true),
            Target::Armv8Tm,
            false,
        ),
        // C++: conflicting transactions synchronise (§7.2).
        ("mp_txn", catalog::mp_txn(), Target::Cpp, true),
        ("mp_txn", catalog::mp_txn(), Target::CppTm, false),
    ];
    for (name, exec, target, expected) in cases {
        assert_eq!(
            target.model().is_consistent(&exec),
            expected,
            "golden verdict changed: {name} under {target}"
        );
    }
}
