//! Parity of the delta-driven Table 2 checks against the per-candidate,
//! from-scratch loops they replaced.
//!
//! `tm_metatheory`'s checks walk the delta-threading enumerator with one
//! stateful checker per worker: monotonicity probes each transaction
//! reduction as an edit script under a checker savepoint, compilation asks
//! the C++ TM checker first, and the theorems check a mirror of each
//! candidate whose `stxnat` follows `stxn`. The oracles below restate the
//! previous implementation: fresh `ExecView`s on every candidate of
//! `enumerate_exact`, and cloned reductions. For every check that holds,
//! verdict and work count must agree exactly; for the Power and ARMv8
//! monotonicity counterexamples, the reported pair is re-verified from
//! scratch.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use tm_weak_memory::exec::ir::Delta;
use tm_weak_memory::exec::{Annot, ExecView, Execution};
use tm_weak_memory::litmus::Arch;
use tm_weak_memory::metatheory::{
    check_compilation, check_monotonicity, check_theorem_7_2, check_theorem_7_3, compile_execution,
    transaction_reduction_edits, transaction_reductions,
};
use tm_weak_memory::models::{
    isolation, Armv8Model, CppModel, MemoryModel, PowerModel, ScModel, X86Model,
};
use tm_weak_memory::synth::{
    apply_weakening_edits, enumerate_exact, undo_weakening_edits, SynthConfig,
};

/// The C++ space of the monotonicity unit test and `tests/paper_claims.rs`:
/// plain and relaxed accesses.
fn cpp_config_tests(bound: usize) -> SynthConfig {
    let mut cfg = SynthConfig::cpp(bound);
    cfg.read_annots.truncate(2);
    cfg.write_annots.truncate(2);
    cfg
}

/// The C++ space of the `table2` benchmark: plain, relaxed and seq_cst.
fn cpp_config_bench(bound: usize) -> SynthConfig {
    let mut cfg = SynthConfig::cpp(bound);
    cfg.read_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg.write_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg
}

/// Sums `visit` over every candidate with 2..=`max_events` events. Each
/// visit returns its work count and whether it found a violation.
fn sweep(
    config: &SynthConfig,
    max_events: usize,
    visit: impl Fn(&Execution) -> (usize, bool) + Sync,
) -> (usize, bool) {
    let count = AtomicUsize::new(0);
    let violated = AtomicBool::new(false);
    for n in 2..=max_events {
        enumerate_exact(config, n, |exec| {
            let (k, v) = visit(exec);
            count.fetch_add(k, Ordering::Relaxed);
            if v {
                violated.store(true, Ordering::Relaxed);
            }
        });
    }
    (count.into_inner(), violated.into_inner())
}

/// The clone-based transaction reductions the edit scripts replaced.
fn reductions_oracle(exec: &Execution) -> Vec<Execution> {
    let mut out = Vec::new();
    let unlink = |exec: &mut Execution, a: usize, b: usize| {
        for rel in [&mut exec.stxn, &mut exec.stxnat] {
            rel.remove(a, b);
            rel.remove(b, a);
        }
    };
    for class in exec.txn_classes() {
        let mut dropped = exec.clone();
        for &a in &class {
            for b in 0..exec.len() {
                unlink(&mut dropped, a, b);
            }
        }
        out.push(dropped);
        if class.len() < 2 {
            continue;
        }
        let mut sorted = class.clone();
        sorted.sort_by_key(|&e| exec.po.predecessors(e).count());
        for end in [sorted[0], sorted[sorted.len() - 1]] {
            let mut shrunk = exec.clone();
            for b in 0..exec.len() {
                unlink(&mut shrunk, end, b);
            }
            out.push(shrunk);
        }
        for cut in 1..sorted.len() {
            let (left, right) = sorted.split_at(cut);
            let mut split = exec.clone();
            for &a in left {
                for &b in right {
                    unlink(&mut split, a, b);
                }
            }
            out.push(split);
        }
    }
    out
}

/// From-scratch monotonicity: `(pairs checked, holds)`.
fn monotonicity_oracle(model: &dyn MemoryModel, config: &SynthConfig, n: usize) -> (usize, bool) {
    let (pairs, violated) = sweep(config, n, |exec| {
        if exec.txn_classes().is_empty() || !model.is_consistent_view(&ExecView::new(exec)) {
            return (0, false);
        }
        let reductions = reductions_oracle(exec);
        let violated = reductions.iter().any(|r| !model.is_consistent(r));
        (reductions.len(), violated)
    });
    (pairs, !violated)
}

/// From-scratch compilation soundness: `(candidates checked, sound)`.
fn compilation_oracle(target: Arch, hardware: &dyn MemoryModel, n: usize) -> (usize, bool) {
    let cpp = CppModel::tm();
    let (checked, violated) = sweep(&cpp_config_bench(n), n, |exec| {
        let unsound = !cpp.is_consistent_view(&ExecView::new(exec))
            && hardware.is_consistent(&compile_execution(exec, target));
        (1, unsound)
    });
    (checked, !violated)
}

/// From-scratch theorem check on candidates with every transaction atomic:
/// `(instances, holds)`.
fn theorem_oracle(
    n: usize,
    hypothesis: impl Fn(&ExecView<'_>) -> bool + Sync,
    conclusion: impl Fn(&ExecView<'_>) -> bool + Sync,
) -> (usize, bool) {
    let cpp = CppModel::tm();
    let (instances, violated) = sweep(&cpp_config_bench(n), n, |exec| {
        let mut exec = exec.clone();
        exec.stxnat = exec.stxn.clone();
        let view = ExecView::new(&exec);
        if !hypothesis(&view)
            || !cpp.atomic_txns_contain_no_atomics_view(&view)
            || !cpp.is_consistent_view(&view)
            || cpp.is_racy_view(&view)
        {
            return (0, false);
        }
        (1, !conclusion(&view))
    });
    (instances, !violated)
}

#[test]
fn monotonicity_matches_the_from_scratch_oracle_where_it_holds() {
    let spaces: [(&str, Box<dyn MemoryModel>, SynthConfig); 3] = [
        ("x86", Box::new(X86Model::tm()), SynthConfig::x86(3)),
        ("cpp/tests", Box::new(CppModel::tm()), cpp_config_tests(3)),
        ("cpp/bench", Box::new(CppModel::tm()), cpp_config_bench(3)),
    ];
    for (label, model, cfg) in &spaces {
        let result = check_monotonicity(model.as_ref(), cfg, 3);
        let (pairs, holds) = monotonicity_oracle(model.as_ref(), cfg, 3);
        assert!(holds && result.holds(), "{label}: monotonicity must hold");
        assert_eq!(result.pairs_checked, pairs, "{label}: pair counts differ");
        assert!(pairs > 0, "{label}: the space has transactional pairs");
    }
}

#[test]
fn power_and_armv8_monotonicity_counterexamples_verify_from_scratch() {
    let spaces: [(Box<dyn MemoryModel>, SynthConfig); 2] = [
        (Box::new(PowerModel::tm()), SynthConfig::power(2)),
        (Box::new(Armv8Model::tm()), SynthConfig::armv8(2)),
    ];
    for (model, cfg) in &spaces {
        let result = check_monotonicity(model.as_ref(), cfg, 2);
        let (_, holds) = monotonicity_oracle(model.as_ref(), cfg, 2);
        assert!(
            !holds,
            "{}: the oracle finds a counterexample",
            result.model
        );
        let (weaker, stronger) = result
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("{}: a counterexample is reported", result.model));
        assert_eq!(weaker.events, stronger.events);
        assert!(!model.is_consistent(weaker), "{}", result.model);
        assert!(model.is_consistent(stronger), "{}", result.model);
        assert!(
            reductions_oracle(stronger).contains(weaker),
            "{}: the weaker execution is a transaction reduction of the stronger",
            result.model
        );
    }
}

#[test]
fn edit_scripts_reproduce_the_cloned_reductions_on_every_candidate() {
    let spaces = [
        (SynthConfig::x86(3), 3),
        (cpp_config_tests(3), 3),
        (cpp_config_bench(3), 3),
        (SynthConfig::power(2), 2),
        (SynthConfig::armv8(2), 2),
    ];
    for (cfg, n) in &spaces {
        let (candidates, mismatch) = sweep(cfg, *n, |exec| {
            let oracle = reductions_oracle(exec);
            let scripts = transaction_reduction_edits(exec);
            // Each script, applied in place, lands on the cloned reduction,
            // and undoing it restores the candidate bit for bit.
            let mut probe = exec.clone();
            let reproduced = scripts.len() == oracle.len()
                && scripts.iter().zip(&oracle).all(|(edits, reduced)| {
                    apply_weakening_edits(&mut probe, edits, &mut Delta::new());
                    let landed = probe == *reduced;
                    undo_weakening_edits(&mut probe, edits);
                    landed && probe == *exec
                });
            (1, !reproduced || transaction_reductions(exec) != oracle)
        });
        assert!(!mismatch, "edit scripts diverged on {cfg:?}");
        assert!(candidates > 0);
    }
}

#[test]
fn compilation_matches_the_from_scratch_oracle_at_three_events() {
    let targets: [(Arch, Box<dyn MemoryModel>); 3] = [
        (Arch::X86, Box::new(X86Model::tm())),
        (Arch::Power, Box::new(PowerModel::tm())),
        (Arch::Armv8, Box::new(Armv8Model::tm())),
    ];
    for (target, hardware) in &targets {
        let result = check_compilation(*target, &cpp_config_bench(3), 3);
        let (checked, sound) = compilation_oracle(*target, hardware.as_ref(), 3);
        assert!(
            sound && result.sound(),
            "{target}: compilation must be sound"
        );
        assert_eq!(result.checked, checked, "{target}: candidate counts differ");
    }
}

#[test]
fn theorems_match_the_from_scratch_oracle_at_three_events() {
    let result = check_theorem_7_2(&cpp_config_bench(3), 3);
    let (instances, holds) = theorem_oracle(
        3,
        |view| !view.exec().txn_classes().is_empty(),
        isolation::strong_isolation_atomic_view,
    );
    assert!(holds && result.holds(), "Theorem 7.2 must hold");
    assert_eq!(result.instances, instances, "Theorem 7.2 instance counts");
    assert!(instances > 0);

    let tsc = ScModel::tsc();
    let result = check_theorem_7_3(&cpp_config_bench(3), 3);
    let (instances, holds) = theorem_oracle(
        3,
        |view| *view.atomics() == *view.sc_events(),
        |view| tsc.is_consistent_view(view),
    );
    assert!(holds && result.holds(), "Theorem 7.3 must hold");
    assert_eq!(result.instances, instances, "Theorem 7.3 instance counts");
    assert!(instances > 0);
}
