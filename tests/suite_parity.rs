//! Parity of the delta-driven suite-synthesis pipeline against the
//! per-execution one it replaced.
//!
//! [`synthesise_suites`] now runs on the delta-threading enumeration with
//! stateful per-worker checkers and savepoint-probed ⊏-minimality walks;
//! [`synthesise_suites_per_execution`] is the retained pre-incremental
//! pipeline (the single-threaded reference enumerator, fresh views, cloned
//! weakenings), so it shares no walker with the pipelines it pins. These
//! tests pin them to each other — identical Forbid and Allow sets (by
//! canonical signature), identical transaction histograms, identical
//! enumeration counts — on all five transactional models at small bounds,
//! pin the x86 Forbid count against the paper's Table 1, and assert the
//! incremental engine never took the footprint-invalidation fallback on a
//! maintainable monotone node while doing so (the removal deltas of the
//! odometer walk and of every weakening probe are *maintained*, by
//! counting-based deletion and DRed rederivation). A model without an
//! incremental checker is pinned to its built-in twin through every
//! pipeline that drives checkers: in-memory suites, the sweep runner's
//! suites and counts, and the distinguishing-execution search.

use tm_weak_memory::exec::ir::Delta;
use tm_weak_memory::exec::{ExecView, Execution};
use tm_weak_memory::models::ir::{IncrementalModelChecker, IrModel};
use tm_weak_memory::models::{MemoryModel, Target, Verdict, X86Model};
use tm_weak_memory::sweep::{run_sweep, SweepJob, SweepMode, SweepOptions, SweepOutcome};
use tm_weak_memory::synth::{
    canonical_signature, enumerate, find_distinguishing, synthesise_suites,
    synthesise_suites_per_execution, synthesise_suites_with, CanonSig, SuiteReport, Symmetry,
    SynthConfig,
};

fn signatures(report: &SuiteReport) -> (Vec<CanonSig>, Vec<CanonSig>) {
    let sigs = |tests: &[tm_weak_memory::synth::SynthesisedTest]| {
        let mut sigs: Vec<CanonSig> = tests
            .iter()
            .map(|t| canonical_signature(&t.execution))
            .collect();
        sigs.sort();
        sigs
    };
    (sigs(&report.forbid), sigs(&report.allow))
}

fn assert_suites_match(target: Target, cfg: &SynthConfig, events: usize) {
    let tm_model = target.model();
    let baseline = target.baseline().model();
    let incremental = synthesise_suites(&tm_model, &baseline, cfg, events);
    let reference = synthesise_suites_per_execution(&tm_model, &baseline, cfg, events);
    assert_eq!(
        incremental.enumerated, reference.enumerated,
        "{target}: pipelines visited different spaces"
    );
    assert_eq!(
        signatures(&incremental),
        signatures(&reference),
        "{target}: Forbid/Allow suites diverged at |E| = {events}"
    );
    assert_eq!(
        incremental.forbid_txn_histogram(),
        reference.forbid_txn_histogram(),
        "{target}: transaction histograms diverged"
    );
    // Expectations ride along identically.
    for t in &incremental.forbid {
        assert!(!tm_model.is_consistent(&t.execution));
        assert!(baseline.is_consistent(&t.execution));
    }
    for t in &incremental.allow {
        assert!(tm_model.is_consistent(&t.execution));
    }
}

#[test]
fn suite_parity_tsc() {
    let cfg = SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        ..SynthConfig::x86(3)
    };
    assert_suites_match(Target::Tsc, &cfg, 3);
}

#[test]
fn suite_parity_x86_tm() {
    assert_suites_match(Target::X86Tm, &SynthConfig::x86(3), 3);
}

#[test]
fn suite_parity_power_tm() {
    assert_suites_match(Target::PowerTm, &SynthConfig::power(2), 2);
    let mut cfg = SynthConfig::power(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.fences = vec![];
    assert_suites_match(Target::PowerTm, &cfg, 3);
}

#[test]
fn suite_parity_armv8_tm() {
    assert_suites_match(Target::Armv8Tm, &SynthConfig::armv8(2), 2);
    let mut cfg = SynthConfig::armv8(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.fences = vec![];
    cfg.read_annots.truncate(1);
    cfg.write_annots.truncate(1);
    assert_suites_match(Target::Armv8Tm, &cfg, 3);
}

#[test]
fn suite_parity_cpp_tm() {
    let mut cfg = SynthConfig::cpp(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    assert_suites_match(Target::CppTm, &cfg, 3);
}

/// The paper's Table 1 reports 4 minimally-forbidden x86+TM tests at three
/// events; the explicit-search pipeline reproduces that count exactly.
#[test]
fn x86_forbid_count_matches_paper_table_1_at_three_events() {
    let report = synthesise_suites(
        &X86Model::tm(),
        &X86Model::baseline(),
        &SynthConfig::x86(3),
        3,
    );
    assert_eq!(report.forbid.len(), 4, "Table 1: x86 |E|=3 Forbid = 4");
    // §5.3: every three-event Forbid test has exactly one transaction.
    assert_eq!(report.forbid_txn_histogram()[1], 4);
}

/// Driving the incremental checkers over a delta-threading sweep — the
/// removal-heavy odometer walk — must never take the footprint-invalidation
/// fallback on a maintainable monotone node: every such node is grown and
/// shrunk in place (`maintained`), and only genuinely non-monotone nodes
/// may take the lazy path. The falsifiable all-monotone-pool version of
/// this pin (where even `dropped` must be zero) lives next to the engine,
/// in `tm_exec::ir`'s `monotone_pool_removals_never_drop_any_node`.
#[test]
fn sweep_removal_deltas_never_invalidate_monotone_nodes() {
    let mut cfg = SynthConfig::x86(3);
    cfg.max_threads = 2;
    let totals = std::sync::Mutex::new((0u64, 0u64));
    let (tm, base) = (X86Model::tm(), X86Model::baseline());
    let make_sink = || {
        let totals = &totals;
        let mut guard = ScopeGuard {
            value: [tm.incremental(), base.incremental()],
            f: move |checkers: &[IncrementalModelChecker<'_>; 2]| {
                let mut totals = totals.lock().unwrap();
                for checker in checkers {
                    let stats = checker.stats();
                    totals.0 += stats.invalidated;
                    totals.1 += stats.maintained;
                }
            },
        };
        move |exec: &Execution, delta: &Delta, _: u64| {
            for checker in &mut guard.value {
                checker.advance(exec, delta);
                checker.is_consistent(exec);
            }
        }
    };
    enumerate(&cfg, 3, Symmetry::Full, make_sink, || false);
    let (invalidated, maintained) = *totals.lock().unwrap();
    assert_eq!(
        invalidated, 0,
        "a monotone node fell back to footprint invalidation"
    );
    assert!(
        maintained > 0,
        "the sweep must maintain monotone nodes in place"
    );
}

/// Minimal drop-guard plumbing: runs `f` on the held value when the worker
/// sink is dropped at the end of the sweep.
struct ScopeGuard<T, F: FnMut(&T)> {
    value: T,
    f: F,
}

impl<T, F: FnMut(&T)> Drop for ScopeGuard<T, F> {
    fn drop(&mut self) {
        (self.f)(&self.value);
    }
}

/// A model that delegates to a built-in one but offers no incremental
/// checker, so every pipeline drives it through `delta_checker`'s
/// from-scratch adapter.
struct ScratchOnly(IrModel);

impl MemoryModel for ScratchOnly {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn axioms(&self) -> Vec<&str> {
        self.0.axioms()
    }

    fn check_view(&self, view: &ExecView<'_>) -> Verdict {
        self.0.check_view(view)
    }
}

/// Runs one checkpointed sweep of the full space in a fresh directory.
fn sweep_once(
    tag: &str,
    model: &dyn MemoryModel,
    baseline: &dyn MemoryModel,
    mode: SweepMode,
    config: &SynthConfig,
    events: usize,
) -> SweepOutcome {
    let dir = std::env::temp_dir().join(format!("tm-suite-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let job = SweepJob {
        model,
        baseline: Some(baseline),
        reference: None,
        mode,
        config,
        events,
        symmetry: Symmetry::Full,
    };
    let outcome = run_sweep(&job, &SweepOptions::new(&dir)).expect("sweep runs");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// A model without an incremental checker takes the same checker path as
/// its built-in twin, through the from-scratch adapter: the same suites
/// (symmetry off and on, in memory and through the sweep runner), the same
/// counts, and a distinguishing witness of the same size.
#[test]
fn models_without_an_incremental_checker_get_the_same_results() {
    for (target, cfg, events) in [
        (Target::X86Tm, SynthConfig::x86(3), 3),
        (Target::PowerTm, SynthConfig::power(2), 2),
    ] {
        let (tm, base) = (target.model(), target.baseline().model());
        let (tm, base) = (&tm, &base);
        let scratch_tm = ScratchOnly(target.model());
        let scratch_base = ScratchOnly(target.baseline().model());
        assert!(scratch_tm.incremental_checker().is_none());

        for symmetry in [Symmetry::Full, Symmetry::Reduced] {
            let fast = synthesise_suites_with(tm, base, &cfg, events, symmetry);
            let slow = synthesise_suites_with(&scratch_tm, &scratch_base, &cfg, events, symmetry);
            assert!(
                !fast.forbid.is_empty(),
                "{target}: the pin would be vacuous"
            );
            assert_eq!(
                signatures(&slow),
                signatures(&fast),
                "{target} {symmetry:?}"
            );
            assert_eq!(
                (slow.enumerated, slow.effective),
                (fast.enumerated, fast.effective),
                "{target} {symmetry:?}"
            );
            assert_eq!(slow.forbid_txn_histogram(), fast.forbid_txn_histogram());
        }

        for mode in [SweepMode::Suites, SweepMode::Counts] {
            let fast = sweep_once("fast", tm, base, mode, &cfg, events);
            let slow = sweep_once("slow", &scratch_tm, &scratch_base, mode, &cfg, events);
            assert_eq!(
                (slow.visited, slow.consistent, slow.weighted_visited),
                (fast.visited, fast.consistent, fast.weighted_visited),
                "{target} {mode:?}"
            );
            assert!(fast.checker.is_some() && slow.checker.is_none());
            let suites = |o: &SweepOutcome| o.suites.as_ref().map(signatures);
            assert_eq!(suites(&slow), suites(&fast), "{target} {mode:?}");
        }

        let fast = find_distinguishing(tm, base, &cfg).expect("the TM model is stronger");
        let slow = find_distinguishing(&scratch_tm, &scratch_base, &cfg)
            .expect("the from-scratch path finds a witness too");
        assert!(!tm.is_consistent(&slow) && base.is_consistent(&slow));
        assert_eq!(slow.len(), fast.len(), "{target}: smallest separating size");
    }
}
