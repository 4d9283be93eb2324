//! Bounded mechanical checks of the paper's two hand-proved theorems about
//! the C++ TM model (§7).

use std::time::{Duration, Instant};

use tm_exec::ir::{Delta, DeltaMask};
use tm_exec::{ExecView, Execution};
use tm_models::ir::catalog;
use tm_models::{delta_checker, isolation, CppModel, MemoryModel, ScModel};
use tm_synth::SynthConfig;

use crate::search::Search;

/// The outcome of a bounded theorem check.
#[derive(Clone, Debug)]
pub struct TheoremResult {
    /// Which theorem was checked (`"7.2"` or `"7.3"`).
    pub theorem: &'static str,
    /// The event-count bound reached.
    pub max_events: usize,
    /// Number of executions that satisfied the theorem's hypotheses. The
    /// search stops at the first counterexample, so when one exists this
    /// counts the instances found up to the stop.
    pub instances: usize,
    /// A counterexample execution, if any hypothesis-satisfying execution
    /// violated the conclusion. Whether one exists is deterministic;
    /// *which* one is reported (and `instances` with it) depends on the
    /// enumeration order and the number of enumeration workers.
    pub counterexample: Option<Execution>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl TheoremResult {
    /// True if the theorem held on every instance within the bound.
    pub fn holds(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Theorem 7.2 (strong isolation for atomic transactions): in a race-free,
/// C++-consistent execution whose atomic transactions contain no atomic
/// operations, `stronglift(com, stxnat)` is acyclic.
///
/// The check marks every transaction produced by the enumerator as atomic
/// (`stxnat = stxn`), which is the worst case for the theorem.
pub fn check_theorem_7_2(config: &SynthConfig, max_events: usize) -> TheoremResult {
    check_theorem(
        "7.2",
        config,
        max_events,
        |view| !view.exec().stxn.is_empty(),
        isolation::strong_isolation_atomic_view,
    )
}

/// Theorem 7.3 (transactional SC-DRF): a C++-consistent execution with no
/// relaxed transactions (`stxn = stxnat`), no non-SC atomics (`Ato = SC`)
/// and no data races is consistent under TSC.
pub fn check_theorem_7_3(config: &SynthConfig, max_events: usize) -> TheoremResult {
    let tsc = ScModel::tsc();
    check_theorem(
        "7.3",
        config,
        max_events,
        |view| *view.atomics() == *view.sc_events(),
        |view| tsc.is_consistent_view(view),
    )
}

/// Checks one theorem on every candidate with every transaction atomic:
/// its hypotheses are `hypothesis`, no atomics inside atomic transactions,
/// C++ TM consistency and race freedom; its conclusion is `conclusion`.
///
/// Each worker keeps a mirror of the enumerator's candidate whose `stxnat`
/// follows `stxn`, and drives one [`DeltaChecker`] along it — C++ TM with
/// the catalog's `NoRace` axiom appended, so consistency and race freedom
/// share one maintained `hb` — by the enumerator's delta, plus a coarse
/// `stxnat` touch whenever that delta moves `stxn`.
fn check_theorem(
    theorem: &'static str,
    config: &SynthConfig,
    max_events: usize,
    hypothesis: impl Fn(&ExecView<'_>) -> bool + Sync,
    conclusion: impl Fn(&ExecView<'_>) -> bool + Sync,
) -> TheoremResult {
    let start = Instant::now();
    let cpp = CppModel::tm().with_catalog_axiom(catalog().no_race(true));
    let search = Search::new();
    search.run(config, max_events, || {
        let (search, hypothesis, conclusion) = (&search, &hypothesis, &conclusion);
        let mut checker = delta_checker(&cpp);
        let mut mirror = Execution::with_events(Vec::new());
        move |exec: &Execution, delta: &Delta| {
            mirror.clone_from(exec);
            mirror.stxnat.clone_from(&mirror.stxn);
            if delta.mask().intersects(DeltaMask::STXN) {
                let mut delta = delta.clone();
                delta.touch(DeltaMask::STXNAT);
                checker.advance(&mirror, &delta);
            } else {
                checker.advance(&mirror, delta);
            }
            if search.stopped() {
                return;
            }
            let view = ExecView::new(&mirror);
            if !hypothesis(&view)
                || !isolation::atomic_txns_contain_no_atomics_view(&view)
                || !checker.is_consistent(&mirror)
            {
                return;
            }
            search.count();
            if !conclusion(&view) {
                search.report(mirror.clone());
            }
        }
    });
    let (instances, counterexample) = search.finish();
    TheoremResult {
        theorem,
        max_events,
        instances,
        counterexample,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::Annot;

    fn cpp_config(events: usize) -> SynthConfig {
        let mut cfg = SynthConfig::cpp(events);
        // Keep the space tractable for unit tests: plain and seq_cst
        // accesses only (the benchmark harness uses the full configuration).
        cfg.read_annots = vec![Annot::PLAIN, Annot::seq_cst()];
        cfg.write_annots = vec![Annot::PLAIN, Annot::seq_cst()];
        cfg
    }

    #[test]
    fn theorem_7_2_holds_up_to_three_events() {
        let result = check_theorem_7_2(&cpp_config(3), 3);
        assert!(result.holds(), "{:?}", result.counterexample);
        assert!(result.instances > 0, "the hypotheses must be satisfiable");
    }

    #[test]
    fn theorem_7_3_holds_up_to_three_events() {
        let result = check_theorem_7_3(&cpp_config(3), 3);
        assert!(result.holds(), "{:?}", result.counterexample);
        assert!(result.instances > 0);
    }

    #[test]
    fn theorem_7_3_hypotheses_matter() {
        // Dropping the race-freedom hypothesis breaks the conclusion: the
        // plain (racy) store-buffering execution is C++-consistent but not
        // TSC-consistent.
        let sb = tm_exec::catalog::sb();
        assert!(CppModel::tm().is_consistent(&sb));
        assert!(!isolation::no_race(&sb, true));
        assert!(!ScModel::tsc().is_consistent(&sb));
    }
}
