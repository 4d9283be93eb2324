//! Scheduling parity: adaptive dispatch must not change what a sweep
//! computes.
//!
//! The contract under test: weight-ordered dispatch, unit pre-splitting and
//! budget-stop work preservation are pure *scheduling* choices. A split run
//! produces suites byte-identical (signatures, counts, histograms,
//! enumeration totals) to `synthesise_suites_with` on the same job, which
//! runs on `enumerate`'s worker pool rather than the sweep runner's
//! scheduler, so the reference shares no dispatch code with the runs under
//! test.

use std::path::PathBuf;
use std::time::Duration;

use tm_weak_memory::models::{MemoryModel, ScModel};
use tm_weak_memory::obs::Obs;
use tm_weak_memory::sweep::{run_sweep, SweepJob, SweepMode, SweepOptions, SweepStatus};
use tm_weak_memory::synth::{
    canonical_signature, synthesise_suites_with, CanonSig, SuiteReport, Symmetry, SynthConfig,
};

/// A fresh scratch directory under the system temp dir; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-sched-parity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Scratch(p)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The trimmed |E| = 4 study space: big enough for a real unit frontier
/// with splittable units and uneven weights, small enough for debug-profile
/// test runs.
fn trimmed_config() -> SynthConfig {
    SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        max_threads: 2,
        max_locs: 2,
        ..SynthConfig::x86(4)
    }
}

fn suites_job<'a>(
    tm: &'a dyn MemoryModel,
    base: &'a dyn MemoryModel,
    config: &'a SynthConfig,
) -> SweepJob<'a> {
    SweepJob {
        model: tm,
        baseline: Some(base),
        reference: None,
        mode: SweepMode::Suites,
        config,
        events: config.max_events,
        symmetry: Symmetry::Full,
    }
}

/// Everything the parity contract promises to preserve: canonical and
/// structural signatures of both suites, the transaction histogram, and
/// the enumeration total.
type SuiteProfile = (Vec<(CanonSig, String)>, Vec<String>, Vec<usize>, usize);

fn profile(report: &SuiteReport) -> SuiteProfile {
    let forbid = report
        .forbid
        .iter()
        .map(|t| (canonical_signature(&t.execution), t.execution.signature()))
        .collect();
    let allow = report
        .allow
        .iter()
        .map(|t| t.execution.signature())
        .collect();
    (
        forbid,
        allow,
        report.forbid_txn_histogram(),
        report.enumerated,
    )
}

/// The independent reference: the same job's suites from
/// `synthesise_suites_with`.
fn reference_profile(
    tm: &dyn MemoryModel,
    base: &dyn MemoryModel,
    config: &SynthConfig,
) -> SuiteProfile {
    profile(&synthesise_suites_with(
        tm,
        base,
        config,
        config.max_events,
        Symmetry::Full,
    ))
}

/// Forcing every splittable unit apart with `--max-unit-weight 1` must not
/// change the suites, the visit totals, or the per-execution verdicts —
/// only how the work was diced.
#[test]
fn forced_presplit_run_matches_unscheduled_run() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);
    let reference = reference_profile(&tm, &base, &config);

    let default_dir = Scratch::new("presplit-default");
    let default_obs = Obs::disabled();
    let mut default_opts = SweepOptions::new(default_dir.path());
    default_opts.obs = default_obs.clone();
    let default = run_sweep(&job, &default_opts).expect("default run");
    assert_eq!(default.status, SweepStatus::Complete);

    let forced_dir = Scratch::new("presplit-forced");
    let forced_obs = Obs::disabled();
    let mut forced_opts = SweepOptions::new(forced_dir.path());
    forced_opts.max_unit_weight = Some(1);
    forced_opts.obs = forced_obs.clone();
    let forced = run_sweep(&job, &forced_opts).expect("forced-split run");
    assert_eq!(forced.status, SweepStatus::Complete);

    let presplits = |obs: &Obs| obs.counter("sweep.sched.presplit").get();
    assert!(
        presplits(&forced_obs) > presplits(&default_obs),
        "a weight bound of 1 must pre-split more units than the default bound ({} vs {})",
        presplits(&forced_obs),
        presplits(&default_obs)
    );
    assert!(
        forced.total_units > default.total_units,
        "splitting must refine the unit frontier ({} vs {})",
        forced.total_units,
        default.total_units
    );
    assert_eq!(forced.visited, default.visited);
    assert_eq!(forced.weighted_visited, default.weighted_visited);
    for (name, outcome) in [("default", &default), ("forced-split", &forced)] {
        assert_eq!(
            profile(outcome.suites.as_ref().expect("suites mode")),
            reference,
            "{name} run's suites must be identical to synthesise_suites_with's"
        );
    }
}

/// A budget stop mid-run under maximal splitting, then a resume, lands on
/// the same suites — and every child unit banked before the stop is reused,
/// not re-run.
#[test]
fn budget_stop_with_splits_resumes_to_identical_suites() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);
    let reference = reference_profile(&tm, &base, &config);

    let dir = Scratch::new("budget");
    let mut opts = SweepOptions::new(dir.path());
    opts.max_unit_weight = Some(1);
    opts.budget = Some(Duration::from_millis(25));
    let stopped = run_sweep(&job, &opts).expect("budget run");

    let mut opts = SweepOptions::new(dir.path());
    opts.max_unit_weight = Some(1);
    opts.resume = true;
    let resumed = run_sweep(&job, &opts).expect("resumed run");
    assert_eq!(resumed.status, SweepStatus::Complete);
    assert_eq!(
        resumed.reused_units, stopped.completed_units,
        "every unit banked before the budget stop must be reused"
    );
    assert_eq!(
        profile(resumed.suites.as_ref().expect("suites mode")),
        reference
    );
}
