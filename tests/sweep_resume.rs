//! Crash/resume guarantees of the checkpointed sweep runner (`tm-sweep`).
//!
//! The contract under test: a sweep that is interrupted — by a budget stop,
//! an injected panic, or a stall — and then resumed from its journal
//! produces **identical** Forbid/Allow suites (signatures, counts,
//! transaction histograms, enumeration totals) to an uninterrupted run; a
//! deterministically failing unit is retried, quarantined, and reported
//! without taking the sweep down; deterministic sharding by unit id
//! partitions the space exactly; and a journal is bound to the *content*
//! of the models that wrote it, not only to their names.

use std::path::PathBuf;
use std::time::Duration;

use tm_weak_memory::cat::load_str;
use tm_weak_memory::models::{MemoryModel, ScModel, X86Model};
use tm_weak_memory::sweep::{
    merge_sharded, run_sweep, FailKind, FailPlan, SweepJob, SweepMode, SweepOptions, SweepStatus,
};
use tm_weak_memory::synth::{
    canonical_signature, work_units, CanonSig, SuiteReport, Symmetry, SynthConfig,
};

/// A fresh scratch directory under the system temp dir; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-sweep-resume-{tag}-{}", std::process::id()));
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

/// A small-but-nontrivial suites job: TSC vs SC over a trimmed 3-event
/// space (the Fig. 3 isolation-violation shapes live here), fast enough
/// for debug-profile test runs.
fn trimmed_config() -> SynthConfig {
    SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        max_threads: 2,
        max_locs: 2,
        ..SynthConfig::x86(3)
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

/// Everything about a suite report that the resume contract promises to
/// preserve: canonical and structural signatures of both suites, the
/// transaction histogram, and the enumeration total.
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

#[test]
fn unit_ids_are_stable_and_unique() {
    let config = trimmed_config();
    let units = work_units(&config, 3, Symmetry::Full);
    assert!(units.len() > 10, "expected a real unit frontier");
    let ids: Vec<u64> = units.iter().map(|u| u.stable_id(&config, 3)).collect();
    let again: Vec<u64> = work_units(&config, 3, Symmetry::Full)
        .iter()
        .map(|u| u.stable_id(&config, 3))
        .collect();
    assert_eq!(ids, again, "ids must be deterministic");
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "ids must be unique");
    // Ids must move with the configuration, or two different sweeps could
    // swap journals.
    let other = SynthConfig {
        max_locs: 3,
        ..trimmed_config()
    };
    let moved: Vec<u64> = work_units(&other, 3, Symmetry::Full)
        .iter()
        .map(|u| u.stable_id(&other, 3))
        .collect();
    assert!(ids.iter().all(|id| !moved.contains(id)));
}

#[test]
fn budget_interruption_then_resume_matches_a_clean_run() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let clean_dir = Scratch::new("budget-clean");
    let clean = run_sweep(&job, &SweepOptions::new(clean_dir.path())).expect("clean run");
    assert_eq!(clean.status, SweepStatus::Complete);
    let clean_report = clean.suites.expect("suites mode");
    assert!(
        !clean_report.forbid.is_empty(),
        "the trimmed space must still contain Forbid tests"
    );

    // A zero budget stops the sweep before any unit is banked.
    let dir = Scratch::new("budget");
    let mut opts = SweepOptions::new(dir.path());
    opts.budget = Some(Duration::ZERO);
    let stopped = run_sweep(&job, &opts).expect("budget run");
    assert_eq!(stopped.status, SweepStatus::BudgetExhausted);
    assert!(stopped.pending_units > 0);

    // Resume without a budget: picks up the journal and finishes.
    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let resumed = run_sweep(&job, &opts).expect("resumed run");
    assert_eq!(resumed.status, SweepStatus::Complete);
    assert_eq!(resumed.reused_units, stopped.completed_units);
    assert_eq!(
        profile(&resumed.suites.expect("suites mode")),
        profile(&clean_report),
        "resumed suites must be identical to an uninterrupted run"
    );
}

#[test]
fn a_transient_panic_is_retried_and_the_run_completes() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let clean_dir = Scratch::new("transient-clean");
    let clean = run_sweep(&job, &SweepOptions::new(clean_dir.path())).expect("clean run");

    let dir = Scratch::new("transient");
    let mut opts = SweepOptions::new(dir.path());
    opts.fail_plan = Some(FailPlan {
        kind: FailKind::PanicOnce,
        after_units: 2,
    });
    opts.backoff = Duration::from_millis(1);
    let outcome = run_sweep(&job, &opts).expect("run with transient fault");
    assert_eq!(outcome.status, SweepStatus::Complete);
    assert!(outcome.retried_attempts >= 1, "the panic must cost a retry");
    assert!(outcome.quarantined.is_empty());
    assert_eq!(
        profile(&outcome.suites.expect("suites mode")),
        profile(&clean.suites.expect("suites mode")),
    );
}

#[test]
fn a_deterministic_panic_quarantines_without_aborting_then_resume_heals() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let clean_dir = Scratch::new("quarantine-clean");
    let clean = run_sweep(&job, &SweepOptions::new(clean_dir.path())).expect("clean run");
    let clean_profile = profile(&clean.suites.expect("suites mode"));

    let dir = Scratch::new("quarantine");
    let mut opts = SweepOptions::new(dir.path());
    opts.fail_plan = Some(FailPlan {
        kind: FailKind::Panic,
        after_units: 3,
    });
    opts.retries = 1;
    opts.backoff = Duration::from_millis(1);
    let degraded = run_sweep(&job, &opts).expect("degraded run");
    assert_eq!(degraded.status, SweepStatus::Partial);
    assert_eq!(degraded.quarantined.len(), 1);
    let q = &degraded.quarantined[0];
    assert_eq!(q.attempts, 2, "one attempt plus one retry");
    assert!(q.reason.contains("panic"), "reason was: {}", q.reason);
    assert!(!q.label.is_empty(), "a fresh quarantine carries its label");
    assert_eq!(degraded.completed_units, degraded.total_units - 1);
    assert_eq!(degraded.retried_attempts, 1);

    // Resuming without the fault re-attempts the quarantined unit and the
    // healed run is indistinguishable from a clean one.
    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let healed = run_sweep(&job, &opts).expect("healed run");
    assert_eq!(healed.status, SweepStatus::Complete);
    assert!(healed.quarantined.is_empty());
    assert_eq!(profile(&healed.suites.expect("suites mode")), clean_profile);
}

#[test]
fn a_stalled_unit_trips_its_deadline_and_is_quarantined() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let dir = Scratch::new("stall");
    let mut opts = SweepOptions::new(dir.path());
    opts.fail_plan = Some(FailPlan {
        kind: FailKind::Stall,
        after_units: 1,
    });
    opts.unit_deadline = Some(Duration::from_millis(30));
    opts.retries = 1;
    opts.backoff = Duration::from_millis(1);
    let outcome = run_sweep(&job, &opts).expect("stalled run");
    assert_eq!(outcome.status, SweepStatus::Partial);
    assert_eq!(outcome.quarantined.len(), 1);
    assert!(
        outcome.quarantined[0].reason.contains("deadline"),
        "reason was: {}",
        outcome.quarantined[0].reason
    );
}

#[test]
fn sharded_runs_merge_into_the_unsharded_result() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let clean_dir = Scratch::new("shard-clean");
    let clean = run_sweep(&job, &SweepOptions::new(clean_dir.path())).expect("clean run");
    let clean_profile = profile(&clean.suites.expect("suites mode"));

    let dir0 = Scratch::new("shard-0");
    let dir1 = Scratch::new("shard-1");
    let mut shard_outcomes = Vec::new();
    for (i, dir) in [&dir0, &dir1].into_iter().enumerate() {
        let mut opts = SweepOptions::new(dir.path());
        opts.shard = Some((i as u32, 2));
        // Two workers, so an idle one can split a unit mid-run inside the
        // shard.
        opts.threads = Some(2);
        let outcome = run_sweep(&job, &opts).expect("shard run");
        assert_eq!(outcome.status, SweepStatus::Complete);
        assert!(
            outcome.suites.is_none(),
            "a strict shard must not assemble suites on its own"
        );
        shard_outcomes.push(outcome);
    }
    // The shards partition the space: unit totals add up and neither is
    // empty (an id distribution skewed to one shard would mask bugs).
    assert!(shard_outcomes.iter().all(|o| o.total_units > 0));
    assert_eq!(
        shard_outcomes.iter().map(|o| o.total_units).sum::<usize>(),
        clean.total_units
    );
    // Per-shard totals are exact: every representative is counted by
    // exactly one shard, however its units were split.
    assert_eq!(
        shard_outcomes.iter().map(|o| o.visited).sum::<u64>(),
        clean.visited
    );
    assert_eq!(
        shard_outcomes
            .iter()
            .map(|o| o.weighted_visited)
            .sum::<u64>(),
        clean.weighted_visited
    );

    let merged = merge_sharded(&job, &[dir0.path(), dir1.path()]).expect("merge");
    assert_eq!(merged.status, SweepStatus::Complete);
    assert_eq!(merged.visited, clean.visited);
    assert_eq!(profile(&merged.suites.expect("suites mode")), clean_profile);
}

#[test]
fn resume_refuses_a_foreign_journal_and_unflagged_overwrites() {
    let config = trimmed_config();
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let job = suites_job(&tm, &base, &config);

    let dir = Scratch::new("refuse");
    run_sweep(&job, &SweepOptions::new(dir.path())).expect("first run");

    // Same directory, no --resume: refused, nothing clobbered.
    let err = run_sweep(&job, &SweepOptions::new(dir.path())).expect_err("must refuse");
    assert!(err.to_string().contains("--resume"), "got: {err}");

    // Same directory, --resume, but a different job: refused.
    let other_config = SynthConfig {
        max_locs: 3,
        ..trimmed_config()
    };
    let other_job = suites_job(&tm, &base, &other_config);
    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let err = run_sweep(&other_job, &opts).expect_err("must refuse foreign journal");
    assert!(err.to_string().contains("different sweep"), "got: {err}");

    // Same job but symmetry-reduced: its unit counters mean something
    // different, so the full-mode journal must be foreign to it.
    let reduced_job = SweepJob {
        symmetry: Symmetry::Reduced,
        ..suites_job(&tm, &base, &config)
    };
    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let err = run_sweep(&reduced_job, &opts).expect_err("must refuse cross-symmetry resume");
    assert!(err.to_string().contains("different sweep"), "got: {err}");
}

/// A symmetry-reduced sweep visits fewer executions but must bank the same
/// suites, survive an interruption, and account for the full space through
/// its orbit weights.
#[test]
fn symmetry_reduced_sweep_resumes_and_matches_the_full_suites() {
    // Three threads: the 2-thread space's partitions ([3], [2, 1]) are all
    // asymmetric, so only here does reduction actually skip executions.
    let config = SynthConfig {
        max_threads: 3,
        ..trimmed_config()
    };
    let (tm, base) = (ScModel::tsc(), ScModel::sc());
    let full_job = suites_job(&tm, &base, &config);
    let reduced_job = SweepJob {
        symmetry: Symmetry::Reduced,
        ..suites_job(&tm, &base, &config)
    };

    let full_dir = Scratch::new("sym-full");
    let full = run_sweep(&full_job, &SweepOptions::new(full_dir.path())).expect("full run");
    let full_report = full.suites.expect("suites mode");

    let dir = Scratch::new("sym-reduced");
    let mut opts = SweepOptions::new(dir.path());
    opts.budget = Some(Duration::ZERO);
    let stopped = run_sweep(&reduced_job, &opts).expect("budget run");
    assert_eq!(stopped.status, SweepStatus::BudgetExhausted);
    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let reduced = run_sweep(&reduced_job, &opts).expect("resumed reduced run");
    assert_eq!(reduced.status, SweepStatus::Complete);
    let reduced_report = reduced.suites.expect("suites mode");

    // Fewer representatives, same orbit-weighted total, identical suites.
    assert!(reduced.visited < full.visited);
    assert_eq!(reduced.weighted_visited, full.visited);
    let (forbid, allow, histogram, _) = profile(&full_report);
    let (r_forbid, r_allow, r_histogram, _) = profile(&reduced_report);
    assert_eq!(forbid, r_forbid);
    assert_eq!(allow, r_allow);
    assert_eq!(histogram, r_histogram);
}

#[test]
fn counts_mode_checkpoints_and_resumes_too() {
    let config = trimmed_config();
    let model = ScModel::tsc();
    let job = SweepJob {
        model: &model,
        baseline: None,
        reference: Some(&model),
        mode: SweepMode::Counts,
        config: &config,
        events: 3,
        symmetry: Symmetry::Full,
    };

    let clean_dir = Scratch::new("counts-clean");
    let clean = run_sweep(&job, &SweepOptions::new(clean_dir.path())).expect("clean counts");
    assert_eq!(clean.status, SweepStatus::Complete);
    assert!(clean.visited > 0);
    assert_eq!(clean.drift, 0, "a model cannot drift from itself");

    let dir = Scratch::new("counts");
    let mut opts = SweepOptions::new(dir.path());
    opts.budget = Some(Duration::ZERO);
    let stopped = run_sweep(&job, &opts).expect("budget counts");
    assert_eq!(stopped.status, SweepStatus::BudgetExhausted);
    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let resumed = run_sweep(&job, &opts).expect("resumed counts");
    assert_eq!(resumed.status, SweepStatus::Complete);
    assert_eq!(resumed.visited, clean.visited);
    assert_eq!(resumed.consistent, clean.consistent);
}

/// The paper pin: the x86 TM model's |E|=3 Forbid suite has exactly the 4
/// tests of Table 1, and the checkpointed runner reproduces that — with a
/// crash in the middle.
#[test]
fn x86_three_event_forbid_count_survives_a_crash_and_resume() {
    let config = SynthConfig::x86(3);
    let (tm, base) = (X86Model::tm(), X86Model::baseline());
    let job = suites_job(&tm, &base, &config);

    let dir = Scratch::new("x86-pin");
    let mut opts = SweepOptions::new(dir.path());
    // A deterministic mid-run interruption: quarantine-free, the run just
    // stops early.
    opts.budget = Some(Duration::from_millis(40));
    let stopped = run_sweep(&job, &opts).expect("interrupted x86 run");
    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let resumed = run_sweep(&job, &opts).expect("resumed x86 run");
    assert_eq!(resumed.status, SweepStatus::Complete);
    assert!(
        resumed.reused_units == stopped.completed_units,
        "every banked unit must be reused"
    );
    let report = resumed.suites.expect("suites mode");
    assert_eq!(report.forbid.len(), 4, "Table 1: x86 |E|=3 Forbid = 4");
    assert_eq!(report.forbid_txn_histogram(), vec![0, 4, 0, 0]);
}

fn counts_job<'a>(model: &'a dyn MemoryModel, config: &'a SynthConfig) -> SweepJob<'a> {
    SweepJob {
        model,
        baseline: None,
        reference: None,
        mode: SweepMode::Counts,
        config,
        events: config.max_events,
        symmetry: Symmetry::Full,
    }
}

/// `models/x86_tm.cat` and the x86-trimmed space its counts sweep covers.
fn x86_tm_cat() -> (String, SynthConfig) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models/x86_tm.cat");
    let text = std::fs::read_to_string(&path).expect("models/x86_tm.cat is readable");
    let config = SynthConfig {
        rmws: false,
        max_threads: 2,
        max_locs: 2,
        max_txns: 1,
        ..SynthConfig::x86(4)
    };
    (text, config)
}

/// A checkpointed counts sweep of `models/x86_tm.cat` is bound to the
/// model's content: resuming it with an edited copy that dropped two
/// axioms but kept the name `"x86+TM"` is refused (it would mix the counts
/// of two models), while a copy that only renames its `let`s, reflows the
/// text and adds comments resumes to the clean run's counts.
#[test]
fn resume_is_bound_to_model_content_not_name() {
    let (text, config) = x86_tm_cat();
    let load = |text: &str| load_str("x86_tm.cat", text).expect("model loads");
    let original = load(&text);
    let weakened_text: String = text
        .lines()
        .filter(|l| !l.ends_with("as StrongIsol") && !l.ends_with("as TxnOrder"))
        .map(|l| format!("{l}\n"))
        .collect();
    let weakened = load(&weakened_text);
    let cosmetic_text = text
        .replace("x0", "locked")
        .replace("x1", "ordered")
        .replace(" | ", "\n      | ")
        .replace("acyclic ", "(* reflowed *)\nacyclic\n  ");
    let cosmetic = load(&cosmetic_text);
    assert_eq!(weakened.name(), original.name());
    assert_eq!(weakened.axioms().len() + 2, original.axioms().len());
    assert_eq!(cosmetic.name(), original.name());
    assert!(!cosmetic_text.contains("x1") && cosmetic_text.contains("ordered"));
    assert_eq!(cosmetic.content_hash(), original.content_hash());
    assert_ne!(weakened.content_hash(), original.content_hash());

    let clean_dir = Scratch::new("content-clean");
    let clean = run_sweep(
        &counts_job(&original, &config),
        &SweepOptions::new(clean_dir.path()),
    )
    .expect("clean counts");
    let other_dir = Scratch::new("content-weakened");
    let other = run_sweep(
        &counts_job(&weakened, &config),
        &SweepOptions::new(other_dir.path()),
    )
    .expect("weakened counts");
    assert_ne!(
        other.consistent, clean.consistent,
        "the two models must count differently, or the refusal proves nothing"
    );

    // Bank all but one unit of the original model.
    let dir = Scratch::new("content");
    let mut opts = SweepOptions::new(dir.path());
    opts.fail_plan = Some(FailPlan {
        kind: FailKind::Panic,
        after_units: 3,
    });
    opts.retries = 0;
    let partial = run_sweep(&counts_job(&original, &config), &opts).expect("partial counts");
    assert_eq!(partial.status, SweepStatus::Partial);

    let mut opts = SweepOptions::new(dir.path());
    opts.resume = true;
    let err = run_sweep(&counts_job(&weakened, &config), &opts)
        .expect_err("an edited model under the same name must be refused");
    assert!(err.to_string().contains("different sweep"), "got: {err}");

    let resumed = run_sweep(&counts_job(&cosmetic, &config), &opts).expect("cosmetic resume");
    assert_eq!(resumed.status, SweepStatus::Complete);
    assert!(resumed.reused_units > 0);
    assert_eq!(
        (resumed.visited, resumed.consistent),
        (clean.visited, clean.consistent)
    );
}
