//! Exactness of symmetry-reduced enumeration against the full sweep.
//!
//! The reduced walk ([`enumerate`] under [`Symmetry::Reduced`]) must visit **exactly one
//! representative per isomorphism class** under thread renaming (within the
//! sorted-partition discipline) and location renaming, and report each
//! representative's in-space orbit size. These tests pin that contract by
//! brute force: the full reference enumeration
//! ([`enumerate_exact_reference`]) is grouped by canonical signature, and
//! the reduced run must produce one execution per group whose orbit equals
//! the group's cardinality — so representatives ×
//! orbits re-covers the full space with no class missed, duplicated, or
//! miscounted. Suite synthesis is pinned the same way: Forbid/Allow suites
//! are invariant under renaming, so `--symmetry on` and `off` must build
//! byte-identical suites while the reduced sweep visits fewer executions.

use std::collections::HashMap;
use std::sync::Mutex;

use tm_weak_memory::exec::ir::Delta;
use tm_weak_memory::exec::Execution;
use tm_weak_memory::models::Target;
use tm_weak_memory::synth::{
    canonical_signature, enumerate, enumerate_exact_reference, synthesise_suites_with, CanonSig,
    SuiteReport, Symmetry, SynthConfig,
};

/// Full-space class census: canonical signature → number of enumerated
/// executions in that class, taken from the builder-based reference
/// enumerator so the reduced walk is not checked against itself.
fn full_census(config: &SynthConfig, n: usize) -> (usize, HashMap<CanonSig, u64>) {
    let mut census = HashMap::new();
    let total = enumerate_exact_reference(config, n, |exec| {
        *census.entry(canonical_signature(exec)).or_insert(0u64) += 1;
    });
    (total, census)
}

fn assert_reduction_is_exact(config: &SynthConfig, n: usize) {
    let (total, census) = full_census(config, n);
    assert!(total > 0, "empty space, the pin would be vacuous");

    let reps = Mutex::new(Vec::new());
    let make_sink = || {
        |exec: &Execution, _: &Delta, orbit: u64| {
            reps.lock()
                .unwrap()
                .push((canonical_signature(exec), orbit));
        }
    };
    let tally = enumerate(config, n, Symmetry::Reduced, make_sink, || false);
    let reps = reps.into_inner().unwrap();

    // One representative per class, each carrying its class's exact size.
    assert_eq!(
        reps.len(),
        census.len(),
        "|E| = {n}: representative count must equal the class count"
    );
    for (sig, orbit) in &reps {
        assert_eq!(
            census.get(sig),
            Some(orbit),
            "|E| = {n}: orbit of {sig} disagrees with the full-space census"
        );
    }
    // And the tallies account for the whole space.
    assert_eq!(tally.representatives, reps.len());
    assert_eq!(
        tally.weighted, total as u64,
        "|E| = {n}: orbit-weighted total must re-cover the full enumeration"
    );
}

#[test]
fn reduction_is_exact_on_the_trimmed_two_thread_space() {
    let cfg = SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        max_threads: 2,
        max_locs: 2,
        ..SynthConfig::x86(3)
    };
    for n in 2..=3 {
        assert_reduction_is_exact(&cfg, n);
    }
}

#[test]
fn reduction_is_exact_on_a_three_thread_space() {
    // Three threads of equal size are where the renaming group is
    // non-trivial; this is the space the |E| = 7 tables lean on.
    let cfg = SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        max_threads: 3,
        max_locs: 2,
        ..SynthConfig::x86(3)
    };
    assert_reduction_is_exact(&cfg, 3);
}

#[test]
fn reduction_is_exact_on_the_full_x86_space() {
    assert_reduction_is_exact(&SynthConfig::x86(3), 3);
}

#[test]
fn reduction_is_exact_on_the_power_space() {
    let mut cfg = SynthConfig::power(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.fences = vec![];
    assert_reduction_is_exact(&cfg, 3);
}

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

/// Pins `--symmetry on` and `off` to identical suites and exact orbit
/// accounting; returns `(reduced, full)` enumeration counts so callers can
/// assert strict reduction where the space actually has symmetric
/// partitions (a 2-thread odd-|E| space has none, so equality is correct
/// there).
fn assert_suites_invariant(target: Target, cfg: &SynthConfig, events: usize) -> (usize, usize) {
    let tm_model = target.model();
    let baseline = target.baseline().model();
    let full = synthesise_suites_with(&tm_model, &baseline, cfg, events, Symmetry::Full);
    let reduced = synthesise_suites_with(&tm_model, &baseline, cfg, events, Symmetry::Reduced);
    assert!(
        reduced.enumerated <= full.enumerated,
        "{target}: reduction visited more executions ({} vs {})",
        reduced.enumerated,
        full.enumerated
    );
    assert_eq!(
        reduced.effective, full.enumerated as u64,
        "{target}: orbit weights must cover the full space"
    );
    assert_eq!(
        signatures(&full),
        signatures(&reduced),
        "{target}: suites diverged between --symmetry off and on at |E| = {events}"
    );
    assert_eq!(
        full.forbid_txn_histogram(),
        reduced.forbid_txn_histogram(),
        "{target}: transaction histograms diverged"
    );
    (reduced.enumerated, full.enumerated)
}

#[test]
fn suites_are_identical_on_and_off_x86_trimmed() {
    let cfg = SynthConfig {
        dependencies: false,
        rmws: false,
        fences: vec![],
        max_threads: 2,
        max_locs: 2,
        ..SynthConfig::x86(4)
    };
    assert_suites_invariant(Target::X86Tm, &cfg, 3);
    // At four events the [2, 2] partition is symmetric, so the reduced
    // sweep must strictly undercut the full one.
    let (reduced, full) = assert_suites_invariant(Target::X86Tm, &cfg, 4);
    assert!(
        reduced < full,
        "reduction skipped nothing on a symmetric space ({reduced} vs {full})"
    );
}

#[test]
fn suites_are_identical_on_and_off_power() {
    let mut cfg = SynthConfig::power(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.fences = vec![];
    assert_suites_invariant(Target::PowerTm, &cfg, 3);
}

#[test]
fn suites_are_identical_on_and_off_cpp() {
    let mut cfg = SynthConfig::cpp(3);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    assert_suites_invariant(Target::CppTm, &cfg, 3);
}

/// The paper pin survives reduction: the x86+TM |E| = 3 Forbid suite still
/// has exactly the 4 tests of Table 1 when only representatives are
/// enumerated.
#[test]
fn x86_forbid_count_survives_reduction() {
    let target = Target::X86Tm;
    let report = synthesise_suites_with(
        &target.model(),
        &target.baseline().model(),
        &SynthConfig::x86(3),
        3,
        Symmetry::Reduced,
    );
    assert_eq!(report.forbid.len(), 4, "Table 1: x86 |E|=3 Forbid = 4");
    assert_eq!(report.forbid_txn_histogram()[1], 4);
}
