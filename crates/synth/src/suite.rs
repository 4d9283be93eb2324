//! Synthesis of Forbid and Allow conformance suites (§4.2, Table 1).
//!
//! The [`synthesise_suites`] pipeline is **delta-driven**: the enumerator
//! mutates one execution per worker in place, each worker's stateful
//! checker pair absorbs the edge deltas, and the ⊏-minimality walk probes
//! each weakening as a removal delta bracketed by checker
//! savepoint/rollback — no per-candidate views, no cloned weakenings on the
//! hot path. Two wrinkles the port had to handle:
//!
//! * the transaction-free early-out must still *thread the delta* (advance
//!   the checkers) before skipping, or their cached state would drift from
//!   the in-place execution;
//! * the minimality walk probes from the candidate's live state, so every
//!   probe is bracketed by `savepoint`/`rollback` on the checker and
//!   apply/undo on a reusable probe buffer (event removals, which change
//!   the universe, are probed as full-delta resets under the same
//!   savepoint).
//!
//! [`ForbidFilter`] is that predicate, written once for
//! [`synthesise_suites_with`] and the checkpointed sweep runner
//! (`tm-sweep`). A model without an incremental checker is driven through
//! [`delta_checker`]'s from-scratch adapter on the same path.
//!
//! The pre-incremental pipeline is kept as
//! [`synthesise_suites_per_execution`] — the parity oracle and the "before"
//! the benchmark harness measures.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tm_exec::ir::Delta;
use tm_exec::{check_well_formed, ExecView, Execution};
use tm_litmus::{from_execution, Expectation, LitmusTest};
use tm_models::{delta_checker, CheckerTelemetry, DeltaChecker, MemoryModel};

use crate::weaken::{probe_edit_script, weakening_edits, Weakening};
use crate::{
    canonical_signature, enumerate, enumerate_exact_reference, weakenings,
    weakenings_with_signatures, CanonSig, Symmetry, SynthConfig,
};

/// One synthesised conformance test.
#[derive(Clone, Debug)]
pub struct SynthesisedTest {
    /// The witnessing execution.
    pub execution: Execution,
    /// The litmus test derived from it (§2.2, §3.2).
    pub litmus: LitmusTest,
    /// How long after the start of synthesis this test was found — the raw
    /// data behind Fig. 7.
    pub found_after: Duration,
}

/// The result of synthesising the Forbid and Allow suites for one model at
/// one event-count bound: the row format of Table 1.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Name of the transactional model under study.
    pub model: String,
    /// The exact number of events enumerated.
    pub event_count: usize,
    /// How many candidate executions were visited.
    pub enumerated: usize,
    /// How many candidate executions the sweep *covered*, counting each
    /// visited representative with its isomorphism-orbit size. Equal to
    /// `enumerated` under [`Symmetry::Full`]; under [`Symmetry::Reduced`]
    /// this matches the full-mode `enumerated` while the reduced
    /// `enumerated` counts only canonical representatives.
    pub effective: u64,
    /// Minimally-forbidden tests: inconsistent under the TM model, consistent
    /// under the baseline, and every ⊏-weakening consistent under the TM
    /// model.
    pub forbid: Vec<SynthesisedTest>,
    /// Maximally-allowed tests: one ⊏-step weakenings of Forbid tests that
    /// the TM model accepts.
    pub allow: Vec<SynthesisedTest>,
    /// Total wall-clock synthesis time.
    pub elapsed: Duration,
}

impl SuiteReport {
    /// The number of transactions in each Forbid test, as a histogram keyed
    /// by transaction count (index 0 = no transaction). Used to reproduce
    /// the "29% had one transaction, 44% had two, …" breakdown of §5.3.
    pub fn forbid_txn_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; 4];
        for t in &self.forbid {
            let k = t.execution.txn_classes().len().min(3);
            hist[k] += 1;
        }
        hist
    }
}

/// A worker-local accumulator of Forbid candidates: findings collect in an
/// unlocked local vector and merge into the shared vector exactly once,
/// when the worker's sink is dropped at the end of the sweep — the shared
/// mutex is touched once per worker, not once per candidate.
struct WorkerFinds<'a> {
    local: Vec<(CanonSig, Execution, Duration)>,
    out: &'a Mutex<Vec<(CanonSig, Execution, Duration)>>,
}

impl<'a> WorkerFinds<'a> {
    fn new(out: &'a Mutex<Vec<(CanonSig, Execution, Duration)>>) -> WorkerFinds<'a> {
        WorkerFinds {
            local: Vec::new(),
            out,
        }
    }
}

impl Drop for WorkerFinds<'_> {
    fn drop(&mut self) {
        self.out.lock().unwrap().append(&mut self.local);
    }
}

/// The ⊏-minimality check, probed incrementally: every weakening of `exec`
/// must be consistent under the model `checker` fronts. Same-universe
/// weakenings are applied to a reusable probe buffer and undone; every
/// probe is bracketed by checker savepoint/rollback, so the checker's live
/// state (which describes `exec`) survives untouched.
fn minimal_under_weakenings(
    checker: &mut dyn DeltaChecker,
    exec: &Execution,
    probe_buf: &mut Option<Execution>,
) -> bool {
    let probe = match probe_buf {
        Some(probe) => {
            probe.clone_from(exec);
            probe
        }
        None => probe_buf.insert(exec.clone()),
    };
    for weakening in weakening_edits(exec) {
        let consistent = match weakening {
            // An event removal changes the universe: probe it as a full
            // reset, still under the savepoint.
            Weakening::Rebuild(weaker) => {
                checker.savepoint();
                checker.advance(&weaker, &Delta::everything());
                let ok = checker.is_consistent(&weaker);
                checker.rollback();
                ok
            }
            // Ill-formed results are not candidate executions and do not
            // bear on minimality.
            Weakening::Edits(edits) => {
                probe_edit_script(checker, probe, &edits, |weaker| {
                    check_well_formed(weaker).is_ok()
                }) != Some(false)
            }
        };
        if !consistent {
            return false;
        }
    }
    true
}

/// The Forbid predicate over a pair of stateful checkers, written once for
/// [`synthesise_suites_with`] and the checkpointed sweep runner
/// (`tm-sweep`): one implementation is what makes an interrupted-and-resumed
/// sweep provably identical to [`synthesise_suites`].
///
/// Feed it every candidate of a walk, in order, with the walker's deltas
/// (one filter per worker or per unit: a full delta opens every shape
/// vector). Each model is driven through [`delta_checker`], so a model
/// without an incremental checker is answered from scratch on the same
/// path.
pub struct ForbidFilter<'m> {
    tm: Box<dyn DeltaChecker + 'm>,
    baseline: Box<dyn DeltaChecker + 'm>,
    seen: HashSet<CanonSig>,
    probe_buf: Option<Execution>,
}

impl<'m> ForbidFilter<'m> {
    /// A filter for Forbid tests of `tm_model` against `baseline`.
    pub fn new(tm_model: &'m dyn MemoryModel, baseline: &'m dyn MemoryModel) -> ForbidFilter<'m> {
        ForbidFilter {
            tm: delta_checker(tm_model),
            baseline: delta_checker(baseline),
            seen: HashSet::new(),
            probe_buf: None,
        }
    }

    /// Advances both checkers by `delta`, then returns the canonical
    /// signature of `exec` if it is a Forbid candidate: it has a
    /// transaction, the TM model forbids it, the baseline allows it, this
    /// filter has not tested its signature before, and every ⊏-weakening
    /// is TM-consistent.
    pub fn test(&mut self, exec: &Execution, delta: &Delta) -> Option<CanonSig> {
        // Thread the delta *before* any early-out: a skipped candidate
        // still moved the in-place execution, and the checkers' cached
        // state must follow it.
        self.tm.advance(exec, delta);
        self.baseline.advance(exec, delta);
        // Forbid tests distinguish the TM model from its baseline, so an
        // execution with no transaction can never qualify (no stxn pair ⇔
        // no transaction class — allocation-free, unlike materialising the
        // classes).
        if exec.stxn.is_empty() || self.tm.is_consistent(exec) || !self.baseline.is_consistent(exec)
        {
            return None;
        }
        let sig = canonical_signature(exec);
        if !self.seen.insert(sig.clone()) {
            return None;
        }
        minimal_under_weakenings(self.tm.as_mut(), exec, &mut self.probe_buf).then_some(sig)
    }

    /// Both checkers' telemetry, merged; `None` when neither keeps any.
    pub fn telemetry(&self) -> Option<CheckerTelemetry> {
        match (self.tm.telemetry(), self.baseline.telemetry()) {
            (Some(mut a), Some(b)) => {
                a.merge(b);
                Some(a)
            }
            (one, other) => one.or(other),
        }
    }
}

/// Synthesises the Forbid and Allow suites for `tm_model` against
/// `baseline`, enumerating executions with exactly `events` events.
///
/// Following §4.2 and §5.3:
///
/// * **Forbid** = executions forbidden by the transactional model, allowed
///   by the baseline, and minimal in the ⊏ order (every weakening is
///   consistent under the transactional model);
/// * **Allow** = the one-step weakenings of Forbid tests that the
///   transactional model accepts (the approximation of maximal consistency
///   used by the paper).
///
/// Tests are deduplicated up to thread and location renaming.
///
/// The sweep runs on the in-place walker with stateful checkers and
/// savepoint-probed minimality walks. The result is identical to
/// [`synthesise_suites_per_execution`], pinned by `tests/suite_parity.rs`.
pub fn synthesise_suites(
    tm_model: &dyn MemoryModel,
    baseline: &dyn MemoryModel,
    config: &SynthConfig,
    events: usize,
) -> SuiteReport {
    synthesise_suites_with(tm_model, baseline, config, events, Symmetry::Full)
}

/// [`synthesise_suites`] with an explicit [`Symmetry`] mode.
///
/// Under [`Symmetry::Reduced`] the sweep visits exactly one canonical
/// representative per thread/location-renaming class. Because every test
/// property involved — TM inconsistency, baseline consistency and
/// ⊏-minimality — is invariant under renaming, and the suites are
/// deduplicated by canonical signature regardless of mode, the resulting
/// Forbid and Allow suites are **identical** to the full sweep's
/// (`tests/symmetry_parity.rs` pins this), so the sinks ignore the orbit
/// size; only `enumerated` shrinks to the representative count, with
/// `effective` preserving the full-space total.
pub fn synthesise_suites_with(
    tm_model: &dyn MemoryModel,
    baseline: &dyn MemoryModel,
    config: &SynthConfig,
    events: usize,
    symmetry: Symmetry,
) -> SuiteReport {
    let start = Instant::now();
    // Candidates found by the parallel workers; sorted and deduplicated
    // afterwards so the report is deterministic regardless of worker
    // interleaving.
    let found: Mutex<Vec<(CanonSig, Execution, Duration)>> = Mutex::new(Vec::new());

    let make_sink = || {
        let mut filter = ForbidFilter::new(tm_model, baseline);
        let mut finds = WorkerFinds::new(&found);
        move |exec: &Execution, delta: &Delta, _orbit: u64| {
            if let Some(sig) = filter.test(exec, delta) {
                finds.local.push((sig, exec.clone(), start.elapsed()));
            }
        }
    };
    let tally = enumerate(config, events, symmetry, make_sink, || false);

    assemble_suites(
        tm_model,
        events,
        tally.representatives,
        tally.weighted,
        found.into_inner().unwrap(),
        start,
    )
}

/// The pre-incremental suite pipeline: per-execution views and cloned
/// weakenings for the minimality walk. It walks the builder-based
/// [`enumerate_exact_reference`] on the calling thread, so it shares neither
/// the in-place walker nor the worker pool with the pipelines it checks. It
/// is the oracle `tests/suite_parity.rs` pins [`synthesise_suites`] against
/// and the "before" configuration the benchmark harness measures.
pub fn synthesise_suites_per_execution(
    tm_model: &dyn MemoryModel,
    baseline: &dyn MemoryModel,
    config: &SynthConfig,
    events: usize,
) -> SuiteReport {
    let start = Instant::now();
    let mut found: Vec<(CanonSig, Execution, Duration)> = Vec::new();
    let mut seen: HashSet<CanonSig> = HashSet::new();

    let enumerated = enumerate_exact_reference(config, events, |exec| {
        if exec.txn_classes().is_empty() {
            return;
        }
        // One memoized view serves both model checks.
        let view = ExecView::new(exec);
        if tm_model.is_consistent_view(&view) || !baseline.is_consistent_view(&view) {
            return;
        }
        // Minimality: every ⊏-weaker execution is consistent under the TM
        // model.
        if !weakenings(exec).iter().all(|w| tm_model.is_consistent(w)) {
            return;
        }
        let sig = canonical_signature(exec);
        if seen.insert(sig.clone()) {
            found.push((sig, exec.clone(), start.elapsed()));
        }
    });

    assemble_suites(
        tm_model,
        events,
        enumerated,
        enumerated as u64,
        found,
        start,
    )
}

/// Sorts, deduplicates and packages the Forbid candidates (triples of
/// canonical signature, execution and time-to-find), then derives the Allow
/// suite — shared by every synthesis pipeline, including the checkpointed
/// sweep runner, which feeds it candidates merged from journalled work
/// units. Candidates are sorted by `(signature, found_after)` and
/// deduplicated by signature, so the suites depend only on the candidate
/// *set* handed in, not on worker interleaving.
pub fn assemble_suites(
    tm_model: &dyn MemoryModel,
    events: usize,
    enumerated: usize,
    effective: u64,
    mut candidates: Vec<(CanonSig, Execution, Duration)>,
    start: Instant,
) -> SuiteReport {
    // Workers deduplicate locally; two workers can still find the same
    // canonical test, so deduplicate globally here (keeping the earliest
    // find, which also fixes the report order).
    candidates.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));
    candidates.dedup_by(|a, b| a.0 == b.0);
    let forbid: Vec<SynthesisedTest> = candidates
        .into_iter()
        .enumerate()
        .map(|(index, (_, execution, found_after))| {
            let mut litmus = from_execution(
                &execution,
                &format!("forbid-{}-{events}ev-{index}", tm_model.name()),
            );
            litmus.expectation = Some(Expectation::Forbidden);
            SynthesisedTest {
                execution,
                litmus,
                found_after,
            }
        })
        .collect();

    // Allow suite: weakenings of Forbid tests that the model accepts.
    // `weakenings` already returns each candidate once (deduplicated by
    // canonical signature), so no per-test re-filtering happens here; two
    // *distinct* Forbid tests can still share a weakening, so the suites are
    // merged across tests by signature, which also fixes the report order.
    let mut allow_by_sig: BTreeMap<CanonSig, (Execution, Duration)> = BTreeMap::new();
    for test in &forbid {
        for (sig, weaker) in weakenings_with_signatures(&test.execution) {
            if tm_model.is_consistent(&weaker) {
                allow_by_sig
                    .entry(sig)
                    .or_insert_with(|| (weaker, start.elapsed()));
            }
        }
    }
    let allow: Vec<SynthesisedTest> = allow_by_sig
        .into_values()
        .enumerate()
        .map(|(index, (weaker, found_after))| {
            let mut litmus = from_execution(
                &weaker,
                &format!("allow-{}-{events}ev-{index}", tm_model.name()),
            );
            litmus.expectation = Some(Expectation::Allowed);
            SynthesisedTest {
                execution: weaker,
                litmus,
                found_after,
            }
        })
        .collect();

    SuiteReport {
        model: tm_model.name().to_string(),
        event_count: events,
        enumerated,
        effective,
        forbid,
        allow,
        elapsed: start.elapsed(),
    }
}

/// Searches for a single execution that is inconsistent under `stronger` but
/// consistent under `weaker` — Memalloy's core "compare two models" query.
/// Sizes from 2 to `config.max_events` are tried in order; a witness of the
/// smallest separating size is returned (which witness of that size is
/// run-dependent, since the enumeration workers race to it).
///
/// The first witness found **stops the sweep**: the enumeration polls a
/// cooperative stop hook between work units and shape vectors, so workers
/// halt instead of enumerating the rest of the space with a dead sink.
/// Candidates are checked through one [`delta_checker`] per model and
/// worker on the in-place walker.
pub fn find_distinguishing(
    stronger: &dyn MemoryModel,
    weaker: &dyn MemoryModel,
    config: &SynthConfig,
) -> Option<Execution> {
    for n in 2..=config.max_events {
        let done = AtomicBool::new(false);
        let found: Mutex<Option<Execution>> = Mutex::new(None);
        let stop = || done.load(Ordering::Relaxed);
        let report = |exec: &Execution| {
            done.store(true, Ordering::Relaxed);
            found.lock().unwrap().get_or_insert_with(|| exec.clone());
        };
        let make_sink = || {
            let mut strong_checker = delta_checker(stronger);
            let mut weak_checker = delta_checker(weaker);
            move |exec: &Execution, delta: &Delta, _: u64| {
                // Keep the cached state coherent even while the sweep drains
                // after a witness was found.
                strong_checker.advance(exec, delta);
                weak_checker.advance(exec, delta);
                if !stop()
                    && !strong_checker.is_consistent(exec)
                    && weak_checker.is_consistent(exec)
                {
                    report(exec);
                }
            }
        };
        enumerate(config, n, Symmetry::Full, make_sink, stop);
        let found = found.into_inner().unwrap();
        if found.is_some() {
            return found;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_models::{Armv8Model, PowerModel, ScModel, X86Model};

    #[test]
    fn tsc_versus_sc_finds_the_isolation_tests_at_three_events() {
        let cfg = SynthConfig {
            dependencies: false,
            rmws: false,
            fences: vec![],
            ..SynthConfig::x86(3)
        };
        let report = synthesise_suites(&ScModel::tsc(), &ScModel::sc(), &cfg, 3);
        // The Fig. 3 shapes (strong-isolation violations) are among the
        // minimally-forbidden TSC tests.
        assert!(!report.forbid.is_empty());
        assert!(report.enumerated > 0);
        for t in &report.forbid {
            assert!(!ScModel::tsc().is_consistent(&t.execution));
            assert!(ScModel::sc().is_consistent(&t.execution));
            assert_eq!(t.litmus.expectation, Some(Expectation::Forbidden));
        }
        // Every forbid test contains at least one transaction.
        assert_eq!(report.forbid_txn_histogram()[0], 0);
    }

    #[test]
    fn x86_two_event_suites_are_tiny() {
        let cfg = SynthConfig::x86(2);
        let report = synthesise_suites(&X86Model::tm(), &X86Model::baseline(), &cfg, 2);
        // With two events there is very little a transaction can forbid that
        // the baseline allows (the paper found 4 such tests at |E|=3 and 0
        // at |E|=2 for x86).
        assert!(report.forbid.len() <= 2, "got {}", report.forbid.len());
        for t in &report.allow {
            assert!(X86Model::tm().is_consistent(&t.execution));
        }
    }

    #[test]
    fn forbid_tests_are_minimal() {
        let cfg = SynthConfig::x86(3);
        let report = synthesise_suites(&X86Model::tm(), &X86Model::baseline(), &cfg, 3);
        for t in &report.forbid {
            for w in weakenings(&t.execution) {
                assert!(
                    X86Model::tm().is_consistent(&w),
                    "a weakening of a Forbid test must be consistent"
                );
            }
        }
    }

    #[test]
    fn allow_tests_are_weakenings_that_pass() {
        let cfg = SynthConfig::x86(3);
        let report = synthesise_suites(&X86Model::tm(), &X86Model::baseline(), &cfg, 3);
        assert!(report.allow.len() >= report.forbid.len());
        for t in &report.allow {
            assert_eq!(t.litmus.expectation, Some(Expectation::Allowed));
        }
    }

    #[test]
    fn distinguishing_search_separates_known_model_pairs() {
        let cfg = SynthConfig {
            transactions: false,
            rmws: false,
            fences: vec![],
            dependencies: false,
            ..SynthConfig::x86(4)
        };
        // SC is stronger than x86: store buffering distinguishes them.
        let witness = find_distinguishing(&ScModel::sc(), &X86Model::baseline(), &cfg)
            .expect("SC and x86 differ");
        assert!(!ScModel::sc().is_consistent(&witness));
        assert!(X86Model::baseline().is_consistent(&witness));

        // ARMv8 is weaker than x86 on po relaxations: the reverse direction
        // also finds a witness (x86 forbids something ARMv8 allows).
        let witness = find_distinguishing(&X86Model::baseline(), &Armv8Model::baseline(), &cfg)
            .expect("x86 and ARMv8 differ");
        assert!(Armv8Model::baseline().is_consistent(&witness));
    }

    #[test]
    fn power_tm_forbid_tests_exist_at_four_events_with_rmws() {
        // The §8.1 TxnCancelsRMW shape appears as a tiny Forbid test.
        let cfg = SynthConfig::power(2);
        let report = synthesise_suites(&PowerModel::tm(), &PowerModel::baseline(), &cfg, 2);
        assert!(
            report
                .forbid
                .iter()
                .any(|t| !t.execution.rmw.is_empty() && !t.execution.txn_classes().is_empty()),
            "expected an RMW-straddling-transaction Forbid test"
        );
    }
}
