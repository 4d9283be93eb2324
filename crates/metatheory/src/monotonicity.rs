//! Monotonicity of transaction introduction, enlargement and coalescing
//! (§8.1 and the first block of Table 2).

use std::time::{Duration, Instant};

use tm_exec::ir::{txn_polarity, Delta, Polarity, RelBase};
use tm_exec::Execution;
use tm_models::{MemoryModel, Target};
use tm_synth::{apply_weakening_edits, probe_edit_script, SynthConfig, WeakeningEdit};

use crate::search::{delta_checker, Search};

/// The outcome of a bounded monotonicity check.
#[derive(Clone, Debug)]
pub struct MonotonicityResult {
    /// Name of the model checked.
    pub model: String,
    /// The event-count bound reached.
    pub max_events: usize,
    /// Number of (weaker, stronger) transaction pairs examined. The search
    /// stops at the first counterexample, so when one exists this counts
    /// the pairs examined up to the stop.
    pub pairs_checked: usize,
    /// A counterexample, if one exists within the bound: the first execution
    /// has *fewer* transaction edges and is inconsistent, the second has
    /// *more* and is consistent — so introducing/enlarging/coalescing the
    /// transaction resurrected a forbidden behaviour.
    ///
    /// Whether one exists is deterministic. *Which* one is reported (and
    /// `pairs_checked` with it) depends on the enumeration order and the
    /// number of enumeration workers.
    pub counterexample: Option<(Execution, Execution)>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl MonotonicityResult {
    /// True if no counterexample was found within the bound.
    pub fn holds(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// The verdict of the *syntactic* monotonicity analysis: the polarity of the
/// transactional structure (`stxn`, `stxnat`, `tfence`) in each axiom body
/// of a model's IR table.
///
/// Shrinking an execution's transactions shrinks every axiom body whose
/// polarity is positive (or constant), and a sub-relation of an acyclic /
/// irreflexive / empty relation stays acyclic / irreflexive / empty — so if
/// *every* axiom is positive-or-constant, §8.1 monotonicity holds by
/// construction, with no enumeration at all. A mixed polarity (e.g. anything
/// built from `tfence`, whose definition mentions `stxn` under both signs)
/// is inconclusive, never wrong: x86+TM is mixed yet monotone, while Power
/// and ARMv8 are mixed and genuinely non-monotone.
#[derive(Clone, Debug)]
pub struct SyntacticMonotonicity {
    /// Name of the analysed model.
    pub model: String,
    /// The transactional polarity of each axiom body, in declaration order.
    /// Names are owned so the analysis runs on runtime-loaded models (e.g.
    /// `.cat` files elaborated by `tm-cat`) as well as the built-in catalog.
    pub per_axiom: Vec<(String, Polarity)>,
}

impl SyntacticMonotonicity {
    /// True if every axiom body is constant or positive in the transactional
    /// structure, i.e. monotonicity is derived from axiom structure alone.
    pub fn conclusive(&self) -> bool {
        self.per_axiom
            .iter()
            .all(|(_, p)| matches!(p, Polarity::Constant | Polarity::Positive))
    }

    /// The axioms that block a syntactic conclusion (negative or mixed).
    pub fn blocking_axioms(&self) -> Vec<&str> {
        self.per_axiom
            .iter()
            .filter(|(_, p)| matches!(p, Polarity::Negative | Polarity::Mixed))
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

/// Derives §8.1 monotonicity (or fails to) from the *structure* of a
/// target's axiom table, by polarity analysis over the shared axiom IR.
///
/// Cross-check the inconclusive cases with the enumeration-based
/// [`check_monotonicity`]; the conclusive ones need no search.
pub fn syntactic_monotonicity(target: Target) -> SyntacticMonotonicity {
    let cat = tm_models::ir::catalog();
    syntactic_monotonicity_of(cat.model(target), cat.pool())
}

/// [`syntactic_monotonicity`] over an arbitrary axiom table and the pool its
/// bodies are interned in — the entry point for user-defined models, whether
/// built in Rust ([`tm_models::ir::IrModel`]) or loaded from `.cat` text.
/// Pass `model.table()` and `model.pool()`.
pub fn syntactic_monotonicity_of(
    table: &tm_models::ir::ModelAxioms,
    pool: &tm_exec::ir::IrPool,
) -> SyntacticMonotonicity {
    SyntacticMonotonicity {
        model: table.name().to_string(),
        per_axiom: table
            .axioms()
            .iter()
            .map(|axiom| (axiom.name.to_string(), txn_polarity(pool, axiom.body)))
            .collect(),
    }
}

/// Ways of *reducing* the transactions of an execution, as reversible edit
/// scripts against it: the inverses of introducing a transaction (drop a
/// whole class), enlarging one (drop its first or its last event) and
/// coalescing two (split a class at each internal program-order boundary).
///
/// Every script removes `stxn`/`stxnat` pairs only, so the reduced
/// execution stays well-formed. Apply one with
/// [`tm_synth::apply_weakening_edits`], or probe it from a checker's live
/// state with [`tm_synth::probe_edit_script`].
pub fn transaction_reduction_edits(exec: &Execution) -> Vec<Vec<WeakeningEdit>> {
    // The script removing every transaction pair `cut` selects.
    let unlink = |cut: &dyn Fn(usize, usize) -> bool| {
        let mut edits = Vec::new();
        for (rel, base) in [(&exec.stxn, RelBase::Stxn), (&exec.stxnat, RelBase::Stxnat)] {
            for (a, b) in rel.iter() {
                if cut(a, b) {
                    edits.push(WeakeningEdit::RemovePair(base, a, b));
                }
            }
        }
        edits
    };
    let mut out = Vec::new();
    for mut class in exec.txn_classes() {
        // Inverse of *introducing*: drop the whole transaction (its pairs
        // never leave the class).
        out.push(unlink(&|a, _| class.contains(&a)));
        if class.len() < 2 {
            continue;
        }
        class.sort_by_key(|&e| exec.po.predecessors(e).count());
        // Inverse of *enlarging*: drop the first or last event of the class.
        for end in [class[0], class[class.len() - 1]] {
            out.push(unlink(&|a, b| a == end || b == end));
        }
        // Inverse of *coalescing*: split the class in two at each internal
        // program-order boundary.
        for cut in 1..class.len() {
            let left = &class[..cut];
            out.push(unlink(&|a, b| left.contains(&a) != left.contains(&b)));
        }
    }
    out
}

/// The executions [`transaction_reduction_edits`] describes, materialised.
///
/// Monotonicity states that going the other way (from a returned execution
/// back to `exec`) can never turn an inconsistent execution consistent.
pub fn transaction_reductions(exec: &Execution) -> Vec<Execution> {
    transaction_reduction_edits(exec)
        .iter()
        .map(|edits| reduce(exec, edits))
        .collect()
}

fn reduce(exec: &Execution, edits: &[WeakeningEdit]) -> Execution {
    let mut reduced = exec.clone();
    apply_weakening_edits(&mut reduced, edits, &mut Delta::new());
    reduced
}

/// Checks monotonicity of `model` for every execution with up to
/// `max_events` events under `config`: no transaction reduction of a
/// consistent execution may be inconsistent.
///
/// Each worker drives one [`DeltaChecker`](tm_models::DeltaChecker) for
/// `model` along the delta-threading enumeration, and probes every
/// reduction of a consistent candidate under a checker savepoint, on one
/// reusable probe buffer.
pub fn check_monotonicity(
    model: &dyn MemoryModel,
    config: &SynthConfig,
    max_events: usize,
) -> MonotonicityResult {
    let start = Instant::now();
    let search = Search::new();
    search.run(config, max_events, || {
        let search = &search;
        let mut checker = delta_checker(model);
        let mut probe = Execution::with_events(Vec::new());
        move |exec: &Execution, delta: &Delta| {
            checker.advance(exec, delta);
            if search.stopped() || exec.stxn.is_empty() || !checker.is_consistent(exec) {
                return;
            }
            probe.clone_from(exec);
            for edits in transaction_reduction_edits(exec) {
                search.count();
                // Reductions stay well-formed, so every one is admitted.
                let consistent = probe_edit_script(checker.as_mut(), &mut probe, &edits, |_| true);
                if consistent == Some(false) {
                    search.report((reduce(exec, &edits), exec.clone()));
                    return;
                }
            }
        }
    });
    let (pairs_checked, counterexample) = search.finish();
    MonotonicityResult {
        model: model.name().to_string(),
        max_events,
        pairs_checked,
        counterexample,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::catalog;
    use tm_models::{Armv8Model, CppModel, PowerModel, X86Model};

    #[test]
    fn reductions_cover_drop_shrink_and_split() {
        let exec = catalog::monotonicity_cex_coalesced();
        let reductions = transaction_reductions(&exec);
        // Drop the whole class, shrink at both ends, split at the single
        // internal boundary.
        assert_eq!(reductions.len(), 4);
        assert!(reductions.iter().any(|r| r.txn_classes().is_empty()));
        assert!(reductions.iter().any(|r| r.txn_classes().len() == 2));
    }

    #[test]
    fn power_and_armv8_are_not_monotonic() {
        // Table 2: a 2-event counterexample (the RMW straddling a
        // transaction boundary) exists for Power and ARMv8.
        let cfg = SynthConfig::power(2);
        for model in [
            Box::new(PowerModel::tm()) as Box<dyn MemoryModel>,
            Box::new(Armv8Model::tm()),
        ] {
            let result = check_monotonicity(model.as_ref(), &cfg, 2);
            assert!(
                !result.holds(),
                "{} should have a counterexample",
                result.model
            );
            let (weaker, stronger) = result.counterexample.as_ref().unwrap();
            assert!(!model.is_consistent(weaker));
            assert!(model.is_consistent(stronger));
            assert_eq!(weaker.events, stronger.events);
            assert!(!weaker.rmw.is_empty(), "the counterexample involves an RMW");
        }
    }

    /// A model with no incremental checker: the check falls back to a
    /// from-scratch adapter.
    struct ScratchOnly(Box<dyn MemoryModel>);

    impl MemoryModel for ScratchOnly {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn axioms(&self) -> Vec<&str> {
            self.0.axioms()
        }

        fn check_view(&self, view: &tm_exec::ExecView<'_>) -> tm_models::Verdict {
            self.0.check_view(view)
        }
    }

    #[test]
    fn models_without_an_incremental_checker_get_the_same_verdicts() {
        for (target, cfg, events) in [
            (Target::X86Tm, SynthConfig::x86(3), 3),
            (Target::PowerTm, SynthConfig::power(2), 2),
        ] {
            let scratch = ScratchOnly(target.model());
            assert!(scratch.incremental_checker().is_none());
            let slow = check_monotonicity(&scratch, &cfg, events);
            let fast = check_monotonicity(target.model().as_ref(), &cfg, events);
            assert_eq!(slow.holds(), fast.holds(), "{target}");
            if fast.holds() {
                assert_eq!(slow.pairs_checked, fast.pairs_checked, "{target}");
            }
        }
    }

    #[test]
    fn x86_is_monotonic_at_small_bounds() {
        // Table 2: no counterexample for x86 (checked to 6 events in the
        // paper; we check a smaller bound here and a larger one in the
        // benchmark harness).
        let cfg = SynthConfig::x86(3);
        let result = check_monotonicity(&X86Model::tm(), &cfg, 3);
        assert!(result.holds(), "{:?}", result.counterexample);
        assert!(result.pairs_checked > 0);
    }

    #[test]
    fn cpp_is_monotonic_at_small_bounds() {
        let mut cfg = SynthConfig::cpp(3);
        // Keep the space small: relaxed atomics and plain accesses only.
        cfg.read_annots.truncate(2);
        cfg.write_annots.truncate(2);
        let result = check_monotonicity(&CppModel::tm(), &cfg, 3);
        assert!(result.holds(), "{:?}", result.counterexample);
    }

    #[test]
    fn syntactic_analysis_is_conclusive_exactly_for_transaction_free_tables() {
        // Baseline models never mention the transactional structure, so
        // their monotonicity is derived from axiom structure alone.
        for target in [
            Target::Sc,
            Target::X86,
            Target::Power,
            Target::Armv8,
            Target::Cpp,
        ] {
            let syn = syntactic_monotonicity(target);
            assert!(syn.conclusive(), "{}: {:?}", syn.model, syn.per_axiom);
            assert!(syn.blocking_axioms().is_empty());
        }
        // Every transactional table goes through `tfence` or a lift, whose
        // polarity is mixed, so the syntactic criterion must stay silent —
        // in particular it must NOT claim monotonicity for Power/ARMv8,
        // which have real counterexamples (Table 2).
        for target in Target::TRANSACTIONAL {
            let syn = syntactic_monotonicity(target);
            assert!(!syn.conclusive(), "{}: {:?}", syn.model, syn.per_axiom);
            assert!(!syn.blocking_axioms().is_empty());
        }
    }

    #[test]
    fn syntactic_verdicts_are_cross_checked_against_enumeration() {
        // Wherever the polarity analysis concludes monotonicity, the
        // enumeration-based check must find no counterexample; where a
        // counterexample is known to exist, the analysis must have been
        // inconclusive (a conclusive verdict there would be a soundness bug
        // in the polarity rules).
        for target in [Target::X86, Target::PowerTm, Target::Armv8Tm] {
            let syn = syntactic_monotonicity(target);
            let cfg = SynthConfig::power(2);
            let result = check_monotonicity(target.model().as_ref(), &cfg, 2);
            if syn.conclusive() {
                assert!(
                    result.holds(),
                    "{}: syntactically monotone but enumeration disagrees",
                    syn.model
                );
            }
            if !result.holds() {
                assert!(
                    !syn.conclusive(),
                    "{}: counterexample exists but analysis claimed monotonicity",
                    syn.model
                );
            }
        }
    }

    #[test]
    fn the_paper_counterexample_is_a_reduction_pair() {
        let split = catalog::monotonicity_cex_split();
        let coalesced = catalog::monotonicity_cex_coalesced();
        let reductions = transaction_reductions(&coalesced);
        assert!(
            reductions.iter().any(|r| r.stxn == split.stxn),
            "splitting the coalesced transaction reproduces the paper's counterexample"
        );
    }
}
