//! Parity of the axiom-IR evaluator against its enumeration oracles.
//!
//! The hand-written `check_view_reference` predicates retired after their
//! one-release soak, so the IR is now pinned against *itself under
//! different evaluation strategies*, which must all agree execution for
//! execution:
//!
//! * the **memoized** view (the production hot path) against the
//!   **uncached** view, which recomputes every derived relation and every
//!   IR node from scratch on each access;
//! * the **full-verdict** path (`check_view`, witnesses extracted, axioms
//!   in declaration order) against the **early-exit** path
//!   (`is_consistent_view`, cheapest axiom first, no witnesses);
//! * the **isolation axioms** against direct relational-algebra
//!   computation of their §3.3 definitions.
//!
//! The incremental evaluator gets the same treatment in
//! `incremental_parity.rs`, driven by the delta-threading enumeration.
//!
//! Self-consistency cannot catch a change that moves every strategy at
//! once, so the catalog-wide and exhaustive loops also *pin* the verdicts.
//! For every target and for the three hardware TM models with `CROrder`,
//! each loop records how many candidates the model accepts and an
//! order-independent digest of its full verdicts: a wrapping sum, over the
//! candidates, of the FNV-1a hash of the candidate's signature followed by
//! its verdict, witnesses included. Each loop also pins how many
//! candidates C++ and C++ TM find racy. A change to a model's *axioms*
//! moves these values on purpose: re-pin from the table the failing
//! assertion prints, and say why in the change. A change to how models
//! are represented or evaluated must leave them alone.

use std::sync::atomic::{AtomicU64, Ordering};

use tm_weak_memory::exec::{catalog, ExecView, Execution};
use tm_weak_memory::models::isolation;
use tm_weak_memory::models::{
    Armv8Model, IrModel, MemoryModel, PowerModel, Target, Verdict, X86Model,
};
use tm_weak_memory::synth::{enumerate_exact, SynthConfig};

/// Every named execution the repository ships.
fn full_catalog() -> Vec<Execution> {
    let mut execs = vec![
        catalog::fig1(),
        catalog::fig2(),
        catalog::power_wrc_tprop1(),
        catalog::power_wrc_tprop2(),
        catalog::power_iriw_two_txns(),
        catalog::power_iriw_one_txn(),
        catalog::remark_5_1_first(),
        catalog::remark_5_1_second(),
        catalog::monotonicity_cex_split(),
        catalog::monotonicity_cex_coalesced(),
        catalog::dongol_mp_txn(),
        catalog::sb(),
        catalog::sb_txn(),
        catalog::sb_mfence(),
        catalog::mp(),
        catalog::mp_txn(),
        catalog::lb(),
        catalog::lb_txn(),
        catalog::wrc(),
        catalog::iriw(),
        catalog::fig10_abstract(),
    ];
    for which in ['a', 'b', 'c', 'd'] {
        execs.push(catalog::fig3(which));
    }
    for dmb in [false, true] {
        execs.push(catalog::example_1_1_concrete(dmb));
        execs.push(catalog::appendix_b_concrete(dmb));
    }
    execs
}

/// Asserts the memoized and uncached views produce the same verdict for
/// `model` on `exec`, and that the early-exit path agrees with it.
fn assert_parity(model: &dyn MemoryModel, exec: &Execution, context: &str) {
    let memo = ExecView::new(exec);
    let fresh = ExecView::uncached(exec);
    let verdict = model.check_view(&memo);
    assert_eq!(
        verdict,
        model.check_view(&fresh),
        "{}: memoized and uncached verdicts differ for {}",
        context,
        model.name()
    );
    for view in [&memo, &fresh] {
        assert_eq!(
            verdict.is_consistent(),
            model.is_consistent_view(view),
            "{}: full-verdict and early-exit paths differ for {}",
            context,
            model.name()
        );
    }
}

/// The pinned models: every target, then the three hardware TM models with
/// `CROrder` appended, each with the label its pin row carries.
fn pinned_models() -> Vec<(&'static str, IrModel)> {
    let mut models: Vec<(&'static str, IrModel)> =
        Target::ALL.iter().map(|t| (t.name(), t.model())).collect();
    models.push(("x86-tm+cr", X86Model::tm().with_cr_order()));
    models.push(("power-tm+cr", PowerModel::tm().with_cr_order()));
    models.push(("armv8-tm+cr", Armv8Model::tm().with_cr_order()));
    models
}

/// FNV-1a over `bytes`, continued from the state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One row per pinned model, `(label, consistent, digest)`, plus how many
/// candidates C++ and C++ TM find racy.
type Pins = (Vec<(&'static str, u64, u64)>, [u64; 2]);

/// Order-independent accumulators for the pins; shared by the parallel
/// enumeration workers.
struct Tally {
    labels: Vec<&'static str>,
    consistent: Vec<AtomicU64>,
    digest: Vec<AtomicU64>,
    racy: [AtomicU64; 2],
}

impl Tally {
    fn new(models: &[(&'static str, IrModel)]) -> Tally {
        Tally {
            labels: models.iter().map(|(label, _)| *label).collect(),
            consistent: models.iter().map(|_| AtomicU64::new(0)).collect(),
            digest: models.iter().map(|_| AtomicU64::new(0)).collect(),
            racy: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Folds model `i`'s verdict on `exec` into its row; `candidate` is the
    /// FNV-1a state after `exec`'s signature.
    fn record(&self, i: usize, candidate: u64, verdict: &Verdict) {
        if verdict.is_consistent() {
            self.consistent[i].fetch_add(1, Ordering::Relaxed);
        }
        let mut h = fnv1a(candidate, verdict.model.as_bytes());
        for violation in &verdict.violations {
            h = fnv1a(h, &[0xfe]);
            h = fnv1a(h, violation.axiom.as_bytes());
            for &e in violation.witness.iter().flatten() {
                h = fnv1a(h, &(e as u64).to_le_bytes());
            }
            h = fnv1a(h, &[u8::from(violation.witness.is_some())]);
        }
        self.digest[i].fetch_add(h, Ordering::Relaxed);
    }

    fn record_races(&self, exec: &Execution) {
        for (slot, transactional) in self.racy.iter().zip([false, true]) {
            if !isolation::no_race(exec, transactional) {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn pins(self) -> Pins {
        let rows = self
            .labels
            .iter()
            .zip(self.consistent)
            .zip(self.digest)
            .map(|((label, c), d)| (*label, c.into_inner(), d.into_inner()))
            .collect();
        (rows, self.racy.map(AtomicU64::into_inner))
    }
}

/// The FNV-1a state after `exec`'s signature: the candidate half of every
/// digest term.
fn candidate_hash(exec: &Execution) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, exec.signature().as_bytes())
}

/// Asserts `actual` equals the pinned rows and race counts of `space`,
/// printing the actual values in source form when they differ.
fn assert_pinned(space: &str, actual: &Pins, rows: &[(&str, u64, u64)], racy: [u64; 2]) {
    let table: String = actual
        .0
        .iter()
        .map(|(label, c, d)| format!("    (\"{label}\", {c}, {d:#018x}),\n"))
        .collect();
    assert!(
        actual.0 == rows && actual.1 == racy,
        "{space}: the built-in verdicts moved; actual pins:\n{table}racy: {:?}",
        actual.1
    );
}

/// `(label, consistent, digest)` over [`full_catalog`].
#[rustfmt::skip]
const CATALOG_PINS: &[(&str, u64, u64)] = &[
    ("sc", 12, 0x1163be7743d3cb8e),
    ("tsc", 3, 0x2ee65167d066d2af),
    ("x86", 15, 0x589a8edb38d71365),
    ("x86-tm", 5, 0x36440153181e5a73),
    ("power", 28, 0x582f11b5fa7cfdab),
    ("power-tm", 15, 0xedc7c22c41293686),
    ("armv8", 23, 0xda33ede66a1982e4),
    ("armv8-tm", 10, 0x58b99c3bba009cee),
    ("cpp", 26, 0x35b4522c6015d05a),
    ("cpp-tm", 23, 0x3659e6d1c1039ff8),
    ("x86-tm+cr", 4, 0xc9ffa21051c42941),
    ("power-tm+cr", 14, 0x9be35bbe2581a8ae),
    ("armv8-tm+cr", 9, 0xfdae61d042041ab0),
];
const CATALOG_RACY: [u64; 2] = [26, 23];

#[test]
fn catalog_wide_verdict_parity_for_every_target() {
    let models = pinned_models();
    let tally = Tally::new(&models);
    for exec in full_catalog() {
        let candidate = candidate_hash(&exec);
        for (i, (label, model)) in models.iter().enumerate() {
            // The CROrder variants' parity is the next test's.
            if i < Target::ALL.len() {
                assert_parity(model, &exec, label);
            }
            tally.record(i, candidate, &model.check(&exec));
        }
        tally.record_races(&exec);
    }
    assert_pinned("catalog", &tally.pins(), CATALOG_PINS, CATALOG_RACY);
}

#[test]
fn catalog_wide_parity_with_cr_order_enabled() {
    let models: [Box<dyn MemoryModel>; 3] = [
        Box::new(X86Model::tm().with_cr_order()),
        Box::new(PowerModel::tm().with_cr_order()),
        Box::new(Armv8Model::tm().with_cr_order()),
    ];
    for exec in full_catalog() {
        for model in &models {
            assert_parity(model.as_ref(), &exec, "catalog+cr");
        }
    }
}

/// `CROrder` violations used to be reported bare because the legacy paths
/// could not extract a witness; the IR evaluator reports the offending
/// cycle like any other acyclicity axiom (ROADMAP "witness-quality parity").
#[test]
fn cr_order_violations_carry_a_witness_cycle() {
    let exec = catalog::fig10_abstract();
    let models: [Box<dyn MemoryModel>; 3] = [
        Box::new(X86Model::tm().with_cr_order()),
        Box::new(PowerModel::tm().with_cr_order()),
        Box::new(Armv8Model::tm().with_cr_order()),
    ];
    for model in &models {
        let verdict = model.check(&exec);
        let violation = verdict
            .violations
            .iter()
            .find(|v| v.axiom == "CROrder")
            .unwrap_or_else(|| panic!("{} misses the CROrder violation", model.name()));
        let cycle = violation
            .witness
            .as_ref()
            .unwrap_or_else(|| panic!("{} reports CROrder without its cycle", model.name()));
        assert!(cycle.len() >= 2, "degenerate CROrder witness {cycle:?}");
    }
}

#[test]
fn catalog_wide_isolation_parity() {
    for exec in full_catalog() {
        let view = ExecView::new(&exec);
        // The §3.3 definitions, computed directly on the relation algebra.
        let com = exec.com();
        assert_eq!(
            isolation::weak_isolation_view(&view),
            Execution::weaklift(&com, &exec.stxn).is_acyclic()
        );
        assert_eq!(
            isolation::strong_isolation_view(&view),
            Execution::stronglift(&com, &exec.stxn).is_acyclic()
        );
        assert_eq!(
            isolation::strong_isolation_atomic_view(&view),
            Execution::stronglift(&com, &exec.stxnat).is_acyclic()
        );
        assert_eq!(
            isolation::cr_order_view(&view),
            Execution::weaklift(&exec.po.union(&com), &exec.scr).is_acyclic()
        );
    }
}

/// Exhaustive agreement over every enumerated execution at |E| ≤ `bound`
/// under `cfg`, for every pinned model at once (one shared view per
/// execution, exactly as the synthesis sweep uses them). Returns the number
/// of executions checked and their pins.
fn exhaustive_parity(cfg: &SynthConfig, bound: usize) -> (usize, Pins) {
    use std::sync::atomic::AtomicUsize;
    let models = pinned_models();
    let tally = Tally::new(&models);
    let checked = AtomicUsize::new(0);
    for n in 2..=bound {
        enumerate_exact(cfg, n, |exec| {
            let view = ExecView::new(exec);
            let fresh = ExecView::uncached(exec);
            let candidate = candidate_hash(exec);
            for (i, (_, model)) in models.iter().enumerate() {
                let verdict = model.check_view(&view);
                // The CROrder variants repeat their target's axioms, which
                // the uncached view has already recomputed once.
                if i < Target::ALL.len() {
                    assert_eq!(
                        verdict,
                        model.check_view(&fresh),
                        "memoized and uncached verdicts differ for {} on:\n{exec:?}",
                        model.name()
                    );
                }
                assert_eq!(verdict.is_consistent(), model.is_consistent_view(&view));
                tally.record(i, candidate, &verdict);
            }
            tally.record_races(exec);
            checked.fetch_add(1, Ordering::Relaxed);
        });
    }
    (checked.into_inner(), tally.pins())
}

#[test]
fn exhaustive_parity_on_x86_trimmed_space_up_to_four_events() {
    // The bench sweep's configuration: 2 threads, 2 locations, MFENCE, one
    // transaction — release-friendly at |E| ≤ 4 while still covering
    // fences, transactions and every model's axioms.
    let mut cfg = SynthConfig::x86(4);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    let (checked, pins) = exhaustive_parity(&cfg, 4);
    assert!(checked > 1_000, "only {checked} executions enumerated");
    assert_pinned("x86-trimmed", &pins, X86_TRIMMED_PINS, X86_TRIMMED_RACY);
}

#[test]
fn exhaustive_parity_on_power_space_with_rmws_and_dependencies() {
    // Smaller bound, richer vocabulary: sync/lwsync fences, address/data
    // dependencies and RMW pairs exercise TxnCancelsRMW, Propagation and
    // Observation on both paths.
    let cfg = SynthConfig::power(3);
    let (checked, pins) = exhaustive_parity(&cfg, 3);
    assert!(checked > 1_000, "only {checked} executions enumerated");
    assert_pinned("power", &pins, POWER_PINS, POWER_RACY);
}

#[test]
fn exhaustive_parity_on_cpp_annotated_space() {
    // C++ annotations (relaxed/acquire/release/seq_cst) drive sw, psc and
    // the HbCom axiom; keep the space small with three events.
    let mut cfg = SynthConfig::cpp(3);
    cfg.max_threads = 2;
    let (checked, pins) = exhaustive_parity(&cfg, 3);
    assert!(checked > 500, "only {checked} executions enumerated");
    assert_pinned("cpp", &pins, CPP_PINS, CPP_RACY);
}

/// `(label, consistent, digest)` over x86-trimmed |E| ≤ 4.
#[rustfmt::skip]
const X86_TRIMMED_PINS: &[(&str, u64, u64)] = &[
    ("sc", 13170, 0x7dede658b6757ae4),
    ("tsc", 12913, 0xa89cc91acdaa4b33),
    ("x86", 13191, 0x1e140224ca5fdd49),
    ("x86-tm", 12932, 0x61b44829e3367107),
    ("power", 13233, 0x71eae09c275d2a72),
    ("power-tm", 12994, 0x53469c6b471ae68c),
    ("armv8", 13233, 0xa07567e5dd251b52),
    ("armv8-tm", 12994, 0xc48fac6a9495e828),
    ("cpp", 13226, 0xcf72bc406943351c),
    ("cpp-tm", 13226, 0xd24d540a115ca7a0),
    ("x86-tm+cr", 12932, 0x61b44829e3367107),
    ("power-tm+cr", 12994, 0x53469c6b471ae68c),
    ("armv8-tm+cr", 12994, 0xc48fac6a9495e828),
];
const X86_TRIMMED_RACY: [u64; 2] = [13134, 13134];

/// `(label, consistent, digest)` over the Power space at |E| ≤ 3.
#[rustfmt::skip]
const POWER_PINS: &[(&str, u64, u64)] = &[
    ("sc", 7696, 0x72558b00aaf4c800),
    ("tsc", 7678, 0xdbf9f0664fbb2068),
    ("x86", 7676, 0x04d446483991aa1c),
    ("x86-tm", 7662, 0x098e2ad6abe72110),
    ("power", 7676, 0x6dfd2877610062e6),
    ("power-tm", 7208, 0x3808079471c68c74),
    ("armv8", 7676, 0xe53df12006cc108e),
    ("armv8-tm", 7208, 0xd4cf4c495edde780),
    ("cpp", 7676, 0xe4a53ec82094f41a),
    ("cpp-tm", 7669, 0x7343334527baa9b2),
    ("x86-tm+cr", 7662, 0x098e2ad6abe72110),
    ("power-tm+cr", 7208, 0x3808079471c68c74),
    ("armv8-tm+cr", 7208, 0xd4cf4c495edde780),
];
const POWER_RACY: [u64; 2] = [2168, 1598];

/// `(label, consistent, digest)` over the two-thread C++ space at |E| ≤ 3.
#[rustfmt::skip]
const CPP_PINS: &[(&str, u64, u64)] = &[
    ("sc", 68928, 0xd0dac16edd1dd552),
    ("tsc", 68288, 0x678300d6cd60967e),
    ("x86", 68928, 0x714284ec1441aa42),
    ("x86-tm", 68288, 0x93b4588f099fa342),
    ("power", 68928, 0xb93f3280c46c0cd2),
    ("power-tm", 68288, 0x4f1835692b86a662),
    ("armv8", 68928, 0xec4f7ce212f5b376),
    ("armv8-tm", 68288, 0xf751870db19f3fba),
    ("cpp", 68928, 0x1932aa3977bb75cf),
    ("cpp-tm", 68608, 0xb6ca9d15fc8b0143),
    ("x86-tm+cr", 68288, 0x93b4588f099fa342),
    ("power-tm+cr", 68288, 0x4f1835692b86a662),
    ("armv8-tm+cr", 68288, 0xf751870db19f3fba),
];
const CPP_RACY: [u64; 2] = [17340, 13238];
