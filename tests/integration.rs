//! Cross-crate integration tests: the full toolflow from execution
//! enumeration through model checking, litmus generation, and simulation.

use tm_weak_memory::exec::catalog;
use tm_weak_memory::litmus::{from_execution, parse_suite, render, to_text, Arch};
use tm_weak_memory::metatheory::{compile_execution, elide};
use tm_weak_memory::models::{MemoryModel, Target, X86Model};
use tm_weak_memory::sim::{run_test, SimArch};
use tm_weak_memory::synth::{enumerate_exact, synthesise_suites, SynthConfig};

/// The paper's soundness claim, end to end on a small bound: no test in a
/// synthesised x86 Forbid suite is ever observed on the x86 simulator.
#[test]
fn synthesised_x86_forbid_tests_are_never_observed() {
    let cfg = SynthConfig::x86(3);
    let report = synthesise_suites(&X86Model::tm(), &X86Model::baseline(), &cfg, 3);
    assert!(!report.forbid.is_empty());
    let mut runnable = 0;
    for test in &report.forbid {
        // With three or more writes to one location the generated
        // postcondition cannot pin down every coherence edge (footnote 2 of
        // the paper adds observer constraints for this); only the fully
        // pinned tests are meaningful to run.
        let exec = &test.execution;
        let co_pinned = exec.locations().iter().all(|&loc| {
            exec.writes()
                .iter()
                .filter(|&w| exec.event(w).loc() == Some(loc))
                .count()
                <= 2
        });
        if !co_pinned {
            continue;
        }
        runnable += 1;
        let obs = run_test(SimArch::X86, &test.litmus, 1500, 11);
        assert!(
            !obs.observed,
            "forbidden test {} was observed on the simulator",
            test.litmus.name
        );
    }
    assert!(runnable > 0);
}

/// A decent fraction of the Allow suite is observable, mirroring the
/// completeness evidence of §5.3 (83% for x86 on real silicon; the
/// operational simulator is more conservative but must observe some).
#[test]
fn some_x86_allow_tests_are_observed() {
    let cfg = SynthConfig::x86(3);
    let report = synthesise_suites(&X86Model::tm(), &X86Model::baseline(), &cfg, 3);
    let observed = report
        .allow
        .iter()
        .filter(|t| run_test(SimArch::X86, &t.litmus, 1500, 13).observed)
        .count();
    assert!(
        observed > 0,
        "none of {} allowed tests was observed",
        report.allow.len()
    );
}

/// Every enumerated execution round-trips through the litmus text format.
#[test]
fn enumerated_executions_roundtrip_through_the_text_format() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cfg = SynthConfig::x86(3);
    let checked = AtomicUsize::new(0);
    enumerate_exact(&cfg, 3, |exec| {
        let i = checked.fetch_add(1, Ordering::Relaxed);
        if i >= 200 {
            return;
        }
        let test = from_execution(exec, &format!("t{i}"));
        let parsed = parse_suite(&to_text(&test)).expect("generated tests parse");
        assert_eq!(parsed, vec![test]);
    });
    assert!(checked.load(Ordering::Relaxed) >= 200);
}

/// The axiomatic models agree with the operational simulators on the
/// catalog: anything the model forbids is never observed (soundness of the
/// model w.r.t. our hardware substitute).
#[test]
fn models_are_sound_for_the_simulators_on_the_catalog() {
    let cases = [
        (catalog::sb(), "sb"),
        (catalog::sb_txn(), "sb-txn"),
        (catalog::sb_mfence(), "sb-mfence"),
        (catalog::mp(), "mp"),
        (catalog::mp_txn(), "mp-txn"),
        (catalog::lb(), "lb"),
        (catalog::lb_txn(), "lb-txn"),
        (catalog::wrc(), "wrc"),
        (catalog::iriw(), "iriw"),
        (catalog::fig2(), "fig2"),
        (catalog::power_wrc_tprop1(), "power-1"),
        (catalog::power_wrc_tprop2(), "power-2"),
        (catalog::power_iriw_two_txns(), "power-3"),
    ];
    let pairs = [
        (Target::X86Tm, SimArch::X86),
        (Target::PowerTm, SimArch::Power),
        (Target::Armv8Tm, SimArch::Armv8),
    ];
    for (exec, name) in &cases {
        let test = from_execution(exec, name);
        for (target, sim) in pairs {
            let model = target.model();
            if !model.is_consistent(exec) {
                let obs = run_test(sim, &test, 1200, 17);
                assert!(
                    !obs.observed,
                    "{name}: forbidden under {} but observed on {sim:?}",
                    model.name()
                );
            }
        }
    }
}

/// Compiled C++ executions remain well-formed and keep their verdict-shape
/// across all three targets, and the lock-elision mapping renders to
/// plausible assembly.
#[test]
fn mappings_compose_with_litmus_rendering() {
    let src = catalog::mp_txn();
    for target in [Arch::X86, Arch::Power, Arch::Armv8] {
        let compiled = compile_execution(&src, target);
        let test = from_execution(&compiled, "compiled-mp-txn");
        let asm = render(&test, target);
        assert!(asm.contains("exists"));
    }
    let concrete = elide(&catalog::fig10_abstract(), Arch::Armv8, false);
    let asm = render(&from_execution(&concrete, "elided"), Arch::Armv8);
    assert!(asm.contains("TXBEGIN"));
}

/// The transactional models refine TSC downwards and isolation upwards: on
/// every small enumerated execution, TSC-consistency implies consistency in
/// each hardware TM model, which in turn implies weak isolation.
#[test]
fn models_sit_between_weak_isolation_and_tsc() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tm_weak_memory::models::isolation::weak_isolation;
    let cfg = SynthConfig::x86(3);
    let tsc = Target::Tsc.model();
    let models: Vec<_> = Target::HARDWARE_TM.iter().map(|t| t.model()).collect();
    let checked = AtomicUsize::new(0);
    enumerate_exact(&cfg, 3, |exec| {
        if checked.fetch_add(1, Ordering::Relaxed) >= 400 {
            return;
        }
        // An RMW whose halves straddle a transaction boundary always fails
        // on Power and ARMv8 (TxnCancelsRMW), which TSC knows nothing about;
        // exclude those executions from the TSC-implies-consistent direction.
        let rmw_straddles_txn = !exec
            .rmw
            .intersection(&exec.tfence().transitive_closure())
            .is_empty();
        for model in &models {
            if tsc.is_consistent(exec) && !rmw_straddles_txn {
                assert!(
                    model.is_consistent(exec),
                    "{} forbids a TSC-consistent execution",
                    model.name()
                );
            }
            if model.is_consistent(exec) {
                assert!(
                    weak_isolation(exec),
                    "{} allows a weak-isolation violation",
                    model.name()
                );
            }
        }
    });
    assert!(checked.load(Ordering::Relaxed) >= 400);
}
