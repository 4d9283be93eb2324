//! Round-trip golden tests for the `.cat` front end: pretty-print every
//! built-in catalog model to `.cat` source, reparse and re-elaborate it
//! (into a *private* pool, unrelated to the shared catalog pool), and
//! assert verdict-for-verdict parity — on the litmus catalog with
//! witnesses, and exhaustively on the small enumeration spaces the IR
//! parity suite pins.

use tm_cat::{load_str, print_target};
use tm_weak_memory::exec::{catalog, ExecView, Execution};
use tm_weak_memory::models::ir::IrModel;
use tm_weak_memory::models::{MemoryModel, Target};
use tm_weak_memory::synth::{enumerate_exact, SynthConfig};

fn catalog_executions() -> Vec<(&'static str, Execution)> {
    catalog::named()
}

fn reload(target: Target) -> IrModel {
    let text = print_target(target);
    load_str("roundtrip", &text)
        .unwrap_or_else(|e| panic!("{target}: printed model fails to reload\n{e}\n---\n{text}"))
}

/// Litmus-catalog parity, with witnesses: the reloaded model must agree
/// with the built-in one violation-for-violation.
#[test]
fn printed_models_reproduce_builtin_verdicts_on_the_litmus_catalog() {
    for target in Target::ALL {
        let builtin = target.model();
        let reloaded = reload(target);
        assert_eq!(reloaded.name(), builtin.name(), "{target}");
        assert_eq!(reloaded.axioms(), builtin.axioms(), "{target}");
        for (name, exec) in &catalog_executions() {
            let expected = builtin.check(exec);
            let got = reloaded.check(exec);
            assert_eq!(
                got.violations, expected.violations,
                "{target} on {name}: reloaded {got}, builtin {expected}"
            );
        }
    }
}

/// Exhaustive boolean parity over an enumeration space for the targets that
/// space is designed to exercise.
fn exhaustive_roundtrip(cfg: &SynthConfig, bound: usize, targets: &[Target]) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let pairs: Vec<(IrModel, IrModel)> = targets.iter().map(|&t| (t.model(), reload(t))).collect();
    let checked = AtomicUsize::new(0);
    for n in 2..=bound {
        enumerate_exact(cfg, n, |exec| {
            let view = ExecView::new(exec);
            for (builtin, reloaded) in &pairs {
                assert_eq!(
                    reloaded.is_consistent_view(&view),
                    builtin.is_consistent_view(&view),
                    "{} differs from its .cat round trip on:\n{exec:?}",
                    builtin.name()
                );
            }
            checked.fetch_add(1, Ordering::Relaxed);
        });
    }
    checked.into_inner()
}

#[test]
fn exhaustive_roundtrip_on_x86_trimmed_space_up_to_four_events() {
    // The bench sweep's configuration (2 threads, 2 locations, MFENCE, one
    // transaction), mirroring tests/ir_parity.rs.
    let mut cfg = SynthConfig::x86(4);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    let checked = exhaustive_roundtrip(
        &cfg,
        4,
        &[Target::Sc, Target::Tsc, Target::X86, Target::X86Tm],
    );
    assert!(checked > 1_000, "only {checked} executions enumerated");
}

#[test]
fn exhaustive_roundtrip_on_power_space_up_to_three_events() {
    let cfg = SynthConfig::power(3);
    let checked = exhaustive_roundtrip(&cfg, 3, &[Target::Power, Target::PowerTm]);
    assert!(checked > 1_000, "only {checked} executions enumerated");
}

#[test]
fn exhaustive_roundtrip_on_cpp_annotated_space_up_to_three_events() {
    let mut cfg = SynthConfig::cpp(3);
    cfg.max_threads = 2;
    let checked = exhaustive_roundtrip(&cfg, 3, &[Target::Cpp, Target::CppTm]);
    assert!(checked > 500, "only {checked} executions enumerated");
}

/// ARMv8 rides the x86-trimmed shape with its own fences: a smaller smoke
/// on the ARM-specific barriers and one-way accesses.
#[test]
fn exhaustive_roundtrip_on_armv8_space_up_to_three_events() {
    let mut cfg = SynthConfig::armv8(3);
    cfg.max_threads = 2;
    let checked = exhaustive_roundtrip(&cfg, 3, &[Target::Armv8, Target::Armv8Tm]);
    assert!(checked > 500, "only {checked} executions enumerated");
}
