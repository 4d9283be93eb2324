//! Regenerates Table 2: monotonicity, compilation of C++ transactions to
//! hardware, and lock elision, each checked up to a bounded execution size.
//!
//! Run with `cargo run --release --example metatheory_report [max_events]`.
//! The default bound (3) keeps the run short; raising it approaches the
//! paper's bounds at the cost of much longer searches (exactly as in
//! Table 2). The bound is clamped to 2..=5: compiling a 5-event C++
//! execution to Power can emit 15 events, and relations range over at most
//! `MAX_UNIVERSE` = 16 (`check_compilation` refuses larger bounds).

use std::env;

use tm_weak_memory::exec::Annot;
use tm_weak_memory::litmus::Arch;
use tm_weak_memory::metatheory::{
    check_compilation, check_lock_elision, check_monotonicity, check_theorem_7_2, check_theorem_7_3,
};
use tm_weak_memory::models::{Armv8Model, CppModel, MemoryModel, PowerModel, X86Model};
use tm_weak_memory::synth::SynthConfig;

fn main() {
    let bound: usize = env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .clamp(2, 5);

    println!("== Table 2: metatheoretical results (bound: {bound} events) ==");
    println!(
        "{:<14} {:<14} {:>8} {:>12}  counterexample?",
        "property", "target", "events", "time"
    );

    // Monotonicity (§8.1).
    let mono_targets: Vec<(Box<dyn MemoryModel>, SynthConfig, usize)> = vec![
        (Box::new(X86Model::tm()), SynthConfig::x86(bound), bound),
        (Box::new(PowerModel::tm()), SynthConfig::power(2), 2),
        (Box::new(Armv8Model::tm()), SynthConfig::armv8(2), 2),
        (Box::new(CppModel::tm()), cpp_config(bound), bound),
    ];
    for (model, config, events) in mono_targets {
        let result = check_monotonicity(model.as_ref(), &config, events);
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            "Monotonicity",
            result.model,
            result.max_events,
            result.elapsed,
            if result.holds() { "no" } else { "YES" }
        );
    }

    // Compilation of C++ transactions to hardware (§8.2).
    for target in [Arch::X86, Arch::Power, Arch::Armv8] {
        let result = check_compilation(target, &cpp_config(bound), bound);
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            "Compilation",
            format!("C++/{target}"),
            result.max_events,
            result.elapsed,
            if result.sound() { "no" } else { "YES" }
        );
    }

    // Lock elision (§8.3).
    for (arch, fix) in [
        (Arch::X86, false),
        (Arch::Power, false),
        (Arch::Armv8, false),
        (Arch::Armv8, true),
    ] {
        let result = check_lock_elision(arch, fix);
        let label = if fix {
            format!("{arch} (fixed)")
        } else {
            arch.to_string()
        };
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            "Lock elision",
            label,
            result.checked,
            result.elapsed,
            if result.sound() { "no" } else { "YES" }
        );
    }

    // Bounded checks of the two theorems of §7.
    let t72 = check_theorem_7_2(&cpp_config(bound), bound);
    let t73 = check_theorem_7_3(&cpp_config(bound), bound);
    for t in [t72, t73] {
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            format!("Theorem {}", t.theorem),
            "C++",
            t.max_events,
            t.elapsed,
            if t.holds() { "no" } else { "YES" }
        );
    }
}

fn cpp_config(bound: usize) -> SynthConfig {
    let mut cfg = SynthConfig::cpp(bound);
    // Keep the annotation alphabet small so the report stays interactive;
    // the benchmark harness uses the full configuration.
    cfg.read_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg.write_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg
}
