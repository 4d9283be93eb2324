//! Table 2: the metatheoretical results — monotonicity, compilation of C++
//! transactions to hardware, and lock elision — each checked up to a bound.
//!
//! The reproduced table is printed before the three check kernels are
//! timed. The paper's qualitative results are: monotonicity fails for
//! Power/ARMv8 with a 2-event counterexample and holds for x86/C++;
//! compilation is sound for all three targets; lock elision has an ARMv8
//! counterexample (Example 1.1), none for x86, and none for ARMv8 once the
//! DMB repair is applied.
//!
//! Two results here differ from or go beyond the paper:
//!
//! * At bound 3 (the bound printed below) compilation is sound for all
//!   three targets. At bound 4, `check_compilation` for Power and ARMv8
//!   returns a load-buffering counterexample (`r0=x; y=1 ∥ r0=y; x=1`,
//!   plain accesses): C++'s `NoThinAir` forbids it, the hardware models
//!   allow its compiled image. This is a known defect of the mapping or
//!   the models, recorded and not yet fixed.
//! * The paper states no Power lock-elision verdict, and no test pins one.
//!   The Power row is printed for completeness; its search currently
//!   reports a witness.

use tm_bench::measure;
use tm_exec::Annot;
use tm_litmus::Arch;
use tm_metatheory::{
    check_compilation, check_lock_elision, check_monotonicity, check_theorem_7_2, check_theorem_7_3,
};
use tm_models::{Armv8Model, CppModel, MemoryModel, PowerModel, X86Model};
use tm_synth::SynthConfig;

fn cpp_config(bound: usize) -> SynthConfig {
    let mut cfg = SynthConfig::cpp(bound);
    cfg.read_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg.write_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg
}

fn print_table2() {
    println!("\n=== Table 2 (reproduced): metatheoretical results ===");
    println!(
        "{:<14} {:<14} {:>8} {:>12}  counterexample?",
        "property", "target", "events", "time"
    );

    let monotonicity: Vec<(Box<dyn MemoryModel>, SynthConfig, usize)> = vec![
        (Box::new(X86Model::tm()), SynthConfig::x86(3), 3),
        (Box::new(PowerModel::tm()), SynthConfig::power(2), 2),
        (Box::new(Armv8Model::tm()), SynthConfig::armv8(2), 2),
        (Box::new(CppModel::tm()), cpp_config(3), 3),
    ];
    for (model, cfg, events) in monotonicity {
        let r = check_monotonicity(model.as_ref(), &cfg, events);
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            "Monotonicity",
            r.model,
            r.max_events,
            r.elapsed,
            if r.holds() { "no" } else { "YES" }
        );
    }
    for target in [Arch::X86, Arch::Power, Arch::Armv8] {
        let r = check_compilation(target, &cpp_config(3), 3);
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            "Compilation",
            format!("C++/{target}"),
            r.max_events,
            r.elapsed,
            if r.sound() { "no" } else { "YES" }
        );
    }
    for (arch, fix) in [
        (Arch::X86, false),
        (Arch::Power, false),
        (Arch::Armv8, false),
        (Arch::Armv8, true),
    ] {
        let r = check_lock_elision(arch, fix);
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            "Lock elision",
            if fix {
                format!("{arch} (fixed)")
            } else {
                arch.to_string()
            },
            r.checked,
            r.elapsed,
            if r.sound() { "no" } else { "YES" }
        );
    }
    for r in [
        check_theorem_7_2(&cpp_config(3), 3),
        check_theorem_7_3(&cpp_config(3), 3),
    ] {
        println!(
            "{:<14} {:<14} {:>8} {:>12?}  {}",
            format!("Theorem {}", r.theorem),
            "C++",
            r.max_events,
            r.elapsed,
            if r.holds() { "no" } else { "YES" }
        );
    }
    println!();
}

fn main() {
    print_table2();

    measure("table2-metatheory/monotonicity-x86-3ev", 5, || {
        let _ = check_monotonicity(&X86Model::tm(), &SynthConfig::x86(3), 3);
    });
    measure("table2-metatheory/compilation-cpp-to-armv8-3ev", 5, || {
        let _ = check_compilation(Arch::Armv8, &cpp_config(3), 3);
    });
    measure("table2-metatheory/lock-elision-armv8", 5, || {
        let _ = check_lock_elision(Arch::Armv8, false);
    });
}
