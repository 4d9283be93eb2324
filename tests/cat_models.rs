//! Guards on the `.cat` files shipped under `models/`: every generated file
//! must be exactly what `tm-cat print` emits today (so the Rust catalog
//! stays the one source and a hand edit fails here), must reload into a
//! model that matches its built-in target verdict for verdict on the
//! litmus catalog, and the hand-written novel model must load (through its
//! `include`) and behave as documented.

use std::path::{Path, PathBuf};

use tm_cat::{load_file, print_target};
use tm_weak_memory::exec::catalog;
use tm_weak_memory::models::{MemoryModel, Target};

fn models_dir() -> PathBuf {
    // crates/tm/../../models, anchored to the manifest so the test runs
    // from any working directory.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

/// Each `models/<target>.cat` is the two-line "Generated by" header
/// followed by `tm-cat print <target>`, byte for byte. Regenerate a file
/// with the header and `tm-cat print` rather than editing it.
#[test]
fn every_generated_model_is_its_printed_target() {
    for target in Target::ALL {
        let file = format!("{}.cat", target.name().replace('-', "_"));
        let path = models_dir().join(&file);
        let shipped =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let expected = format!(
            "(* Generated by `tm-cat print {}` from the built-in catalog; reloading\n   \
             this file reproduces the built-in model verdict-for-verdict. *)\n{}",
            target.name(),
            print_target(target)
        );
        assert!(
            shipped == expected,
            "{file} is not `tm-cat print {}` under its header; regenerate it:\n{expected}",
            target.name()
        );
    }
}

#[test]
fn every_shipped_target_model_matches_its_builtin() {
    let cases = [
        (Target::Sc, "sc.cat"),
        (Target::Tsc, "tsc.cat"),
        (Target::X86, "x86.cat"),
        (Target::X86Tm, "x86_tm.cat"),
        (Target::Power, "power.cat"),
        (Target::PowerTm, "power_tm.cat"),
        // The hand-written `let rec` rewrite of power_tm's tfence+ closure:
        // the fixpoint is concretely the same relation, so it must stay
        // witness-identical to the built-in target (see analysis_parity.rs
        // for the exhaustive sweep).
        (Target::PowerTm, "power_tm_rec.cat"),
        (Target::Armv8, "armv8.cat"),
        (Target::Armv8Tm, "armv8_tm.cat"),
        (Target::Cpp, "cpp.cat"),
        (Target::CppTm, "cpp_tm.cat"),
    ];
    let execs = catalog::named();
    for (target, file) in cases {
        let path = models_dir().join(file);
        let loaded =
            load_file(&path).unwrap_or_else(|e| panic!("{}: load failed\n{e}", path.display()));
        let builtin = target.model();
        assert_eq!(loaded.name(), builtin.name(), "{file}");
        assert_eq!(loaded.axioms(), builtin.axioms(), "{file}");
        for (name, exec) in &execs {
            let got = loaded.check(exec);
            let expected = builtin.check(exec);
            assert_eq!(
                got.violations, expected.violations,
                "{file} drifts from built-in {target} on {name}: loaded {got}, builtin {expected}"
            );
        }
    }
}

#[test]
fn every_shipped_model_lints_clean() {
    // The CI `cat-lint` job gates on this with `--deny warnings`; keeping
    // the same guarantee in-tree means `cargo test` catches a freshly
    // introduced finding (or a lint false positive) without the workflow.
    let mut checked = 0;
    for entry in std::fs::read_dir(models_dir()).expect("models/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "cat") {
            continue;
        }
        let warnings = tm_cat::lint_file(&path)
            .unwrap_or_else(|e| panic!("{}: lint failed\n{e}", path.display()));
        assert!(
            warnings.is_empty(),
            "{} has lint findings:\n{}",
            path.display(),
            warnings
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join("\n\n")
        );
        checked += 1;
    }
    assert!(checked >= 12, "only {checked} models linted");
}

#[test]
fn the_novel_model_loads_through_its_include_and_behaves() {
    let model = load_file(models_dir().join("tcoh.cat")).expect("tcoh.cat loads");
    assert_eq!(model.name(), "SC-per-loc+WeakIsol");
    assert_eq!(model.axioms(), vec!["Coherence", "WeakIsol"]);
    // Store buffering reorders across locations: coherence alone allows it.
    assert!(model.is_consistent(&catalog::sb()));
    // The transactional load-buffering run violates weak isolation.
    assert!(!model.is_consistent(&catalog::lb_txn()));
    // Fig. 1's same-location hb cycle violates per-location SC.
    assert!(model.check(&catalog::fig1()).violates("Coherence"));
}

#[test]
fn the_novel_model_is_syntactically_monotone() {
    // The ISSUE's promise: metatheory runs on loaded models for free. tcoh's
    // axioms mention transactions only through weaklift(com, stxn), which is
    // mixed in stxn — the analysis must run and report, not panic.
    let model = load_file(models_dir().join("tcoh.cat")).expect("tcoh.cat loads");
    let report = tm_weak_memory::metatheory::syntactic_monotonicity_of(model.table(), model.pool());
    assert_eq!(report.model, "SC-per-loc+WeakIsol");
    assert_eq!(report.per_axiom.len(), 2);
    // Coherence never mentions transactions; WeakIsol is mixed (the lift).
    assert!(!report.conclusive());
    assert_eq!(report.blocking_axioms(), vec!["WeakIsol"]);
}
