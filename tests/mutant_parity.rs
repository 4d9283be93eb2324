//! Seeded mutant parity: the `.cat` front end and the incremental checker
//! on models nobody hand-wrote.
//!
//! A fixed-seed byte mutator rewrites the shipped `models/*.cat` files (a
//! few replaced, deleted, inserted or copied bytes each). Every mutant goes
//! through the loader, which must reject bad text with an error and never
//! panic. The first mutants that do load are then checked the way the
//! sweeps check them: the model's incremental checker, fed the in-place
//! walker's deltas, must agree with from-scratch evaluation on every
//! candidate of the x86-trimmed space up to three events.
//!
//! The seed is fixed so a failure reproduces. A mismatch is a bug in the
//! loader or the evaluator, not a reason to pick another seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tm_weak_memory::cat::load_str;
use tm_weak_memory::exec::ir::Delta;
use tm_weak_memory::exec::Execution;
use tm_weak_memory::models::ir::IrModel;
use tm_weak_memory::models::MemoryModel;
use tm_weak_memory::synth::{enumerate, Symmetry, SynthConfig};

const SEED: u64 = 0x05ee_dca7_0001;
/// How many mutants go through the loader.
const MUTANTS: usize = 2000;
/// How many of the loadable mutants are swept.
const SWEPT: usize = 40;

/// Bytes the mutator writes: the characters `.cat` text is made of.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_-0123456789 \n;|&*+?^~\\()[]{}\"=,.!";

/// A split-mix style generator: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The shipped models, sorted by file name.
fn shipped_models() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut models: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("models/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "cat"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read(&path).expect("model is readable");
            (name, text)
        })
        .collect();
    models.sort();
    assert!(models.len() >= 10, "expected the shipped models in models/");
    models
}

/// One to three byte edits of `text`.
fn mutate(rng: &mut Rng, text: &[u8]) -> Vec<u8> {
    let mut out = text.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(out.len());
        let byte = ALPHABET[rng.below(ALPHABET.len())];
        match rng.below(4) {
            0 if !out.is_empty() => out[at] = byte,
            1 if !out.is_empty() => {
                out.remove(at);
            }
            2 => out.insert(at, byte),
            _ => {
                let from = rng.below(out.len());
                let len = (1 + rng.below(8)).min(out.len() - from);
                let slice = out[from..from + len].to_vec();
                out.splice(at..at, slice);
            }
        }
    }
    out
}

/// The x86-trimmed study space (as `tm-cat sweep --config x86-trimmed`).
fn x86_trimmed(events: usize) -> SynthConfig {
    let mut cfg = SynthConfig::x86(events);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    cfg
}

/// Sweeps `model` over the x86-trimmed space to |E| = 3; returns the
/// candidates checked and the first disagreement between the incremental
/// checker and from-scratch evaluation.
fn sweep_agrees(model: &IrModel) -> (usize, Option<String>) {
    let cfg = x86_trimmed(3);
    let checked = AtomicUsize::new(0);
    let mismatch: Mutex<Option<String>> = Mutex::new(None);
    for n in 2..=3 {
        let make_sink = || {
            let mut checker = model.incremental();
            let (checked, mismatch) = (&checked, &mismatch);
            move |exec: &Execution, delta: &Delta, _: u64| {
                checker.advance(exec, delta);
                let incremental = checker.is_consistent(exec);
                if incremental != model.is_consistent(exec) {
                    mismatch.lock().unwrap().get_or_insert_with(|| {
                        format!("incremental says {incremental} on:\n{exec:?}")
                    });
                }
                checked.fetch_add(1, Ordering::Relaxed);
            }
        };
        enumerate(&cfg, n, Symmetry::Full, make_sink, || false);
    }
    (checked.into_inner(), mismatch.into_inner().unwrap())
}

#[test]
fn mutated_models_never_panic_the_loader_and_sweep_like_their_checkers() {
    let models = shipped_models();
    let mut rng = Rng(SEED);
    let mut panics = Vec::new();
    let mut loaded = 0usize;
    let mut swept = 0usize;
    for i in 0..MUTANTS {
        let (name, text) = &models[rng.below(models.len())];
        let mutant = mutate(&mut rng, text);
        let source = String::from_utf8_lossy(&mutant).into_owned();
        let model = match catch_unwind(AssertUnwindSafe(|| load_str(name, &source))) {
            Ok(Ok(model)) => model,
            Ok(Err(_)) => continue,
            Err(_) => {
                panics.push(format!("mutant {i} of {name}:\n{source}"));
                continue;
            }
        };
        loaded += 1;
        if swept < SWEPT {
            let (checked, mismatch) = sweep_agrees(&model);
            assert!(checked > 1_000, "only {checked} candidates checked");
            if let Some(m) = mismatch {
                panic!(
                    "mutant {i} of {name} ({}): {m}\nsource:\n{source}",
                    model.name()
                );
            }
            swept += 1;
        }
    }
    assert!(
        panics.is_empty(),
        "the loader panicked on:\n{}",
        panics.join("\n---\n")
    );
    assert_eq!(swept, SWEPT, "only {loaded} of {MUTANTS} mutants loaded");
}
