//! Compilation of C++ transactions to hardware (§8.2, middle block of
//! Table 2).

use std::time::{Duration, Instant};

use tm_exec::ir::Delta;
use tm_exec::{Annot, Event, Execution, ExecutionBuilder, Fence};
use tm_litmus::Arch;
use tm_models::{delta_checker, Armv8Model, CppModel, MemoryModel, PowerModel, X86Model};
use tm_relation::MAX_UNIVERSE;
use tm_synth::SynthConfig;

use crate::search::Search;

/// The outcome of a bounded compilation-soundness check.
#[derive(Clone, Debug)]
pub struct CompilationResult {
    /// The hardware target.
    pub target: Arch,
    /// The event-count bound reached (source events).
    pub max_events: usize,
    /// Number of source executions examined. The search stops at the first
    /// counterexample, so when one exists this counts the executions
    /// examined up to the stop.
    pub checked: usize,
    /// A counterexample, if one exists within the bound: a C++ execution
    /// that the C++ TM model forbids whose compiled image the hardware TM
    /// model allows. Whether one exists is deterministic; *which* one is
    /// reported (and `checked` with it) depends on the enumeration order
    /// and the number of enumeration workers.
    pub counterexample: Option<(Execution, Execution)>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl CompilationResult {
    /// True if no counterexample was found within the bound.
    pub fn sound(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Compiles a C++ execution to the given hardware target, following the
/// standard (leading-fence) mappings and preserving transactions
/// (`stxnY = π⁻¹ ; stxnX ; π`):
///
/// * **x86** — every access becomes a plain access; an `MFENCE` follows
///   each seq_cst store;
/// * **Power** — a `sync` precedes each seq_cst access, an `lwsync`
///   precedes each release store and follows each acquire/seq_cst load;
/// * **ARMv8** — acquire loads become `LDAR`, release/seq_cst stores become
///   `STLR`, seq_cst loads become `LDAR`; no fences are needed.
///
/// Dependencies, `rf`, `co`, RMW pairs and transaction membership are
/// carried across unchanged.
pub fn compile_execution(source: &Execution, target: Arch) -> Execution {
    let mut b = ExecutionBuilder::new();
    let n = source.len();
    let mut map: Vec<Option<usize>> = vec![None; n];
    // Every target event emitted for a given source event (fences included),
    // so that transaction membership can be carried over contiguously.
    let mut emitted: Vec<Vec<usize>> = vec![Vec::new(); n];

    // Emit thread by thread in program order, inserting fences as required.
    for t in 0..source.thread_count() {
        let mut ids: Vec<usize> = (0..n)
            .filter(|&e| source.event(e).thread.0 as usize == t)
            .collect();
        ids.sort_by_key(|&e| source.po.predecessors(e).count());
        for e in ids {
            let ev = *source.event(e);
            let thread = ev.thread.0;
            let annot = ev.annot;
            // Leading fences.
            if target == Arch::Power {
                if annot.sc {
                    emitted[e].push(b.push(Event::fence(thread, Fence::Sync)));
                } else if annot.rel && ev.is_write() {
                    emitted[e].push(b.push(Event::fence(thread, Fence::Lwsync)));
                }
            }
            let compiled_annot = match target {
                Arch::X86 => Annot::PLAIN,
                Arch::Power => Annot::PLAIN,
                Arch::Armv8 => Annot {
                    acq: annot.acq && ev.is_read(),
                    rel: (annot.rel || annot.sc) && ev.is_write(),
                    sc: false,
                    atomic: false,
                },
                Arch::Cpp => annot,
            };
            let compiled_annot = if target == Arch::Armv8 && annot.sc && ev.is_read() {
                Annot {
                    acq: true,
                    ..compiled_annot
                }
            } else {
                compiled_annot
            };
            let access = b.push(ev.with_annot(compiled_annot));
            map[e] = Some(access);
            emitted[e].push(access);
            // Trailing fences.
            match target {
                Arch::X86 if annot.sc && ev.is_write() => {
                    emitted[e].push(b.push(Event::fence(thread, Fence::MFence)));
                }
                Arch::Power if (annot.acq || annot.sc) && ev.is_read() => {
                    emitted[e].push(b.push(Event::fence(thread, Fence::Lwsync)));
                }
                _ => {}
            }
        }
    }

    // Carry the structural relations across π.
    let carry = |pairs: &tm_relation::Relation, add: &mut dyn FnMut(usize, usize)| {
        for (a, c) in pairs.iter() {
            if let (Some(x), Some(y)) = (map[a], map[c]) {
                add(x, y);
            }
        }
    };
    carry(&source.rf, &mut |x, y| {
        b.rf(x, y);
    });
    carry(&source.co, &mut |x, y| {
        b.co(x, y);
    });
    carry(&source.addr, &mut |x, y| {
        b.addr(x, y);
    });
    carry(&source.data, &mut |x, y| {
        b.data(x, y);
    });
    carry(&source.ctrl, &mut |x, y| {
        b.ctrl(x, y);
    });
    carry(&source.rmw, &mut |x, y| {
        b.rmw(x, y);
    });
    for class in source.txn_classes() {
        // The image of a transaction includes the fences inserted for its
        // members, keeping the class contiguous in the target.
        let image: Vec<usize> = class.iter().flat_map(|&e| emitted[e].clone()).collect();
        b.txn(&image);
    }

    b.build()
        .expect("compiling a well-formed execution preserves well-formedness")
}

/// The most events [`compile_execution`] emits for one source event: Power
/// brackets a seq_cst load as `sync; ld; lwsync`, x86 follows a seq_cst
/// store with an `MFENCE`, and ARMv8 needs no fences.
fn max_image_per_event(target: Arch) -> usize {
    match target {
        Arch::Power => 3,
        Arch::X86 => 2,
        Arch::Armv8 | Arch::Cpp => 1,
    }
}

/// Checks soundness of compiling C++ transactions to `target` for every C++
/// execution with up to `max_events` events under `config`.
///
/// Each worker drives one C++ TM [`DeltaChecker`](tm_models::DeltaChecker)
/// along the delta-threading enumeration; only the candidates it rejects
/// are compiled and checked, from scratch, against the hardware model.
///
/// # Panics
///
/// Panics before the search starts if a compiled image could exceed
/// [`MAX_UNIVERSE`] events. An `n`-event source compiles to at most `3n`
/// events on Power, `2n` on x86 and `n` on ARMv8, so `max_events` may be
/// at most 5, 8 and 16 respectively.
pub fn check_compilation(
    target: Arch,
    config: &SynthConfig,
    max_events: usize,
) -> CompilationResult {
    let worst = max_events.saturating_mul(max_image_per_event(target));
    assert!(
        worst <= MAX_UNIVERSE,
        "compiling {max_events}-event executions to {target} can emit {worst} events, \
         more than MAX_UNIVERSE ({MAX_UNIVERSE})"
    );
    let start = Instant::now();
    let cpp = CppModel::tm();
    let hardware: Box<dyn MemoryModel> = match target {
        Arch::X86 => Box::new(X86Model::tm()),
        Arch::Power => Box::new(PowerModel::tm()),
        Arch::Armv8 => Box::new(Armv8Model::tm()),
        Arch::Cpp => Box::new(CppModel::tm()),
    };
    let search = Search::new();
    search.run(config, max_events, || {
        let (search, hardware) = (&search, &hardware);
        let mut checker = delta_checker(&cpp);
        move |exec: &Execution, delta: &Delta| {
            checker.advance(exec, delta);
            if search.stopped() {
                return;
            }
            search.count();
            if checker.is_consistent(exec) {
                return;
            }
            let compiled = compile_execution(exec, target);
            if hardware.is_consistent(&compiled) {
                search.report((exec.clone(), compiled));
            }
        }
    });
    let (checked, counterexample) = search.finish();
    CompilationResult {
        target,
        max_events,
        checked,
        counterexample,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::catalog;

    #[test]
    fn compilation_preserves_transactions_and_structure() {
        let src = catalog::mp_txn();
        for target in [Arch::X86, Arch::Power, Arch::Armv8] {
            let out = compile_execution(&src, target);
            assert_eq!(out.txn_classes().len(), 2);
            assert_eq!(out.rf.len(), src.rf.len());
            assert_eq!(out.rmw.len(), src.rmw.len());
        }
    }

    #[test]
    fn power_mapping_inserts_fences_for_release_acquire() {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0).with_annot(Annot::release_atomic()));
        b.push(Event::read(1, 0).with_annot(Annot::acquire_atomic()));
        let src = b.build().unwrap();
        let out = compile_execution(&src, Arch::Power);
        assert_eq!(out.fences_of(Fence::Lwsync).len(), 2);
        // Accesses themselves become plain.
        assert!(out.acquires().is_empty() && out.releases().is_empty());
    }

    #[test]
    fn armv8_mapping_uses_acquire_release_instructions() {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0).with_annot(Annot::seq_cst()));
        b.push(Event::read(1, 0).with_annot(Annot::seq_cst()));
        let src = b.build().unwrap();
        let out = compile_execution(&src, Arch::Armv8);
        assert!(out.fences().is_empty());
        assert_eq!(out.releases().len(), 1);
        assert_eq!(out.acquires().len(), 1);
    }

    #[test]
    fn x86_mapping_fences_sc_stores() {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0).with_annot(Annot::seq_cst()));
        b.push(Event::read(0, 1).with_annot(Annot::seq_cst()));
        let src = b.build().unwrap();
        let out = compile_execution(&src, Arch::X86);
        assert_eq!(out.fences_of(Fence::MFence).len(), 1);
    }

    #[test]
    fn compilation_is_sound_at_small_bounds() {
        // Table 2, middle block: no counterexample for any target. The
        // paper checks 6 events; the benchmark harness pushes our bound
        // higher than this quick test.
        let mut cfg = SynthConfig::cpp(3);
        cfg.read_annots = vec![
            Annot::PLAIN,
            Annot::relaxed_atomic(),
            Annot::acquire_atomic(),
        ];
        cfg.write_annots = vec![
            Annot::PLAIN,
            Annot::relaxed_atomic(),
            Annot::release_atomic(),
        ];
        for target in [Arch::X86, Arch::Power, Arch::Armv8] {
            let result = check_compilation(target, &cfg, 3);
            assert!(
                result.sound(),
                "compilation to {target} has a counterexample: {:?}",
                result.counterexample
            );
            assert!(result.checked > 0);
        }
    }

    #[test]
    #[should_panic(expected = "more than MAX_UNIVERSE")]
    fn power_bound_six_could_overflow_the_universe() {
        // 6 seq_cst loads would compile to 18 Power events.
        check_compilation(Arch::Power, &SynthConfig::cpp(6), 6);
    }

    #[test]
    fn sc_atomics_compile_soundly_on_sb() {
        // The classic worry: SB with seq_cst atomics must stay forbidden
        // after compilation.
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0).with_annot(Annot::seq_cst()));
        b.push(Event::read(0, 1).with_annot(Annot::seq_cst()));
        b.push(Event::write(1, 1).with_annot(Annot::seq_cst()));
        b.push(Event::read(1, 0).with_annot(Annot::seq_cst()));
        let src = b.build().unwrap();
        assert!(!CppModel::tm().is_consistent(&src));
        for (target, model) in [
            (Arch::X86, Box::new(X86Model::tm()) as Box<dyn MemoryModel>),
            (Arch::Power, Box::new(PowerModel::tm())),
            (Arch::Armv8, Box::new(Armv8Model::tm())),
        ] {
            let compiled = compile_execution(&src, target);
            assert!(
                !model.is_consistent(&compiled),
                "SB with SC atomics became allowed on {target}"
            );
        }
    }
}
