//! The three workloads, one repetition each, driven through the public
//! entry points that `tm-cat` and the examples use. Every repetition runs
//! with exactly one enumeration worker, times its set-up apart from its
//! makespan, and checks its outputs against the known answers.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use tm_exec::{Annot, Execution};
use tm_litmus::{Arch, LitmusTest};
use tm_metatheory::{
    check_compilation, check_lock_elision, check_monotonicity, check_theorem_7_2, check_theorem_7_3,
};
use tm_models::ir::IrModel;
use tm_models::{Armv8Model, CppModel, MemoryModel, PowerModel, X86Model};
use tm_obs::{Json, Obs};
use tm_sim::{run_suite, SimArch};
use tm_sweep::journal::{self, LoadedJournal, Record};
use tm_sweep::{run_sweep, SweepJob, SweepMode, SweepOptions, SweepOutcome, SweepStatus};
use tm_synth::{canonical_signature, Symmetry, SynthConfig};

use crate::answers::{self, Checks};
use crate::measure::{median, tail, Window};
use crate::trace::{CheckerTally, Spans, Timed};

/// The size a workload runs at unless `--size` overrides it: the event
/// bound of the two sweeps, the bound of table2's checks.
pub fn default_size(workload: &str) -> Option<usize> {
    match workload {
        "counts-x86" => Some(5),
        "table1-power" => Some(4),
        "table2" => Some(3),
        _ => None,
    }
}

/// Simulator runs per litmus test in table1-power.
const SIM_RUNS: usize = 1000;

/// What one repetition measured.
pub struct Rep {
    /// Everything before the first candidate, in seconds.
    pub setup_s: f64,
    /// From the end of set-up to a verified result, in seconds.
    pub makespan_s: f64,
    /// Executions covered (orbit-weighted), or table2's checked work count.
    pub covered: u64,
    /// Process CPU seconds over the makespan window.
    pub cpu_s: f64,
    /// The known-answer checks.
    pub checks: Checks,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(&'static str, f64)>,
    /// Results with no known answer, reported for the record.
    pub notes: Vec<(String, Json)>,
    /// The spans of a traced repetition.
    pub spans: Spans,
}

/// Runs one repetition of `workload`.
pub fn run(workload: &str, size: usize, seed: u64, traced: bool) -> Result<Rep, String> {
    match workload {
        "counts-x86" => counts_x86(size, traced),
        "table1-power" => table1_power(size, seed, traced),
        "table2" => table2(size, traced),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The trimmed Table-1 study space (`tm-cat sweep --config x86-trimmed`):
/// two threads, two locations, one transaction, no RMW.
pub fn x86_trimmed(events: usize) -> SynthConfig {
    let mut cfg = SynthConfig::x86(events);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    cfg
}

/// The C++ space of Table 2 (as in the repository's `table2` bench): the
/// plain, relaxed and seq_cst annotations.
fn cpp_config(bound: usize) -> SynthConfig {
    let mut cfg = SynthConfig::cpp(bound);
    cfg.read_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg.write_annots = vec![Annot::PLAIN, Annot::relaxed_atomic(), Annot::seq_cst()];
    cfg
}

fn load_model(spans: &mut Spans, file: &str) -> Result<IrModel, String> {
    let path = crate::repo_root().join("models").join(file);
    spans
        .run("tm_cat::load_file", || tm_cat::load_file(&path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A fresh checkpoint directory for one sweep: never resumed, deleted when
/// dropped.
struct Checkpoint(PathBuf);

impl Checkpoint {
    fn fresh(tag: &str) -> Result<Checkpoint, String> {
        let work = crate::bench_dir().join("work");
        fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let dir = work.join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(Checkpoint(dir))
    }
}

impl Drop for Checkpoint {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Removes `work/` too once no other repetition is using it.
        let _ = self.0.parent().map(fs::remove_dir);
    }
}

/// A finished sweep and what the benchmark read around it.
struct Swept {
    out: SweepOutcome,
    journal: LoadedJournal,
    /// CPU seconds of the sweep's own (worker and monitor) threads.
    sweep_threads_cpu_s: f64,
    obs: Obs,
}

/// Runs `job` on one worker into `ckpt`, then reads the finished journal.
/// `window` must have been opened just before, on this thread.
fn sweep(
    spans: &mut Spans,
    job: &SweepJob<'_>,
    ckpt: &Checkpoint,
    window: &Window,
) -> Result<Swept, String> {
    let obs = Obs::disabled();
    let mut opts = SweepOptions::new(&ckpt.0);
    opts.threads = Some(1);
    opts.obs = obs.clone();
    let out = spans
        .run("tm_sweep::run_sweep", || run_sweep(job, &opts))
        .map_err(|e| format!("run_sweep: {e}"))?;
    let sweep_threads_cpu_s = window.other_threads_cpu_s();
    let path = ckpt.0.join(journal::JOURNAL_FILE);
    let journal = spans
        .run("tm_sweep::journal::load", || journal::load(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?
        .ok_or("the sweep left no journal")?;
    Ok(Swept {
        out,
        journal,
        sweep_threads_cpu_s,
        obs,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics every sweep workload reports.
fn sweep_layers(
    swept: &Swept,
    models: &[&IrModel],
    tally: &CheckerTally,
    spans: &Spans,
) -> Vec<(&'static str, f64)> {
    let out = &swept.out;
    let t = &out.timings;
    let unit_ms: Vec<f64> = out
        .per_unit
        .iter()
        .filter(|u| !u.reused)
        .map(|u| u.seconds * 1e3)
        .collect();
    let (unit_p50, unit_tail) = if unit_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&unit_ms), tail(&unit_ms))
    };
    let telemetry = out.checker.unwrap_or_default();
    let st = telemetry.stats;
    let n = |field: &std::sync::atomic::AtomicU64| CheckerTally::get(field) as f64;
    let s = |field: &std::sync::atomic::AtomicU64| CheckerTally::get(field) as f64 / 1e9;
    let ir_nodes: usize = models
        .iter()
        .map(|m| m.pool().rel_count() + m.pool().set_count())
        .sum();
    vec![
        ("cat.load_s", spans.total_s("tm_cat::load_file")),
        ("cat.ir_nodes", ir_nodes as f64),
        ("sweep.setup_s", t.setup_seconds),
        ("sweep.run_s", t.run_seconds),
        ("sweep.assemble_s", t.assemble_seconds),
        ("sweep.offcpu_s", t.run_seconds - swept.sweep_threads_cpu_s),
        ("sweep.units", out.per_unit.len() as f64),
        (
            "sweep.presplits",
            swept.obs.counter("sweep.sched.presplit").get() as f64,
        ),
        ("sweep.unit_ms.p50", unit_p50),
        ("sweep.unit_ms.tail", unit_tail),
        ("sweep.journal_records", swept.journal.records.len() as f64),
        ("sweep.journal_bytes", swept.journal.valid_len as f64),
        ("sweep.retries", out.retried_attempts as f64),
        ("sweep.quarantined", out.quarantined.len() as f64),
        ("synth.visited", out.visited as f64),
        ("synth.covered", out.weighted_visited as f64),
        (
            "synth.covered_per_visited",
            ratio(out.weighted_visited as f64, out.visited as f64),
        ),
        ("synth.kills.shape", out.prune.shape_kills as f64),
        ("synth.kills.subtree", out.prune.subtree_kills as f64),
        ("synth.kills.edge", out.prune.edge_kills as f64),
        ("synth.enum_self_s", t.run_seconds - tally.checker_s()),
        ("check.advance_calls", n(&tally.advance_calls)),
        ("check.advance_s", s(&tally.advance_ns)),
        ("check.queries", n(&tally.queries)),
        ("check.query_s", s(&tally.query_ns)),
        ("check.maintained", st.maintained as f64),
        ("check.rebased", st.rebased as f64),
        ("check.dropped", st.dropped as f64),
        ("check.resets", st.resets as f64),
        ("check.axiom_queries", st.axiom_queries as f64),
        ("check.axiom_cache_hits", st.axiom_cache_hits as f64),
        ("check.early_exits", telemetry.early_exits as f64),
        (
            "check.cache_hit_frac",
            ratio(st.axiom_cache_hits as f64, st.axiom_queries as f64),
        ),
        (
            "check.maintained_frac",
            ratio(st.maintained as f64, (st.maintained + st.dropped) as f64),
        ),
        ("suite.probes", n(&tally.probes)),
        ("suite.probe_s", s(&tally.probe_ns)),
    ]
}

fn check_complete(checks: &mut Checks, out: &SweepOutcome) {
    checks.check(
        "sweep completed with nothing quarantined",
        out.status == SweepStatus::Complete && out.quarantined.is_empty(),
    );
}

/// `run_sweep` in counts mode over x86-trimmed, |E| = 2..=n, symmetry off.
fn counts_x86(n: usize, traced: bool) -> Result<Rep, String> {
    let answers = answers::load("counts-x86")?;
    let cfg = x86_trimmed(n);
    let ckpt = Checkpoint::fresh("counts-x86")?;
    let tally = CheckerTally::default();
    let mut spans = Spans::new(traced);

    let setup = Instant::now();
    let model = load_model(&mut spans, "x86_tm.cat")?;
    let load_s = setup.elapsed().as_secs_f64();
    let timed = Timed::new(&model, &tally);
    let job = SweepJob {
        model: if traced { &timed } else { &model },
        baseline: None,
        reference: None,
        mode: SweepMode::Counts,
        config: &cfg,
        events: n,
        symmetry: Symmetry::Full,
    };

    let window = Window::open();
    let swept = sweep(&mut spans, &job, &ckpt, &window)?;
    let out = &swept.out;
    let mut checks = Checks::default();
    check_complete(&mut checks, out);
    // Per-size totals: visited from the per-unit rows, consistent from the
    // journal's unit records, joined on the unit id.
    let unit_size: HashMap<u64, usize> =
        out.per_unit.iter().map(|u| (u.unit_id, u.events)).collect();
    let mut visited = vec![0u64; n + 1];
    let mut consistent = vec![0u64; n + 1];
    for u in &out.per_unit {
        visited[u.events] += u.visited;
    }
    for record in &swept.journal.records {
        if let Record::UnitDone {
            unit_id,
            consistent: c,
            ..
        } = record
        {
            if let Some(&e) = unit_size.get(unit_id) {
                consistent[e] += c;
            }
        }
    }
    for e in 2..=n {
        let want = answers::size_entry(&answers, e);
        let field = |k: &str| want.and_then(|w| w.get(k)).and_then(Json::as_u64);
        checks.check(
            format!("|E|={e} visited"),
            field("visited") == Some(visited[e]),
        );
        checks.check(
            format!("|E|={e} consistent"),
            field("consistent") == Some(consistent[e]),
        );
    }
    let makespan_s = window.wall_s() - out.timings.setup_seconds;
    let cpu_s = window.cpu_s();

    let layers = if traced {
        sweep_layers(&swept, &[&model], &tally, &spans)
    } else {
        Vec::new()
    };
    Ok(Rep {
        setup_s: load_s + out.timings.setup_seconds,
        makespan_s,
        covered: out.weighted_visited,
        cpu_s,
        checks,
        layers,
        notes: Vec::new(),
        spans,
    })
}

/// True if no location has more than two writes, so the litmus
/// postcondition pins every coherence edge (the filter of
/// `tests/integration.rs`; footnote 2 of the paper).
fn co_pinned(exec: &Execution) -> bool {
    exec.locations().iter().all(|&loc| {
        exec.writes()
            .iter()
            .filter(|&w| exec.event(w).loc() == Some(loc))
            .count()
            <= 2
    })
}

fn sorted_signatures<'a>(execs: impl Iterator<Item = &'a Execution>) -> Vec<String> {
    let mut sigs: Vec<String> = execs.map(|e| canonical_signature(e).to_string()).collect();
    sigs.sort();
    sigs
}

fn expected_signatures(entry: Option<&Json>, key: &str) -> Option<Vec<String>> {
    entry?
        .get(key)?
        .as_arr()?
        .iter()
        .map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// `run_sweep` in suites mode (power_tm.cat against power.cat) over the
/// full Power space at exactly |E| = n with symmetry on, then both suites
/// on the Power simulator.
fn table1_power(n: usize, seed: u64, traced: bool) -> Result<Rep, String> {
    let answers = answers::load("table1-power")?;
    let cfg = SynthConfig::power(n);
    let ckpt = Checkpoint::fresh("table1-power")?;
    let tally = CheckerTally::default();
    let mut spans = Spans::new(traced);

    let setup = Instant::now();
    let tm = load_model(&mut spans, "power_tm.cat")?;
    let base = load_model(&mut spans, "power.cat")?;
    let load_s = setup.elapsed().as_secs_f64();
    let timed_tm = Timed::new(&tm, &tally);
    let timed_base = Timed::new(&base, &tally);
    let job = SweepJob {
        model: if traced { &timed_tm } else { &tm },
        baseline: Some(if traced { &timed_base } else { &base }),
        reference: None,
        mode: SweepMode::Suites,
        config: &cfg,
        events: n,
        symmetry: Symmetry::Reduced,
    };

    let window = Window::open();
    let swept = sweep(&mut spans, &job, &ckpt, &window)?;
    let out = &swept.out;
    let suites = out.suites.as_ref().ok_or("the sweep assembled no suites")?;
    let litmus = |tests: &[tm_synth::SynthesisedTest]| -> Vec<LitmusTest> {
        tests.iter().map(|t| t.litmus.clone()).collect()
    };
    let (forbid, allow) = (litmus(&suites.forbid), litmus(&suites.allow));
    let forbid_obs = spans.run("tm_sim::run_suite", || {
        run_suite(SimArch::Power, &forbid, SIM_RUNS, seed)
    });
    let allow_obs = spans.run("tm_sim::run_suite", || {
        run_suite(
            SimArch::Power,
            &allow,
            SIM_RUNS,
            seed ^ 0x9E37_79B9_7F4A_7C15,
        )
    });

    let mut checks = Checks::default();
    check_complete(&mut checks, out);
    let want = answers::size_entry(&answers, n);
    checks.check(
        "Forbid signatures",
        expected_signatures(want, "forbid")
            == Some(sorted_signatures(
                suites.forbid.iter().map(|t| &t.execution),
            )),
    );
    checks.check(
        "Allow signatures",
        expected_signatures(want, "allow")
            == Some(sorted_signatures(suites.allow.iter().map(|t| &t.execution))),
    );
    checks.check(
        "covered = full-space count",
        want.and_then(|w| w.get("covered")).and_then(Json::as_u64) == Some(out.weighted_visited),
    );
    let pinned_seen: Vec<Json> = suites
        .forbid
        .iter()
        .zip(&forbid_obs)
        .filter(|(t, r)| r.observed && co_pinned(&t.execution))
        .map(|(t, _)| Json::Str(tm_litmus::to_text(&t.litmus)))
        .collect();
    checks.check(
        "no co-pinned Forbid test seen on the Power simulator",
        pinned_seen.is_empty(),
    );
    let makespan_s = window.wall_s() - out.timings.setup_seconds;
    let cpu_s = window.cpu_s();

    let forbid_seen = forbid_obs.iter().filter(|r| r.observed).count() as f64;
    let allow_seen = allow_obs.iter().filter(|r| r.observed).count() as f64;
    let layers = if traced {
        let mut layers = sweep_layers(&swept, &[&tm, &base], &tally, &spans);
        layers.extend([
            ("suite.forbid", forbid.len() as f64),
            ("suite.allow", allow.len() as f64),
            ("sim.run_s", spans.total_s("tm_sim::run_suite")),
            ("sim.runs", ((forbid.len() + allow.len()) * SIM_RUNS) as f64),
            ("sim.forbid_seen", forbid_seen),
            ("sim.allow_seen", allow_seen),
            ("sim.allow_seen_frac", ratio(allow_seen, allow.len() as f64)),
        ]);
        layers
    } else {
        Vec::new()
    };
    Ok(Rep {
        setup_s: load_s + out.timings.setup_seconds,
        makespan_s,
        covered: out.weighted_visited,
        cpu_s,
        checks,
        layers,
        notes: vec![
            ("forbid_seen".to_string(), Json::Num(forbid_seen)),
            ("allow_seen".to_string(), Json::Num(allow_seen)),
            ("pinned_forbid_seen".to_string(), Json::Arr(pinned_seen)),
        ],
        spans,
    })
}

/// Table 2: monotonicity, compilation of C++ transactions to hardware,
/// lock elision and Theorems 7.2/7.3, each up to `bound` events. Runs
/// from-scratch evaluation only: no sweep engine, journal, incremental
/// checker, symmetry or simulator.
fn table2(bound: usize, traced: bool) -> Result<Rep, String> {
    let answers = answers::load("table2")?;
    let mut spans = Spans::new(traced);

    let setup = Instant::now();
    spans.run("tm_models::ir::catalog", || {
        black_box(tm_models::ir::catalog());
    });
    let setup_s = setup.elapsed().as_secs_f64();

    let window = Window::open();
    let mut verdicts: Vec<(String, bool)> = Vec::new();
    let mut checked = 0usize;
    // Power and ARMv8 fail monotonicity with a 2-event counterexample, so
    // they are searched at 2 events, as in the paper and the examples.
    let monotonicity: [(&str, Box<dyn MemoryModel>, SynthConfig, usize); 4] = [
        (
            "x86",
            Box::new(X86Model::tm()),
            SynthConfig::x86(bound),
            bound,
        ),
        (
            "power",
            Box::new(PowerModel::tm()),
            SynthConfig::power(2),
            2,
        ),
        (
            "armv8",
            Box::new(Armv8Model::tm()),
            SynthConfig::armv8(2),
            2,
        ),
        ("cpp", Box::new(CppModel::tm()), cpp_config(bound), bound),
    ];
    for (label, model, cfg, events) in &monotonicity {
        let r = spans.run("tm_metatheory::check_monotonicity", || {
            check_monotonicity(model.as_ref(), cfg, *events)
        });
        checked += r.pairs_checked;
        verdicts.push((format!("monotonicity/{label}"), r.holds()));
    }
    for (label, arch) in [
        ("x86", Arch::X86),
        ("power", Arch::Power),
        ("armv8", Arch::Armv8),
    ] {
        let r = spans.run("tm_metatheory::check_compilation", || {
            check_compilation(arch, &cpp_config(bound), bound)
        });
        checked += r.checked;
        verdicts.push((format!("compilation/{label}"), r.sound()));
    }
    for (label, arch, dmb_fix) in [
        ("x86", Arch::X86, false),
        ("power", Arch::Power, false),
        ("armv8", Arch::Armv8, false),
        ("armv8+dmb", Arch::Armv8, true),
    ] {
        let r = spans.run("tm_metatheory::check_lock_elision", || {
            check_lock_elision(arch, dmb_fix)
        });
        checked += r.checked;
        verdicts.push((format!("elision/{label}"), r.sound()));
    }
    let r = spans.run("tm_metatheory::check_theorem_7_2", || {
        check_theorem_7_2(&cpp_config(bound), bound)
    });
    checked += r.instances;
    verdicts.push(("theorem-7.2".to_string(), r.holds()));
    let r = spans.run("tm_metatheory::check_theorem_7_3", || {
        check_theorem_7_3(&cpp_config(bound), bound)
    });
    checked += r.instances;
    verdicts.push(("theorem-7.3".to_string(), r.holds()));

    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let expected = answers
        .get("verdicts")
        .ok_or("answers/table2.json has no verdicts")?;
    for (label, got) in &verdicts {
        match expected.get(label) {
            Some(Json::Bool(want)) => {
                let verdict = match (
                    label.starts_with("compilation") || label.starts_with("elision"),
                    *want,
                ) {
                    (true, true) => "sound",
                    (true, false) => "unsound",
                    (false, true) => "holds",
                    (false, false) => "fails",
                };
                checks.check(format!("{label} {verdict}"), got == want);
            }
            _ => notes.push((label.clone(), Json::Bool(*got))),
        }
    }
    if let Json::Obj(pairs) = expected {
        for (label, _) in pairs {
            if !verdicts.iter().any(|(l, _)| l == label) {
                checks.check(format!("{label} was checked"), false);
            }
        }
    }
    let makespan_s = window.wall_s();
    let cpu_s = window.cpu_s();

    let layers = if traced {
        vec![
            ("models.catalog_s", spans.total_s("tm_models::ir::catalog")),
            (
                "meta.monotonicity_s",
                spans.total_s("tm_metatheory::check_monotonicity"),
            ),
            (
                "meta.compilation_s",
                spans.total_s("tm_metatheory::check_compilation"),
            ),
            (
                "meta.elision_s",
                spans.total_s("tm_metatheory::check_lock_elision"),
            ),
            (
                "meta.theorems_s",
                spans.total_s("tm_metatheory::check_theorem_7_2")
                    + spans.total_s("tm_metatheory::check_theorem_7_3"),
            ),
            ("meta.checked", checked as f64),
        ]
    } else {
        Vec::new()
    };
    Ok(Rep {
        setup_s,
        makespan_s,
        covered: checked as u64,
        cpu_s,
        checks,
        layers,
        notes,
        spans,
    })
}
