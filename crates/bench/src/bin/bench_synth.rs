//! The bounded-exhaustive sweep throughput benchmark behind
//! `BENCH_synth.json`.
//!
//! Measures executions checked per second on the Table 1/Table 2 workload —
//! enumerate every candidate execution up to `max_events` and check each
//! against the transactional model and its baseline — in three
//! configurations:
//!
//! * **baseline** — the pre-refactor pipeline, reproduced verbatim: the
//!   single-threaded builder-based reference enumerator feeding an inline
//!   copy of the original x86 consistency check, which recomputes every
//!   derived relation (`sloc`, `fr`, `com`, `tfence`, the lifts) on each
//!   mention, exactly as the models did before the `ExecView` migration;
//! * **ir** — the per-execution IR pipeline: the parallel in-place walker
//!   (its deltas ignored), one memoized [`ExecView`] per candidate shared
//!   by both model checks, verdicts from the declarative axiom-IR
//!   evaluator with hash-consed common-subexpression memoization and
//!   cheapest-axiom-first early exit;
//! * **ir-incremental** — the delta-threading pipeline: the enumerator
//!   mutates one execution in place and hands the edge delta to each
//!   worker's two incremental checkers (one per model), so axiom
//!   bodies whose dependency footprint the delta misses keep their values
//!   (and cached verdicts) across sibling candidates instead of being
//!   recomputed;
//! * **cat-loaded** — the same pipeline over the models loaded from
//!   `models/*.cat`: it differs from **ir-incremental** only in where the
//!   pool comes from (two private pools instead of the shared catalog).
//!
//! Run with `cargo run --release -p tm-bench --bin bench_synth`; pass a
//! different event bound as the first argument (default 6). The JSON report
//! is **appended** to the `runs` trajectory of `BENCH_synth.json` in the
//! current directory (keyed by configuration and date), so the perf history
//! of the sweep accumulates from PR to PR instead of being overwritten.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use tm_exec::ir::Delta;
use tm_exec::{ExecView, Execution, Fence};
use tm_models::ir::IrModel;
use tm_models::{MemoryModel, X86Model};
use tm_relation::Relation;
use tm_synth::{
    enumerate, enumerate_exact, enumerate_exact_reference, labelled_orbit, synthesise_suites,
    synthesise_suites_per_execution, synthesise_suites_with, CanonSig, SuiteReport, Symmetry,
    SynthConfig,
};

// ---- the pre-refactor x86 check, kept verbatim as the measured baseline ---

/// `stronglift` as it was before the empty-transaction early-out.
fn stronglift_seed(r: &Relation, t: &Relation) -> Relation {
    let tq = t.reflexive_closure();
    tq.compose(&r.difference(t)).compose(&tq)
}

/// `tfence` as it was before the empty-transaction early-out.
fn tfence_seed(exec: &Execution) -> Relation {
    let not_stxn = exec.stxn.complement();
    let enter = not_stxn.compose(&exec.stxn);
    let exit = exec.stxn.compose(&not_stxn);
    exec.po.intersection(&enter.union(&exit))
}

/// The x86 happens-before relation computed the pre-refactor way: every
/// derived relation recomputed from the bare `Execution` on each mention.
fn hb_seed(exec: &Execution, transactional: bool) -> Relation {
    let writes = exec.writes();
    let reads = exec.reads();
    let ww = Relation::cross(&writes, &writes);
    let rw = Relation::cross(&reads, &writes);
    let rr = Relation::cross(&reads, &reads);
    let ppo = ww.union(&rw).union(&rr).intersection(&exec.po);
    let locked = exec.rmw.domain().union(&exec.rmw.range());
    let id_l = Relation::identity_on(&locked);
    let mut implied = id_l.compose(&exec.po).union(&exec.po.compose(&id_l));
    let tf = if transactional {
        tfence_seed(exec)
    } else {
        Relation::new(exec.len())
    };
    implied = implied.union(&tf);
    exec.fence_rel(Fence::MFence)
        .union(&ppo)
        .union(&implied)
        .union(&exec.rfe())
        .union(&exec.fr())
        .union(&exec.co)
}

/// The full pre-refactor x86 check: same axioms, same witness extraction,
/// no memoization and no early-outs.
fn check_seed(exec: &Execution, transactional: bool) -> bool {
    let mut consistent = true;
    consistent &= exec.poloc().union(&exec.com()).find_cycle().is_none();
    consistent &= exec
        .rmw
        .intersection(&exec.fre().compose(&exec.coe()))
        .iter()
        .next()
        .is_none();
    let hb = hb_seed(exec, transactional);
    consistent &= hb.find_cycle().is_none();
    if transactional {
        consistent &= stronglift_seed(&exec.com(), &exec.stxn)
            .find_cycle()
            .is_none();
        consistent &= stronglift_seed(&hb, &exec.stxn).find_cycle().is_none();
    }
    consistent
}

/// The sweep configuration: the x86 study of Table 1, trimmed (two threads,
/// two locations, one transaction, no RMW dimension) so that the full
/// |E| ≤ 6 sweep — about ten million candidate executions — finishes in
/// minutes rather than the hours the paper reports for its SAT backend.
fn sweep_config(max_events: usize) -> SynthConfig {
    let mut cfg = SynthConfig::x86(max_events);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    cfg
}

/// The symmetry-study configuration: three threads instead of two. With a
/// third thread the thread-renaming group is big enough for canonical-form
/// pruning to pay (the 2-thread space is mostly asymmetric partitions), so
/// this is where the `symmetry` mode measures its effective throughput —
/// against a full delta-threading sweep of the *same* space.
fn sweep_config_3t(max_events: usize) -> SynthConfig {
    let mut cfg = sweep_config(max_events);
    cfg.max_threads = 3;
    cfg
}

struct Mode {
    name: &'static str,
    executions: usize,
    checks: usize,
    /// How many checks came back consistent — compared across the modes to
    /// guarantee they computed the same thing.
    consistent: usize,
    seconds: f64,
    /// For symmetry-reduced modes: the orbit-weighted candidate count the
    /// sweep covered (labelled orbits `k!·l!/|Stab|` for the counts study,
    /// in-space orbits for suite synthesis). `None` for full sweeps.
    effective: Option<u64>,
}

impl Mode {
    fn execs_per_sec(&self) -> f64 {
        self.executions as f64 / self.seconds.max(f64::EPSILON)
    }

    fn effective_per_sec(&self) -> f64 {
        self.effective.unwrap_or(self.executions as u64) as f64 / self.seconds.max(f64::EPSILON)
    }
}

fn run_baseline(cfg: &SynthConfig, max_events: usize) -> Mode {
    let mut executions = 0usize;
    let mut checks = 0usize;
    let mut consistent = 0usize;
    let start = Instant::now();
    for n in 2..=max_events {
        executions += enumerate_exact_reference(cfg, n, |exec| {
            // The pre-refactor sweep: x86+TM and its baseline model, each
            // recomputing every derived relation from scratch.
            consistent += usize::from(check_seed(exec, true));
            consistent += usize::from(check_seed(exec, false));
            checks += 2;
        });
    }
    Mode {
        name: "baseline",
        executions,
        checks,
        consistent,
        seconds: start.elapsed().as_secs_f64(),
        effective: None,
    }
}

/// The per-execution IR sweep: the parallel in-place walker with its deltas
/// ignored, one memoized view per candidate, the axiom-IR evaluator with
/// early exit.
fn run_ir(cfg: &SynthConfig, max_events: usize) -> Mode {
    let mut executions = 0usize;
    let checks = AtomicUsize::new(0);
    let consistent = AtomicUsize::new(0);
    let start = Instant::now();
    let tm = X86Model::tm();
    let base = X86Model::baseline();
    let models: [&dyn MemoryModel; 2] = [&tm, &base];
    for n in 2..=max_events {
        executions += enumerate_exact(cfg, n, |exec| {
            let view = ExecView::new(exec);
            for model in models {
                if model.is_consistent_view(&view) {
                    consistent.fetch_add(1, Ordering::Relaxed);
                }
            }
            checks.fetch_add(models.len(), Ordering::Relaxed);
        });
    }
    Mode {
        name: "ir",
        executions,
        checks: checks.into_inner(),
        consistent: consistent.into_inner(),
        seconds: start.elapsed().as_secs_f64(),
        effective: None,
    }
}

/// The incremental IR sweep: the enumerator mutates one execution in place
/// and threads the edge delta to one
/// [`IncrementalModelChecker`](tm_models::ir::IncrementalModelChecker) per
/// model and worker, which re-evaluates only the axiom bodies the delta's
/// footprint touches.
fn run_incremental(
    name: &'static str,
    models: [&IrModel; 2],
    cfg: &SynthConfig,
    max_events: usize,
) -> Mode {
    let mut executions = 0usize;
    let checks = AtomicUsize::new(0);
    let consistent = AtomicUsize::new(0);
    let start = Instant::now();
    for n in 2..=max_events {
        let make_sink = || {
            let mut checkers = models.map(IrModel::incremental);
            let (checks, consistent) = (&checks, &consistent);
            move |exec: &Execution, delta: &Delta, _: u64| {
                for checker in &mut checkers {
                    checker.advance(exec, delta);
                    if checker.is_consistent(exec) {
                        consistent.fetch_add(1, Ordering::Relaxed);
                    }
                }
                checks.fetch_add(2, Ordering::Relaxed);
            }
        };
        executions += enumerate(cfg, n, Symmetry::Full, make_sink, || false).representatives;
    }
    Mode {
        name,
        executions,
        checks: checks.into_inner(),
        consistent: consistent.into_inner(),
        seconds: start.elapsed().as_secs_f64(),
        effective: None,
    }
}

/// The incremental IR sweep over *runtime-loaded* models: `models/x86.cat`
/// and `models/x86_tm.cat` are parsed and elaborated into two private
/// hash-consed pools. Measures what loading a model from text costs versus
/// the compiled-in catalog: elaboration happens once, the hash-consed pools
/// are x86-only (smaller than the shared ten-model catalog), and the
/// verdicts must be bit-identical.
fn run_cat_loaded(cfg: &SynthConfig, max_events: usize) -> Mode {
    let dir = cat_models_dir();
    let tm = tm_cat::load_file(dir.join("x86_tm.cat")).expect("models/x86_tm.cat loads");
    let base = tm_cat::load_file(dir.join("x86.cat")).expect("models/x86.cat loads");
    run_incremental("cat-loaded", [&tm, &base], cfg, max_events)
}

/// Full Table-1 suite synthesis (Forbid + Allow for x86 ± TM at exactly
/// `max_events` events), measured once on the per-execution pipeline (the
/// single-threaded reference enumerator, fresh views, cloned weakenings for
/// every minimality probe) and once on the delta-driven pipeline (stateful
/// per-worker checkers, savepoint/rollback-probed weakenings expressed as
/// removal deltas, per-worker sinks merged after the sweep).
fn run_suite(cfg: &SynthConfig, max_events: usize, incremental: bool) -> (Mode, SuiteReport) {
    let tm = X86Model::tm();
    let base = X86Model::baseline();
    let start = Instant::now();
    let report = if incremental {
        synthesise_suites(&tm, &base, cfg, max_events)
    } else {
        synthesise_suites_per_execution(&tm, &base, cfg, max_events)
    };
    let mode = Mode {
        name: if incremental {
            "suite-incremental"
        } else {
            "suite-per-exec"
        },
        executions: report.enumerated,
        checks: report.enumerated * 2,
        // The Forbid count doubles as the cross-pipeline agreement check.
        consistent: report.forbid.len(),
        seconds: start.elapsed().as_secs_f64(),
        effective: None,
    };
    (mode, report)
}

/// The signatures of a synthesised suite, for cross-pipeline comparison.
fn suite_signatures(report: &SuiteReport) -> (Vec<CanonSig>, Vec<CanonSig>) {
    let sigs = |tests: &[tm_synth::SynthesisedTest]| {
        let mut sigs: Vec<CanonSig> = tests
            .iter()
            .map(|t| tm_synth::canonical_signature(&t.execution))
            .collect();
        sigs.sort();
        sigs
    };
    (sigs(&report.forbid), sigs(&report.allow))
}

/// The symmetry study: a full delta-threading counts sweep and a
/// symmetry-reduced one over the *same* 3-thread space. The reduced sweep
/// visits one canonical representative per thread/location-renaming class;
/// its in-space orbit-weighted totals are asserted equal to the full
/// sweep's (exactness), and its *effective* throughput counts each
/// representative with its fully-labelled orbit size `k!·l!/|Stab|` — the
/// number of labelled isomorphic copies the paper's SAT backend would have
/// had to refute one by one.
fn run_symmetry_pair(cfg: &SynthConfig, max_events: usize) -> (Mode, Mode) {
    let (tm, base) = (X86Model::tm(), X86Model::baseline());
    // Full sweep of the 3-thread space (the "before").
    let full = run_incremental("ir-incremental-3t", [&tm, &base], cfg, max_events);

    // Symmetry-reduced sweep of the same space.
    let mut representatives = 0usize;
    let mut weighted = 0u64;
    let checks = AtomicUsize::new(0);
    let weighted_consistent = AtomicU64::new(0);
    let effective = AtomicU64::new(0);
    let start = Instant::now();
    for n in 2..=max_events {
        let make_sink = || {
            let mut checkers = [tm.incremental(), base.incremental()];
            let (checks, weighted_consistent, effective) =
                (&checks, &weighted_consistent, &effective);
            move |exec: &Execution, delta: &Delta, orbit: u64| {
                for checker in &mut checkers {
                    checker.advance(exec, delta);
                    if checker.is_consistent(exec) {
                        weighted_consistent.fetch_add(orbit, Ordering::Relaxed);
                    }
                }
                checks.fetch_add(2, Ordering::Relaxed);
                effective.fetch_add(labelled_orbit(exec, orbit), Ordering::Relaxed);
            }
        };
        let tally = enumerate(cfg, n, Symmetry::Reduced, make_sink, || false);
        representatives += tally.representatives;
        weighted += tally.weighted;
    }
    let reduced = Mode {
        name: "symmetry",
        executions: representatives,
        checks: checks.into_inner(),
        // Orbit-weighted consistent count — must match the full sweep's.
        consistent: weighted_consistent.into_inner() as usize,
        seconds: start.elapsed().as_secs_f64(),
        effective: Some(effective.into_inner()),
    };

    // Exactness: representatives weighted by in-space orbit size cover the
    // full space, verdict for verdict.
    assert_eq!(
        weighted, full.executions as u64,
        "symmetry reduction must cover the full space orbit for orbit"
    );
    assert_eq!(
        reduced.consistent, full.consistent,
        "symmetry reduction must reach the full sweep's verdicts orbit for orbit"
    );
    (full, reduced)
}

/// Suite synthesis under symmetry reduction — the suites must be identical
/// to the full pipeline's (checked in `main`).
fn run_suite_symmetry(cfg: &SynthConfig, max_events: usize) -> (Mode, SuiteReport) {
    let tm = X86Model::tm();
    let base = X86Model::baseline();
    let start = Instant::now();
    let report = synthesise_suites_with(&tm, &base, cfg, max_events, Symmetry::Reduced);
    let mode = Mode {
        name: "suite-symmetry",
        executions: report.enumerated,
        checks: report.enumerated * 2,
        consistent: report.forbid.len(),
        seconds: start.elapsed().as_secs_f64(),
        effective: Some(report.effective),
    };
    (mode, report)
}

/// The shipped `.cat` models, whether the bench runs from the repository
/// root (CI) or anywhere else (fall back to the manifest location).
fn cat_models_dir() -> std::path::PathBuf {
    let cwd = std::path::PathBuf::from("models");
    if cwd.join("x86_tm.cat").exists() {
        return cwd;
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

/// The machine fingerprint stamped into every run: logical core count and
/// the `uname -srm` triple (kernel, release, architecture), falling back to
/// the compile-time OS/arch when `uname` is unavailable.
fn machine_fingerprint() -> (usize, String) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let uname = std::process::Command::new("uname")
        .arg("-srm")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| format!("{} {}", std::env::consts::OS, std::env::consts::ARCH));
    // The string goes into hand-written JSON; strip anything that would
    // need escaping rather than grow an escaper for one field.
    let uname = uname
        .chars()
        .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
        .collect();
    (cores, uname)
}

/// Today's UTC date as `YYYY-MM-DD`, via the days-to-civil algorithm (no
/// date-time dependency in this workspace).
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Appends `run` to the `runs` array of the trajectory file, creating the
/// file (or replacing a pre-trajectory snapshot) if needed.
///
/// The update is atomic: the new content is written to a sibling temp file
/// and renamed over the original, so a crash (or a second bench run racing
/// this one) can never leave a half-written trajectory — the file either
/// has the old runs or the old runs plus this one.
fn append_run(path: &str, run: &str) {
    let fresh = format!("{{\n  \"bench\": \"synth-sweep\",\n  \"runs\": [\n{run}\n  ]\n}}\n");
    let updated = match std::fs::read_to_string(path) {
        Ok(existing) if existing.contains("\"runs\": [") => {
            match existing.rfind("\n  ]") {
                // Splice the new run in front of the array's closing bracket.
                Some(pos) => format!("{},\n{run}{}", &existing[..pos], &existing[pos..]),
                None => fresh,
            }
        }
        _ => fresh,
    };
    let tmp = format!("{path}.tmp.{}", std::process::id());
    if let Err(e) = std::fs::write(&tmp, &updated).and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        eprintln!("bench_synth: cannot update {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let max_events: usize = match std::env::args().nth(1) {
        None => 6,
        Some(arg) => match arg.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("usage: bench_synth [max_events]   (got {arg:?})");
                std::process::exit(2);
            }
        },
    };
    let cfg = sweep_config(max_events);

    let bench_started = Instant::now();
    eprintln!("sweep: x86-trimmed, |E| = 2..={max_events}, 2 models per execution");
    let baseline = run_baseline(&cfg, max_events);
    let (tm, base) = (X86Model::tm(), X86Model::baseline());
    let modes = [
        baseline,
        run_ir(&cfg, max_events),
        run_incremental("ir-incremental", [&tm, &base], &cfg, max_events),
        run_cat_loaded(&cfg, max_events),
    ];
    let sweep_wall = bench_started.elapsed().as_secs_f64();
    eprintln!("symmetry: x86-trimmed-3t, |E| = 2..={max_events}, full vs symmetry-reduced");
    let cfg3 = sweep_config_3t(max_events);
    let symmetry_started = Instant::now();
    let (full3, symmetry) = run_symmetry_pair(&cfg3, max_events);
    let symmetry_wall = symmetry_started.elapsed().as_secs_f64();
    eprintln!("suites: x86-trimmed, |E| = {max_events}, x86+TM vs x86 (Forbid + Allow)");
    let suites_started = Instant::now();
    let (suite_old, old_report) = run_suite(&cfg, max_events, false);
    let (suite_new, new_report) = run_suite(&cfg, max_events, true);
    let (suite_sym, sym_report) = run_suite_symmetry(&cfg, max_events);
    let suites_wall = suites_started.elapsed().as_secs_f64();
    let suite_modes = [suite_old, suite_new, suite_sym];
    let symmetry_modes = [full3, symmetry];
    for mode in modes.iter().chain(&symmetry_modes).chain(&suite_modes) {
        match mode.effective {
            Some(effective) => eprintln!(
                "{:<17}: {} representatives covering {} ({} checks) in {:.3}s = {:.0} \
                 effective execs/s",
                mode.name,
                mode.executions,
                effective,
                mode.checks,
                mode.seconds,
                mode.effective_per_sec()
            ),
            None => eprintln!(
                "{:<17}: {} executions ({} checks) in {:.3}s = {:.0} execs/s",
                mode.name,
                mode.executions,
                mode.checks,
                mode.seconds,
                mode.execs_per_sec()
            ),
        }
    }
    let [baseline, ir, incremental, cat_loaded] = &modes;
    for mode in [ir, incremental, cat_loaded] {
        assert_eq!(
            baseline.executions, mode.executions,
            "all pipelines must visit the same space"
        );
        assert_eq!(
            baseline.consistent, mode.consistent,
            "all pipelines must reach the same verdicts ({} differs)",
            mode.name
        );
    }
    // The two suite pipelines must synthesise identical suites.
    assert_eq!(
        suite_signatures(&old_report),
        suite_signatures(&new_report),
        "old and new suite pipelines disagree"
    );
    assert_eq!(
        old_report.forbid_txn_histogram(),
        new_report.forbid_txn_histogram(),
        "old and new suite pipelines disagree on the txn histogram"
    );
    // Symmetry-reduced synthesis must build the very same suites as the
    // full sweep, and its in-space orbits must cover the full space exactly.
    assert_eq!(
        suite_signatures(&new_report),
        suite_signatures(&sym_report),
        "symmetry-reduced suites differ from the full sweep's"
    );
    assert_eq!(
        new_report.forbid_txn_histogram(),
        sym_report.forbid_txn_histogram(),
        "symmetry-reduced suites disagree on the txn histogram"
    );
    assert_eq!(
        sym_report.effective, new_report.enumerated as u64,
        "orbit-weighted coverage must equal the full enumeration count"
    );
    let [suite_old, suite_new, _suite_sym] = &suite_modes;
    assert_eq!(suite_old.executions, suite_new.executions);
    let [full3, symmetry] = &symmetry_modes;

    let (cores, uname) = machine_fingerprint();
    let ir_speedup = ir.execs_per_sec() / baseline.execs_per_sec();
    let incremental_speedup = incremental.execs_per_sec() / baseline.execs_per_sec();
    let incremental_vs_ir = incremental.execs_per_sec() / ir.execs_per_sec();
    let cat_speedup = cat_loaded.execs_per_sec() / baseline.execs_per_sec();
    let cat_vs_incremental = cat_loaded.execs_per_sec() / incremental.execs_per_sec();
    let suite_speedup = suite_new.execs_per_sec() / suite_old.execs_per_sec();
    // suite-per-exec walks the reference enumerator on one thread while
    // suite-incremental runs on the worker pool, so the gate compares
    // per-worker rates.
    let suite_workers = tm_synth::worker_count();
    let suite_speedup_per_worker = suite_speedup / suite_workers as f64;
    let symmetry_effective_ratio = symmetry.effective_per_sec() / full3.execs_per_sec();
    eprintln!(
        "speedup over baseline: ir {ir_speedup:.2}x, ir-incremental {incremental_speedup:.2}x \
         (incremental/ir {incremental_vs_ir:.2}x), cat-loaded {cat_speedup:.2}x \
         (cat/incremental {cat_vs_incremental:.2}x), \
         suite-incremental/suite-per-exec {suite_speedup:.2}x \
         ({suite_speedup_per_worker:.2}x per worker of {suite_workers}), \
         symmetry effective/full-3t {symmetry_effective_ratio:.2}x"
    );
    // Hash-consing must keep the text-loaded pipeline within noise of the
    // compiled-in one; only gate when the run is long enough to mean it.
    if incremental.seconds >= 0.5 {
        assert!(
            cat_vs_incremental > 0.5,
            "cat-loaded fell to {cat_vs_incremental:.2}x of ir-incremental"
        );
    }
    // The delta-driven suite pipeline must beat the per-execution one
    // clearly, worker for worker (the |E| = 6 acceptance bar is 1.5×); gate
    // a little below it so machine noise on short CI runs cannot flake the
    // build.
    if suite_old.seconds >= 0.5 {
        assert!(
            suite_speedup_per_worker > 1.2,
            "suite-incremental fell to {suite_speedup_per_worker:.2}x of suite-per-exec \
             per worker ({suite_workers} workers)"
        );
    }
    // Symmetry reduction must clearly pay its canonicity overhead back: on
    // the 3-thread space, labelled-orbit effective throughput has to beat
    // the full incremental sweep by at least 3x (the |E| = 6 acceptance
    // bar); only gated on runs long enough to measure.
    if full3.seconds >= 0.5 {
        assert!(
            symmetry_effective_ratio >= 3.0,
            "symmetry effective throughput fell to {symmetry_effective_ratio:.2}x of the \
             full 3-thread sweep"
        );
    }

    let mut run = String::new();
    run.push_str("    {\n");
    let _ = writeln!(run, "      \"date\": \"{}\",", today_utc());
    let _ = writeln!(run, "      \"config\": \"x86-trimmed\",");
    let _ = writeln!(run, "      \"max_events\": {max_events},");
    let _ = writeln!(run, "      \"models_per_execution\": 2,");
    let _ = writeln!(
        run,
        "      \"threads\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let _ = writeln!(
        run,
        "      \"machine\": {{ \"cores\": {cores}, \"uname\": \"{uname}\" }},"
    );
    let _ = writeln!(
        run,
        "      \"wall_seconds\": {{ \"sweep\": {sweep_wall:.6}, \"symmetry\": \
         {symmetry_wall:.6}, \"suites\": {suites_wall:.6}, \
         \"total\": {:.6} }},",
        bench_started.elapsed().as_secs_f64()
    );
    let _ = writeln!(run, "      \"modes\": {{");
    let all_modes: Vec<&Mode> = modes
        .iter()
        .chain(&symmetry_modes)
        .chain(&suite_modes)
        .collect();
    for (i, mode) in all_modes.iter().enumerate() {
        let _ = writeln!(run, "        \"{}\": {{", mode.name);
        let _ = writeln!(run, "          \"executions\": {},", mode.executions);
        let _ = writeln!(run, "          \"checks\": {},", mode.checks);
        let _ = writeln!(run, "          \"seconds\": {:.6},", mode.seconds);
        if let Some(effective) = mode.effective {
            let _ = writeln!(run, "          \"effective_executions\": {effective},");
            let _ = writeln!(
                run,
                "          \"effective_per_sec\": {:.1},",
                mode.effective_per_sec()
            );
        }
        let _ = writeln!(
            run,
            "          \"executions_per_sec\": {:.1}",
            mode.execs_per_sec()
        );
        let comma = if i + 1 < all_modes.len() { "," } else { "" };
        let _ = writeln!(run, "        }}{comma}");
    }
    let _ = writeln!(run, "      }},");
    let _ = writeln!(
        run,
        "      \"suite\": {{ \"forbid\": {}, \"allow\": {} }},",
        new_report.forbid.len(),
        new_report.allow.len()
    );
    let _ = writeln!(run, "      \"speedups\": {{");
    let _ = writeln!(run, "        \"ir\": {ir_speedup:.3},");
    let _ = writeln!(run, "        \"ir_incremental\": {incremental_speedup:.3},");
    let _ = writeln!(
        run,
        "        \"incremental_vs_ir\": {incremental_vs_ir:.3},"
    );
    let _ = writeln!(run, "        \"cat_loaded\": {cat_speedup:.3},");
    let _ = writeln!(
        run,
        "        \"cat_vs_incremental\": {cat_vs_incremental:.3},"
    );
    let _ = writeln!(
        run,
        "        \"suite_incremental_vs_per_exec\": {suite_speedup:.3},"
    );
    let _ = writeln!(
        run,
        "        \"suite_incremental_vs_per_exec_per_worker\": {suite_speedup_per_worker:.3},"
    );
    let _ = writeln!(
        run,
        "        \"symmetry_effective_vs_incremental_3t\": {symmetry_effective_ratio:.3}"
    );
    let _ = writeln!(run, "      }}");
    run.push_str("    }");

    append_run("BENCH_synth.json", &run);
    println!("{run}");
}
