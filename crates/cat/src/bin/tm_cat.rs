//! `tm-cat` — load, check and sweep `.cat` memory models at runtime.
//!
//! ```text
//! tm-cat list                       # litmus tests and built-in targets
//! tm-cat print <target>             # render a built-in model as .cat
//! tm-cat check <file> [options]     # verdicts on named litmus executions
//! tm-cat sweep <file> [options]     # bounded-exhaustive synthesis sweep
//! tm-cat lint <file> [options]      # semantic static analysis (see README)
//! ```
//!
//! `lint` options:
//!   --deny warnings  exit 1 when any finding is reported (for CI gates)
//!
//! `check` options:
//!   --litmus NAME   check one named execution (repeatable; default: all)
//!   --expect TARGET compare every verdict against a built-in model and
//!                   exit non-zero on any drift
//!   --program       also print each execution's litmus program (§2.2)
//!
//! `sweep` options:
//!   --events N      event bound (default 4, at most 16)
//!   --config C      enumeration preset: x86 | x86-trimmed | x86-trimmed-3t |
//!                   power | armv8 | cpp
//!   --expect TARGET compare per-execution consistency against a built-in
//!                   model and exit non-zero on any drift
//!   --incremental   drive the delta-threading enumeration instead of the
//!                   per-execution pipeline (verdicts must agree)
//!   --symmetry on|off  `on` visits one canonical representative per
//!                   thread/location-renaming class, reporting both
//!                   representative and orbit-weighted totals (default off)
//!   --suites        synthesise the Forbid/Allow conformance suites (Table 1)
//!                   for the loaded model against --baseline FILE, via the
//!                   incremental pipeline (per-worker stateful checkers,
//!                   savepoint-probed ⊏-minimality walks)
//!
//! `sweep` checkpointing (fault-tolerant runs; see README "Checkpointed
//! sweeps"):
//!   --checkpoint DIR    journal completed work units into DIR; an
//!                       interrupted run resumed from the journal produces
//!                       suites identical to an uninterrupted one
//!   --resume            replay an existing journal and continue it
//!   --shard I/M         run only work units with id % M == I
//!   --supervise M       spawn M shard children (checkpoints DIR/shard-I),
//!                       restart crashed ones, then merge their journals
//!   --budget SECS       wall-clock budget; unfinished units stay pending
//!   --unit-deadline S   per-unit deadline; over-deadline units are retried,
//!                       then quarantined
//!   --retries N         retry attempts per failing unit (default 2)
//!   --backoff-ms MS     base retry backoff, doubled per attempt (default 25)
//!   --sync-batch N      journal records per fsync (default 1)
//!   --fail-plan KIND:K  fault injection: panic|panic-once|exit|stall after
//!                       K claimed units (also: TM_SWEEP_FAIL_PLAN env var)
//!
//! `sweep` scheduling (adaptive dispatch; see README "Scheduling"):
//!   --sched on|off      weight-ordered (heaviest-first) dispatch with
//!                       cooperative unit splitting, and — under
//!                       --supervise — cross-shard work stealing through a
//!                       shared lease directory (default on; `off` restores
//!                       FIFO order and static `id % M` shards)
//!   --max-unit-weight N pre-split any unit whose weight bound exceeds N
//!                       (default: full sweep weight / 4·threads)
//!   --lease-dir DIR     claim units from the whole frontier via atomic
//!                       lease files in DIR instead of a static shard slice
//!                       (needs --shard; --supervise sets this up itself)
//!   --lease-stale-ms MS reap leases idle longer than MS so survivors can
//!                       steal a dead shard's units (default 10000)
//!   --launch N          provenance stamp for lease claims (set by the
//!                       supervisor on restarts; default 0)
//!
//! `sweep` observability (see README "Observability"):
//!   --progress          live stderr progress line (`units done/total,
//!                       execs/s, ETA`); under --supervise the parent
//!                       aggregates per-shard heartbeat files
//!   --report PATH       write the machine-readable end-of-run report
//!                       (`tm-sweep-report/v1`) to PATH
//!   --obs SINK          event sink: null (default) | stderr | json:PATH
//!
//! Every `sweep` run ends with a one-line `summary:` on stdout — units,
//! representatives, executions covered, elapsed, quarantined — on every
//! exit path, including the degraded exit 3.
//!
//! Exit codes: 0 success; 1 verdict drift from --expect or lint findings
//! under --deny warnings; 2 usage, parse or IO error; 3 sweep finished
//! degraded (quarantined units) or ran out of budget with units still
//! pending.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use tm_cat::{lint_file, load_file_with_warnings, print_target};
use tm_exec::{catalog, Execution};
use tm_litmus::from_execution;
use tm_models::ir::IrModel;
use tm_models::{MemoryModel, Target};
use tm_obs::{Obs, SinkKind};
use tm_relation::MAX_UNIVERSE;
use tm_sweep::{
    merge_sharded, run_sweep, supervise_with, write_report, FailPlan, Heartbeat, SupervisorOptions,
    SweepJob, SweepMode, SweepOptions, SweepOutcome, SweepStatus,
};
use tm_synth::{
    enumerate_exact, enumerate_exact_incremental, enumerate_reduced_incremental,
    synthesise_suites_with, Symmetry, SynthConfig,
};

/// Exit code for a sweep that finished degraded (quarantined units) or ran
/// out of budget with units still pending.
const EXIT_PARTIAL: u8 = 3;

fn named_executions() -> Vec<(&'static str, Execution)> {
    catalog::named()
}

fn parse_target(name: &str) -> Result<Target, String> {
    Target::ALL
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| {
            let all: Vec<&str> = Target::ALL.iter().map(|t| t.name()).collect();
            format!(
                "unknown target `{name}` (expected one of: {})",
                all.join(", ")
            )
        })
}

fn parse_config(name: &str, events: usize) -> Result<SynthConfig, String> {
    match name {
        "x86" => Ok(SynthConfig::x86(events)),
        // The trimmed Table-1 study space (the `bench_synth` configuration):
        // no RMWs or fences, two locations, one transaction, and two or
        // three threads. `-3t` is the symmetry-study variant — with a third
        // thread the renaming group is large enough for `--symmetry on` to
        // pay, which is what makes |E| = 7 sweeps of this space tractable.
        "x86-trimmed" | "x86-trimmed-3t" => {
            let mut cfg = SynthConfig::x86(events);
            cfg.max_threads = if name.ends_with("-3t") { 3 } else { 2 };
            cfg.max_locs = 2;
            cfg.rmws = false;
            cfg.max_txns = 1;
            Ok(cfg)
        }
        "power" => Ok(SynthConfig::power(events)),
        "armv8" => Ok(SynthConfig::armv8(events)),
        "cpp" => Ok(SynthConfig::cpp(events)),
        other => Err(format!(
            "unknown config `{other}` (expected x86, x86-trimmed, x86-trimmed-3t, \
             power, armv8 or cpp)"
        )),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tm-cat list\n  tm-cat print <target>\n  tm-cat check <file.cat> \
         [--litmus NAME]... [--expect TARGET] [--program]\n  tm-cat sweep <file.cat> \
         [--events N] [--config x86|x86-trimmed[-3t]|power|armv8|cpp] [--expect TARGET] \
         [--incremental] \
         [--symmetry on|off]\n                [--suites --baseline <file.cat>] \
         [--checkpoint DIR [--resume] \
         [--shard I/M | --supervise M] [--budget SECS]\n                 [--unit-deadline SECS] \
         [--retries N] [--backoff-ms MS] [--sync-batch N]\n                 [--fail-plan KIND:K] \
         [--sched on|off] [--max-unit-weight N]\n                 [--lease-dir DIR] \
         [--lease-stale-ms MS] [--launch N]\n                 \
         [--progress] [--report PATH] [--obs null|stderr|json:PATH]]\n  \
         tm-cat lint <file.cat> [--deny warnings]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "list" => list(),
        "print" => match args.get(1).map(|t| parse_target(t)) {
            Some(Ok(target)) => {
                print!("{}", print_target(target));
                ExitCode::SUCCESS
            }
            Some(Err(msg)) => {
                eprintln!("tm-cat: {msg}");
                ExitCode::from(2)
            }
            None => usage(),
        },
        "check" => check(&args[1..]),
        "sweep" => sweep(&args[1..]),
        "lint" => lint(&args[1..]),
        _ => usage(),
    }
}

fn list() -> ExitCode {
    println!("litmus executions (tm-cat check --litmus NAME):");
    for (name, exec) in named_executions() {
        println!("  {name:<24} ({} events)", exec.len());
    }
    println!("\nbuilt-in targets (tm-cat print TARGET, --expect TARGET):");
    for target in Target::ALL {
        println!("  {}", target.name());
    }
    ExitCode::SUCCESS
}

/// Loads a `.cat` model or reports the failure as a usage/IO error (exit
/// code 2) — a missing or unparsable file is an operator problem, not a
/// verdict. Lint findings go to stderr (stdout stays machine-greppable)
/// without affecting the exit code; `tm-cat lint --deny warnings` is the
/// gate.
fn load_or_exit(path: &str) -> Result<IrModel, ExitCode> {
    match load_file_with_warnings(path) {
        Ok((model, warnings)) => {
            for w in &warnings {
                eprintln!("{w}\n");
            }
            Ok(model)
        }
        Err(e) => {
            eprintln!("{e}");
            Err(ExitCode::from(2))
        }
    }
}

/// `tm-cat lint <file> [--deny warnings]`: run the semantic linter alone.
/// Exit 0 when clean, 1 when findings exist under `--deny warnings`, 2 on
/// usage/parse/IO errors. Axiom-less fragments (files meant for `include`)
/// lint fine.
fn lint(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut deny = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" if args.get(i + 1).map(String::as_str) == Some("warnings") => {
                deny = true;
                i += 2;
            }
            other => {
                eprintln!("tm-cat: unknown option `{other}` (expected --deny warnings)");
                return usage();
            }
        }
    }
    let warnings = match lint_file(path) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for w in &warnings {
        eprintln!("{w}\n");
    }
    match warnings.len() {
        0 => {
            println!("{path}: clean");
            ExitCode::SUCCESS
        }
        n => {
            println!(
                "{path}: {n} finding(s){}",
                if deny { " (denied)" } else { "" }
            );
            if deny {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut litmus: Vec<String> = Vec::new();
    let mut expect: Option<Target> = None;
    let mut program = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--litmus" if i + 1 < args.len() => {
                litmus.push(args[i + 1].clone());
                i += 2;
            }
            "--expect" if i + 1 < args.len() => {
                match parse_target(&args[i + 1]) {
                    Ok(t) => expect = Some(t),
                    Err(msg) => {
                        eprintln!("tm-cat: {msg}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--program" => {
                program = true;
                i += 1;
            }
            other => {
                eprintln!("tm-cat: unknown option `{other}`");
                return usage();
            }
        }
    }

    let model = match load_or_exit(path) {
        Ok(m) => m,
        Err(code) => return code,
    };
    println!(
        "loaded `{}` from {path} ({} axioms: {})",
        model.name(),
        model.table().axioms().len(),
        model.axioms().join(", ")
    );

    let all = named_executions();
    let selected: Vec<&(&str, Execution)> = if litmus.is_empty() {
        all.iter().collect()
    } else {
        let mut out = Vec::new();
        for want in &litmus {
            match all.iter().find(|(name, _)| name == want) {
                Some(entry) => out.push(entry),
                None => {
                    eprintln!("tm-cat: unknown litmus test `{want}` (see `tm-cat list`)");
                    return ExitCode::from(2);
                }
            }
        }
        out
    };

    let reference = expect.map(|t| t.model());
    let mut drift = 0usize;
    for (name, exec) in &selected {
        let verdict = model.check(exec);
        println!("{name:<24} {verdict}");
        if program {
            println!("{}", from_execution(exec, name));
        }
        if let Some(reference) = &reference {
            let expected = reference.check(exec);
            // Witness-level comparison: names AND cycles must coincide.
            if verdict.violations != expected.violations {
                drift += 1;
                println!("  DRIFT: built-in {expected}");
            }
        }
    }
    if let Some(target) = expect {
        if drift > 0 {
            eprintln!(
                "tm-cat: {drift} verdict(s) drift from built-in `{}`",
                target.name()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "all {} verdicts match built-in `{}`",
            selected.len(),
            target.name()
        );
    }
    ExitCode::SUCCESS
}

/// Everything the `sweep` subcommand parsed from its arguments.
struct SweepArgs {
    path: String,
    events: usize,
    config_name: String,
    expect: Option<Target>,
    incremental: bool,
    symmetry: Symmetry,
    suites: bool,
    baseline_path: Option<String>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    shard: Option<(u32, u32)>,
    supervise: Option<u32>,
    budget: Option<Duration>,
    unit_deadline: Option<Duration>,
    retries: u32,
    backoff: Duration,
    sync_batch: usize,
    fail_plan: Option<FailPlan>,
    sched: bool,
    max_unit_weight: Option<u64>,
    lease_dir: Option<PathBuf>,
    lease_stale_ms: u64,
    launch: u32,
    progress: bool,
    report: Option<PathBuf>,
    obs_sink: SinkKind,
}

fn parse_shard(s: &str) -> Result<(u32, u32), String> {
    let (i, m) = s
        .split_once('/')
        .ok_or_else(|| format!("bad shard `{s}` (expected I/M)"))?;
    let i: u32 = i.parse().map_err(|_| format!("bad shard index `{i}`"))?;
    let m: u32 = m.parse().map_err(|_| format!("bad shard count `{m}`"))?;
    if m == 0 || i >= m {
        return Err(format!("bad shard {i}/{m} (expected 0 <= I < M)"));
    }
    Ok((i, m))
}

fn parse_secs(flag: &str, s: &str) -> Result<Duration, String> {
    let secs: f64 = s
        .parse()
        .map_err(|_| format!("{flag} expects a number of seconds"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("{flag} expects a non-negative number of seconds"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse_sweep_args(args: &[String]) -> Result<SweepArgs, ExitCode> {
    let Some(path) = args.first() else {
        return Err(usage());
    };
    let mut parsed = SweepArgs {
        path: path.clone(),
        events: 4,
        config_name: "x86".to_string(),
        expect: None,
        incremental: false,
        symmetry: Symmetry::Full,
        suites: false,
        baseline_path: None,
        checkpoint: None,
        resume: false,
        shard: None,
        supervise: None,
        budget: None,
        unit_deadline: None,
        retries: 2,
        backoff: Duration::from_millis(25),
        sync_batch: 1,
        fail_plan: None,
        sched: true,
        max_unit_weight: None,
        lease_dir: None,
        lease_stale_ms: 10_000,
        launch: 0,
        progress: false,
        report: None,
        obs_sink: SinkKind::Null,
    };
    let fail = |msg: String| {
        eprintln!("tm-cat: {msg}");
        ExitCode::from(2)
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match flag {
            "--suites" => {
                parsed.suites = true;
                i += 1;
            }
            "--incremental" => {
                parsed.incremental = true;
                i += 1;
            }
            "--resume" => {
                parsed.resume = true;
                i += 1;
            }
            "--progress" => {
                parsed.progress = true;
                i += 1;
            }
            "--baseline" | "--events" | "--config" | "--expect" | "--symmetry" | "--checkpoint"
            | "--shard" | "--supervise" | "--budget" | "--unit-deadline" | "--retries"
            | "--backoff-ms" | "--sync-batch" | "--fail-plan" | "--sched" | "--max-unit-weight"
            | "--lease-dir" | "--lease-stale-ms" | "--launch" | "--report" | "--obs" => {
                let Some(value) = value else {
                    return Err(fail(format!("{flag} expects a value")));
                };
                match flag {
                    "--baseline" => parsed.baseline_path = Some(value.clone()),
                    "--events" => {
                        let n: usize = value
                            .parse()
                            .map_err(|_| fail("--events expects a number".into()))?;
                        if n > MAX_UNIVERSE {
                            return Err(fail(format!(
                                "--events {n} exceeds the limit of {MAX_UNIVERSE} events"
                            )));
                        }
                        parsed.events = n;
                    }
                    "--config" => parsed.config_name = value.clone(),
                    "--expect" => parsed.expect = Some(parse_target(value).map_err(fail)?),
                    "--symmetry" => parsed.symmetry = Symmetry::parse(value).map_err(fail)?,
                    "--checkpoint" => parsed.checkpoint = Some(PathBuf::from(value)),
                    "--shard" => parsed.shard = Some(parse_shard(value).map_err(fail)?),
                    "--supervise" => {
                        let m: u32 = value
                            .parse()
                            .map_err(|_| fail("--supervise expects a shard count".into()))?;
                        if m == 0 {
                            return Err(fail("--supervise expects at least one shard".into()));
                        }
                        parsed.supervise = Some(m);
                    }
                    "--budget" => parsed.budget = Some(parse_secs(flag, value).map_err(fail)?),
                    "--unit-deadline" => {
                        parsed.unit_deadline = Some(parse_secs(flag, value).map_err(fail)?)
                    }
                    "--retries" => {
                        parsed.retries = value
                            .parse()
                            .map_err(|_| fail("--retries expects a number".into()))?
                    }
                    "--backoff-ms" => {
                        let ms: u64 = value
                            .parse()
                            .map_err(|_| fail("--backoff-ms expects milliseconds".into()))?;
                        parsed.backoff = Duration::from_millis(ms);
                    }
                    "--sync-batch" => {
                        let n: usize = value
                            .parse()
                            .map_err(|_| fail("--sync-batch expects a number".into()))?;
                        if n == 0 {
                            return Err(fail("--sync-batch must be at least 1".into()));
                        }
                        parsed.sync_batch = n;
                    }
                    "--fail-plan" => parsed.fail_plan = Some(FailPlan::parse(value).map_err(fail)?),
                    "--sched" => {
                        parsed.sched = match value.as_str() {
                            "on" => true,
                            "off" => false,
                            other => {
                                return Err(fail(format!("--sched expects on|off, got `{other}`")))
                            }
                        }
                    }
                    "--max-unit-weight" => {
                        let n: u64 = value
                            .parse()
                            .map_err(|_| fail("--max-unit-weight expects a number".into()))?;
                        if n == 0 {
                            return Err(fail("--max-unit-weight must be at least 1".into()));
                        }
                        parsed.max_unit_weight = Some(n);
                    }
                    "--lease-dir" => parsed.lease_dir = Some(PathBuf::from(value)),
                    "--lease-stale-ms" => {
                        parsed.lease_stale_ms = value
                            .parse()
                            .map_err(|_| fail("--lease-stale-ms expects milliseconds".into()))?
                    }
                    "--launch" => {
                        parsed.launch = value
                            .parse()
                            .map_err(|_| fail("--launch expects a number".into()))?
                    }
                    "--report" => parsed.report = Some(PathBuf::from(value)),
                    "--obs" => parsed.obs_sink = SinkKind::parse(value).map_err(fail)?,
                    _ => unreachable!("matched above"),
                }
                i += 2;
            }
            other => {
                eprintln!("tm-cat: unknown option `{other}`");
                return Err(usage());
            }
        }
    }
    if parsed.fail_plan.is_none() {
        parsed.fail_plan = FailPlan::from_env().map_err(fail)?;
    }

    // Flag compatibility: checkpointing knobs need --checkpoint; sharding
    // and supervision are mutually exclusive ways to split the space.
    if parsed.checkpoint.is_none()
        && (parsed.resume
            || parsed.shard.is_some()
            || parsed.supervise.is_some()
            || parsed.budget.is_some()
            || parsed.unit_deadline.is_some()
            || parsed.fail_plan.is_some()
            || parsed.max_unit_weight.is_some()
            || parsed.lease_dir.is_some())
    {
        return Err(fail(
            "--resume/--shard/--supervise/--budget/--unit-deadline/--fail-plan/\
             --max-unit-weight/--lease-dir need --checkpoint DIR"
                .into(),
        ));
    }
    // Lease-based claiming replaces the static shard *slice* but still needs
    // the shard *identity* to stamp its claims (the runner enforces this
    // too; failing here gives the nicer message).
    if parsed.lease_dir.is_some() && parsed.shard.is_none() {
        return Err(fail(
            "--lease-dir needs --shard I/M (or use --supervise M, which manages \
             the lease directory itself)"
                .into(),
        ));
    }
    // Progress, reports and event sinks hang off the checkpointed runner
    // (heartbeats and per-unit telemetry live next to the journal).
    if parsed.checkpoint.is_none()
        && (parsed.progress || parsed.report.is_some() || parsed.obs_sink != SinkKind::Null)
    {
        return Err(fail(
            "--progress/--report/--obs need --checkpoint DIR".into(),
        ));
    }
    if parsed.shard.is_some() && parsed.supervise.is_some() {
        return Err(fail(
            "--shard and --supervise are mutually exclusive".into(),
        ));
    }
    if parsed.suites && (parsed.expect.is_some() || parsed.incremental) {
        eprintln!("tm-cat: --suites does not combine with --expect or --incremental");
        return Err(ExitCode::from(2));
    }
    if parsed.suites && parsed.baseline_path.is_none() {
        eprintln!("tm-cat: --suites needs --baseline <file.cat> (the non-TM model)");
        return Err(ExitCode::from(2));
    }
    if parsed.checkpoint.is_some() && parsed.incremental {
        eprintln!("tm-cat: --checkpoint always runs incrementally; drop --incremental");
        return Err(ExitCode::from(2));
    }
    Ok(parsed)
}

fn sweep(args: &[String]) -> ExitCode {
    let parsed = match parse_sweep_args(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let config = match parse_config(&parsed.config_name, parsed.events) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("tm-cat: {msg}");
            return ExitCode::from(2);
        }
    };
    let model = match load_or_exit(&parsed.path) {
        Ok(m) => m,
        Err(code) => return code,
    };
    let baseline = match &parsed.baseline_path {
        Some(path) => match load_or_exit(path) {
            Ok(m) => Some(m),
            Err(code) => return code,
        },
        None => None,
    };

    if parsed.supervise.is_some() {
        return sweep_supervised(&parsed);
    }
    if parsed.checkpoint.is_some() {
        return sweep_checkpointed(&parsed, &model, baseline.as_ref(), &config);
    }
    if parsed.suites {
        return sweep_suites(
            &model,
            baseline.as_ref().expect("validated above"),
            &config,
            parsed.events,
            parsed.symmetry,
        );
    }
    sweep_legacy(&parsed, &model, &config)
}

/// The original in-memory sweep: no checkpointing, counts only.
fn sweep_legacy(parsed: &SweepArgs, model: &IrModel, config: &SynthConfig) -> ExitCode {
    let events = parsed.events;
    let incremental = parsed.incremental;
    let reduced = parsed.symmetry.is_reduced();
    println!(
        "sweeping `{}` over the {} space, |E| <= {events}{}{}",
        model.name(),
        parsed.config_name,
        if incremental { " (incremental)" } else { "" },
        if reduced { " (symmetry-reduced)" } else { "" }
    );

    let reference = parsed.expect.map(|t| t.model());
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    let total = AtomicUsize::new(0);
    let consistent = AtomicUsize::new(0);
    let weighted_consistent = AtomicU64::new(0);
    let drift = AtomicUsize::new(0);
    let start = std::time::Instant::now();
    let mut executions = 0usize;
    let mut weighted_executions = 0u64;
    for n in 2..=events {
        if reduced {
            // Symmetry-reduced: visit one canonical representative per
            // isomorphism class, counting each with its orbit size so the
            // totals still describe the full space.
            let tally = enumerate_reduced_incremental(config, n, || {
                let mut checker = model.incremental();
                let (total, consistent, weighted_consistent, drift) =
                    (&total, &consistent, &weighted_consistent, &drift);
                let reference = &reference;
                move |exec: &Execution, delta: &tm_exec::ir::Delta, orbit: u64| {
                    checker.advance(exec, delta);
                    let ok = checker.is_consistent(exec);
                    total.fetch_add(1, Ordering::Relaxed);
                    if ok {
                        consistent.fetch_add(1, Ordering::Relaxed);
                        weighted_consistent.fetch_add(orbit, Ordering::Relaxed);
                    }
                    if let Some(reference) = reference {
                        if reference.is_consistent(exec) != ok {
                            drift.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
            executions += tally.representatives;
            weighted_executions += tally.weighted;
        } else if incremental {
            executions += enumerate_exact_incremental(config, n, || {
                let mut checker = model.incremental();
                let (total, consistent, drift) = (&total, &consistent, &drift);
                let reference = &reference;
                move |exec: &Execution, delta: &tm_exec::ir::Delta| {
                    checker.advance(exec, delta);
                    let ok = checker.is_consistent(exec);
                    total.fetch_add(1, Ordering::Relaxed);
                    if ok {
                        consistent.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(reference) = reference {
                        if reference.is_consistent(exec) != ok {
                            drift.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        } else {
            executions += enumerate_exact(config, n, |exec| {
                let ok = model.is_consistent(exec);
                total.fetch_add(1, Ordering::Relaxed);
                if ok {
                    consistent.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(reference) = &reference {
                    if reference.is_consistent(exec) != ok {
                        drift.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    }
    let secs = start.elapsed().as_secs_f64();
    if reduced {
        let consistent = consistent.load(Ordering::Relaxed);
        let weighted_consistent = weighted_consistent.load(Ordering::Relaxed);
        println!(
            "{executions} representatives in {secs:.3}s ({:.0} effective execs/s): \
             {consistent} consistent, {} forbidden",
            weighted_executions as f64 / secs.max(f64::EPSILON),
            executions - consistent,
        );
        println!(
            "orbit-weighted: {weighted_executions} executions: {weighted_consistent} consistent, \
             {} forbidden",
            weighted_executions - weighted_consistent,
        );
    } else {
        println!(
            "{executions} executions in {secs:.3}s ({:.0} execs/s): {} consistent, {} forbidden",
            executions as f64 / secs.max(f64::EPSILON),
            consistent.load(Ordering::Relaxed),
            total.load(Ordering::Relaxed) - consistent.load(Ordering::Relaxed),
        );
    }
    let mut code = ExitCode::SUCCESS;
    if let Some(target) = parsed.expect {
        let drift = drift.load(Ordering::Relaxed);
        if drift > 0 {
            eprintln!(
                "tm-cat: {drift} execution(s) drift from built-in `{}`",
                target.name()
            );
            code = ExitCode::FAILURE;
        } else {
            println!(
                "verdicts match built-in `{}` on the whole space",
                target.name()
            );
        }
    }
    // The in-memory sweep has no work-unit decomposition.
    let covered = if reduced {
        weighted_executions
    } else {
        executions as u64
    };
    print_summary(0, executions as u64, covered, secs, 0);
    code
}

/// `sweep --suites`: synthesise the Forbid/Allow conformance suites for a
/// loaded model against a loaded baseline — the Table 1 row for a model
/// that exists only as `.cat` text. Runs the incremental pipeline (the
/// [`IrModel`] provides a delta-driven checker, so the enumerator mutates
/// one execution per worker in place and the ⊏-minimality walk probes each
/// weakening by savepoint/rollback).
fn sweep_suites(
    model: &IrModel,
    baseline: &IrModel,
    config: &SynthConfig,
    events: usize,
    symmetry: Symmetry,
) -> ExitCode {
    println!(
        "synthesising Forbid/Allow suites: `{}` vs baseline `{}`, |E| = {events}{}",
        model.name(),
        baseline.name(),
        if symmetry.is_reduced() {
            " (symmetry-reduced)"
        } else {
            ""
        }
    );
    let report = synthesise_suites_with(model, baseline, config, events, symmetry);
    if symmetry.is_reduced() {
        println!(
            "{} representatives ({} executions covered) in {:.3}s ({:.0} effective execs/s)",
            report.enumerated,
            report.effective,
            report.elapsed.as_secs_f64(),
            report.effective as f64 / report.elapsed.as_secs_f64().max(f64::EPSILON),
        );
    } else {
        println!(
            "{} executions in {:.3}s ({:.0} execs/s)",
            report.enumerated,
            report.elapsed.as_secs_f64(),
            report.enumerated as f64 / report.elapsed.as_secs_f64().max(f64::EPSILON),
        );
    }
    print_suite_lines(&report);
    let covered = if symmetry.is_reduced() {
        report.effective
    } else {
        report.enumerated as u64
    };
    print_summary(
        0,
        report.enumerated as u64,
        covered,
        report.elapsed.as_secs_f64(),
        0,
    );
    ExitCode::SUCCESS
}

fn print_suite_lines(report: &tm_synth::SuiteReport) {
    let hist = report.forbid_txn_histogram();
    println!(
        "forbid {} allow {} (forbid txn histogram: {} with 1, {} with 2, {} with 3+)",
        report.forbid.len(),
        report.allow.len(),
        hist[1],
        hist[2],
        hist[3],
    );
    for test in &report.forbid {
        println!("\n{}", test.litmus);
    }
}

/// The final one-line `summary:` every sweep prints on stdout, whatever
/// its exit path — scripts can rely on its presence even when the run
/// ends degraded (exit 3).
fn print_summary(units: usize, representatives: u64, covered: u64, secs: f64, quarantined: usize) {
    println!(
        "summary: {units} units, {representatives} representatives, {covered} executions \
         covered, {secs:.3}s elapsed, {quarantined} quarantined"
    );
}

/// Prints what a checkpointed run did and turns its status into an exit
/// code: 0 complete, 1 drift, 3 degraded or out of budget.
fn report_outcome(parsed: &SweepArgs, outcome: &SweepOutcome, secs: f64) -> u8 {
    println!(
        "units: {} total, {} completed ({} reused from checkpoint), {} pending, \
         {} quarantined; {} retry attempt(s) in {secs:.3}s",
        outcome.total_units,
        outcome.completed_units,
        outcome.reused_units,
        outcome.pending_units,
        outcome.quarantined.len(),
        outcome.retried_attempts,
    );
    for q in &outcome.quarantined {
        eprintln!(
            "tm-cat: quarantined unit {:#018x} {} after {} attempt(s): {}",
            q.unit_id,
            if q.label.is_empty() {
                String::new()
            } else {
                format!("({}) ", q.label)
            },
            q.attempts,
            q.reason
        );
    }
    let reduced = parsed.symmetry.is_reduced();
    if let Some(report) = &outcome.suites {
        if reduced {
            println!(
                "{} representatives enumerated ({} executions covered)",
                outcome.visited, outcome.weighted_visited
            );
        } else {
            println!("{} executions enumerated", outcome.visited);
        }
        print_suite_lines(report);
    } else if parsed.suites {
        println!(
            "{} executions enumerated (shard only; merge shard journals for suites)",
            outcome.visited
        );
    } else {
        println!(
            "{} executions: {} consistent, {} forbidden",
            outcome.visited,
            outcome.consistent,
            outcome.visited - outcome.consistent,
        );
        if reduced {
            println!(
                "orbit-weighted: {} executions: {} consistent, {} forbidden",
                outcome.weighted_visited,
                outcome.weighted_consistent,
                outcome.weighted_visited - outcome.weighted_consistent,
            );
        }
    }
    let code = match outcome.status {
        SweepStatus::BudgetExhausted => {
            eprintln!(
                "tm-cat: budget exhausted with {} unit(s) pending; resume with \
                 --checkpoint ... --resume",
                outcome.pending_units
            );
            EXIT_PARTIAL
        }
        SweepStatus::Partial => {
            eprintln!(
                "tm-cat: sweep finished DEGRADED: {} quarantined unit(s) are missing \
                 from the results",
                outcome.quarantined.len()
            );
            EXIT_PARTIAL
        }
        SweepStatus::Complete => {
            if let Some(target) = parsed.expect {
                if outcome.drift > 0 {
                    eprintln!(
                        "tm-cat: {} execution(s) drift from built-in `{}`",
                        outcome.drift,
                        target.name()
                    );
                    1
                } else {
                    println!(
                        "verdicts match built-in `{}` on the whole space",
                        target.name()
                    );
                    0
                }
            } else {
                0
            }
        }
    };
    print_summary(
        outcome.total_units,
        outcome.visited,
        outcome.weighted_visited,
        secs,
        outcome.quarantined.len(),
    );
    code
}

fn sweep_checkpointed(
    parsed: &SweepArgs,
    model: &IrModel,
    baseline: Option<&IrModel>,
    config: &SynthConfig,
) -> ExitCode {
    let reference = parsed.expect.map(|t| t.model());
    let job = SweepJob {
        model,
        baseline: baseline.map(|b| b as &dyn MemoryModel),
        reference: reference.as_deref(),
        mode: if parsed.suites {
            SweepMode::Suites
        } else {
            SweepMode::Counts
        },
        config,
        events: parsed.events,
        symmetry: parsed.symmetry,
    };
    let checkpoint = parsed.checkpoint.clone().expect("checked by caller");
    println!(
        "checkpointed sweep of `{}` (|E| = {}, {}), journal at {}{}",
        model.name(),
        parsed.events,
        if parsed.suites { "suites" } else { "counts" },
        checkpoint.join("sweep.journal").display(),
        match parsed.shard {
            Some((i, m)) => format!(", shard {i}/{m}"),
            None => String::new(),
        }
    );
    // `--obs null` is the fully disabled handle: counters still count (the
    // report reads them back) but events and spans cost nothing.
    let obs = if parsed.obs_sink == SinkKind::Null {
        Obs::disabled()
    } else {
        match Obs::with_sink(parsed.obs_sink.clone()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("tm-cat: cannot open observability sink: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let opts = SweepOptions {
        resume: parsed.resume,
        shard: parsed.shard,
        budget: parsed.budget,
        unit_deadline: parsed.unit_deadline,
        retries: parsed.retries,
        backoff: parsed.backoff,
        sync_batch: parsed.sync_batch,
        fail_plan: parsed.fail_plan,
        sched: parsed.sched,
        max_unit_weight: parsed.max_unit_weight,
        lease_dir: parsed.lease_dir.clone(),
        launch: parsed.launch,
        obs: obs.clone(),
        progress: parsed.progress,
        ..SweepOptions::new(checkpoint)
    };
    let start = std::time::Instant::now();
    match run_sweep(&job, &opts) {
        Ok(outcome) => {
            if let Some(path) = &parsed.report {
                if let Err(e) = write_report(path, &job, &outcome, &obs) {
                    eprintln!("tm-cat: cannot write report {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!("report written to {}", path.display());
            }
            ExitCode::from(report_outcome(
                parsed,
                &outcome,
                start.elapsed().as_secs_f64(),
            ))
        }
        Err(e) => {
            eprintln!("tm-cat: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--supervise M`: run M shard children of this very binary (each with its
/// own checkpoint under the parent directory), restart crashed ones, then
/// merge their journals into the final result.
fn sweep_supervised(parsed: &SweepArgs) -> ExitCode {
    let shards = parsed.supervise.expect("checked by caller");
    let checkpoint = parsed.checkpoint.clone().expect("checked by caller");
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tm-cat: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "supervising {shards} shard(s) under {}",
        checkpoint.display()
    );

    let shard_dir = |i: u32| checkpoint.join(format!("shard-{i}"));
    let dirs: Vec<PathBuf> = (0..shards).map(shard_dir).collect();
    let start = std::time::Instant::now();

    // With scheduling on, the shards claim units from the whole frontier
    // through a shared lease directory instead of owning a static `id % M`
    // slice; the supervisor reaps stale leases below so survivors steal a
    // dead shard's units.
    let lease_dir = if parsed.sched {
        let dir = checkpoint.join(tm_sweep::LEASE_DIR);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "tm-cat: cannot create lease directory {}: {e}",
                dir.display()
            );
            return ExitCode::from(2);
        }
        Some(dir)
    } else {
        None
    };
    let stale_after = Duration::from_millis(parsed.lease_stale_ms);

    // Live progress: the children write heartbeat files next to their
    // journals unconditionally; the supervisor folds them into one stderr
    // line, rate-limited so the poll loop stays cheap. Lease-mode shards
    // all report the shared frontier, so their totals max rather than sum.
    let mut last_print = std::time::Instant::now() - Duration::from_secs(1);
    let mut last_reap = std::time::Instant::now();
    let mut eta = tm_obs::RateWindow::new(tm_sweep::report::ETA_WINDOW_SECS);
    let progress_dirs = dirs.clone();
    let reap_dir = lease_dir.clone();
    let on_poll = move || {
        if let Some(dir) = &reap_dir {
            if last_reap.elapsed() >= Duration::from_millis(250) {
                last_reap = std::time::Instant::now();
                if let Ok(n @ 1..) = tm_sweep::reap_stale(dir, stale_after) {
                    eprintln!("sweep: reassigned {n} stale lease(s)");
                }
            }
        }
        if !parsed.progress || last_print.elapsed() < Duration::from_millis(200) {
            return;
        }
        last_print = std::time::Instant::now();
        let hb = if reap_dir.is_some() {
            Heartbeat::aggregate_shared(&progress_dirs)
        } else {
            Heartbeat::aggregate(&progress_dirs)
        };
        if let Some(hb) = hb {
            eta.push(start.elapsed().as_secs_f64(), hb.done as f64);
            eprint!("\r{}", hb.progress_line(eta.rate()));
            use std::io::Write as _;
            let _ = std::io::stderr().flush();
        }
    };

    let sup_opts = SupervisorOptions::new(shards);
    let runs = supervise_with(
        &sup_opts,
        |i, launch| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("sweep").arg(&parsed.path);
            cmd.arg("--events").arg(parsed.events.to_string());
            cmd.arg("--config").arg(&parsed.config_name);
            if parsed.suites {
                cmd.arg("--suites");
                if let Some(b) = &parsed.baseline_path {
                    cmd.arg("--baseline").arg(b);
                }
            }
            if let Some(t) = parsed.expect {
                cmd.arg("--expect").arg(t.name());
            }
            cmd.arg("--symmetry").arg(parsed.symmetry.to_string());
            cmd.arg("--checkpoint").arg(shard_dir(i));
            // --resume makes restarts continue the shard's journal; on the
            // first launch the journal does not exist yet and --resume is a
            // no-op.
            cmd.arg("--resume");
            cmd.arg("--shard").arg(format!("{i}/{shards}"));
            cmd.arg("--sched")
                .arg(if parsed.sched { "on" } else { "off" });
            if let Some(n) = parsed.max_unit_weight {
                cmd.arg("--max-unit-weight").arg(n.to_string());
            }
            if let Some(dir) = &lease_dir {
                cmd.arg("--lease-dir").arg(dir);
                // Stamp claims with the launch generation so a restarted
                // shard's leases are distinguishable from its dead past
                // self's in post-mortems.
                cmd.arg("--launch").arg(launch.to_string());
            }
            if let Some(d) = parsed.unit_deadline {
                cmd.arg("--unit-deadline").arg(d.as_secs_f64().to_string());
            }
            cmd.arg("--retries").arg(parsed.retries.to_string());
            cmd.arg("--backoff-ms")
                .arg(parsed.backoff.as_millis().to_string());
            cmd.arg("--sync-batch").arg(parsed.sync_batch.to_string());
            // Fault injection reaches the first launch only — a restarted
            // shard must be allowed to finish, and the env var would otherwise
            // leak into every generation.
            cmd.env_remove("TM_SWEEP_FAIL_PLAN");
            if launch == 0 {
                if let Some(plan) = parsed.fail_plan {
                    let kind = match plan.kind {
                        tm_sweep::FailKind::Panic => "panic",
                        tm_sweep::FailKind::PanicOnce => "panic-once",
                        tm_sweep::FailKind::Exit => "exit",
                        tm_sweep::FailKind::Stall => "stall",
                    };
                    cmd.arg("--fail-plan")
                        .arg(format!("{kind}:{}", plan.after_units));
                }
            }
            cmd
        },
        on_poll,
    );
    if parsed.progress {
        let hb = if lease_dir.is_some() {
            Heartbeat::aggregate_shared(&dirs)
        } else {
            Heartbeat::aggregate(&dirs)
        };
        if let Some(hb) = hb {
            // A finished run renders ETA 0s regardless of the rate; a
            // budget-stopped one honestly shows `--`.
            eprintln!("\r{}", hb.progress_line(None));
        }
    }
    let runs = match runs {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("tm-cat: supervisor failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_finished = true;
    for run in &runs {
        println!(
            "shard {}: {} launch(es), final exit {:?}",
            run.index, run.launches, run.exit_code
        );
        if !run.finished() {
            all_finished = false;
            eprintln!(
                "tm-cat: shard {} never finished (last exit {:?})",
                run.index, run.exit_code
            );
        }
    }

    // Merge whatever the shards journalled — even a shard that never
    // finished contributes its completed units.
    let model = match load_or_exit(&parsed.path) {
        Ok(m) => m,
        Err(code) => return code,
    };
    let baseline = match &parsed.baseline_path {
        Some(path) => match load_or_exit(path) {
            Ok(m) => Some(m),
            Err(code) => return code,
        },
        None => None,
    };
    let config = match parse_config(&parsed.config_name, parsed.events) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("tm-cat: {msg}");
            return ExitCode::from(2);
        }
    };
    let reference = parsed.expect.map(|t| t.model());
    let job = SweepJob {
        model: &model,
        baseline: baseline.as_ref().map(|b| b as &dyn MemoryModel),
        reference: reference.as_deref(),
        mode: if parsed.suites {
            SweepMode::Suites
        } else {
            SweepMode::Counts
        },
        config: &config,
        events: parsed.events,
        symmetry: parsed.symmetry,
    };
    match merge_sharded(&job, &dirs) {
        Ok(outcome) => {
            if let Some(path) = &parsed.report {
                if let Err(e) = write_report(path, &job, &outcome, &Obs::disabled()) {
                    eprintln!("tm-cat: cannot write report {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!("report written to {}", path.display());
            }
            let code = report_outcome(parsed, &outcome, start.elapsed().as_secs_f64());
            if !all_finished && code == 0 {
                // A shard that crashed out entirely means unknown coverage
                // even if every *journalled* unit completed.
                return ExitCode::from(EXIT_PARTIAL);
            }
            ExitCode::from(code)
        }
        Err(e) => {
            eprintln!("tm-cat: merge failed: {e}");
            ExitCode::from(2)
        }
    }
}
