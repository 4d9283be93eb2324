//! `tm-perfbench`: the repository benchmark.
//!
//! ```text
//! tm-perfbench --workload W --seed N --seconds S --trace 0|1 [--size N]
//! tm-perfbench rep --workload W --seed N --size N [--traced]
//! tm-perfbench gen-answers
//! ```
//!
//! The first form is the benchmark: for `S` seconds it runs repetitions of
//! workload `W`, each in a fresh child process (the second form) with one
//! enumeration worker, and prints one JSON result as its last line — the
//! end-to-end metrics (medians over the repetitions) with `--trace 0`, the
//! per-layer metrics of traced repetitions with `--trace 1`. Between
//! repetitions it times a fixed reference kernel (`calib.rs`), and it
//! reports every time scaled to the kernel's reference speed. The third form
//! regenerates the known answers by an independent path. See README.md.

mod answers;
mod calib;
mod measure;
mod oracle;
mod trace;
mod workloads;

use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use tm_obs::Json;

use crate::measure::median;
use crate::workloads::default_size;

/// End-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("makespan_s", "s"),
    ("execs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, `(name, unit)`, as `BENCHMARK.json` lists them. A
/// workload that does not use a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("cat.load_s", "s"),
    ("cat.ir_nodes", "count"),
    ("models.catalog_s", "s"),
    ("sweep.setup_s", "s"),
    ("sweep.run_s", "s"),
    ("sweep.assemble_s", "s"),
    ("sweep.offcpu_s", "s"),
    ("sweep.units", "count"),
    ("sweep.presplits", "count"),
    ("sweep.unit_ms.p50", "ms"),
    ("sweep.unit_ms.tail", "ms"),
    ("sweep.journal_records", "count"),
    ("sweep.journal_bytes", "B"),
    ("sweep.retries", "count"),
    ("sweep.quarantined", "count"),
    ("synth.visited", "count"),
    ("synth.covered", "count"),
    ("synth.covered_per_visited", "ratio"),
    ("synth.kills.shape", "count"),
    ("synth.kills.subtree", "count"),
    ("synth.kills.edge", "count"),
    ("synth.enum_self_s", "s"),
    ("check.advance_calls", "count"),
    ("check.advance_s", "s"),
    ("check.queries", "count"),
    ("check.query_s", "s"),
    ("check.maintained", "count"),
    ("check.rebased", "count"),
    ("check.dropped", "count"),
    ("check.resets", "count"),
    ("check.axiom_queries", "count"),
    ("check.axiom_cache_hits", "count"),
    ("check.early_exits", "count"),
    ("check.cache_hit_frac", "frac"),
    ("check.maintained_frac", "frac"),
    ("suite.probes", "count"),
    ("suite.probe_s", "s"),
    ("suite.forbid", "count"),
    ("suite.allow", "count"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.forbid_seen", "count"),
    ("sim.allow_seen", "count"),
    ("sim.allow_seen_frac", "frac"),
    ("meta.monotonicity_s", "s"),
    ("meta.compilation_s", "s"),
    ("meta.elision_s", "s"),
    ("meta.theorems_s", "s"),
    ("meta.checked", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Repetitions of each kind a run makes however short `--seconds` is, so
/// every reported median has at least this many samples.
const MIN_REPS: usize = 3;

/// After a repetition the reference kernel runs once per this many seconds
/// the repetition took (at least once, at most [`MAX_KERNEL_RUNS`] times):
/// about 5% of the run, however long the workload's repetitions are.
const SECONDS_PER_KERNEL_RUN: f64 = 2.0;

/// The most kernel runs between two repetitions, and the number before the
/// first, whose length is not known yet.
const MAX_KERNEL_RUNS: usize = 4;

/// The benchmark's own directory (this package).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root, where `models/` lives.
pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .expect("the benchmark sits inside the repository")
}

const USAGE: &str = "usage:
  tm-perfbench --workload W --seed N --seconds S --trace 0|1 [--size N]
  tm-perfbench rep --workload W --seed N --size N [--traced]
  tm-perfbench gen-answers
workloads: counts-x86, table1-power, table2";

/// Parsed `--flag value` pairs and bare `--flag`s.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            if bare.contains(&flag.as_str()) {
                out.push((flag.clone(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                out.push((flag.clone(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(f, _)| f == flag) {
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value `{v}` for {flag}")),
            _ => Ok(None),
        }
    }

    fn need<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?.ok_or_else(|| format!("missing {flag}"))
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !allowed.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

fn workload_and_size(flags: &Flags) -> Result<(String, usize), String> {
    let workload: String = flags.need("--workload")?;
    let default =
        default_size(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let size = flags.get("--size")?.unwrap_or(default);
    Ok((workload, size))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("rep") => rep(&args[1..]),
        Some("gen-answers") => gen_answers(&args[1..]),
        _ => bench(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("tm-perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("tm-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

enum Failure {
    Usage(String),
    Run(String),
}

fn gen_answers(args: &[String]) -> Result<(), Failure> {
    Flags::parse(args, &[])
        .and_then(|flags| flags.only(&[]))
        .map_err(Failure::Usage)?;
    oracle::generate().map_err(Failure::Run)
}

/// One repetition, in this (child) process: prints one JSON line.
fn rep(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse(args, &["--traced"]).map_err(Failure::Usage)?;
    flags
        .only(&["--workload", "--seed", "--size", "--traced"])
        .map_err(Failure::Usage)?;
    let (workload, size) = workload_and_size(&flags).map_err(Failure::Usage)?;
    let seed: u64 = flags.need("--seed").map_err(Failure::Usage)?;
    let traced = flags.has("--traced");

    let r = workloads::run(&workload, size, seed, traced).map_err(Failure::Run)?;
    let peak_rss_mib = measure::peak_rss_mib();
    if traced {
        let dir = bench_dir().join("out");
        let path = dir.join(format!("{workload}.spans.json"));
        let doc = Json::obj(vec![
            ("workload", Json::Str(workload.clone())),
            ("seed", Json::u64(seed)),
            ("size", Json::u64(size as u64)),
            ("pid", Json::u64(u64::from(std::process::id()))),
            ("spans", r.spans.to_json()),
        ]);
        fs::create_dir_all(&dir)
            .and_then(|()| fs::write(&path, doc.render_pretty()))
            .map_err(|e| Failure::Run(format!("{}: {e}", path.display())))?;
    }
    let line = Json::obj(vec![
        ("setup_s", Json::Num(r.setup_s)),
        ("makespan_s", Json::Num(r.makespan_s)),
        ("covered", Json::u64(r.covered)),
        ("cpu_s", Json::Num(r.cpu_s)),
        ("peak_rss_mib", Json::Num(peak_rss_mib)),
        ("checks", Json::u64(r.checks.total() as u64)),
        ("passed", Json::u64(r.checks.passed() as u64)),
        (
            "failures",
            Json::Arr(
                r.checks
                    .failures()
                    .into_iter()
                    .map(|f| Json::Str(f.to_string()))
                    .collect(),
            ),
        ),
        ("notes", Json::Obj(r.notes)),
        (
            "layers",
            Json::Obj(
                r.layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render_compact());
    Ok(())
}

/// Runs one repetition in a fresh child process and parses its line.
fn spawn_rep(workload: &str, seed: u64, size: usize, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--size", &size.to_string()])
        .env("TM_SYNTH_THREADS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("repetition printed no result ({e})"))
}

fn num(rep: &Json, key: &str) -> f64 {
    rep.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("repetition result lacks `{key}`"))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The benchmark proper: repetitions for `--seconds`, then the result.
fn bench(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse(args, &[]).map_err(Failure::Usage)?;
    flags
        .only(&["--workload", "--seed", "--seconds", "--trace", "--size"])
        .map_err(Failure::Usage)?;
    let (workload, size) = workload_and_size(&flags).map_err(Failure::Usage)?;
    let seed: u64 = flags.need("--seed").map_err(Failure::Usage)?;
    let seconds: u64 = flags.need("--seconds").map_err(Failure::Usage)?;
    let trace = match flags.need::<u8>("--trace").map_err(Failure::Usage)? {
        0 => false,
        1 => true,
        t => return Err(Failure::Usage(format!("--trace must be 0 or 1, not {t}"))),
    };

    let start = Instant::now();
    // Every repetition is kept with its scale: the reference kernel's
    // reference time over its time around the repetition (`calib.rs`).
    // The kernel's runs before the first repetition also warm the CPU up.
    let (mut plain, mut traced): (Vec<(Json, f64)>, Vec<(Json, f64)>) = (Vec::new(), Vec::new());
    let mut walls = Vec::new();
    let mut kernel_s = vec![calib::sample(MAX_KERNEL_RUNS)];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut checks, mut passed) = (0.0, 0.0);
    let mut failures: Vec<Json> = Vec::new();
    let mut notes = Json::Null;
    loop {
        // Every repetition is timed; a traced run alternates untraced and
        // traced repetitions, so both see the same conditions.
        let traced_turn = trace && traced.len() < plain.len();
        let rep_start = Instant::now();
        attempted += 1;
        // A repetition that crashes is a failure of the program: the run
        // ends without a result.
        let r = spawn_rep(&workload, seed, size, traced_turn).map_err(|e| {
            Failure::Run(format!("{workload}: repetition {attempted}: {e}"))
        })?;
        // The kernel runs right before and right after each repetition;
        // the geometric mean of the two medians stands for the machine's
        // speed during it.
        let runs = (rep_start.elapsed().as_secs_f64() / SECONDS_PER_KERNEL_RUN).ceil() as usize;
        let before = kernel_s[kernel_s.len() - 1];
        let after = calib::sample(runs.clamp(1, MAX_KERNEL_RUNS));
        kernel_s.push(after);
        let scale = calib::REFERENCE_S / (before * after).sqrt();

        checks += num(&r, "checks");
        passed += num(&r, "passed");
        let rep_failures = r.get("failures").and_then(Json::as_arr).unwrap_or_default();
        if !rep_failures.is_empty() {
            failed += 1;
        }
        for f in rep_failures {
            if !failures.contains(f) {
                failures.push(f.clone());
            }
        }
        if let Some(n) = r.get("notes") {
            notes = n.clone();
        }
        if let Some(Json::Obj(layers)) = r.get("layers") {
            if let Some((name, _)) = layers
                .iter()
                .find(|(name, _)| !PER_LAYER.iter().any(|&(n, _)| n == name))
            {
                return Err(Failure::Run(format!("unlisted per-layer metric `{name}`")));
            }
        }
        if traced_turn {
            traced.push((r, scale));
        } else {
            plain.push((r, scale));
        }
        walls.push(rep_start.elapsed().as_secs_f64());
        let enough = plain.len() >= MIN_REPS && (!trace || traced.len() >= MIN_REPS);
        // Start another repetition only if it would likely end less than
        // half a repetition past the budget, so runs last `--seconds` on
        // average.
        if enough && start.elapsed().as_secs_f64() + median(&walls) / 2.0 > seconds as f64 {
            break;
        }
    }

    // Measured values, and the same at the reference speed.
    let raw = |reps: &[(Json, f64)], key: &str| -> Vec<f64> {
        reps.iter().map(|(r, _)| num(r, key)).collect()
    };
    let scaled = |reps: &[(Json, f64)], key: &str| -> Vec<f64> {
        reps.iter().map(|(r, scale)| num(r, key) * scale).collect()
    };
    let execs_per_s: Vec<f64> = plain
        .iter()
        .map(|(r, scale)| num(r, "covered") / (num(r, "makespan_s") * scale))
        .collect();

    let metrics = if trace {
        let plain_makespan = median(&scaled(&plain, "makespan_s"));
        let traced_makespan = median(&scaled(&traced, "makespan_s"));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_frac" {
                    traced_makespan / plain_makespan - 1.0
                } else {
                    let samples: Vec<f64> = traced
                        .iter()
                        .map(|(r, scale)| {
                            let v = r
                                .get("layers")
                                .and_then(|l| l.get(name))
                                .and_then(Json::as_f64)
                                .unwrap_or(0.0);
                            if matches!(unit, "s" | "ms") {
                                v * scale
                            } else {
                                v
                            }
                        })
                        .collect();
                    median(&samples)
                };
                (name.to_string(), metric(value, unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "execs_per_s" => median(&execs_per_s),
                    "ok_frac" => passed / checks,
                    "peak_rss_mib" => median(&raw(&plain, name)),
                    _ => median(&scaled(&plain, name)),
                };
                (name.to_string(), metric(value, unit))
            })
            .collect()
    };

    // The record of the run, then the result as the last line. The record
    // keeps the measured (unscaled) samples and each repetition's scale.
    let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    let samples = |reps: &[(Json, f64)]| {
        Json::obj(vec![
            ("n", Json::u64(reps.len() as u64)),
            ("setup_s", nums(raw(reps, "setup_s"))),
            ("makespan_s", nums(raw(reps, "makespan_s"))),
            ("cpu_s", nums(raw(reps, "cpu_s"))),
            ("scale", nums(reps.iter().map(|&(_, s)| s).collect())),
        ])
    };
    let record = Json::obj(vec![
        ("benchmark", Json::Str("tm-perfbench".into())),
        ("workload", Json::Str(workload.clone())),
        ("seed", Json::u64(seed)),
        ("size", Json::u64(size as u64)),
        ("seconds", Json::u64(seconds)),
        ("machine", measure::machine()),
        ("reference_s", Json::Num(calib::REFERENCE_S)),
        ("kernel_s", nums(kernel_s)),
        ("untraced", samples(&plain)),
        ("traced", samples(&traced)),
        ("notes", notes),
        ("failures", Json::Arr(failures)),
    ]);
    println!("{}", record.render_compact());
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && passed == checks)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render_compact());
    Ok(())
}
