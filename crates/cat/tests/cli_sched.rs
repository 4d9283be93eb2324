//! End-to-end tests of sharding and scheduling through the real `tm-cat`
//! binary: a static shard SIGKILLed in the middle of a unit resumes from its
//! own checkpoint under `--supervise`, the final suites are byte-identical
//! to an unsharded run, and the removed lease and dispatch flags are refused.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use tm_sweep::Heartbeat;

const BIN: &str = env!("CARGO_BIN_EXE_tm-cat");

/// Repo-root model files, relative to this crate's directory (the test
/// CWD).
const TM_MODEL: &str = "../../models/x86_tm.cat";
const BASE_MODEL: &str = "../../models/x86.cat";

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-cat-cli-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Scratch(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sweep(extra: &[&str]) -> Output {
    Command::new(BIN)
        .args([
            "sweep",
            TM_MODEL,
            "--suites",
            "--baseline",
            BASE_MODEL,
            "--events",
            "3",
            "--config",
            "x86",
        ])
        .args(extra)
        .env_remove("TM_SWEEP_FAIL_PLAN")
        .output()
        .expect("spawn tm-cat")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The suite summary plus every litmus program after it — the part of the
/// output that must be identical between scheduled and unscheduled runs.
/// The trailing `summary:` line is dropped: it carries run-specific timings
/// and unit counts by design.
fn suites_section(out: &Output) -> String {
    let text = stdout(out);
    let section = match text.find("\nforbid ") {
        Some(at) => &text[at..],
        None => panic!("no forbid line in output:\n{text}"),
    };
    let mut kept = String::new();
    for line in section.lines() {
        if line.starts_with("summary: ") {
            continue;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    kept
}

/// The `K` of every `units: ... (K reused from checkpoint)` line: one per
/// shard child, plus the supervisor's merged line.
fn reused_counts(out: &Output) -> Vec<u64> {
    stdout(out)
        .lines()
        .filter(|line| line.starts_with("units: "))
        .filter_map(|line| {
            let (before, _) = line.split_once(" reused from checkpoint")?;
            before.rsplit('(').next()?.parse().ok()
        })
        .collect()
}

/// The headline crash-tolerance story, end to end: static shard 0 is
/// SIGKILLed *in the middle of a unit* (a stall fail-plan pins its second
/// claimed unit, so the kill cannot land between units). A supervised run
/// over the same checkpoint resumes shard 0 from its journal, runs shard 1,
/// and merges them into suites byte-identical to a clean run.
#[test]
fn sigkilled_static_shard_resumes_under_supervision() {
    let clean = sweep(&[]);
    assert_eq!(clean.status.code(), Some(0));
    let clean_suites = suites_section(&clean);

    let dir = Scratch::new("sigkill");
    let ckpt = dir.path();
    let shard0 = ckpt.join("shard-0");

    // Launch shard 0 the way the supervisor would, but with a stall plan:
    // its second claimed unit never finishes.
    let mut child = Command::new(BIN)
        .args([
            "sweep",
            TM_MODEL,
            "--suites",
            "--baseline",
            BASE_MODEL,
            "--events",
            "3",
            "--config",
            "x86",
        ])
        .arg("--checkpoint")
        .arg(&shard0)
        .args(["--resume", "--shard", "0/2", "--fail-plan", "stall:2"])
        .env_remove("TM_SWEEP_FAIL_PLAN")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard 0");

    // Wait until its checkpoint shows a completed unit: the stalled unit
    // was claimed no later than right after it, so the shard is now inside
    // that unit. Then SIGKILL it.
    let deadline = Instant::now() + Duration::from_secs(60);
    while Heartbeat::read(&shard0).is_none_or(|hb| hb.fresh == 0) {
        assert!(
            Instant::now() < deadline,
            "shard 0 never completed a unit; did it crash on startup?"
        );
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "shard 0 exited before it could be killed"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL shard 0");
    let _ = child.wait();

    let out = sweep(&[
        "--checkpoint",
        ckpt.to_str().expect("utf8 temp path"),
        "--supervise",
        "2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        reused_counts(&out).iter().any(|&k| k > 0),
        "shard 0 must resume from the killed run's journal, stdout:\n{}",
        stdout(&out)
    );
    assert_eq!(
        suites_section(&out),
        clean_suites,
        "suites after a kill and a supervised resume must be byte-identical to a clean run"
    );
}

#[test]
fn scheduling_flag_misuse_exits_two() {
    let dir = Scratch::new("usage");
    let ckpt = dir.path().to_str().expect("utf8 temp path");

    // Cross-shard leases and the dispatch switch are gone: their flags are
    // unknown options.
    for (flag, value) in [
        ("--sched", "on"),
        ("--lease-dir", ckpt),
        ("--lease-stale-ms", "1"),
        ("--launch", "1"),
    ] {
        let out = sweep(&["--checkpoint", ckpt, flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option `{flag}`")),
            "{flag} must be an unknown option, stderr:\n{err}"
        );
    }

    // Scheduling knobs hang off the checkpointed runner.
    let out = sweep(&["--max-unit-weight", "100"]);
    assert_eq!(out.status.code(), Some(2));

    // A zero weight bound would split forever.
    let out = sweep(&["--checkpoint", ckpt, "--max-unit-weight", "0"]);
    assert_eq!(out.status.code(), Some(2));
}
