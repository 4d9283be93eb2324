//! End-to-end tests of `tm-cat sweep --checkpoint`: the exit-code contract
//! (0 ok / 1 drift / 2 usage / 3 partial / 42 injected crash), crash-then-
//! resume suite identity, supervised sharding, and counts that agree with
//! the in-memory sweep — all through the real binary, the way CI and
//! operators drive it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_tm-cat");

/// Repo-root model files, relative to this crate's directory (the test
/// CWD).
const TM_MODEL: &str = "../../models/x86_tm.cat";
const BASE_MODEL: &str = "../../models/x86.cat";

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-cat-cli-sweep-{tag}-{}", std::process::id()));
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
/// output that must be identical between interrupted and clean runs. The
/// trailing `summary:` line is dropped: it carries run-specific timings
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

/// A counts sweep of the x86-trimmed space (|E| <= 4).
fn counts_sweep(extra: &[&str]) -> Output {
    Command::new(BIN)
        .args([
            "sweep",
            TM_MODEL,
            "--config",
            "x86-trimmed",
            "--events",
            "4",
        ])
        .args(extra)
        .env_remove("TM_SWEEP_FAIL_PLAN")
        .output()
        .expect("spawn tm-cat")
}

/// What the in-memory and checkpointed counts sweeps must agree on: the
/// consistent/forbidden counts, the orbit-weighted line (symmetry on), and
/// the representatives/covered fields of the `summary:` line. Timings, the
/// header and the unit counts differ by design.
fn counts_profile(out: &Output) -> Vec<String> {
    let mut profile = Vec::new();
    for line in stdout(out).lines() {
        if line.starts_with("orbit-weighted: ") {
            profile.push(line.to_string());
        } else if let Some(rest) = line.strip_prefix("summary: ") {
            let fields: Vec<&str> = rest.split(", ").collect();
            profile.push(fields[1..3].join(", "));
        } else if line.ends_with(" forbidden") {
            let at = line
                .rfind(": ")
                .expect("`N executions: C consistent, F forbidden`");
            profile.push(line[at + 2..].to_string());
        }
    }
    profile
}

#[test]
fn in_memory_and_checkpointed_counts_sweeps_agree() {
    for symmetry in ["off", "on"] {
        let memory = counts_sweep(&["--symmetry", symmetry]);
        let dir = Scratch::new(&format!("counts-{symmetry}"));
        let ckpt = dir.path().to_str().expect("utf8 temp path");
        let checkpointed = counts_sweep(&["--symmetry", symmetry, "--checkpoint", ckpt]);
        for out in [&memory, &checkpointed] {
            assert_eq!(
                out.status.code(),
                Some(0),
                "stderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let profile = counts_profile(&memory);
        let expected_lines = if symmetry == "on" { 3 } else { 2 };
        assert_eq!(profile.len(), expected_lines, "{profile:?}");
        assert_eq!(
            profile,
            counts_profile(&checkpointed),
            "--symmetry {symmetry}: in-memory and checkpointed counts differ"
        );
    }
}

#[test]
fn crash_resume_reproduces_the_clean_suites_and_exit_codes() {
    let clean = sweep(&[]);
    assert_eq!(clean.status.code(), Some(0));
    let clean_suites = suites_section(&clean);
    assert!(
        clean_suites.starts_with("\nforbid 4 allow "),
        "Table 1 pins x86 |E|=3 Forbid at 4; got:\n{clean_suites}"
    );

    let dir = Scratch::new("crash-resume");
    let ckpt = dir.path().to_str().expect("utf8 temp path");
    let crashed = sweep(&["--checkpoint", ckpt, "--fail-plan", "exit:5"]);
    assert_eq!(
        crashed.status.code(),
        Some(42),
        "injected crash must exit with the injection code, stderr:\n{}",
        String::from_utf8_lossy(&crashed.stderr)
    );

    let resumed = sweep(&["--checkpoint", ckpt, "--resume"]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_out = stdout(&resumed);
    assert!(
        resumed_out.contains("reused from checkpoint"),
        "resume must report reuse:\n{resumed_out}"
    );
    assert_eq!(
        suites_section(&resumed),
        clean_suites,
        "resumed suites must be byte-identical to a clean run"
    );
}

#[test]
fn a_poisoned_unit_degrades_to_exit_three_but_still_reports() {
    let dir = Scratch::new("degraded");
    let ckpt = dir.path().to_str().expect("utf8 temp path");
    let out = sweep(&[
        "--checkpoint",
        ckpt,
        "--fail-plan",
        "panic:3",
        "--retries",
        "1",
        "--backoff-ms",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("quarantined unit"), "stderr:\n{err}");
    assert!(err.contains("DEGRADED"), "stderr:\n{err}");
    // The sweep still produced (degraded) suites rather than dying.
    assert!(
        stdout(&out).contains("\nforbid "),
        "stdout:\n{}",
        stdout(&out)
    );
}

#[test]
fn supervised_shards_match_the_unsharded_run_even_through_a_crash() {
    let clean = sweep(&[]);
    let clean_suites = suites_section(&clean);

    let dir = Scratch::new("supervised");
    let ckpt = dir.path().to_str().expect("utf8 temp path");
    let out = sweep(&[
        "--checkpoint",
        ckpt,
        "--supervise",
        "2",
        "--fail-plan",
        "exit:3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(
        text.contains("2 launch(es)"),
        "the injected crash must force at least one shard restart:\n{text}"
    );
    assert_eq!(suites_section(&out), clean_suites);
}

#[test]
fn usage_and_io_errors_exit_two() {
    // Unknown options, `--incremental` among them: every sweep drives the
    // model's incremental checker, so the flag is gone.
    for flag in ["--definitely-not-a-flag", "--incremental"] {
        let out = sweep(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }

    // Checkpoint knobs without --checkpoint.
    let out = sweep(&["--resume"]);
    assert_eq!(out.status.code(), Some(2));

    // Bad shard spec.
    let dir = Scratch::new("usage");
    let ckpt = dir.path().to_str().expect("utf8 temp path");
    let out = sweep(&["--checkpoint", ckpt, "--shard", "2/2"]);
    assert_eq!(out.status.code(), Some(2));

    // An event bound past the relation width is refused up front.
    let out = sweep(&["--events", "17"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("exceeds the limit of 16"),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Unreadable model file is an IO error, not a verdict.
    let out = Command::new(BIN)
        .args(["sweep", "/nonexistent/model.cat", "--events", "2"])
        .output()
        .expect("spawn tm-cat");
    assert_eq!(out.status.code(), Some(2));

    // Re-running without --resume refuses to clobber the journal.
    let dir = Scratch::new("noclobber");
    let ckpt = dir.path().to_str().expect("utf8 temp path");
    let first = sweep(&["--checkpoint", ckpt]);
    assert_eq!(first.status.code(), Some(0));
    let second = sweep(&["--checkpoint", ckpt]);
    assert_eq!(second.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("--resume"),
        "stderr:\n{}",
        String::from_utf8_lossy(&second.stderr)
    );
}

#[test]
fn fail_plan_reaches_the_runner_through_the_environment_too() {
    let dir = Scratch::new("env-plan");
    let ckpt = dir.path().to_str().expect("utf8 temp path");
    let out = Command::new(BIN)
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
            "--checkpoint",
            ckpt,
        ])
        .env("TM_SWEEP_FAIL_PLAN", "exit:2")
        .output()
        .expect("spawn tm-cat");
    assert_eq!(out.status.code(), Some(42));
}
