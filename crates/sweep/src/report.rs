//! The machine-readable end-of-run report (`sweep.report.json`), live
//! heartbeat files, and the progress line built from them.
//!
//! The report is journal-adjacent truth: its `per_unit` array lists
//! exactly the units the journal records as completed (reused ones
//! included), so an operator can reconcile a report against its
//! checkpoint byte for byte. Heartbeats are tiny JSON files rewritten
//! atomically every few hundred milliseconds; the shard supervisor sums
//! them across checkpoint directories into one progress line.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use tm_obs::{Json, Obs};

use crate::runner::{SweepJob, SweepMode, SweepOutcome, SweepStatus};

/// Schema tag of `sweep.report.json`.
pub const REPORT_SCHEMA: &str = "tm-sweep-report/v1";

/// Name of the heartbeat file inside a checkpoint directory.
pub const HEARTBEAT_FILE: &str = "sweep.heartbeat.json";

/// Width of the sliding window (seconds) the progress ETA extrapolates
/// from. A run younger than two windows shows `--` instead of a number:
/// LPT dispatch front-loads the heaviest units, so early whole-run
/// averages are systematically wrong in both directions.
pub const ETA_WINDOW_SECS: f64 = 30.0;

/// How many units the report's `slowest_units` array keeps.
pub const SLOWEST_UNITS: usize = 10;

/// Builds the end-of-run report as a JSON document.
///
/// `obs` contributes the metrics-registry snapshot; pass a disabled handle
/// and the `metrics` member is simply the registry that handle carries
/// (counters run even when observability is off).
pub fn report_json(job: &SweepJob<'_>, outcome: &SweepOutcome, obs: &Obs) -> Json {
    let status = match outcome.status {
        SweepStatus::Complete => "complete",
        SweepStatus::Partial => "partial",
        SweepStatus::BudgetExhausted => "budget-exhausted",
    };
    let mode = match job.mode {
        SweepMode::Counts => "counts",
        SweepMode::Suites => "suites",
    };
    let opt_name = |m: Option<&dyn tm_models::MemoryModel>| match m {
        Some(m) => Json::Str(m.name().to_string()),
        None => Json::Null,
    };

    let timings = Json::obj(vec![
        ("setup_seconds", Json::Num(outcome.timings.setup_seconds)),
        ("run_seconds", Json::Num(outcome.timings.run_seconds)),
        (
            "assemble_seconds",
            Json::Num(outcome.timings.assemble_seconds),
        ),
        ("total_seconds", Json::Num(outcome.timings.total_seconds)),
    ]);

    let units = Json::obj(vec![
        ("total", Json::u64(outcome.total_units as u64)),
        ("completed", Json::u64(outcome.completed_units as u64)),
        ("reused", Json::u64(outcome.reused_units as u64)),
        ("fresh", Json::u64(outcome.fresh_units as u64)),
        ("pending", Json::u64(outcome.pending_units as u64)),
        ("quarantined", Json::u64(outcome.quarantined.len() as u64)),
        ("retried_attempts", Json::u64(outcome.retried_attempts)),
    ]);

    let executions = Json::obj(vec![
        ("visited", Json::u64(outcome.visited)),
        ("consistent", Json::u64(outcome.consistent)),
        ("drift", Json::u64(outcome.drift)),
        ("weighted_visited", Json::u64(outcome.weighted_visited)),
        (
            "weighted_consistent",
            Json::u64(outcome.weighted_consistent),
        ),
    ]);

    // A log2 histogram of fresh per-unit durations, in microseconds.
    let hist = tm_obs::Histogram::detached();
    for u in outcome.per_unit.iter().filter(|u| !u.reused) {
        hist.record((u.seconds * 1e6) as u64);
    }
    let unit_histogram = Json::obj(vec![
        ("unit", Json::Str("micros".to_string())),
        ("count", Json::u64(hist.count())),
        ("sum", Json::u64(hist.sum())),
        ("max", Json::u64(hist.max())),
        (
            "buckets",
            Json::Arr(
                hist.buckets()
                    .into_iter()
                    .map(|(lo, n)| Json::Arr(vec![Json::u64(lo), Json::u64(n)]))
                    .collect(),
            ),
        ),
    ]);

    let mut slowest: Vec<&crate::runner::UnitReport> =
        outcome.per_unit.iter().filter(|u| !u.reused).collect();
    slowest.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then(a.unit_id.cmp(&b.unit_id))
    });
    slowest.truncate(SLOWEST_UNITS);
    let slowest_units = Json::Arr(
        slowest
            .iter()
            .map(|u| {
                Json::obj(vec![
                    ("unit", Json::hex(u.unit_id)),
                    ("label", Json::Str(u.label.clone())),
                    ("events", Json::u64(u.events as u64)),
                    ("seconds", Json::Num(u.seconds)),
                    ("visited", Json::u64(u.visited)),
                ])
            })
            .collect(),
    );

    // Symmetry effectiveness over the units actually expanded this run
    // (replayed units carry no kill counters in the journal).
    let symmetry = if job.symmetry.is_reduced() && outcome.fresh_units > 0 {
        let p = &outcome.prune;
        let ratio = if p.representatives > 0 {
            p.weighted as f64 / p.representatives as f64
        } else {
            0.0
        };
        Json::obj(vec![
            ("fresh_representatives", Json::u64(p.representatives as u64)),
            ("fresh_weighted", Json::u64(p.weighted)),
            ("orbit_ratio", Json::Num(ratio)),
            ("shape_kills", Json::u64(p.shape_kills)),
            ("subtree_kills", Json::u64(p.subtree_kills)),
            ("edge_kills", Json::u64(p.edge_kills)),
        ])
    } else {
        Json::Null
    };

    let maintenance = match &outcome.checker {
        Some(t) => Json::obj(vec![
            ("maintained", Json::u64(t.stats.maintained)),
            ("rebased", Json::u64(t.stats.rebased)),
            ("dropped", Json::u64(t.stats.dropped)),
            ("invalidated", Json::u64(t.stats.invalidated)),
            ("resets", Json::u64(t.stats.resets)),
            ("fix_reevals", Json::u64(t.stats.fix_reevals)),
            ("axiom_queries", Json::u64(t.stats.axiom_queries)),
            ("axiom_cache_hits", Json::u64(t.stats.axiom_cache_hits)),
            ("early_exits", Json::u64(t.early_exits)),
        ]),
        None => Json::Null,
    };

    let per_unit = Json::Arr(
        outcome
            .per_unit
            .iter()
            .map(|u| {
                Json::obj(vec![
                    ("unit", Json::hex(u.unit_id)),
                    ("label", Json::Str(u.label.clone())),
                    ("events", Json::u64(u.events as u64)),
                    ("reused", Json::Bool(u.reused)),
                    ("seconds", Json::Num(u.seconds)),
                    ("attempts", Json::u64(u.attempts as u64)),
                    ("visited", Json::u64(u.visited)),
                    ("weighted_visited", Json::u64(u.weighted_visited)),
                ])
            })
            .collect(),
    );

    Json::obj(vec![
        ("schema", Json::Str(REPORT_SCHEMA.to_string())),
        ("fingerprint", Json::hex(job.fingerprint())),
        ("model", Json::Str(job.model.name().to_string())),
        ("baseline", opt_name(job.baseline)),
        ("reference", opt_name(job.reference)),
        ("mode", Json::Str(mode.to_string())),
        ("events", Json::u64(job.events as u64)),
        ("symmetry", Json::Str(job.symmetry.to_string())),
        ("status", Json::Str(status.to_string())),
        ("timings", timings),
        ("units", units),
        ("executions", executions),
        ("unit_seconds_histogram", unit_histogram),
        ("slowest_units", slowest_units),
        ("symmetry_effectiveness", symmetry),
        ("maintenance", maintenance),
        ("per_unit", per_unit),
        ("metrics", obs.registry().to_json()),
    ])
}

/// Renders and writes the report, atomically (temp file + rename).
pub fn write_report(
    path: &Path,
    job: &SweepJob<'_>,
    outcome: &SweepOutcome,
    obs: &Obs,
) -> io::Result<()> {
    let text = report_json(job, outcome, obs).render_pretty();
    write_atomic(path, text.as_bytes())
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = match path.file_name() {
        Some(name) => path.with_file_name(format!(".{}.tmp", name.to_string_lossy())),
        None => return Err(io::Error::other("report path has no file name")),
    };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// A point-in-time progress snapshot — what a running sweep writes next to
/// its journal and what the supervisor sums across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Heartbeat {
    /// Units completed (reused ones included).
    pub done: u64,
    /// Units in this run's slice of the space.
    pub total: u64,
    /// Units completed by this run (excludes reused).
    pub fresh: u64,
    /// Executions visited by fresh units (canonical representatives).
    pub visited: u64,
    /// Orbit-weighted visit count of fresh units.
    pub weighted: u64,
    /// Work-unit splits this run performed (pre-splits and cooperative
    /// splits of in-flight units).
    pub splits: u64,
    /// Child units handed back to the frontier by cooperative splits —
    /// in-process steals answered.
    pub steals: u64,
    /// Seconds since the run started.
    pub elapsed_seconds: f64,
}

impl Heartbeat {
    /// Serialises to the on-disk JSON shape.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("tm-sweep-heartbeat/v1".to_string())),
            ("done", Json::u64(self.done)),
            ("total", Json::u64(self.total)),
            ("fresh", Json::u64(self.fresh)),
            ("visited", Json::u64(self.visited)),
            ("weighted", Json::u64(self.weighted)),
            ("splits", Json::u64(self.splits)),
            ("steals", Json::u64(self.steals)),
            ("elapsed_seconds", Json::Num(self.elapsed_seconds)),
        ])
    }

    /// Writes into `dir` atomically; errors are swallowed (a heartbeat is
    /// advisory — losing one must never fail a sweep).
    pub(crate) fn write(&self, dir: &Path) {
        let _ = write_atomic(
            &dir.join(HEARTBEAT_FILE),
            self.to_json().render_pretty().as_bytes(),
        );
    }

    /// Reads the heartbeat of a checkpoint directory, if one is there and
    /// parses.
    pub fn read(dir: &Path) -> Option<Heartbeat> {
        let text = std::fs::read_to_string(dir.join(HEARTBEAT_FILE)).ok()?;
        let json = Json::parse(&text).ok()?;
        Some(Heartbeat {
            done: json.get("done")?.as_u64()?,
            total: json.get("total")?.as_u64()?,
            fresh: json.get("fresh")?.as_u64()?,
            visited: json.get("visited")?.as_u64()?,
            weighted: json.get("weighted")?.as_u64()?,
            // Absent in heartbeats written before the scheduler existed.
            splits: json.get("splits").and_then(Json::as_u64).unwrap_or(0),
            steals: json.get("steals").and_then(Json::as_u64).unwrap_or(0),
            elapsed_seconds: json.get("elapsed_seconds")?.as_f64()?,
        })
    }

    /// Sums the heartbeats of several shard checkpoints (missing or
    /// unparsable ones contribute nothing; elapsed is the max). `None`
    /// when no directory has a heartbeat yet. Each shard reports its own
    /// slice of the space, so the totals sum.
    pub fn aggregate(dirs: &[PathBuf]) -> Option<Heartbeat> {
        let mut sum = Heartbeat::default();
        let mut seen = false;
        for dir in dirs {
            if let Some(hb) = Heartbeat::read(dir) {
                seen = true;
                sum.done += hb.done;
                sum.total += hb.total;
                sum.fresh += hb.fresh;
                sum.visited += hb.visited;
                sum.weighted += hb.weighted;
                sum.splits += hb.splits;
                sum.steals += hb.steals;
                sum.elapsed_seconds = sum.elapsed_seconds.max(hb.elapsed_seconds);
            }
        }
        seen.then_some(sum)
    }

    /// The live stderr progress line:
    /// `sweep: D/T units (P%) | R execs/s | ETA E`.
    ///
    /// `unit_rate` is a sliding-window completion rate in units/second
    /// (see [`tm_obs::RateWindow`] and [`ETA_WINDOW_SECS`]); `None` — the
    /// run is younger than two windows — renders the ETA as `--` rather
    /// than extrapolating from thin evidence.
    pub fn progress_line(&self, unit_rate: Option<f64>) -> String {
        let pct = if self.total > 0 {
            100.0 * self.done as f64 / self.total as f64
        } else {
            100.0
        };
        let rate = if self.elapsed_seconds > 0.0 {
            self.visited as f64 / self.elapsed_seconds
        } else {
            0.0
        };
        let eta = if self.done >= self.total {
            "0s".to_string()
        } else {
            match unit_rate {
                Some(r) if r > 0.0 => format_eta((self.total - self.done) as f64 / r),
                _ => "--".to_string(),
            }
        };
        format!(
            "sweep: {}/{} units ({:.0}%) | {} execs/s | ETA {}",
            self.done,
            self.total,
            pct,
            format_rate(rate),
            eta
        )
    }
}

fn format_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.0}k", rate / 1e3)
    } else {
        format!("{:.0}", rate)
    }
}

fn format_eta(seconds: f64) -> String {
    let s = seconds.ceil() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeats_round_trip_and_aggregate() {
        let base = std::env::temp_dir().join("tm-sweep-heartbeat-test");
        let dirs = [base.join("shard-0"), base.join("shard-1")];
        for d in &dirs {
            std::fs::create_dir_all(d).unwrap();
        }
        Heartbeat {
            done: 3,
            total: 10,
            fresh: 2,
            visited: 100,
            weighted: 400,
            splits: 1,
            steals: 2,
            elapsed_seconds: 1.5,
        }
        .write(&dirs[0]);
        Heartbeat {
            done: 5,
            total: 10,
            fresh: 5,
            visited: 250,
            weighted: 900,
            splits: 0,
            steals: 0,
            elapsed_seconds: 2.0,
        }
        .write(&dirs[1]);
        let sum = Heartbeat::aggregate(dirs.as_ref()).expect("two heartbeats");
        assert_eq!(sum.done, 8);
        assert_eq!(sum.total, 20);
        assert_eq!(sum.visited, 350);
        assert_eq!(sum.splits, 1);
        assert_eq!(sum.steals, 2);
        assert_eq!(sum.elapsed_seconds, 2.0);
        let line = sum.progress_line(Some(4.0));
        assert!(
            line.starts_with("sweep: 8/20 units (40%) | 175 execs/s | ETA 3s"),
            "unexpected line: {line}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn progress_line_handles_the_empty_start() {
        let hb = Heartbeat {
            total: 504,
            ..Heartbeat::default()
        };
        assert_eq!(
            hb.progress_line(None),
            "sweep: 0/504 units (0%) | 0 execs/s | ETA --"
        );
    }

    /// A heartbeat file from before the scheduler (no splits/steals keys)
    /// still parses.
    #[test]
    fn pre_scheduler_heartbeats_still_read() {
        let dir = std::env::temp_dir().join("tm-sweep-heartbeat-old");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(HEARTBEAT_FILE),
            r#"{"schema":"tm-sweep-heartbeat/v1","done":2,"total":9,"fresh":2,
               "visited":50,"weighted":50,"elapsed_seconds":0.5}"#,
        )
        .unwrap();
        let hb = Heartbeat::read(&dir).expect("parses");
        assert_eq!((hb.done, hb.total, hb.splits, hb.steals), (2, 9, 0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
