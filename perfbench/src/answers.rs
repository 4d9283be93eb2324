//! Known answers: the results each workload must reproduce, committed
//! beside the benchmark in `answers/<workload>.json`.
//!
//! The sweep answers were generated once by `tm-perfbench gen-answers`
//! (see `oracle.rs`), a path that shares no enumeration, checking or
//! sweep code with the pipelines the benchmark times. The table2 answers
//! are the verdicts the paper states, transcribed by hand.

use std::fs;

use tm_obs::Json;

/// Reads `answers/<workload>.json`.
pub fn load(workload: &str) -> Result<Json, String> {
    let path = crate::bench_dir()
        .join("answers")
        .join(format!("{workload}.json"));
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The entry of `answers["sizes"]` whose `"events"` is `events`.
pub fn size_entry(answers: &Json, events: usize) -> Option<&Json> {
    answers
        .get("sizes")?
        .as_arr()?
        .iter()
        .find(|e| e.get("events").and_then(Json::as_u64) == Some(events as u64))
}

/// The named known-answer checks of one repetition.
#[derive(Default)]
pub struct Checks {
    results: Vec<(String, bool)>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.results.push((name.into(), ok));
    }

    /// Checks made.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Checks that passed.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|(_, ok)| *ok).count()
    }

    /// The names of the checks that failed.
    pub fn failures(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| name.as_str())
            .collect()
    }
}
