//! `tm-perfbench gen-answers`: the independent path that generated the
//! committed sweep answers. It shares no code with the timed pipelines
//! beyond the execution type and the canonical signature that names a
//! test:
//!
//! * counts-x86 — the single-threaded generate-and-test reference
//!   enumerator (`enumerate_exact_reference`), each execution checked from
//!   scratch against the built-in `X86Model::tm()`: no `.cat` text, unit
//!   walker, sweep engine, journal or incremental checker;
//! * table1-power — `synthesise_suites_per_execution` over the built-in
//!   Power models on the full space (symmetry off): per-execution views,
//!   no sweep engine, journal, symmetry reduction or checker probes.
//!
//! Its output must not change while the models and the enumeration space
//! stay the same.

use std::fs;

use tm_models::{MemoryModel, PowerModel, X86Model};
use tm_obs::Json;
use tm_synth::{
    canonical_signature, enumerate_exact_reference, synthesise_suites_per_execution, SynthConfig,
};

use crate::workloads::x86_trimmed;

fn write(workload: &str, json: &Json) -> Result<(), String> {
    let path = crate::bench_dir()
        .join("answers")
        .join(format!("{workload}.json"));
    fs::write(&path, json.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The largest x86-trimmed size answered (the benchmark runs 5; 6 is there
/// for `--size 6`).
const COUNTS_MAX: usize = 6;

/// The Power sizes answered: the self-test's 3 and the benchmark's 4.
const POWER_SIZES: [usize; 2] = [3, 4];

/// Writes `answers/counts-x86.json` and `answers/table1-power.json`.
pub fn generate() -> Result<(), String> {
    let x86 = X86Model::tm();
    let mut sizes = Vec::new();
    for n in 2..=COUNTS_MAX {
        let mut consistent = 0u64;
        let visited = enumerate_exact_reference(&x86_trimmed(n), n, |exec| {
            if x86.is_consistent(exec) {
                consistent += 1;
            }
        });
        eprintln!("counts-x86 |E|={n}: {visited} visited, {consistent} consistent");
        sizes.push(Json::obj(vec![
            ("events", Json::u64(n as u64)),
            ("visited", Json::u64(visited as u64)),
            ("consistent", Json::u64(consistent)),
        ]));
    }
    write(
        "counts-x86",
        &Json::obj(vec![
            ("workload", Json::Str("counts-x86".into())),
            (
                "generator",
                Json::Str(
                    "enumerate_exact_reference over x86-trimmed, each execution checked by the \
                     built-in X86Model::tm()"
                        .into(),
                ),
            ),
            ("sizes", Json::Arr(sizes)),
        ]),
    )?;

    let mut sizes = Vec::new();
    for n in POWER_SIZES {
        let report = synthesise_suites_per_execution(
            &PowerModel::tm(),
            &PowerModel::baseline(),
            &SynthConfig::power(n),
            n,
        );
        let sigs = |tests: &[tm_synth::SynthesisedTest]| {
            let mut s: Vec<String> = tests
                .iter()
                .map(|t| canonical_signature(&t.execution).to_string())
                .collect();
            s.sort();
            Json::Arr(s.into_iter().map(Json::Str).collect())
        };
        eprintln!(
            "table1-power |E|={n}: {} covered, {} Forbid, {} Allow",
            report.enumerated,
            report.forbid.len(),
            report.allow.len()
        );
        sizes.push(Json::obj(vec![
            ("events", Json::u64(n as u64)),
            ("covered", Json::u64(report.enumerated as u64)),
            ("forbid", sigs(&report.forbid)),
            ("allow", sigs(&report.allow)),
        ]));
    }
    write(
        "table1-power",
        &Json::obj(vec![
            ("workload", Json::Str("table1-power".into())),
            (
                "generator",
                Json::Str(
                    "synthesise_suites_per_execution(PowerModel::tm(), PowerModel::baseline()) \
                     over the full SynthConfig::power space, symmetry off"
                        .into(),
                ),
            ),
            ("sizes", Json::Arr(sizes)),
        ]),
    )
}
