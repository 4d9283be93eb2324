//! Table 1: synthesis of the x86 and Power Forbid/Allow conformance suites
//! per event-count bound, plus the "seen / not seen" columns obtained by
//! running the suites on the operational simulators.
//!
//! The paper reaches |E| = 6–7 with a SAT solver and days of CPU time; the
//! explicit enumerator reproduces the same construction at |E| = 2–4 so that
//! `cargo bench` completes in minutes. The shape of the table — counts that
//! grow steeply with |E|, no Forbid test ever observed, most Allow tests
//! observed on x86 — is the reproduction target.

use tm_bench::{measure, table1_targets};
use tm_sim::{run_suite, SimArch, SuiteObservation};
use tm_synth::synthesise_suites;

const MAX_EVENTS: usize = 3;
const SIM_RUNS: usize = 1000;

fn print_table1() {
    println!("\n=== Table 1 (reproduced): testing the transactional x86 and Power models ===");
    println!(
        "{:<7} {:>4} {:>12} {:>14} {:>8} {:>5} {:>5} {:>8} {:>5} {:>5}",
        "Arch", "|E|", "enumerated", "synth time", "Forbid", "S", "¬S", "Allow", "S", "¬S"
    );
    for (name, tm, base, _) in table1_targets(MAX_EVENTS) {
        let sim = match name.as_str() {
            "x86" => Some(SimArch::X86),
            "Power" => Some(SimArch::Power),
            _ => None, // ARMv8 has no TM hardware to run on (§6.2).
        };
        let mut totals = (0usize, 0usize, 0usize, 0usize);
        for events in 2..=MAX_EVENTS {
            let cfg = table1_targets(events)
                .into_iter()
                .find(|(n, _, _, _)| *n == name)
                .map(|(_, _, _, c)| c)
                .expect("target exists");
            let report = synthesise_suites(tm.as_ref(), base.as_ref(), &cfg, events);
            let (forbid_obs, allow_obs) = match sim {
                Some(arch) => {
                    let forbid: Vec<_> = report.forbid.iter().map(|t| t.litmus.clone()).collect();
                    let allow: Vec<_> = report.allow.iter().map(|t| t.litmus.clone()).collect();
                    (
                        Some(SuiteObservation::from_reports(&run_suite(
                            arch, &forbid, SIM_RUNS, 5,
                        ))),
                        Some(SuiteObservation::from_reports(&run_suite(
                            arch, &allow, SIM_RUNS, 5,
                        ))),
                    )
                }
                None => (None, None),
            };
            let seen = |o: &Option<SuiteObservation>| {
                o.as_ref()
                    .map(|x| (x.seen.to_string(), x.not_seen().to_string()))
                    .unwrap_or_else(|| ("-".into(), "-".into()))
            };
            let (fs, fns) = seen(&forbid_obs);
            let (als, alns) = seen(&allow_obs);
            println!(
                "{:<7} {:>4} {:>12} {:>14?} {:>8} {:>5} {:>5} {:>8} {:>5} {:>5}",
                name,
                events,
                report.enumerated,
                report.elapsed,
                report.forbid.len(),
                fs,
                fns,
                report.allow.len(),
                als,
                alns
            );
            totals.0 += report.forbid.len();
            totals.1 += forbid_obs.map(|o| o.seen).unwrap_or(0);
            totals.2 += report.allow.len();
            totals.3 += allow_obs.map(|o| o.seen).unwrap_or(0);
        }
        println!(
            "{:<7} total: Forbid {} (seen {}), Allow {} (seen {})",
            name, totals.0, totals.1, totals.2, totals.3
        );
    }
    println!();
}

fn main() {
    print_table1();

    // Timing: the synthesis kernel itself at |E| = 3 for each architecture
    // (the unit of work behind every cell of the table).
    for (name, tm, base, cfg) in table1_targets(3) {
        measure(&format!("table1-synthesis/forbid+allow/{name}"), 5, || {
            let _ = synthesise_suites(tm.as_ref(), base.as_ref(), &cfg, 3);
        });
    }
}
