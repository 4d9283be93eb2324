//! Schedule pins for the operational simulators.
//!
//! Every simulator run is a pure function of the test, the machine and the
//! seed: the same RNG draws pick the same enabled actions with the same
//! weights. This file pins that function on a fixed corpus, so a rewrite of
//! a machine's representation must reproduce every schedule exactly, not
//! merely the same observed/not-observed verdicts.
//!
//! The corpus is the synthesised x86, Power and ARMv8 Forbid and Allow
//! suites at |E| = 2 and 3, the `tm_exec` execution catalog and the three
//! hand-written lock/elision tests of `tm_litmus::catalog`. Each suite runs
//! on all three machines under seeds 1–3, and each (suite, machine, seed)
//! is pinned by one FNV-1a digest over every report's `matching_runs` and
//! `distinct_states`.

use tm_weak_memory::exec::catalog;
use tm_weak_memory::litmus::{self, from_execution, LitmusTest};
use tm_weak_memory::models::{Armv8Model, MemoryModel, PowerModel, X86Model};
use tm_weak_memory::sim::{run_suite, SimArch};
use tm_weak_memory::synth::{synthesise_suites, SynthConfig, SynthesisedTest};

/// Runs per test: enough for every machine to reach several distinct final
/// states on most tests, small enough for a debug build.
const RUNS: usize = 200;

const MACHINES: [(&str, SimArch); 3] = [
    ("x86", SimArch::X86),
    ("power", SimArch::Power),
    ("armv8", SimArch::Armv8),
];

const SEEDS: [u64; 3] = [1, 2, 3];

/// `(suite, machine, [seed 1, 2, 3])`, recorded from the String-keyed
/// machine these pins were introduced to guard.
#[rustfmt::skip]
const PINS: &[(&str, &str, [u64; 3])] = &[
    ("x86-2-forbid", "x86", [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("x86-2-forbid", "power", [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("x86-2-forbid", "armv8", [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("x86-2-allow", "x86", [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("x86-2-allow", "power", [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("x86-2-allow", "armv8", [0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325]),
    ("power-2-forbid", "x86", [0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5]),
    ("power-2-forbid", "power", [0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5]),
    ("power-2-forbid", "armv8", [0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5]),
    ("power-2-allow", "x86", [0x75d4d647a50049cc, 0x75d4d647a50049cc, 0x75d4d647a50049cc]),
    ("power-2-allow", "power", [0x75d4d647a50049cc, 0x75d4d647a50049cc, 0x75d4d647a50049cc]),
    ("power-2-allow", "armv8", [0x75d4d647a50049cc, 0x75d4d647a50049cc, 0x75d4d647a50049cc]),
    ("armv8-2-forbid", "x86", [0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5]),
    ("armv8-2-forbid", "power", [0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5]),
    ("armv8-2-forbid", "armv8", [0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5, 0xf8c09a42a29c28e5]),
    ("armv8-2-allow", "x86", [0x75d4d647a50049cc, 0x75d4d647a50049cc, 0x75d4d647a50049cc]),
    ("armv8-2-allow", "power", [0x75d4d647a50049cc, 0x75d4d647a50049cc, 0x75d4d647a50049cc]),
    ("armv8-2-allow", "armv8", [0x75d4d647a50049cc, 0x75d4d647a50049cc, 0x75d4d647a50049cc]),
    ("x86-3-forbid", "x86", [0xed9d750329e6e46d, 0xbb6dc21860cb607f, 0x3a9e53d97371c970]),
    ("x86-3-forbid", "power", [0xed9d750329e6e46d, 0x3a9e53d97371c970, 0x658e2343c28fa675]),
    ("x86-3-forbid", "armv8", [0x907df2ae11ad837a, 0xade71d87959ab44b, 0x0bf08413dc5c1d4d]),
    ("x86-3-allow", "x86", [0x51de912ac6cc3e75, 0xf7937280a0e57855, 0x295da172fc792441]),
    ("x86-3-allow", "power", [0x8c05b3099330a659, 0x5e7ca9b0a815391c, 0x904320eae3b150a1]),
    ("x86-3-allow", "armv8", [0xcebf14d0f1d7022e, 0x40c48967903b78e7, 0xaf1f2108d3f7b687]),
    ("power-3-forbid", "x86", [0xed9d750329e6e46d, 0xbb6dc21860cb607f, 0x3a9e53d97371c970]),
    ("power-3-forbid", "power", [0xed9d750329e6e46d, 0x3a9e53d97371c970, 0x658e2343c28fa675]),
    ("power-3-forbid", "armv8", [0x907df2ae11ad837a, 0xade71d87959ab44b, 0x0bf08413dc5c1d4d]),
    ("power-3-allow", "x86", [0x51de912ac6cc3e75, 0xf7937280a0e57855, 0x295da172fc792441]),
    ("power-3-allow", "power", [0x8c05b3099330a659, 0x5e7ca9b0a815391c, 0x904320eae3b150a1]),
    ("power-3-allow", "armv8", [0xcebf14d0f1d7022e, 0x40c48967903b78e7, 0xaf1f2108d3f7b687]),
    ("armv8-3-forbid", "x86", [0xed9d750329e6e46d, 0xbb6dc21860cb607f, 0x3a9e53d97371c970]),
    ("armv8-3-forbid", "power", [0xed9d750329e6e46d, 0x3a9e53d97371c970, 0x658e2343c28fa675]),
    ("armv8-3-forbid", "armv8", [0x907df2ae11ad837a, 0xade71d87959ab44b, 0x0bf08413dc5c1d4d]),
    ("armv8-3-allow", "x86", [0x51de912ac6cc3e75, 0xf7937280a0e57855, 0x295da172fc792441]),
    ("armv8-3-allow", "power", [0x8c05b3099330a659, 0x5e7ca9b0a815391c, 0x904320eae3b150a1]),
    ("armv8-3-allow", "armv8", [0xcebf14d0f1d7022e, 0x40c48967903b78e7, 0xaf1f2108d3f7b687]),
    ("exec-catalog", "x86", [0x311bd2307af2e263, 0x9ddca8f5e11b5b65, 0x370b6aeecbdcc8f8]),
    ("exec-catalog", "power", [0xd2acb24087049f0e, 0x2e71dbbd9ae357e4, 0xd2a6e6a5411d967c]),
    ("exec-catalog", "armv8", [0xfc3779113e9d9144, 0x7ae9193a2c3c1aa0, 0x24efb518daa926e3]),
    ("litmus-catalog", "x86", [0x4159f0218efc52b1, 0x6c1f8756a6ae56b9, 0x441b415b9eb256bd]),
    ("litmus-catalog", "power", [0x1156a16286d68491, 0x3c1c38979e888899, 0x030f6ae69956049e]),
    ("litmus-catalog", "armv8", [0x4159f0218efc52b1, 0x6c1f8756a6ae56b9, 0x441b415b9eb256bd]),

];

/// FNV-1a over the `(matching_runs, distinct_states)` of every report.
fn digest(arch: SimArch, tests: &[LitmusTest], seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for report in run_suite(arch, tests, RUNS, seed) {
        for n in [report.matching_runs, report.distinct_states] {
            for byte in (n as u64).to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The Forbid and Allow suites of one target at `events`, named
/// `<target>-<events>-<forbid|allow>`.
fn synthesised(
    target: &str,
    tm: &dyn MemoryModel,
    baseline: &dyn MemoryModel,
    config: SynthConfig,
    events: usize,
) -> [(String, Vec<LitmusTest>); 2] {
    let report = synthesise_suites(tm, baseline, &config, events);
    let litmus = |kind: &str, tests: &[SynthesisedTest]| {
        let tests = tests.iter().map(|t| t.litmus.clone()).collect();
        (format!("{target}-{events}-{kind}"), tests)
    };
    [
        litmus("forbid", &report.forbid),
        litmus("allow", &report.allow),
    ]
}

fn corpus() -> Vec<(String, Vec<LitmusTest>)> {
    let mut suites = Vec::new();
    for events in [2, 3] {
        suites.extend(synthesised(
            "x86",
            &X86Model::tm(),
            &X86Model::baseline(),
            SynthConfig::x86(events),
            events,
        ));
        suites.extend(synthesised(
            "power",
            &PowerModel::tm(),
            &PowerModel::baseline(),
            SynthConfig::power(events),
            events,
        ));
        suites.extend(synthesised(
            "armv8",
            &Armv8Model::tm(),
            &Armv8Model::baseline(),
            SynthConfig::armv8(events),
            events,
        ));
    }
    let execs = catalog::named()
        .into_iter()
        .map(|(name, exec)| from_execution(&exec, name))
        .collect();
    suites.push(("exec-catalog".to_string(), execs));
    suites.push((
        "litmus-catalog".to_string(),
        vec![
            litmus::catalog::example_1_1_abstract(),
            litmus::catalog::example_1_1_concrete(false),
            litmus::catalog::appendix_b_concrete(false),
        ],
    ));
    suites
}

#[test]
fn every_schedule_matches_its_pin() {
    let mut actual: Vec<(String, &str, [u64; 3])> = Vec::new();
    for (suite, tests) in corpus() {
        for (machine, arch) in MACHINES {
            actual.push((
                suite.clone(),
                machine,
                SEEDS.map(|s| digest(arch, &tests, s)),
            ));
        }
    }
    let table: String = actual
        .iter()
        .map(|(suite, machine, [a, b, c])| {
            format!("    (\"{suite}\", \"{machine}\", [{a:#018x}, {b:#018x}, {c:#018x}]),\n")
        })
        .collect();
    let pinned: Vec<(String, &str, [u64; 3])> = PINS
        .iter()
        .map(|&(suite, machine, d)| (suite.to_string(), machine, d))
        .collect();
    assert!(
        actual == pinned,
        "the schedules moved; actual digests:\n{table}"
    );
}
