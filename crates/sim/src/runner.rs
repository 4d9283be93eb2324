//! Running litmus tests on the operational simulators and checking their
//! postconditions — the stand-in for the paper's `litmus` hardware runs.

use tm_litmus::LitmusTest;

use crate::machine::{Machine, SimArch};
use crate::program::Program;
use crate::rng::SimRng;

/// The outcome of running one litmus test many times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservationReport {
    /// The test name.
    pub name: String,
    /// The architecture simulated.
    pub arch: SimArch,
    /// Total number of runs.
    pub runs: usize,
    /// Runs whose final state satisfied the postcondition.
    pub matching_runs: usize,
    /// Number of distinct final states seen across all runs.
    pub distinct_states: usize,
    /// True if the postcondition was observed at least once (the paper's
    /// "seen" column).
    pub observed: bool,
}

/// Runs `test` `runs` times on the `arch` simulator with schedules derived
/// from `seed`, reporting whether its postcondition is observable.
///
/// The test is compiled once, and every run replays on one reused machine.
///
/// # Panics
///
/// If `test` has more than [`MAX_THREADS`](crate::MAX_THREADS) threads, a
/// thread with more than
/// [`MAX_INSTRS_PER_THREAD`](crate::MAX_INSTRS_PER_THREAD) instructions,
/// more than [`MAX_LOCATIONS`](crate::MAX_LOCATIONS) distinct locations or
/// more than [`MAX_MUTEXES`](crate::MAX_MUTEXES) distinct mutexes: the
/// machine keeps each of these sets in a fixed-width bitmask.
pub fn run_test(arch: SimArch, test: &LitmusTest, runs: usize, seed: u64) -> ObservationReport {
    let prog = Program::compile(arch, test);
    let mut machine = Machine::new(&prog);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut matching = 0usize;
    // Distinct final-state keys, sorted.
    let mut states: Vec<Box<[u64]>> = Vec::new();
    let mut key = Vec::new();
    for _ in 0..runs {
        let mut run_rng = SimRng::seed_from_u64(rng.next_u64());
        machine.run(&mut run_rng);
        if machine.satisfies() {
            matching += 1;
        }
        machine.final_key(&mut key);
        if let Err(at) = states.binary_search_by(|s| (**s).cmp(&key)) {
            states.insert(at, key.as_slice().into());
        }
    }
    ObservationReport {
        name: test.name.clone(),
        arch,
        runs,
        matching_runs: matching,
        distinct_states: states.len(),
        observed: matching > 0,
    }
}

/// Runs a whole suite, returning one report per test; test `i` runs with
/// seed `seed + i`.
///
/// # Panics
///
/// If a test is past one of the limits [`run_test`] checks.
pub fn run_suite(
    arch: SimArch,
    tests: &[LitmusTest],
    runs_per_test: usize,
    seed: u64,
) -> Vec<ObservationReport> {
    tests
        .iter()
        .enumerate()
        .map(|(i, t)| run_test(arch, t, runs_per_test, seed.wrapping_add(i as u64)))
        .collect()
}

/// Summary statistics for a suite run: how many tests were observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuiteObservation {
    /// Number of tests in the suite.
    pub total: usize,
    /// Number of tests whose postcondition was observed at least once.
    pub seen: usize,
}

impl SuiteObservation {
    /// Aggregates per-test reports.
    pub fn from_reports(reports: &[ObservationReport]) -> SuiteObservation {
        SuiteObservation {
            total: reports.len(),
            seen: reports.iter().filter(|r| r.observed).count(),
        }
    }

    /// Tests not observed (the paper's `¬S` column).
    pub fn not_seen(&self) -> usize {
        self.total - self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MAX_INSTRS_PER_THREAD, MAX_LOCATIONS, MAX_MUTEXES, MAX_THREADS};
    use tm_litmus::{from_execution, AccessMode, Cond, FenceInstr, Instr, Reg, Thread};

    #[test]
    fn reports_count_matching_runs_and_states() {
        let test = from_execution(&tm_exec::catalog::sb(), "sb");
        let report = run_test(SimArch::X86, &test, 300, 1);
        assert_eq!(report.runs, 300);
        assert!(report.observed);
        assert!(report.matching_runs > 0);
        assert!(report.distinct_states >= 2);
    }

    #[test]
    fn satisfies_checks_all_conjunct_kinds() {
        // txbegin; x = 2; r0 = x; txend always ends with x = 2, r0 = 2 and
        // a committed transaction.
        let mut test = LitmusTest::new("t");
        test.threads.push(Thread {
            instrs: vec![
                Instr::TxBegin,
                Instr::Store {
                    loc: "x".into(),
                    value: 2,
                    mode: AccessMode::Plain,
                    dep: None,
                },
                Instr::Load {
                    reg: Reg(0),
                    loc: "x".into(),
                    mode: AccessMode::Plain,
                    dep: None,
                },
                Instr::TxEnd,
            ],
        });
        test.post.conjuncts = vec![
            Cond::LocEq {
                loc: "x".into(),
                value: 2,
            },
            Cond::RegEq {
                thread: 0,
                reg: Reg(0),
                value: 2,
            },
            Cond::TxnCommitted { thread: 0 },
            // Registers and locations a test never writes read as 0.
            Cond::RegEq {
                thread: 1,
                reg: Reg(3),
                value: 0,
            },
            Cond::LocEq {
                loc: "y".into(),
                value: 0,
            },
        ];
        let matching = |test: &LitmusTest| run_test(SimArch::Power, test, 20, 5).matching_runs;
        assert_eq!(matching(&test), 20);
        for unsatisfiable in [
            Cond::LocEq {
                loc: "y".into(),
                value: 1,
            },
            Cond::RegEq {
                thread: 0,
                reg: Reg(1),
                value: 1,
            },
            Cond::TxnCommitted { thread: 1 },
        ] {
            let mut test = test.clone();
            test.post.conjuncts.push(unsatisfiable);
            assert_eq!(matching(&test), 0);
        }
    }

    #[test]
    fn suite_observation_aggregates() {
        let tests = vec![
            from_execution(&tm_exec::catalog::sb(), "sb"),
            from_execution(&tm_exec::catalog::sb_mfence(), "sb+mfence"),
        ];
        let reports = run_suite(SimArch::X86, &tests, 300, 3);
        let summary = SuiteObservation::from_reports(&reports);
        assert_eq!(summary.total, 2);
        assert_eq!(summary.seen, 1);
        assert_eq!(summary.not_seen(), 1);
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let test = from_execution(&tm_exec::catalog::mp(), "mp");
        let a = run_test(SimArch::Power, &test, 100, 99);
        let b = run_test(SimArch::Power, &test, 100, 99);
        assert_eq!(a, b);
    }

    /// `threads` threads; thread `t` locks mutex `m<t>`, stores 1 to `x<t>`,
    /// unlocks, then pads itself with fences to `instrs` instructions.
    fn wide_test(threads: usize, instrs: usize) -> LitmusTest {
        let mut test = LitmusTest::new("wide");
        test.threads = (0..threads)
            .map(|t| {
                let mut instrs_of_t = vec![
                    Instr::Lock {
                        mutex: format!("m{t}"),
                        elided: false,
                    },
                    Instr::Store {
                        loc: format!("x{t}"),
                        value: 1,
                        mode: AccessMode::Plain,
                        dep: None,
                    },
                    Instr::Unlock {
                        mutex: format!("m{t}"),
                        elided: false,
                    },
                ];
                instrs_of_t.resize(instrs, Instr::Fence(FenceInstr::Lwsync));
                Thread {
                    instrs: instrs_of_t,
                }
            })
            .collect();
        test
    }

    #[test]
    fn a_test_at_every_limit_runs() {
        let test = wide_test(MAX_THREADS, MAX_INSTRS_PER_THREAD);
        assert_eq!(test.locations().len(), MAX_LOCATIONS);
        for arch in [SimArch::X86, SimArch::Armv8, SimArch::Power] {
            let report = run_test(arch, &test, 2, 1);
            assert_eq!((report.matching_runs, report.distinct_states), (2, 1));
        }
    }

    #[test]
    #[should_panic(expected = "MAX_THREADS = 32")]
    fn a_thread_past_the_limit_is_refused() {
        let mut test = LitmusTest::new("threads");
        test.threads = vec![Thread::new(); MAX_THREADS + 1];
        run_test(SimArch::Power, &test, 1, 1);
    }

    #[test]
    #[should_panic(expected = "MAX_INSTRS_PER_THREAD = 32")]
    fn an_instruction_past_the_limit_is_refused() {
        run_test(
            SimArch::Power,
            &wide_test(1, MAX_INSTRS_PER_THREAD + 1),
            1,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "MAX_LOCATIONS = 32")]
    fn a_location_past_the_limit_is_refused() {
        let mut test = LitmusTest::new("locations");
        test.init = (0..=MAX_LOCATIONS).map(|i| (format!("x{i}"), 0)).collect();
        run_test(SimArch::Power, &test, 1, 1);
    }

    #[test]
    #[should_panic(expected = "MAX_MUTEXES = 32")]
    fn a_mutex_past_the_limit_is_refused() {
        // Two threads lock 17 and 16 distinct mutexes.
        let mut test = LitmusTest::new("mutexes");
        test.threads = [0..17, 17..MAX_MUTEXES + 1]
            .map(|ids| Thread {
                instrs: ids
                    .map(|m| Instr::Lock {
                        mutex: format!("m{m}"),
                        elided: false,
                    })
                    .collect(),
            })
            .into();
        run_test(SimArch::Power, &test, 1, 1);
    }
}
