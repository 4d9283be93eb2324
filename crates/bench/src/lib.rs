//! Shared helpers for the benchmark harness that regenerates the paper's
//! tables and figures (see the `benches/` directory and the README's
//! "Benchmarks" section).
//!
//! Each bench prints the reproduced table/figure data on standard output and
//! then times its hot kernels with [`measure`], so that `cargo bench` both
//! regenerates the evaluation artefacts and measures the cost of producing
//! them. The harness is plain `std::time` (the toolchain is used offline, so
//! no external benchmarking crate is assumed); `bench_synth` additionally
//! emits the machine-readable `BENCH_synth.json` tracked across PRs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use tm_models::{Armv8Model, MemoryModel, PowerModel, X86Model};
use tm_synth::SynthConfig;

/// One Table 1 target: display name, transactional model, baseline model and
/// enumeration configuration.
pub type Table1Target = (
    String,
    Box<dyn MemoryModel>,
    Box<dyn MemoryModel>,
    SynthConfig,
);

/// The architectures whose Table 1 rows we regenerate, with their models and
/// enumeration configurations.
pub fn table1_targets(events: usize) -> Vec<Table1Target> {
    vec![
        (
            "x86".to_string(),
            Box::new(X86Model::tm()) as Box<dyn MemoryModel>,
            Box::new(X86Model::baseline()) as Box<dyn MemoryModel>,
            SynthConfig::x86(events),
        ),
        (
            "Power".to_string(),
            Box::new(PowerModel::tm()),
            Box::new(PowerModel::baseline()),
            SynthConfig::power(events),
        ),
        (
            "ARMv8".to_string(),
            Box::new(Armv8Model::tm()),
            Box::new(Armv8Model::baseline()),
            SynthConfig::armv8(events),
        ),
    ]
}

/// The result of timing one kernel.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Number of timed iterations.
    pub iterations: usize,
    /// Total wall-clock time across the iterations.
    pub total: Duration,
}

impl Measurement {
    /// Mean time per iteration.
    pub fn mean(&self) -> Duration {
        self.total / self.iterations.max(1) as u32
    }
}

/// Times `f` over `iterations` runs (after one untimed warm-up run) and
/// prints a `name: mean ± spread` line in the spirit of a benchmark harness.
pub fn measure(name: &str, iterations: usize, mut f: impl FnMut()) -> Measurement {
    f(); // warm-up
    let mut runs: Vec<Duration> = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        f();
        runs.push(start.elapsed());
    }
    let total: Duration = runs.iter().sum();
    let mean = total / iterations.max(1) as u32;
    let min = runs.iter().min().copied().unwrap_or_default();
    let max = runs.iter().max().copied().unwrap_or_default();
    println!("bench {name:<40} mean {mean:>12?}  (min {min:?}, max {max:?}, n={iterations})");
    Measurement { iterations, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_targets_cover_the_three_architectures() {
        let targets = table1_targets(3);
        assert_eq!(targets.len(), 3);
        for (name, tm, base, cfg) in &targets {
            assert!(!name.is_empty());
            assert!(tm.name().contains("TM") || tm.name().contains('+'));
            assert!(!base.name().contains("TM"));
            assert_eq!(cfg.max_events, 3);
        }
    }

    #[test]
    fn measure_reports_iterations() {
        let m = measure("noop", 3, || {});
        assert_eq!(m.iterations, 3);
        assert!(m.mean() <= m.total);
    }
}
