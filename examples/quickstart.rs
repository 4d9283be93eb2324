//! Quickstart: build an execution, ask every memory model about it, and turn
//! it into litmus tests for each architecture.
//!
//! Run with `cargo run --example quickstart`.

use tm_weak_memory::exec::{catalog, Event, ExecutionBuilder};
use tm_weak_memory::litmus::{from_execution, render, Arch};
use tm_weak_memory::models::{MemoryModel, Target};
use tm_weak_memory::sim::{run_test, SimArch};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the transactional store-buffering execution by hand.
    let mut b = ExecutionBuilder::new();
    let wx = b.push(Event::write(0, 0));
    let ry = b.push(Event::read(0, 1));
    let wy = b.push(Event::write(1, 1));
    let rx = b.push(Event::read(1, 0));
    b.txn(&[wx, ry]);
    b.txn(&[wy, rx]);
    let sb_txn = b.build()?;

    // 2. Ask every model (baseline and transactional) for a verdict.
    println!("== Verdicts for SB with both threads transactional ==");
    for target in Target::ALL {
        println!("  {}", target.model().check(&sb_txn));
    }

    // 3. Convert it into a litmus test and render it for each architecture.
    let test = from_execution(&sb_txn, "SB+txns");
    println!("\n== Generated litmus test (generic pseudocode) ==\n{test}");
    for arch in [Arch::X86, Arch::Power, Arch::Armv8, Arch::Cpp] {
        println!("== {arch} rendering ==\n{}", render(&test, arch));
    }

    // 4. Run it on the operational simulators: the transactional version is
    //    never observed, while plain SB is observed everywhere.
    let plain = from_execution(&catalog::sb(), "SB");
    println!("== Simulation (2000 runs each) ==");
    for arch in [SimArch::X86, SimArch::Armv8, SimArch::Power] {
        let with_txn = run_test(arch, &test, 2000, 1);
        let without = run_test(arch, &plain, 2000, 1);
        println!(
            "  {arch:?}: plain SB observed = {}, transactional SB observed = {}",
            without.observed, with_txn.observed
        );
    }
    Ok(())
}
