//! Define a new transactional memory model in `.cat` text, load it at
//! runtime, and put it through the toolflow: litmus verdicts, a synthesis
//! sweep, and the metatheory's syntactic monotonicity analysis — all with
//! zero recompilation.
//!
//! Run with `cargo run --release -p tm --example cat_model`.

use tm_weak_memory::cat::load_str;
use tm_weak_memory::exec::catalog;
use tm_weak_memory::metatheory::syntactic_monotonicity_of;
use tm_weak_memory::models::{MemoryModel, Target};
use tm_weak_memory::synth::{enumerate_exact, SynthConfig};

const SOURCE: &str = r#"
"x86+StrongIsol-only"

(* x86-TSO's happens-before, but the only transactional obligation is
   strong isolation: transactions do not fence (no tfence in hb), and
   need not be atomic in hb (no TxnOrder). Weaker than x86+TM, stronger
   than plain x86. *)

let locked = [domain(rmw) | range(rmw)]
let ppo = po & (R * R | R * W | W * W)
let hb = mfence | ppo | locked ; po | po ; locked | rfe | fr | co

acyclic po-loc | com as Coherence
empty rmw & fre ; coe as RMWIsol
acyclic hb as Order
acyclic stronglift(com, stxn) as StrongIsol
"#;

fn main() {
    let model = load_str("example", SOURCE).expect("the example model elaborates");
    println!(
        "loaded `{}` with axioms: {}\n",
        model.name(),
        model.axioms().join(", ")
    );

    // Litmus verdicts, next to the models it sits between.
    let x86 = Target::X86.model();
    let x86_tm = Target::X86Tm.model();
    for (name, exec) in [
        ("sb", catalog::sb()),
        ("sb-txn", catalog::sb_txn()),
        ("fig1", catalog::fig1()),
        ("fig2", catalog::fig2()),
    ] {
        println!("{name}:");
        println!("  {}", x86.check(&exec));
        println!("  {}", model.check(&exec));
        println!("  {}", x86_tm.check(&exec));
    }

    // The §8.1 analysis runs on the loaded table like on any built-in one.
    let mono = syntactic_monotonicity_of(model.table(), model.pool());
    println!(
        "\nsyntactic monotonicity: {}",
        if mono.conclusive() {
            "conclusive (every axiom positive/constant in the transactions)".to_string()
        } else {
            format!(
                "inconclusive (blocking: {})",
                mono.blocking_axioms().join(", ")
            )
        }
    );

    // A bounded sweep: count how much each model forbids. The loaded model
    // must sit between its two neighbours.
    let mut cfg = SynthConfig::x86(4);
    cfg.max_threads = 2;
    cfg.max_locs = 2;
    cfg.rmws = false;
    cfg.max_txns = 1;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let counts: [AtomicUsize; 3] = Default::default();
    let mut total = 0usize;
    for n in 2..=4 {
        total += enumerate_exact(&cfg, n, |exec| {
            let view = tm_weak_memory::exec::ExecView::new(exec);
            for (i, m) in [&x86, &model, &x86_tm].iter().enumerate() {
                if m.is_consistent_view(&view) {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    let [base, ours, tm] = counts.map(AtomicUsize::into_inner);
    println!("\nsweep over {total} executions (|E| <= 4, x86-trimmed):");
    println!("  x86 allows              {base}");
    println!("  x86+StrongIsol-only     {ours}");
    println!("  x86+TM allows           {tm}");
    assert!(
        tm <= ours && ours <= base,
        "the loaded model must sit between"
    );
}
