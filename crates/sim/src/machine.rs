//! An operational weak-memory machine with best-effort hardware
//! transactional memory.
//!
//! This is the substitute for the silicon the paper runs its conformance
//! suites on (the crate docs of `tm_sim` give the argument). One machine
//! configuration models each architecture:
//!
//! * **x86** — in-order execution with per-thread FIFO store buffers and
//!   store→load forwarding (TSO); `MFENCE` and `LOCK`'d RMWs drain the
//!   buffer;
//! * **ARMv8** — out-of-order execution constrained by dependencies,
//!   barriers and acquire/release one-way fences, writing directly to a
//!   single shared memory (multicopy-atomic);
//! * **Power** — out-of-order execution *plus* non-multicopy-atomic write
//!   propagation: a store becomes visible to other threads one at a time,
//!   in coherence order, under scheduler control.
//!
//! The HTM layer buffers transactional writes, tracks read/write sets,
//! aborts on conflict with any write to a location it holds — once the
//! write enters the coherence order, visible to the thread or not — and
//! on a write to a location it read a coherence-stale value of (strong
//! isolation), publishes the write set atomically to every thread at
//! commit (multicopy-atomic commit), and acts as a full barrier at both
//! boundaries.
//!
//! The machine runs a [`Program`] (a test compiled to small ids) and keeps
//! its whole state in bitmasks and flat arrays that [`Machine::run`] resets
//! in place, so repeated runs of one test allocate nothing.

use crate::program::{Check, Op, Program};
use crate::rng::SimRng;

use tm_litmus::FenceInstr;

/// The architecture a machine simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimArch {
    /// Total store order with store buffers (in-order execution).
    X86,
    /// Relaxed, multicopy-atomic, out-of-order execution.
    Armv8,
    /// Relaxed, non-multicopy-atomic (per-thread write propagation).
    Power,
}

impl SimArch {
    fn reorders(self) -> bool {
        !matches!(self, SimArch::X86)
    }

    fn store_buffer(self) -> bool {
        matches!(self, SimArch::X86)
    }

    fn non_mca(self) -> bool {
        matches!(self, SimArch::Power)
    }
}

/// The mask of the `n` lowest bits.
fn low_bits(n: usize) -> u32 {
    u32::MAX.checked_shr(32 - n as u32).unwrap_or(0)
}

/// The positions of the set bits of `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// A coherence-ordered write to one location.
#[derive(Clone, Copy, Debug)]
struct Write {
    value: u64,
    /// The threads this write has propagated to (always including the
    /// writer). Only ever partial on the non-multicopy-atomic machine.
    visible: u32,
}

#[derive(Clone, Copy, Debug, Default)]
struct Txn {
    active: bool,
    aborted: bool,
    committed: bool,
    had_txn: bool,
    /// Locations read.
    reads: u32,
    /// Locations the transaction read from a write that was already
    /// coherence-before another one (possible on the non-multicopy-atomic
    /// machine, where a newer write may not have reached this thread yet).
    stale: u32,
    /// Locations written; the values sit in the machine's write-set array.
    writes: u32,
    /// The thread's written registers when the transaction began.
    saved_written: u32,
}

#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Instructions executed.
    done: u32,
    /// Register slots written (an unwritten register reads as 0 but is
    /// absent from the final state).
    written: u32,
    /// Pending `(location, value)` stores, oldest first (x86 only).
    store_buffer: Vec<(usize, u64)>,
    /// Mutexes held (lock-elision pseudo-calls).
    held: u32,
    txn: Txn,
}

/// A schedulable step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// Execute instruction `instr` of thread `thread`.
    Execute { thread: usize, instr: usize },
    /// Flush the oldest store-buffer entry of `thread` to memory.
    Flush { thread: usize },
    /// Propagate write number `index` on `loc` to thread `to` (Power only).
    Propagate { loc: usize, index: usize, to: usize },
}

/// One operational machine, reused across the runs of one [`Program`].
#[derive(Debug)]
pub(crate) struct Machine<'p> {
    prog: &'p Program,
    /// Per-location coherence history; the last write is the final value.
    history: Vec<Vec<Write>>,
    threads: Vec<ThreadState>,
    /// The register file: each thread's slots from its `reg_base`.
    regs: Vec<u64>,
    /// The register file as each thread's transaction began.
    saved_regs: Vec<u64>,
    /// Transactional write-set values, `locations` entries per thread.
    txn_values: Vec<u64>,
    /// The holder of each mutex.
    owners: Vec<Option<usize>>,
    /// Per-thread propagation eagerness and execution speed of this run.
    eagerness: Vec<f64>,
    speed: Vec<f64>,
    /// The enabled actions of the current step and their weights.
    actions: Vec<Action>,
    weights: Vec<f64>,
}

impl<'p> Machine<'p> {
    /// A machine ready to run `prog`.
    pub fn new(prog: &'p Program) -> Machine<'p> {
        let threads = prog.threads.len();
        let locations = prog.init.len();
        Machine {
            prog,
            history: vec![Vec::new(); locations],
            threads: vec![ThreadState::default(); threads],
            regs: vec![0; prog.regs],
            saved_regs: vec![0; prog.regs],
            txn_values: vec![0; threads * locations],
            owners: vec![None; prog.mutexes],
            eagerness: Vec::with_capacity(threads),
            speed: Vec::with_capacity(threads),
            actions: Vec::new(),
            weights: Vec::new(),
        }
    }

    fn all_threads(&self) -> u32 {
        low_bits(self.threads.len())
    }

    /// Runs the whole program from its initial state under a random
    /// schedule drawn from `rng`; the final state stays in the machine.
    /// A run ends when nothing is enabled: every instruction has executed,
    /// every store buffer is empty and every write has reached every
    /// thread.
    ///
    /// Each run draws, per destination thread, a random *propagation
    /// eagerness*: how readily pending writes become visible to that thread.
    /// Runs where one observer thread is eager and another is lazy are what
    /// expose the non-multicopy-atomic behaviours (WRC, IRIW) on the Power
    /// machine — the simulation analogue of the `litmus` affinity parameter
    /// the paper uses to coax IRIW out of an 80-core POWER8.
    pub fn run(&mut self, rng: &mut SimRng) {
        let all = self.all_threads();
        for (hist, &value) in self.history.iter_mut().zip(&self.prog.init) {
            hist.clear();
            hist.push(Write {
                value,
                visible: all,
            });
        }
        for thread in &mut self.threads {
            thread.done = 0;
            thread.written = 0;
            thread.store_buffer.clear();
            thread.held = 0;
            thread.txn = Txn::default();
        }
        self.owners.fill(None);
        let n = self.threads.len();
        self.eagerness.clear();
        self.eagerness
            .extend((0..n).map(|_| rng.gen_range_f64(0.02, 1.0)));
        self.speed.clear();
        self.speed
            .extend((0..n).map(|_| rng.gen_range_f64(0.02, 1.0)));
        loop {
            self.enabled_actions();
            if self.actions.is_empty() {
                break;
            }
            let total: f64 = self.weights.iter().sum();
            let mut pick = rng.gen_range_f64(0.0, total);
            let mut chosen = self.actions.len() - 1;
            for (i, w) in self.weights.iter().enumerate() {
                if pick < *w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            self.step(self.actions[chosen]);
        }
    }

    /// True if the final state satisfies the program's postcondition.
    pub fn satisfies(&self) -> bool {
        self.prog.post.iter().all(|check| match *check {
            Check::Reg { thread, reg, value } => self.reg(thread, reg) == value,
            Check::Loc { loc, value } => self.latest_value(loc) == value,
            Check::Committed { thread } => {
                let txn = &self.threads[thread].txn;
                txn.had_txn && txn.committed
            }
            Check::Never => false,
        })
    }

    /// Writes a key of the final state into `key`: two runs of one program
    /// end in equal states exactly when their keys are equal. It holds every
    /// location's final value, each thread's written-register mask and
    /// register values, and one word of transaction outcomes.
    pub fn final_key(&self, key: &mut Vec<u64>) {
        key.clear();
        key.extend((0..self.history.len()).map(|loc| self.latest_value(loc)));
        let mut outcomes = 0u64;
        for (t, (code, thread)) in self.prog.threads.iter().zip(&self.threads).enumerate() {
            key.push(u64::from(thread.written));
            key.extend((0..code.regs).map(|r| self.reg(t, r)));
            if thread.txn.had_txn {
                outcomes |= (1 | u64::from(thread.txn.committed) << 1) << (2 * t);
            }
        }
        key.push(outcomes);
    }

    /// The value of the last write in `loc`'s coherence order.
    fn latest_value(&self, loc: usize) -> u64 {
        self.history[loc].last().map_or(0, |w| w.value)
    }

    /// Register slot `reg` of thread `t`, 0 if unwritten.
    fn reg(&self, t: usize, reg: usize) -> u64 {
        if self.threads[t].written & 1 << reg == 0 {
            0
        } else {
            self.regs[self.prog.threads[t].reg_base + reg]
        }
    }

    // ---- scheduling -------------------------------------------------------

    /// Fills `actions` and `weights` with the enabled steps, in thread
    /// order (each thread's executable instructions, then its store-buffer
    /// flush), followed on Power by the propagations in location, write and
    /// destination order.
    fn enabled_actions(&mut self) {
        self.actions.clear();
        self.weights.clear();
        let arch = self.prog.arch;
        for (t, (code, thread)) in self.prog.threads.iter().zip(&self.threads).enumerate() {
            let pending = !thread.done & low_bits(code.ops.len());
            let speed = self.speed[t];
            if arch.reorders() {
                // Out of order: an instruction waits only for the earlier,
                // unexecuted instructions its ordering table names.
                for i in bits(pending) {
                    if pending & code.before[i] == 0 {
                        self.actions.push(Action::Execute {
                            thread: t,
                            instr: i,
                        });
                        self.weights.push(speed);
                    }
                }
            } else if let Some(i) = bits(pending).next() {
                // In order: only the first unexecuted instruction, and
                // MFENCE and RMWs wait for the store buffer to drain.
                if code.drains & 1 << i == 0 || thread.store_buffer.is_empty() {
                    self.actions.push(Action::Execute {
                        thread: t,
                        instr: i,
                    });
                    self.weights.push(speed);
                }
            }
            if !thread.store_buffer.is_empty() {
                self.actions.push(Action::Flush { thread: t });
                self.weights.push(1.0);
            }
        }
        if arch.non_mca() {
            // Writes propagate to each thread in coherence order: a write
            // may reach a thread once every earlier write has.
            let all = self.all_threads();
            for (loc, hist) in self.history.iter().enumerate() {
                let mut behind = 0;
                for (index, w) in hist.iter().enumerate() {
                    let missing = all & !w.visible;
                    for to in bits(missing & !behind) {
                        self.actions.push(Action::Propagate { loc, index, to });
                        self.weights.push(self.eagerness[to]);
                    }
                    behind |= missing;
                }
            }
        }
    }

    // ---- execution --------------------------------------------------------

    fn step(&mut self, action: Action) {
        match action {
            Action::Flush { thread } => self.flush_one(thread),
            Action::Propagate { loc, index, to } => {
                self.history[loc][index].visible |= 1 << to;
                self.notify_conflicts(1 << to, 1 << loc);
            }
            Action::Execute { thread, instr } => self.execute(thread, instr),
        }
    }

    fn flush_one(&mut self, t: usize) {
        let (loc, value) = self.threads[t].store_buffer.remove(0);
        self.commit_write(t, loc, value, true);
    }

    fn drain(&mut self, t: usize) {
        while !self.threads[t].store_buffer.is_empty() {
            self.flush_one(t);
        }
    }

    /// Appends a write to the coherence history. `global` publishes it to
    /// every thread immediately (x86 flush, ARMv8 store, transaction commit);
    /// otherwise it is visible to the writer only and must propagate.
    ///
    /// Every other thread's transaction that holds `loc` aborts, whether or
    /// not the write is visible to that thread yet: once the write is in
    /// the coherence order, such a transaction could only commit by
    /// ordering itself on both sides of it.
    fn commit_write(&mut self, writer: usize, loc: usize, value: u64, global: bool) {
        let all = self.all_threads();
        let visible = if global || !self.prog.arch.non_mca() {
            all
        } else {
            1 << writer
        };
        self.history[loc].push(Write { value, visible });
        self.notify_conflicts(all & !(1 << writer), 1 << loc);
    }

    /// Aborts the transaction of every thread in `threads` whose read or
    /// write set meets `locs`, the locations of newly visible writes
    /// (strong isolation: any access counts).
    fn notify_conflicts(&mut self, threads: u32, locs: u32) {
        for t in bits(threads) {
            let txn = &mut self.threads[t].txn;
            if txn.active && !txn.aborted && (txn.reads | txn.writes) & locs != 0 {
                txn.aborted = true;
            }
        }
    }

    fn set_reg(&mut self, t: usize, reg: usize, value: u64) {
        self.regs[self.prog.threads[t].reg_base + reg] = value;
        self.threads[t].written |= 1 << reg;
    }

    fn txn_slot(&self, t: usize, loc: usize) -> usize {
        t * self.history.len() + loc
    }

    /// Adds `loc = value` to the write set of `t`'s transaction.
    fn txn_write(&mut self, t: usize, loc: usize, value: u64) {
        let slot = self.txn_slot(t, loc);
        self.txn_values[slot] = value;
        self.threads[t].txn.writes |= 1 << loc;
    }

    fn execute(&mut self, t: usize, i: usize) {
        let op = self.prog.threads[t].ops[i];
        self.threads[t].done |= 1 << i;

        // Inside an aborted transaction, everything up to TxEnd is a no-op.
        let txn = self.threads[t].txn;
        if txn.active && txn.aborted && op != Op::TxEnd {
            return;
        }

        match op {
            Op::Load { reg, loc } => {
                let value = self.load_value(t, loc);
                if txn.active {
                    let stale = self.reads_stale(t, loc);
                    let txn = &mut self.threads[t].txn;
                    if stale {
                        txn.stale |= 1 << loc;
                    }
                    txn.reads |= 1 << loc;
                }
                self.set_reg(t, reg, value);
            }
            Op::Store { loc, value } => {
                if txn.active {
                    self.txn_write(t, loc, value);
                } else if self.prog.arch.store_buffer() {
                    self.threads[t].store_buffer.push((loc, value));
                } else {
                    self.commit_write(t, loc, value, !self.prog.arch.non_mca());
                }
            }
            Op::Rmw { reg, loc, value } => {
                // RMWs are atomic against the coherence history: read the
                // latest write visible anywhere and append globally.
                let current = self.latest_value(loc);
                self.set_reg(t, reg, current);
                if txn.active {
                    self.txn_write(t, loc, value);
                    self.threads[t].txn.reads |= 1 << loc;
                } else {
                    self.commit_write(t, loc, value, true);
                }
            }
            Op::Fence(FenceInstr::Sync) => {
                // sync is cumulative: writes this thread has observed
                // propagate to everyone.
                self.propagate_visible_writes(t);
            }
            Op::Fence(_) => {}
            Op::TxBegin => {
                // A transaction boundary has the ordering semantics of a
                // LOCK-prefixed instruction (§5.2): drain the store buffer
                // and propagate observed writes cumulatively.
                self.drain(t);
                self.propagate_visible_writes(t);
                let code = &self.prog.threads[t];
                let slots = code.reg_base..code.reg_base + code.regs;
                self.saved_regs[slots.clone()].copy_from_slice(&self.regs[slots]);
                let thread = &mut self.threads[t];
                let txn = &mut thread.txn;
                txn.active = true;
                txn.aborted = false;
                txn.had_txn = true;
                txn.reads = 0;
                txn.stale = 0;
                txn.writes = 0;
                txn.saved_written = thread.written;
            }
            Op::TxEnd => {
                // Commit is also a full fence on every architecture we
                // model; on Power it is cumulative (the integrated barrier
                // behind `tprop1`): writes the transaction read from must be
                // visible everywhere before its own writes publish.
                self.drain(t);
                self.propagate_visible_writes(t);
                // A transaction that read a coherence-stale value of a
                // location it also writes cannot commit: its write would
                // land after the newer write it missed, a StrongIsol cycle.
                let txn = &mut self.threads[t].txn;
                if txn.writes & txn.stale != 0 {
                    txn.aborted = true;
                }
                let (aborted, writes, saved_written) = (txn.aborted, txn.writes, txn.saved_written);
                if aborted {
                    // Roll back registers; the fail handler zeroes ok.
                    let code = &self.prog.threads[t];
                    let slots = code.reg_base..code.reg_base + code.regs;
                    self.regs[slots.clone()].copy_from_slice(&self.saved_regs[slots]);
                    self.threads[t].written = saved_written;
                } else {
                    // Commit: publish the write set atomically to everyone,
                    // in location order.
                    for loc in bits(writes) {
                        let value = self.txn_values[self.txn_slot(t, loc)];
                        self.commit_write(t, loc, value, true);
                    }
                }
                let txn = &mut self.threads[t].txn;
                txn.committed = !aborted;
                txn.active = false;
                txn.reads = 0;
                txn.stale = 0;
                txn.writes = 0;
            }
            Op::TxAbort => {
                self.threads[t].txn.aborted = true;
            }
            Op::Lock { mutex } => {
                // The pseudo-call lock() stands for a *correct* lock
                // implementation, so it synchronises fully: drain the store
                // buffer, then acquire if free (retry otherwise).
                self.drain(t);
                if self.owners[mutex].is_none() {
                    self.owners[mutex] = Some(t);
                    self.threads[t].held |= 1 << mutex;
                } else {
                    // Busy: re-enable this instruction so the thread retries.
                    self.threads[t].done &= !(1 << i);
                }
            }
            Op::Unlock { mutex } => {
                // A correct unlock publishes the critical region's writes
                // before releasing the mutex: drain the store buffer and
                // force outstanding writes to propagate everywhere (the
                // cumulative barrier inside a real unlock).
                self.drain(t);
                let all = self.all_threads();
                for w in self.history.iter_mut().flatten() {
                    w.visible = all;
                }
                self.notify_conflicts(all & !(1 << t), low_bits(self.history.len()));
                if self.threads[t].held & 1 << mutex != 0 {
                    self.threads[t].held &= !(1 << mutex);
                    self.owners[mutex] = None;
                }
            }
        }
    }

    /// Cumulative barrier on the non-multicopy-atomic machine: every write
    /// already visible to `t` becomes visible to every thread. This is the
    /// "group A" propagation of a Power `sync`, and — crucially for the
    /// model's `tprop1` axiom — of a transaction boundary: writes a
    /// transaction observed must propagate everywhere before (or with) the
    /// transaction's own writes. On multicopy-atomic machines it is a no-op.
    fn propagate_visible_writes(&mut self, t: usize) {
        if !self.prog.arch.non_mca() {
            return;
        }
        let all = self.all_threads();
        let mut promoted = 0;
        for (loc, hist) in self.history.iter_mut().enumerate() {
            for w in hist.iter_mut() {
                if w.visible & 1 << t != 0 && w.visible != all {
                    w.visible = all;
                    promoted |= 1 << loc;
                }
            }
        }
        self.notify_conflicts(all & !(1 << t), promoted);
    }

    /// True if a load of `loc` by thread `t` now reads a write that is not
    /// the last in `loc`'s coherence order (only on the non-multicopy-atomic
    /// machine, and never when the transaction's own write is forwarded).
    fn reads_stale(&self, t: usize, loc: usize) -> bool {
        if !self.prog.arch.non_mca() || self.threads[t].txn.writes & 1 << loc != 0 {
            return false;
        }
        self.history[loc]
            .last()
            .is_some_and(|w| w.visible & 1 << t == 0)
    }

    fn load_value(&self, t: usize, loc: usize) -> u64 {
        let thread = &self.threads[t];
        // Transactional reads see the transaction's own writes first.
        if thread.txn.active && thread.txn.writes & 1 << loc != 0 {
            return self.txn_values[self.txn_slot(t, loc)];
        }
        // Store-buffer forwarding.
        if let Some(&(_, v)) = thread.store_buffer.iter().rev().find(|(l, _)| *l == loc) {
            return v;
        }
        let hist = &self.history[loc];
        if self.prog.arch.non_mca() {
            hist.iter()
                .rev()
                .find(|w| w.visible & 1 << t != 0)
                .map_or(0, |w| w.value)
        } else {
            self.latest_value(loc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_litmus::{from_execution, AccessMode, Cond, Instr, LitmusTest, Reg, Thread};

    fn observes(arch: SimArch, test: &LitmusTest, runs: usize) -> bool {
        crate::runner::run_test(arch, test, runs, 12345).observed
    }

    #[test]
    fn sb_is_observable_on_every_architecture() {
        let test = from_execution(&tm_exec::catalog::sb(), "sb");
        assert!(observes(SimArch::X86, &test, 400));
        assert!(observes(SimArch::Armv8, &test, 400));
        assert!(observes(SimArch::Power, &test, 400));
    }

    #[test]
    fn sb_with_mfence_is_not_observable_on_x86() {
        let test = from_execution(&tm_exec::catalog::sb_mfence(), "sb+mfence");
        assert!(!observes(SimArch::X86, &test, 600));
    }

    #[test]
    fn mp_is_observable_on_relaxed_machines_only() {
        let test = from_execution(&tm_exec::catalog::mp(), "mp");
        assert!(!observes(SimArch::X86, &test, 600));
        assert!(observes(SimArch::Armv8, &test, 600));
        assert!(observes(SimArch::Power, &test, 600));
    }

    #[test]
    fn transactional_sb_never_exhibits_the_relaxation() {
        let test = from_execution(&tm_exec::catalog::sb_txn(), "sb+txn");
        for arch in [SimArch::X86, SimArch::Armv8, SimArch::Power] {
            assert!(
                !observes(arch, &test, 600),
                "{arch:?} exposed SB inside txns"
            );
        }
    }

    #[test]
    fn wrc_is_observable_only_on_power() {
        let test = from_execution(&tm_exec::catalog::wrc(), "wrc");
        assert!(!observes(SimArch::X86, &test, 600));
        assert!(!observes(SimArch::Armv8, &test, 600));
        // The non-multicopy-atomic outcome needs an unlucky propagation
        // schedule, so it is rare — as on real POWER hardware, where the
        // paper needs 10M runs and an affinity trick to see IRIW.
        assert!(observes(SimArch::Power, &test, 8000));
    }

    #[test]
    fn power_transactional_write_propagation_is_multicopy_atomic() {
        // Execution (2) of §5.2: with the writer transactional the WRC
        // behaviour must disappear.
        let test = from_execution(&tm_exec::catalog::power_wrc_tprop2(), "wrc+txn");
        assert!(!observes(SimArch::Power, &test, 1500));
    }

    #[test]
    fn conflicting_transactions_serialise() {
        let test = from_execution(&tm_exec::catalog::lb_txn(), "lb+txn");
        for arch in [SimArch::X86, SimArch::Armv8, SimArch::Power] {
            assert!(!observes(arch, &test, 600));
        }
    }

    #[test]
    fn fig2_strong_isolation_holds_operationally() {
        // The external store lands between the transactional store and load
        // only if isolation is broken; the simulator must never show it.
        let test = from_execution(&tm_exec::catalog::fig2(), "fig2");
        for arch in [SimArch::X86, SimArch::Armv8, SimArch::Power] {
            assert!(!observes(arch, &test, 600));
        }
    }

    #[test]
    fn aborted_transactions_report_not_committed() {
        // A transaction that explicitly aborts never satisfies ok = 1.
        let mut test = from_execution(&tm_exec::catalog::fig2(), "fig2-abort");
        // Insert an explicit abort into the transaction.
        let pos = test.threads[0]
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::TxEnd))
            .unwrap();
        test.threads[0].instrs.insert(pos, Instr::TxAbort);
        test.post = tm_litmus::Postcondition {
            conjuncts: vec![Cond::TxnCommitted { thread: 0 }],
        };
        for arch in [SimArch::X86, SimArch::Armv8, SimArch::Power] {
            assert!(!observes(arch, &test, 200));
        }
    }

    #[test]
    fn final_states_are_deterministic_per_seed() {
        let test = from_execution(&tm_exec::catalog::sb(), "sb");
        let prog = Program::compile(SimArch::Armv8, &test);
        let keys = || {
            let mut machine = Machine::new(&prog);
            let mut rng = SimRng::seed_from_u64(7);
            (0..50)
                .map(|_| {
                    machine.run(&mut rng);
                    let mut key = Vec::new();
                    machine.final_key(&mut key);
                    key
                })
                .collect::<Vec<_>>()
        };
        let first = keys();
        assert_eq!(first, keys());
        assert!(first.iter().any(|k| *k != first[0]), "one final state only");
    }

    #[test]
    fn power_transactions_never_straddle_a_newer_write() {
        // txbegin; r0=x; x=2; txend ∥ x=1 with r0=0 ∧ x=2 ∧ ok0=1: the
        // transaction reads x before x=1 in coherence, yet its own write
        // lands after x=1. StrongIsol forbids it; the Power machine must
        // never show it, whether x=1 enters coherence during the
        // transaction or before it without having reached its thread.
        let mut b = tm_exec::ExecutionBuilder::new();
        let read = b.push(tm_exec::Event::read(0, 0));
        let write = b.push(tm_exec::Event::write(0, 0));
        let other = b.push(tm_exec::Event::write(1, 0));
        b.co(other, write);
        b.txn(&[read, write]);
        let test = from_execution(&b.build().unwrap(), "txn-straddles-co");
        assert_eq!(test.post.to_string(), "0:r0 = 0 /\\ x = 2 /\\ ok0 = 1");
        for seed in 1..=5 {
            let report = crate::runner::run_test(SimArch::Power, &test, 1000, seed);
            assert!(!report.observed, "observed with seed {seed}");
        }
    }

    #[test]
    fn armv8_keeps_a_release_store_before_a_later_acquire_load() {
        // SB with release stores and acquire loads: ARMv8's `Order` axiom
        // forbids both loads reading 0.
        let thread = |stored: &str, loaded: &str| Thread {
            instrs: vec![
                Instr::Store {
                    loc: stored.into(),
                    value: 1,
                    mode: AccessMode::Release,
                    dep: None,
                },
                Instr::Load {
                    reg: Reg(0),
                    loc: loaded.into(),
                    mode: AccessMode::Acquire,
                    dep: None,
                },
            ],
        };
        let mut test = LitmusTest::new("sb+rel+acq");
        test.threads = vec![thread("x", "y"), thread("y", "x")];
        test.post.conjuncts = (0..2)
            .map(|thread| Cond::RegEq {
                thread,
                reg: Reg(0),
                value: 0,
            })
            .collect();
        for seed in 1..=5 {
            let report = crate::runner::run_test(SimArch::Armv8, &test, 1000, seed);
            assert!(!report.observed, "observed with seed {seed}");
        }
    }

    #[test]
    fn lock_pseudo_calls_provide_mutual_exclusion() {
        // Two locked critical regions both incrementing x: the abstract
        // machine (which honours lock()) must serialise them.
        let test = tm_litmus::catalog::example_1_1_abstract();
        for arch in [SimArch::X86, SimArch::Armv8, SimArch::Power] {
            assert!(
                !observes(arch, &test, 600),
                "{arch:?} violated mutual exclusion for lock() pseudo-calls"
            );
        }
    }
}
