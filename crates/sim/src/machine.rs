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

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::rng::SimRng;

use tm_litmus::{AccessMode, DepKind, FenceInstr, Instr, LitmusTest, Reg, Thread};

/// The architecture a [`Machine`] simulates.
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

/// The final state of one simulated run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FinalState {
    /// Final value of every location.
    pub memory: Vec<(String, u64)>,
    /// Final value of every named register, as `(thread, register, value)`.
    pub registers: Vec<(usize, Reg, u64)>,
    /// Which threads' transactions committed (true) or aborted (false);
    /// threads without a transaction are absent.
    pub txn_committed: Vec<(usize, bool)>,
}

/// A coherence-ordered write to one location.
#[derive(Clone, Debug)]
struct WriteRecord {
    value: u64,
    /// Which threads this write has propagated to (always includes the
    /// writer). Only meaningful on non-multicopy-atomic machines.
    visible_to: HashSet<usize>,
}

#[derive(Clone, Debug, Default)]
struct TxnState {
    active: bool,
    aborted: bool,
    committed: bool,
    had_txn: bool,
    read_set: HashSet<String>,
    /// Locations the transaction read from a write that was already
    /// coherence-before another one (possible on the non-multicopy-atomic
    /// machine, where a newer write may not have reached this thread yet).
    stale_reads: HashSet<String>,
    write_set: BTreeMap<String, u64>,
    saved_regs: HashMap<Reg, u64>,
}

#[derive(Clone, Debug)]
struct ThreadState {
    instrs: Vec<Instr>,
    done: Vec<bool>,
    regs: HashMap<Reg, u64>,
    store_buffer: Vec<(String, u64)>,
    txn: TxnState,
    /// Locks currently held by this thread (lock-elision pseudo-calls).
    held_locks: HashSet<String>,
}

/// One operational machine instance executing a litmus test.
#[derive(Clone, Debug)]
pub struct Machine {
    arch: SimArch,
    threads: Vec<ThreadState>,
    /// Per-location coherence history; the last *globally propagated* write
    /// is the final value.
    history: BTreeMap<String, Vec<WriteRecord>>,
    locks: HashMap<String, Option<usize>>,
    thread_count: usize,
}

/// A schedulable step.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Action {
    /// Execute instruction `instr` of thread `thread`.
    Execute { thread: usize, instr: usize },
    /// Flush the oldest store-buffer entry of `thread` to memory.
    Flush { thread: usize },
    /// Propagate write number `index` on `loc` to thread `to` (Power only).
    Propagate {
        loc: String,
        index: usize,
        to: usize,
    },
}

impl Machine {
    /// Creates a machine ready to run `test` on `arch`.
    pub fn new(arch: SimArch, test: &LitmusTest) -> Machine {
        let mut history: BTreeMap<String, Vec<WriteRecord>> = BTreeMap::new();
        for loc in test.locations() {
            let init = test
                .init
                .iter()
                .find(|(l, _)| *l == loc)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            history.insert(
                loc,
                vec![WriteRecord {
                    value: init,
                    visible_to: (0..test.threads.len()).collect(),
                }],
            );
        }
        let threads = test
            .threads
            .iter()
            .map(|t: &Thread| ThreadState {
                instrs: t.instrs.clone(),
                done: vec![false; t.instrs.len()],
                regs: HashMap::new(),
                store_buffer: Vec::new(),
                txn: TxnState::default(),
                held_locks: HashSet::new(),
            })
            .collect::<Vec<_>>();
        let thread_count = test.threads.len();
        Machine {
            arch,
            threads,
            history,
            locks: HashMap::new(),
            thread_count,
        }
    }

    /// Runs the whole program under a random schedule drawn from `rng`,
    /// returning the final state.
    ///
    /// Each run draws, per destination thread, a random *propagation
    /// eagerness*: how readily pending writes become visible to that thread.
    /// Runs where one observer thread is eager and another is lazy are what
    /// expose the non-multicopy-atomic behaviours (WRC, IRIW) on the Power
    /// machine — the simulation analogue of the `litmus` affinity parameter
    /// the paper uses to coax IRIW out of an 80-core POWER8.
    pub fn run(mut self, rng: &mut SimRng) -> FinalState {
        let eagerness: Vec<f64> = (0..self.thread_count)
            .map(|_| rng.gen_range_f64(0.02, 1.0))
            .collect();
        let speed: Vec<f64> = (0..self.thread_count)
            .map(|_| rng.gen_range_f64(0.02, 1.0))
            .collect();
        loop {
            let actions = self.enabled_actions();
            if actions.is_empty() {
                break;
            }
            let weights: Vec<f64> = actions
                .iter()
                .map(|a| match a {
                    Action::Propagate { to, .. } => eagerness[*to],
                    Action::Execute { thread, .. } => speed[*thread],
                    Action::Flush { .. } => 1.0,
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let mut pick = rng.gen_range_f64(0.0, total);
            let mut chosen = actions.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            let action = actions[chosen].clone();
            self.step(&action, rng);
        }
        self.final_state()
    }

    fn final_state(mut self) -> FinalState {
        // Drain any leftover store buffers so the final memory is coherent.
        for t in 0..self.thread_count {
            while !self.threads[t].store_buffer.is_empty() {
                self.flush_one(t);
            }
        }
        let mut memory: Vec<(String, u64)> = self
            .history
            .iter()
            .map(|(loc, hist)| (loc.clone(), hist.last().map(|w| w.value).unwrap_or(0)))
            .collect();
        memory.sort();
        let mut registers = Vec::new();
        for (t, thread) in self.threads.iter().enumerate() {
            let mut regs: Vec<(Reg, u64)> = thread.regs.iter().map(|(r, v)| (*r, *v)).collect();
            regs.sort();
            for (r, v) in regs {
                registers.push((t, r, v));
            }
        }
        let mut txn_committed = Vec::new();
        for (t, thread) in self.threads.iter().enumerate() {
            if thread.txn.had_txn {
                txn_committed.push((t, thread.txn.committed));
            }
        }
        FinalState {
            memory,
            registers,
            txn_committed,
        }
    }

    // ---- scheduling -------------------------------------------------------

    fn enabled_actions(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        for (t, thread) in self.threads.iter().enumerate() {
            for i in 0..thread.instrs.len() {
                if !thread.done[i] && self.can_execute(t, i) {
                    actions.push(Action::Execute {
                        thread: t,
                        instr: i,
                    });
                    if !self.arch.reorders() {
                        // In-order: only the first not-done instruction is a
                        // candidate.
                        break;
                    }
                }
                if !thread.done[i] && !self.arch.reorders() {
                    break;
                }
            }
            if !thread.store_buffer.is_empty() {
                actions.push(Action::Flush { thread: t });
            }
        }
        if self.arch.non_mca() {
            for (loc, hist) in &self.history {
                for (i, w) in hist.iter().enumerate() {
                    for t in 0..self.thread_count {
                        if !w.visible_to.contains(&t) && self.propagation_in_order(loc, i, t) {
                            actions.push(Action::Propagate {
                                loc: loc.clone(),
                                index: i,
                                to: t,
                            });
                        }
                    }
                }
            }
        }
        actions
    }

    /// Writes propagate to each thread in coherence order.
    fn propagation_in_order(&self, loc: &str, index: usize, to: usize) -> bool {
        let hist = &self.history[loc];
        hist[..index].iter().all(|w| w.visible_to.contains(&to))
    }

    /// Decides whether instruction `i` of thread `t` may execute now, given
    /// the architecture's intra-thread ordering rules.
    fn can_execute(&self, t: usize, i: usize) -> bool {
        let thread = &self.threads[t];
        let instr = &thread.instrs[i];

        // An aborted transaction skips forward to its txend.
        if thread.txn.active && thread.txn.aborted && !matches!(instr, Instr::TxEnd) {
            // Still has to respect in-order skipping: handled in execute.
        }

        if !self.arch.reorders() {
            // In-order machines execute the first unfinished instruction.
            let first_undone = thread.done.iter().position(|d| !d);
            if first_undone != Some(i) {
                return false;
            }
            // MFENCE and RMWs wait for the store buffer to drain.
            return match instr {
                Instr::Fence(FenceInstr::MFence) | Instr::Rmw { .. } => {
                    thread.store_buffer.is_empty()
                }
                _ => true,
            };
        }

        // Out-of-order machines: check ordering constraints against every
        // earlier, not-yet-executed instruction.
        for j in 0..i {
            if thread.done[j] {
                continue;
            }
            if self.must_order(t, j, i) {
                return false;
            }
        }
        true
    }

    /// True if instruction `earlier` must complete before `later` may start,
    /// on an out-of-order machine.
    fn must_order(&self, t: usize, earlier: usize, later: usize) -> bool {
        let thread = &self.threads[t];
        let e = &thread.instrs[earlier];
        let l = &thread.instrs[later];

        // Transactions execute as an in-order block with fences at the
        // boundaries.
        if e.is_txn_boundary() || l.is_txn_boundary() {
            return true;
        }
        let e_in_txn = self.in_txn_region(t, earlier);
        let l_in_txn = self.in_txn_region(t, later);
        if e_in_txn || l_in_txn {
            return true;
        }

        // Same-location accesses stay in order (per-thread coherence).
        if let (Some(a), Some(b)) = (e.loc(), l.loc()) {
            if a == b {
                return true;
            }
        }

        // Dependencies: the consumer waits for the producing load.
        let dep_reg = match l {
            Instr::Load { dep: Some(d), .. } | Instr::Store { dep: Some(d), .. } => Some(d.reg),
            _ => None,
        };
        if let Some(reg) = dep_reg {
            if let Instr::Load { reg: r, .. } | Instr::Rmw { reg: r, .. } = e {
                if *r == reg {
                    return true;
                }
            }
        }

        // Barriers.
        match e {
            Instr::Fence(FenceInstr::Dmb)
            | Instr::Fence(FenceInstr::Sync)
            | Instr::Fence(FenceInstr::MFence)
            | Instr::Fence(FenceInstr::FenceSc) => return true,
            Instr::Fence(FenceInstr::Lwsync) | Instr::Fence(FenceInstr::DmbLd)
                // Orders everything except store→load.
                if (!matches!(l, Instr::Load { .. }) || !self.stores_before(t, earlier)) => {
                    return true;
                }
            Instr::Fence(FenceInstr::DmbSt) => {
                if matches!(l, Instr::Store { .. } | Instr::Rmw { .. }) {
                    return true;
                }
            }
            _ => {}
        }
        if matches!(l, Instr::Fence(_)) {
            return true;
        }

        // Acquire loads are one-way barriers: nothing later may overtake
        // them. Release stores wait for everything earlier.
        if let Instr::Load { mode, .. } | Instr::Rmw { mode, .. } = e {
            if matches!(mode, AccessMode::Acquire | AccessMode::SeqCst) {
                return true;
            }
        }
        if let Instr::Store { mode, .. } | Instr::Rmw { mode, .. } = l {
            if matches!(mode, AccessMode::Release | AccessMode::SeqCst) {
                return true;
            }
        }

        // Control dependencies to stores: a store after a conditional branch
        // on a pending load must wait (approximated via the dep field above).
        // Loads may speculate past control dependencies — that is exactly the
        // relaxation of Example 1.1.
        let _ = DepKind::Ctrl;

        // Lock pseudo-calls serialise the whole thread.
        if matches!(e, Instr::Lock { .. } | Instr::Unlock { .. })
            || matches!(l, Instr::Lock { .. } | Instr::Unlock { .. })
        {
            return true;
        }
        false
    }

    fn stores_before(&self, t: usize, fence_index: usize) -> bool {
        self.threads[t].instrs[..fence_index]
            .iter()
            .any(|i| matches!(i, Instr::Store { .. } | Instr::Rmw { .. }))
    }

    /// True if instruction `i` sits between a `TxBegin` and its `TxEnd`.
    fn in_txn_region(&self, t: usize, i: usize) -> bool {
        let instrs = &self.threads[t].instrs;
        let mut depth = 0i32;
        for (j, instr) in instrs.iter().enumerate() {
            match instr {
                Instr::TxBegin => depth += 1,
                Instr::TxEnd => depth -= 1,
                _ => {}
            }
            if j == i {
                return depth > 0 && !instr.is_txn_boundary();
            }
        }
        false
    }

    // ---- execution --------------------------------------------------------

    fn step(&mut self, action: &Action, rng: &mut SimRng) {
        match action {
            Action::Flush { thread } => self.flush_one(*thread),
            Action::Propagate { loc, index, to } => {
                self.history
                    .get_mut(loc)
                    .expect("location exists")
                    .get_mut(*index)
                    .expect("write exists")
                    .visible_to
                    .insert(*to);
                self.notify_conflict(*to, loc);
            }
            Action::Execute { thread, instr } => self.execute(*thread, *instr, rng),
        }
    }

    fn flush_one(&mut self, t: usize) {
        if self.threads[t].store_buffer.is_empty() {
            return;
        }
        let (loc, value) = self.threads[t].store_buffer.remove(0);
        self.commit_write(t, &loc, value, true);
    }

    /// Appends a write to the coherence history. `global` publishes it to
    /// every thread immediately (x86 flush, ARMv8 store, transaction commit);
    /// otherwise it is visible to the writer only and must propagate.
    ///
    /// Every other thread's transaction that holds `loc` aborts, whether or
    /// not the write is visible to that thread yet: once the write is in
    /// the coherence order, such a transaction could only commit by
    /// ordering itself on both sides of it.
    fn commit_write(&mut self, writer: usize, loc: &str, value: u64, global: bool) {
        let visible_to: HashSet<usize> = if global || !self.arch.non_mca() {
            (0..self.thread_count).collect()
        } else {
            [writer].into_iter().collect()
        };
        self.history
            .entry(loc.to_string())
            .or_default()
            .push(WriteRecord { value, visible_to });
        for t in 0..self.thread_count {
            if t != writer {
                self.notify_conflict(t, loc);
            }
        }
    }

    /// Aborts thread `t`'s transaction if a newly visible write conflicts
    /// with its read or write set (strong isolation: any access counts).
    fn notify_conflict(&mut self, t: usize, loc: &str) {
        let txn = &mut self.threads[t].txn;
        if txn.active
            && !txn.aborted
            && (txn.read_set.contains(loc) || txn.write_set.contains_key(loc))
        {
            txn.aborted = true;
        }
    }

    fn read_memory(&self, t: usize, loc: &str) -> u64 {
        let hist = &self.history[loc];
        if self.arch.non_mca() {
            hist.iter()
                .rev()
                .find(|w| w.visible_to.contains(&t))
                .map(|w| w.value)
                .unwrap_or(0)
        } else {
            hist.last().map(|w| w.value).unwrap_or(0)
        }
    }

    fn execute(&mut self, t: usize, i: usize, _rng: &mut SimRng) {
        let instr = self.threads[t].instrs[i].clone();
        self.threads[t].done[i] = true;

        // Inside an aborted transaction, everything up to TxEnd is a no-op.
        if self.threads[t].txn.active
            && self.threads[t].txn.aborted
            && !matches!(instr, Instr::TxEnd)
        {
            return;
        }

        match instr {
            Instr::Load { reg, loc, .. } => {
                let value = self.load_value(t, &loc);
                if self.threads[t].txn.active {
                    if self.reads_stale(t, &loc) {
                        self.threads[t].txn.stale_reads.insert(loc.clone());
                    }
                    self.threads[t].txn.read_set.insert(loc);
                }
                self.threads[t].regs.insert(reg, value);
            }
            Instr::Store { loc, value, .. } => {
                if self.threads[t].txn.active {
                    self.threads[t].txn.write_set.insert(loc, value);
                } else if self.arch.store_buffer() {
                    self.threads[t].store_buffer.push((loc, value));
                } else {
                    self.commit_write(t, &loc, value, !self.arch.non_mca());
                }
            }
            Instr::Rmw {
                reg, loc, value, ..
            } => {
                // RMWs are atomic against the coherence history: read the
                // latest write visible anywhere and append globally.
                let current = self.history[&loc].last().map(|w| w.value).unwrap_or(0);
                self.threads[t].regs.insert(reg, current);
                if self.threads[t].txn.active {
                    self.threads[t].txn.read_set.insert(loc.clone());
                    self.threads[t].txn.write_set.insert(loc, value);
                } else {
                    self.commit_write(t, &loc, value, true);
                }
            }
            Instr::Fence(FenceInstr::Sync) => {
                // sync is cumulative: writes this thread has observed
                // propagate to everyone.
                self.propagate_visible_writes(t);
            }
            Instr::Fence(_) => {}
            Instr::TxBegin => {
                // A transaction boundary has the ordering semantics of a
                // LOCK-prefixed instruction (§5.2): drain the store buffer
                // and propagate observed writes cumulatively.
                while !self.threads[t].store_buffer.is_empty() {
                    self.flush_one(t);
                }
                self.propagate_visible_writes(t);
                let saved = self.threads[t].regs.clone();
                let txn = &mut self.threads[t].txn;
                txn.active = true;
                txn.aborted = false;
                txn.had_txn = true;
                txn.read_set.clear();
                txn.stale_reads.clear();
                txn.write_set.clear();
                txn.saved_regs = saved.into_iter().collect();
            }
            Instr::TxEnd => {
                // Commit is also a full fence on every architecture we
                // model; on Power it is cumulative (the integrated barrier
                // behind `tprop1`): writes the transaction read from must be
                // visible everywhere before its own writes publish.
                while !self.threads[t].store_buffer.is_empty() {
                    self.flush_one(t);
                }
                self.propagate_visible_writes(t);
                // A transaction that read a coherence-stale value of a
                // location it also writes cannot commit: its write would
                // land after the newer write it missed, a StrongIsol cycle.
                let txn = &mut self.threads[t].txn;
                if txn
                    .write_set
                    .keys()
                    .any(|loc| txn.stale_reads.contains(loc))
                {
                    txn.aborted = true;
                }
                let aborted = self.threads[t].txn.aborted;
                if aborted {
                    // Roll back registers; the fail handler zeroes ok.
                    let saved = self.threads[t].txn.saved_regs.clone();
                    self.threads[t].regs = saved.into_iter().collect();
                    self.threads[t].txn.committed = false;
                } else {
                    // Commit: publish the write set atomically to everyone.
                    let writes: Vec<(String, u64)> = self.threads[t]
                        .txn
                        .write_set
                        .iter()
                        .map(|(l, v)| (l.clone(), *v))
                        .collect();
                    for (loc, value) in writes {
                        self.commit_write(t, &loc, value, true);
                    }
                    self.threads[t].txn.committed = true;
                }
                let txn = &mut self.threads[t].txn;
                txn.active = false;
                txn.read_set.clear();
                txn.stale_reads.clear();
                txn.write_set.clear();
            }
            Instr::TxAbort => {
                self.threads[t].txn.aborted = true;
            }
            Instr::Lock { mutex, .. } => {
                // The pseudo-call lock() stands for a *correct* lock
                // implementation, so it synchronises fully: drain the store
                // buffer, then acquire if free (retry otherwise).
                while !self.threads[t].store_buffer.is_empty() {
                    self.flush_one(t);
                }
                let owner = self.locks.entry(mutex.clone()).or_insert(None);
                if owner.is_none() {
                    *owner = Some(t);
                    self.threads[t].held_locks.insert(mutex);
                } else {
                    // Busy: re-enable this instruction so the thread retries.
                    self.threads[t].done[i] = false;
                }
            }
            Instr::Unlock { mutex, .. } => {
                // A correct unlock publishes the critical region's writes
                // before releasing the mutex: drain the store buffer and
                // force outstanding writes to propagate everywhere (the
                // cumulative barrier inside a real unlock).
                while !self.threads[t].store_buffer.is_empty() {
                    self.flush_one(t);
                }
                let all: HashSet<usize> = (0..self.thread_count).collect();
                let newly_visible: Vec<String> = self.history.keys().cloned().collect();
                for hist in self.history.values_mut() {
                    for w in hist.iter_mut() {
                        w.visible_to = all.clone();
                    }
                }
                for loc in newly_visible {
                    for other in 0..self.thread_count {
                        if other != t {
                            self.notify_conflict(other, &loc);
                        }
                    }
                }
                if self.threads[t].held_locks.remove(&mutex) {
                    self.locks.insert(mutex, None);
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
        if !self.arch.non_mca() {
            return;
        }
        let all: HashSet<usize> = (0..self.thread_count).collect();
        // One entry per location, no matter how many of its writes promote.
        let mut newly_visible: Vec<String> = Vec::new();
        for (loc, hist) in self.history.iter_mut() {
            let mut promoted = false;
            for w in hist.iter_mut() {
                if w.visible_to.contains(&t) && w.visible_to.len() < self.thread_count {
                    w.visible_to.clone_from(&all);
                    promoted = true;
                }
            }
            if promoted {
                newly_visible.push(loc.clone());
            }
        }
        for loc in newly_visible {
            for other in 0..self.thread_count {
                if other != t {
                    self.notify_conflict(other, &loc);
                }
            }
        }
    }

    /// True if a load of `loc` by thread `t` now reads a write that is not
    /// the last in `loc`'s coherence order (only on the non-multicopy-atomic
    /// machine, and never when the transaction's own write is forwarded).
    fn reads_stale(&self, t: usize, loc: &str) -> bool {
        if !self.arch.non_mca() || self.threads[t].txn.write_set.contains_key(loc) {
            return false;
        }
        let hist = &self.history[loc];
        hist.last().is_some_and(|w| !w.visible_to.contains(&t))
    }

    fn load_value(&self, t: usize, loc: &str) -> u64 {
        // Transactional reads see the transaction's own writes first.
        if self.threads[t].txn.active {
            if let Some(v) = self.threads[t].txn.write_set.get(loc) {
                return *v;
            }
        }
        // Store-buffer forwarding.
        if let Some((_, v)) = self.threads[t]
            .store_buffer
            .iter()
            .rev()
            .find(|(l, _)| l == loc)
        {
            return *v;
        }
        self.read_memory(t, loc)
    }
}

/// Runs `test` `runs` times on `arch` with schedules drawn from `seed`,
/// collecting the distinct final states.
pub fn explore(arch: SimArch, test: &LitmusTest, runs: usize, seed: u64) -> Vec<FinalState> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut seen: Vec<FinalState> = Vec::new();
    for _ in 0..runs {
        let machine = Machine::new(arch, test);
        let mut run_rng = SimRng::seed_from_u64(rng.next_u64());
        let state = machine.run(&mut run_rng);
        if !seen.contains(&state) {
            seen.push(state);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_litmus::{from_execution, Cond};

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
        let a = explore(SimArch::Armv8, &test, 50, 7);
        let b = explore(SimArch::Armv8, &test, 50, 7);
        assert_eq!(a, b);
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
