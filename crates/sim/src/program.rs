//! A litmus test compiled for the operational machines.
//!
//! [`Program::compile`] runs once per test. It interns every location,
//! register and mutex as a small id (locations and mutexes in sorted-name
//! order, each thread's registers in register order), lowers each
//! instruction to an [`Op`] over those ids, precomputes each thread's
//! ordering table and resolves the postcondition. Every run of the test
//! then replays on one reused [`Machine`](crate::machine::Machine) without
//! touching a name.

use tm_litmus::{AccessMode, Cond, FenceInstr, Instr, LitmusTest, Reg};

use crate::machine::SimArch;

/// The most threads a test may have: visibility sets are `u32` thread
/// masks.
pub const MAX_THREADS: usize = 32;

/// The most instructions one thread may have: a thread's executed set and
/// ordering table are `u32` instruction masks.
pub const MAX_INSTRS_PER_THREAD: usize = 32;

/// The most distinct locations a test may mention: transactional read,
/// write and stale sets are `u32` location masks.
pub const MAX_LOCATIONS: usize = 32;

/// The most distinct mutexes a test may lock: each thread's held locks are
/// a `u32` mutex mask.
pub const MAX_MUTEXES: usize = 32;

/// One instruction over interned ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Load `loc` into the thread's register slot `reg`.
    Load { reg: usize, loc: usize },
    /// Store `value` to `loc`.
    Store { loc: usize, value: u64 },
    /// Atomically read `loc` into register slot `reg` and write `value`.
    Rmw { reg: usize, loc: usize, value: u64 },
    /// A fence.
    Fence(FenceInstr),
    /// Begin a transaction.
    TxBegin,
    /// Commit (or roll back) the current transaction.
    TxEnd,
    /// Abort the current transaction.
    TxAbort,
    /// Acquire `mutex`, retrying while another thread holds it.
    Lock { mutex: usize },
    /// Release `mutex`.
    Unlock { mutex: usize },
}

/// One compiled thread.
#[derive(Clone, Debug)]
pub(crate) struct Code {
    /// The instructions, in program order.
    pub ops: Vec<Op>,
    /// `before[i]` has bit `j` set if instruction `j < i` must execute
    /// before instruction `i` may start on an out-of-order machine.
    pub before: Vec<u32>,
    /// Instructions the in-order machine runs only with an empty store
    /// buffer (`MFENCE` and RMWs).
    pub drains: u32,
    /// The first register slot of this thread in the machine's register
    /// file.
    pub reg_base: usize,
    /// How many distinct registers this thread loads into.
    pub regs: usize,
}

/// One postcondition conjunct over interned ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Check {
    /// Register `reg` of `thread` (a slot index within the thread) holds
    /// `value`; an unwritten register reads as 0.
    Reg {
        thread: usize,
        reg: usize,
        value: u64,
    },
    /// Location `loc` finally holds `value`.
    Loc { loc: usize, value: u64 },
    /// The transaction of `thread` committed.
    Committed { thread: usize },
    /// A conjunct no run satisfies (it names a missing thread, register or
    /// location with a non-zero value, or a missing thread's transaction).
    Never,
}

/// A litmus test compiled for one machine.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    /// The machine the test runs on.
    pub arch: SimArch,
    /// The threads.
    pub threads: Vec<Code>,
    /// The initial value of each location.
    pub init: Vec<u64>,
    /// How many distinct mutexes the test locks.
    pub mutexes: usize,
    /// Total register slots over all threads.
    pub regs: usize,
    /// The postcondition, as a conjunction.
    pub post: Vec<Check>,
}

impl Program {
    /// Compiles `test` for `arch`.
    ///
    /// # Panics
    ///
    /// If `test` exceeds [`MAX_THREADS`], [`MAX_INSTRS_PER_THREAD`],
    /// [`MAX_LOCATIONS`] or [`MAX_MUTEXES`].
    pub fn compile(arch: SimArch, test: &LitmusTest) -> Program {
        let locations = test.locations();
        let mut mutexes: Vec<&str> = test
            .threads
            .iter()
            .flat_map(|t| &t.instrs)
            .filter_map(|i| match i {
                Instr::Lock { mutex, .. } | Instr::Unlock { mutex, .. } => Some(mutex.as_str()),
                _ => None,
            })
            .collect();
        mutexes.sort_unstable();
        mutexes.dedup();
        let longest = test.threads.iter().map(|t| t.instrs.len()).max();
        for (count, what, limit_name, limit) in [
            (test.threads.len(), "threads", "MAX_THREADS", MAX_THREADS),
            (
                longest.unwrap_or(0),
                "instructions in one thread",
                "MAX_INSTRS_PER_THREAD",
                MAX_INSTRS_PER_THREAD,
            ),
            (locations.len(), "locations", "MAX_LOCATIONS", MAX_LOCATIONS),
            (mutexes.len(), "mutexes", "MAX_MUTEXES", MAX_MUTEXES),
        ] {
            assert!(
                count <= limit,
                "tm-sim: test {} has {count} {what}; the machines support at most {limit_name} = {limit}",
                test.name,
            );
        }

        let loc_id = |name: &str| {
            locations
                .binary_search_by(|l| l.as_str().cmp(name))
                .expect("every accessed location is a test location")
        };
        let mutex_id = |name: &str| mutexes.binary_search(&name).expect("mutex was interned");
        let mut reg_names: Vec<Vec<Reg>> = Vec::with_capacity(test.threads.len());
        let mut threads = Vec::with_capacity(test.threads.len());
        let mut reg_base = 0;
        for thread in &test.threads {
            let mut regs: Vec<Reg> = thread
                .instrs
                .iter()
                .filter_map(|i| match i {
                    Instr::Load { reg, .. } | Instr::Rmw { reg, .. } => Some(*reg),
                    _ => None,
                })
                .collect();
            regs.sort_unstable();
            regs.dedup();
            let slot = |reg: &Reg| {
                regs.binary_search(reg)
                    .expect("loaded register was interned")
            };
            let ops = thread
                .instrs
                .iter()
                .map(|instr| match instr {
                    Instr::Load { reg, loc, .. } => Op::Load {
                        reg: slot(reg),
                        loc: loc_id(loc),
                    },
                    Instr::Store { loc, value, .. } => Op::Store {
                        loc: loc_id(loc),
                        value: *value,
                    },
                    Instr::Rmw {
                        reg, loc, value, ..
                    } => Op::Rmw {
                        reg: slot(reg),
                        loc: loc_id(loc),
                        value: *value,
                    },
                    Instr::Fence(f) => Op::Fence(*f),
                    Instr::TxBegin => Op::TxBegin,
                    Instr::TxEnd => Op::TxEnd,
                    Instr::TxAbort => Op::TxAbort,
                    Instr::Lock { mutex, .. } => Op::Lock {
                        mutex: mutex_id(mutex),
                    },
                    Instr::Unlock { mutex, .. } => Op::Unlock {
                        mutex: mutex_id(mutex),
                    },
                })
                .collect();
            let drains = mask_of(&thread.instrs, |i| {
                matches!(i, Instr::Fence(FenceInstr::MFence) | Instr::Rmw { .. })
            });
            threads.push(Code {
                ops,
                before: ordering_table(&thread.instrs),
                drains,
                reg_base,
                regs: regs.len(),
            });
            reg_base += regs.len();
            reg_names.push(regs);
        }

        let init = locations
            .iter()
            .map(|loc| {
                test.init
                    .iter()
                    .find(|(l, _)| l == loc)
                    .map_or(0, |(_, v)| *v)
            })
            .collect();
        let post = test
            .post
            .conjuncts
            .iter()
            .filter_map(|cond| match cond {
                Cond::RegEq { thread, reg, value } => {
                    let slot = reg_names
                        .get(*thread)
                        .and_then(|regs| regs.binary_search(reg).ok());
                    match slot {
                        Some(reg) => Some(Check::Reg {
                            thread: *thread,
                            reg,
                            value: *value,
                        }),
                        None => (*value != 0).then_some(Check::Never),
                    }
                }
                Cond::LocEq { loc, value } => {
                    match locations.binary_search_by(|l| l.as_str().cmp(loc)) {
                        Ok(loc) => Some(Check::Loc { loc, value: *value }),
                        Err(_) => (*value != 0).then_some(Check::Never),
                    }
                }
                Cond::TxnCommitted { thread } => Some(if *thread < threads.len() {
                    Check::Committed { thread: *thread }
                } else {
                    Check::Never
                }),
            })
            .collect();
        Program {
            arch,
            threads,
            init,
            mutexes: mutexes.len(),
            regs: reg_base,
            post,
        }
    }
}

/// The bitmask of the instructions satisfying `pred`.
fn mask_of(instrs: &[Instr], mut pred: impl FnMut(&Instr) -> bool) -> u32 {
    instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| pred(i))
        .fold(0, |m, (i, _)| m | 1 << i)
}

/// For each instruction, the mask of earlier instructions that must execute
/// before it on an out-of-order machine. Every rule depends only on the two
/// instructions and their positions, never on the machine state.
fn ordering_table(instrs: &[Instr]) -> Vec<u32> {
    // Instructions strictly inside a transaction (boundaries excluded).
    let mut depth = 0i32;
    let in_txn = mask_of(instrs, |instr| {
        match instr {
            Instr::TxBegin => depth += 1,
            Instr::TxEnd => depth -= 1,
            _ => {}
        }
        depth > 0 && !instr.is_txn_boundary()
    });
    let is_store = |i: &Instr| matches!(i, Instr::Store { .. } | Instr::Rmw { .. });
    (0..instrs.len())
        .map(|later| {
            (0..later)
                .filter(|&earlier| {
                    let stores_before = instrs[..earlier].iter().any(is_store);
                    let txn = in_txn & (1 << earlier | 1 << later) != 0;
                    must_order(&instrs[earlier], &instrs[later], txn, stores_before)
                })
                .fold(0, |m, earlier| m | 1 << earlier)
        })
        .collect()
}

/// True if instruction `e` must complete before the later `l` may start on
/// an out-of-order machine. `in_txn` says whether either sits inside a
/// transaction; `stores_before` whether a store precedes `e` in its thread.
fn must_order(e: &Instr, l: &Instr, in_txn: bool, stores_before: bool) -> bool {
    // Transactions execute as an in-order block with fences at the
    // boundaries.
    if e.is_txn_boundary() || l.is_txn_boundary() || in_txn {
        return true;
    }

    // Same-location accesses stay in order (per-thread coherence).
    if let (Some(a), Some(b)) = (e.loc(), l.loc()) {
        if a == b {
            return true;
        }
    }

    // Dependencies: the consumer waits for the producing load.
    if let Instr::Load { dep: Some(d), .. } | Instr::Store { dep: Some(d), .. } = l {
        if let Instr::Load { reg, .. } | Instr::Rmw { reg, .. } = e {
            if *reg == d.reg {
                return true;
            }
        }
    }

    // Barriers.
    match e {
        Instr::Fence(
            FenceInstr::Dmb | FenceInstr::Sync | FenceInstr::MFence | FenceInstr::FenceSc,
        ) => return true,
        // Orders everything except store→load.
        Instr::Fence(FenceInstr::Lwsync | FenceInstr::DmbLd)
            if !matches!(l, Instr::Load { .. }) || !stores_before =>
        {
            return true
        }
        Instr::Fence(FenceInstr::DmbSt) if matches!(l, Instr::Store { .. } | Instr::Rmw { .. }) => {
            return true
        }
        _ => {}
    }
    if matches!(l, Instr::Fence(_)) {
        return true;
    }

    // Acquire loads are one-way barriers: nothing later may overtake them.
    // Release stores wait for everything earlier, and stay ordered before a
    // later acquire load (the `[W & Rel]; po; [R & Acq]` clause of ARMv8's
    // `Order` axiom).
    let acquire = |i: &Instr| {
        matches!(i, Instr::Load { mode, .. } | Instr::Rmw { mode, .. }
            if matches!(mode, AccessMode::Acquire | AccessMode::SeqCst))
    };
    let release = |i: &Instr| {
        matches!(i, Instr::Store { mode, .. } | Instr::Rmw { mode, .. }
            if matches!(mode, AccessMode::Release | AccessMode::SeqCst))
    };
    if acquire(e) || release(l) || (release(e) && acquire(l)) {
        return true;
    }

    // Loads may speculate past control dependencies — that is exactly the
    // relaxation of Example 1.1.

    // Lock pseudo-calls serialise the whole thread.
    matches!(e, Instr::Lock { .. } | Instr::Unlock { .. })
        || matches!(l, Instr::Lock { .. } | Instr::Unlock { .. })
}
