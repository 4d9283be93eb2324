//! The checkpointed sweep runner: claims work units, journals their
//! results, survives worker panics and process crashes, and reassembles
//! suites that are bit-identical to an uninterrupted run.
//!
//! The unit of fault tolerance is the [`WorkUnit`](tm_synth::WorkUnit): a
//! (thread partition, shape prefix) subspace with a stable cross-process id.
//! A unit either runs to completion — its counts and banked Forbid
//! candidates are appended to the journal — or it leaves no trace and is
//! re-run on resume. Because every unit is deterministic and the final
//! assembly sorts by canonical signature, *when* and *by whom* a unit runs
//! cannot change the suites.
//!
//! ## Adaptive scheduling
//!
//! Units are wildly skewed: one odometer subtree can hold orders of
//! magnitude more executions than another, and at |E|=8 the tail unit *is*
//! the makespan. Two mechanisms attack that inside a process:
//!
//! * **Weight-ordered (LPT) dispatch** — every unit gets an upper-bound
//!   weight ([`WorkUnit::weight`]); workers always take the heaviest
//!   pending unit, so the big rocks land first and the tail is small.
//! * **Splittable units** — a unit heavier than `max_unit_weight` is
//!   pre-split ([`WorkUnit::split`]) into child subtrees with their
//!   own stable ids, journalled as [`Record::Split`]. Mid-run, an idle
//!   worker is a steal request: a worker running a splittable unit
//!   between-children hands the unfinished children back to the frontier.
//!   The same mechanism preserves work at budget expiry — finished
//!   children are journalled instead of discarding the whole unit.
//!
//! Across processes a shard runs the static slice `id % M == I` of the
//! root units, each into its own journal, and [`merge_sharded`] sums the
//! journals. Pre-splits derive from the whole job, so every shard dices
//! its slice exactly as an unsharded run would.
//!
//! Replay folds [`Record::Split`] by replacing the parent with its
//! children in the frontier — unless a whole-parent `UnitDone` exists, in
//! which case the completion wins. Either way the leaf results sum to
//! exactly what the unsplit unit would have produced, so suites stay
//! bit-identical however the work was diced.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tm_exec::ir::Delta;
use tm_exec::Execution;
use tm_models::{delta_checker, CheckerTelemetry, MemoryModel};
use tm_obs::{Event, Obs, RateWindow};
use tm_synth::{
    assemble_suites, canonical_signature, enumerate_unit, work_units, worker_count, CanonSig,
    ForbidFilter, ReducedCount, SuiteReport, Symmetry, SynthConfig, WorkUnit,
};

use crate::codec::{decode_execution, encode_execution};
use crate::journal::{self, JournalWriter, Record, JOURNAL_FILE};
use crate::report::{Heartbeat, ETA_WINDOW_SECS};
use tm_exec::hash::Fnv1a;

/// The exit code used by injected-crash fault plans, distinct from every
/// legitimate `tm-cat` exit code so tests and supervisors can tell an
/// injected crash from a real failure.
pub const INJECTED_EXIT_CODE: i32 = 42;

/// What a sweep computes per execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMode {
    /// Count consistent executions (and drift against a reference model)
    /// over every size `2..=events` — the plain `tm-cat sweep`.
    Counts,
    /// Synthesise the Forbid/Allow suites at exactly `events` events —
    /// `tm-cat sweep --suites`.
    Suites,
}

impl SweepMode {
    fn byte(self) -> u8 {
        match self {
            SweepMode::Counts => 0,
            SweepMode::Suites => 1,
        }
    }
}

/// The models and bounds of one sweep — everything that determines its
/// result, fingerprinted into the journal so a checkpoint can refuse to
/// resume under a different job.
pub struct SweepJob<'a> {
    /// The model under study (the TM model in suites mode).
    pub model: &'a dyn MemoryModel,
    /// The non-transactional baseline (required in suites mode).
    pub baseline: Option<&'a dyn MemoryModel>,
    /// A reference model to diff verdicts against (counts mode).
    pub reference: Option<&'a dyn MemoryModel>,
    /// What to compute.
    pub mode: SweepMode,
    /// Enumeration bounds.
    pub config: &'a SynthConfig,
    /// The event bound.
    pub events: usize,
    /// Whether the enumeration visits the full space or one canonical
    /// representative per isomorphism class. Part of the journal
    /// fingerprint: a reduced journal's unit results (representative
    /// counts, orbit weights) are not interchangeable with a full
    /// journal's, so the two must never merge or resume into each other.
    pub symmetry: Symmetry,
}

impl SweepJob<'_> {
    /// A stable fingerprint of everything that determines the sweep's
    /// result. Two jobs fingerprint equal iff their journals are
    /// interchangeable. Each model enters by name and, when it has one,
    /// by [`content_hash`](MemoryModel::content_hash), so a model edited
    /// under the same name makes the old journal foreign.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.config.fingerprint());
        h.usize(self.events);
        h.byte(self.mode.byte());
        h.byte(self.symmetry.byte());
        for model in [Some(self.model), self.baseline, self.reference] {
            if let Some(model) = model {
                h.bytes(model.name().as_bytes());
                if let Some(content) = model.content_hash() {
                    h.byte(0xFE).u64(content);
                }
            }
            h.byte(0xFF);
        }
        h.finish()
    }

    fn sizes(&self) -> Vec<usize> {
        match self.mode {
            SweepMode::Counts => (2..=self.events).collect(),
            SweepMode::Suites => vec![self.events],
        }
    }
}

/// How an injected fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailKind {
    /// The victim unit panics on **every** attempt — exercises the full
    /// retry-then-quarantine path.
    Panic,
    /// The victim unit panics on its first attempt only — exercises
    /// retry-then-success.
    PanicOnce,
    /// The whole process exits with [`INJECTED_EXIT_CODE`] (journal synced
    /// first) — exercises crash/resume and supervisor restart.
    Exit,
    /// The victim unit stalls (sleeps) instead of finishing — exercises
    /// per-unit deadlines.
    Stall,
}

/// A fault-injection plan: trip [`FailKind`] when the `after_units`-th work
/// unit is claimed (1-based; with several workers the exact set of units
/// already banked at that point is racy, which is the point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailPlan {
    /// How the fault manifests.
    pub kind: FailKind,
    /// Trip on the K-th claimed unit.
    pub after_units: u64,
}

impl FailPlan {
    /// Parses `panic:K`, `panic-once:K`, `exit:K` or `stall:K`.
    pub fn parse(s: &str) -> Result<FailPlan, String> {
        let (kind, k) = s
            .split_once(':')
            .ok_or_else(|| format!("bad fail plan `{s}` (expected KIND:K)"))?;
        let kind = match kind {
            "panic" => FailKind::Panic,
            "panic-once" => FailKind::PanicOnce,
            "exit" => FailKind::Exit,
            "stall" => FailKind::Stall,
            other => {
                return Err(format!(
                    "bad fail kind `{other}` (expected panic, panic-once, exit or stall)"
                ))
            }
        };
        let after_units: u64 = k
            .parse()
            .map_err(|_| format!("bad fail plan count `{k}` (expected a number)"))?;
        if after_units == 0 {
            return Err("fail plan count must be >= 1".to_string());
        }
        Ok(FailPlan { kind, after_units })
    }

    /// Reads a plan from the `TM_SWEEP_FAIL_PLAN` environment variable, if
    /// set — lets tests inject faults into child processes they spawn.
    pub fn from_env() -> Result<Option<FailPlan>, String> {
        match std::env::var("TM_SWEEP_FAIL_PLAN") {
            Ok(s) if !s.is_empty() => FailPlan::parse(&s).map(Some),
            _ => Ok(None),
        }
    }
}

/// Knobs of a checkpointed sweep run.
pub struct SweepOptions {
    /// Directory holding the journal (created if missing).
    pub checkpoint: PathBuf,
    /// Replay an existing journal and continue; without this flag an
    /// existing journal is an error (never silently clobbered).
    pub resume: bool,
    /// Run only units with `id % m == i`, as `(i, m)`.
    pub shard: Option<(u32, u32)>,
    /// Wall-clock budget; when it expires, in-flight units are abandoned
    /// (left pending in the journal) and the run reports
    /// [`SweepStatus::BudgetExhausted`].
    pub budget: Option<Duration>,
    /// Per-unit deadline; a unit that exceeds it is retried, then
    /// quarantined.
    pub unit_deadline: Option<Duration>,
    /// Retries after a failed attempt before quarantining (so a unit gets
    /// `retries + 1` attempts).
    pub retries: u32,
    /// Base backoff between attempts, doubled each retry.
    pub backoff: Duration,
    /// Worker thread count; defaults to `TM_SYNTH_THREADS` or the
    /// available parallelism.
    pub threads: Option<usize>,
    /// Journal records buffered per fsync batch (1 = sync every record).
    pub sync_batch: usize,
    /// Fault injection, for crash/resume tests.
    pub fail_plan: Option<FailPlan>,
    /// Observability handle: per-unit events go to its sink, rollup
    /// counters to its registry. The default [`Obs::disabled`] handle
    /// costs one relaxed atomic increment per counted thing.
    pub obs: Obs,
    /// Print a live `units done/total, execs/s, ETA` line to stderr.
    pub progress: bool,
    /// Pre-split any unit whose weight upper bound exceeds this; `None`
    /// derives `total_weight / (4 × threads)`.
    pub max_unit_weight: Option<u64>,
}

impl SweepOptions {
    /// Defaults: fresh run, no shard, no budget, no deadline, 2 retries
    /// with 25ms base backoff, per-record fsync, no fault injection.
    pub fn new(checkpoint: impl Into<PathBuf>) -> SweepOptions {
        SweepOptions {
            checkpoint: checkpoint.into(),
            resume: false,
            shard: None,
            budget: None,
            unit_deadline: None,
            retries: 2,
            backoff: Duration::from_millis(25),
            threads: None,
            sync_batch: 1,
            fail_plan: None,
            obs: Obs::disabled(),
            progress: false,
            max_unit_weight: None,
        }
    }
}

/// How a sweep run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepStatus {
    /// Every unit of this shard completed.
    Complete,
    /// Every unit was attempted but some were quarantined; results are
    /// degraded (a quarantined unit's subspace is missing from the suites).
    Partial,
    /// The wall-clock budget expired with units still pending; resume with
    /// the same checkpoint to continue.
    BudgetExhausted,
}

/// A unit that exhausted its retries.
#[derive(Clone, Debug)]
pub struct QuarantinedUnit {
    /// Stable id of the unit.
    pub unit_id: u64,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The last failure (panic payload or "deadline exceeded").
    pub reason: String,
    /// Human-readable unit label ("threads=2+1 prefix=R0,W0,F"), when the
    /// unit was attempted this run (quarantines replayed from a journal
    /// carry an empty label).
    pub label: String,
}

/// Wall-clock phase timings of one sweep run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepTimings {
    /// Unit construction, shard filtering and journal replay.
    pub setup_seconds: f64,
    /// The worker scope — where the enumeration happens.
    pub run_seconds: f64,
    /// Summing results and (suites mode) assembling the suites.
    pub assemble_seconds: f64,
    /// End to end, as seen by [`run_sweep`].
    pub total_seconds: f64,
}

/// Per-unit telemetry of one *completed* unit, as reported in
/// `sweep.report.json`. Units replayed from the journal carry their
/// journalled counts but no timing (`reused` is true, `seconds` and
/// `attempts` are zero).
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// Stable id of the unit.
    pub unit_id: u64,
    /// Human-readable label ("threads=2+1 prefix=R0,W0,F").
    pub label: String,
    /// Event count of the unit's subspace.
    pub events: usize,
    /// Whether the result was replayed from the journal rather than run.
    pub reused: bool,
    /// Wall seconds of the successful attempt (0 when reused).
    pub seconds: f64,
    /// Attempts the unit took this run (0 when reused).
    pub attempts: u32,
    /// Executions visited (canonical representatives under reduction).
    pub visited: u64,
    /// Orbit-weighted visit count.
    pub weighted_visited: u64,
}

/// The result of a checkpointed sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// How the run ended.
    pub status: SweepStatus,
    /// Executions visited across all completed units (canonical
    /// representatives only, under symmetry reduction).
    pub visited: u64,
    /// Consistent executions (counts mode; representatives only, under
    /// symmetry reduction).
    pub consistent: u64,
    /// Verdict disagreements against the reference model (counts mode).
    pub drift: u64,
    /// Orbit-weighted visit count — the full-space total a symmetry-reduced
    /// sweep covered. Equals `visited` in a full sweep.
    pub weighted_visited: u64,
    /// Orbit-weighted consistent count. Equals `consistent` in a full sweep.
    pub weighted_consistent: u64,
    /// The assembled suites (suites mode, unsharded runs and merges only —
    /// a single shard holds too little to assemble).
    pub suites: Option<SuiteReport>,
    /// Units in this shard's slice of the space.
    pub total_units: usize,
    /// Units completed, including ones replayed from the journal.
    pub completed_units: usize,
    /// Units whose results were replayed from the journal rather than run.
    pub reused_units: usize,
    /// Units neither completed nor quarantined (budget ran out first).
    pub pending_units: usize,
    /// Units that exhausted their retries.
    pub quarantined: Vec<QuarantinedUnit>,
    /// Retry attempts made across all units (0 in a fault-free run).
    pub retried_attempts: u64,
    /// Units completed by this run (`completed_units - reused_units`).
    pub fresh_units: usize,
    /// One entry per completed unit (reused included), in deterministic
    /// unit order — reconciles 1:1 with the journal's completed set.
    pub per_unit: Vec<UnitReport>,
    /// Enumeration tally of the *fresh* units only, including the
    /// symmetry kill counters (all zero under [`Symmetry::Full`]).
    pub prune: ReducedCount,
    /// Rollup of the fresh units' checker telemetry (maintenance stats,
    /// early exits); `None` when no fresh unit ran an instrumented checker.
    pub checker: Option<CheckerTelemetry>,
    /// Phase timings of this run.
    pub timings: SweepTimings,
}

/// Why a sweep could not run (as opposed to running degraded).
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem trouble with the checkpoint directory or journal.
    Io(io::Error),
    /// The request contradicts itself or the on-disk checkpoint (journal
    /// exists without `--resume`, meta mismatch, bad shard spec, …).
    Config(String),
}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> SweepError {
        SweepError::Io(e)
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "checkpoint IO error: {e}"),
            SweepError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A work unit paired with its size and stable id.
#[derive(Clone)]
struct UnitRef {
    n: usize,
    id: u64,
    unit: WorkUnit,
    /// [`WorkUnit::weight`], computed on first use. The job's total weight,
    /// the pre-split rule and the dispatch order all read it, so each unit
    /// enumerates its shape vectors for it once.
    weight: OnceCell<u64>,
}

impl UnitRef {
    fn new(n: usize, id: u64, unit: WorkUnit) -> UnitRef {
        UnitRef {
            n,
            id,
            unit,
            weight: OnceCell::new(),
        }
    }

    fn weight(&self, config: &SynthConfig) -> u64 {
        *self.weight.get_or_init(|| self.unit.weight(config, self.n))
    }
}

/// What one completed unit contributed. Under [`Symmetry::Reduced`] the
/// plain counters count canonical representatives and the `weighted_*`
/// counters carry the orbit-weighted (full-space) totals; under
/// [`Symmetry::Full`] the two coincide.
#[derive(Clone, Default)]
struct UnitResult {
    visited: u64,
    consistent: u64,
    drift: u64,
    weighted_visited: u64,
    weighted_consistent: u64,
    candidates: Vec<Vec<u8>>,
}

/// What a successful attempt hands back beyond the journalled result:
/// the enumeration tally (with symmetry kill counters) and the checker's
/// own telemetry, neither of which is journalled.
struct FreshDone {
    result: UnitResult,
    tally: ReducedCount,
    checker: Option<CheckerTelemetry>,
}

/// How one attempt at a unit ended.
enum Attempt {
    Done(Box<FreshDone>),
    /// The wall-clock budget expired mid-unit; nothing is banked.
    Interrupted,
    /// The per-unit deadline expired; retryable.
    Deadline,
}

/// Shared fault-injection state: `claimed` counts unit claims, and the
/// `after_units`-th claim marks its unit as the victim.
struct FailState {
    plan: FailPlan,
    claimed: AtomicU64,
    victim: AtomicU64,
    once_fired: AtomicBool,
}

const NO_VICTIM: u64 = u64::MAX;

impl FailState {
    fn new(plan: FailPlan) -> FailState {
        FailState {
            plan,
            claimed: AtomicU64::new(0),
            victim: AtomicU64::new(NO_VICTIM),
            once_fired: AtomicBool::new(false),
        }
    }

    /// Called when a worker claims a unit; marks the K-th claim's unit as
    /// the victim.
    fn on_claim(&self, unit_id: u64) {
        let k = self.claimed.fetch_add(1, Ordering::SeqCst) + 1;
        if k == self.plan.after_units {
            self.victim.store(unit_id, Ordering::SeqCst);
        }
    }

    fn is_victim(&self, unit_id: u64) -> bool {
        self.victim.load(Ordering::SeqCst) == unit_id
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// One dispatchable piece of work: a unit (root or split-off child) and
/// its weight.
struct Task {
    weight: u64,
    unit: UnitRef,
}

impl Task {
    fn new(job: &SweepJob<'_>, unit: UnitRef) -> Task {
        Task {
            weight: unit.weight(job.config),
            unit,
        }
    }
}

/// What [`Scheduler::next`] hands a worker.
enum Dispatch {
    /// Run this task (the scheduler counted it in flight; the worker must
    /// [`Scheduler::finish`] it on every exit path).
    Run(Task),
    /// The queue is empty but work is in flight — it may split and refill
    /// the queue. Nap briefly and ask again.
    Wait,
    /// Nothing left anywhere: exit.
    Drained,
}

/// The shared work frontier: a queue kept sorted by ascending weight and
/// popped from the end — longest-processing-time first.
struct Scheduler {
    queue: Mutex<Vec<Task>>,
    in_flight: AtomicUsize,
    /// Workers currently napping in [`Dispatch::Wait`] — a nonzero value
    /// is a standing steal request to whoever runs a splittable unit.
    idle: AtomicUsize,
}

impl Scheduler {
    fn new(mut tasks: Vec<Task>) -> Scheduler {
        tasks.sort_by_key(|t| t.weight);
        Scheduler {
            queue: Mutex::new(tasks),
            in_flight: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
        }
    }

    fn next(&self) -> Dispatch {
        let mut queue = self.queue.lock().unwrap();
        if let Some(task) = queue.pop() {
            // Counted in flight under the queue lock, so "empty queue and
            // nothing in flight" (checked under the same lock) really
            // means drained — an in-flight task can still push splits.
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            return Dispatch::Run(task);
        }
        if self.in_flight.load(Ordering::SeqCst) > 0 {
            Dispatch::Wait
        } else {
            Dispatch::Drained
        }
    }

    /// Settles one [`Dispatch::Run`] task.
    fn finish(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Returns split-off children to the frontier, keeping the weight
    /// order.
    fn push(&self, tasks: Vec<Task>) {
        let mut queue = self.queue.lock().unwrap();
        for task in tasks {
            let pos = queue.partition_point(|t| t.weight <= task.weight);
            queue.insert(pos, task);
        }
    }

    fn idle_waiters(&self) -> usize {
        self.idle.load(Ordering::SeqCst)
    }
}

/// How a (possibly child-wise) run of one scheduled unit ended.
enum SchedRun {
    /// The whole unit's result is in hand — either it ran whole, or every
    /// child ran here and the results were summed in derivation order
    /// (bit-identical to an unsplit run, except that per-child signature
    /// dedup can bank extra duplicate candidates, which global assembly
    /// removes again).
    Whole(Box<FreshDone>),
    /// The unit was split mid-run: `done` children completed here (a
    /// prefix, in derivation order, with their attempt seconds), `rest`
    /// remain. `budget: true` means the split preserved work at budget
    /// expiry (rest is abandoned to the journal); otherwise the rest goes
    /// back to the frontier for idle workers to steal.
    Split {
        done: Vec<(UnitRef, Box<FreshDone>, f64)>,
        rest: Vec<UnitRef>,
        budget: bool,
    },
    /// The wall-clock budget expired before anything finished; nothing is
    /// banked.
    Interrupted,
    /// The attempt failed (panic or per-unit deadline); retry the unit
    /// whole.
    Failed(String),
}

/// Runs a splittable unit child by child. Between children it checks the
/// budget (split-and-abandon preserves the finished prefix) and, after the
/// first child, whether any worker is idle (split-and-share). A panic or
/// deadline in any child fails the whole unit — the retry runs it whole,
/// so nothing is double-banked.
fn run_children(
    job: &SweepJob<'_>,
    children: &[UnitRef],
    run_start: Instant,
    opts: &SweepOptions,
    sched: &Scheduler,
) -> SchedRun {
    let mut done: Vec<(UnitRef, Box<FreshDone>, f64)> = Vec::new();
    for (i, child) in children.iter().enumerate() {
        if opts.budget.is_some_and(|b| run_start.elapsed() >= b) {
            if done.is_empty() {
                return SchedRun::Interrupted;
            }
            return SchedRun::Split {
                done,
                rest: children[i..].to_vec(),
                budget: true,
            };
        }
        if i > 0 && sched.idle_waiters() > 0 {
            return SchedRun::Split {
                done,
                rest: children[i..].to_vec(),
                budget: false,
            };
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(job, child, run_start, opts, false)
        }));
        match outcome {
            Ok(Attempt::Done(fresh)) => {
                done.push((child.clone(), fresh, started.elapsed().as_secs_f64()));
            }
            Ok(Attempt::Interrupted) => {
                if done.is_empty() {
                    return SchedRun::Interrupted;
                }
                return SchedRun::Split {
                    done,
                    rest: children[i..].to_vec(),
                    budget: true,
                };
            }
            Ok(Attempt::Deadline) => return SchedRun::Failed("deadline exceeded".to_string()),
            Err(payload) => {
                return SchedRun::Failed(format!("panicked: {}", panic_message(payload)))
            }
        }
    }
    // Every child ran here: sum in derivation order, exactly the totals an
    // unsplit run would have journalled.
    let mut sum = FreshDone {
        result: UnitResult::default(),
        tally: ReducedCount::default(),
        checker: None,
    };
    for (_, fresh, _) in done {
        let FreshDone {
            result,
            tally,
            checker,
        } = *fresh;
        sum.result.visited += result.visited;
        sum.result.consistent += result.consistent;
        sum.result.drift += result.drift;
        sum.result.weighted_visited += result.weighted_visited;
        sum.result.weighted_consistent += result.weighted_consistent;
        sum.result.candidates.extend(result.candidates);
        sum.tally.add(tally);
        if let Some(t) = checker {
            match sum.checker.as_mut() {
                Some(total) => total.merge(t),
                None => sum.checker = Some(t),
            }
        }
    }
    SchedRun::Whole(Box::new(sum))
}

/// Builds every unit of the job (all sizes), with stable ids, in a
/// deterministic order. Ids are asserted unique — a collision would make
/// the journal ambiguous.
fn all_units(job: &SweepJob<'_>) -> Result<Vec<UnitRef>, SweepError> {
    let mut units = Vec::new();
    let mut ids = HashSet::new();
    for n in job.sizes() {
        for unit in work_units(job.config, n, job.symmetry) {
            let id = unit.stable_id(job.config, n);
            if !ids.insert(id) {
                return Err(SweepError::Config(format!(
                    "work-unit id collision on {id:#018x} — cannot journal this job"
                )));
            }
            units.push(UnitRef::new(n, id, unit));
        }
    }
    Ok(units)
}

fn meta_record(job: &SweepJob<'_>, shard: Option<(u32, u32)>) -> Record {
    let (shard_index, shard_count) = shard.unwrap_or((0, 1));
    Record::Meta {
        fingerprint: job.fingerprint(),
        events: job.events as u32,
        mode: job.mode.byte(),
        shard_index,
        shard_count,
    }
}

/// Folded journal state: completed units, still-standing quarantines and
/// recorded splits (parent id → child ids, in derivation order).
#[derive(Default)]
struct Replayed {
    completed: HashMap<u64, UnitResult>,
    quarantined: HashMap<u64, (u32, String)>,
    splits: HashMap<u64, Vec<u64>>,
}

fn fold_records(records: Vec<Record>) -> Replayed {
    let mut replayed = Replayed::default();
    for record in records {
        match record {
            Record::Meta { .. } => {}
            Record::Split {
                parent_id,
                child_ids,
            } => {
                replayed.splits.insert(parent_id, child_ids);
            }
            Record::UnitDone {
                unit_id,
                visited,
                consistent,
                drift,
                weighted_visited,
                weighted_consistent,
                candidates,
            } => {
                // A completion supersedes any earlier quarantine of the
                // same unit (a resume retried it successfully).
                replayed.quarantined.remove(&unit_id);
                replayed.completed.insert(
                    unit_id,
                    UnitResult {
                        visited,
                        consistent,
                        drift,
                        weighted_visited,
                        weighted_consistent,
                        candidates,
                    },
                );
            }
            Record::Quarantine {
                unit_id,
                attempts,
                reason,
            } => {
                if !replayed.completed.contains_key(&unit_id) {
                    replayed.quarantined.insert(unit_id, (attempts, reason));
                }
            }
        }
    }
    replayed
}

/// Expands `roots` against the journalled `splits` into the frontier of
/// *leaves*: the units whose completions the final accounting expects.
/// A whole-unit completion always wins over a recorded split of the same
/// unit (merged journals can hold both when one ran the unit whole and
/// another split it — the whole result already covers every child).
/// Order is deterministic: roots in their given order, children in
/// derivation order, depth first.
///
/// Splits are re-derived from the unit definition and validated against the
/// recorded child ids — a mismatch means the journal was written by a
/// different unit derivation and is unusable.
fn expand_leaves(
    job: &SweepJob<'_>,
    roots: &[UnitRef],
    splits: &HashMap<u64, Vec<u64>>,
    completed: &HashMap<u64, UnitResult>,
) -> Result<Vec<UnitRef>, SweepError> {
    fn walk(
        job: &SweepJob<'_>,
        unit: UnitRef,
        splits: &HashMap<u64, Vec<u64>>,
        completed: &HashMap<u64, UnitResult>,
        out: &mut Vec<UnitRef>,
    ) -> Result<(), SweepError> {
        let recorded = match splits.get(&unit.id) {
            Some(children) if !completed.contains_key(&unit.id) => children,
            _ => {
                out.push(unit);
                return Ok(());
            }
        };
        let children = unit.unit.split(job.config, unit.n, job.symmetry);
        let derived: Vec<u64> = children
            .iter()
            .map(|c| c.stable_id(job.config, unit.n))
            .collect();
        if derived != *recorded {
            return Err(SweepError::Config(format!(
                "journalled split of unit {:#018x} disagrees with its derivation \
                 ({} recorded vs {} derived children); refusing to continue",
                unit.id,
                recorded.len(),
                derived.len()
            )));
        }
        for (child, id) in children.into_iter().zip(derived) {
            walk(job, UnitRef::new(unit.n, id, child), splits, completed, out)?;
        }
        Ok(())
    }

    let mut out = Vec::with_capacity(roots.len());
    for root in roots {
        walk(job, root.clone(), splits, completed, &mut out)?;
    }
    Ok(out)
}

/// Resolves the result covering `id`'s whole subspace: its own completion,
/// or — when the journal records a split — the sum of its children's
/// resolved results, in derivation order. `None` while any descendant leaf
/// is missing.
fn resolve_result(
    id: u64,
    splits: &HashMap<u64, Vec<u64>>,
    raw: &HashMap<u64, UnitResult>,
) -> Option<UnitResult> {
    if let Some(r) = raw.get(&id) {
        return Some(r.clone());
    }
    let children = splits.get(&id)?;
    let mut sum = UnitResult::default();
    for child in children {
        let r = resolve_result(*child, splits, raw)?;
        sum.visited += r.visited;
        sum.consistent += r.consistent;
        sum.drift += r.drift;
        sum.weighted_visited += r.weighted_visited;
        sum.weighted_consistent += r.weighted_consistent;
        sum.candidates.extend(r.candidates);
    }
    Some(sum)
}

/// The deterministic accounting frontier: `roots` refined by the pre-split
/// rule alone (still splittable and weight bound above `threshold`),
/// stopping early at journalled completions. Mid-run steal and budget
/// splits — which are timing-dependent — happen strictly *below* this
/// frontier and are rolled back up to it by [`resolve_result`], so
/// `total_units` and friends never depend on how a particular run happened
/// to dice the work: a clean run, the sum over static shards and every
/// resume all count the same frontier.
fn accounting_frontier(
    job: &SweepJob<'_>,
    roots: &[UnitRef],
    threshold: u64,
    completed: &HashMap<u64, UnitResult>,
) -> Vec<UnitRef> {
    let mut out = Vec::new();
    let mut stack: Vec<UnitRef> = roots.iter().rev().cloned().collect();
    while let Some(unit) = stack.pop() {
        if !completed.contains_key(&unit.id)
            && unit.unit.splittable(unit.n)
            && unit.weight(job.config) > threshold
        {
            for child in unit
                .unit
                .split(job.config, unit.n, job.symmetry)
                .into_iter()
                .rev()
            {
                let id = child.stable_id(job.config, unit.n);
                stack.push(UnitRef::new(unit.n, id, child));
            }
        } else {
            out.push(unit);
        }
    }
    out
}

/// Opens (or creates) the journal for this run, replaying any prior state.
fn open_journal(
    job: &SweepJob<'_>,
    opts: &SweepOptions,
) -> Result<(JournalWriter, Replayed), SweepError> {
    std::fs::create_dir_all(&opts.checkpoint)?;
    let path = opts.checkpoint.join(JOURNAL_FILE);
    let meta = meta_record(job, opts.shard);
    let existing = journal::load(&path)?;
    match existing {
        None => Ok((
            JournalWriter::create(&path, &meta, opts.sync_batch)?,
            Replayed::default(),
        )),
        Some(loaded) if !opts.resume => Err(SweepError::Config(format!(
            "checkpoint journal {} already exists ({} record(s)); pass --resume to \
             continue it or remove the directory to start over",
            path.display(),
            loaded.records.len()
        ))),
        Some(loaded) => {
            match loaded.records.first() {
                Some(found @ Record::Meta { .. }) => {
                    if *found != meta {
                        return Err(SweepError::Config(format!(
                            "checkpoint journal {} was written by a different sweep \
                             (its configuration, models, event bound or shard disagree); \
                             refusing to resume",
                            path.display()
                        )));
                    }
                }
                _ => {
                    return Err(SweepError::Config(format!(
                        "checkpoint journal {} has no meta record; refusing to resume",
                        path.display()
                    )))
                }
            }
            let writer = JournalWriter::reopen(&path, loaded.valid_len, opts.sync_batch)?;
            Ok((writer, fold_records(loaded.records)))
        }
    }
}

/// Runs one attempt at a unit on the model's [`delta_checker`]: counts
/// mode queries it per candidate, suites mode runs the same
/// [`ForbidFilter`] as `tm_synth::synthesise_suites`. One implementation
/// per mode, shared between interrupted and uninterrupted runs, is what
/// makes their results identical.
fn run_attempt(
    job: &SweepJob<'_>,
    unit: &UnitRef,
    run_start: Instant,
    opts: &SweepOptions,
    stall: bool,
) -> Attempt {
    let attempt_start = Instant::now();
    let budget_hit = || opts.budget.is_some_and(|b| run_start.elapsed() >= b);
    let deadline_hit = || {
        opts.unit_deadline
            .is_some_and(|d| attempt_start.elapsed() >= d)
    };
    let should_stop = || budget_hit() || deadline_hit();

    if stall {
        // An injected stall: the unit never finishes. Poll the stop
        // conditions directly, and cap the sleep so a stall without a
        // deadline or budget cannot hang a test forever.
        let cap = Duration::from_secs(30);
        while !(budget_hit() || deadline_hit()) && attempt_start.elapsed() < cap {
            std::thread::sleep(Duration::from_millis(2));
        }
        return if budget_hit() {
            Attempt::Interrupted
        } else {
            Attempt::Deadline
        };
    }

    let mut result = UnitResult::default();
    let (tally, checker_telemetry) = match job.mode {
        SweepMode::Counts => {
            let mut checker = delta_checker(job.model);
            let mut sink = |exec: &Execution, delta: &Delta, orbit: u64| {
                checker.advance(exec, delta);
                let ok = checker.is_consistent(exec);
                if ok {
                    result.consistent += 1;
                    result.weighted_consistent += orbit;
                }
                if let Some(reference) = job.reference {
                    if reference.is_consistent(exec) != ok {
                        result.drift += 1;
                    }
                }
            };
            let tally = enumerate_unit(
                job.config,
                &unit.unit,
                unit.n,
                job.symmetry,
                &mut sink,
                should_stop,
            );
            (tally, checker.telemetry())
        }
        SweepMode::Suites => {
            let baseline = job.baseline.expect("suites mode requires a baseline");
            // The filter's signature set suppresses duplicates inside the
            // unit; the global deduplication happens at assembly.
            let mut filter = ForbidFilter::new(job.model, baseline);
            let mut sink = |exec: &Execution, delta: &Delta, _orbit: u64| {
                if filter.test(exec, delta).is_some() {
                    result.candidates.push(encode_execution(exec));
                }
            };
            let tally = enumerate_unit(
                job.config,
                &unit.unit,
                unit.n,
                job.symmetry,
                &mut sink,
                should_stop,
            );
            (tally, filter.telemetry())
        }
    };

    // Did a stop hook truncate the enumeration? The budget check wins
    // (conservative: a unit that finished exactly as the budget expired is
    // left pending and re-run on resume).
    if budget_hit() {
        return Attempt::Interrupted;
    }
    if deadline_hit() {
        return Attempt::Deadline;
    }
    result.visited = tally.representatives as u64;
    result.weighted_visited = tally.weighted;
    Attempt::Done(Box::new(FreshDone {
        result,
        tally,
        checker: checker_telemetry,
    }))
}

/// The configured worker thread count — explicit option, `TM_SYNTH_THREADS`
/// or the machine's parallelism — before clamping to the pending unit
/// count. The pre-split threshold derives from this (not from
/// [`worker_threads`]) so it cannot depend on how much work happens to be
/// pending.
fn configured_threads(opts: &SweepOptions) -> usize {
    opts.threads.unwrap_or_else(worker_count).max(1)
}

fn worker_threads(opts: &SweepOptions, todo: usize) -> usize {
    configured_threads(opts).clamp(1, todo.max(1))
}

/// Runs (or resumes) a checkpointed sweep. See the module docs for the
/// fault model; see [`SweepOutcome`] for what comes back.
pub fn run_sweep(job: &SweepJob<'_>, opts: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    if job.mode == SweepMode::Suites && job.baseline.is_none() {
        return Err(SweepError::Config(
            "suites mode requires a baseline model".to_string(),
        ));
    }
    if let Some((i, m)) = opts.shard {
        if m == 0 || i >= m {
            return Err(SweepError::Config(format!(
                "bad shard {i}/{m} (expected 0 <= i < m)"
            )));
        }
    }

    let sweep_start = Instant::now();
    let units = all_units(job)?;
    // The pre-split threshold derives from the WHOLE job's weight and the
    // configured thread count — never from the shard slice or the pending
    // count — so a clean run and every shard split the same units the same
    // way and their journals and totals stay interchangeable.
    let full_weight: u64 = units
        .iter()
        .map(|u| u.weight(job.config))
        .fold(0u64, u64::saturating_add);
    let roots: Vec<UnitRef> = match opts.shard {
        Some((i, m)) => units
            .into_iter()
            .filter(|u| u.id % u64::from(m) == u64::from(i))
            .collect(),
        None => units,
    };

    let (mut writer, replayed) = open_journal(job, opts)?;
    let mut splits = replayed.splits;
    let leaves = expand_leaves(job, &roots, &splits, &replayed.completed)?;
    // Dynamic leaves already completed per the journal — the progress
    // display's notion of "done so far".
    let dynamic_done = leaves
        .iter()
        .filter(|u| replayed.completed.contains_key(&u.id))
        .count();

    // Pre-split: refine any pending leaf whose weight bound exceeds the
    // threshold, journalling each split so a resume replays the same
    // frontier. Quarantined units stay in the frontier — resume is the
    // operator's signal to try them again.
    let threshold = opts
        .max_unit_weight
        .unwrap_or_else(|| full_weight / (4 * configured_threads(opts) as u64).max(1))
        .max(1);
    // The accounting frontier (see `accounting_frontier`): what
    // `total_units`, `completed_units` and `per_unit` count, immune to
    // timing-dependent mid-run splits.
    let scope_frontier = accounting_frontier(job, &roots, threshold, &replayed.completed);
    let reused_units = scope_frontier
        .iter()
        .filter(|u| resolve_result(u.id, &splits, &replayed.completed).is_some())
        .count();
    let mut todo: Vec<UnitRef> = Vec::new();
    let mut presplits = 0u64;
    {
        let mut worklist: Vec<UnitRef> = leaves
            .iter()
            .filter(|u| !replayed.completed.contains_key(&u.id))
            .cloned()
            .collect();
        worklist.reverse();
        while let Some(unit) = worklist.pop() {
            if unit.unit.splittable(unit.n) && unit.weight(job.config) > threshold {
                let children = unit.unit.split(job.config, unit.n, job.symmetry);
                let child_ids: Vec<u64> = children
                    .iter()
                    .map(|c| c.stable_id(job.config, unit.n))
                    .collect();
                writer.append(&Record::Split {
                    parent_id: unit.id,
                    child_ids: child_ids.clone(),
                })?;
                splits.insert(unit.id, child_ids.clone());
                presplits += 1;
                for (child, id) in children.into_iter().zip(child_ids).rev() {
                    worklist.push(UnitRef::new(unit.n, id, child));
                }
            } else {
                todo.push(unit);
            }
        }
    }
    let todo_len = todo.len();
    // The dynamic frontier after pre-splitting: completed leaves plus
    // pending ones. Display-only — accounting uses `scope_frontier`.
    let total_leaves = dynamic_done + todo_len;

    let tasks: Vec<Task> = todo.into_iter().map(|u| Task::new(job, u)).collect();

    let journal = Mutex::new(writer);
    let results: Mutex<HashMap<u64, UnitResult>> = Mutex::new(replayed.completed);
    let quarantined: Mutex<Vec<QuarantinedUnit>> = Mutex::new(Vec::new());
    let retried_attempts = AtomicU64::new(0);
    let fail_state = opts.fail_plan.map(FailState::new);
    let obs = &opts.obs;
    let fresh_reports: Mutex<Vec<UnitReport>> = Mutex::new(Vec::new());
    let prune_total: Mutex<ReducedCount> = Mutex::new(ReducedCount::default());
    let checker_total: Mutex<Option<CheckerTelemetry>> = Mutex::new(None);
    let splits_final: Mutex<HashMap<u64, Vec<u64>>> = Mutex::new(splits);
    let sched = Scheduler::new(tasks);
    let progress = ProgressState {
        total: AtomicUsize::new(total_leaves),
        done: AtomicUsize::new(dynamic_done),
        fresh: AtomicUsize::new(0),
        visited: AtomicU64::new(0),
        weighted: AtomicU64::new(0),
        splits: AtomicU64::new(presplits),
        steals: AtomicU64::new(0),
    };
    let setup_seconds = sweep_start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let threads = worker_threads(opts, todo_len);
    let io_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let monitor_stop = AtomicBool::new(false);

    if obs.is_enabled() {
        obs.emit(
            Event::new("sweep.start")
                .field("units", total_leaves)
                .field("reused", reused_units)
                .field("presplit", presplits)
                .field("threads", threads),
        );
    }
    obs.counter("sweep.units.reused").add(reused_units as u64);
    obs.counter("sweep.sched.presplit").add(presplits);

    // Shared per-completion banking: journal, metrics, telemetry,
    // progress. Declared before the worker scope so the spawned closures
    // can borrow it for the scope's whole lifetime.
    let bank = |unit: &UnitRef, fresh: FreshDone, seconds: f64, attempts: u32| -> io::Result<()> {
        let FreshDone {
            result,
            tally,
            checker,
        } = fresh;
        let record = Record::UnitDone {
            unit_id: unit.id,
            visited: result.visited,
            consistent: result.consistent,
            drift: result.drift,
            weighted_visited: result.weighted_visited,
            weighted_consistent: result.weighted_consistent,
            candidates: result.candidates.clone(),
        };
        journal.lock().unwrap().append(&record)?;
        record_unit_metrics(obs, &result, &tally, checker.as_ref());
        if obs.is_enabled() {
            obs.emit(
                Event::new("unit.complete")
                    .field("unit", format!("{:#018x}", unit.id))
                    .field("seconds", seconds)
                    .field("visited", result.visited)
                    .field("weighted", result.weighted_visited)
                    .field("candidates", result.candidates.len()),
            );
        }
        fresh_reports.lock().unwrap().push(UnitReport {
            unit_id: unit.id,
            label: unit.unit.label(),
            events: unit.n,
            reused: false,
            seconds,
            attempts,
            visited: result.visited,
            weighted_visited: result.weighted_visited,
        });
        prune_total.lock().unwrap().add(tally);
        if let Some(t) = checker {
            let mut total = checker_total.lock().unwrap();
            match total.as_mut() {
                Some(sum) => sum.merge(t),
                None => *total = Some(t),
            }
        }
        progress.done.fetch_add(1, Ordering::Relaxed);
        progress.fresh.fetch_add(1, Ordering::Relaxed);
        progress
            .visited
            .fetch_add(result.visited, Ordering::Relaxed);
        progress
            .weighted
            .fetch_add(result.weighted_visited, Ordering::Relaxed);
        results.lock().unwrap().insert(unit.id, result);
        Ok(())
    };

    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            monitor_loop(&progress, run_start, opts, &monitor_stop);
        });
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    'units: loop {
                        if opts.budget.is_some_and(|b| run_start.elapsed() >= b) {
                            break;
                        }
                        let task = match sched.next() {
                            Dispatch::Run(task) => task,
                            Dispatch::Wait => {
                                // A standing steal request: whoever runs a
                                // splittable unit sees the idle count and
                                // hands back its unfinished children.
                                sched.idle.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(2));
                                sched.idle.fetch_sub(1, Ordering::SeqCst);
                                continue;
                            }
                            Dispatch::Drained => break,
                        };
                        if let Some(fail) = &fail_state {
                            fail.on_claim(task.unit.id);
                            if fail.is_victim(task.unit.id) && fail.plan.kind == FailKind::Exit {
                                // Simulate a hard crash: flush what is banked,
                                // then die. (The sync means the test can reason
                                // about exactly which units survived.)
                                let _ = journal.lock().unwrap().sync();
                                std::process::exit(INJECTED_EXIT_CODE);
                            }
                        }
                        let mut attempt_no = 0u32;
                        loop {
                            attempt_no += 1;
                            let (injected_panic, stall) = match &fail_state {
                                Some(fail) if fail.is_victim(task.unit.id) => {
                                    match fail.plan.kind {
                                        FailKind::Panic => (true, false),
                                        FailKind::PanicOnce => {
                                            (!fail.once_fired.swap(true, Ordering::SeqCst), false)
                                        }
                                        FailKind::Stall => (false, true),
                                        FailKind::Exit => (false, false),
                                    }
                                }
                                _ => (false, false),
                            };
                            if obs.is_enabled() {
                                obs.emit(
                                    Event::new("unit.start")
                                        .field("unit", format!("{:#018x}", task.unit.id))
                                        .field("label", task.unit.unit.label())
                                        .field("events", task.unit.n)
                                        .field("attempt", u64::from(attempt_no)),
                                );
                            }
                            let attempt_started = Instant::now();
                            // Child-wise execution (first attempt only, never
                            // on an injected victim): enables mid-run steals
                            // and budget-stop work preservation. Retries run
                            // whole, so a failed child-wise pass — which banks
                            // nothing — can never double-bank a child.
                            let childwise = !injected_panic
                                && !stall
                                && attempt_no == 1
                                && task.unit.unit.splittable(task.unit.n);
                            let run = if childwise {
                                let children: Vec<UnitRef> = task
                                    .unit
                                    .unit
                                    .split(job.config, task.unit.n, job.symmetry)
                                    .into_iter()
                                    .map(|c| {
                                        let id = c.stable_id(job.config, task.unit.n);
                                        UnitRef::new(task.unit.n, id, c)
                                    })
                                    .collect();
                                run_children(job, &children, run_start, opts, &sched)
                            } else {
                                let outcome = catch_unwind(AssertUnwindSafe(|| {
                                    if injected_panic {
                                        panic!("injected panic (fail plan)");
                                    }
                                    run_attempt(job, &task.unit, run_start, opts, stall)
                                }));
                                match outcome {
                                    Ok(Attempt::Done(fresh)) => SchedRun::Whole(fresh),
                                    Ok(Attempt::Interrupted) => SchedRun::Interrupted,
                                    Ok(Attempt::Deadline) => {
                                        SchedRun::Failed("deadline exceeded".to_string())
                                    }
                                    Err(payload) => SchedRun::Failed(format!(
                                        "panicked: {}",
                                        panic_message(payload)
                                    )),
                                }
                            };
                            let failure_reason = match run {
                                SchedRun::Whole(fresh) => {
                                    let seconds = attempt_started.elapsed().as_secs_f64();
                                    if let Err(e) = bank(&task.unit, *fresh, seconds, attempt_no) {
                                        *io_error.lock().unwrap() = Some(e);
                                        sched.finish();
                                        break 'units;
                                    }
                                    sched.finish();
                                    break;
                                }
                                SchedRun::Interrupted => {
                                    // Budget expiry with nothing banked: the
                                    // unit stays pending.
                                    sched.finish();
                                    break 'units;
                                }
                                SchedRun::Split { done, rest, budget } => {
                                    let child_ids: Vec<u64> = done
                                        .iter()
                                        .map(|(u, _, _)| u.id)
                                        .chain(rest.iter().map(|u| u.id))
                                        .collect();
                                    let record = Record::Split {
                                        parent_id: task.unit.id,
                                        child_ids: child_ids.clone(),
                                    };
                                    if let Err(e) = journal.lock().unwrap().append(&record) {
                                        *io_error.lock().unwrap() = Some(e);
                                        sched.finish();
                                        break 'units;
                                    }
                                    splits_final.lock().unwrap().insert(task.unit.id, child_ids);
                                    obs.counter("sweep.sched.splits").incr();
                                    progress.splits.fetch_add(1, Ordering::Relaxed);
                                    progress
                                        .total
                                        .fetch_add(done.len() + rest.len() - 1, Ordering::Relaxed);
                                    let mut io_failed = false;
                                    for (child, fresh, seconds) in done {
                                        if let Err(e) = bank(&child, *fresh, seconds, attempt_no) {
                                            *io_error.lock().unwrap() = Some(e);
                                            io_failed = true;
                                            break;
                                        }
                                    }
                                    if io_failed {
                                        sched.finish();
                                        break 'units;
                                    }
                                    if budget {
                                        // Work preserved: the finished prefix
                                        // is journalled; the rest resumes from
                                        // the Split record.
                                        sched.finish();
                                        break 'units;
                                    }
                                    let stolen = rest.len() as u64;
                                    obs.counter("sweep.sched.steals").add(stolen);
                                    progress.steals.fetch_add(stolen, Ordering::Relaxed);
                                    sched.push(
                                        rest.into_iter().map(|u| Task::new(job, u)).collect(),
                                    );
                                    sched.finish();
                                    break;
                                }
                                SchedRun::Failed(reason) => reason,
                            };
                            if attempt_no > opts.retries {
                                let record = Record::Quarantine {
                                    unit_id: task.unit.id,
                                    attempts: attempt_no,
                                    reason: failure_reason.clone(),
                                };
                                {
                                    let mut j = journal.lock().unwrap();
                                    // Quarantines are synced eagerly regardless
                                    // of batching: losing one would silently
                                    // re-run a poisoned unit forever.
                                    if let Err(e) = j.append(&record).and_then(|()| j.sync()) {
                                        *io_error.lock().unwrap() = Some(e);
                                        sched.finish();
                                        break 'units;
                                    }
                                }
                                obs.counter("sweep.units.quarantined").incr();
                                if obs.is_enabled() {
                                    obs.emit(
                                        Event::new("unit.quarantine")
                                            .field("unit", format!("{:#018x}", task.unit.id))
                                            .field("attempts", u64::from(attempt_no))
                                            .field("reason", failure_reason.clone()),
                                    );
                                }
                                quarantined.lock().unwrap().push(QuarantinedUnit {
                                    unit_id: task.unit.id,
                                    attempts: attempt_no,
                                    reason: failure_reason,
                                    label: task.unit.unit.label(),
                                });
                                sched.finish();
                                break;
                            }
                            retried_attempts.fetch_add(1, Ordering::Relaxed);
                            obs.counter("sweep.units.retried_attempts").incr();
                            if obs.is_enabled() {
                                obs.emit(
                                    Event::new("unit.retry")
                                        .field("unit", format!("{:#018x}", task.unit.id))
                                        .field("attempt", u64::from(attempt_no))
                                        .field("reason", failure_reason.clone()),
                                );
                            }
                            let exp = (attempt_no - 1).min(8);
                            let pause = opts.backoff.saturating_mul(1 << exp);
                            std::thread::sleep(pause.min(Duration::from_secs(2)));
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
        monitor_stop.store(true, Ordering::SeqCst);
        let _ = monitor.join();
    });

    let run_seconds = run_start.elapsed().as_secs_f64();
    journal.lock().unwrap().sync()?;
    if let Some(e) = io_error.into_inner().unwrap() {
        return Err(SweepError::Io(e));
    }

    let raw_results = results.into_inner().unwrap();
    let splits = splits_final.into_inner().unwrap();
    let mut quarantined = quarantined.into_inner().unwrap();
    // Quarantines replayed from the journal still stand unless this run
    // completed the unit (they were in the frontier, so a fresh quarantine
    // or a completion replaced them; a budget stop can leave them
    // untouched).
    for (unit_id, (attempts, reason)) in replayed.quarantined {
        if !raw_results.contains_key(&unit_id) && !quarantined.iter().any(|q| q.unit_id == unit_id)
        {
            quarantined.push(QuarantinedUnit {
                unit_id,
                attempts,
                reason,
                label: String::new(),
            });
        }
    }

    // The accounting scope is the deterministic frontier computed at
    // setup. Roll mid-run split results up to it: a leaf counts as
    // completed exactly when its whole subspace is covered, however the
    // work was diced.
    let results: HashMap<u64, UnitResult> = scope_frontier
        .iter()
        .filter_map(|u| resolve_result(u.id, &splits, &raw_results).map(|r| (u.id, r)))
        .collect();

    let scope_info: HashMap<u64, (String, usize)> = scope_frontier
        .iter()
        .map(|u| (u.id, (u.unit.label(), u.n)))
        .collect();
    let mut parent_of: HashMap<u64, u64> = HashMap::new();
    for (parent, children) in &splits {
        for child in children {
            parent_of.insert(*child, *parent);
        }
    }
    let to_scope = |mut id: u64| -> Option<u64> {
        loop {
            if scope_info.contains_key(&id) {
                return Some(id);
            }
            id = *parent_of.get(&id)?;
        }
    };

    // Lift quarantines of split-off children to their accounting leaf; a
    // resolved leaf extinguishes them (a retry or another worker covered
    // the subspace).
    let mut lifted: Vec<QuarantinedUnit> = Vec::new();
    let mut lifted_ids: HashSet<u64> = HashSet::new();
    for q in quarantined {
        let Some(anchor) = to_scope(q.unit_id) else {
            continue;
        };
        if results.contains_key(&anchor) || !lifted_ids.insert(anchor) {
            continue;
        }
        let label = if anchor == q.unit_id {
            q.label
        } else {
            scope_info[&anchor].0.clone()
        };
        lifted.push(QuarantinedUnit {
            unit_id: anchor,
            attempts: q.attempts,
            reason: q.reason,
            label,
        });
    }
    let mut quarantined = lifted;
    quarantined.sort_by_key(|q| q.unit_id);

    // Aggregate fresh per-task reports to the accounting frontier: a leaf
    // that ran child-wise gets one entry carrying the children's summed
    // wall time and its rolled-up counts. Only resolved leaves are kept —
    // a budget stop can leave a leaf with banked children but no
    // completion, and `per_unit` lists completed units only.
    let mut fresh_agg: HashMap<u64, UnitReport> = HashMap::new();
    for r in fresh_reports.into_inner().unwrap() {
        let Some(anchor) = to_scope(r.unit_id) else {
            continue;
        };
        let (label, events) = &scope_info[&anchor];
        let entry = fresh_agg.entry(anchor).or_insert_with(|| UnitReport {
            unit_id: anchor,
            label: label.clone(),
            events: *events,
            reused: false,
            seconds: 0.0,
            attempts: 0,
            visited: 0,
            weighted_visited: 0,
        });
        entry.seconds += r.seconds;
        entry.attempts = entry.attempts.max(r.attempts);
    }
    let fresh: Vec<UnitReport> = fresh_agg
        .into_values()
        .filter_map(|mut r| {
            let resolved = results.get(&r.unit_id)?;
            r.visited = resolved.visited;
            r.weighted_visited = resolved.weighted_visited;
            Some(r)
        })
        .collect();

    // A single shard of a wider sweep holds too little to assemble suites;
    // that happens in `merge_sharded` once every shard's journal is in.
    let build_suites = opts.shard.is_none_or(|(_, m)| m == 1);
    let telemetry = RunTelemetry {
        fresh,
        prune: prune_total.into_inner().unwrap(),
        checker: checker_total.into_inner().unwrap(),
        setup_seconds,
        run_seconds,
    };
    let outcome = finalize(
        job,
        scope_frontier,
        results,
        quarantined,
        reused_units,
        build_suites,
        retried_attempts.into_inner(),
        telemetry,
    );
    if let Ok(outcome) = &outcome {
        if obs.is_enabled() {
            obs.emit(
                Event::new("sweep.done")
                    .field(
                        "status",
                        match outcome.status {
                            SweepStatus::Complete => "complete",
                            SweepStatus::Partial => "partial",
                            SweepStatus::BudgetExhausted => "budget-exhausted",
                        },
                    )
                    .field("completed", outcome.completed_units)
                    .field("quarantined", outcome.quarantined.len())
                    .field("seconds", outcome.timings.total_seconds),
            );
        }
        obs.flush();
    }
    outcome
}

/// Live progress shared between the workers and the monitor thread.
/// `total` moves: splits grow it. It tracks the *dynamic* frontier, which
/// is what a progress display should show (accounting uses the static
/// frontier instead).
struct ProgressState {
    total: AtomicUsize,
    done: AtomicUsize,
    fresh: AtomicUsize,
    visited: AtomicU64,
    weighted: AtomicU64,
    splits: AtomicU64,
    steals: AtomicU64,
}

impl ProgressState {
    fn heartbeat(&self, elapsed: Duration) -> Heartbeat {
        Heartbeat {
            done: self.done.load(Ordering::Relaxed) as u64,
            total: self.total.load(Ordering::Relaxed) as u64,
            fresh: self.fresh.load(Ordering::Relaxed) as u64,
            visited: self.visited.load(Ordering::Relaxed),
            weighted: self.weighted.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            elapsed_seconds: elapsed.as_secs_f64(),
        }
    }
}

/// The monitor thread: rewrites the heartbeat file every ~500ms (always —
/// the shard supervisor aggregates them without any flag on the children),
/// feeds a sliding [`RateWindow`] that turns unit completions into the
/// progress line's ETA, and, with `opts.progress`, repaints a
/// `\r`-terminated progress line on stderr every ~200ms, finishing with a
/// newline-terminated final line.
fn monitor_loop(
    progress: &ProgressState,
    run_start: Instant,
    opts: &SweepOptions,
    stop: &AtomicBool,
) {
    const TICK: Duration = Duration::from_millis(25);
    const PRINT_EVERY: u32 = 8; // ~200ms
    const HEARTBEAT_EVERY: u32 = 20; // ~500ms
    let mut tick = 0u32;
    let mut window = RateWindow::new(ETA_WINDOW_SECS);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if tick.is_multiple_of(HEARTBEAT_EVERY) {
            let hb = progress.heartbeat(run_start.elapsed());
            window.push(hb.elapsed_seconds, hb.done as f64);
            hb.write(&opts.checkpoint);
        }
        if opts.progress && tick.is_multiple_of(PRINT_EVERY) {
            let line = progress
                .heartbeat(run_start.elapsed())
                .progress_line(window.rate());
            eprint!("\r{line}");
            let _ = io::Write::flush(&mut io::stderr());
        }
        tick += 1;
        std::thread::sleep(TICK);
    }
    // Final state: a fresh heartbeat and, when printing, a line the
    // terminal keeps (and CI can grep).
    let heartbeat = progress.heartbeat(run_start.elapsed());
    window.push(heartbeat.elapsed_seconds, heartbeat.done as f64);
    heartbeat.write(&opts.checkpoint);
    if opts.progress {
        eprintln!("\r{}", heartbeat.progress_line(window.rate()));
    }
}

/// Per-run telemetry finalize folds into the outcome.
#[derive(Default)]
struct RunTelemetry {
    fresh: Vec<UnitReport>,
    prune: ReducedCount,
    checker: Option<CheckerTelemetry>,
    setup_seconds: f64,
    run_seconds: f64,
}

/// Folds one completed unit's counters into the registry. All-unit rollups
/// only — nothing here runs per candidate.
fn record_unit_metrics(
    obs: &Obs,
    result: &UnitResult,
    tally: &ReducedCount,
    checker: Option<&CheckerTelemetry>,
) {
    obs.counter("sweep.units.completed").incr();
    obs.counter("sweep.execs.visited").add(result.visited);
    obs.counter("sweep.execs.weighted")
        .add(result.weighted_visited);
    obs.counter("sweep.execs.consistent").add(result.consistent);
    obs.counter("synth.prune.shape_kills")
        .add(tally.shape_kills);
    obs.counter("synth.prune.subtree_kills")
        .add(tally.subtree_kills);
    obs.counter("synth.prune.edge_kills").add(tally.edge_kills);
    if let Some(t) = checker {
        obs.counter("ir.maintained").add(t.stats.maintained);
        obs.counter("ir.rebased").add(t.stats.rebased);
        obs.counter("ir.dropped").add(t.stats.dropped);
        obs.counter("ir.invalidated").add(t.stats.invalidated);
        obs.counter("ir.resets").add(t.stats.resets);
        obs.counter("ir.fix_reevals").add(t.stats.fix_reevals);
        obs.counter("ir.axiom_queries").add(t.stats.axiom_queries);
        obs.counter("ir.axiom_cache_hits")
            .add(t.stats.axiom_cache_hits);
        obs.counter("ir.early_exits").add(t.early_exits);
    }
}

/// Sums completed units into an outcome and (for unsharded suites runs)
/// assembles the suites.
#[allow(clippy::too_many_arguments)]
fn finalize(
    job: &SweepJob<'_>,
    shard_units: Vec<UnitRef>,
    results: HashMap<u64, UnitResult>,
    quarantined: Vec<QuarantinedUnit>,
    reused_units: usize,
    build_suites: bool,
    retried_attempts: u64,
    telemetry: RunTelemetry,
) -> Result<SweepOutcome, SweepError> {
    let assemble_start = Instant::now();
    let total_units = shard_units.len();
    let completed_units = shard_units
        .iter()
        .filter(|u| results.contains_key(&u.id))
        .count();
    let quarantined_here = shard_units
        .iter()
        .filter(|u| quarantined.iter().any(|q| q.unit_id == u.id))
        .count();
    let pending_units = total_units - completed_units - quarantined_here;

    let status = if pending_units > 0 {
        SweepStatus::BudgetExhausted
    } else if !quarantined.is_empty() {
        SweepStatus::Partial
    } else {
        SweepStatus::Complete
    };

    let mut visited = 0u64;
    let mut consistent = 0u64;
    let mut drift = 0u64;
    let mut weighted_visited = 0u64;
    let mut weighted_consistent = 0u64;
    for unit in &shard_units {
        if let Some(r) = results.get(&unit.id) {
            visited += r.visited;
            consistent += r.consistent;
            drift += r.drift;
            weighted_visited += r.weighted_visited;
            weighted_consistent += r.weighted_consistent;
        }
    }

    let suites = if job.mode == SweepMode::Suites && build_suites {
        Some(assemble(
            job,
            shard_units.iter().map(|u| u.id),
            &results,
            visited,
            weighted_visited,
        )?)
    } else {
        None
    };

    // One report entry per completed unit, in deterministic unit order —
    // fresh entries carry this run's timing, replayed ones their
    // journalled counts only.
    let fresh_by_id: HashMap<u64, &UnitReport> =
        telemetry.fresh.iter().map(|u| (u.unit_id, u)).collect();
    let per_unit: Vec<UnitReport> = shard_units
        .iter()
        .filter_map(|unit| {
            let result = results.get(&unit.id)?;
            Some(match fresh_by_id.get(&unit.id) {
                Some(fresh) => (*fresh).clone(),
                None => UnitReport {
                    unit_id: unit.id,
                    label: unit.unit.label(),
                    events: unit.n,
                    reused: true,
                    seconds: 0.0,
                    attempts: 0,
                    visited: result.visited,
                    weighted_visited: result.weighted_visited,
                },
            })
        })
        .collect();

    let assemble_seconds = assemble_start.elapsed().as_secs_f64();
    let timings = SweepTimings {
        setup_seconds: telemetry.setup_seconds,
        run_seconds: telemetry.run_seconds,
        assemble_seconds,
        total_seconds: telemetry.setup_seconds + telemetry.run_seconds + assemble_seconds,
    };

    Ok(SweepOutcome {
        status,
        visited,
        consistent,
        drift,
        weighted_visited,
        weighted_consistent,
        suites,
        total_units,
        completed_units,
        reused_units,
        pending_units,
        quarantined,
        retried_attempts,
        fresh_units: telemetry.fresh.len(),
        per_unit,
        prune: telemetry.prune,
        checker: telemetry.checker,
        timings,
    })
}

/// Decodes banked candidates from completed units and hands them — in a
/// deterministic order — to [`tm_synth::assemble_suites`]. Banked
/// candidates carry no timing, so `found_after` is zero throughout; two
/// structurally different witnesses of the same canonical test are ordered
/// by structural signature, making the surviving representative independent
/// of unit completion order.
fn assemble(
    job: &SweepJob<'_>,
    unit_ids: impl Iterator<Item = u64>,
    results: &HashMap<u64, UnitResult>,
    visited: u64,
    weighted_visited: u64,
) -> Result<SuiteReport, SweepError> {
    let mut decoded: Vec<(CanonSig, String, Execution)> = Vec::new();
    for id in unit_ids {
        let Some(result) = results.get(&id) else {
            continue;
        };
        for bytes in &result.candidates {
            let exec = decode_execution(bytes).map_err(|e| {
                SweepError::Config(format!(
                    "journal holds an undecodable candidate for unit {id:#018x}: {e}"
                ))
            })?;
            decoded.push((canonical_signature(&exec), exec.signature(), exec));
        }
    }
    decoded.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let candidates = decoded
        .into_iter()
        .map(|(sig, _, exec)| (sig, exec, Duration::ZERO))
        .collect();
    Ok(assemble_suites(
        job.model,
        job.events,
        visited as usize,
        weighted_visited,
        candidates,
        Instant::now(),
    ))
}

/// Merges the journals of a sharded sweep (one checkpoint directory per
/// shard) into a single outcome, assembling the suites when the union
/// covers the whole space. Shard journals are validated against `job`
/// (fingerprint, events, mode); which shard a unit came from is irrelevant
/// because units are deterministic.
///
/// The journals come from outside this process, so they are checked
/// against each other too. The same unit can appear in several of them
/// (say, an unsharded journal of the same job passed next to the shards'):
/// recorded splits must agree child-for-child, and duplicated completions
/// must agree on every count (units being deterministic, any disagreement
/// means a corrupted or foreign journal). Candidate *lists*
/// may differ between a whole run and a child-wise run of the same unit
/// (per-child signature dedup can bank extra duplicates); global assembly
/// removes those again, so the first-seen list is kept.
pub fn merge_sharded(job: &SweepJob<'_>, dirs: &[PathBuf]) -> Result<SweepOutcome, SweepError> {
    let units = all_units(job)?;
    let mut results: HashMap<u64, UnitResult> = HashMap::new();
    let mut quarantines: HashMap<u64, (u32, String)> = HashMap::new();
    let mut splits: HashMap<u64, Vec<u64>> = HashMap::new();

    let expected_fingerprint = job.fingerprint();
    for dir in dirs {
        let path = dir.join(JOURNAL_FILE);
        let loaded = journal::load(&path)?
            .ok_or_else(|| SweepError::Config(format!("no journal at {}", path.display())))?;
        match loaded.records.first() {
            Some(Record::Meta {
                fingerprint,
                events,
                mode,
                ..
            }) if *fingerprint == expected_fingerprint
                && *events == job.events as u32
                && *mode == job.mode.byte() => {}
            _ => {
                return Err(SweepError::Config(format!(
                    "journal {} belongs to a different sweep; refusing to merge",
                    path.display()
                )))
            }
        }
        let replayed = fold_records(loaded.records);
        for (id, children) in replayed.splits {
            match splits.get(&id) {
                Some(prev) if *prev != children => {
                    return Err(SweepError::Config(format!(
                        "journal {} records a different split of unit {id:#018x} than an \
                         earlier shard; refusing to merge",
                        path.display()
                    )));
                }
                Some(_) => {}
                None => {
                    splits.insert(id, children);
                }
            }
        }
        for (id, result) in replayed.completed {
            match results.get(&id) {
                Some(prev) => {
                    if (
                        prev.visited,
                        prev.consistent,
                        prev.drift,
                        prev.weighted_visited,
                        prev.weighted_consistent,
                    ) != (
                        result.visited,
                        result.consistent,
                        result.drift,
                        result.weighted_visited,
                        result.weighted_consistent,
                    ) {
                        return Err(SweepError::Config(format!(
                            "journal {} disagrees with an earlier shard on unit \
                             {id:#018x}'s counts; refusing to merge",
                            path.display()
                        )));
                    }
                }
                None => {
                    results.insert(id, result);
                }
            }
        }
        for (id, q) in replayed.quarantined {
            quarantines.entry(id).or_insert(q);
        }
    }
    quarantines.retain(|id, _| !results.contains_key(id));

    // The merged scope is the dynamic frontier under every recorded split
    // (completions win over splits, as always); results and quarantines on
    // non-leaves — a parent that was both completed whole somewhere and
    // split elsewhere — are dropped in favour of the leaves.
    let leaves = expand_leaves(job, &units, &splits, &results)?;
    let leaf_ids: HashSet<u64> = leaves.iter().map(|u| u.id).collect();
    results.retain(|id, _| leaf_ids.contains(id));
    let mut quarantined: Vec<QuarantinedUnit> = quarantines
        .into_iter()
        .filter(|(id, _)| leaf_ids.contains(id))
        .map(|(unit_id, (attempts, reason))| QuarantinedUnit {
            unit_id,
            attempts,
            reason,
            label: leaves
                .iter()
                .find(|u| u.id == unit_id)
                .map(|u| u.unit.label())
                .unwrap_or_default(),
        })
        .collect();
    quarantined.sort_by_key(|q| q.unit_id);

    finalize(
        job,
        leaves,
        results,
        quarantined,
        0,
        true,
        0,
        RunTelemetry::default(),
    )
}
