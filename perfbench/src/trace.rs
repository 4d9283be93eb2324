//! The traced run's instruments. All of them sit on the benchmark's side of
//! the program's public API, so the program runs the same code paths with
//! or without them:
//!
//! * [`Timed`] implements [`MemoryModel`] by delegating every method to a
//!   loaded model, and wraps each checker that `incremental_checker`
//!   returns in a timing [`DeltaChecker`]. Per-candidate checker calls are
//!   folded into counts and total nanoseconds ([`CheckerTally`]), never
//!   stored one by one.
//! * [`Spans`] records every other public call a workload makes — name,
//!   start, end and parent — in memory, and writes them out when the
//!   repetition ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tm_exec::ir::Delta;
use tm_exec::{ExecView, Execution};
use tm_models::{CheckerTelemetry, DeltaChecker, MemoryModel, Target, Verdict};
use tm_obs::Json;

/// Folded checker calls of one repetition. Relaxed atomics: these are
/// statistics that publish nothing else, summed once the sweep has joined
/// its workers.
#[derive(Default)]
pub struct CheckerTally {
    /// `advance` calls.
    pub advance_calls: AtomicU64,
    /// Nanoseconds inside `advance`.
    pub advance_ns: AtomicU64,
    /// `is_consistent` calls.
    pub queries: AtomicU64,
    /// Nanoseconds inside `is_consistent`.
    pub query_ns: AtomicU64,
    /// Savepoint → rollback brackets: the suite's minimality probes.
    pub probes: AtomicU64,
    /// Nanoseconds inside probe brackets, nested checker calls included.
    pub probe_ns: AtomicU64,
    /// The part of `advance_ns + query_ns` spent inside a probe bracket.
    pub nested_ns: AtomicU64,
}

impl CheckerTally {
    /// Reads one field.
    pub fn get(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }

    /// Seconds spent inside checker calls or probe brackets, each instant
    /// counted once.
    pub fn checker_s(&self) -> f64 {
        let calls = Self::get(&self.advance_ns) + Self::get(&self.query_ns);
        let top_level = calls - Self::get(&self.nested_ns);
        (top_level + Self::get(&self.probe_ns)) as f64 / 1e9
    }
}

/// A loaded model behind a timing face: every [`MemoryModel`] method
/// delegates, and every incremental checker it hands out is timed.
pub struct Timed<'m> {
    inner: &'m dyn MemoryModel,
    tally: &'m CheckerTally,
}

impl<'m> Timed<'m> {
    /// Wraps `inner`, folding its checkers' calls into `tally`.
    pub fn new(inner: &'m dyn MemoryModel, tally: &'m CheckerTally) -> Timed<'m> {
        Timed { inner, tally }
    }
}

impl MemoryModel for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn axioms(&self) -> Vec<&str> {
        self.inner.axioms()
    }

    fn check_view(&self, view: &ExecView<'_>) -> Verdict {
        self.inner.check_view(view)
    }

    fn check(&self, exec: &Execution) -> Verdict {
        self.inner.check(exec)
    }

    fn is_consistent_view(&self, view: &ExecView<'_>) -> bool {
        self.inner.is_consistent_view(view)
    }

    fn is_consistent(&self, exec: &Execution) -> bool {
        self.inner.is_consistent(exec)
    }

    fn incremental_checker(&self) -> Option<Box<dyn DeltaChecker + '_>> {
        let inner = self.inner.incremental_checker()?;
        Some(Box::new(TimedChecker {
            inner,
            tally: self.tally,
            local: Local::default(),
            probe_start: None,
        }))
    }

    fn catalog_target(&self) -> Option<(Target, bool)> {
        self.inner.catalog_target()
    }
}

/// Per-checker accumulators, folded into the shared tally on drop so the
/// hot path touches no shared cache line.
#[derive(Default)]
struct Local {
    advance_calls: u64,
    advance_ns: u64,
    queries: u64,
    query_ns: u64,
    probes: u64,
    probe_ns: u64,
    nested_ns: u64,
}

struct TimedChecker<'a> {
    inner: Box<dyn DeltaChecker + 'a>,
    tally: &'a CheckerTally,
    local: Local,
    probe_start: Option<Instant>,
}

impl TimedChecker<'_> {
    fn nanos_since(&mut self, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        if self.probe_start.is_some() {
            self.local.nested_ns += ns;
        }
        ns
    }
}

impl DeltaChecker for TimedChecker<'_> {
    fn advance(&mut self, exec: &Execution, delta: &Delta) {
        let start = Instant::now();
        self.inner.advance(exec, delta);
        self.local.advance_ns += self.nanos_since(start);
        self.local.advance_calls += 1;
    }

    fn is_consistent(&mut self, exec: &Execution) -> bool {
        let start = Instant::now();
        let ok = self.inner.is_consistent(exec);
        self.local.query_ns += self.nanos_since(start);
        self.local.queries += 1;
        ok
    }

    fn savepoint(&mut self) {
        self.probe_start = Some(Instant::now());
        self.inner.savepoint();
    }

    fn rollback(&mut self) {
        self.inner.rollback();
        if let Some(start) = self.probe_start.take() {
            self.local.probe_ns += start.elapsed().as_nanos() as u64;
            self.local.probes += 1;
        }
    }

    fn telemetry(&self) -> Option<CheckerTelemetry> {
        self.inner.telemetry()
    }
}

impl Drop for TimedChecker<'_> {
    fn drop(&mut self) {
        let t = self.tally;
        let l = &self.local;
        for (field, v) in [
            (&t.advance_calls, l.advance_calls),
            (&t.advance_ns, l.advance_ns),
            (&t.queries, l.queries),
            (&t.query_ns, l.query_ns),
            (&t.probes, l.probes),
            (&t.probe_ns, l.probe_ns),
            (&t.nested_ns, l.nested_ns),
        ] {
            field.fetch_add(v, Ordering::Relaxed);
        }
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory spans around the public calls of one repetition. A disabled
/// recorder runs the wrapped call and records nothing.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on` is false for untraced repetitions.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    fn enter(&mut self, name: &'static str) {
        if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    fn exit(&mut self) {
        if self.on {
            let at = self.open.pop().expect("exit matches an enter");
            self.spans[at].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Every span with its self time: its duration minus the part its
    /// child spans cover.
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .zip(child_ns)
                .enumerate()
                .map(|(id, (s, child))| {
                    Json::obj(vec![
                        ("id", Json::u64(id as u64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::u64(s.start_ns)),
                        ("end_ns", Json::u64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                        ),
                        ("self_ns", Json::u64(s.end_ns - s.start_ns - child)),
                    ])
                })
                .collect(),
        )
    }
}
