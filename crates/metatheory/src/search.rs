//! The one loop behind every bounded check of this crate.
//!
//! Each check walks every candidate with 2 to `max_events` events on the
//! delta-threading enumerator ([`enumerate_exact_incremental_until`]). A
//! worker builds one sink, which drives a stateful [`DeltaChecker`] by the
//! enumerator's deltas, and the walk stops at the first counterexample any
//! worker reports.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use tm_exec::ir::Delta;
use tm_exec::Execution;
use tm_models::{DeltaChecker, MemoryModel};
use tm_synth::{enumerate_exact_incremental_until, SynthConfig};

/// One bounded search: a tally of the work done, and the first
/// counterexample reported.
pub(crate) struct Search<T> {
    tally: AtomicUsize,
    /// A stop flag only (hence `Relaxed`): the counterexample itself is
    /// published through the mutex, and read after the workers joined.
    found: AtomicBool,
    counterexample: Mutex<Option<T>>,
}

impl<T: Send> Search<T> {
    pub(crate) fn new() -> Search<T> {
        Search {
            tally: AtomicUsize::new(0),
            found: AtomicBool::new(false),
            counterexample: Mutex::new(None),
        }
    }

    /// Feeds every candidate of 2..=`max_events` events under `config` to
    /// one sink per worker, each built by `make_sink`, until a sink reports
    /// a counterexample.
    pub(crate) fn run<S>(
        &self,
        config: &SynthConfig,
        max_events: usize,
        make_sink: impl Fn() -> S + Sync,
    ) where
        S: FnMut(&Execution, &Delta),
    {
        for n in 2..=max_events {
            if self.stopped() {
                break;
            }
            enumerate_exact_incremental_until(config, n, &make_sink, || self.stopped());
        }
    }

    /// True once a counterexample has been reported.
    pub(crate) fn stopped(&self) -> bool {
        self.found.load(Ordering::Relaxed)
    }

    /// Counts one unit of work (a pair, a candidate, an instance).
    pub(crate) fn count(&self) {
        self.tally.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a counterexample and stops the walk. When several workers
    /// report, the first to take the lock wins.
    pub(crate) fn report(&self, counterexample: T) {
        self.found.store(true, Ordering::Relaxed);
        self.counterexample
            .lock()
            .expect("no worker panics while holding the counterexample")
            .get_or_insert(counterexample);
    }

    /// The tally and the counterexample, if any.
    pub(crate) fn finish(self) -> (usize, Option<T>) {
        (
            self.tally.into_inner(),
            self.counterexample
                .into_inner()
                .expect("no worker panics while holding the counterexample"),
        )
    }
}

/// `model`'s delta-driven checker or, for a model without one, an adapter
/// that ignores deltas and answers every query from scratch.
pub(crate) fn delta_checker(model: &dyn MemoryModel) -> Box<dyn DeltaChecker + '_> {
    model
        .incremental_checker()
        .unwrap_or_else(|| Box::new(FromScratch(model)))
}

/// A stateless [`DeltaChecker`]: every query builds a fresh view.
struct FromScratch<'m>(&'m dyn MemoryModel);

impl DeltaChecker for FromScratch<'_> {
    fn advance(&mut self, _exec: &Execution, _delta: &Delta) {}

    fn is_consistent(&mut self, exec: &Execution) -> bool {
        self.0.is_consistent(exec)
    }

    fn savepoint(&mut self) {}

    fn rollback(&mut self) {}
}
