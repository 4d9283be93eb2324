//! Candidate executions: event graphs with primitive and derived relations.

use std::fmt;

use tm_relation::{ElemSet, Relation};

use crate::{Event, EventKind, Fence, Loc, LockCall, ThreadId};

/// A candidate execution (§2.1, extended with transactions as in §3.1 and
/// lock-elision critical regions as in §8.3).
///
/// The vertices are [`Event`]s, indexed densely by `usize`. The primitive
/// relations are stored explicitly; everything else (`fr`, `com`, `rfe`,
/// `poloc`, per-architecture fence relations, `tfence`, …) is derived on
/// demand.
///
/// An `Execution` does not promise well-formedness by construction; use
/// [`crate::check_well_formed`] (or [`crate::ExecutionBuilder`], which checks
/// on `build`) before feeding one to a memory model.
///
/// # Examples
///
/// ```
/// use tm_exec::{Event, ExecutionBuilder};
///
/// // The message-passing (MP) shape: W x; W y || R y; R x.
/// let mut b = ExecutionBuilder::new();
/// let wx = b.push(Event::write(0, 0));
/// let wy = b.push(Event::write(0, 1));
/// let ry = b.push(Event::read(1, 1));
/// let rx = b.push(Event::read(1, 0));
/// b.rf(wy, ry);
/// let exec = b.build()?;
/// assert_eq!(exec.len(), 4);
/// assert!(exec.rfe().contains(wy, ry));
/// // rx reads the initial value, so it is fr-before wx.
/// assert!(exec.fr().contains(rx, wx));
/// # Ok::<(), tm_exec::WellFormednessError>(())
/// ```
#[derive(PartialEq, Eq)]
pub struct Execution {
    /// The events of the execution, in identifier order.
    pub events: Vec<Event>,
    /// Program order (sequenced-before).
    pub po: Relation,
    /// Reads-from: writes to the reads that observe them.
    pub rf: Relation,
    /// Coherence order on writes to the same location.
    pub co: Relation,
    /// Address dependencies.
    pub addr: Relation,
    /// Data dependencies.
    pub data: Relation,
    /// Control dependencies.
    pub ctrl: Relation,
    /// Read-modify-write pairing (read of an RMW to its write).
    pub rmw: Relation,
    /// Same-successful-transaction (a partial equivalence relation).
    pub stxn: Relation,
    /// Same-successful-*atomic*-transaction (C++ only; `stxnat ⊆ stxn`).
    pub stxnat: Relation,
    /// Same-critical-region (lock-elision checking, §8.3).
    pub scr: Relation,
    /// Same-*transactionalised*-critical-region (`scrt ⊆ scr`).
    pub scrt: Relation,
}

impl Clone for Execution {
    fn clone(&self) -> Execution {
        Execution {
            events: self.events.clone(),
            po: self.po.clone(),
            rf: self.rf.clone(),
            co: self.co.clone(),
            addr: self.addr.clone(),
            data: self.data.clone(),
            ctrl: self.ctrl.clone(),
            rmw: self.rmw.clone(),
            stxn: self.stxn.clone(),
            stxnat: self.stxnat.clone(),
            scr: self.scr.clone(),
            scrt: self.scrt.clone(),
        }
    }

    /// Reuses `self`'s storage, so refreshing a probe buffer from a
    /// same-sized candidate allocates nothing.
    fn clone_from(&mut self, source: &Execution) {
        // Destructured so that a new field cannot be left out here.
        let Execution {
            events,
            po,
            rf,
            co,
            addr,
            data,
            ctrl,
            rmw,
            stxn,
            stxnat,
            scr,
            scrt,
        } = self;
        events.clone_from(&source.events);
        po.clone_from(&source.po);
        rf.clone_from(&source.rf);
        co.clone_from(&source.co);
        addr.clone_from(&source.addr);
        data.clone_from(&source.data);
        ctrl.clone_from(&source.ctrl);
        rmw.clone_from(&source.rmw);
        stxn.clone_from(&source.stxn);
        stxnat.clone_from(&source.stxnat);
        scr.clone_from(&source.scr);
        scrt.clone_from(&source.scrt);
    }
}

impl Execution {
    /// Creates an execution with the given events and no edges at all.
    pub fn with_events(events: Vec<Event>) -> Execution {
        let n = events.len();
        Execution {
            events,
            po: Relation::new(n),
            rf: Relation::new(n),
            co: Relation::new(n),
            addr: Relation::new(n),
            data: Relation::new(n),
            ctrl: Relation::new(n),
            rmw: Relation::new(n),
            stxn: Relation::new(n),
            stxnat: Relation::new(n),
            scr: Relation::new(n),
            scrt: Relation::new(n),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn event(&self, id: usize) -> &Event {
        &self.events[id]
    }

    /// The number of distinct threads mentioned by events.
    pub fn thread_count(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.thread.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// The distinct locations accessed by reads and writes.
    pub fn locations(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> = self.events.iter().filter_map(|e| e.loc()).collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }

    // ---- event sets -----------------------------------------------------

    /// The set `R` of read events.
    pub fn reads(&self) -> ElemSet {
        self.set_of(|e| e.is_read())
    }

    /// The set `W` of write events.
    pub fn writes(&self) -> ElemSet {
        self.set_of(|e| e.is_write())
    }

    /// The set `F` of fence events (any kind).
    pub fn fences(&self) -> ElemSet {
        self.set_of(|e| e.is_fence())
    }

    /// The set of memory accesses (reads and writes).
    pub fn accesses(&self) -> ElemSet {
        self.set_of(|e| e.is_access())
    }

    /// The set `Acq` of acquire events.
    pub fn acquires(&self) -> ElemSet {
        self.set_of(|e| e.annot.acq)
    }

    /// The set `Rel` of release events.
    pub fn releases(&self) -> ElemSet {
        self.set_of(|e| e.annot.rel)
    }

    /// The set `SC` of sequentially-consistent (C++ `seq_cst`) events.
    pub fn sc_events(&self) -> ElemSet {
        self.set_of(|e| e.annot.sc)
    }

    /// The set `Ato` of events from C++ atomic operations.
    pub fn atomics(&self) -> ElemSet {
        self.set_of(|e| e.annot.atomic)
    }

    /// Fence events of exactly the given kind.
    pub fn fences_of(&self, kind: Fence) -> ElemSet {
        self.set_of(|e| e.kind == EventKind::Fence(kind))
    }

    /// Lock-library call events of the given kind.
    pub fn lock_calls_of(&self, call: LockCall) -> ElemSet {
        self.set_of(|e| e.kind == EventKind::LockCall(call))
    }

    /// All lock-library call events.
    pub fn lock_calls(&self) -> ElemSet {
        self.set_of(|e| e.is_lock_call())
    }

    /// The set of events that belong to some successful transaction.
    pub fn in_txn(&self) -> ElemSet {
        ElemSet::from_iter(self.len(), self.stxn.domain().iter())
    }

    /// The set of events that belong to no successful transaction.
    pub fn not_in_txn(&self) -> ElemSet {
        self.in_txn().complement()
    }

    fn set_of(&self, pred: impl Fn(&Event) -> bool) -> ElemSet {
        ElemSet::from_iter(
            self.len(),
            self.events
                .iter()
                .enumerate()
                .filter(|(_, e)| pred(e))
                .map(|(i, _)| i),
        )
    }

    // ---- basic derived relations ----------------------------------------

    /// Same-location: relates accesses to the same location (irreflexive
    /// pairs included both ways; reflexive pairs excluded).
    pub fn sloc(&self) -> Relation {
        // Group accesses by location first, then relate within each group,
        // rather than scanning all event pairs.
        let mut r = Relation::new(self.len());
        let mut by_loc: Vec<(Loc, Vec<usize>)> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if let Some(loc) = e.loc() {
                match by_loc.iter_mut().find(|(l, _)| *l == loc) {
                    Some((_, group)) => group.push(i),
                    None => by_loc.push((loc, vec![i])),
                }
            }
        }
        for (_, group) in &by_loc {
            for (k, &i) in group.iter().enumerate() {
                for &j in &group[k + 1..] {
                    r.insert(i, j);
                    r.insert(j, i);
                }
            }
        }
        r
    }

    /// Same-thread (internal) pairs: `(po ∪ po⁻¹)*`, i.e. both events on the
    /// same thread (including the reflexive pairs).
    pub fn same_thread(&self) -> Relation {
        // Group by thread, then relate within each group (reflexive pairs
        // included), rather than scanning all event pairs.
        let mut r = Relation::new(self.len());
        let mut by_thread: Vec<(ThreadId, Vec<usize>)> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            match by_thread.iter_mut().find(|(t, _)| *t == e.thread) {
                Some((_, group)) => group.push(i),
                None => by_thread.push((e.thread, vec![i])),
            }
        }
        for (_, group) in &by_thread {
            for &i in group {
                for &j in group {
                    r.insert(i, j);
                }
            }
        }
        r
    }

    /// Restricts `r` to inter-thread (external) pairs: `r \ (po ∪ po⁻¹)*`.
    pub fn external(&self, r: &Relation) -> Relation {
        r.difference(&self.same_thread())
    }

    /// Restricts `r` to intra-thread (internal) pairs: `r ∩ (po ∪ po⁻¹)*`.
    pub fn internal(&self, r: &Relation) -> Relation {
        r.intersection(&self.same_thread())
    }

    /// Program order restricted to same-location accesses (`poloc`).
    pub fn poloc(&self) -> Relation {
        self.po.intersection(&self.sloc())
    }

    /// Program order between accesses of different locations (`po,loc` in the
    /// paper's Appendix C notation).
    pub fn po_diff_loc(&self) -> Relation {
        self.po.difference(&self.sloc())
    }

    /// From-read: each read to every write on the same location that is
    /// co-after the write the read observed. Reads of the initial value are
    /// fr-before every write to that location.
    ///
    /// `fr = ([R] ; sloc ; [W]) \ (rf⁻¹ ; (co⁻¹)*)`.
    pub fn fr(&self) -> Relation {
        let r_to_w = Relation::identity_on(&self.reads())
            .compose(&self.sloc())
            .compose(&Relation::identity_on(&self.writes()));
        let excluded = self
            .rf
            .inverse()
            .compose(&self.co.inverse().reflexive_transitive_closure());
        r_to_w.difference(&excluded)
    }

    /// External (inter-thread) reads-from.
    pub fn rfe(&self) -> Relation {
        self.external(&self.rf)
    }

    /// Internal (intra-thread) reads-from.
    pub fn rfi(&self) -> Relation {
        self.internal(&self.rf)
    }

    /// External coherence edges.
    pub fn coe(&self) -> Relation {
        self.external(&self.co)
    }

    /// Internal coherence edges.
    pub fn coi(&self) -> Relation {
        self.internal(&self.co)
    }

    /// External from-read edges.
    pub fn fre(&self) -> Relation {
        self.external(&self.fr())
    }

    /// Internal from-read edges.
    pub fn fri(&self) -> Relation {
        self.internal(&self.fr())
    }

    /// Communication: `com = rf ∪ co ∪ fr`.
    pub fn com(&self) -> Relation {
        self.rf.union(&self.co).union(&self.fr())
    }

    /// External communication edges.
    pub fn come(&self) -> Relation {
        self.external(&self.com())
    }

    /// Extended communication (C++ §7.2): `ecom = com ∪ (co ; rf)`.
    pub fn ecom(&self) -> Relation {
        self.com().union(&self.co.compose(&self.rf))
    }

    /// The conflict relation (C++ Fig. 9): pairs of same-location accesses,
    /// at least one a write, excluding identity pairs.
    pub fn cnf(&self) -> Relation {
        let w = self.writes();
        let r = self.reads();
        let ww = Relation::cross(&w, &w);
        let rw = Relation::cross(&r, &w);
        let wr = Relation::cross(&w, &r);
        ww.union(&rw)
            .union(&wr)
            .intersection(&self.sloc())
            .difference(&Relation::identity(self.len()))
    }

    // ---- fences ----------------------------------------------------------

    /// The per-architecture fence relation for fences of kind `kind`:
    /// program-order pairs `(a, b)` separated by a fence event of that kind
    /// (`a` po-before the fence, fence po-before `b`).
    pub fn fence_rel(&self, kind: Fence) -> Relation {
        self.fence_rel_of(&self.fences_of(kind))
    }

    /// Like [`Execution::fence_rel`] but for a union of fence kinds.
    pub fn fence_rel_any(&self, kinds: &[Fence]) -> Relation {
        let mut set = ElemSet::new(self.len());
        for &k in kinds {
            set = set.union(&self.fences_of(k));
        }
        self.fence_rel_of(&set)
    }

    fn fence_rel_of(&self, fences: &ElemSet) -> Relation {
        let id_f = Relation::identity_on(fences);
        self.po.compose(&id_f).compose(&self.po)
    }

    /// The implicit transaction fence relation (`tfence`):
    /// `po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn))` — program-order edges that
    /// enter or exit a successful transaction.
    ///
    /// Note that a program-order edge between two *different* transactions
    /// both exits the first and enters the second, so it is in `tfence`;
    /// this matters for the transaction-coalescing counterexample of §8.1.
    pub fn tfence(&self) -> Relation {
        // No transaction, no boundary: po ∩ ((¬∅;∅) ∪ (∅;¬∅)) = ∅.
        if self.stxn.is_empty() {
            return Relation::new(self.len());
        }
        let not_stxn = self.stxn.complement();
        let enter = not_stxn.compose(&self.stxn);
        let exit = self.stxn.compose(&not_stxn);
        self.po.intersection(&enter.union(&exit))
    }

    // ---- transaction lifting ---------------------------------------------

    /// `weaklift(r, t) = t ; (r \ t) ; t` — relates whole transactions when
    /// some event of one is `r`-related to some event of another (§3.3).
    pub fn weaklift(r: &Relation, t: &Relation) -> Relation {
        // ∅ ; (r \ ∅) ; ∅ = ∅.
        if t.is_empty() {
            return Relation::new(r.universe());
        }
        t.compose(&r.difference(t)).compose(t)
    }

    /// `stronglift(r, t) = t? ; (r \ t) ; t?` — like [`Execution::weaklift`]
    /// but the source and/or target may also be non-transactional events.
    pub fn stronglift(r: &Relation, t: &Relation) -> Relation {
        // ∅? = id, so stronglift(r, ∅) = id ; r ; id = r.
        if t.is_empty() {
            return r.clone();
        }
        let tq = t.reflexive_closure();
        tq.compose(&r.difference(t)).compose(&tq)
    }

    /// The transaction classes of this execution (each a sorted list of
    /// event identifiers), ordered by first event.
    pub fn txn_classes(&self) -> Vec<Vec<usize>> {
        tm_relation::per_classes(&self.stxn)
    }

    /// The critical-region classes of this execution (lock elision, §8.3).
    pub fn cr_classes(&self) -> Vec<Vec<usize>> {
        tm_relation::per_classes(&self.scr)
    }

    // ---- mutation helpers used by ⊏ weakening and mappings ----------------

    /// Returns a copy of this execution with event `id` removed (and every
    /// incident edge dropped); remaining events are re-indexed densely.
    pub fn remove_event(&self, id: usize) -> Execution {
        let n = self.len();
        let mut map = vec![None; n];
        let mut next = 0;
        for (i, slot) in map.iter_mut().enumerate() {
            if i != id {
                *slot = Some(next);
                next += 1;
            }
        }
        let events = self
            .events
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != id)
            .map(|(_, e)| *e)
            .collect();
        let rx = |r: &Relation| r.reindex(&map, next);
        Execution {
            events,
            po: rx(&self.po),
            rf: rx(&self.rf),
            co: rx(&self.co),
            addr: rx(&self.addr),
            data: rx(&self.data),
            ctrl: rx(&self.ctrl),
            rmw: rx(&self.rmw),
            stxn: rx(&self.stxn),
            stxnat: rx(&self.stxnat),
            scr: rx(&self.scr),
            scrt: rx(&self.scrt),
        }
    }

    /// A canonical structural signature of the execution, used for
    /// deduplication by the enumerator. Two executions with equal signatures
    /// have identical events (up to identifier order within threads) and
    /// identical relations.
    pub fn signature(&self) -> String {
        let mut s = String::new();
        for (i, e) in self.events.iter().enumerate() {
            s.push_str(&format!("{i}:{};", e));
        }
        let dump = |name: &str, r: &Relation, out: &mut String| {
            out.push_str(name);
            out.push('=');
            for (a, b) in r.iter() {
                out.push_str(&format!("{a}-{b},"));
            }
            out.push(';');
        };
        dump("po", &self.po, &mut s);
        dump("rf", &self.rf, &mut s);
        dump("co", &self.co, &mut s);
        dump("addr", &self.addr, &mut s);
        dump("data", &self.data, &mut s);
        dump("ctrl", &self.ctrl, &mut s);
        dump("rmw", &self.rmw, &mut s);
        dump("stxn", &self.stxn, &mut s);
        dump("stxnat", &self.stxnat, &mut s);
        dump("scr", &self.scr, &mut s);
        dump("scrt", &self.scrt, &mut s);
        s
    }
}

impl fmt::Debug for Execution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Execution with {} events:", self.len())?;
        for (i, e) in self.events.iter().enumerate() {
            let mut marks = String::new();
            if self.in_txn().contains(i) {
                marks.push_str(" [txn]");
            }
            writeln!(f, "  {i}: {e}{marks}")?;
        }
        let show = |name: &str, r: &Relation, f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !r.is_empty() {
                writeln!(f, "  {name}: {:?}", r.iter().collect::<Vec<_>>())?;
            }
            Ok(())
        };
        show("po", &self.po, f)?;
        show("rf", &self.rf, f)?;
        show("co", &self.co, f)?;
        show("addr", &self.addr, f)?;
        show("data", &self.data, f)?;
        show("ctrl", &self.ctrl, f)?;
        show("rmw", &self.rmw, f)?;
        show("stxn", &self.stxn, f)?;
        show("scr", &self.scr, f)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionBuilder;

    /// Store-buffering shape used by several tests:
    /// P0: W x; R y   P1: W y; R x, both reads from the initial state.
    fn sb() -> Execution {
        let mut b = ExecutionBuilder::new();
        let _wx = b.push(Event::write(0, 0));
        let _ry = b.push(Event::read(0, 1));
        let _wy = b.push(Event::write(1, 1));
        let _rx = b.push(Event::read(1, 0));
        b.build().unwrap()
    }

    #[test]
    fn event_sets_partition() {
        let e = sb();
        assert_eq!(e.reads().len(), 2);
        assert_eq!(e.writes().len(), 2);
        assert!(e.fences().is_empty());
        assert_eq!(e.accesses().len(), 4);
        assert_eq!(e.thread_count(), 2);
        assert_eq!(e.locations(), vec![Loc(0), Loc(1)]);
    }

    #[test]
    fn fr_relates_initial_reads_to_all_writes() {
        let e = sb();
        // R y (1) is fr-before W y (2); R x (3) is fr-before W x (0).
        let fr = e.fr();
        assert!(fr.contains(1, 2));
        assert!(fr.contains(3, 0));
        assert_eq!(fr.len(), 2);
        // All fr here is external.
        assert_eq!(e.fre(), fr);
        assert!(e.fri().is_empty());
    }

    #[test]
    fn fr_excludes_writes_not_co_after_observed() {
        // P0: W x (a); P1: W x (b), R x (c) reading from b, co a -> b.
        let mut b = ExecutionBuilder::new();
        let a = b.push(Event::write(0, 0));
        let w = b.push(Event::write(1, 0));
        let r = b.push(Event::read(1, 0));
        b.rf(w, r);
        b.co(a, w);
        let e = b.build().unwrap();
        // r observed w, which is co-after a, so r is fr-before nothing.
        assert!(e.fr().is_empty());
        assert!(e.com().contains(a, w));
        assert!(e.com().contains(w, r));
        let _ = e.event(r);
    }

    #[test]
    fn sloc_and_poloc() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.push(Event::write(0, 0));
        let r1 = b.push(Event::read(0, 0));
        let w2 = b.push(Event::write(0, 1));
        let e = b.build().unwrap();
        assert!(e.sloc().contains(w1, r1) && e.sloc().contains(r1, w1));
        assert!(!e.sloc().contains(w1, w2));
        assert!(e.poloc().contains(w1, r1));
        assert!(!e.poloc().contains(w1, w2));
        assert!(e.po_diff_loc().contains(w1, w2));
    }

    #[test]
    fn fence_relation_connects_across_fence_events() {
        let mut b = ExecutionBuilder::new();
        let w = b.push(Event::write(0, 0));
        let _f = b.push(Event::fence(0, Fence::Sync));
        let r = b.push(Event::read(0, 1));
        let other = b.push(Event::read(1, 0));
        let e = b.build().unwrap();
        let sync = e.fence_rel(Fence::Sync);
        assert!(sync.contains(w, r));
        assert!(!sync.contains(w, other));
        assert!(e.fence_rel(Fence::Lwsync).is_empty());
        assert!(e
            .fence_rel_any(&[Fence::Sync, Fence::Lwsync])
            .contains(w, r));
    }

    #[test]
    fn tfence_marks_transaction_boundaries() {
        let mut b = ExecutionBuilder::new();
        let before = b.push(Event::write(0, 0));
        let t1 = b.push(Event::write(0, 1));
        let t2 = b.push(Event::read(0, 0));
        let after = b.push(Event::read(0, 1));
        b.txn(&[t1, t2]);
        let e = b.build().unwrap();
        let tf = e.tfence();
        assert!(tf.contains(before, t1));
        assert!(tf.contains(before, t2));
        assert!(tf.contains(t1, after));
        assert!(tf.contains(t2, after));
        assert!(!tf.contains(t1, t2));
        assert!(!tf.contains(before, after));
    }

    #[test]
    fn weaklift_and_stronglift() {
        // txn {0, 1}; external event 2; r = {(1, 2), (2, 0)}.
        let txn = Relation::from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        let r = Relation::from_pairs(3, [(1, 2), (2, 0)]);
        let weak = Execution::weaklift(&r, &txn);
        // The target/source 2 is not in any transaction, so weaklift is empty.
        assert!(weak.is_empty());
        let strong = Execution::stronglift(&r, &txn);
        // stronglift relates both txn events to 2 and 2 back to both.
        assert!(strong.contains(0, 2) && strong.contains(1, 2));
        assert!(strong.contains(2, 0) && strong.contains(2, 1));
        assert!(!strong.is_acyclic());
    }

    #[test]
    fn txn_classes_and_membership() {
        let mut b = ExecutionBuilder::new();
        let a = b.push(Event::write(0, 0));
        let c = b.push(Event::read(0, 1));
        let d = b.push(Event::write(1, 1));
        b.txn(&[a, c]);
        let e = b.build().unwrap();
        assert_eq!(e.txn_classes(), vec![vec![a, c]]);
        assert!(e.in_txn().contains(a) && e.in_txn().contains(c));
        assert!(e.not_in_txn().contains(d));
    }

    #[test]
    fn remove_event_reindexes_relations() {
        let mut b = ExecutionBuilder::new();
        let w = b.push(Event::write(0, 0));
        let f = b.push(Event::fence(0, Fence::MFence));
        let r = b.push(Event::read(1, 0));
        b.rf(w, r);
        let e = b.build().unwrap();
        let smaller = e.remove_event(f);
        assert_eq!(smaller.len(), 2);
        assert!(smaller.rf.contains(0, 1));
        assert!(smaller.po.is_empty());
        let _ = (w, r);
    }

    #[test]
    fn cnf_requires_conflict() {
        let mut b = ExecutionBuilder::new();
        let w = b.push(Event::write(0, 0));
        let r_same = b.push(Event::read(1, 0));
        let r_other = b.push(Event::read(1, 1));
        let e = b.build().unwrap();
        let cnf = e.cnf();
        assert!(cnf.contains(w, r_same) && cnf.contains(r_same, w));
        assert!(!cnf.contains(w, r_other));
        assert!(!cnf.contains(r_same, r_other));
        assert!(cnf.is_irreflexive());
    }

    #[test]
    fn ecom_extends_com_with_co_rf() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.push(Event::write(0, 0));
        let w2 = b.push(Event::write(1, 0));
        let r = b.push(Event::read(2, 0));
        b.co(w1, w2);
        b.rf(w2, r);
        let e = b.build().unwrap();
        assert!(!e.com().contains(w1, r));
        assert!(e.ecom().contains(w1, r));
    }

    #[test]
    fn signature_distinguishes_executions() {
        let a = sb();
        let mut b2 = ExecutionBuilder::new();
        let wx = b2.push(Event::write(0, 0));
        let ry = b2.push(Event::read(0, 1));
        let wy = b2.push(Event::write(1, 1));
        let rx = b2.push(Event::read(1, 0));
        b2.rf(wx, rx);
        b2.rf(wy, ry);
        let b = b2.build().unwrap();
        assert_ne!(a.signature(), b.signature());
        assert_eq!(a.signature(), a.clone().signature());
    }
}
