//! The ⊏ execution-weakening order of §4.2.

use std::collections::HashSet;

use tm_exec::ir::{Delta, RelBase};
use tm_exec::{check_well_formed, Annot, Execution};
use tm_models::DeltaChecker;

use crate::{canonical_signature, CanonSig};

/// One ⊏-weakening expressed *against the candidate it weakens*, so an
/// incremental pipeline can probe it without cloning the execution:
///
/// * the same-universe steps (§4.2(ii) dependency removal, §4.2(iii)
///   annotation downgrade, §4.2(v) transaction shrink) are reversible edit
///   scripts — apply them in place with [`apply_weakening_edits`] (which
///   records the matching [`Delta`] for a stateful checker), probe, then
///   [`undo_weakening_edits`];
/// * event removal (§4.2(i)) changes the universe, so the weaker execution
///   is materialised outright.
///
/// Edit-script weakenings are **not** pre-filtered for well-formedness or
/// deduplicated: probe loops check `check_well_formed` on the edited
/// execution (skipping ill-formed results, which are not candidates at
/// all) and deduplicate by signature if they need to. The clone-based
/// [`weakenings`] family, which filters and deduplicates, is built on this
/// same generator.
#[derive(Clone, Debug)]
pub enum Weakening {
    /// §4.2(i): an event removed with its incident edges (boxed: most
    /// weakenings are small edit scripts).
    Rebuild(Box<Execution>),
    /// A same-universe weakening as a reversible edit script.
    Edits(Vec<WeakeningEdit>),
}

/// One reversible in-place edit of an execution.
#[derive(Clone, Copy, Debug)]
pub enum WeakeningEdit {
    /// Remove pair `(a, b)` from a primitive relation (`addr`, `ctrl`,
    /// `data`, `rmw`, `stxn`, `stxnat`).
    RemovePair(RelBase, usize, usize),
    /// Replace event `e`'s annotation: `(event, old, new)`.
    SetAnnot(usize, Annot, Annot),
}

fn primitive_mut(exec: &mut Execution, base: RelBase) -> &mut tm_relation::Relation {
    match base {
        RelBase::Addr => &mut exec.addr,
        RelBase::Ctrl => &mut exec.ctrl,
        RelBase::Data => &mut exec.data,
        RelBase::Rmw => &mut exec.rmw,
        RelBase::Stxn => &mut exec.stxn,
        RelBase::Stxnat => &mut exec.stxnat,
        other => unreachable!("weakenings do not edit {other:?}"),
    }
}

/// Applies an edit script in place, recording the edits in `delta` so a
/// stateful [`DeltaChecker`] can absorb them.
pub fn apply_weakening_edits(exec: &mut Execution, edits: &[WeakeningEdit], delta: &mut Delta) {
    for &edit in edits {
        match edit {
            WeakeningEdit::RemovePair(base, a, b) => {
                primitive_mut(exec, base).remove(a, b);
                delta.remove_edge(base, a, b);
            }
            WeakeningEdit::SetAnnot(e, _, new) => {
                exec.events[e].annot = new;
                delta.touch_annots();
            }
        }
    }
}

/// Reverts an edit script applied by [`apply_weakening_edits`], restoring
/// the execution exactly. Callers pair this with a checker rollback.
pub fn undo_weakening_edits(exec: &mut Execution, edits: &[WeakeningEdit]) {
    for &edit in edits.iter().rev() {
        match edit {
            WeakeningEdit::RemovePair(base, a, b) => {
                primitive_mut(exec, base).insert(a, b);
            }
            WeakeningEdit::SetAnnot(e, old, _) => {
                exec.events[e].annot = old;
            }
        }
    }
}

/// The probe bracket: asks `checker` about `probe` edited by `edits`, and
/// leaves both exactly as they were.
///
/// `probe` must equal the candidate the checker last advanced to. The
/// script is applied in place; if `admit` accepts the edited execution,
/// the checker answers under a savepoint (savepoint → advance by the
/// recorded delta → query → rollback). The edits are then undone. Returns
/// `None` when `admit` refused the edited execution, which was then never
/// shown to the checker.
///
/// The ⊏-minimality walk of [`crate::ForbidFilter`] admits only
/// well-formed weakenings; callers whose edits always keep an execution
/// well-formed admit everything.
pub fn probe_edit_script(
    checker: &mut dyn DeltaChecker,
    probe: &mut Execution,
    edits: &[WeakeningEdit],
    admit: impl FnOnce(&Execution) -> bool,
) -> Option<bool> {
    let mut delta = Delta::new();
    apply_weakening_edits(probe, edits, &mut delta);
    let consistent = admit(probe).then(|| {
        checker.savepoint();
        checker.advance(probe, &delta);
        let ok = checker.is_consistent(probe);
        checker.rollback();
        ok
    });
    undo_weakening_edits(probe, edits);
    consistent
}

/// Every one-step ⊏-weakening of `exec` as a [`Weakening`] — the
/// delta-friendly generator behind [`weakenings`]. `Rebuild` results are
/// filtered for well-formedness (an ill-formed execution is not a
/// candidate); `Edits` results are raw (see [`Weakening`] on the caller's
/// obligations).
pub fn weakening_edits(exec: &Execution) -> Vec<Weakening> {
    let mut out = Vec::new();

    // (i) remove an event.
    for e in 0..exec.len() {
        let weaker = exec.remove_event(e);
        if check_well_formed(&weaker).is_ok() {
            out.push(Weakening::Rebuild(Box::new(weaker)));
        }
    }

    // (ii) remove a dependency edge.
    for (field, base) in [
        (DepField::Addr, RelBase::Addr),
        (DepField::Ctrl, RelBase::Ctrl),
        (DepField::Data, RelBase::Data),
        (DepField::Rmw, RelBase::Rmw),
    ] {
        for (a, b) in field.get(exec).iter() {
            out.push(Weakening::Edits(vec![WeakeningEdit::RemovePair(
                base, a, b,
            )]));
        }
    }

    // (iii) downgrade an event's annotation.
    for e in 0..exec.len() {
        let current = exec.event(e).annot;
        for weaker in weaker_annots(current) {
            out.push(Weakening::Edits(vec![WeakeningEdit::SetAnnot(
                e, current, weaker,
            )]));
        }
    }

    // (v) shrink a transaction at either end.
    for class in exec.txn_classes() {
        let first = *class
            .iter()
            .min_by_key(|&&e| exec.po.predecessors(e).count())
            .expect("transaction classes are non-empty");
        let last = *class
            .iter()
            .max_by_key(|&&e| exec.po.predecessors(e).count())
            .expect("transaction classes are non-empty");
        let mut ends = vec![first];
        if last != first {
            ends.push(last);
        }
        for end in ends {
            let mut edits = Vec::new();
            for other in 0..exec.len() {
                for (rel, base) in [(&exec.stxn, RelBase::Stxn), (&exec.stxnat, RelBase::Stxnat)] {
                    if rel.contains(end, other) {
                        edits.push(WeakeningEdit::RemovePair(base, end, other));
                    }
                    if other != end && rel.contains(other, end) {
                        edits.push(WeakeningEdit::RemovePair(base, other, end));
                    }
                }
            }
            out.push(Weakening::Edits(edits));
        }
    }

    out
}

/// Returns every execution one ⊏-step weaker than `exec`:
///
/// 1. an event removed (with its incident edges) — §4.2(i);
/// 2. a dependency edge (`addr`, `ctrl`, `data`, `rmw`) removed — §4.2(ii);
/// 3. an event downgraded to a strictly weaker annotation — §4.2(iii);
/// 4. the first or last event of a transaction made non-transactional —
///    §4.2(v).
///
/// Ill-formed results (e.g. a lock-elision critical region losing its lock
/// call) are dropped: they are not candidate executions at all. The result
/// is deduplicated by [`canonical_signature`]: two weakening steps that land
/// on the same execution up to thread/location renaming (removing either of
/// two symmetric events, say) yield one entry, so callers neither check the
/// same candidate twice nor need to re-filter duplicates themselves.
pub fn weakenings(exec: &Execution) -> Vec<Execution> {
    weakenings_with_signatures(exec)
        .into_iter()
        .map(|(_, weaker)| weaker)
        .collect()
}

/// [`weakenings`] paired with each result's [`canonical_signature`] — the
/// signature is computed for deduplication anyway, so callers that key on it
/// (the Allow-suite merge) need not recompute it. Materialises every
/// [`weakening_edits`] result on a clone, filters the ill-formed ones, and
/// deduplicates.
pub fn weakenings_with_signatures(exec: &Execution) -> Vec<(CanonSig, Execution)> {
    let mut out = Vec::new();
    let mut seen: HashSet<CanonSig> = HashSet::new();
    for weakening in weakening_edits(exec) {
        let weaker = match weakening {
            Weakening::Rebuild(weaker) => *weaker,
            Weakening::Edits(edits) => {
                let mut weaker = exec.clone();
                let mut delta = Delta::new();
                apply_weakening_edits(&mut weaker, &edits, &mut delta);
                weaker
            }
        };
        if check_well_formed(&weaker).is_ok() {
            let sig = canonical_signature(&weaker);
            if seen.insert(sig.clone()) {
                out.push((sig, weaker));
            }
        }
    }
    out
}

/// Annotation choices strictly weaker than `annot`, drawn from the standard
/// lattice plain ⊑ relaxed ⊑ {acquire, release} ⊑ seq_cst.
fn weaker_annots(annot: Annot) -> Vec<Annot> {
    let candidates = [
        Annot::PLAIN,
        Annot::relaxed_atomic(),
        Annot::acquire(),
        Annot::release(),
        Annot::acquire_atomic(),
        Annot::release_atomic(),
    ];
    candidates
        .into_iter()
        .filter(|c| *c != annot && c.is_weaker_or_equal(annot))
        .collect()
}

#[derive(Clone, Copy)]
enum DepField {
    Addr,
    Ctrl,
    Data,
    Rmw,
}

impl DepField {
    fn get<'a>(&self, exec: &'a Execution) -> &'a tm_relation::Relation {
        match self {
            DepField::Addr => &exec.addr,
            DepField::Ctrl => &exec.ctrl,
            DepField::Data => &exec.data,
            DepField::Rmw => &exec.rmw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::{catalog, Event, ExecutionBuilder};

    #[test]
    fn weakening_a_plain_execution_removes_events_only() {
        let sb = catalog::sb();
        let ws = weakenings(&sb);
        // Four single-event removals, but SB is symmetric under swapping its
        // threads (and locations), so only two canonical weakenings remain:
        // "drop a write" and "drop a read".
        assert_eq!(ws.len(), 2);
        assert!(ws.iter().all(|w| w.len() == 3));
        assert!(ws.iter().any(|w| w.writes().len() == 1));
        assert!(ws.iter().any(|w| w.reads().len() == 1));
    }

    #[test]
    fn weakenings_contain_no_canonical_duplicates() {
        for exec in [
            catalog::sb(),
            catalog::sb_txn(),
            catalog::wrc(),
            catalog::fig2(),
            catalog::power_iriw_two_txns(),
            catalog::monotonicity_cex_coalesced(),
        ] {
            let ws = weakenings(&exec);
            let sigs: std::collections::HashSet<CanonSig> =
                ws.iter().map(crate::canonical_signature).collect();
            assert_eq!(sigs.len(), ws.len(), "duplicate weakenings returned");
        }
    }

    #[test]
    fn weakening_removes_dependency_edges() {
        let wrc = catalog::wrc();
        let ws = weakenings(&wrc);
        // 5 event removals + 2 dependency removals.
        assert_eq!(ws.len(), 7);
        assert!(ws
            .iter()
            .any(|w| w.len() == 5 && w.data.is_empty() && !w.addr.is_empty()));
        assert!(ws
            .iter()
            .any(|w| w.len() == 5 && w.addr.is_empty() && !w.data.is_empty()));
    }

    #[test]
    fn weakening_shrinks_transactions_from_the_ends() {
        let fig2 = catalog::fig2();
        let ws = weakenings(&fig2);
        // Three event removals plus two transaction shrinks.
        assert_eq!(ws.len(), 5);
        let shrunk: Vec<&Execution> = ws.iter().filter(|w| w.len() == 3).collect();
        assert_eq!(shrunk.len(), 2);
        for w in shrunk {
            assert_eq!(w.txn_classes().iter().map(Vec::len).sum::<usize>(), 1);
        }
    }

    #[test]
    fn weakening_downgrades_annotations() {
        let mut b = ExecutionBuilder::new();
        b.push(Event::write(0, 0).with_annot(Annot::release()));
        b.push(Event::read(1, 0).with_annot(Annot::acquire()));
        let e = b.build().unwrap();
        let ws = weakenings(&e);
        // Two removals + one downgrade each.
        assert_eq!(ws.len(), 4);
        assert!(ws
            .iter()
            .any(|w| w.len() == 2 && w.event(0).annot == Annot::PLAIN));
        assert!(ws
            .iter()
            .any(|w| w.len() == 2 && w.event(1).annot == Annot::PLAIN));
    }

    #[test]
    fn weaker_annot_lattice_is_strict() {
        assert!(weaker_annots(Annot::PLAIN).is_empty());
        assert!(weaker_annots(Annot::acquire()).contains(&Annot::PLAIN));
        let sc = weaker_annots(Annot::seq_cst());
        assert!(sc.contains(&Annot::acquire_atomic()));
        assert!(sc.contains(&Annot::relaxed_atomic()));
        assert!(!sc.contains(&Annot::seq_cst()));
    }

    #[test]
    fn weakenings_of_rmw_pair_drop_the_pairing() {
        let e = catalog::monotonicity_cex_coalesced();
        let ws = weakenings(&e);
        assert!(ws.iter().any(|w| w.len() == 2 && w.rmw.is_empty()));
    }

    /// The delta-friendly edit scripts and the clone-based weakenings are
    /// two views of the same ⊏ step: replaying every same-universe script
    /// in place reaches exactly the materialised weakenings, and undoing
    /// restores the candidate bit for bit.
    #[test]
    fn edit_scripts_match_materialised_weakenings() {
        for exec in [
            catalog::sb_txn(),
            catalog::fig2(),
            catalog::wrc(),
            catalog::power_iriw_two_txns(),
            catalog::monotonicity_cex_coalesced(),
        ] {
            let mut probe = exec.clone();
            let mut probed: std::collections::HashSet<CanonSig> = std::collections::HashSet::new();
            for weakening in weakening_edits(&exec) {
                if let Weakening::Edits(edits) = weakening {
                    let mut delta = Delta::new();
                    apply_weakening_edits(&mut probe, &edits, &mut delta);
                    assert!(!delta.is_empty(), "edit scripts record their delta");
                    if check_well_formed(&probe).is_ok() {
                        probed.insert(canonical_signature(&probe));
                    }
                    undo_weakening_edits(&mut probe, &edits);
                    assert_eq!(probe, exec, "undo must restore the candidate exactly");
                }
            }
            for (sig, weaker) in weakenings_with_signatures(&exec) {
                if weaker.len() == exec.len() {
                    assert!(
                        probed.contains(&sig),
                        "materialised weakening missing from the edit scripts"
                    );
                }
            }
        }
    }

    #[test]
    fn all_weakenings_are_well_formed() {
        for exec in [
            catalog::power_wrc_tprop1(),
            catalog::power_iriw_two_txns(),
            catalog::fig10_abstract(),
            catalog::example_1_1_concrete(false),
        ] {
            for w in weakenings(&exec) {
                assert!(check_well_formed(&w).is_ok());
            }
        }
    }
}
