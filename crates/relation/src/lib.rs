//! Finite binary-relation algebra over dense element identifiers.
//!
//! This crate provides the relational vocabulary used by axiomatic memory
//! models (see §2.1 of the PLDI'18 paper *The Semantics of Transactions and
//! Weak Memory in x86, Power, ARM, and C++*): binary relations over a fixed
//! finite universe of events, together with the operators the models are
//! written in — union, intersection, difference, relational composition `;`,
//! inverse, reflexive/transitive closures, set lifting `[S]`, and the
//! `acyclic` / `irreflexive` / `empty` predicates.
//!
//! Elements of the universe are dense indices `0..n`, with `n` at most
//! [`MAX_UNIVERSE`] (16). Both types are stored inline, with no heap: an
//! [`ElemSet`] is one `u16` of members and a [`Relation`] is sixteen `u16`
//! rows of successors, so cloning is a 34-byte copy and composition,
//! closure and acyclicity are loops over at most sixteen rows. Sixteen
//! covers every execution the repository builds: the benchmark sweeps
//! reach 8 events, the Table 2 checks 9 at bound 3 and 11 at bound 4
//! (lock-elision and compiled images), and the test suite 10. A universe
//! above sixteen panics at construction.
//!
//! # Examples
//!
//! ```
//! use tm_relation::Relation;
//!
//! // po on three events in one thread: 0 -> 1 -> 2
//! let po = Relation::from_pairs(3, [(0, 1), (1, 2)]);
//! assert!(po.transitive_closure().contains(0, 2));
//! assert!(po.is_acyclic());
//!
//! // Adding a back edge creates a cycle.
//! let cyclic = po.union(&Relation::from_pairs(3, [(2, 0)]));
//! assert!(!cyclic.is_acyclic());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elem_set;
mod relation;

pub use elem_set::ElemSet;
pub use relation::{Pairs, Relation};

/// The largest universe an [`ElemSet`] or [`Relation`] can range over.
///
/// Callers that take an event count from outside the program check it
/// against this bound before building anything.
pub const MAX_UNIVERSE: usize = 16;

/// Asserts that `universe` fits in a `u16` row. A shift by 16 or more
/// would wrap silently in release builds, so this is an `assert!`.
fn check_universe(universe: usize) -> u8 {
    assert!(
        universe <= MAX_UNIVERSE,
        "universe of {universe} elements exceeds MAX_UNIVERSE ({MAX_UNIVERSE})"
    );
    universe as u8
}

/// The row with bits `0..universe` set.
fn full_row(universe: usize) -> u16 {
    ((1u32 << universe) - 1) as u16
}

/// The indices of the set bits of a row, in ascending order.
struct Bits(u16);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// Computes the equivalence classes of a symmetric + transitive relation
/// (a *partial* equivalence relation: reflexivity is not required, so
/// elements that relate to nothing — not even themselves — belong to no
/// class).
///
/// Classes are returned sorted by their smallest member, and members within
/// a class are sorted ascending.
///
/// This is how `stxn` (same-successful-transaction) and `scr` (same critical
/// region) classes are recovered from an execution.
///
/// # Examples
///
/// ```
/// use tm_relation::{Relation, per_classes};
///
/// let mut r = Relation::new(5);
/// // {1, 2} form one class, {4} a singleton class (self-related).
/// r.insert(1, 2);
/// r.insert(2, 1);
/// r.insert(1, 1);
/// r.insert(2, 2);
/// r.insert(4, 4);
/// assert_eq!(per_classes(&r), vec![vec![1, 2], vec![4]]);
/// ```
pub fn per_classes(rel: &Relation) -> Vec<Vec<usize>> {
    let n = rel.universe();
    let mut seen = vec![false; n];
    let mut classes = Vec::new();
    for a in 0..n {
        if seen[a] {
            continue;
        }
        // An element participates in the PER iff it relates to something
        // (by symmetry+transitivity it then relates to itself).
        let related: Vec<usize> = rel.successors(a).collect();
        if related.is_empty() && !rel.contains(a, a) {
            continue;
        }
        let mut class: Vec<usize> = related;
        if !class.contains(&a) {
            class.push(a);
        }
        class.sort_unstable();
        class.dedup();
        for &m in &class {
            seen[m] = true;
        }
        classes.push(class);
    }
    classes
}

/// Returns `true` if `rel` is symmetric (`(a, b) ∈ rel ⇒ (b, a) ∈ rel`).
pub fn is_symmetric(rel: &Relation) -> bool {
    rel.iter().all(|(a, b)| rel.contains(b, a))
}

/// Returns `true` if `rel` is transitive (`rel ; rel ⊆ rel`).
pub fn is_transitive(rel: &Relation) -> bool {
    rel.compose(rel).is_subset_of(rel)
}

/// Returns `true` if `rel` is a partial equivalence relation (symmetric and
/// transitive).
pub fn is_per(rel: &Relation) -> bool {
    is_symmetric(rel) && is_transitive(rel)
}

/// Returns `true` if `rel` restricted to `set` is a strict total order over
/// `set`: irreflexive, transitive, and total (any two distinct members are
/// related one way or the other, but not both).
pub fn is_strict_total_order_on(rel: &Relation, set: &ElemSet) -> bool {
    if !rel.is_irreflexive() || !is_transitive(rel) {
        return false;
    }
    let members: Vec<usize> = set.iter().collect();
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            if !rel.contains(a, b) && !rel.contains(b, a) {
                return false;
            }
            if rel.contains(a, b) && rel.contains(b, a) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_classes_empty_relation_has_no_classes() {
        let r = Relation::new(4);
        assert!(per_classes(&r).is_empty());
    }

    #[test]
    fn per_classes_ignores_unrelated_elements() {
        let mut r = Relation::new(6);
        for &(a, b) in &[(0, 3), (3, 0), (0, 0), (3, 3)] {
            r.insert(a, b);
        }
        assert_eq!(per_classes(&r), vec![vec![0, 3]]);
    }

    #[test]
    fn symmetric_and_transitive_checks() {
        let mut r = Relation::new(3);
        r.insert(0, 1);
        assert!(!is_symmetric(&r));
        r.insert(1, 0);
        assert!(is_symmetric(&r));
        // 0->1, 1->0 but no 0->0: not transitive.
        assert!(!is_transitive(&r));
        r.insert(0, 0);
        r.insert(1, 1);
        assert!(is_transitive(&r));
        assert!(is_per(&r));
    }

    #[test]
    fn strict_total_order_detection() {
        let set = ElemSet::from_iter(4, [0, 1, 2]);
        let order = Relation::from_pairs(4, [(0, 1), (1, 2), (0, 2)]);
        assert!(is_strict_total_order_on(&order, &set));
        // Missing 0->2 breaks transitivity.
        let partial = Relation::from_pairs(4, [(0, 1), (1, 2)]);
        assert!(!is_strict_total_order_on(&partial, &set));
        // A cycle is not a strict order.
        let cyc = Relation::from_pairs(4, [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)]);
        assert!(!is_strict_total_order_on(&cyc, &set));
    }
}
