//! Sets of elements drawn from a dense universe `0..n`, one bit per
//! element in a `u16`.

use std::fmt;

use crate::{check_universe, full_row, Bits};

/// A set of elements drawn from the dense universe `0..n`, where `n` is at
/// most [`MAX_UNIVERSE`](crate::MAX_UNIVERSE).
///
/// All set operations require both operands to share the same universe size;
/// mixing universes is a logic error and panics in debug builds.
///
/// # Examples
///
/// ```
/// use tm_relation::ElemSet;
///
/// let reads = ElemSet::from_iter(6, [1, 3, 5]);
/// let writes = ElemSet::from_iter(6, [0, 3]);
/// let both = reads.intersection(&writes);
/// assert_eq!(both.iter().collect::<Vec<_>>(), vec![3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ElemSet {
    universe: u8,
    /// Bit `e` is set iff `e` is a member; bits at or past `universe` are 0.
    row: u16,
}

impl ElemSet {
    /// Creates an empty set over the universe `0..universe`.
    ///
    /// # Panics
    ///
    /// Panics if `universe > MAX_UNIVERSE`.
    pub fn new(universe: usize) -> Self {
        ElemSet {
            universe: check_universe(universe),
            row: 0,
        }
    }

    /// Creates a set containing every element of the universe.
    pub fn full(universe: usize) -> Self {
        ElemSet::from_row(universe, full_row(universe))
    }

    /// The set over `0..universe` whose members are the set bits of `row`.
    pub(crate) fn from_row(universe: usize, row: u16) -> Self {
        let mut s = Self::new(universe);
        s.row = row & full_row(universe);
        s
    }

    /// The members as a bit row.
    pub(crate) fn row(&self) -> u16 {
        self.row
    }

    /// Creates a set over `0..universe` from an iterator of members.
    ///
    /// # Panics
    ///
    /// Panics if any member is `>= universe`.
    pub fn from_iter<I: IntoIterator<Item = usize>>(universe: usize, elems: I) -> Self {
        let mut s = Self::new(universe);
        for e in elems {
            s.insert(e);
        }
        s
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        usize::from(self.universe)
    }

    /// Inserts an element. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= universe`.
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(
            elem < self.universe(),
            "element {elem} outside universe {}",
            self.universe
        );
        let newly = !self.contains(elem);
        self.row |= 1 << elem;
        newly
    }

    /// Removes an element. Returns `true` if it was present.
    pub fn remove(&mut self, elem: usize) -> bool {
        let present = self.contains(elem);
        if present {
            self.row &= !(1 << elem);
        }
        present
    }

    /// Returns `true` if `elem` is a member.
    pub fn contains(&self, elem: usize) -> bool {
        elem < self.universe() && self.row & (1 << elem) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.row.count_ones() as usize
    }

    /// Returns `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.row == 0
    }

    /// Set union.
    pub fn union(&self, other: &ElemSet) -> ElemSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ElemSet) -> ElemSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: &ElemSet) -> ElemSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Complement with respect to the universe.
    pub fn complement(&self) -> ElemSet {
        ElemSet::from_row(self.universe(), !self.row)
    }

    /// Returns `true` if every member of `self` is a member of `other`.
    pub fn is_subset_of(&self, other: &ElemSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.row & !other.row == 0
    }

    /// Returns `true` if the two sets share no member.
    pub fn is_disjoint_from(&self, other: &ElemSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.row & other.row == 0
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Bits(self.row)
    }

    fn zip_with(&self, other: &ElemSet, f: impl Fn(u16, u16) -> u16) -> ElemSet {
        debug_assert_eq!(
            self.universe, other.universe,
            "set operation across different universes"
        );
        ElemSet {
            universe: self.universe,
            row: f(self.row, other.row),
        }
    }
}

impl fmt::Debug for ElemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for ElemSet {
    /// Builds a set whose universe is one past the largest member (or 0 for
    /// an empty iterator). Prefer [`ElemSet::from_iter`] with an explicit
    /// universe when interoperating with relations.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let elems: Vec<usize> = iter.into_iter().collect();
        let universe = elems.iter().copied().max().map_or(0, |m| m + 1);
        ElemSet::from_iter(universe, elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_UNIVERSE;

    #[test]
    fn insert_remove_contains() {
        let mut s = ElemSet::new(10);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert_eq!(s.len(), 1);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = ElemSet::from_iter(4, [0, 1]);
        assert!(!s.contains(100));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = ElemSet::new(4);
        s.insert(4);
    }

    #[test]
    fn boolean_algebra() {
        let a = ElemSet::from_iter(8, [0, 1, 2, 5]);
        let b = ElemSet::from_iter(8, [2, 3, 5, 7]);
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 5, 7]
        );
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(a.complement().iter().collect::<Vec<_>>(), vec![3, 4, 6, 7]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = ElemSet::from_iter(8, [1, 2]);
        let b = ElemSet::from_iter(8, [1, 2, 3]);
        let c = ElemSet::from_iter(8, [5, 6]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_disjoint_from(&c));
        assert!(!a.is_disjoint_from(&b));
    }

    #[test]
    fn full_and_complement_are_inverses() {
        let full = ElemSet::full(MAX_UNIVERSE);
        assert_eq!(full.len(), MAX_UNIVERSE);
        assert!(full.complement().is_empty());
        assert_eq!(full.complement().complement(), full);
    }

    #[test]
    fn from_iterator_trait_infers_universe() {
        let s: ElemSet = [2usize, 4, 9].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn works_across_word_boundary() {
        // Element 15 is the top bit of the row.
        let mut s = ElemSet::new(MAX_UNIVERSE);
        s.insert(0);
        s.insert(14);
        s.insert(15);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 14, 15]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.complement().len(), MAX_UNIVERSE - 3);
        assert!(!s.contains(MAX_UNIVERSE));
        assert!(!s.remove(MAX_UNIVERSE));
        assert!(s.remove(15));
        assert_eq!(s.iter().last(), Some(14));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_UNIVERSE")]
    fn universe_above_max_panics() {
        ElemSet::new(MAX_UNIVERSE + 1);
    }
}
