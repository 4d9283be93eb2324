//! Bit-matrix binary relations and the operators of axiomatic memory models.

use std::fmt;

use crate::{check_universe, full_row, Bits, ElemSet, MAX_UNIVERSE};

/// A binary relation over the dense universe `0..n`, stored inline as an
/// `n × n` bit matrix: one `u16` row of successors per element, `n` at most
/// [`MAX_UNIVERSE`].
///
/// The API mirrors the notation of the paper (§2.1): `;` is [`compose`],
/// `r⁻¹` is [`inverse`], `r?` is [`reflexive_closure`], `r⁺` is
/// [`transitive_closure`], `r*` is [`reflexive_transitive_closure`],
/// `[S]` is [`Relation::identity_on`], and the axiom predicates
/// `acyclic` / `irreflexive` / `empty` are [`is_acyclic`],
/// [`is_irreflexive`] and [`is_empty`].
///
/// [`compose`]: Relation::compose
/// [`inverse`]: Relation::inverse
/// [`reflexive_closure`]: Relation::reflexive_closure
/// [`transitive_closure`]: Relation::transitive_closure
/// [`reflexive_transitive_closure`]: Relation::reflexive_transitive_closure
/// [`is_acyclic`]: Relation::is_acyclic
/// [`is_irreflexive`]: Relation::is_irreflexive
/// [`is_empty`]: Relation::is_empty
///
/// # Examples
///
/// ```
/// use tm_relation::Relation;
///
/// let rf = Relation::from_pairs(4, [(0, 3)]);
/// let po = Relation::from_pairs(4, [(3, 1)]);
/// // rf ; po relates the write 0 to the event 1 after the read 3.
/// assert!(rf.compose(&po).contains(0, 1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    universe: u8,
    /// Bit `b` of row `a` is set iff `(a, b)` is in the relation. Rows and
    /// bits at or past `universe` are 0, so the derived `Eq` and `Hash` see
    /// only the pairs.
    rows: [u16; MAX_UNIVERSE],
}

impl Relation {
    /// Creates the empty relation over the universe `0..universe`.
    ///
    /// # Panics
    ///
    /// Panics if `universe > MAX_UNIVERSE`.
    pub fn new(universe: usize) -> Self {
        Relation {
            universe: check_universe(universe),
            rows: [0; MAX_UNIVERSE],
        }
    }

    /// Creates a relation from `(source, target)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any element is `>= universe`.
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(universe: usize, pairs: I) -> Self {
        let mut r = Self::new(universe);
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// The identity relation `[S]` restricted to the members of `set`.
    pub fn identity_on(set: &ElemSet) -> Self {
        let mut r = Self::new(set.universe());
        for e in set.iter() {
            r.rows[e] = 1 << e;
        }
        r
    }

    /// The full identity relation over `0..universe`.
    pub fn identity(universe: usize) -> Self {
        Self::identity_on(&ElemSet::full(universe))
    }

    /// The cartesian product `a × b`.
    pub fn cross(a: &ElemSet, b: &ElemSet) -> Self {
        debug_assert_eq!(a.universe(), b.universe());
        let mut r = Self::new(a.universe());
        for x in a.iter() {
            r.rows[x] = b.row();
        }
        r
    }

    /// Size of the universe this relation ranges over.
    pub fn universe(&self) -> usize {
        usize::from(self.universe)
    }

    /// The rows `0..universe`.
    fn live_rows(&self) -> &[u16] {
        &self.rows[..self.universe()]
    }

    /// Adds the pair `(a, b)`. Returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is `>= universe`.
    pub fn insert(&mut self, a: usize, b: usize) -> bool {
        assert!(
            a < self.universe() && b < self.universe(),
            "pair ({a}, {b}) outside universe {}",
            self.universe
        );
        let newly = !self.contains(a, b);
        self.rows[a] |= 1 << b;
        newly
    }

    /// Removes the pair `(a, b)`. Returns `true` if it was present.
    pub fn remove(&mut self, a: usize, b: usize) -> bool {
        let present = self.contains(a, b);
        if present {
            self.rows[a] &= !(1 << b);
        }
        present
    }

    /// Returns `true` if the pair `(a, b)` is in the relation.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.universe() && b < self.universe() && self.rows[a] & (1 << b) != 0
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|r| r.count_ones() as usize).sum()
    }

    /// Returns `true` if the relation contains no pair (the `empty(r)`
    /// axiom predicate).
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|&r| r == 0)
    }

    /// Iterates over all pairs `(a, b)` in row-major order.
    pub fn iter(&self) -> Pairs<'_> {
        Pairs {
            rel: self,
            a: 0,
            bits: Bits(self.rows[0]),
        }
    }

    /// Successors of `a`: every `b` with `(a, b)` in the relation, in
    /// ascending order.
    pub fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        Bits(self.rows[a])
    }

    /// Predecessors of `b`: every `a` with `(a, b)` in the relation.
    pub fn predecessors(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.universe()).filter(move |&a| self.contains(a, b))
    }

    /// The set of elements appearing as a source of some pair.
    pub fn domain(&self) -> ElemSet {
        let sources = (0..self.universe())
            .filter(|&a| self.rows[a] != 0)
            .fold(0, |set, a| set | 1 << a);
        ElemSet::from_row(self.universe(), sources)
    }

    /// The set of elements appearing as a target of some pair.
    pub fn range(&self) -> ElemSet {
        ElemSet::from_row(self.universe(), self.rows.iter().fold(0, |set, r| set | r))
    }

    /// Union of two relations.
    pub fn union(&self, other: &Relation) -> Relation {
        self.zip_with(other, |a, b| a | b)
    }

    /// In-place union: `self ← self ∪ other`.
    pub fn union_in_place(&mut self, other: &Relation) {
        *self = self.union(other);
    }

    /// In-place intersection: `self ← self ∩ other`.
    pub fn intersect_in_place(&mut self, other: &Relation) {
        *self = self.intersection(other);
    }

    /// In-place difference: `self ← self \ other`.
    pub fn difference_in_place(&mut self, other: &Relation) {
        *self = self.difference(other);
    }

    /// Removes every pair: the relation becomes empty.
    pub fn clear(&mut self) {
        self.rows = [0; MAX_UNIVERSE];
    }

    /// Intersection of two relations.
    pub fn intersection(&self, other: &Relation) -> Relation {
        self.zip_with(other, |a, b| a & b)
    }

    /// Difference (`self \ other`).
    pub fn difference(&self, other: &Relation) -> Relation {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Complement with respect to all pairs of the universe.
    pub fn complement(&self) -> Relation {
        let mut out = Relation::new(self.universe());
        let full = full_row(self.universe());
        for (dst, src) in out.rows.iter_mut().zip(self.live_rows()) {
            *dst = !src & full;
        }
        out
    }

    /// The inverse relation `r⁻¹`.
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::new(self.universe());
        for (a, b) in self.iter() {
            out.rows[b] |= 1 << a;
        }
        out
    }

    /// Relational composition `self ; other`.
    pub fn compose(&self, other: &Relation) -> Relation {
        let mut out = Relation::new(self.universe());
        self.compose_into(other, &mut out);
        out
    }

    /// Relational composition into an existing relation: `out ← self ;
    /// other`. Row `a` of `out` is the OR of the rows of `other` that row
    /// `a` of `self` selects.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the three universes differ.
    pub fn compose_into(&self, other: &Relation, out: &mut Relation) {
        debug_assert_eq!(self.universe, other.universe);
        debug_assert_eq!(self.universe, out.universe);
        for (dst, &row) in out.rows.iter_mut().zip(&self.rows) {
            *dst = Bits(row).fold(0, |acc, b| acc | other.rows[b]);
        }
    }

    /// Reference composition by the textbook triple loop, kept as an oracle
    /// for the row-level [`Relation::compose_into`].
    pub fn compose_naive(&self, other: &Relation) -> Relation {
        debug_assert_eq!(self.universe, other.universe);
        let n = self.universe();
        let mut out = Relation::new(n);
        for a in 0..n {
            for b in 0..n {
                if !self.contains(a, b) {
                    continue;
                }
                for c in 0..n {
                    if other.contains(b, c) {
                        out.insert(a, c);
                    }
                }
            }
        }
        out
    }

    /// Reflexive closure `r?` (adds the identity on the whole universe).
    pub fn reflexive_closure(&self) -> Relation {
        let mut out = self.clone();
        for (a, row) in out.rows[..self.universe()].iter_mut().enumerate() {
            *row |= 1 << a;
        }
        out
    }

    /// Transitive closure `r⁺`.
    pub fn transitive_closure(&self) -> Relation {
        let mut out = self.clone();
        out.transitive_closure_in_place();
        out
    }

    /// In-place transitive closure by Warshall's algorithm over the rows:
    /// for each pivot `k`, every row that reaches `k` absorbs row `k`.
    /// A pivot with an empty row contributes nothing and is skipped.
    pub fn transitive_closure_in_place(&mut self) {
        for k in 0..self.universe() {
            let pivot = self.rows[k];
            if pivot == 0 {
                continue;
            }
            for row in &mut self.rows {
                if *row & (1 << k) != 0 {
                    *row |= pivot;
                }
            }
        }
    }

    /// Reference transitive closure by fixpoint iteration
    /// (`r ∪ r;r ∪ r;r;r ∪ …` until nothing changes, with an early exit on
    /// stabilisation), kept as an oracle for
    /// [`Relation::transitive_closure_in_place`].
    pub fn transitive_closure_naive(&self) -> Relation {
        let mut acc = self.clone();
        loop {
            let step = acc.compose_naive(self);
            let next = acc.union(&step);
            if next == acc {
                return acc;
            }
            acc = next;
        }
    }

    /// Reflexive-transitive closure `r*`.
    pub fn reflexive_transitive_closure(&self) -> Relation {
        self.transitive_closure().reflexive_closure()
    }

    /// Returns `true` if no pair `(a, a)` is in the relation (the
    /// `irreflexive(r)` axiom predicate).
    pub fn is_irreflexive(&self) -> bool {
        self.live_rows()
            .iter()
            .enumerate()
            .all(|(a, row)| row & (1 << a) == 0)
    }

    /// The smallest successor of `a` that is `>= from`.
    fn next_successor(&self, a: usize, from: usize) -> Option<usize> {
        if from >= self.universe() {
            return None;
        }
        Bits(self.rows[a] & (u16::MAX << from)).next()
    }

    /// Returns `true` if the relation has no cycle (the `acyclic(r)` axiom
    /// predicate), i.e. its transitive closure is irreflexive.
    pub fn is_acyclic(&self) -> bool {
        // Peel sinks: an element none of whose successors is still live
        // lies on no cycle among the live elements. The relation is acyclic
        // iff peeling empties the universe; a pass that peels nothing leaves
        // elements that each have a live successor, hence a cycle. Passes
        // run from the highest element down, so edges that point upwards
        // (program order, mostly) peel in a single pass.
        let mut live = full_row(self.universe());
        while live != 0 {
            let before = live;
            for a in (0..self.universe()).rev() {
                if self.rows[a] & live == 0 {
                    live &= !(1 << a);
                }
            }
            if live == before {
                return false;
            }
        }
        true
    }

    /// Returns one cycle (as a sequence of elements, first == last) if the
    /// relation has one, for diagnostics. Returns `None` if acyclic.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        let n = self.universe();
        let mut state = [0u8; MAX_UNIVERSE]; // 0 white, 1 grey, 2 black
        let mut parent = [usize::MAX; MAX_UNIVERSE];
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n); // (node, cursor)
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            stack.push((start, 0));
            state[start] = 1;
            while let Some(frame) = stack.last_mut() {
                let node = frame.0;
                match self.next_successor(node, frame.1) {
                    Some(next) => {
                        frame.1 = next + 1;
                        if state[next] == 1 {
                            // Found a back edge node -> next. The cycle is
                            // the tree path next -> ... -> node plus that
                            // back edge.
                            let mut path = vec![node];
                            let mut cur = node;
                            while cur != next {
                                cur = parent[cur];
                                if cur == usize::MAX {
                                    break;
                                }
                                path.push(cur);
                            }
                            path.reverse();
                            return Some(path);
                        }
                        if state[next] == 0 {
                            state[next] = 1;
                            parent[next] = node;
                            stack.push((next, 0));
                        }
                    }
                    None => {
                        state[node] = 2;
                        stack.pop();
                    }
                }
            }
        }
        None
    }

    /// Returns `true` if every pair of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.rows.iter().zip(&other.rows).all(|(a, b)| a & !b == 0)
    }

    /// Restricts the relation to pairs whose source is in `set`
    /// (`[set] ; r`).
    pub fn restrict_domain(&self, set: &ElemSet) -> Relation {
        let mut out = Relation::new(self.universe());
        for a in set.iter() {
            out.rows[a] = self.rows[a];
        }
        out
    }

    /// Restricts the relation to pairs whose target is in `set`
    /// (`r ; [set]`).
    pub fn restrict_range(&self, set: &ElemSet) -> Relation {
        let mut out = self.clone();
        for row in &mut out.rows {
            *row &= set.row();
        }
        out
    }

    /// Restricts to pairs with both endpoints in `set`.
    pub fn restrict(&self, set: &ElemSet) -> Relation {
        self.restrict_domain(set).restrict_range(set)
    }

    /// Removes every pair incident on `elem` (used when deleting an event
    /// during execution weakening, §4.2(i)).
    pub fn without_elem(&self, elem: usize) -> Relation {
        let mut out = self.clone();
        if elem < self.universe() {
            out.rows[elem] = 0;
            for row in &mut out.rows {
                *row &= !(1 << elem);
            }
        }
        out
    }

    /// Re-indexes the relation through `map`: pair `(a, b)` becomes
    /// `(map[a], map[b])` in a relation over `new_universe`; entries mapped
    /// to `None` are dropped. Used to compact executions after removing
    /// events.
    pub fn reindex(&self, map: &[Option<usize>], new_universe: usize) -> Relation {
        let mut out = Relation::new(new_universe);
        for (a, b) in self.iter() {
            if let (Some(na), Some(nb)) = (map[a], map[b]) {
                out.insert(na, nb);
            }
        }
        out
    }

    fn zip_with(&self, other: &Relation, f: impl Fn(u16, u16) -> u16) -> Relation {
        debug_assert_eq!(
            self.universe, other.universe,
            "relation operation across different universes"
        );
        Relation {
            universe: self.universe,
            rows: std::array::from_fn(|a| f(self.rows[a], other.rows[a])),
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the pairs of a [`Relation`], produced by [`Relation::iter`].
pub struct Pairs<'a> {
    rel: &'a Relation,
    a: usize,
    bits: Bits,
}

impl Iterator for Pairs<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        loop {
            if let Some(b) = self.bits.next() {
                return Some((self.a, b));
            }
            self.a += 1;
            if self.a >= self.rel.universe() {
                return None;
            }
            self.bits = Bits(self.rel.rows[self.a]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::new(4);
        assert!(r.insert(1, 2));
        assert!(!r.insert(1, 2));
        assert!(r.contains(1, 2));
        assert!(!r.contains(2, 1));
        assert_eq!(r.len(), 1);
        assert!(r.remove(1, 2));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        Relation::new(3).insert(0, 3);
    }

    #[test]
    fn compose_matches_definition() {
        let r1 = Relation::from_pairs(5, [(0, 1), (0, 2), (3, 4)]);
        let r2 = Relation::from_pairs(5, [(1, 4), (2, 3)]);
        let c = r1.compose(&r2);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(0, 3), (0, 4)]);
    }

    #[test]
    fn inverse_and_identity() {
        let r = Relation::from_pairs(3, [(0, 2), (1, 2)]);
        let inv = r.inverse();
        assert!(inv.contains(2, 0) && inv.contains(2, 1));
        assert_eq!(inv.inverse(), r);
        let id = Relation::identity(3);
        assert_eq!(r.compose(&id), r);
        assert_eq!(id.compose(&r), r);
    }

    #[test]
    fn closures() {
        let r = Relation::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let plus = r.transitive_closure();
        assert!(plus.contains(0, 3));
        assert!(!plus.contains(0, 0));
        let star = r.reflexive_transitive_closure();
        assert!(star.contains(0, 0) && star.contains(3, 3) && star.contains(0, 3));
        let q = r.reflexive_closure();
        assert!(q.contains(2, 2) && q.contains(0, 1) && !q.contains(0, 2));
    }

    #[test]
    fn acyclicity_and_cycle_finding() {
        let dag = Relation::from_pairs(5, [(0, 1), (1, 2), (0, 3), (3, 4)]);
        assert!(dag.is_acyclic());
        assert!(dag.find_cycle().is_none());

        let cyc = Relation::from_pairs(4, [(0, 1), (1, 2), (2, 0)]);
        assert!(!cyc.is_acyclic());
        let cycle = cyc.find_cycle().expect("cycle must be found");
        assert!(cycle.len() >= 2);
        // Every consecutive pair in the reported cycle is an edge, and it wraps.
        for w in cycle.windows(2) {
            assert!(cyc.contains(w[0], w[1]), "cycle edge {:?} missing", w);
        }
        assert!(cyc.contains(*cycle.last().unwrap(), cycle[0]));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let r = Relation::from_pairs(2, [(1, 1)]);
        assert!(!r.is_acyclic());
        assert!(!r.is_irreflexive());
    }

    #[test]
    fn domain_range_restrictions() {
        let r = Relation::from_pairs(5, [(0, 1), (2, 3), (4, 1)]);
        let evens = ElemSet::from_iter(5, [0, 2, 4]);
        let dr = r.restrict_domain(&evens);
        assert_eq!(dr.len(), 3);
        let rr = r.restrict_range(&evens);
        assert_eq!(
            rr.iter().collect::<Vec<_>>(),
            vec![(2, 3)]
                .into_iter()
                .filter(|_| false)
                .collect::<Vec<_>>()
        );
        assert!(rr.is_empty());
        let odd_targets = ElemSet::from_iter(5, [1, 3]);
        assert_eq!(r.restrict_range(&odd_targets).len(), 3);
    }

    #[test]
    fn cross_and_identity_on() {
        let a = ElemSet::from_iter(4, [0, 1]);
        let b = ElemSet::from_iter(4, [2, 3]);
        let x = Relation::cross(&a, &b);
        assert_eq!(x.len(), 4);
        assert!(x.contains(0, 2) && x.contains(1, 3));
        let id = Relation::identity_on(&a);
        assert_eq!(id.iter().collect::<Vec<_>>(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn without_elem_drops_incident_pairs() {
        let r = Relation::from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 1)]);
        let out = r.without_elem(1);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![(2, 3)]);
    }

    #[test]
    fn reindex_compacts() {
        let r = Relation::from_pairs(4, [(0, 1), (1, 3), (2, 3)]);
        // Drop element 2, compact 3 -> 2.
        let map = [Some(0), Some(1), None, Some(2)];
        let out = r.reindex(&map, 3);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn domain_and_range_sets() {
        let r = Relation::from_pairs(5, [(0, 1), (0, 2), (3, 2)]);
        assert_eq!(r.domain().iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(r.range().iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn complement_partitions_pairs() {
        let r = Relation::from_pairs(3, [(0, 1)]);
        let c = r.complement();
        assert_eq!(r.len() + c.len(), 9);
        assert!(r.intersection(&c).is_empty());
    }

    #[test]
    fn subset_check() {
        let small = Relation::from_pairs(3, [(0, 1)]);
        let big = Relation::from_pairs(3, [(0, 1), (1, 2)]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
    }

    #[test]
    fn works_beyond_one_word() {
        // Element 15 is the top bit of a row, where a shift or mask that is
        // off by one would show.
        let n = MAX_UNIVERSE;
        let mut r = Relation::new(n);
        r.insert(0, 15);
        r.insert(15, 14);
        let plus = r.transitive_closure();
        assert!(plus.contains(0, 14));
        assert!(r.is_acyclic());
        assert_eq!(r.complement().len(), n * n - 2);
        assert_eq!(
            r.inverse().iter().collect::<Vec<_>>(),
            vec![(14, 15), (15, 0)]
        );
        assert_eq!(r.domain().iter().collect::<Vec<_>>(), vec![0, 15]);
        assert_eq!(r.range().iter().collect::<Vec<_>>(), vec![14, 15]);
        assert!(r.reflexive_closure().contains(15, 15));
        assert_eq!(r.without_elem(15).len(), 0);
        r.insert(14, 0);
        assert_eq!(r.find_cycle(), Some(vec![0, 15, 14]));
        // Out-of-range queries answer "no" rather than shifting past the row.
        assert!(!r.contains(0, n) && !r.contains(n, 0));
        assert!(!r.remove(n, n));
        assert_eq!(r.predecessors(n).count(), 0);
        assert_eq!(r.without_elem(n), r);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_UNIVERSE")]
    fn universe_above_max_panics() {
        Relation::new(MAX_UNIVERSE + 1);
    }
}
