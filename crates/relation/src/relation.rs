//! Bit-matrix binary relations and the operators of axiomatic memory models.

use std::fmt;

use crate::ElemSet;

const BITS: usize = 64;

/// A binary relation over the dense universe `0..n`, stored as an `n × n`
/// bit matrix (one bit-packed row of successors per element).
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
#[derive(PartialEq, Eq, Hash)]
pub struct Relation {
    universe: usize,
    words_per_row: usize,
    rows: Vec<u64>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            universe: self.universe,
            words_per_row: self.words_per_row,
            rows: self.rows.clone(),
        }
    }

    /// Reuses `self`'s row storage: no allocation when it is large enough.
    fn clone_from(&mut self, source: &Relation) {
        // Destructured so that a new field cannot be left out here.
        let Relation {
            universe,
            words_per_row,
            rows,
        } = self;
        *universe = source.universe;
        *words_per_row = source.words_per_row;
        rows.clone_from(&source.rows);
    }
}

impl Relation {
    /// Creates the empty relation over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        let words_per_row = universe.div_ceil(BITS).max(1);
        Relation {
            universe,
            words_per_row,
            rows: vec![0; words_per_row * universe],
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
            r.insert(e, e);
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
            for y in b.iter() {
                r.insert(x, y);
            }
        }
        r
    }

    /// Size of the universe this relation ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Adds the pair `(a, b)`. Returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is `>= universe`.
    pub fn insert(&mut self, a: usize, b: usize) -> bool {
        assert!(
            a < self.universe && b < self.universe,
            "pair ({a}, {b}) outside universe {}",
            self.universe
        );
        let idx = a * self.words_per_row + b / BITS;
        let mask = 1u64 << (b % BITS);
        let newly = self.rows[idx] & mask == 0;
        self.rows[idx] |= mask;
        newly
    }

    /// Removes the pair `(a, b)`. Returns `true` if it was present.
    pub fn remove(&mut self, a: usize, b: usize) -> bool {
        if a >= self.universe || b >= self.universe {
            return false;
        }
        let idx = a * self.words_per_row + b / BITS;
        let mask = 1u64 << (b % BITS);
        let present = self.rows[idx] & mask != 0;
        self.rows[idx] &= !mask;
        present
    }

    /// Returns `true` if the pair `(a, b)` is in the relation.
    pub fn contains(&self, a: usize, b: usize) -> bool {
        if a >= self.universe || b >= self.universe {
            return false;
        }
        self.rows[a * self.words_per_row + b / BITS] & (1 << (b % BITS)) != 0
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the relation contains no pair (the `empty(r)`
    /// axiom predicate).
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|&w| w == 0)
    }

    /// Iterates over all pairs `(a, b)` in row-major order.
    pub fn iter(&self) -> Pairs<'_> {
        Pairs {
            rel: self,
            a: 0,
            b: 0,
        }
    }

    /// Successors of `a`: every `b` with `(a, b)` in the relation.
    ///
    /// Iterates word by word over the bit-packed row, so sparse rows cost
    /// O(words) rather than O(universe).
    pub fn successors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.rows[a * self.words_per_row..(a + 1) * self.words_per_row];
        row.iter().enumerate().flat_map(|(w, &word)| {
            let base = w * BITS;
            std::iter::successors(if word == 0 { None } else { Some(word) }, |&bits| {
                let rest = bits & (bits - 1);
                if rest == 0 {
                    None
                } else {
                    Some(rest)
                }
            })
            .map(move |bits| base + bits.trailing_zeros() as usize)
        })
    }

    /// Predecessors of `b`: every `a` with `(a, b)` in the relation.
    pub fn predecessors(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.universe).filter(move |&a| self.contains(a, b))
    }

    /// The set of elements appearing as a source of some pair.
    pub fn domain(&self) -> ElemSet {
        ElemSet::from_iter(self.universe, self.iter().map(|(a, _)| a))
    }

    /// The set of elements appearing as a target of some pair.
    pub fn range(&self) -> ElemSet {
        ElemSet::from_iter(self.universe, self.iter().map(|(_, b)| b))
    }

    /// Union of two relations.
    pub fn union(&self, other: &Relation) -> Relation {
        self.zip_with(other, |a, b| a | b)
    }

    /// In-place union: `self ← self ∪ other`, with no allocation.
    ///
    /// The workhorse of relation assembly on hot paths (models build `hb`,
    /// `ob`, `prop` as unions of many parts; the allocating [`Relation::union`]
    /// clones the row storage every time).
    pub fn union_in_place(&mut self, other: &Relation) {
        debug_assert_eq!(
            self.universe, other.universe,
            "relation operation across different universes"
        );
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ← self ∩ other`, with no allocation.
    pub fn intersect_in_place(&mut self, other: &Relation) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a &= b;
        }
    }

    /// In-place difference: `self ← self \ other`, with no allocation.
    pub fn difference_in_place(&mut self, other: &Relation) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a &= !b;
        }
    }

    /// Removes every pair: the relation becomes empty (storage is kept).
    pub fn clear(&mut self) {
        self.rows.fill(0);
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
        // Word-level: negate each row, masking off the bits past the
        // universe boundary in the last word.
        let mut out = self.clone();
        let tail_bits = self.universe % BITS;
        let tail_mask = if tail_bits == 0 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        };
        for a in 0..self.universe {
            let base = a * self.words_per_row;
            for w in 0..self.words_per_row {
                let full = (w + 1) * BITS <= self.universe;
                let mask = if full { u64::MAX } else { tail_mask };
                out.rows[base + w] = !self.rows[base + w] & mask;
            }
        }
        out
    }

    /// The inverse relation `r⁻¹`.
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::new(self.universe);
        for (a, b) in self.iter() {
            out.insert(b, a);
        }
        out
    }

    /// Relational composition `self ; other`.
    pub fn compose(&self, other: &Relation) -> Relation {
        let mut out = Relation::new(self.universe);
        self.compose_into(other, &mut out);
        out
    }

    /// Allocation-free relational composition: `out ← self ; other`.
    ///
    /// `out` is cleared first, so it can be a scratch relation reused across
    /// calls. Word-level: for every `b` in row `a` of `self`, row `b` of
    /// `other` is OR-ed into row `a` of `out`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the three universes differ.
    pub fn compose_into(&self, other: &Relation, out: &mut Relation) {
        debug_assert_eq!(self.universe, other.universe);
        debug_assert_eq!(self.universe, out.universe);
        out.clear();
        let w = self.words_per_row;
        for a in 0..self.universe {
            let dst_base = a * w;
            for (wi, &word) in self.rows[a * w..(a + 1) * w].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = wi * BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let src_base = b * w;
                    for j in 0..w {
                        out.rows[dst_base + j] |= other.rows[src_base + j];
                    }
                }
            }
        }
    }

    /// Reference composition by the textbook triple loop, kept as an oracle
    /// for the word-level [`Relation::compose_into`] fast path.
    pub fn compose_naive(&self, other: &Relation) -> Relation {
        debug_assert_eq!(self.universe, other.universe);
        let mut out = Relation::new(self.universe);
        for a in 0..self.universe {
            for b in 0..self.universe {
                if !self.contains(a, b) {
                    continue;
                }
                for c in 0..self.universe {
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
        self.union(&Relation::identity(self.universe))
    }

    /// Transitive closure `r⁺`.
    pub fn transitive_closure(&self) -> Relation {
        let mut out = self.clone();
        out.transitive_closure_in_place();
        out
    }

    /// In-place transitive closure by word-level Floyd–Warshall, with no
    /// allocation beyond the relation itself.
    ///
    /// Two prunes keep litmus-sized closures cheap: a pivot `k` whose row is
    /// empty contributes nothing and is skipped outright, and within a pivot
    /// only rows with the `(a, k)` bit set are touched (checked by direct
    /// word indexing rather than a full `contains`). Rows are split with
    /// `split_at_mut` so the pivot row is OR-ed in without being copied.
    pub fn transitive_closure_in_place(&mut self) {
        let n = self.universe;
        let w = self.words_per_row;
        for k in 0..n {
            let k_base = k * w;
            if self.rows[k_base..k_base + w].iter().all(|&x| x == 0) {
                continue;
            }
            let (kw, kb) = (k / BITS, 1u64 << (k % BITS));
            for a in 0..n {
                if a == k || self.rows[a * w + kw] & kb == 0 {
                    continue;
                }
                let a_base = a * w;
                // Borrow the pivot row and row `a` disjointly (a != k).
                let (lo, hi) = self.rows.split_at_mut(a_base.max(k_base));
                let (dst, src) = if a_base < k_base {
                    (&mut lo[a_base..a_base + w], &hi[..w])
                } else {
                    (&mut hi[..w], &lo[k_base..k_base + w])
                };
                for (d, s) in dst.iter_mut().zip(src) {
                    *d |= s;
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
        (0..self.universe).all(|a| !self.contains(a, a))
    }

    /// The smallest successor of `a` that is `>= from`, found by scanning
    /// the bit-packed row word by word (no allocation).
    fn next_successor(&self, a: usize, from: usize) -> Option<usize> {
        if from >= self.universe {
            return None;
        }
        let row = &self.rows[a * self.words_per_row..(a + 1) * self.words_per_row];
        let mut wi = from / BITS;
        let mut word = row[wi] & (u64::MAX << (from % BITS));
        loop {
            if word != 0 {
                return Some(wi * BITS + word.trailing_zeros() as usize);
            }
            wi += 1;
            if wi >= row.len() {
                return None;
            }
            word = row[wi];
        }
    }

    /// Returns `true` if the relation has no cycle (the `acyclic(r)` axiom
    /// predicate), i.e. its transitive closure is irreflexive.
    pub fn is_acyclic(&self) -> bool {
        // Iterative DFS with colouring; successor rows are scanned in place
        // through a per-frame cursor, so no per-node allocation happens.
        let n = self.universe;
        let mut state = vec![0u8; n]; // 0 white, 1 grey, 2 black
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
                        match state[next] {
                            1 => return false,
                            0 => {
                                state[next] = 1;
                                stack.push((next, 0));
                            }
                            _ => {}
                        }
                    }
                    None => {
                        state[node] = 2;
                        stack.pop();
                    }
                }
            }
        }
        true
    }

    /// Returns one cycle (as a sequence of elements, first == last) if the
    /// relation has one, for diagnostics. Returns `None` if acyclic.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        let n = self.universe;
        let mut state = vec![0u8; n]; // 0 white, 1 grey, 2 black
        let mut parent = vec![usize::MAX; n];
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
        Relation::identity_on(set).compose(self)
    }

    /// Restricts the relation to pairs whose target is in `set`
    /// (`r ; [set]`).
    pub fn restrict_range(&self, set: &ElemSet) -> Relation {
        self.compose(&Relation::identity_on(set))
    }

    /// Restricts to pairs with both endpoints in `set`.
    pub fn restrict(&self, set: &ElemSet) -> Relation {
        self.restrict_domain(set).restrict_range(set)
    }

    /// Removes every pair incident on `elem` (used when deleting an event
    /// during execution weakening, §4.2(i)).
    pub fn without_elem(&self, elem: usize) -> Relation {
        let mut out = self.clone();
        for x in 0..self.universe {
            out.remove(elem, x);
            out.remove(x, elem);
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

    fn zip_with(&self, other: &Relation, f: impl Fn(u64, u64) -> u64) -> Relation {
        debug_assert_eq!(
            self.universe, other.universe,
            "relation operation across different universes"
        );
        Relation {
            universe: self.universe,
            words_per_row: self.words_per_row,
            rows: self
                .rows
                .iter()
                .zip(&other.rows)
                .map(|(&a, &b)| f(a, b))
                .collect(),
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
    b: usize,
}

impl Iterator for Pairs<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.a < self.rel.universe {
            while self.b < self.rel.universe {
                let (a, b) = (self.a, self.b);
                self.b += 1;
                if self.rel.contains(a, b) {
                    return Some((a, b));
                }
            }
            self.a += 1;
            self.b = 0;
        }
        None
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
        let n = 70;
        let mut r = Relation::new(n);
        r.insert(0, 69);
        r.insert(69, 68);
        assert!(r.transitive_closure().contains(0, 68));
        assert!(r.is_acyclic());
    }
}
