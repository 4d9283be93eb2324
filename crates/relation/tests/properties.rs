//! Property-based tests for the relation algebra.
//!
//! The harness is a small deterministic PRNG (xorshift64*) driving randomised
//! cases, so the crate stays dependency-free; every failure reports the seed
//! of the offending case, which reproduces it exactly.

use tm_relation::{ElemSet, Relation, MAX_UNIVERSE};

const N: usize = 8;
const CASES: u64 = 300;

struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn relation(&mut self) -> Relation {
        let pairs = self.below(24);
        Relation::from_pairs(N, (0..pairs).map(|_| (self.below(N), self.below(N))))
    }

    fn set(&mut self) -> ElemSet {
        let members = self.below(N + 1);
        ElemSet::from_iter(N, (0..members).map(|_| self.below(N)))
    }

    /// A relation over the widest universe, so that the top bit of every
    /// row is exercised.
    fn wide_relation(&mut self) -> Relation {
        let n = MAX_UNIVERSE;
        let pairs = self.below(40);
        Relation::from_pairs(n, (0..pairs).map(|_| (self.below(n), self.below(n))))
    }
}

/// Runs `body` on `CASES` seeded random cases, reporting the seed on failure.
fn for_cases(body: impl Fn(&mut Gen)) {
    for seed in 1..=CASES {
        let mut gen = Gen::new(seed);
        body(&mut gen);
    }
}

macro_rules! check {
    ($seed:expr, $cond:expr) => {{
        assert!(
            $cond,
            "property failed for seed {} ({})",
            $seed,
            stringify!($cond)
        );
    }};
}

#[test]
fn union_and_intersection_are_commutative() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b) = (g.relation(), g.relation());
        check!(seed, a.union(&b) == b.union(&a));
        check!(seed, a.intersection(&b) == b.intersection(&a));
    });
}

#[test]
fn union_is_associative() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b, c) = (g.relation(), g.relation(), g.relation());
        check!(seed, a.union(&b).union(&c) == a.union(&b.union(&c)));
    });
}

#[test]
fn composition_is_associative() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b, c) = (g.relation(), g.relation(), g.relation());
        check!(seed, a.compose(&b).compose(&c) == a.compose(&b.compose(&c)));
    });
}

#[test]
fn identity_is_composition_unit() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        let id = Relation::identity(N);
        check!(seed, a.compose(&id) == a);
        check!(seed, id.compose(&a) == a);
    });
}

#[test]
fn inverse_is_involutive_and_antidistributes() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b) = (g.relation(), g.relation());
        check!(seed, a.inverse().inverse() == a);
        // (a ; b)⁻¹ = b⁻¹ ; a⁻¹
        check!(
            seed,
            a.compose(&b).inverse() == b.inverse().compose(&a.inverse())
        );
    });
}

#[test]
fn transitive_closure_is_transitive_and_contains() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        let plus = a.transitive_closure();
        check!(seed, a.is_subset_of(&plus));
        check!(seed, plus.compose(&plus).is_subset_of(&plus));
        check!(seed, plus.transitive_closure() == plus);
    });
}

#[test]
fn rtc_contains_identity() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        let star = a.reflexive_transitive_closure();
        check!(seed, Relation::identity(N).is_subset_of(&star));
        check!(seed, a.is_subset_of(&star));
    });
}

#[test]
fn acyclic_iff_closure_irreflexive() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        check!(
            seed,
            a.is_acyclic() == a.transitive_closure().is_irreflexive()
        );
    });
}

#[test]
fn find_cycle_agrees_with_is_acyclic() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        match a.find_cycle() {
            None => check!(seed, a.is_acyclic()),
            Some(cycle) => {
                check!(seed, !a.is_acyclic());
                check!(seed, !cycle.is_empty());
                for w in cycle.windows(2) {
                    check!(seed, a.contains(w[0], w[1]));
                }
                check!(seed, a.contains(*cycle.last().unwrap(), cycle[0]));
            }
        }
    });
}

#[test]
fn de_morgan_and_difference_laws() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b) = (g.relation(), g.relation());
        check!(
            seed,
            a.union(&b).complement() == a.complement().intersection(&b.complement())
        );
        check!(seed, a.difference(&b) == a.intersection(&b.complement()));
    });
}

#[test]
fn restriction_via_identity_lift() {
    for_cases(|g| {
        let seed = g.0;
        let (a, s) = (g.relation(), g.set());
        // [S] ; r ; [S] == restrict(r, S)
        let id = Relation::identity_on(&s);
        check!(seed, id.compose(&a).compose(&id) == a.restrict(&s));
    });
}

#[test]
fn domain_range_consistent_with_pairs() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        for (x, y) in a.iter() {
            check!(seed, a.domain().contains(x));
            check!(seed, a.range().contains(y));
        }
        check!(seed, a.domain().is_empty() == a.is_empty());
    });
}

#[test]
fn without_elem_removes_all_incident() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        let e = g.below(N);
        let out = a.without_elem(e);
        for (x, y) in out.iter() {
            check!(seed, x != e && y != e);
        }
        check!(seed, out.is_subset_of(&a));
    });
}

#[test]
fn set_algebra_laws() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b) = (g.set(), g.set());
        check!(
            seed,
            a.union(&b).len() == a.len() + b.len() - a.intersection(&b).len()
        );
        check!(seed, a.intersection(&b).is_subset_of(&a));
        check!(seed, a.is_subset_of(&a.union(&b)));
        check!(seed, a.difference(&b).is_disjoint_from(&b));
    });
}

// ---- fast kernels agree with their naive oracles ------------------------

#[test]
fn compose_into_agrees_with_naive_compose() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b) = (g.relation(), g.relation());
        let naive = a.compose_naive(&b);
        check!(seed, a.compose(&b) == naive);
        let mut out = Relation::new(N);
        a.compose_into(&b, &mut out);
        check!(seed, out == naive);
        // A dirty scratch relation must be cleared, not accumulated into.
        let mut dirty = Relation::from_pairs(N, [(0, 0), (3, 4)]);
        a.compose_into(&b, &mut dirty);
        check!(seed, dirty == naive);
    });
}

#[test]
fn fast_closure_agrees_with_fixpoint_closure() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.relation();
        let naive = a.transitive_closure_naive();
        check!(seed, a.transitive_closure() == naive);
        let mut in_place = a.clone();
        in_place.transitive_closure_in_place();
        check!(seed, in_place == naive);
    });
}

#[test]
fn fast_kernels_agree_on_multi_word_universes() {
    for_cases(|g| {
        let seed = g.0;
        let a = g.wide_relation();
        let b = g.wide_relation();
        let n = MAX_UNIVERSE;
        check!(seed, a.compose(&b) == a.compose_naive(&b));
        let plus = a.transitive_closure_naive();
        check!(seed, a.transitive_closure() == plus);
        check!(seed, a.is_acyclic() == plus.is_irreflexive());
        match a.find_cycle() {
            None => check!(seed, a.is_acyclic()),
            Some(cycle) => {
                check!(seed, !a.is_acyclic());
                for w in cycle.windows(2) {
                    check!(seed, a.contains(w[0], w[1]));
                }
                check!(seed, a.contains(*cycle.last().unwrap(), cycle[0]));
            }
        }
        let c = a.complement();
        check!(seed, c.len() == n * n - a.len());
        check!(
            seed,
            (0..n).all(|x| (0..n).all(|y| a.contains(x, y) != c.contains(x, y)))
        );
        let inv = a.inverse();
        check!(seed, inv.len() == a.len());
        check!(seed, a.iter().all(|(x, y)| inv.contains(y, x)));
    });
}

#[test]
fn in_place_boolean_ops_agree_with_allocating_ops() {
    for_cases(|g| {
        let seed = g.0;
        let (a, b) = (g.relation(), g.relation());
        let mut u = a.clone();
        u.union_in_place(&b);
        check!(seed, u == a.union(&b));
        let mut i = a.clone();
        i.intersect_in_place(&b);
        check!(seed, i == a.intersection(&b));
        let mut d = a.clone();
        d.difference_in_place(&b);
        check!(seed, d == a.difference(&b));
        let mut c = a.clone();
        c.clear();
        check!(seed, c.is_empty());
    });
}
