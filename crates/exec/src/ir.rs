//! A declarative relational-algebra IR for memory-model axioms.
//!
//! The paper defines every model — SC/TSC, x86 ± TM, Power ± TM, ARMv8 ± TM
//! and C++ ± TM — as a handful of axioms (`acyclic`/`irreflexive`/`empty`
//! heads) over derived relations built from a small operator vocabulary:
//! composition `;`, union `∪`, intersection `∩`, difference `\`, inverse
//! `r⁻¹`, the closures `r?`/`r⁺`/`r*`, identity restrictions `[S]`, and the
//! transaction lifts `weaklift`/`stronglift`. This module makes that
//! vocabulary first-class:
//!
//! * [`RelExpr`] nodes (and [`SetExpr`] nodes for event sets) are interned
//!   into an [`IrPool`] with hash-consing, so a subexpression written twice —
//!   inside one axiom, across two axioms, or across two *models* — is one
//!   node with one identity;
//! * an [`IrEval`] evaluates interned expressions against an [`ExecView`],
//!   memoizing each node's value per execution. Because identical
//!   subexpressions share a node, common-subexpression elimination falls out
//!   of the representation: the shared node is computed once no matter how
//!   many axioms of how many models mention it. This generalises the four
//!   hand-picked memoized axiom bodies the view used to carry;
//! * an [`Axiom`] pairs a body with an [`AxiomHead`] and a syntactic cost
//!   estimate, so a consistency sweep can check cheapest axioms first and
//!   stop at the first violation;
//! * [`rel_polarity`] computes the syntactic polarity of a base relation
//!   inside an expression, which the metatheory uses to *derive* §8.1
//!   monotonicity from axiom structure (see [`txn_polarity`]).
//!
//! The pool is deliberately independent of any concrete model: `tm-models`
//! builds one shared catalog for the paper's models, and user-defined models
//! can build their own pools with the same constructors.
//!
//! # Examples
//!
//! ```
//! use tm_exec::ir::{AxiomHead, IrEval, IrPool, RelBase};
//! use tm_exec::{catalog, ExecView};
//!
//! let mut pool = IrPool::new();
//! let po = pool.base(RelBase::Po);
//! let com = pool.base(RelBase::Com);
//! let hb = pool.union(po, com);
//! // Writing the union again yields the same node: hash-consing.
//! assert_eq!(hb, pool.union(com, po));
//! let order = pool.axiom("Order", AxiomHead::Acyclic, hb);
//!
//! let exec = catalog::sb();
//! let view = ExecView::new(&exec);
//! let eval = IrEval::new(&pool, &view);
//! // Store buffering has a po ∪ com cycle: the SC Order axiom fails.
//! assert!(!eval.holds(&order));
//! assert!(eval.witness(&order).is_some());
//! ```

use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use tm_relation::{ElemSet, Relation};

use crate::{ExecView, Execution, Fence};

pub mod analysis;

/// Base event sets an [`ExecView`] can provide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetBase {
    /// The set `R` of read events.
    Reads,
    /// The set `W` of write events.
    Writes,
    /// The set `F` of fence events (any kind).
    Fences,
    /// The set `Acq` of acquire events.
    Acquires,
    /// The set `Rel` of release events.
    Releases,
    /// The set `SC` of seq_cst events.
    ScEvents,
    /// The set `Ato` of C++ atomic events.
    Atomics,
    /// Fence events of exactly one kind.
    FencesOf(Fence),
    /// Sources of the `rmw` pairing (the reads of RMWs).
    RmwDomain,
    /// Targets of the `rmw` pairing (the writes of RMWs).
    RmwRange,
}

/// Base (primitive or view-derived) relations an [`ExecView`] can provide.
///
/// Everything here is either stored on the [`Execution`] or memoized on the
/// view, so a base node costs one lookup however often it is mentioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelBase {
    /// Program order.
    Po,
    /// Reads-from.
    Rf,
    /// Coherence.
    Co,
    /// Address dependencies.
    Addr,
    /// Data dependencies.
    Data,
    /// Control dependencies.
    Ctrl,
    /// Read-modify-write pairing.
    Rmw,
    /// Same-successful-transaction.
    Stxn,
    /// Same-successful-atomic-transaction.
    Stxnat,
    /// Same-critical-region.
    Scr,
    /// Same-location pairs.
    Sloc,
    /// Program order restricted to same-location accesses.
    Poloc,
    /// Program order between different locations.
    PoDiffLoc,
    /// From-read.
    Fr,
    /// External reads-from.
    Rfe,
    /// Internal reads-from.
    Rfi,
    /// External coherence.
    Coe,
    /// External from-read.
    Fre,
    /// Communication `rf ∪ co ∪ fr`.
    Com,
    /// External communication.
    Come,
    /// Extended communication `com ∪ (co ; rf)`.
    Ecom,
    /// The C++ conflict relation.
    Cnf,
    /// Implicit transaction-boundary fences.
    Tfence,
    /// The per-architecture fence relation `po ; [F_kind] ; po`.
    FenceRel(Fence),
}

/// An interned set expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetExpr {
    /// A base set provided by the view.
    Base(SetBase),
    /// Set union.
    Union(SetId, SetId),
    /// Set intersection.
    Inter(SetId, SetId),
}

/// An interned relation expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelExpr {
    /// A base relation provided by the view.
    Base(RelBase),
    /// The identity relation `[S]` on a set.
    IdOn(SetId),
    /// The cartesian product `A × B` of two sets.
    Cross(SetId, SetId),
    /// Relational composition `a ; b`.
    Seq(RelId, RelId),
    /// Union `a ∪ b`.
    Union(RelId, RelId),
    /// Intersection `a ∩ b`.
    Inter(RelId, RelId),
    /// Difference `a \ b`.
    Diff(RelId, RelId),
    /// Inverse `a⁻¹`.
    Inverse(RelId),
    /// Reflexive closure `a?`.
    Opt(RelId),
    /// Transitive closure `a⁺`.
    Plus(RelId),
    /// Reflexive-transitive closure `a*`.
    Star(RelId),
    /// `weaklift(a, t) = t ; (a \ t) ; t` (§3.3).
    WeakLift(RelId, RelId),
    /// `stronglift(a, t) = t? ; (a \ t) ; t?` (§3.3).
    StrongLift(RelId, RelId),
    /// A recursion variable bound by a [`RelExpr::Fix`] group. The index is
    /// pool-unique (see [`IrPool::fresh_var`]), so a `Var` node is never
    /// shared across groups. Evaluating a free `Var` outside its group
    /// panics: the elaborator only ever nests one under its `Fix`.
    Var(u32),
    /// Component `i` of mutual fixpoint group `g`: the least solution of
    /// `x₁ = body₁, …, xₙ = bodyₙ` where each `bodyᵢ` may mention the
    /// group's [`Var`](RelExpr::Var) nodes. Groups live in a side table on
    /// the pool ([`IrPool::fix_vars`]/[`IrPool::fix_bodies`]) so this node
    /// stays `Copy`. Built by [`IrPool::fix`] from positively-stratified
    /// `let rec` groups; evaluated by naive Kleene iteration.
    Fix(u32, u32),
}

/// Identity of an interned [`SetExpr`] within one [`IrPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(u32);

/// Identity of an interned [`RelExpr`] within one [`IrPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(u32);

impl RelId {
    /// The dense index of this expression in its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SetId {
    /// The dense index of this expression in its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The predicate an [`Axiom`] applies to its body relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxiomHead {
    /// `acyclic(body)`.
    Acyclic,
    /// `irreflexive(body)`.
    Irreflexive,
    /// `empty(body)`.
    Empty,
}

/// One named axiom of a memory model: a head predicate over an interned
/// body, plus a syntactic cost estimate used to order early-exit checks.
///
/// Names are [`Cow`](std::borrow::Cow) so the built-in catalog pays nothing
/// (string literals) while runtime-loaded models — e.g. those parsed from
/// `.cat` source by the `tm-cat` crate — carry names owned by the axiom.
#[derive(Clone, Debug)]
pub struct Axiom {
    /// The axiom's name as it appears in verdicts (e.g. `"Order"`).
    pub name: std::borrow::Cow<'static, str>,
    /// The predicate applied to the body.
    pub head: AxiomHead,
    /// The interned body relation.
    pub body: RelId,
    /// Estimated evaluation cost (arbitrary units; larger = slower). Used to
    /// check cheap axioms first when only a boolean verdict is needed.
    pub cost: u32,
}

/// One mutual fixpoint group: the bound recursion variables and the bodies
/// they solve, in component order.
#[derive(Debug)]
struct FixGroup {
    vars: Box<[u32]>,
    bodies: Box<[RelId]>,
}

static POOL_STAMPS: AtomicU64 = AtomicU64::new(1);

/// A hash-consing arena of [`RelExpr`]/[`SetExpr`] nodes.
///
/// Interning the same structural expression twice returns the same id, so
/// node identity doubles as a memoization key: see [`IrEval`]. Unions and
/// intersections are normalised by operand order, making them commutative at
/// the representation level (`a ∪ b` and `b ∪ a` are one node).
#[derive(Debug, Default)]
pub struct IrPool {
    stamp: u64,
    rels: Vec<RelExpr>,
    rel_costs: Vec<u32>,
    /// Sorted free recursion variables of each node (empty for almost all).
    rel_vars: Vec<Box<[u32]>>,
    rel_index: HashMap<RelExpr, RelId>,
    sets: Vec<SetExpr>,
    set_index: HashMap<SetExpr, SetId>,
    fix_groups: Vec<FixGroup>,
    next_var: u32,
}

impl IrPool {
    /// Creates an empty pool with a process-unique stamp (used to keep two
    /// pools' memo tables apart when both evaluate against one view).
    pub fn new() -> IrPool {
        IrPool {
            stamp: POOL_STAMPS.fetch_add(1, Ordering::Relaxed),
            ..IrPool::default()
        }
    }

    /// [`IrPool::new`] with room for `rels` relation and `sets` set nodes,
    /// so interning that many never regrows the tables.
    pub fn with_capacity(rels: usize, sets: usize) -> IrPool {
        IrPool {
            rels: Vec::with_capacity(rels),
            rel_costs: Vec::with_capacity(rels),
            rel_vars: Vec::with_capacity(rels),
            rel_index: HashMap::with_capacity(rels),
            sets: Vec::with_capacity(sets),
            set_index: HashMap::with_capacity(sets),
            ..IrPool::new()
        }
    }

    /// The process-unique identity of this pool.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Number of interned relation expressions.
    pub fn rel_count(&self) -> usize {
        self.rels.len()
    }

    /// Number of interned set expressions.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Every interned relation id, in ascending (topological) order.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.rels.len() as u32).map(RelId)
    }

    /// The node behind a relation id.
    pub fn rel_expr(&self, id: RelId) -> RelExpr {
        self.rels[id.index()]
    }

    /// The node behind a set id.
    pub fn set_expr(&self, id: SetId) -> SetExpr {
        self.sets[id.index()]
    }

    /// The syntactic cost estimate of a relation expression.
    pub fn rel_cost(&self, id: RelId) -> u32 {
        self.rel_costs[id.index()]
    }

    /// The sorted free recursion variables of a node (empty for every node
    /// outside an open `let rec` body).
    pub fn rel_free_vars(&self, id: RelId) -> &[u32] {
        &self.rel_vars[id.index()]
    }

    /// The number of mutual fixpoint groups registered by [`fix`](Self::fix).
    pub fn fix_group_count(&self) -> usize {
        self.fix_groups.len()
    }

    /// The interned [`RelExpr::Fix`] node of component `i` of group `g`
    /// (interned by [`fix`](Self::fix), so the lookup always succeeds).
    pub fn fix_component(&self, g: u32, i: u32) -> RelId {
        self.rel_index[&RelExpr::Fix(g, i)]
    }

    /// The bound variable indices of fixpoint group `g`.
    pub fn fix_vars(&self, g: u32) -> &[u32] {
        &self.fix_groups[g as usize].vars
    }

    /// The component bodies of fixpoint group `g`.
    pub fn fix_bodies(&self, g: u32) -> &[RelId] {
        &self.fix_groups[g as usize].bodies
    }

    fn intern_set(&mut self, node: SetExpr) -> SetId {
        if let Some(&id) = self.set_index.get(&node) {
            return id;
        }
        let id = SetId(self.sets.len() as u32);
        self.sets.push(node);
        self.set_index.insert(node, id);
        id
    }

    fn intern_rel(&mut self, node: RelExpr) -> RelId {
        if let Some(&id) = self.rel_index.get(&node) {
            return id;
        }
        let cost = self.cost_of(node);
        let vars = self.vars_of(node);
        let id = RelId(self.rels.len() as u32);
        self.rels.push(node);
        self.rel_costs.push(cost);
        self.rel_vars.push(vars);
        self.rel_index.insert(node, id);
        id
    }

    /// The sorted free recursion variables of a node about to be interned
    /// (children are already interned, so their lists are available).
    fn vars_of(&self, node: RelExpr) -> Box<[u32]> {
        let of = |id: RelId| self.rel_vars[id.index()].iter().copied();
        let mut out: Vec<u32> = match node {
            RelExpr::Base(_) | RelExpr::IdOn(_) | RelExpr::Cross(_, _) => return Box::new([]),
            RelExpr::Var(v) => vec![v],
            RelExpr::Seq(a, b)
            | RelExpr::Union(a, b)
            | RelExpr::Inter(a, b)
            | RelExpr::Diff(a, b)
            | RelExpr::WeakLift(a, b)
            | RelExpr::StrongLift(a, b) => of(a).chain(of(b)).collect(),
            RelExpr::Inverse(a) | RelExpr::Opt(a) | RelExpr::Plus(a) | RelExpr::Star(a) => {
                of(a).collect()
            }
            // A Fix node closes over its group's variables.
            RelExpr::Fix(g, _) => {
                let group = &self.fix_groups[g as usize];
                group
                    .bodies
                    .iter()
                    .flat_map(|&b| of(b))
                    .filter(|v| !group.vars.contains(v))
                    .collect()
            }
        };
        out.sort_unstable();
        out.dedup();
        out.into_boxed_slice()
    }

    /// Cost heuristic: base lookups are nearly free (memoized on the view),
    /// boolean combinations are linear in the bit matrix, compositions cost
    /// more, closures and lifts the most.
    fn cost_of(&self, node: RelExpr) -> u32 {
        let c = |id: RelId| self.rel_costs[id.index()];
        match node {
            RelExpr::Base(_) => 1,
            RelExpr::IdOn(_) | RelExpr::Cross(_, _) => 2,
            RelExpr::Union(a, b) | RelExpr::Inter(a, b) | RelExpr::Diff(a, b) => c(a) + c(b) + 1,
            RelExpr::Seq(a, b) => c(a) + c(b) + 4,
            RelExpr::Inverse(a) => c(a) + 2,
            RelExpr::Opt(a) => c(a) + 1,
            RelExpr::Plus(a) | RelExpr::Star(a) => c(a) + 12,
            RelExpr::WeakLift(a, t) | RelExpr::StrongLift(a, t) => c(a) + c(t) + 10,
            RelExpr::Var(_) => 1,
            // Kleene iteration re-evaluates every body of the group until
            // stable: comfortably the priciest operator.
            RelExpr::Fix(g, _) => {
                let group = &self.fix_groups[g as usize];
                group.bodies.iter().map(|&b| c(b)).sum::<u32>() + 16
            }
        }
    }

    // ---- set constructors -------------------------------------------------

    /// Interns a base set.
    pub fn set_base(&mut self, base: SetBase) -> SetId {
        self.intern_set(SetExpr::Base(base))
    }

    /// Interns a set union (normalised: commutative).
    pub fn set_union(&mut self, a: SetId, b: SetId) -> SetId {
        if a == b {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern_set(SetExpr::Union(a, b))
    }

    /// Interns a set intersection (normalised: commutative).
    pub fn set_inter(&mut self, a: SetId, b: SetId) -> SetId {
        if a == b {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern_set(SetExpr::Inter(a, b))
    }

    // ---- relation constructors --------------------------------------------

    /// Interns a base relation.
    pub fn base(&mut self, base: RelBase) -> RelId {
        self.intern_rel(RelExpr::Base(base))
    }

    /// Interns the identity `[S]` on a set.
    pub fn id_on(&mut self, set: SetId) -> RelId {
        self.intern_rel(RelExpr::IdOn(set))
    }

    /// Interns the cartesian product of two sets.
    pub fn cross(&mut self, a: SetId, b: SetId) -> RelId {
        self.intern_rel(RelExpr::Cross(a, b))
    }

    /// Interns a composition `a ; b`.
    pub fn seq(&mut self, a: RelId, b: RelId) -> RelId {
        self.intern_rel(RelExpr::Seq(a, b))
    }

    /// Interns the composition of a whole chain, left to right.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is empty.
    pub fn seq_all(&mut self, chain: &[RelId]) -> RelId {
        let (&first, rest) = chain.split_first().expect("seq_all of an empty chain");
        rest.iter().fold(first, |acc, &next| self.seq(acc, next))
    }

    /// Interns a union (normalised: commutative, idempotent).
    pub fn union(&mut self, a: RelId, b: RelId) -> RelId {
        if a == b {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern_rel(RelExpr::Union(a, b))
    }

    /// Interns the union of a whole list of relations.
    ///
    /// Operands are sorted first so that any two unions of the same parts —
    /// however they were written — intern to the same node tree.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn union_all(&mut self, parts: &[RelId]) -> RelId {
        let mut sorted = parts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let (&first, rest) = sorted.split_first().expect("union_all of an empty list");
        rest.iter().fold(first, |acc, &next| self.union(acc, next))
    }

    /// Interns an intersection (normalised: commutative, idempotent).
    pub fn inter(&mut self, a: RelId, b: RelId) -> RelId {
        if a == b {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern_rel(RelExpr::Inter(a, b))
    }

    /// Interns a difference `a \ b`.
    pub fn diff(&mut self, a: RelId, b: RelId) -> RelId {
        self.intern_rel(RelExpr::Diff(a, b))
    }

    /// Interns an inverse `a⁻¹`.
    pub fn inverse(&mut self, a: RelId) -> RelId {
        self.intern_rel(RelExpr::Inverse(a))
    }

    /// Interns a reflexive closure `a?`.
    pub fn opt(&mut self, a: RelId) -> RelId {
        self.intern_rel(RelExpr::Opt(a))
    }

    /// Interns a transitive closure `a⁺`.
    pub fn plus(&mut self, a: RelId) -> RelId {
        self.intern_rel(RelExpr::Plus(a))
    }

    /// Interns a reflexive-transitive closure `a*`.
    pub fn star(&mut self, a: RelId) -> RelId {
        self.intern_rel(RelExpr::Star(a))
    }

    /// Interns `weaklift(a, t)`.
    pub fn weaklift(&mut self, a: RelId, t: RelId) -> RelId {
        self.intern_rel(RelExpr::WeakLift(a, t))
    }

    /// Interns `stronglift(a, t)`.
    pub fn stronglift(&mut self, a: RelId, t: RelId) -> RelId {
        self.intern_rel(RelExpr::StrongLift(a, t))
    }

    /// Interns a fresh recursion variable. The index is unique within the
    /// pool, so two `let rec` groups never alias each other's variables.
    pub fn fresh_var(&mut self) -> RelId {
        let v = self.next_var;
        self.next_var += 1;
        self.intern_rel(RelExpr::Var(v))
    }

    /// Closes a mutual fixpoint group: `vars[i]` (each a
    /// [`fresh_var`](IrPool::fresh_var) node) is bound to the least solution
    /// of `bodies[i]`, and the returned ids — one per component — denote
    /// those solutions. Callers must ensure every body is *positive* in
    /// every bound variable (see [`var_polarity`]); Kleene iteration from
    /// the empty relations then converges to the least fixpoint.
    ///
    /// # Panics
    ///
    /// Panics if `vars` and `bodies` differ in length, are empty, or if a
    /// `vars` element is not a [`RelExpr::Var`] node.
    pub fn fix(&mut self, vars: &[RelId], bodies: &[RelId]) -> Vec<RelId> {
        assert_eq!(vars.len(), bodies.len(), "one body per bound variable");
        assert!(!vars.is_empty(), "fix of an empty group");
        let indices: Box<[u32]> = vars
            .iter()
            .map(|&v| match self.rel_expr(v) {
                RelExpr::Var(i) => i,
                other => panic!("fix binder must be a Var node, got {other:?}"),
            })
            .collect();
        // Register the group first so cost/free-var computation for the new
        // Fix nodes can see the bodies.
        let g = self.fix_groups.len() as u32;
        self.fix_groups.push(FixGroup {
            vars: indices,
            bodies: bodies.into(),
        });
        (0..vars.len() as u32)
            .map(|i| self.intern_rel(RelExpr::Fix(g, i)))
            .collect()
    }

    /// Builds an [`Axiom`] over an interned body, computing its cost. The
    /// name may be a `&'static str` (free) or an owned `String` (runtime
    /// models loaded from text).
    pub fn axiom(
        &mut self,
        name: impl Into<std::borrow::Cow<'static, str>>,
        head: AxiomHead,
        body: RelId,
    ) -> Axiom {
        let head_cost = match head {
            AxiomHead::Acyclic => 3,
            AxiomHead::Irreflexive | AxiomHead::Empty => 1,
        };
        Axiom {
            name: name.into(),
            head,
            body,
            cost: self.rel_cost(body) + head_cost,
        }
    }
}

/// Per-execution memo table for one pool's expressions, hosted on an
/// [`ExecView`] so that every axiom of every model checking that execution
/// shares it.
#[derive(Debug)]
pub struct IrMemo {
    stamp: u64,
    rels: Box<[OnceCell<Relation>]>,
    sets: Box<[OnceCell<ElemSet>]>,
}

impl IrMemo {
    pub(crate) fn new(stamp: u64, rel_count: usize, set_count: usize) -> IrMemo {
        IrMemo {
            stamp,
            rels: (0..rel_count).map(|_| OnceCell::new()).collect(),
            sets: (0..set_count).map(|_| OnceCell::new()).collect(),
        }
    }

    pub(crate) fn fits(&self, stamp: u64, rel_count: usize, set_count: usize) -> bool {
        self.stamp == stamp && self.rels.len() >= rel_count && self.sets.len() >= set_count
    }
}

enum Slots<'a> {
    /// The view's per-execution memo: shared with every other evaluator of
    /// the same pool on the same view (cross-axiom and cross-model CSE).
    Shared(&'a IrMemo),
    /// A private memo: used on uncached views (which promise to recompute)
    /// and when a different pool already claimed the view's memo.
    Local(IrMemo),
}

/// An evaluator of interned expressions against one [`ExecView`].
///
/// Each node's value is computed at most once per execution (see [`IrMemo`]);
/// base nodes delegate to the view's own memoized getters. The evaluator is
/// cheap to construct, so model checks build one per check call and still
/// share all node values through the view.
pub struct IrEval<'a> {
    pool: &'a IrPool,
    view: &'a ExecView<'a>,
    slots: Slots<'a>,
}

impl<'a> IrEval<'a> {
    /// Creates an evaluator for `pool` over `view`.
    pub fn new(pool: &'a IrPool, view: &'a ExecView<'a>) -> IrEval<'a> {
        let slots = match view.ir_memo(pool.stamp(), pool.rel_count(), pool.set_count()) {
            Some(memo) => Slots::Shared(memo),
            None => Slots::Local(IrMemo::new(
                pool.stamp(),
                pool.rel_count(),
                pool.set_count(),
            )),
        };
        IrEval { pool, view, slots }
    }

    /// The view this evaluator reads base relations from.
    pub fn view(&self) -> &'a ExecView<'a> {
        self.view
    }

    fn rel_slot(&self, id: RelId) -> &OnceCell<Relation> {
        match &self.slots {
            Slots::Shared(memo) => &memo.rels[id.index()],
            Slots::Local(memo) => &memo.rels[id.index()],
        }
    }

    fn set_slot(&self, id: SetId) -> &OnceCell<ElemSet> {
        match &self.slots {
            Slots::Shared(memo) => &memo.sets[id.index()],
            Slots::Local(memo) => &memo.sets[id.index()],
        }
    }

    /// The value of a set expression.
    pub fn set(&self, id: SetId) -> std::borrow::Cow<'_, ElemSet> {
        use std::borrow::Cow;
        match self.pool.set_expr(id) {
            SetExpr::Base(base) => match base {
                SetBase::Reads => self.view.reads(),
                SetBase::Writes => self.view.writes(),
                SetBase::Fences => self.view.fences(),
                SetBase::Acquires => self.view.acquires(),
                SetBase::Releases => self.view.releases(),
                SetBase::ScEvents => self.view.sc_events(),
                SetBase::Atomics => self.view.atomics(),
                SetBase::FencesOf(kind) => self.view.fences_of(kind),
                SetBase::RmwDomain => Cow::Borrowed(
                    self.set_slot(id)
                        .get_or_init(|| self.view.exec().rmw.domain()),
                ),
                SetBase::RmwRange => Cow::Borrowed(
                    self.set_slot(id)
                        .get_or_init(|| self.view.exec().rmw.range()),
                ),
            },
            _ => Cow::Borrowed(self.set_slot(id).get_or_init(|| self.compute_set(id))),
        }
    }

    fn compute_set(&self, id: SetId) -> ElemSet {
        match self.pool.set_expr(id) {
            SetExpr::Base(_) => unreachable!("base sets are served by the view"),
            SetExpr::Union(a, b) => self.set(a).union(&self.set(b)),
            SetExpr::Inter(a, b) => self.set(a).intersection(&self.set(b)),
        }
    }

    /// The value of a relation expression.
    pub fn rel(&self, id: RelId) -> std::borrow::Cow<'_, Relation> {
        use std::borrow::Cow;
        match self.pool.rel_expr(id) {
            RelExpr::Base(base) => self.base_rel(base),
            _ => Cow::Borrowed(self.rel_slot(id).get_or_init(|| self.compute_rel(id))),
        }
    }

    fn base_rel(&self, base: RelBase) -> std::borrow::Cow<'_, Relation> {
        use std::borrow::Cow;
        let exec = self.view.exec();
        match base {
            RelBase::Po => Cow::Borrowed(self.view.po()),
            RelBase::Rf => Cow::Borrowed(self.view.rf()),
            RelBase::Co => Cow::Borrowed(self.view.co()),
            RelBase::Addr => Cow::Borrowed(&exec.addr),
            RelBase::Data => Cow::Borrowed(&exec.data),
            RelBase::Ctrl => Cow::Borrowed(&exec.ctrl),
            RelBase::Rmw => Cow::Borrowed(&exec.rmw),
            RelBase::Stxn => Cow::Borrowed(&exec.stxn),
            RelBase::Stxnat => Cow::Borrowed(&exec.stxnat),
            RelBase::Scr => Cow::Borrowed(&exec.scr),
            RelBase::Sloc => self.view.sloc(),
            RelBase::Poloc => self.view.poloc(),
            RelBase::PoDiffLoc => self.view.po_diff_loc(),
            RelBase::Fr => self.view.fr(),
            RelBase::Rfe => self.view.rfe(),
            RelBase::Rfi => self.view.rfi(),
            RelBase::Coe => self.view.coe(),
            RelBase::Fre => self.view.fre(),
            RelBase::Com => self.view.com(),
            RelBase::Come => self.view.come(),
            RelBase::Ecom => self.view.ecom(),
            RelBase::Cnf => self.view.cnf(),
            RelBase::Tfence => self.view.tfence(),
            RelBase::FenceRel(kind) => self.view.fence_rel(kind),
        }
    }

    fn compute_rel(&self, id: RelId) -> Relation {
        match self.pool.rel_expr(id) {
            RelExpr::Base(_) => unreachable!("base relations are served by the view"),
            RelExpr::IdOn(s) => Relation::identity_on(&self.set(s)),
            RelExpr::Cross(a, b) => Relation::cross(&self.set(a), &self.set(b)),
            RelExpr::Seq(a, b) => self.rel(a).compose(&self.rel(b)),
            RelExpr::Union(a, b) => {
                let mut out = self.rel(a).into_owned();
                out.union_in_place(&self.rel(b));
                out
            }
            RelExpr::Inter(a, b) => {
                let mut out = self.rel(a).into_owned();
                out.intersect_in_place(&self.rel(b));
                out
            }
            RelExpr::Diff(a, b) => {
                let mut out = self.rel(a).into_owned();
                out.difference_in_place(&self.rel(b));
                out
            }
            RelExpr::Inverse(a) => self.rel(a).inverse(),
            RelExpr::Opt(a) => self.rel(a).reflexive_closure(),
            RelExpr::Plus(a) => {
                let mut out = self.rel(a).into_owned();
                out.transitive_closure_in_place();
                out
            }
            RelExpr::Star(a) => {
                let mut out = self.rel(a).into_owned();
                out.transitive_closure_in_place();
                for e in 0..out.universe() {
                    out.insert(e, e);
                }
                out
            }
            RelExpr::WeakLift(a, t) => Execution::weaklift(&self.rel(a), &self.rel(t)),
            RelExpr::StrongLift(a, t) => Execution::stronglift(&self.rel(a), &self.rel(t)),
            RelExpr::Var(_) => {
                panic!("free recursion variable evaluated outside its fixpoint group")
            }
            RelExpr::Fix(g, i) => self.fix_rel(g, i, &HashMap::new()),
        }
    }

    /// Component `i` of fixpoint group `g` by naive Kleene iteration: every
    /// component starts at the empty relation and the bodies are re-evaluated
    /// under the growing environment until nothing changes. The universe is
    /// finite and the elaborator guarantees positivity, so the iterates
    /// ascend and converge.
    fn fix_rel(&self, g: u32, i: u32, outer: &HashMap<u32, Relation>) -> Relation {
        let vars = self.pool.fix_vars(g);
        let bodies = self.pool.fix_bodies(g);
        let n = self.view.exec().len();
        let mut env = outer.clone();
        for &v in vars {
            env.insert(v, Relation::new(n));
        }
        loop {
            let next: Vec<Relation> = bodies.iter().map(|&b| self.rel_with_env(b, &env)).collect();
            let stable = vars.iter().zip(&next).all(|(v, value)| env[v] == *value);
            for (v, value) in vars.iter().zip(next) {
                env.insert(*v, value);
            }
            if stable {
                return env.remove(&vars[i as usize]).unwrap();
            }
        }
    }

    /// Evaluates a node under an environment for its free recursion
    /// variables. Var-free subtrees fall back to the memoized [`rel`] path,
    /// so only the spine actually touching the variables is re-evaluated
    /// per Kleene round.
    fn rel_with_env(&self, id: RelId, env: &HashMap<u32, Relation>) -> Relation {
        if self.pool.rel_free_vars(id).is_empty() {
            return self.rel(id).into_owned();
        }
        let r = |x: RelId| self.rel_with_env(x, env);
        match self.pool.rel_expr(id) {
            RelExpr::Var(v) => env
                .get(&v)
                .expect("free recursion variable outside its fixpoint group")
                .clone(),
            RelExpr::Fix(g, i) => self.fix_rel(g, i, env),
            RelExpr::Base(_) | RelExpr::IdOn(_) | RelExpr::Cross(_, _) => {
                unreachable!("leaf nodes have no free variables")
            }
            RelExpr::Seq(a, b) => r(a).compose(&r(b)),
            RelExpr::Union(a, b) => {
                let mut out = r(a);
                out.union_in_place(&r(b));
                out
            }
            RelExpr::Inter(a, b) => {
                let mut out = r(a);
                out.intersect_in_place(&r(b));
                out
            }
            RelExpr::Diff(a, b) => {
                let mut out = r(a);
                out.difference_in_place(&r(b));
                out
            }
            RelExpr::Inverse(a) => r(a).inverse(),
            RelExpr::Opt(a) => r(a).reflexive_closure(),
            RelExpr::Plus(a) => {
                let mut out = r(a);
                out.transitive_closure_in_place();
                out
            }
            RelExpr::Star(a) => {
                let mut out = r(a);
                out.transitive_closure_in_place();
                for e in 0..out.universe() {
                    out.insert(e, e);
                }
                out
            }
            RelExpr::WeakLift(a, t) => Execution::weaklift(&r(a), &r(t)),
            RelExpr::StrongLift(a, t) => Execution::stronglift(&r(a), &r(t)),
        }
    }

    /// True if the axiom holds on this execution. Does not extract a witness,
    /// so this is the fast path for early-exit sweeps.
    pub fn holds(&self, axiom: &Axiom) -> bool {
        let body = self.rel(axiom.body);
        match axiom.head {
            AxiomHead::Acyclic => body.is_acyclic(),
            AxiomHead::Irreflexive => body.is_irreflexive(),
            AxiomHead::Empty => body.is_empty(),
        }
    }

    /// A witness of the axiom's violation (`None` if it holds): a cycle for
    /// `acyclic`, a fixed point for `irreflexive`, the first pair for
    /// `empty` — matching what the hand-written checks used to report.
    pub fn witness(&self, axiom: &Axiom) -> Option<Vec<usize>> {
        let body = self.rel(axiom.body);
        match axiom.head {
            AxiomHead::Acyclic => body.find_cycle(),
            AxiomHead::Irreflexive => (0..body.universe())
                .find(|&a| body.contains(a, a))
                .map(|a| vec![a]),
            AxiomHead::Empty => body.iter().next().map(|(a, b)| vec![a, b]),
        }
    }
}

// ---- polarity analysis ----------------------------------------------------

/// The syntactic polarity of a base relation's occurrences in an expression.
///
/// If growing the base relation can only grow the expression's value the
/// polarity is [`Positive`](Polarity::Positive); if it can only shrink it,
/// [`Negative`](Polarity::Negative); occurrences under both signs are
/// [`Mixed`](Polarity::Mixed), and no occurrence at all is
/// [`Constant`](Polarity::Constant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Polarity {
    /// The expression does not depend on the base relation.
    Constant,
    /// Monotonically non-decreasing in the base relation.
    Positive,
    /// Monotonically non-increasing in the base relation.
    Negative,
    /// Occurs under both signs; no monotonicity conclusion is possible.
    Mixed,
}

impl Polarity {
    /// Least upper bound in the lattice `Constant < {Positive, Negative} < Mixed`.
    pub fn join(self, other: Polarity) -> Polarity {
        use Polarity::*;
        match (self, other) {
            (Constant, p) | (p, Constant) => p,
            (Positive, Positive) => Positive,
            (Negative, Negative) => Negative,
            _ => Mixed,
        }
    }

    /// Flips the sign (under a difference's right operand).
    pub fn negate(self) -> Polarity {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
            p => p,
        }
    }
}

/// The polarity of a set expression with respect to the base relations
/// classified by `of`: almost every base set is an event-kind predicate and
/// thus constant, but `RmwDomain`/`RmwRange` are derived from the `rmw`
/// relation (monotonically — growing `rmw` grows both projections), and set
/// union/intersection are monotone in each operand.
pub fn set_polarity(pool: &IrPool, id: SetId, of: &impl Fn(RelBase) -> Polarity) -> Polarity {
    match pool.set_expr(id) {
        SetExpr::Base(SetBase::RmwDomain | SetBase::RmwRange) => of(RelBase::Rmw),
        SetExpr::Base(_) => Polarity::Constant,
        SetExpr::Union(a, b) | SetExpr::Inter(a, b) => {
            set_polarity(pool, a, of).join(set_polarity(pool, b, of))
        }
    }
}

/// Computes the syntactic polarity of `id` with respect to the base
/// relations classified by `of`.
///
/// Every operator of the IR except difference is monotone in each operand,
/// so polarities join; the right operand of `\` is negated. `IdOn`/`Cross`
/// take the polarity of their sets (see [`set_polarity`] — event-kind sets
/// are constant, but the RMW projections track `rmw`).
pub fn rel_polarity(pool: &IrPool, id: RelId, of: &impl Fn(RelBase) -> Polarity) -> Polarity {
    match pool.rel_expr(id) {
        RelExpr::Base(base) => of(base),
        RelExpr::IdOn(s) => set_polarity(pool, s, of),
        RelExpr::Cross(a, b) => set_polarity(pool, a, of).join(set_polarity(pool, b, of)),
        RelExpr::Seq(a, b) | RelExpr::Union(a, b) | RelExpr::Inter(a, b) => {
            rel_polarity(pool, a, of).join(rel_polarity(pool, b, of))
        }
        RelExpr::Diff(a, b) => rel_polarity(pool, a, of).join(rel_polarity(pool, b, of).negate()),
        RelExpr::Inverse(a) | RelExpr::Opt(a) | RelExpr::Plus(a) | RelExpr::Star(a) => {
            rel_polarity(pool, a, of)
        }
        // lift(r, t) = t⟨?⟩ ; (r \ t) ; t⟨?⟩ — t occurs both positively
        // (the outer compositions) and negatively (the difference).
        RelExpr::WeakLift(a, t) | RelExpr::StrongLift(a, t) => {
            let pt = rel_polarity(pool, t, of);
            rel_polarity(pool, a, of).join(pt).join(pt.negate())
        }
        // A recursion variable carries no base relation.
        RelExpr::Var(_) => Polarity::Constant,
        // The fixpoint joins its bodies' polarities (the bound variables
        // themselves are positive by stratification, so they add nothing).
        RelExpr::Fix(g, _) => pool.fix_bodies(g).iter().fold(Polarity::Constant, |p, &b| {
            p.join(rel_polarity(pool, b, of))
        }),
    }
}

/// The syntactic polarity of recursion variable `v` in `id` — the
/// stratification check behind `let rec`: a body must be `Constant` or
/// `Positive` in every variable of its group for Kleene iteration to be
/// monotone (and the least fixpoint to exist).
pub fn var_polarity(pool: &IrPool, id: RelId, v: u32) -> Polarity {
    // A node whose free variables exclude `v` is constant in it — this also
    // covers Fix nodes that rebind `v` (impossible today: variables are
    // pool-unique, but cheap to keep correct).
    if !pool.rel_free_vars(id).contains(&v) {
        return Polarity::Constant;
    }
    match pool.rel_expr(id) {
        RelExpr::Var(w) => {
            if w == v {
                Polarity::Positive
            } else {
                Polarity::Constant
            }
        }
        RelExpr::Base(_) | RelExpr::IdOn(_) | RelExpr::Cross(_, _) => Polarity::Constant,
        RelExpr::Seq(a, b) | RelExpr::Union(a, b) | RelExpr::Inter(a, b) => {
            var_polarity(pool, a, v).join(var_polarity(pool, b, v))
        }
        RelExpr::Diff(a, b) => var_polarity(pool, a, v).join(var_polarity(pool, b, v).negate()),
        RelExpr::Inverse(a) | RelExpr::Opt(a) | RelExpr::Plus(a) | RelExpr::Star(a) => {
            var_polarity(pool, a, v)
        }
        RelExpr::WeakLift(a, t) | RelExpr::StrongLift(a, t) => {
            let pt = var_polarity(pool, t, v);
            var_polarity(pool, a, v).join(pt).join(pt.negate())
        }
        RelExpr::Fix(g, _) => pool
            .fix_bodies(g)
            .iter()
            .fold(Polarity::Constant, |p, &b| p.join(var_polarity(pool, b, v))),
    }
}

/// The polarity of `id` in the *transactional structure* of an execution:
/// `stxn`/`stxnat` count positively, and `tfence` — whose definition
/// `po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn))` mentions `stxn` under both
/// signs — counts as mixed.
///
/// If every axiom body of a model is `Constant` or `Positive` here, shrinking
/// the transactions of an execution shrinks every axiom body, so a consistent
/// execution stays consistent under every transaction reduction: §8.1
/// monotonicity holds *by construction*. `Mixed` is inconclusive (the model
/// may still be monotone, as x86 is), never wrong.
pub fn txn_polarity(pool: &IrPool, id: RelId) -> Polarity {
    rel_polarity(pool, id, &|base| match base {
        RelBase::Stxn | RelBase::Stxnat => Polarity::Positive,
        RelBase::Tfence => Polarity::Mixed,
        _ => Polarity::Constant,
    })
}

// ---- incremental evaluation ------------------------------------------------

/// A bitmask over the *mutable inputs* of an execution: the primitive
/// relations an enumerator edits between sibling candidates (`po`, `rf`,
/// `co`, the dependency relations, `rmw`, and the transaction/region
/// memberships).
///
/// Every interned expression node carries a **dependency footprint** — the
/// mask of inputs its value transitively reads — computed once per pool by
/// [`IncrementalEval::new`]. Applying a [`Delta`] then touches only the
/// nodes whose footprint intersects the delta's mask; everything else keeps
/// its cached value across sibling candidates in the enumeration tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct DeltaMask(u16);

impl DeltaMask {
    /// The empty mask: nothing changed.
    pub const NONE: DeltaMask = DeltaMask(0);
    /// Program order changed.
    pub const PO: DeltaMask = DeltaMask(1 << 0);
    /// Reads-from changed.
    pub const RF: DeltaMask = DeltaMask(1 << 1);
    /// Coherence changed.
    pub const CO: DeltaMask = DeltaMask(1 << 2);
    /// Address dependencies changed.
    pub const ADDR: DeltaMask = DeltaMask(1 << 3);
    /// Data dependencies changed.
    pub const DATA: DeltaMask = DeltaMask(1 << 4);
    /// Control dependencies changed.
    pub const CTRL: DeltaMask = DeltaMask(1 << 5);
    /// The RMW pairing changed.
    pub const RMW: DeltaMask = DeltaMask(1 << 6);
    /// Successful-transaction membership changed.
    pub const STXN: DeltaMask = DeltaMask(1 << 7);
    /// Atomic-transaction membership changed.
    pub const STXNAT: DeltaMask = DeltaMask(1 << 8);
    /// Critical-region membership changed.
    pub const SCR: DeltaMask = DeltaMask(1 << 9);
    /// Event annotations changed (the ⊏ downgrade step of §4.2 edits the
    /// acquire/release/sc/atomic flags in place, which moves events between
    /// the `Acq`/`Rel`/`SC`/`Ato` base sets).
    pub const ANNOT: DeltaMask = DeltaMask(1 << 10);
    /// Every input changed.
    pub const ALL: DeltaMask = DeltaMask((1 << 11) - 1);

    /// True if no input is in the mask.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if the two masks share an input.
    pub fn intersects(self, other: DeltaMask) -> bool {
        self.0 & other.0 != 0
    }

    /// The mutable input a *primitive* base relation reads, or `None` for
    /// the derived bases (whose footprints combine several inputs).
    pub fn of_primitive(base: RelBase) -> Option<DeltaMask> {
        match base {
            RelBase::Po => Some(DeltaMask::PO),
            RelBase::Rf => Some(DeltaMask::RF),
            RelBase::Co => Some(DeltaMask::CO),
            RelBase::Addr => Some(DeltaMask::ADDR),
            RelBase::Data => Some(DeltaMask::DATA),
            RelBase::Ctrl => Some(DeltaMask::CTRL),
            RelBase::Rmw => Some(DeltaMask::RMW),
            RelBase::Stxn => Some(DeltaMask::STXN),
            RelBase::Stxnat => Some(DeltaMask::STXNAT),
            RelBase::Scr => Some(DeltaMask::SCR),
            _ => None,
        }
    }
}

impl std::ops::BitOr for DeltaMask {
    type Output = DeltaMask;
    fn bitor(self, rhs: DeltaMask) -> DeltaMask {
        DeltaMask(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for DeltaMask {
    fn bitor_assign(&mut self, rhs: DeltaMask) {
        self.0 |= rhs.0;
    }
}

/// The footprint of a base relation, split by sign: `(positive, negative)`.
///
/// An input in the positive mask only grows the base monotonically, so its
/// pair-level delta is the base's own delta (filtered, for the derived
/// bases). An input in the negative mask (which also covers mixed
/// occurrences — e.g. `stxn` in `tfence`, or `rf`/`co` in `fr`, which this
/// crate defines by *subtracting* a growing exclusion set) means the base
/// is re-read from the execution and diffed when that input changes; the
/// exact diff then maintains every dependent node all the same.
fn base_masks(base: RelBase) -> (DeltaMask, DeltaMask) {
    use RelBase::*;
    let rfco = DeltaMask::RF | DeltaMask::CO;
    match base {
        Po | Poloc | PoDiffLoc | FenceRel(_) => (DeltaMask::PO, DeltaMask::NONE),
        Rf | Rfe | Rfi => (DeltaMask::RF, DeltaMask::NONE),
        Co | Coe => (DeltaMask::CO, DeltaMask::NONE),
        Addr => (DeltaMask::ADDR, DeltaMask::NONE),
        Data => (DeltaMask::DATA, DeltaMask::NONE),
        Ctrl => (DeltaMask::CTRL, DeltaMask::NONE),
        Rmw => (DeltaMask::RMW, DeltaMask::NONE),
        Stxn => (DeltaMask::STXN, DeltaMask::NONE),
        Stxnat => (DeltaMask::STXNAT, DeltaMask::NONE),
        Scr => (DeltaMask::SCR, DeltaMask::NONE),
        // Event-kind structure only: constant while the shape is fixed.
        Sloc | Cnf => (DeltaMask::NONE, DeltaMask::NONE),
        // fr subtracts an exclusion set that grows with rf and co, so it can
        // only *shrink* under additions; everything built on it is tainted.
        Fr | Fre => (DeltaMask::NONE, rfco),
        Com | Come | Ecom => (rfco, rfco),
        // tfence = po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn)): mixed in stxn.
        Tfence => (DeltaMask::PO | DeltaMask::STXN, DeltaMask::STXN),
    }
}

fn set_base_masks(base: SetBase) -> (DeltaMask, DeltaMask) {
    match base {
        SetBase::RmwDomain | SetBase::RmwRange => (DeltaMask::RMW, DeltaMask::NONE),
        // Annotation flags move events in and out of these sets. Annotation
        // edits carry no pair-level record, but base sets are re-read from
        // the execution and diffed, which is exact in both directions — so
        // these stay positive-only and their dependents stay on the
        // maintained path under downgrade probes.
        SetBase::Acquires | SetBase::Releases | SetBase::ScEvents | SetBase::Atomics => {
            (DeltaMask::ANNOT, DeltaMask::NONE)
        }
        _ => (DeltaMask::NONE, DeltaMask::NONE),
    }
}

/// A record of edits applied to an execution since the last
/// [`IncrementalEval::apply`], built through the `add_edge`/`remove_edge`
/// hooks as the enumerator (or a ⊏-weakening probe) mutates the execution
/// in place.
///
/// Both additions **and removals** are recorded pair by pair, so the
/// evaluator can maintain every affected node exactly — growing and
/// shrinking cached values in place — rather than invalidating by
/// footprint. A *full* delta announces a brand-new execution (every cache
/// is dropped), a *coarse* delta ([`Delta::touch`]) marks input families
/// without pair detail (affected base relations are re-read from the
/// execution and diffed), and [`Delta::touch_annots`] records in-place
/// event-annotation edits (which have no pair representation at all).
///
/// Edits must describe **true membership transitions**: record `add_edge`
/// only for pairs that were absent and `remove_edge` only for pairs that
/// were present. A pair may be edited several times in one delta (the
/// odometer walk removes and re-adds); the *net* effect is what propagates.
#[derive(Clone, Debug)]
pub struct Delta {
    mask: DeltaMask,
    additions_only: bool,
    full: bool,
    coarse: bool,
    edits: Vec<(RelBase, u32, u32, bool)>,
}

impl Default for Delta {
    fn default() -> Delta {
        Delta::new()
    }
}

impl Delta {
    /// An empty delta: nothing changed yet.
    pub fn new() -> Delta {
        Delta {
            mask: DeltaMask::NONE,
            additions_only: true,
            full: false,
            coarse: false,
            edits: Vec::new(),
        }
    }

    /// The delta that invalidates everything — used when a new execution
    /// replaces the previous one (new shape vector, new universe).
    pub fn everything() -> Delta {
        Delta {
            mask: DeltaMask::ALL,
            additions_only: false,
            full: true,
            coarse: true,
            edits: Vec::new(),
        }
    }

    /// Forgets all recorded edits (after the consumer has applied them).
    pub fn clear(&mut self) {
        self.mask = DeltaMask::NONE;
        self.additions_only = true;
        self.full = false;
        self.coarse = false;
        self.edits.clear();
    }

    /// Records the addition of pair `(a, b)` to a primitive base relation.
    ///
    /// # Panics
    ///
    /// Panics if `base` is a derived relation — only the primitives stored
    /// on the [`Execution`] can be edited directly.
    pub fn add_edge(&mut self, base: RelBase, a: usize, b: usize) {
        let mask = DeltaMask::of_primitive(base)
            .unwrap_or_else(|| panic!("{base:?} is derived, not an editable input"));
        self.mask |= mask;
        self.edits.push((base, a as u32, b as u32, true));
    }

    /// Records the removal of pair `(a, b)` from a primitive base relation.
    ///
    /// Removals are maintained exactly, like additions: counting-based
    /// deletion through joins, DRed-style rederivation through closures.
    ///
    /// # Panics
    ///
    /// Panics if `base` is a derived relation.
    pub fn remove_edge(&mut self, base: RelBase, a: usize, b: usize) {
        let mask = DeltaMask::of_primitive(base)
            .unwrap_or_else(|| panic!("{base:?} is derived, not an editable input"));
        self.mask |= mask;
        self.additions_only = false;
        self.edits.push((base, a as u32, b as u32, false));
    }

    /// Marks whole input families as changed without pair-level detail.
    /// Affected base relations are re-read from the execution and diffed
    /// against their cached values; derived nodes are then maintained from
    /// the resulting exact deltas as usual.
    pub fn touch(&mut self, mask: DeltaMask) {
        self.mask |= mask;
        self.additions_only = false;
        self.coarse = true;
    }

    /// Records that event annotations changed in place (the ⊏ downgrade
    /// step). The annotation-derived base sets (`Acq`, `Rel`, `SC`, `Ato`)
    /// are re-read from the execution and diffed.
    pub fn touch_annots(&mut self) {
        self.mask |= DeltaMask::ANNOT;
        self.additions_only = false;
    }

    /// The inputs this delta touches.
    pub fn mask(&self) -> DeltaMask {
        self.mask
    }

    /// True if no edit has been recorded.
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty() && !self.full
    }

    /// True if every recorded edit was an addition.
    pub fn is_additions_only(&self) -> bool {
        self.additions_only
    }

    /// True if this delta replaces the execution wholesale.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// True if [`Delta::touch`] marked a family without pair detail.
    pub fn is_coarse(&self) -> bool {
        self.coarse
    }

    /// The net added and removed pairs of one primitive family, as
    /// relations over `universe`. Replays the edit log in order, so a pair
    /// removed and later re-added nets out.
    fn net_relations(&self, family: RelBase, universe: usize) -> (Relation, Relation) {
        let mut add = Relation::new(universe);
        let mut del = Relation::new(universe);
        for &(base, a, b, added) in &self.edits {
            if base != family {
                continue;
            }
            let (a, b) = (a as usize, b as usize);
            if added {
                add.insert(a, b);
                del.remove(a, b);
            } else {
                del.insert(a, b);
                add.remove(a, b);
            }
        }
        (add, del)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct HeadCache {
    acyclic: Option<bool>,
    irreflexive: Option<bool>,
    empty: Option<bool>,
}

impl HeadCache {
    /// All three head predicates are anti-monotone in the body: growing the
    /// body can only *break* them, shrinking it can only *repair* them. A
    /// cached verdict therefore survives a grow-only delta if it was `false`
    /// and a shrink-only delta if it was `true`; mixed deltas clear it.
    fn refine(&mut self, grew: bool, shrank: bool) {
        let keep = |v: &mut Option<bool>| {
            *v = match *v {
                Some(false) if !shrank => Some(false),
                Some(true) if !grew => Some(true),
                _ => None,
            };
        };
        keep(&mut self.acyclic);
        keep(&mut self.irreflexive);
        keep(&mut self.empty);
    }
}

/// Counters describing how [`IncrementalEval::apply`] absorbed its deltas;
/// read them with [`IncrementalEval::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Derived nodes whose cached value was grown/shrunk *in place* by an
    /// exact delta rule (semi-naïve addition, counting-based deletion
    /// through joins, DRed rederivation through closures).
    pub maintained: u64,
    /// Base nodes re-read from the execution and diffed against their
    /// cached value (the monotone derived bases such as `rfe`, primitives
    /// under coarse deltas, and the `rmw` projections).
    pub rebased: u64,
    /// Nodes *non-monotone* in a changed input (and their dependents)
    /// dropped for lazy recomputation on next use — the deliberate lazy
    /// path, not a fallback: early-exit consistency sweeps never pay for
    /// bodies they do not query.
    pub dropped: u64,
    /// *Maintainable* monotone nodes (every input monotone under the
    /// delta, every child valued) dropped without maintenance — the
    /// footprint-invalidation fallback removals used to force. Zero since
    /// counting-based deletion; the parity tests pin it at zero over whole
    /// enumeration sweeps.
    pub invalidated: u64,
    /// Full resets (a brand-new execution or a universe change).
    pub resets: u64,
    /// `Fix` nodes dropped for lazy re-iteration because a delta touched
    /// their footprint. Fixpoints have no exact maintenance rule — they ride
    /// the footprint-invalidation fallback path by design, and this counter
    /// (not `dropped`) records it.
    pub fix_reevals: u64,
    /// Axiom verdict queries answered by [`IncrementalEval::holds`] —
    /// cache hits and full evaluations together.
    pub axiom_queries: u64,
    /// The subset of `axiom_queries` answered from the per-`(body, head)`
    /// verdict cache without touching the body relation.
    pub axiom_cache_hits: u64,
}

impl MaintenanceStats {
    /// Folds `other` into `self`, field by field — the rollup the sweep
    /// report aggregates across work units.
    pub fn merge(&mut self, other: MaintenanceStats) {
        self.maintained += other.maintained;
        self.rebased += other.rebased;
        self.dropped += other.dropped;
        self.invalidated += other.invalidated;
        self.resets += other.resets;
        self.fix_reevals += other.fix_reevals;
        self.axiom_queries += other.axiom_queries;
        self.axiom_cache_hits += other.axiom_cache_hits;
    }
}

/// How one node fared during a propagation pass: untouched, edited with the
/// exact pairs that appeared and disappeared, or holding no cached value.
enum Shift<T> {
    /// Value unchanged (footprint disjoint, or the edits cancelled out).
    Clean,
    /// Value updated in place; `add`/`del` are exactly `new \ old` and
    /// `old \ new`.
    Edited { add: T, del: T },
    /// No cached value: the node stays lazy (parents cannot hold values
    /// either, so nothing consumes this).
    Missing,
}

/// One relation node's journalled state: value, head verdicts, supports.
type SavedRel = (usize, Option<Relation>, HeadCache, Option<Box<[u32]>>);

/// The per-node state a savepoint journal captures on first touch.
struct Journal {
    universe: usize,
    rel_saved: Vec<bool>,
    set_saved: Vec<bool>,
    rels: Vec<SavedRel>,
    sets: Vec<(usize, Option<ElemSet>)>,
}

/// The outcome of maintaining one relation node under a delta.
struct RelUpdate {
    new: Relation,
    add: Relation,
    del: Relation,
    /// Updated support counts, for `Seq` nodes whose counting table was
    /// built or advanced by this delta.
    counts: Option<Box<[u32]>>,
    /// The node was re-read from the execution rather than delta-maintained
    /// (derived bases, coarse touches).
    rebased: bool,
}

/// A *stateful* evaluator of interned expressions that survives across the
/// candidates of an enumeration sweep — the incremental sibling of the
/// per-execution [`IrEval`].
///
/// Where [`IrEval`] memoizes within one execution and is discarded with its
/// [`ExecView`], an `IncrementalEval` keeps every node value alive and is
/// told *what changed* between candidates through [`Delta`]s:
///
/// * nodes whose dependency footprint is disjoint from the delta keep their
///   cached values (and cached head verdicts) untouched;
/// * every other node holding a value is **maintained in place** with an
///   *exact* delta (`add = new \ old`, `del = old \ new`) derived from its
///   children's deltas: additions flow through the semi-naïve rules
///   (`Δ(a ∪ b) = Δa ∪ Δb`, `Δ(a ; b) = Δa;b ∪ a;Δb`,
///   `Δ(a⁺) = (a⁺? ; Δa ; a⁺?)⁺`, …), removals through **counting-based
///   deletion** — `;` nodes keep a per-pair support count of join witnesses,
///   decremented as pairs disappear — and through **DRed-style
///   rederivation** for the closures (over-delete everything a removed pair
///   could have derived, then rederive from what survives);
/// * base relations the view derives non-monotonically (`fr`, `tfence`, the
///   annotation sets, …) are re-read from the mutated execution and diffed,
///   so even their dependents stay maintained rather than invalidated;
/// * head verdicts survive one-sided deltas: every head predicate is
///   anti-monotone in its body, so a `false` survives grow-only and a
///   `true` survives shrink-only deltas.
///
/// A [`savepoint`](IncrementalEval::savepoint)/[`rollback`](IncrementalEval::rollback)
/// journal snapshots each node's state on first touch, so a caller can
/// probe a delta (a ⊏-weakening of the current candidate, say) and undo it
/// in O(touched nodes).
///
/// The caller owns the evolving [`Execution`] and must mutate it *before*
/// applying the matching delta; `tm_synth`'s incremental enumeration drives
/// exactly this protocol.
pub struct IncrementalEval<'p> {
    pool: &'p IrPool,
    universe: usize,
    rel_vals: Vec<Option<Relation>>,
    set_vals: Vec<Option<ElemSet>>,
    heads: Vec<HeadCache>,
    /// Per-pair join-witness counts for `Seq` nodes, built lazily the first
    /// time a node is maintained and kept in lock-step with its value.
    seq_counts: Vec<Option<Box<[u32]>>>,
    rel_pos: Vec<DeltaMask>,
    rel_neg: Vec<DeltaMask>,
    set_neg: Vec<DeltaMask>,
    /// For each [`DeltaMask`] input bit, the relation/set nodes whose
    /// footprint contains it (ascending) — a delta visits the union of its
    /// bits' lists instead of scanning the whole pool.
    rel_touched_by: Vec<Vec<u32>>,
    set_touched_by: Vec<Vec<u32>>,
    /// Per-node delta records for the current propagation epoch. Stamps
    /// avoid clearing the arrays between deltas: a stale entry reads as
    /// [`Shift::Clean`].
    rel_shift: Vec<Shift<Relation>>,
    set_shift: Vec<Shift<ElemSet>>,
    rel_shift_epoch: Vec<u64>,
    set_shift_epoch: Vec<u64>,
    epoch: u64,
    scratch_ids: Vec<u32>,
    journal: Option<Journal>,
    stats: MaintenanceStats,
}

/// The number of distinct [`DeltaMask`] input bits.
const MASK_BITS: usize = 11;

impl<'p> IncrementalEval<'p> {
    /// Creates an evaluator for `pool`, computing every node's dependency
    /// footprint bottom-up (children are always interned before parents, so
    /// one ascending pass suffices).
    pub fn new(pool: &'p IrPool) -> IncrementalEval<'p> {
        let mut set_pos = Vec::with_capacity(pool.set_count());
        let mut set_neg = Vec::with_capacity(pool.set_count());
        for i in 0..pool.set_count() {
            let (p, n) = match pool.set_expr(SetId(i as u32)) {
                SetExpr::Base(b) => set_base_masks(b),
                SetExpr::Union(a, b) | SetExpr::Inter(a, b) => (
                    set_pos[a.index()] | set_pos[b.index()],
                    set_neg[a.index()] | set_neg[b.index()],
                ),
            };
            set_pos.push(p);
            set_neg.push(n);
        }
        let mut rel_pos: Vec<DeltaMask> = Vec::with_capacity(pool.rel_count());
        let mut rel_neg: Vec<DeltaMask> = Vec::with_capacity(pool.rel_count());
        for i in 0..pool.rel_count() {
            let (p, n) = match pool.rel_expr(RelId(i as u32)) {
                RelExpr::Base(b) => base_masks(b),
                RelExpr::IdOn(s) => (set_pos[s.index()], set_neg[s.index()]),
                RelExpr::Cross(a, b) => (
                    set_pos[a.index()] | set_pos[b.index()],
                    set_neg[a.index()] | set_neg[b.index()],
                ),
                RelExpr::Seq(a, b) | RelExpr::Union(a, b) | RelExpr::Inter(a, b) => (
                    rel_pos[a.index()] | rel_pos[b.index()],
                    rel_neg[a.index()] | rel_neg[b.index()],
                ),
                // The right operand of a difference flips sign.
                RelExpr::Diff(a, b) => (
                    rel_pos[a.index()] | rel_neg[b.index()],
                    rel_neg[a.index()] | rel_pos[b.index()],
                ),
                RelExpr::Inverse(a) | RelExpr::Opt(a) | RelExpr::Plus(a) | RelExpr::Star(a) => {
                    (rel_pos[a.index()], rel_neg[a.index()])
                }
                // lift(r, t) = t⟨?⟩ ; (r \ t) ; t⟨?⟩ — t occurs mixed.
                RelExpr::WeakLift(a, t) | RelExpr::StrongLift(a, t) => {
                    let mixed = rel_pos[t.index()] | rel_neg[t.index()];
                    (rel_pos[a.index()] | mixed, rel_neg[a.index()] | mixed)
                }
                // A variable reads nothing itself; its group's Fix nodes
                // carry the bodies' footprints.
                RelExpr::Var(_) => (DeltaMask::NONE, DeltaMask::NONE),
                // A fixpoint has no exact maintenance rule: treat its whole
                // footprint as mixed so any relevant delta drops it to the
                // lazy re-iteration path (counted as `fix_reevals`).
                RelExpr::Fix(g, _) => {
                    let mut m = DeltaMask::NONE;
                    for &b in pool.fix_bodies(g) {
                        m |= rel_pos[b.index()] | rel_neg[b.index()];
                    }
                    (m, m)
                }
            };
            rel_pos.push(p);
            rel_neg.push(n);
        }
        let mut rel_touched_by: Vec<Vec<u32>> = vec![Vec::new(); MASK_BITS];
        let mut set_touched_by: Vec<Vec<u32>> = vec![Vec::new(); MASK_BITS];
        for bit in 0..MASK_BITS {
            let bit_mask = DeltaMask(1 << bit);
            for i in 0..pool.rel_count() {
                if (rel_pos[i] | rel_neg[i]).intersects(bit_mask) {
                    rel_touched_by[bit].push(i as u32);
                }
            }
            for i in 0..pool.set_count() {
                if (set_pos[i] | set_neg[i]).intersects(bit_mask) {
                    set_touched_by[bit].push(i as u32);
                }
            }
        }
        IncrementalEval {
            pool,
            universe: 0,
            rel_vals: vec![None; pool.rel_count()],
            set_vals: vec![None; pool.set_count()],
            heads: vec![HeadCache::default(); pool.rel_count()],
            seq_counts: vec![None; pool.rel_count()],
            rel_pos,
            rel_neg,
            set_neg,
            rel_touched_by,
            set_touched_by,
            rel_shift: (0..pool.rel_count()).map(|_| Shift::Clean).collect(),
            set_shift: (0..pool.set_count()).map(|_| Shift::Clean).collect(),
            rel_shift_epoch: vec![0; pool.rel_count()],
            set_shift_epoch: vec![0; pool.set_count()],
            epoch: 0,
            scratch_ids: Vec::new(),
            journal: None,
            stats: MaintenanceStats::default(),
        }
    }

    /// The pool this evaluator interprets.
    pub fn pool(&self) -> &'p IrPool {
        self.pool
    }

    /// The full dependency footprint of a relation node.
    pub fn footprint(&self, id: RelId) -> DeltaMask {
        self.rel_pos[id.index()] | self.rel_neg[id.index()]
    }

    /// The inputs in which a relation node is *not* monotonically
    /// non-decreasing (negative or mixed occurrences). Purely informational
    /// since counting-based deletion landed: every node is maintained with
    /// exact deltas whichever sign an input occurs under.
    pub fn nonmonotone_inputs(&self, id: RelId) -> DeltaMask {
        self.rel_neg[id.index()]
    }

    /// The maintenance counters accumulated since construction.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// Starts recording undo information: every node state subsequently
    /// changed (by [`apply`](IncrementalEval::apply), lazy evaluation or
    /// verdict caching) is snapshotted on first touch, so a later
    /// [`rollback`](IncrementalEval::rollback) restores this exact state in
    /// O(touched nodes). One savepoint may be active at a time.
    ///
    /// # Panics
    ///
    /// Panics if a savepoint is already active.
    pub fn savepoint(&mut self) {
        assert!(
            self.journal.is_none(),
            "IncrementalEval supports one active savepoint at a time"
        );
        self.journal = Some(Journal {
            universe: self.universe,
            rel_saved: vec![false; self.pool.rel_count()],
            set_saved: vec![false; self.pool.set_count()],
            rels: Vec::new(),
            sets: Vec::new(),
        });
    }

    /// Restores the state captured by the active savepoint and ends it.
    ///
    /// # Panics
    ///
    /// Panics if no savepoint is active.
    pub fn rollback(&mut self) {
        let journal = self
            .journal
            .take()
            .expect("rollback without an active savepoint");
        self.universe = journal.universe;
        for (i, val, heads, counts) in journal.rels {
            self.rel_vals[i] = val;
            self.heads[i] = heads;
            self.seq_counts[i] = counts;
        }
        for (i, val) in journal.sets {
            self.set_vals[i] = val;
        }
    }

    /// Ends the active savepoint, keeping every change made since it.
    ///
    /// # Panics
    ///
    /// Panics if no savepoint is active.
    pub fn commit(&mut self) {
        assert!(
            self.journal.take().is_some(),
            "commit without an active savepoint"
        );
    }

    fn journal_rel(&mut self, i: usize) {
        if let Some(journal) = &mut self.journal {
            if !journal.rel_saved[i] {
                journal.rel_saved[i] = true;
                journal.rels.push((
                    i,
                    self.rel_vals[i].clone(),
                    self.heads[i],
                    self.seq_counts[i].clone(),
                ));
            }
        }
    }

    fn journal_set(&mut self, i: usize) {
        if let Some(journal) = &mut self.journal {
            if !journal.set_saved[i] {
                journal.set_saved[i] = true;
                journal.sets.push((i, self.set_vals[i].clone()));
            }
        }
    }

    /// Drops every cached value: the next queries recompute from `exec`.
    pub fn reset(&mut self, exec: &Execution) {
        if self.journal.is_some() {
            for i in 0..self.pool.rel_count() {
                self.journal_rel(i);
            }
            for i in 0..self.pool.set_count() {
                self.journal_set(i);
            }
        }
        self.universe = exec.len();
        self.rel_vals.iter_mut().for_each(|v| *v = None);
        self.set_vals.iter_mut().for_each(|v| *v = None);
        self.seq_counts.iter_mut().for_each(|c| *c = None);
        self.heads
            .iter_mut()
            .for_each(|h| *h = HeadCache::default());
        self.stats.resets += 1;
    }

    /// Absorbs one delta: the caller has already mutated `exec` accordingly.
    ///
    /// Full deltas (and universe changes) reset everything; every other
    /// delta — additions, removals, annotation edits, coarse touches — is
    /// propagated through the valued nodes in place, children before
    /// parents, leaving each with an exact `new \ old` / `old \ new` record
    /// for its own parents.
    pub fn apply(&mut self, exec: &Execution, delta: &Delta) {
        if delta.is_full() || exec.len() != self.universe {
            self.reset(exec);
            return;
        }
        if delta.is_empty() {
            return;
        }
        self.propagate(exec, delta);
    }

    /// One ascending maintenance sweep over the touched nodes (children
    /// before parents; sets before relations, which consume them). Only the
    /// nodes whose footprint the delta intersects are visited, via the
    /// per-input lists built at construction.
    fn propagate(&mut self, exec: &Execution, delta: &Delta) {
        let mask = delta.mask();
        self.epoch += 1;

        let mut ids = std::mem::take(&mut self.scratch_ids);
        Self::collect_touched(&self.set_touched_by, mask, &mut ids);
        for &id in &ids {
            let i = id as usize;
            if self.set_vals[i].is_none() {
                self.set_shift[i] = Shift::Missing;
                self.set_shift_epoch[i] = self.epoch;
                continue;
            }
            if self.set_neg[i].intersects(mask) {
                // Non-monotone in a changed input (the annotation sets):
                // drop for lazy recomputation on next use.
                self.journal_set(i);
                self.set_vals[i] = None;
                self.stats.dropped += 1;
                self.set_shift[i] = Shift::Missing;
                self.set_shift_epoch[i] = self.epoch;
                continue;
            }
            let computed: Option<ElemSet> = match self.pool.set_expr(SetId(i as u32)) {
                SetExpr::Base(base) => {
                    self.stats.rebased += 1;
                    Some(Self::base_set_value(exec, base))
                }
                SetExpr::Union(a, b) => {
                    match (&self.set_vals[a.index()], &self.set_vals[b.index()]) {
                        (Some(va), Some(vb)) => Some(va.union(vb)),
                        _ => None,
                    }
                }
                SetExpr::Inter(a, b) => {
                    match (&self.set_vals[a.index()], &self.set_vals[b.index()]) {
                        (Some(va), Some(vb)) => Some(va.intersection(vb)),
                        _ => None,
                    }
                }
            };
            match computed {
                None => {
                    debug_assert!(false, "valued set node with an unvalued child");
                    self.journal_set(i);
                    self.set_vals[i] = None;
                    self.stats.invalidated += 1;
                    self.set_shift[i] = Shift::Missing;
                    self.set_shift_epoch[i] = self.epoch;
                }
                Some(new) => {
                    let old = self.set_vals[i].as_ref().unwrap();
                    let add = new.difference(old);
                    let del = old.difference(&new);
                    if add.is_empty() && del.is_empty() {
                        // Stale stamp: parents read this as Clean.
                        continue;
                    }
                    self.journal_set(i);
                    self.set_vals[i] = Some(new);
                    self.set_shift[i] = Shift::Edited { add, del };
                    self.set_shift_epoch[i] = self.epoch;
                }
            }
        }

        Self::collect_touched(&self.rel_touched_by, mask, &mut ids);
        for &id in &ids {
            let i = id as usize;
            if self.rel_vals[i].is_none() {
                self.rel_shift[i] = Shift::Missing;
                self.rel_shift_epoch[i] = self.epoch;
                continue;
            }
            if self.rel_neg[i].intersects(mask) {
                // Non-monotone in a changed input (fr and its dependents
                // under rf/co edits, tfence under stxn flips, …): drop for
                // lazy recomputation — an early-exit sweep only ever pays
                // for the bodies it actually queries. Fixpoints always land
                // here (their footprint is declared mixed) and keep their
                // own counter: re-iteration is their designed fallback, not
                // a maintenance failure.
                self.journal_rel(i);
                self.rel_vals[i] = None;
                self.heads[i] = HeadCache::default();
                self.seq_counts[i] = None;
                if matches!(self.pool.rel_expr(RelId(i as u32)), RelExpr::Fix(_, _)) {
                    self.stats.fix_reevals += 1;
                } else {
                    self.stats.dropped += 1;
                }
                self.rel_shift[i] = Shift::Missing;
                self.rel_shift_epoch[i] = self.epoch;
                continue;
            }
            match self.shift_rel(exec, delta, RelId(i as u32)) {
                None => {
                    // A needed child was dropped (a difference whose
                    // subtrahend is non-monotone, say): this node cannot be
                    // maintained either and follows it to the lazy path.
                    self.journal_rel(i);
                    self.rel_vals[i] = None;
                    self.heads[i] = HeadCache::default();
                    self.seq_counts[i] = None;
                    self.stats.dropped += 1;
                    self.rel_shift[i] = Shift::Missing;
                    self.rel_shift_epoch[i] = self.epoch;
                }
                Some(update) => {
                    if update.rebased {
                        self.stats.rebased += 1;
                    }
                    let grew = !update.add.is_empty();
                    let shrank = !update.del.is_empty();
                    if grew || shrank || update.counts.is_some() {
                        self.journal_rel(i);
                        if let Some(counts) = update.counts {
                            self.seq_counts[i] = Some(counts);
                        }
                        if grew || shrank {
                            self.rel_vals[i] = Some(update.new);
                            self.heads[i].refine(grew, shrank);
                            self.stats.maintained += 1;
                        }
                    }
                    if grew || shrank {
                        self.rel_shift[i] = Shift::Edited {
                            add: update.add,
                            del: update.del,
                        };
                        self.rel_shift_epoch[i] = self.epoch;
                    }
                }
            }
        }
        self.scratch_ids = ids;
    }

    /// The ascending union of the touched-node lists of the mask's bits.
    fn collect_touched(lists: &[Vec<u32>], mask: DeltaMask, out: &mut Vec<u32>) {
        out.clear();
        let mut hit = 0usize;
        for (bit, list) in lists.iter().enumerate() {
            if mask.intersects(DeltaMask(1 << bit)) && !list.is_empty() {
                out.extend_from_slice(list);
                hit += 1;
            }
        }
        if hit > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Maintains one valued relation node under a delta, returning its new
    /// value and the exact pairs that appeared and disappeared — or `None`
    /// if a child it needs holds no value (an invariant breach).
    fn shift_rel(&self, exec: &Execution, delta: &Delta, id: RelId) -> Option<RelUpdate> {
        let i = id.index();
        let old = self.rel_vals[i].as_ref().unwrap();
        let empty = Relation::new(self.universe);
        // A child's exact (add, del) — empty pair when it was untouched
        // this epoch (a stale stamp reads as Clean).
        let parts = |r: RelId| -> Option<(&Relation, &Relation)> {
            if self.rel_shift_epoch[r.index()] != self.epoch {
                return Some((&empty, &empty));
            }
            match &self.rel_shift[r.index()] {
                Shift::Clean => Some((&empty, &empty)),
                Shift::Edited { add, del } => Some((add, del)),
                Shift::Missing => None,
            }
        };
        let set_parts = |s: SetId| -> Option<(Option<&ElemSet>, Option<&ElemSet>)> {
            if self.set_shift_epoch[s.index()] != self.epoch {
                return Some((None, None));
            }
            match &self.set_shift[s.index()] {
                Shift::Clean => Some((None, None)),
                Shift::Edited { add, del } => Some((Some(add), Some(del))),
                Shift::Missing => None,
            }
        };
        let val = |r: RelId| self.rel_vals[r.index()].as_ref();
        let set_val = |s: SetId| self.set_vals[s.index()].as_ref();
        // Finalises a directly recomputed value into an exact update.
        let diffed = |new: Relation| -> RelUpdate {
            let add = new.difference(old);
            let del = old.difference(&new);
            RelUpdate {
                new,
                add,
                del,
                counts: None,
                rebased: false,
            }
        };
        // Finalises an exact (add, del) pair into the updated value.
        let applied = |add: Relation, del: Relation| -> RelUpdate {
            let mut new = old.clone();
            new.union_in_place(&add);
            new.difference_in_place(&del);
            RelUpdate {
                new,
                add,
                del,
                counts: None,
                rebased: false,
            }
        };
        // The edits cancelled out below this node: nothing to store.
        let unchanged = || RelUpdate {
            new: Relation::new(self.universe),
            add: Relation::new(self.universe),
            del: Relation::new(self.universe),
            counts: None,
            rebased: false,
        };

        let update = match self.pool.rel_expr(id) {
            RelExpr::Base(base) => {
                if let (Some(_), false) = (DeltaMask::of_primitive(base), delta.is_coarse()) {
                    // Primitive family with a pair-exact edit log: net the
                    // log against the cached value.
                    let (net_add, net_del) = delta.net_relations(base, self.universe);
                    let add = net_add.difference(old);
                    let del = net_del.intersection(old);
                    let update = applied(add, del);
                    debug_assert_eq!(
                        update.new,
                        Self::base_value(exec, base),
                        "delta edit log out of sync with the execution for {base:?}"
                    );
                    update
                } else {
                    // Derived bases (fr, tfence, rfe, …) and coarse touches:
                    // re-read from the execution and diff.
                    RelUpdate {
                        rebased: true,
                        ..diffed(Self::base_value(exec, base))
                    }
                }
            }
            RelExpr::IdOn(s) => {
                let (sa, sd) = set_parts(s)?;
                let add = sa.map_or_else(|| empty.clone(), Relation::identity_on);
                let del = sd.map_or_else(|| empty.clone(), Relation::identity_on);
                applied(add, del)
            }
            RelExpr::Cross(a, b) => {
                let (sa, sb) = (set_parts(a)?, set_parts(b)?);
                if sa.0.is_none() && sa.1.is_none() && sb.0.is_none() && sb.1.is_none() {
                    return Some(unchanged());
                }
                diffed(Relation::cross(set_val(a)?, set_val(b)?))
            }
            RelExpr::Seq(a, b) => {
                let ((add_a, del_a), (add_b, del_b)) = (parts(a)?, parts(b)?);
                if add_a.is_empty() && del_a.is_empty() && add_b.is_empty() && del_b.is_empty() {
                    return Some(unchanged());
                }
                let (new_a, new_b) = (val(a)?, val(b)?);
                let counting =
                    self.seq_counts[i].is_some() || !del_a.is_empty() || !del_b.is_empty();
                if !counting {
                    // Pure additions with no live counting table: the plain
                    // semi-naïve join delta, no per-pair bookkeeping.
                    let mut d = add_a.compose(new_b);
                    d.union_in_place(&new_a.compose(add_b));
                    let add = d.difference(old);
                    applied(add, empty.clone())
                } else {
                    // A removal reached this node (or one did before):
                    // maintain the per-pair support counts.
                    return Some(self.shift_seq(id, old, new_a, new_b, add_a, del_a, add_b, del_b));
                }
            }
            RelExpr::Union(a, b) => {
                let ((add_a, del_a), (add_b, del_b)) = (parts(a)?, parts(b)?);
                // A pair joins the union iff it joined either operand and
                // was not already present; it leaves iff it left every
                // operand that held it and neither holds it now.
                let mut add = add_a.union(add_b);
                add.difference_in_place(old);
                let mut del = del_a.union(del_b);
                del.difference_in_place(val(a)?);
                del.difference_in_place(val(b)?);
                applied(add, del)
            }
            RelExpr::Inter(a, b) => {
                let mut new = val(a)?.clone();
                new.intersect_in_place(val(b)?);
                diffed(new)
            }
            RelExpr::Diff(a, b) => {
                let mut new = val(a)?.clone();
                new.difference_in_place(val(b)?);
                diffed(new)
            }
            RelExpr::Inverse(a) => {
                let (add_a, del_a) = parts(a)?;
                applied(add_a.inverse(), del_a.inverse())
            }
            RelExpr::Opt(a) => diffed(val(a)?.reflexive_closure()),
            RelExpr::Plus(a) => {
                let (add_a, del_a) = parts(a)?;
                if del_a.is_empty() {
                    // Semi-naïve growth: (a ∪ Δ)⁺ = a⁺ ∪ (a⁺? ; Δ ; a⁺?)⁺ —
                    // every new path alternates old paths and new edges.
                    let oldq = old.reflexive_closure();
                    let mut d = oldq.compose(add_a).compose(&oldq);
                    d.transitive_closure_in_place();
                    let add = d.difference(old);
                    applied(add, empty.clone())
                } else {
                    // DRed: over-delete every pair whose derivations could
                    // pass through a removed edge, then rederive from the
                    // survivors plus the new child value. Any pair with an
                    // intact path avoids the over-delete set entirely, so
                    // closing (old \ over) ∪ new_a is exactly new_a⁺.
                    let oldq = old.reflexive_closure();
                    let over = oldq.compose(del_a).compose(&oldq);
                    let mut seed = old.difference(&over);
                    seed.union_in_place(val(a)?);
                    seed.transitive_closure_in_place();
                    diffed(seed)
                }
            }
            RelExpr::Star(a) => {
                let (add_a, del_a) = parts(a)?;
                if del_a.is_empty() {
                    // The reflexive old value is its own spine.
                    let mut d = old.compose(add_a).compose(old);
                    d.transitive_closure_in_place();
                    let add = d.difference(old);
                    applied(add, empty.clone())
                } else {
                    let over = old.compose(del_a).compose(old);
                    let mut seed = old.difference(&over);
                    seed.union_in_place(val(a)?);
                    seed.transitive_closure_in_place();
                    for e in 0..self.universe {
                        seed.insert(e, e);
                    }
                    diffed(seed)
                }
            }
            RelExpr::WeakLift(a, t) | RelExpr::StrongLift(a, t) => {
                let strong = matches!(self.pool.rel_expr(id), RelExpr::StrongLift(_, _));
                let (add_a, del_a) = parts(a)?;
                let (add_t, del_t) = parts(t)?;
                let lift = |r: &Relation, t: &Relation| {
                    if strong {
                        Execution::stronglift(r, t)
                    } else {
                        Execution::weaklift(r, t)
                    }
                };
                if del_a.is_empty() && add_t.is_empty() && del_t.is_empty() {
                    // The lift distributes over unions of its first operand.
                    let d = lift(add_a, val(t)?);
                    let add = d.difference(old);
                    applied(add, empty.clone())
                } else {
                    diffed(lift(val(a)?, val(t)?))
                }
            }
            // Vars have empty footprints and Fix nodes declare their whole
            // footprint mixed, so neither ever reaches the maintained path.
            RelExpr::Var(_) | RelExpr::Fix(_, _) => {
                unreachable!("recursion nodes are never delta-maintained")
            }
        };
        Some(update)
    }

    /// Counting-based maintenance of a `Seq` node: the per-pair support
    /// count is the number of join witnesses `y` with `a(x, y) ∧ b(y, z)`;
    /// additions increment, removals decrement, and a pair lives exactly
    /// while its count is positive. The table is built lazily from the
    /// operands' pre-delta values the first time the node is maintained.
    #[allow(clippy::too_many_arguments)]
    fn shift_seq(
        &self,
        id: RelId,
        old: &Relation,
        new_a: &Relation,
        new_b: &Relation,
        add_a: &Relation,
        del_a: &Relation,
        add_b: &Relation,
        del_b: &Relation,
    ) -> RelUpdate {
        let n = self.universe;
        // Reconstruct the pre-delta operands (`new \ add ∪ del`).
        let rewind = |new: &Relation, add: &Relation, del: &Relation| {
            let mut old = new.clone();
            old.difference_in_place(add);
            old.union_in_place(del);
            old
        };
        let old_b = rewind(new_b, add_b, del_b);
        let mut counts: Box<[u32]> = match &self.seq_counts[id.index()] {
            Some(counts) => counts.clone(),
            None => {
                let old_a = rewind(new_a, add_a, del_a);
                let mut counts = vec![0u32; n * n].into_boxed_slice();
                for (x, y) in old_a.iter() {
                    for z in old_b.successors(y) {
                        counts[x * n + z] += 1;
                    }
                }
                counts
            }
        };
        // Σ old_a·old_b  →  Σ new_a·old_b  →  Σ new_a·new_b.
        for (x, y) in add_a.iter() {
            for z in old_b.successors(y) {
                counts[x * n + z] += 1;
            }
        }
        for (x, y) in del_a.iter() {
            for z in old_b.successors(y) {
                counts[x * n + z] -= 1;
            }
        }
        for (y, z) in add_b.iter() {
            for x in new_a.predecessors(y) {
                counts[x * n + z] += 1;
            }
        }
        for (y, z) in del_b.iter() {
            for x in new_a.predecessors(y) {
                counts[x * n + z] -= 1;
            }
        }
        let mut new = Relation::new(n);
        for x in 0..n {
            for z in 0..n {
                if counts[x * n + z] > 0 {
                    new.insert(x, z);
                }
            }
        }
        let add = new.difference(old);
        let del = old.difference(&new);
        RelUpdate {
            new,
            add,
            del,
            counts: Some(counts),
            rebased: false,
        }
    }

    /// The value of a base set, recomputed from the execution.
    fn base_set_value(exec: &Execution, base: SetBase) -> ElemSet {
        match base {
            SetBase::Reads => exec.reads(),
            SetBase::Writes => exec.writes(),
            SetBase::Fences => exec.fences(),
            SetBase::Acquires => exec.acquires(),
            SetBase::Releases => exec.releases(),
            SetBase::ScEvents => exec.sc_events(),
            SetBase::Atomics => exec.atomics(),
            SetBase::FencesOf(kind) => exec.fences_of(kind),
            SetBase::RmwDomain => exec.rmw.domain(),
            SetBase::RmwRange => exec.rmw.range(),
        }
    }

    /// The current value of a set expression, computing it if missing.
    pub fn set(&mut self, exec: &Execution, id: SetId) -> &ElemSet {
        self.ensure_set(exec, id);
        self.set_vals[id.index()].as_ref().unwrap()
    }

    fn ensure_set(&mut self, exec: &Execution, id: SetId) {
        if self.set_vals[id.index()].is_some() {
            return;
        }
        let value = match self.pool.set_expr(id) {
            SetExpr::Base(base) => Self::base_set_value(exec, base),
            SetExpr::Union(a, b) => {
                self.ensure_set(exec, a);
                self.ensure_set(exec, b);
                self.set_vals[a.index()]
                    .as_ref()
                    .unwrap()
                    .union(self.set_vals[b.index()].as_ref().unwrap())
            }
            SetExpr::Inter(a, b) => {
                self.ensure_set(exec, a);
                self.ensure_set(exec, b);
                self.set_vals[a.index()]
                    .as_ref()
                    .unwrap()
                    .intersection(self.set_vals[b.index()].as_ref().unwrap())
            }
        };
        self.journal_set(id.index());
        self.set_vals[id.index()] = Some(value);
    }

    /// The current value of a relation expression, computing it if missing.
    pub fn rel(&mut self, exec: &Execution, id: RelId) -> &Relation {
        self.ensure_rel(exec, id);
        self.rel_vals[id.index()].as_ref().unwrap()
    }

    fn ensure_rel(&mut self, exec: &Execution, id: RelId) {
        if self.rel_vals[id.index()].is_some() {
            return;
        }
        let value = match self.pool.rel_expr(id) {
            RelExpr::Base(base) => Self::base_value(exec, base),
            RelExpr::IdOn(s) => {
                self.ensure_set(exec, s);
                Relation::identity_on(self.set_vals[s.index()].as_ref().unwrap())
            }
            RelExpr::Cross(a, b) => {
                self.ensure_set(exec, a);
                self.ensure_set(exec, b);
                Relation::cross(
                    self.set_vals[a.index()].as_ref().unwrap(),
                    self.set_vals[b.index()].as_ref().unwrap(),
                )
            }
            RelExpr::Seq(a, b) => {
                self.ensure_rel(exec, a);
                self.ensure_rel(exec, b);
                self.rel_vals[a.index()]
                    .as_ref()
                    .unwrap()
                    .compose(self.rel_vals[b.index()].as_ref().unwrap())
            }
            RelExpr::Union(a, b) => {
                self.ensure_rel(exec, a);
                self.ensure_rel(exec, b);
                let mut out = self.rel_vals[a.index()].as_ref().unwrap().clone();
                out.union_in_place(self.rel_vals[b.index()].as_ref().unwrap());
                out
            }
            RelExpr::Inter(a, b) => {
                self.ensure_rel(exec, a);
                self.ensure_rel(exec, b);
                let mut out = self.rel_vals[a.index()].as_ref().unwrap().clone();
                out.intersect_in_place(self.rel_vals[b.index()].as_ref().unwrap());
                out
            }
            RelExpr::Diff(a, b) => {
                self.ensure_rel(exec, a);
                self.ensure_rel(exec, b);
                let mut out = self.rel_vals[a.index()].as_ref().unwrap().clone();
                out.difference_in_place(self.rel_vals[b.index()].as_ref().unwrap());
                out
            }
            RelExpr::Inverse(a) => {
                self.ensure_rel(exec, a);
                self.rel_vals[a.index()].as_ref().unwrap().inverse()
            }
            RelExpr::Opt(a) => {
                self.ensure_rel(exec, a);
                self.rel_vals[a.index()]
                    .as_ref()
                    .unwrap()
                    .reflexive_closure()
            }
            RelExpr::Plus(a) => {
                self.ensure_rel(exec, a);
                let mut out = self.rel_vals[a.index()].as_ref().unwrap().clone();
                out.transitive_closure_in_place();
                out
            }
            RelExpr::Star(a) => {
                self.ensure_rel(exec, a);
                let mut out = self.rel_vals[a.index()].as_ref().unwrap().clone();
                out.transitive_closure_in_place();
                for e in 0..out.universe() {
                    out.insert(e, e);
                }
                out
            }
            RelExpr::WeakLift(a, t) => {
                self.ensure_rel(exec, a);
                self.ensure_rel(exec, t);
                Execution::weaklift(
                    self.rel_vals[a.index()].as_ref().unwrap(),
                    self.rel_vals[t.index()].as_ref().unwrap(),
                )
            }
            RelExpr::StrongLift(a, t) => {
                self.ensure_rel(exec, a);
                self.ensure_rel(exec, t);
                Execution::stronglift(
                    self.rel_vals[a.index()].as_ref().unwrap(),
                    self.rel_vals[t.index()].as_ref().unwrap(),
                )
            }
            RelExpr::Var(_) => {
                panic!("free recursion variable evaluated outside its fixpoint group")
            }
            RelExpr::Fix(g, i) => self.fix_rel(exec, g, i, &HashMap::new()),
        };
        self.journal_rel(id.index());
        self.rel_vals[id.index()] = Some(value);
    }

    /// Naive Kleene iteration for a fixpoint component, the lazy analogue of
    /// [`IrEval`]'s: var-free subtrees go through [`ensure_rel`] and stay
    /// cached across re-iterations, only the variable-touching spine is
    /// recomputed per round.
    fn fix_rel(
        &mut self,
        exec: &Execution,
        g: u32,
        i: u32,
        outer: &HashMap<u32, Relation>,
    ) -> Relation {
        let vars: Vec<u32> = self.pool.fix_vars(g).to_vec();
        let bodies: Vec<RelId> = self.pool.fix_bodies(g).to_vec();
        let mut env = outer.clone();
        for &v in &vars {
            env.insert(v, Relation::new(self.universe));
        }
        loop {
            let next: Vec<Relation> = bodies
                .iter()
                .map(|&b| self.rel_with_env(exec, b, &env))
                .collect();
            let stable = vars.iter().zip(&next).all(|(v, value)| env[v] == *value);
            for (v, value) in vars.iter().zip(next) {
                env.insert(*v, value);
            }
            if stable {
                return env.remove(&vars[i as usize]).unwrap();
            }
        }
    }

    fn rel_with_env(
        &mut self,
        exec: &Execution,
        id: RelId,
        env: &HashMap<u32, Relation>,
    ) -> Relation {
        if self.pool.rel_free_vars(id).is_empty() {
            self.ensure_rel(exec, id);
            return self.rel_vals[id.index()].as_ref().unwrap().clone();
        }
        match self.pool.rel_expr(id) {
            RelExpr::Var(v) => env
                .get(&v)
                .expect("free recursion variable outside its fixpoint group")
                .clone(),
            RelExpr::Fix(g, i) => self.fix_rel(exec, g, i, env),
            RelExpr::Base(_) | RelExpr::IdOn(_) | RelExpr::Cross(_, _) => {
                unreachable!("leaf nodes have no free variables")
            }
            RelExpr::Seq(a, b) => self
                .rel_with_env(exec, a, env)
                .compose(&self.rel_with_env(exec, b, env)),
            RelExpr::Union(a, b) => {
                let mut out = self.rel_with_env(exec, a, env);
                out.union_in_place(&self.rel_with_env(exec, b, env));
                out
            }
            RelExpr::Inter(a, b) => {
                let mut out = self.rel_with_env(exec, a, env);
                out.intersect_in_place(&self.rel_with_env(exec, b, env));
                out
            }
            RelExpr::Diff(a, b) => {
                let mut out = self.rel_with_env(exec, a, env);
                out.difference_in_place(&self.rel_with_env(exec, b, env));
                out
            }
            RelExpr::Inverse(a) => self.rel_with_env(exec, a, env).inverse(),
            RelExpr::Opt(a) => self.rel_with_env(exec, a, env).reflexive_closure(),
            RelExpr::Plus(a) => {
                let mut out = self.rel_with_env(exec, a, env);
                out.transitive_closure_in_place();
                out
            }
            RelExpr::Star(a) => {
                let mut out = self.rel_with_env(exec, a, env);
                out.transitive_closure_in_place();
                for e in 0..out.universe() {
                    out.insert(e, e);
                }
                out
            }
            RelExpr::WeakLift(a, t) => Execution::weaklift(
                &self.rel_with_env(exec, a, env),
                &self.rel_with_env(exec, t, env),
            ),
            RelExpr::StrongLift(a, t) => Execution::stronglift(
                &self.rel_with_env(exec, a, env),
                &self.rel_with_env(exec, t, env),
            ),
        }
    }

    /// The value of a base relation, recomputed from the execution (the
    /// incremental analogue of the view's memoized getters).
    fn base_value(exec: &Execution, base: RelBase) -> Relation {
        match base {
            RelBase::Po => exec.po.clone(),
            RelBase::Rf => exec.rf.clone(),
            RelBase::Co => exec.co.clone(),
            RelBase::Addr => exec.addr.clone(),
            RelBase::Data => exec.data.clone(),
            RelBase::Ctrl => exec.ctrl.clone(),
            RelBase::Rmw => exec.rmw.clone(),
            RelBase::Stxn => exec.stxn.clone(),
            RelBase::Stxnat => exec.stxnat.clone(),
            RelBase::Scr => exec.scr.clone(),
            RelBase::Sloc => exec.sloc(),
            RelBase::Poloc => exec.poloc(),
            RelBase::PoDiffLoc => exec.po_diff_loc(),
            RelBase::Fr => exec.fr(),
            RelBase::Rfe => exec.rfe(),
            RelBase::Rfi => exec.rfi(),
            RelBase::Coe => exec.coe(),
            RelBase::Fre => exec.fre(),
            RelBase::Com => exec.com(),
            RelBase::Come => exec.come(),
            RelBase::Ecom => exec.ecom(),
            RelBase::Cnf => exec.cnf(),
            RelBase::Tfence => exec.tfence(),
            RelBase::FenceRel(kind) => exec.fence_rel(kind),
        }
    }

    /// True if the axiom holds on the current execution. The verdict is
    /// cached per `(body, head)` and survives deltas that leave the body's
    /// footprint untouched — the fast path of the incremental sweep.
    pub fn holds(&mut self, exec: &Execution, axiom: &Axiom) -> bool {
        self.stats.axiom_queries += 1;
        let i = axiom.body.index();
        let cached = match axiom.head {
            AxiomHead::Acyclic => self.heads[i].acyclic,
            AxiomHead::Irreflexive => self.heads[i].irreflexive,
            AxiomHead::Empty => self.heads[i].empty,
        };
        if let Some(v) = cached {
            self.stats.axiom_cache_hits += 1;
            return v;
        }
        self.ensure_rel(exec, axiom.body);
        let body = self.rel_vals[i].as_ref().unwrap();
        let v = match axiom.head {
            AxiomHead::Acyclic => body.is_acyclic(),
            AxiomHead::Irreflexive => body.is_irreflexive(),
            AxiomHead::Empty => body.is_empty(),
        };
        self.journal_rel(i);
        match axiom.head {
            AxiomHead::Acyclic => self.heads[i].acyclic = Some(v),
            AxiomHead::Irreflexive => self.heads[i].irreflexive = Some(v),
            AxiomHead::Empty => self.heads[i].empty = Some(v),
        }
        v
    }

    /// A witness of the axiom's violation, matching [`IrEval::witness`].
    pub fn witness(&mut self, exec: &Execution, axiom: &Axiom) -> Option<Vec<usize>> {
        self.ensure_rel(exec, axiom.body);
        let body = self.rel_vals[axiom.body.index()].as_ref().unwrap();
        match axiom.head {
            AxiomHead::Acyclic => body.find_cycle(),
            AxiomHead::Irreflexive => (0..body.universe())
                .find(|&a| body.contains(a, a))
                .map(|a| vec![a]),
            AxiomHead::Empty => body.iter().next().map(|(a, b)| vec![a, b]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, Annot};

    fn eval_pair<'a>(pool: &'a IrPool, view: &'a ExecView<'a>) -> IrEval<'a> {
        IrEval::new(pool, view)
    }

    #[test]
    fn hash_consing_shares_nodes_across_expressions() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let com = p.base(RelBase::Com);
        let u1 = p.union(po, com);
        let u2 = p.union(com, po);
        assert_eq!(u1, u2);
        let all = p.union_all(&[com, po, com]);
        assert_eq!(all, u1);
        let s1 = p.seq(po, com);
        let s2 = p.seq(po, com);
        assert_eq!(s1, s2);
        // Composition is not commutative: different node.
        assert_ne!(s1, p.seq(com, po));
        // po, com, po ∪ com, po ; com, com ; po — and nothing else.
        assert_eq!(p.rel_count(), 5);
    }

    #[test]
    fn evaluation_matches_direct_computation() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let rf = p.base(RelBase::Rf);
        let fr = p.base(RelBase::Fr);
        let com = p.base(RelBase::Com);
        let seq = p.seq(rf, po);
        let u = p.union(po, com);
        let star = p.star(rf);
        let inv = p.inverse(rf);
        let reads = p.set_base(SetBase::Reads);
        let writes = p.set_base(SetBase::Writes);
        let id_r = p.id_on(reads);
        let wr = p.cross(writes, reads);
        let restricted = p.seq(id_r, fr);

        for exec in [
            catalog::sb(),
            catalog::mp_txn(),
            catalog::power_wrc_tprop1(),
        ] {
            let view = ExecView::new(&exec);
            let e = eval_pair(&p, &view);
            assert_eq!(*e.rel(seq), exec.rf.compose(&exec.po));
            assert_eq!(*e.rel(u), exec.po.union(&exec.com()));
            assert_eq!(*e.rel(star), exec.rf.reflexive_transitive_closure());
            assert_eq!(*e.rel(inv), exec.rf.inverse());
            assert_eq!(
                *e.rel(wr),
                tm_relation::Relation::cross(&exec.writes(), &exec.reads())
            );
            assert_eq!(
                *e.rel(restricted),
                tm_relation::Relation::identity_on(&exec.reads()).compose(&exec.fr())
            );
        }
    }

    #[test]
    fn lifts_evaluate_through_execution_helpers() {
        let mut p = IrPool::new();
        let com = p.base(RelBase::Com);
        let stxn = p.base(RelBase::Stxn);
        let weak = p.weaklift(com, stxn);
        let strong = p.stronglift(com, stxn);
        let exec = catalog::fig2();
        let view = ExecView::new(&exec);
        let e = eval_pair(&p, &view);
        assert_eq!(*e.rel(weak), Execution::weaklift(&exec.com(), &exec.stxn));
        assert_eq!(
            *e.rel(strong),
            Execution::stronglift(&exec.com(), &exec.stxn)
        );
    }

    #[test]
    fn axiom_heads_and_witnesses() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let com = p.base(RelBase::Com);
        let hb = p.union(po, com);
        let order = p.axiom("Order", AxiomHead::Acyclic, hb);
        let rmw = p.base(RelBase::Rmw);
        let empty_rmw = p.axiom("NoRmw", AxiomHead::Empty, rmw);

        let sb = catalog::sb();
        let view = ExecView::new(&sb);
        let e = eval_pair(&p, &view);
        assert!(!e.holds(&order));
        let cycle = e.witness(&order).expect("sb has an SC cycle");
        assert!(cycle.len() >= 2);
        assert!(e.holds(&empty_rmw));
        assert_eq!(e.witness(&empty_rmw), None);

        let mp_txn = catalog::mp_txn();
        let view = ExecView::new(&mp_txn);
        let e = eval_pair(&p, &view);
        assert!(!e.holds(&order));
    }

    #[test]
    fn memo_is_shared_through_the_view() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let com = p.base(RelBase::Com);
        let hb = p.union(po, com);
        let exec = catalog::sb();
        let view = ExecView::new(&exec);
        let first = eval_pair(&p, &view);
        let value = first.rel(hb).into_owned();
        // A second evaluator over the same view sees the cached value.
        let second = eval_pair(&p, &view);
        assert!(matches!(second.slots, Slots::Shared(_)));
        assert_eq!(*second.rel(hb), value);
        // An uncached view gets a private memo but the same values.
        let fresh_view = ExecView::uncached(&exec);
        let third = eval_pair(&p, &fresh_view);
        assert!(matches!(third.slots, Slots::Local(_)));
        assert_eq!(*third.rel(hb), value);
    }

    #[test]
    fn second_pool_falls_back_to_a_local_memo() {
        let mut p1 = IrPool::new();
        let hb1 = {
            let po = p1.base(RelBase::Po);
            let com = p1.base(RelBase::Com);
            p1.union(po, com)
        };
        let mut p2 = IrPool::new();
        let hb2 = {
            let po = p2.base(RelBase::Po);
            let com = p2.base(RelBase::Com);
            p2.union(po, com)
        };
        assert_ne!(p1.stamp(), p2.stamp());
        let exec = catalog::sb();
        let view = ExecView::new(&exec);
        let e1 = eval_pair(&p1, &view);
        let _ = e1.rel(hb1);
        let e2 = eval_pair(&p2, &view);
        assert!(matches!(e2.slots, Slots::Local(_)));
        assert_eq!(*e2.rel(hb2), *e1.rel(hb1));
    }

    #[test]
    fn polarity_analysis_follows_the_rules() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let com = p.base(RelBase::Com);
        let stxn = p.base(RelBase::Stxn);
        let tfence = p.base(RelBase::Tfence);

        assert_eq!(txn_polarity(&p, po), Polarity::Constant);
        assert_eq!(txn_polarity(&p, stxn), Polarity::Positive);
        assert_eq!(txn_polarity(&p, tfence), Polarity::Mixed);

        let pos = p.seq(stxn, po);
        assert_eq!(txn_polarity(&p, pos), Polarity::Positive);
        let neg = p.diff(po, stxn);
        assert_eq!(txn_polarity(&p, neg), Polarity::Negative);
        let mixed = p.union(pos, neg);
        assert_eq!(txn_polarity(&p, mixed), Polarity::Mixed);
        let lifted = p.stronglift(com, stxn);
        assert_eq!(txn_polarity(&p, lifted), Polarity::Mixed);
        let closure = p.plus(pos);
        assert_eq!(txn_polarity(&p, closure), Polarity::Positive);
    }

    #[test]
    fn polarity_sees_through_relation_derived_sets() {
        // [dom(rmw) ∪ ran(rmw)] ; po — the x86 "implied" shape — must track
        // the rmw relation, even though it goes through set nodes.
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let dom = p.set_base(SetBase::RmwDomain);
        let ran = p.set_base(SetBase::RmwRange);
        let locked = p.set_union(dom, ran);
        let id_l = p.id_on(locked);
        let implied = p.seq(id_l, po);
        let of_rmw = |base: RelBase| {
            if base == RelBase::Rmw {
                Polarity::Positive
            } else {
                Polarity::Constant
            }
        };
        assert_eq!(rel_polarity(&p, implied, &of_rmw), Polarity::Positive);
        // Event-kind sets stay constant.
        let reads = p.set_base(SetBase::Reads);
        let id_r = p.id_on(reads);
        assert_eq!(rel_polarity(&p, id_r, &of_rmw), Polarity::Constant);
        // And nothing here depends on the transactional structure.
        assert_eq!(txn_polarity(&p, implied), Polarity::Constant);
    }

    /// A pool exercising every operator over the inputs the enumerator
    /// mutates, with an axiom per interesting head.
    fn incremental_fixture() -> (IrPool, Vec<Axiom>) {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let rf = p.base(RelBase::Rf);
        let co = p.base(RelBase::Co);
        let com = p.base(RelBase::Com);
        let stxn = p.base(RelBase::Stxn);
        let tfence = p.base(RelBase::Tfence);
        let rfe = p.base(RelBase::Rfe);
        let poloc = p.base(RelBase::Poloc);
        let reads = p.set_base(SetBase::Reads);
        let dom = p.set_base(SetBase::RmwDomain);
        let ran = p.set_base(SetBase::RmwRange);
        let locked = p.set_union(dom, ran);
        let id_l = p.id_on(locked);
        let implied = p.seq(id_l, po);
        let hb = {
            let u = p.union_all(&[po, rfe, implied, tfence]);
            p.plus(u)
        };
        let lifted = p.stronglift(com, stxn);
        let weak = p.weaklift(com, stxn);
        let poloc_com = p.union(poloc, com);
        let rf_star = p.star(rf);
        let inv = p.inverse(rf);
        let co_minus_rf = p.diff(co, rf);
        let id_r = p.id_on(reads);
        let chained = p.seq_all(&[id_r, rf_star, inv]);
        let axioms = vec![
            p.axiom("Order", AxiomHead::Acyclic, hb),
            p.axiom("Coherence", AxiomHead::Acyclic, poloc_com),
            p.axiom("StrongIsol", AxiomHead::Acyclic, lifted),
            p.axiom("WeakIsol", AxiomHead::Acyclic, weak),
            p.axiom("NoCoNotRf", AxiomHead::Empty, co_minus_rf),
            p.axiom("Chained", AxiomHead::Irreflexive, chained),
        ];
        (p, axioms)
    }

    /// Asserts the incremental evaluator agrees with a from-scratch
    /// [`IrEval`] on every axiom of the fixture.
    fn assert_matches_scratch(
        pool: &IrPool,
        axioms: &[Axiom],
        inc: &mut IncrementalEval<'_>,
        exec: &Execution,
        context: &str,
    ) {
        let view = ExecView::new(exec);
        let scratch = IrEval::new(pool, &view);
        for axiom in axioms {
            assert_eq!(
                *inc.rel(exec, axiom.body),
                *scratch.rel(axiom.body),
                "{context}: body of {} diverged",
                axiom.name
            );
            assert_eq!(
                inc.holds(exec, axiom),
                scratch.holds(axiom),
                "{context}: verdict of {} diverged",
                axiom.name
            );
            assert_eq!(
                inc.witness(exec, axiom),
                scratch.witness(axiom),
                "{context}: witness of {} diverged",
                axiom.name
            );
        }
    }

    #[test]
    fn incremental_matches_scratch_under_additions() {
        let (pool, axioms) = incremental_fixture();
        let mut exec = catalog::mp();
        let mut inc = IncrementalEval::new(&pool);
        inc.apply(&exec, &Delta::everything());
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "initial");

        // Pure additions: rf, co, rmw and dependency edges appear one at a
        // time — the semi-naïve path.
        let additions = [
            (RelBase::Co, 0, 2),
            (RelBase::Rf, 0, 3),
            (RelBase::Addr, 2, 3),
            (RelBase::Rmw, 2, 3),
            (RelBase::Data, 0, 1),
        ];
        for (step, &(base, a, b)) in additions.iter().enumerate() {
            let target = match base {
                RelBase::Rf => &mut exec.rf,
                RelBase::Co => &mut exec.co,
                RelBase::Addr => &mut exec.addr,
                RelBase::Data => &mut exec.data,
                RelBase::Rmw => &mut exec.rmw,
                _ => unreachable!(),
            };
            target.insert(a, b);
            let mut delta = Delta::new();
            delta.add_edge(base, a, b);
            assert!(delta.is_additions_only());
            inc.apply(&exec, &delta);
            assert_matches_scratch(&pool, &axioms, &mut inc, &exec, &format!("add {step}"));
        }
    }

    #[test]
    fn incremental_matches_scratch_under_removals_and_txn_flips() {
        let (pool, axioms) = incremental_fixture();
        let mut exec = catalog::mp_txn();
        let mut inc = IncrementalEval::new(&pool);
        inc.apply(&exec, &Delta::everything());
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "initial");

        // Remove an rf edge: invalidation path.
        let (w, r) = exec.rf.iter().next().expect("mp_txn has rf edges");
        exec.rf.remove(w, r);
        let mut delta = Delta::new();
        delta.remove_edge(RelBase::Rf, w, r);
        assert!(!delta.is_additions_only());
        inc.apply(&exec, &delta);
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "rf removal");

        // Dissolve the first transaction: stxn removals touch tfence (mixed
        // polarity) and the lifts.
        let txn_pairs: Vec<(usize, usize)> = exec.stxn.iter().collect();
        let mut delta = Delta::new();
        for &(a, b) in &txn_pairs {
            exec.stxn.remove(a, b);
            delta.remove_edge(RelBase::Stxn, a, b);
        }
        inc.apply(&exec, &delta);
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "txn dissolved");

        // Grow a fresh transaction by additions only.
        let mut delta = Delta::new();
        for a in [0usize, 1] {
            for b in [0usize, 1] {
                exec.stxn.insert(a, b);
                delta.add_edge(RelBase::Stxn, a, b);
            }
        }
        inc.apply(&exec, &delta);
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "txn regrown");
    }

    #[test]
    fn untouched_footprints_keep_cached_values_and_verdicts() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let rf = p.base(RelBase::Rf);
        let stxn = p.base(RelBase::Stxn);
        let po_rf = p.union(po, rf);
        let lifted = p.stronglift(po_rf, stxn);
        let order = p.axiom("Order", AxiomHead::Acyclic, po_rf);
        let txn_order = p.axiom("TxnOrder", AxiomHead::Acyclic, lifted);

        let mut inc = IncrementalEval::new(&p);
        // po ∪ rf depends on po and rf only; the lift also tracks stxn.
        assert!(inc.footprint(po_rf).intersects(DeltaMask::RF));
        assert!(!inc.footprint(po_rf).intersects(DeltaMask::STXN));
        assert!(inc.footprint(lifted).intersects(DeltaMask::STXN));
        assert!(inc.nonmonotone_inputs(lifted).intersects(DeltaMask::STXN));
        assert!(inc.nonmonotone_inputs(po_rf).is_empty());

        let mut exec = catalog::sb();
        inc.apply(&exec, &Delta::everything());
        let before = inc.rel(&exec, po_rf).clone();
        assert!(inc.holds(&exec, &order));
        assert!(inc.holds(&exec, &txn_order));

        // A transaction flip must not disturb the po ∪ rf node...
        exec.stxn.insert(0, 0);
        exec.stxn.insert(1, 1);
        exec.stxn.insert(0, 1);
        exec.stxn.insert(1, 0);
        let mut delta = Delta::new();
        for (a, b) in [(0, 0), (1, 1), (0, 1), (1, 0)] {
            delta.add_edge(RelBase::Stxn, a, b);
        }
        inc.apply(&exec, &delta);
        assert_eq!(*inc.rel(&exec, po_rf), before);
        assert!(inc.holds(&exec, &order));
        // ...while the lifted node sees the new transaction.
        let view = ExecView::new(&exec);
        let scratch = IrEval::new(&p, &view);
        assert_eq!(inc.holds(&exec, &txn_order), scratch.holds(&txn_order));
    }

    #[test]
    fn removals_are_maintained_not_invalidated() {
        let (pool, axioms) = incremental_fixture();
        let mut exec = catalog::mp_txn();
        let mut inc = IncrementalEval::new(&pool);
        inc.apply(&exec, &Delta::everything());
        // Materialise every axiom body, then remove edges one at a time.
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "initial");
        let removals: Vec<(RelBase, usize, usize)> = exec
            .rf
            .iter()
            .map(|(a, b)| (RelBase::Rf, a, b))
            .chain(exec.co.iter().map(|(a, b)| (RelBase::Co, a, b)))
            .chain(exec.stxn.iter().map(|(a, b)| (RelBase::Stxn, a, b)))
            .collect();
        for (base, a, b) in removals {
            match base {
                RelBase::Rf => exec.rf.remove(a, b),
                RelBase::Co => exec.co.remove(a, b),
                RelBase::Stxn => exec.stxn.remove(a, b),
                _ => unreachable!(),
            };
            let mut delta = Delta::new();
            delta.remove_edge(base, a, b);
            inc.apply(&exec, &delta);
            assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "removal");
        }
        let stats = inc.stats();
        assert_eq!(
            stats.invalidated, 0,
            "removals must be maintained, never invalidated by footprint"
        );
        assert!(
            stats.maintained > 0,
            "derived nodes were maintained in place"
        );
        assert!(stats.rebased > 0, "derived bases were re-read and diffed");
    }

    #[test]
    fn seq_support_counts_track_join_witnesses() {
        let mut p = IrPool::new();
        let rf = p.base(RelBase::Rf);
        let co = p.base(RelBase::Co);
        let seq = p.seq(rf, co);
        // Not a well-formed execution — the IR is pure relational algebra.
        let mut exec = catalog::sb();
        exec.rf.clear();
        exec.co.clear();
        for (a, b) in [(0, 1), (0, 2)] {
            exec.rf.insert(a, b);
        }
        for (a, b) in [(1, 3), (2, 3)] {
            exec.co.insert(a, b);
        }
        let mut inc = IncrementalEval::new(&p);
        inc.apply(&exec, &Delta::everything());
        assert!(inc.rel(&exec, seq).contains(0, 3));

        // (0, 3) has two witnesses: dropping one keeps the pair alive …
        exec.rf.remove(0, 1);
        let mut delta = Delta::new();
        delta.remove_edge(RelBase::Rf, 0, 1);
        inc.apply(&exec, &delta);
        assert!(inc.rel(&exec, seq).contains(0, 3));

        // … and dropping the second deletes it, with no invalidation.
        exec.rf.remove(0, 2);
        let mut delta = Delta::new();
        delta.remove_edge(RelBase::Rf, 0, 2);
        inc.apply(&exec, &delta);
        assert!(!inc.rel(&exec, seq).contains(0, 3));
        assert_eq!(inc.stats().invalidated, 0);
    }

    #[test]
    fn savepoint_rollback_restores_probe_state() {
        let (pool, axioms) = incremental_fixture();
        let mut exec = catalog::mp_txn();
        let mut inc = IncrementalEval::new(&pool);
        inc.apply(&exec, &Delta::everything());
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "initial");

        // Probe an edge removal and roll it back.
        let (w, r) = exec.rf.iter().next().expect("mp_txn has rf edges");
        inc.savepoint();
        exec.rf.remove(w, r);
        let mut delta = Delta::new();
        delta.remove_edge(RelBase::Rf, w, r);
        inc.apply(&exec, &delta);
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "probe");
        inc.rollback();
        exec.rf.insert(w, r);
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "rolled back");

        // A probe across a universe change (event removal) also rolls back.
        let smaller = exec.remove_event(0);
        inc.savepoint();
        inc.apply(&smaller, &Delta::everything());
        assert_matches_scratch(&pool, &axioms, &mut inc, &smaller, "smaller probe");
        inc.rollback();
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "universe restored");

        // Commit keeps the probed state instead.
        inc.savepoint();
        exec.stxn.clear();
        inc.apply(&exec, &Delta::everything());
        inc.commit();
        assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "committed");
    }

    #[test]
    fn annotation_edits_propagate_through_touch_annots() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let acq = p.set_base(SetBase::Acquires);
        let id_acq = p.id_on(acq);
        let acq_po = p.seq(id_acq, po);
        let order = p.axiom("AcqOrder", AxiomHead::Empty, acq_po);

        let mut exec = catalog::mp();
        exec.events[2].annot = Annot::acquire();
        let mut inc = IncrementalEval::new(&p);
        inc.apply(&exec, &Delta::everything());
        let before = inc.holds(&exec, &order);

        // Downgrade the acquire in place; only ANNOT-sensitive nodes move.
        exec.events[2].annot = Annot::PLAIN;
        let mut delta = Delta::new();
        delta.touch_annots();
        assert!(!delta.is_additions_only());
        inc.apply(&exec, &delta);
        let view = ExecView::new(&exec);
        let scratch = IrEval::new(&p, &view);
        assert_eq!(inc.holds(&exec, &order), scratch.holds(&order));
        assert_eq!(*inc.rel(&exec, acq_po), *scratch.rel(acq_po));
        assert_ne!(before, inc.holds(&exec, &order));
        // Every node here is monotone (annotation sets rebase exactly), so
        // the annotation probe maintains in place — nothing drops.
        assert_eq!(inc.stats().invalidated, 0);
        assert_eq!(inc.stats().dropped, 0);
        assert!(
            inc.stats().rebased > 0,
            "annotation sets re-read and diffed"
        );
    }

    /// In a pool built purely from monotone operators over monotone bases,
    /// *no* drop is legitimate: every removal delta must be absorbed by
    /// counting-based deletion / DRed rederivation in place. This is the
    /// falsifiable form of the no-invalidation guarantee — reintroducing
    /// any footprint-style fallback for removals surfaces here as
    /// `dropped > 0`, whichever counter it bumps.
    #[test]
    fn monotone_pool_removals_never_drop_any_node() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let rf = p.base(RelBase::Rf);
        let co = p.base(RelBase::Co);
        let rfe = p.base(RelBase::Rfe);
        let dom = p.set_base(SetBase::RmwDomain);
        let ran = p.set_base(SetBase::RmwRange);
        let locked = p.set_union(dom, ran);
        let id_l = p.id_on(locked);
        let implied = p.seq(id_l, po);
        let hb = {
            let u = p.union_all(&[po, rfe, implied, co]);
            p.plus(u)
        };
        let rf_co = p.seq(rf, co);
        let rf_star = p.star(rf);
        let inv = p.inverse(co);
        let opt = p.opt(rf_co);
        let axioms = vec![
            p.axiom("Order", AxiomHead::Acyclic, hb),
            p.axiom("RfCo", AxiomHead::Irreflexive, rf_co),
            p.axiom("Star", AxiomHead::Acyclic, rf_star),
            p.axiom("Inv", AxiomHead::Acyclic, inv),
            p.axiom("Opt", AxiomHead::Irreflexive, opt),
        ];

        let mut exec = catalog::mp();
        let mut inc = IncrementalEval::new(&p);
        inc.apply(&exec, &Delta::everything());
        assert_matches_scratch(&p, &axioms, &mut inc, &exec, "initial");

        // Toggle every editable family this pool reads, on and off.
        let mut rng_state = 0x5eedu64;
        let mut rng = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) as usize
        };
        let n = exec.len();
        for step in 0..60 {
            let (family, a, b) = (
                [RelBase::Rf, RelBase::Co, RelBase::Rmw][rng() % 3],
                rng() % n,
                rng() % n,
            );
            let rel = match family {
                RelBase::Rf => &mut exec.rf,
                RelBase::Co => &mut exec.co,
                RelBase::Rmw => &mut exec.rmw,
                _ => unreachable!(),
            };
            let mut delta = Delta::new();
            if rel.contains(a, b) {
                rel.remove(a, b);
                delta.remove_edge(family, a, b);
            } else {
                rel.insert(a, b);
                delta.add_edge(family, a, b);
            }
            inc.apply(&exec, &delta);
            assert_matches_scratch(&p, &axioms, &mut inc, &exec, &format!("toggle {step}"));
        }
        let stats = inc.stats();
        assert_eq!(stats.invalidated, 0, "invariant-breach fallback fired");
        assert_eq!(
            stats.dropped, 0,
            "a monotone node was dropped instead of maintained"
        );
        assert!(stats.maintained > 0);
    }

    #[test]
    fn full_delta_resets_across_universes() {
        let (pool, axioms) = incremental_fixture();
        let mut inc = IncrementalEval::new(&pool);
        for exec in [
            catalog::sb(),
            catalog::power_wrc_tprop1(),
            catalog::mp_txn(),
        ] {
            inc.apply(&exec, &Delta::everything());
            assert_matches_scratch(&pool, &axioms, &mut inc, &exec, "reset");
        }
    }

    #[test]
    fn fix_computes_the_plus_closure() {
        // let rec hb = po | com | (hb ; hb)  ≡  (po ∪ com)⁺.
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let com = p.base(RelBase::Com);
        let v = p.fresh_var();
        let vv = p.seq(v, v);
        let body = p.union_all(&[po, com, vv]);
        let hb = p.fix(&[v], &[body])[0];
        let u = p.union(po, com);
        let plus = p.plus(u);
        for exec in [catalog::sb(), catalog::mp_txn()] {
            let view = ExecView::new(&exec);
            let e = eval_pair(&p, &view);
            assert_eq!(*e.rel(hb), *e.rel(plus));
        }
    }

    #[test]
    fn mutual_fix_groups_solve_jointly() {
        // let rec a = rf | b and b = co | a: both components converge on
        // rf ∪ co.
        let mut p = IrPool::new();
        let rf = p.base(RelBase::Rf);
        let co = p.base(RelBase::Co);
        let va = p.fresh_var();
        let vb = p.fresh_var();
        let body_a = p.union(rf, vb);
        let body_b = p.union(co, va);
        let fixed = p.fix(&[va, vb], &[body_a, body_b]);
        let rf_co = p.union(rf, co);
        let exec = catalog::sb();
        let view = ExecView::new(&exec);
        let e = eval_pair(&p, &view);
        assert_eq!(*e.rel(fixed[0]), *e.rel(rf_co));
        assert_eq!(*e.rel(fixed[1]), *e.rel(rf_co));
    }

    #[test]
    fn var_polarity_tracks_recursion_signs() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let com = p.base(RelBase::Com);
        let v = p.fresh_var();
        let RelExpr::Var(idx) = p.rel_expr(v) else {
            unreachable!()
        };
        assert_eq!(var_polarity(&p, v, idx), Polarity::Positive);
        assert_eq!(var_polarity(&p, po, idx), Polarity::Constant);
        let grow = p.seq(v, po);
        assert_eq!(var_polarity(&p, grow, idx), Polarity::Positive);
        let closed = p.plus(grow);
        assert_eq!(var_polarity(&p, closed, idx), Polarity::Positive);
        let negated = p.diff(com, v);
        assert_eq!(var_polarity(&p, negated, idx), Polarity::Negative);
        let mixed = p.union(grow, negated);
        assert_eq!(var_polarity(&p, mixed, idx), Polarity::Mixed);
        let lifted = p.stronglift(com, v);
        assert_eq!(var_polarity(&p, lifted, idx), Polarity::Mixed);
    }

    #[test]
    fn incremental_fix_reiterates_under_deltas() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let rfe = p.base(RelBase::Rfe);
        let v = p.fresh_var();
        let vv = p.seq(v, v);
        let body = p.union_all(&[po, rfe, vv]);
        let hb = p.fix(&[v], &[body])[0];
        let axioms = vec![p.axiom("Order", AxiomHead::Acyclic, hb)];

        let mut inc = IncrementalEval::new(&p);
        // The fixpoint's footprint is its bodies', on both signs.
        assert!(inc.footprint(hb).intersects(DeltaMask::PO));
        assert!(inc.footprint(hb).intersects(DeltaMask::RF));
        assert!(inc.nonmonotone_inputs(hb).intersects(DeltaMask::RF));

        let mut exec = catalog::mp();
        inc.apply(&exec, &Delta::everything());
        assert_matches_scratch(&p, &axioms, &mut inc, &exec, "initial");

        exec.rf.insert(0, 3);
        let mut delta = Delta::new();
        delta.add_edge(RelBase::Rf, 0, 3);
        inc.apply(&exec, &delta);
        assert_matches_scratch(&p, &axioms, &mut inc, &exec, "rf added");

        exec.rf.remove(0, 3);
        let mut delta = Delta::new();
        delta.remove_edge(RelBase::Rf, 0, 3);
        inc.apply(&exec, &delta);
        assert_matches_scratch(&p, &axioms, &mut inc, &exec, "rf removed");

        let stats = inc.stats();
        assert!(stats.fix_reevals > 0, "fix nodes re-iterate, not maintain");
        assert_eq!(stats.invalidated, 0);
    }

    #[test]
    fn costs_order_cheap_axioms_first() {
        let mut p = IrPool::new();
        let po = p.base(RelBase::Po);
        let rf = p.base(RelBase::Rf);
        let cheap = p.axiom("Cheap", AxiomHead::Empty, rf);
        let seq = p.seq(po, rf);
        let closed = p.star(seq);
        let pricey = p.axiom("Pricey", AxiomHead::Acyclic, closed);
        assert!(cheap.cost < pricey.cost);
    }
}
