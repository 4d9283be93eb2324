//! The paper's models as declarative axiom tables over the relational IR.
//!
//! Each model of Fig. 4 (SC/TSC), Fig. 5 (x86 ± TM), Fig. 6 (Power ± TM),
//! Fig. 8 (ARMv8 ± TM) and Fig. 9 (C++ ± TM) — plus the §3.3 isolation
//! axioms and the §8.3 `CROrder` axiom — is declared here as a list of
//! [`Axiom`]s whose bodies are interned into **one shared**
//! [`IrPool`](tm_exec::ir::IrPool). Hash-consing makes sharing structural:
//! `acyclic(poloc ∪ com)` is one node tree whether x86, Power or ARMv8 asks,
//! and the evaluator computes it once per execution however many models
//! check it (see [`tm_exec::ir`]).
//!
//! Every model is an [`IrModel`]: an axiom table plus the pool its bodies
//! live in. A built-in model (from [`Target::model`] or the `X86Model`-style
//! constructors) owns a copy of its catalog table and *borrows* the catalog
//! pool; a model defined in Rust or loaded from `.cat` text owns a private
//! pool. Either way it is checked per execution by [`IrEval`] and along an
//! enumeration by its [`IncrementalModelChecker`].
//!
//! `tests/ir_parity.rs` pins the built-in verdicts (counts and witness
//! digests on the catalog and on every enumerated execution at small
//! bounds) and checks the evaluation strategies against each other — the
//! memoized and recomputing views, the full-verdict and early-exit paths —
//! and `tests/incremental_parity.rs` checks the incremental checker driven
//! by the delta-threading enumeration against all of them.
//!
//! # Defining a new model
//!
//! A model is nothing but axioms, so a new one is a table, not a Rust
//! module. [`IrModel::new`] packages a table built in a private pool:
//!
//! ```
//! use tm_exec::catalog;
//! use tm_exec::ir::{AxiomHead, RelBase};
//! use tm_models::ir::IrModel;
//! use tm_models::MemoryModel;
//!
//! // "Transactional coherence": SC per location, plus weak isolation.
//! let model = IrModel::new("SC-per-loc+WeakIsol", |p| {
//!     let poloc = p.base(RelBase::Poloc);
//!     let com = p.base(RelBase::Com);
//!     let stxn = p.base(RelBase::Stxn);
//!     let coherence = p.union(poloc, com);
//!     let lifted = p.weaklift(com, stxn);
//!     vec![
//!         p.axiom("Coherence", AxiomHead::Acyclic, coherence),
//!         p.axiom("WeakIsol", AxiomHead::Acyclic, lifted),
//!     ]
//! });
//! assert!(model.is_consistent(&catalog::sb()));
//! assert!(!model.is_consistent(&catalog::lb_txn()));
//! assert!(model.check(&catalog::fig1()).violates("Coherence"));
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

use tm_exec::hash::Fnv1a;
use tm_exec::ir::{
    Axiom, AxiomHead, Delta, IncrementalEval, IrEval, IrPool, RelBase, RelExpr, RelId, SetBase,
    SetExpr, SetId,
};
use tm_exec::{ExecView, Fence};

use crate::{CheckerTelemetry, DeltaChecker, MemoryModel, Target, Verdict};

/// The axiom table of one model variant: axioms in declaration order (the
/// order verdicts report them in) plus a cheapest-first order for early-exit
/// boolean sweeps.
#[derive(Clone, Debug)]
pub struct ModelAxioms {
    name: Cow<'static, str>,
    axioms: Vec<Axiom>,
    by_cost: Vec<usize>,
}

impl ModelAxioms {
    /// Packages a named list of axioms, precomputing the cheapest-first
    /// check order. Public so runtime loaders (the `tm-cat` crate) can build
    /// tables outside this crate.
    pub fn new(name: impl Into<Cow<'static, str>>, axioms: Vec<Axiom>) -> ModelAxioms {
        let mut by_cost: Vec<usize> = (0..axioms.len()).collect();
        by_cost.sort_by_key(|&i| axioms[i].cost);
        ModelAxioms {
            name: name.into(),
            axioms,
            by_cost,
        }
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The display name as a clonable [`Cow`] (free for built-in tables).
    pub fn name_cow(&self) -> Cow<'static, str> {
        self.name.clone()
    }

    /// The axioms in declaration (reporting) order.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// The axioms ordered by estimated evaluation cost, cheapest first.
    pub fn in_cost_order(&self) -> impl Iterator<Item = &Axiom> {
        self.by_cost.iter().map(|&i| &self.axioms[i])
    }
}

/// The shared axiom catalog: one pool, ten model tables, the isolation
/// axioms, `CROrder` and C++ race freedom.
#[derive(Debug)]
pub struct IrCatalog {
    pool: IrPool,
    sc: ModelAxioms,
    tsc: ModelAxioms,
    x86: ModelAxioms,
    x86_tm: ModelAxioms,
    power: ModelAxioms,
    power_tm: ModelAxioms,
    armv8: ModelAxioms,
    armv8_tm: ModelAxioms,
    cpp: ModelAxioms,
    cpp_tm: ModelAxioms,
    cr_order: Axiom,
    weak_isol: Axiom,
    strong_isol: Axiom,
    strong_isol_atomic: Axiom,
    no_race: Axiom,
    no_race_tm: Axiom,
}

impl IrCatalog {
    /// The pool every table's bodies are interned in.
    pub fn pool(&self) -> &IrPool {
        &self.pool
    }

    /// The axiom table of a target model.
    pub fn model(&self, target: Target) -> &ModelAxioms {
        match target {
            Target::Sc => &self.sc,
            Target::Tsc => &self.tsc,
            Target::X86 => &self.x86,
            Target::X86Tm => &self.x86_tm,
            Target::Power => &self.power,
            Target::PowerTm => &self.power_tm,
            Target::Armv8 => &self.armv8,
            Target::Armv8Tm => &self.armv8_tm,
            Target::Cpp => &self.cpp,
            Target::CppTm => &self.cpp_tm,
        }
    }

    /// The `CROrder` axiom of §8.3 (opt-in on the hardware models).
    pub fn cr_order(&self) -> &Axiom {
        &self.cr_order
    }

    /// The `WeakIsol` axiom of §3.3.
    pub fn weak_isol(&self) -> &Axiom {
        &self.weak_isol
    }

    /// The `StrongIsol` axiom of §3.3.
    pub fn strong_isol(&self) -> &Axiom {
        &self.strong_isol
    }

    /// `StrongIsol` lifted over atomic transactions only (Theorem 7.2).
    pub fn strong_isol_atomic(&self) -> &Axiom {
        &self.strong_isol_atomic
    }

    /// The `NoRace` axiom of Fig. 9 over the C++ (`transactional` false) or
    /// C++ TM happens-before: no two conflicting events, not both atomic,
    /// are unordered by `hb`. A hypothesis of Theorems 7.2 and 7.3, not an
    /// axiom of either C++ table.
    pub fn no_race(&self, transactional: bool) -> &Axiom {
        if transactional {
            &self.no_race_tm
        } else {
            &self.no_race
        }
    }
}

/// The process-wide catalog, built once on first use.
pub fn catalog() -> &'static IrCatalog {
    static CATALOG: OnceLock<IrCatalog> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> IrCatalog {
    // Room for every node below (227 relations, 23 sets), so building the
    // catalog never rehashes the pool's intern tables.
    let mut pool = IrPool::with_capacity(256, 32);
    let p = &mut pool;

    // ---- vocabulary shared across models ---------------------------------
    let po = p.base(RelBase::Po);
    let rf = p.base(RelBase::Rf);
    let co = p.base(RelBase::Co);
    let rmw = p.base(RelBase::Rmw);
    let stxn = p.base(RelBase::Stxn);
    let scr = p.base(RelBase::Scr);
    let com = p.base(RelBase::Com);
    let poloc = p.base(RelBase::Poloc);
    let fr = p.base(RelBase::Fr);
    let rfe = p.base(RelBase::Rfe);
    let rfi = p.base(RelBase::Rfi);
    let coe = p.base(RelBase::Coe);
    let fre = p.base(RelBase::Fre);
    let come = p.base(RelBase::Come);
    let tfence = p.base(RelBase::Tfence);
    let reads = p.set_base(SetBase::Reads);
    let writes = p.set_base(SetBase::Writes);
    let id_r = p.id_on(reads);
    let id_w = p.id_on(writes);

    // Axiom bodies common to several models (Fig. 5/6/8).
    let coherence_body = p.union(poloc, com);
    let fre_coe = p.seq(fre, coe);
    let rmw_isol_body = p.inter(rmw, fre_coe);
    let strong_isol_body = p.stronglift(com, stxn);
    let tfence_plus = p.plus(tfence);
    let txn_cancels_body = p.inter(rmw, tfence_plus);
    let po_com = p.union(po, com);

    // The dependency-ordered fragment shared verbatim by the Power `ppo`
    // and ARMv8 `dob` approximations.
    let addr = p.base(RelBase::Addr);
    let data = p.base(RelBase::Data);
    let ctrl = p.base(RelBase::Ctrl);
    let deps = p.union(addr, data);
    let deps_rfi = p.seq(deps, rfi);
    let ctrl_w = p.seq(ctrl, id_w);
    let dep_order = {
        let parts = p.union_all(&[deps, deps_rfi, ctrl_w]);
        p.inter(parts, po)
    };

    // ---- Fig. 4: SC and TSC ----------------------------------------------
    let sc_order = p.axiom("Order", AxiomHead::Acyclic, po_com);
    let tsc_lift = p.stronglift(po_com, stxn);
    let sc = ModelAxioms::new("SC", vec![sc_order.clone()]);
    let tsc = ModelAxioms::new(
        "TSC",
        vec![sc_order, p.axiom("TxnOrder", AxiomHead::Acyclic, tsc_lift)],
    );

    // ---- Fig. 5: x86 ± TM -------------------------------------------------
    let x86_hb_base = {
        // ppo = ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po — everything except W→R.
        let ww = p.cross(writes, writes);
        let rw = p.cross(reads, writes);
        let rr = p.cross(reads, reads);
        let ppo = {
            let u = p.union_all(&[ww, rw, rr]);
            p.inter(u, po)
        };
        // implied = [L] ; po ∪ po ; [L], L the LOCK'd RMW events.
        let rmw_dom = p.set_base(SetBase::RmwDomain);
        let rmw_ran = p.set_base(SetBase::RmwRange);
        let locked = p.set_union(rmw_dom, rmw_ran);
        let id_l = p.id_on(locked);
        let implied_pre = p.seq(id_l, po);
        let implied_post = p.seq(po, id_l);
        let mfence = p.base(RelBase::FenceRel(Fence::MFence));
        p.union_all(&[mfence, ppo, implied_pre, implied_post, rfe, fr, co])
    };
    let x86_hb_tm = p.union(x86_hb_base, tfence);
    let x86_axioms = |p: &mut IrPool, hb: RelId, tm: bool| {
        let mut axioms = vec![
            p.axiom("Coherence", AxiomHead::Acyclic, coherence_body),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
            p.axiom("Order", AxiomHead::Acyclic, hb),
        ];
        if tm {
            let txn_lift = p.stronglift(hb, stxn);
            axioms.push(p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body));
            axioms.push(p.axiom("TxnOrder", AxiomHead::Acyclic, txn_lift));
        }
        axioms
    };
    let x86 = ModelAxioms::new("x86", x86_axioms(p, x86_hb_base, false));
    let x86_tm = ModelAxioms::new("x86+TM", x86_axioms(p, x86_hb_tm, true));

    // ---- Fig. 6: Power ± TM -----------------------------------------------
    let lwsync_body = {
        // lwsync \ (W × R): the lightweight barrier does not order W→R.
        let lwsync = p.base(RelBase::FenceRel(Fence::Lwsync));
        let wr = p.cross(writes, reads);
        p.diff(lwsync, wr)
    };
    let sync = p.base(RelBase::FenceRel(Fence::Sync));
    let power_table = |p: &mut IrPool, tm: bool| {
        let fence = if tm {
            p.union_all(&[lwsync_body, sync, tfence])
        } else {
            p.union(lwsync_body, sync)
        };
        let ihb = p.union(dep_order, fence);
        let rfe_q = p.opt(rfe);
        let hb_thread = p.seq_all(&[rfe_q, ihb, rfe_q]);
        let hb = if tm {
            // thb = (rfe ∪ (fre ∪ coe)* ; ihb)* ; (fre ∪ coe)* ; rfe?
            let fre_coe_star = {
                let u = p.union(fre, coe);
                p.star(u)
            };
            let step = {
                let chained = p.seq(fre_coe_star, ihb);
                let u = p.union(rfe, chained);
                p.star(u)
            };
            let thb = p.seq_all(&[step, fre_coe_star, rfe_q]);
            let lifted = p.weaklift(thb, stxn);
            p.union(hb_thread, lifted)
        } else {
            hb_thread
        };
        let hb_star = p.star(hb);
        let efence = p.seq_all(&[rfe_q, fence, rfe_q]);
        let prop1 = p.seq_all(&[id_w, efence, hb_star, id_w]);
        let strong_fence = if tm { p.union(sync, tfence) } else { sync };
        let prop2 = {
            let come_star = p.star(come);
            let efence_star = p.star(efence);
            p.seq_all(&[come_star, efence_star, hb_star, strong_fence, hb_star])
        };
        let mut prop_parts = vec![prop1, prop2];
        if tm {
            // tprop1 = rfe ; stxn ; [W] and tprop2 = stxn ; rfe (§5.2).
            prop_parts.push(p.seq_all(&[rfe, stxn, id_w]));
            prop_parts.push(p.seq(stxn, rfe));
        }
        let prop = p.union_all(&prop_parts);
        let propagation_body = p.union(co, prop);
        let observation_body = p.seq_all(&[fre, prop, hb_star]);
        let mut axioms = vec![
            p.axiom("Coherence", AxiomHead::Acyclic, coherence_body),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
            p.axiom("Order", AxiomHead::Acyclic, hb),
            p.axiom("Propagation", AxiomHead::Acyclic, propagation_body),
            p.axiom("Observation", AxiomHead::Irreflexive, observation_body),
        ];
        if tm {
            let txn_lift = p.stronglift(hb, stxn);
            axioms.push(p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body));
            axioms.push(p.axiom("TxnOrder", AxiomHead::Acyclic, txn_lift));
            axioms.push(p.axiom("TxnCancelsRMW", AxiomHead::Empty, txn_cancels_body));
        }
        axioms
    };
    let power = ModelAxioms::new("Power", power_table(p, false));
    let power_tm = ModelAxioms::new("Power+TM", power_table(p, true));

    // ---- Fig. 8: ARMv8 ± TM -----------------------------------------------
    let armv8_ob_base = {
        // dob is the same dependency fragment as the Power ppo: hash-consing
        // makes that sharing literal.
        let dob = dep_order;
        // aob = rmw ∪ [ran(rmw)] ; rfi ; [Acq ∩ R].
        let acquires = p.set_base(SetBase::Acquires);
        let acq_r = p.set_inter(acquires, reads);
        let id_acq_r = p.id_on(acq_r);
        let aob = {
            let rmw_ran = p.set_base(SetBase::RmwRange);
            let id_rmw_w = p.id_on(rmw_ran);
            let chain = p.seq_all(&[id_rmw_w, rfi, id_acq_r]);
            p.union(rmw, chain)
        };
        // bob: DMB variants plus the one-way acquire/release barriers.
        let bob = {
            let dmb = p.base(RelBase::FenceRel(Fence::Dmb));
            let dmb_ld = {
                let f = p.base(RelBase::FenceRel(Fence::DmbLd));
                p.seq(id_r, f)
            };
            let dmb_st = {
                let f = p.base(RelBase::FenceRel(Fence::DmbSt));
                p.seq_all(&[id_w, f, id_w])
            };
            let releases = p.set_base(SetBase::Releases);
            let rel_w = p.set_inter(releases, writes);
            let id_rel_w = p.id_on(rel_w);
            let acq_first = p.seq(id_acq_r, po);
            let rel_last = p.seq(po, id_rel_w);
            let rel_acq = p.seq_all(&[id_rel_w, po, id_acq_r]);
            p.union_all(&[dmb, dmb_ld, dmb_st, acq_first, rel_last, rel_acq])
        };
        p.union_all(&[come, dob, aob, bob])
    };
    let armv8_ob_tm = p.union(armv8_ob_base, tfence);
    let armv8_axioms = |p: &mut IrPool, ob: RelId, tm: bool| {
        let mut axioms = vec![
            p.axiom("Coherence", AxiomHead::Acyclic, coherence_body),
            p.axiom("Order", AxiomHead::Acyclic, ob),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
        ];
        if tm {
            let txn_lift = p.stronglift(ob, stxn);
            axioms.push(p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body));
            axioms.push(p.axiom("TxnOrder", AxiomHead::Acyclic, txn_lift));
            axioms.push(p.axiom("TxnCancelsRMW", AxiomHead::Empty, txn_cancels_body));
        }
        axioms
    };
    let armv8 = ModelAxioms::new("ARMv8", armv8_axioms(p, armv8_ob_base, false));
    let armv8_tm = ModelAxioms::new("ARMv8+TM", armv8_axioms(p, armv8_ob_tm, true));

    // ---- Fig. 9: C++ ± TM -------------------------------------------------
    let cpp_table = |p: &mut IrPool, tm: bool| -> (Vec<Axiom>, RelId) {
        let fences = p.set_base(SetBase::Fences);
        let f_acq = p.set_base(SetBase::FencesOf(Fence::FenceAcq));
        let f_rel = p.set_base(SetBase::FencesOf(Fence::FenceRel));
        let f_sc = p.set_base(SetBase::FencesOf(Fence::FenceSc));
        let acquires = p.set_base(SetBase::Acquires);
        let releases = p.set_base(SetBase::Releases);
        let sc_events = p.set_base(SetBase::ScEvents);
        let atomics = p.set_base(SetBase::Atomics);
        let acq_s = {
            let u = p.set_union(acquires, f_acq);
            p.set_union(u, f_sc)
        };
        let rel_s = {
            let u = p.set_union(releases, f_rel);
            p.set_union(u, f_sc)
        };
        let sc_s = p.set_union(sc_events, f_sc);
        // rs = [W] ; poloc? ; [W ∩ Ato] ; (rf ; rmw)*.
        let rs = {
            let w_ato = p.set_inter(writes, atomics);
            let id_w_ato = p.id_on(w_ato);
            let poloc_q = p.opt(poloc);
            let rf_rmw_star = {
                let s = p.seq(rf, rmw);
                p.star(s)
            };
            p.seq_all(&[id_w, poloc_q, id_w_ato, rf_rmw_star])
        };
        // sw = [Rel] ; ([F] ; po)? ; rs ; rf ; [R ∩ Ato] ; (po ; [F])? ; [Acq].
        let sw = {
            let id_rel = p.id_on(rel_s);
            let id_acq = p.id_on(acq_s);
            let id_f = p.id_on(fences);
            let fence_po = {
                let s = p.seq(id_f, po);
                p.opt(s)
            };
            let po_fence = {
                let s = p.seq(po, id_f);
                p.opt(s)
            };
            let r_ato = p.set_inter(reads, atomics);
            let id_r_ato = p.id_on(r_ato);
            p.seq_all(&[id_rel, fence_po, rs, rf, id_r_ato, po_fence, id_acq])
        };
        // hb = (sw ∪ tsw ∪ po)+, tsw = weaklift(ecom, stxn) with TM (§7.2).
        let hb = {
            let mut parts = vec![sw, po];
            if tm {
                let ecom = p.base(RelBase::Ecom);
                parts.push(p.weaklift(ecom, stxn));
            }
            let u = p.union_all(&parts);
            p.plus(u)
        };
        // psc, following RC11.
        let psc = {
            let hb_q = p.opt(hb);
            let sc_fences = p.set_inter(sc_s, fences);
            let id_sc = p.id_on(sc_s);
            let id_f_sc = p.id_on(sc_fences);
            let eco = p.plus(com);
            // scb = po ∪ (po\loc ; hb ; po\loc) ∪ (hb ∩ sloc) ∪ co ∪ fr.
            let po_nl = p.base(RelBase::PoDiffLoc);
            let sloc = p.base(RelBase::Sloc);
            let hb_between = p.seq_all(&[po_nl, hb, po_nl]);
            let hb_loc = p.inter(hb, sloc);
            let scb = p.union_all(&[po, hb_between, hb_loc, co, fr]);
            let left = {
                let s = p.seq(id_f_sc, hb_q);
                p.union(id_sc, s)
            };
            let right = {
                let s = p.seq(hb_q, id_f_sc);
                p.union(id_sc, s)
            };
            let main = p.seq_all(&[left, scb, right]);
            let psc_f = {
                let through_eco = p.seq_all(&[hb, eco, hb]);
                let u = p.union(hb, through_eco);
                p.seq_all(&[id_f_sc, u, id_f_sc])
            };
            p.union(main, psc_f)
        };
        let hb_com_body = {
            let com_star = p.star(com);
            p.seq(hb, com_star)
        };
        let no_thin_air_body = p.union(po, rf);
        let axioms = vec![
            p.axiom("HbCom", AxiomHead::Irreflexive, hb_com_body),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
            p.axiom("NoThinAir", AxiomHead::Acyclic, no_thin_air_body),
            p.axiom("SeqCst", AxiomHead::Acyclic, psc),
        ];
        (axioms, hb)
    };
    let (cpp_axioms, cpp_hb) = cpp_table(p, false);
    let cpp = ModelAxioms::new("C++", cpp_axioms);
    let (cpp_tm_axioms, cpp_tm_hb) = cpp_table(p, true);
    let cpp_tm = ModelAxioms::new("C++(TM)", cpp_tm_axioms);

    // ---- §3.3 isolation and §8.3 CROrder ----------------------------------
    let weak_isol_body = p.weaklift(com, stxn);
    let stxnat = p.base(RelBase::Stxnat);
    let strong_isol_atomic_body = p.stronglift(com, stxnat);
    let cr_order_body = p.weaklift(po_com, scr);

    // ---- Fig. 9 NoRace: cnf \ ((Ato × Ato) ∪ hb ∪ hb⁻¹) is empty ------------
    let no_race = |p: &mut IrPool, hb: RelId| {
        let cnf = p.base(RelBase::Cnf);
        let atomics = p.set_base(SetBase::Atomics);
        let both_atomic = p.cross(atomics, atomics);
        let hb_inv = p.inverse(hb);
        let ordered = p.union_all(&[both_atomic, hb, hb_inv]);
        let races = p.diff(cnf, ordered);
        p.axiom("NoRace", AxiomHead::Empty, races)
    };
    let no_race_base = no_race(p, cpp_hb);
    let no_race_tm = no_race(p, cpp_tm_hb);

    IrCatalog {
        cr_order: p.axiom("CROrder", AxiomHead::Acyclic, cr_order_body),
        weak_isol: p.axiom("WeakIsol", AxiomHead::Acyclic, weak_isol_body),
        strong_isol: p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body),
        strong_isol_atomic: p.axiom(
            "StrongIsolAtomic",
            AxiomHead::Acyclic,
            strong_isol_atomic_body,
        ),
        no_race: no_race_base,
        no_race_tm,
        pool,
        sc,
        tsc,
        x86,
        x86_tm,
        power,
        power_tm,
        armv8,
        armv8_tm,
        cpp,
        cpp_tm,
    }
}

/// Evaluates a single standalone axiom (isolation, `CROrder`, `NoRace`) on
/// a view.
pub(crate) fn axiom_holds(axiom: &Axiom, view: &ExecView<'_>) -> bool {
    IrEval::new(catalog().pool(), view).holds(axiom)
}

// ---- models ------------------------------------------------------------------

/// Where an [`IrModel`]'s axiom bodies are interned.
#[derive(Debug)]
enum Pool {
    /// A private pool: a model defined in Rust or loaded from `.cat` text.
    Owned(Box<IrPool>),
    /// The shared [`catalog`] pool: a built-in model.
    Catalog,
}

/// A memory model defined entirely by an axiom table — the one
/// [`MemoryModel`] of this crate.
///
/// The model owns its table. Its bodies live either in a private pool (a
/// model built by [`IrModel::new`] or loaded from `.cat` text through
/// [`IrModel::from_parts`]) or in the shared [`catalog`] pool (a built-in
/// model, from [`Target::model`]: *catalog-backed*). Checking evaluates the
/// table with [`IrEval`] (per-execution common-subexpression memoization
/// included) or, along an enumeration, with [`IrModel::incremental`]. See
/// the module docs for a worked example.
#[derive(Debug)]
pub struct IrModel {
    pool: Pool,
    table: ModelAxioms,
}

impl IrModel {
    /// Builds a model named `name` from the axioms `define` interns into the
    /// given pool.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        define: impl FnOnce(&mut IrPool) -> Vec<Axiom>,
    ) -> IrModel {
        let mut pool = IrPool::new();
        let axioms = define(&mut pool);
        IrModel::from_parts(name, pool, axioms)
    }

    /// Packages a pool and a pre-built axiom table as a model — the entry
    /// point for runtime loaders (the `tm-cat` elaborator) whose
    /// construction can fail halfway and therefore cannot run inside the
    /// infallible [`IrModel::new`] closure.
    pub fn from_parts(
        name: impl Into<Cow<'static, str>>,
        pool: IrPool,
        axioms: Vec<Axiom>,
    ) -> IrModel {
        IrModel {
            pool: Pool::Owned(Box::new(pool)),
            table: ModelAxioms::new(name, axioms),
        }
    }

    /// The built-in model of `target`: a copy of its catalog table over the
    /// catalog pool.
    pub(crate) fn builtin(target: Target) -> IrModel {
        IrModel {
            pool: Pool::Catalog,
            table: catalog().model(target).clone(),
        }
    }

    /// Appends the catalog's `CROrder` axiom (serialisability of critical
    /// regions, §8.3) as the table's last axiom: the specification that
    /// lock-elision checking holds an implementation to.
    ///
    /// # Panics
    ///
    /// Panics unless the model is catalog-backed (see
    /// [`with_catalog_axiom`](IrModel::with_catalog_axiom)).
    pub fn with_cr_order(self) -> IrModel {
        self.with_catalog_axiom(catalog().cr_order())
    }

    /// Appends a standalone axiom of the [`catalog`] (`CROrder`, `NoRace`,
    /// an isolation axiom) as the table's last axiom, so one checker
    /// answers for the model and the extra condition together.
    ///
    /// # Panics
    ///
    /// Panics unless the model is catalog-backed: the axiom's body lives in
    /// the catalog pool.
    pub fn with_catalog_axiom(self, axiom: &Axiom) -> IrModel {
        assert!(
            matches!(self.pool, Pool::Catalog),
            "`{}` owns its pool; only a built-in model takes a catalog axiom",
            self.table.name()
        );
        let ModelAxioms {
            name, mut axioms, ..
        } = self.table;
        axioms.push(axiom.clone());
        IrModel {
            pool: Pool::Catalog,
            table: ModelAxioms::new(name, axioms),
        }
    }

    /// The model's axiom table.
    pub fn table(&self) -> &ModelAxioms {
        &self.table
    }

    /// The pool the table's bodies are interned in.
    pub fn pool(&self) -> &IrPool {
        match &self.pool {
            Pool::Owned(pool) => pool,
            Pool::Catalog => catalog().pool(),
        }
    }

    /// A stateful delta-driven checker for this model, for use with
    /// `tm_synth::enumerate`.
    pub fn incremental(&self) -> IncrementalModelChecker<'_> {
        IncrementalModelChecker {
            eval: IncrementalEval::new(self.pool()),
            table: &self.table,
            early_exits: 0,
        }
    }
}

impl MemoryModel for IrModel {
    fn name(&self) -> &str {
        self.table.name()
    }

    fn axioms(&self) -> Vec<&str> {
        self.table
            .axioms()
            .iter()
            .map(|a| a.name.as_ref())
            .collect()
    }

    fn check_view(&self, view: &ExecView<'_>) -> Verdict {
        let eval = IrEval::new(self.pool(), view);
        let mut verdict = Verdict::consistent(self.table.name_cow());
        for axiom in self.table.axioms() {
            if let Some(witness) = eval.witness(axiom) {
                verdict.push(axiom.name.clone(), Some(witness));
            }
        }
        verdict
    }

    fn is_consistent_view(&self, view: &ExecView<'_>) -> bool {
        let eval = IrEval::new(self.pool(), view);
        self.table.in_cost_order().all(|axiom| eval.holds(axiom))
    }

    fn incremental_checker(&self) -> Option<Box<dyn DeltaChecker + '_>> {
        Some(Box::new(self.incremental()))
    }

    fn content_hash(&self) -> Option<u64> {
        let mut hasher = ContentHasher::new(self.pool());
        let mut h = Fnv1a::new();
        for axiom in self.table.axioms() {
            h.bytes(axiom.name.as_bytes()).byte(0xff);
            h.byte(axiom.head as u8);
            h.u64(hasher.rel(axiom.body));
        }
        Some(h.finish())
    }
}

/// Structural hashing of axiom bodies. A node hashes by its operator and
/// its operands' hashes, never by its id, so the hash survives whatever
/// changes interning order but not meaning: renamed `let`s, reflowed text,
/// comments, `include` layout. Hash-consing orders the operands of `|` and
/// `&` by id, so a chain of either hashes as the sorted multiset of its
/// operands. A recursion variable hashes by its position among the
/// binders of the enclosing `let rec` groups, not by its pool-wide number.
struct ContentHasher<'p> {
    pool: &'p IrPool,
    /// Hashes of closed relation nodes, each computed once.
    rels: HashMap<RelId, u64>,
    /// The variables of the enclosing fixpoint groups, innermost last.
    scopes: Vec<&'p [u32]>,
}

impl<'p> ContentHasher<'p> {
    fn new(pool: &'p IrPool) -> ContentHasher<'p> {
        ContentHasher {
            pool,
            rels: HashMap::new(),
            scopes: Vec::new(),
        }
    }

    /// FNV-1a over a tag and the operand hashes, in the given order.
    fn node(tag: &str, operands: &[u64]) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(tag.as_bytes());
        for &op in operands {
            h.u64(op);
        }
        h.finish()
    }

    /// A commutative chain: every operand of nested `op` nodes under `id`,
    /// hashed and sorted.
    fn chain(&mut self, tag: &str, id: RelId, op: fn(RelExpr) -> Option<(RelId, RelId)>) -> u64 {
        let mut stack = vec![id];
        let mut operands = Vec::new();
        while let Some(id) = stack.pop() {
            match op(self.pool.rel_expr(id)) {
                Some((a, b)) => stack.extend([a, b]),
                None => operands.push(self.rel(id)),
            }
        }
        operands.sort_unstable();
        Self::node(tag, &operands)
    }

    fn rel(&mut self, id: RelId) -> u64 {
        let closed = self.pool.rel_free_vars(id).is_empty();
        if closed {
            if let Some(&h) = self.rels.get(&id) {
                return h;
            }
        }
        let h = match self.pool.rel_expr(id) {
            RelExpr::Base(base) => Self::node(&format!("{base:?}"), &[]),
            RelExpr::IdOn(s) => Self::node("[]", &[self.set(s)]),
            RelExpr::Cross(a, b) => Self::node("cross", &[self.set(a), self.set(b)]),
            RelExpr::Seq(a, b) => Self::node(";", &[self.rel(a), self.rel(b)]),
            RelExpr::Union(..) => self.chain("|", id, |e| match e {
                RelExpr::Union(a, b) => Some((a, b)),
                _ => None,
            }),
            RelExpr::Inter(..) => self.chain("&", id, |e| match e {
                RelExpr::Inter(a, b) => Some((a, b)),
                _ => None,
            }),
            RelExpr::Diff(a, b) => Self::node("\\", &[self.rel(a), self.rel(b)]),
            RelExpr::Inverse(a) => Self::node("^-1", &[self.rel(a)]),
            RelExpr::Opt(a) => Self::node("?", &[self.rel(a)]),
            RelExpr::Plus(a) => Self::node("+", &[self.rel(a)]),
            RelExpr::Star(a) => Self::node("*", &[self.rel(a)]),
            RelExpr::WeakLift(a, t) => Self::node("weaklift", &[self.rel(a), self.rel(t)]),
            RelExpr::StrongLift(a, t) => Self::node("stronglift", &[self.rel(a), self.rel(t)]),
            RelExpr::Var(v) => {
                let (depth, index) = self
                    .scopes
                    .iter()
                    .rev()
                    .enumerate()
                    .find_map(|(depth, vars)| vars.iter().position(|&w| w == v).map(|i| (depth, i)))
                    .expect("a recursion variable is only reachable inside its group");
                Self::node("var", &[depth as u64, index as u64])
            }
            RelExpr::Fix(g, i) => {
                self.scopes.push(self.pool.fix_vars(g));
                let mut operands = vec![u64::from(i)];
                for &body in self.pool.fix_bodies(g) {
                    operands.push(self.rel(body));
                }
                self.scopes.pop();
                Self::node("fix", &operands)
            }
        };
        if closed {
            self.rels.insert(id, h);
        }
        h
    }

    fn set(&mut self, id: SetId) -> u64 {
        // Sets are few and never recursive: no memo needed.
        let mut stack = vec![id];
        let mut operands = Vec::new();
        let tag = match self.pool.set_expr(id) {
            SetExpr::Base(base) => return Self::node(&format!("{base:?}"), &[]),
            SetExpr::Union(..) => "|",
            SetExpr::Inter(..) => "&",
        };
        while let Some(id) = stack.pop() {
            match (tag, self.pool.set_expr(id)) {
                ("|", SetExpr::Union(a, b)) | ("&", SetExpr::Inter(a, b)) => stack.extend([a, b]),
                _ => operands.push(self.set(id)),
            }
        }
        operands.sort_unstable();
        Self::node(tag, &operands)
    }
}

/// A stateful, delta-driven checker for one [`IrModel`], so built-in models
/// and models loaded at runtime (e.g. from `.cat` text) plug into the
/// incremental enumeration hot path the same way.
///
/// Borrows the model, so build it inside the per-worker closure of
/// `tm_synth::enumerate` (scoped threads keep the borrow legal).
///
/// # Examples
///
/// ```
/// use tm_exec::catalog;
/// use tm_exec::ir::{Delta, RelBase};
/// use tm_models::{MemoryModel, X86Model};
///
/// let model = X86Model::tm();
/// let mut checker = model.incremental();
/// let mut exec = catalog::sb();
/// checker.advance(&exec, &Delta::everything());
/// assert!(checker.is_consistent(&exec));
///
/// // Wrap both threads in transactions, telling the checker what changed:
/// // only the stxn-dependent axiom bodies are re-evaluated.
/// let mut delta = Delta::new();
/// for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)] {
///     exec.stxn.insert(a, b);
///     delta.add_edge(RelBase::Stxn, a, b);
/// }
/// checker.advance(&exec, &delta);
/// assert!(!checker.is_consistent(&exec));
/// assert_eq!(checker.check(&exec), model.check(&exec));
/// ```
pub struct IncrementalModelChecker<'m> {
    eval: IncrementalEval<'m>,
    table: &'m ModelAxioms,
    early_exits: u64,
}

impl<'m> IncrementalModelChecker<'m> {
    /// Absorbs the edits that turned the previous candidate into `exec`.
    pub fn advance(&mut self, exec: &tm_exec::Execution, delta: &Delta) {
        self.eval.apply(exec, delta);
    }

    /// Starts recording undo state for a probe.
    pub fn savepoint(&mut self) {
        self.eval.savepoint();
    }

    /// Restores the state captured by the active savepoint.
    pub fn rollback(&mut self) {
        self.eval.rollback();
    }

    /// The underlying evaluator's maintenance counters.
    pub fn stats(&self) -> tm_exec::ir::MaintenanceStats {
        self.eval.stats()
    }

    /// Consistency queries that returned `false` before the last axiom of
    /// the cost order.
    pub fn early_exits(&self) -> u64 {
        self.early_exits
    }

    /// True if `exec` satisfies every axiom — early-exit, cached verdicts.
    pub fn is_consistent(&mut self, exec: &tm_exec::Execution) -> bool {
        let eval = &mut self.eval;
        let mut remaining = self.table.axioms().len();
        for axiom in self.table.in_cost_order() {
            remaining -= 1;
            if !eval.holds(exec, axiom) {
                if remaining > 0 {
                    self.early_exits += 1;
                }
                return false;
            }
        }
        true
    }

    /// The full verdict with witnesses, matching
    /// [`MemoryModel::check`] on the same model.
    pub fn check(&mut self, exec: &tm_exec::Execution) -> Verdict {
        let mut verdict = Verdict::consistent(self.table.name_cow());
        for axiom in self.table.axioms() {
            if let Some(witness) = self.eval.witness(exec, axiom) {
                verdict.push(axiom.name.clone(), Some(witness));
            }
        }
        verdict
    }
}

impl DeltaChecker for IncrementalModelChecker<'_> {
    fn advance(&mut self, exec: &tm_exec::Execution, delta: &Delta) {
        IncrementalModelChecker::advance(self, exec, delta);
    }

    fn is_consistent(&mut self, exec: &tm_exec::Execution) -> bool {
        IncrementalModelChecker::is_consistent(self, exec)
    }

    fn savepoint(&mut self) {
        IncrementalModelChecker::savepoint(self);
    }

    fn rollback(&mut self) {
        IncrementalModelChecker::rollback(self);
    }

    fn telemetry(&self) -> Option<CheckerTelemetry> {
        Some(CheckerTelemetry {
            stats: self.stats(),
            early_exits: self.early_exits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::catalog as execs;
    use tm_exec::ir::txn_polarity;

    #[test]
    fn catalog_tables_carry_the_documented_axioms() {
        let cat = catalog();
        for target in Target::ALL {
            let table = cat.model(target);
            let names: Vec<&str> = table.axioms().iter().map(|a| a.name.as_ref()).collect();
            assert_eq!(names, target.model().axioms(), "{target}");
            assert!(!table.name().is_empty());
            // The cost order is a permutation of the declaration order.
            assert_eq!(table.in_cost_order().count(), table.axioms().len());
        }
    }

    #[test]
    fn shared_axiom_bodies_are_one_node() {
        let cat = catalog();
        let body_of = |target: Target, name: &str| {
            cat.model(target)
                .axioms()
                .iter()
                .find(|a| a.name == name)
                .unwrap_or_else(|| panic!("{target} lacks {name}"))
                .body
        };
        // Coherence and RMWIsol are shared across the hardware models.
        for name in ["Coherence", "RMWIsol"] {
            let x86 = body_of(Target::X86Tm, name);
            assert_eq!(x86, body_of(Target::PowerTm, name));
            assert_eq!(x86, body_of(Target::Armv8Tm, name));
        }
        // StrongIsol is the same node for every TM model and for the
        // standalone isolation axiom.
        let strong = body_of(Target::X86Tm, "StrongIsol");
        assert_eq!(strong, body_of(Target::PowerTm, "StrongIsol"));
        assert_eq!(strong, body_of(Target::Armv8Tm, "StrongIsol"));
        assert_eq!(strong, cat.strong_isol().body);
        // TxnCancelsRMW is shared between Power and ARMv8.
        assert_eq!(
            body_of(Target::PowerTm, "TxnCancelsRMW"),
            body_of(Target::Armv8Tm, "TxnCancelsRMW")
        );
        // The baseline Order body is a strict subexpression of the TM one
        // (hb_tm = hb_base ∪ tfence), so the two variants share work.
        assert_ne!(
            body_of(Target::X86, "Order"),
            body_of(Target::X86Tm, "Order")
        );
    }

    #[test]
    fn baseline_tables_do_not_mention_transactions() {
        let cat = catalog();
        for target in [
            Target::Sc,
            Target::X86,
            Target::Power,
            Target::Armv8,
            Target::Cpp,
        ] {
            for axiom in cat.model(target).axioms() {
                assert_eq!(
                    txn_polarity(cat.pool(), axiom.body),
                    tm_exec::ir::Polarity::Constant,
                    "{target}/{} should be transaction-free",
                    axiom.name
                );
            }
        }
    }

    #[test]
    fn ir_model_doc_example_behaviour() {
        let model = IrModel::new("CoherenceOnly", |p| {
            let poloc = p.base(RelBase::Poloc);
            let com = p.base(RelBase::Com);
            let body = p.union(poloc, com);
            vec![p.axiom("Coherence", AxiomHead::Acyclic, body)]
        });
        assert_eq!(model.axioms(), vec!["Coherence"]);
        assert!(model.is_consistent(&execs::sb()));
        let verdict = model.check(&execs::fig1());
        assert!(verdict.violates("Coherence"), "{verdict}");
    }

    /// `acyclic (po | rf | co) ; po`, interning the union's operands in
    /// `order` (a permutation of 0..3) and padding the pool with an unused
    /// node first when `pad` is set, so node ids differ between builds.
    fn sample(order: [usize; 3], pad: bool) -> IrModel {
        IrModel::new("sample", |p| {
            if pad {
                p.base(RelBase::Ctrl);
            }
            let bases = [RelBase::Po, RelBase::Rf, RelBase::Co];
            let ids: Vec<RelId> = order.iter().map(|&i| p.base(bases[i])).collect();
            let left = p.union(ids[0], ids[1]);
            let chain = p.union(left, ids[2]);
            let po = p.base(RelBase::Po);
            let body = p.seq(chain, po);
            vec![p.axiom("Order", AxiomHead::Acyclic, body)]
        })
    }

    #[test]
    fn content_hash_ignores_interning_order_but_not_meaning() {
        let hash = |m: &IrModel| m.content_hash().unwrap();
        let reference = hash(&sample([0, 1, 2], false));
        assert_eq!(hash(&sample([2, 0, 1], true)), reference);
        assert_eq!(hash(&sample([1, 2, 0], false)), reference);
        // A different body, head or axiom name is a different model.
        let variant = |name: &'static str, head: AxiomHead, drop_co: bool| {
            IrModel::new("sample", |p| {
                let po = p.base(RelBase::Po);
                let rf = p.base(RelBase::Rf);
                let co = p.base(RelBase::Co);
                let chain = if drop_co {
                    p.union(po, rf)
                } else {
                    p.union_all(&[po, rf, co])
                };
                let body = p.seq(chain, po);
                vec![p.axiom(name, head, body)]
            })
        };
        assert_eq!(
            hash(&variant("Order", AxiomHead::Acyclic, false)),
            reference
        );
        assert_ne!(hash(&variant("Order", AxiomHead::Acyclic, true)), reference);
        assert_ne!(
            hash(&variant("Order", AxiomHead::Irreflexive, false)),
            reference
        );
        assert_ne!(
            hash(&variant("Other", AxiomHead::Acyclic, false)),
            reference
        );
        // Every built-in table has its own hash, and CROrder changes it.
        let mut hashes: Vec<u64> = Target::ALL.iter().map(|t| hash(&t.model())).collect();
        hashes.push(hash(&Target::X86Tm.model().with_cr_order()));
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), Target::ALL.len() + 1);
    }

    #[test]
    #[should_panic(expected = "owns its pool")]
    fn cr_order_only_extends_built_in_models() {
        let _ = sample([0, 1, 2], false).with_cr_order();
    }

    #[test]
    fn no_race_uses_each_cpp_tables_own_hb() {
        let cat = catalog();
        let hb_of = |target: Target| match cat.pool().rel_expr(cat.model(target).axioms()[0].body) {
            // HbCom = hb ; com*.
            RelExpr::Seq(hb, _) => hb,
            other => panic!("unexpected HbCom body {other:?}"),
        };
        for (tm, target) in [(false, Target::Cpp), (true, Target::CppTm)] {
            let RelExpr::Diff(_, ordered) = cat.pool().rel_expr(cat.no_race(tm).body) else {
                panic!("NoRace is a difference");
            };
            let mut stack = vec![ordered];
            let mut parts = Vec::new();
            while let Some(id) = stack.pop() {
                match cat.pool().rel_expr(id) {
                    RelExpr::Union(a, b) => stack.extend([a, b]),
                    _ => parts.push(id),
                }
            }
            assert!(parts.contains(&hb_of(target)), "{target}");
        }
    }
}
