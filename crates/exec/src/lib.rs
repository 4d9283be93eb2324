//! Candidate executions for transactional weak-memory models.
//!
//! This crate implements the execution-graph layer of the PLDI'18 paper
//! *The Semantics of Transactions and Weak Memory in x86, Power, ARM, and
//! C++*: runtime events, the primitive relations of §2.1 (`po`, `rf`, `co`,
//! dependencies, `rmw`), the transactional extension of §3.1 (`stxn`,
//! `stxnat`), the lock-elision extension of §8.3 (`scr`, `scrt`, lock-call
//! events), derived relations (`fr`, `com`, fence relations, `tfence`),
//! well-formedness checking, and a catalog of every execution discussed in
//! the paper.
//!
//! The memory models themselves live in the `tm-models` crate; litmus-test
//! generation lives in `tm-litmus`; bounded exhaustive enumeration lives in
//! `tm-synth`.
//!
//! # Quick start
//!
//! ```
//! use tm_exec::{Event, Execution, ExecutionBuilder};
//!
//! // Build the store-buffering shape and ask structural questions about it.
//! let mut b = ExecutionBuilder::new();
//! let wx = b.push(Event::write(0, 0));
//! let ry = b.push(Event::read(0, 1));
//! let wy = b.push(Event::write(1, 1));
//! let rx = b.push(Event::read(1, 0));
//! let exec = b.build()?;
//!
//! assert!(exec.po.contains(wx, ry));
//! assert!(exec.fr().contains(ry, wy));
//! assert!(exec.fr().contains(rx, wx));
//! // The SC "Order" axiom would reject this: po ∪ com has a cycle.
//! assert!(!exec.po.union(&exec.com()).is_acyclic());
//! # Ok::<(), tm_exec::WellFormednessError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod catalog;
mod event;
mod execution;
pub mod hash;
pub mod ir;
mod view;
mod wf;

pub use builder::ExecutionBuilder;
pub use event::{Annot, Event, EventKind, Fence, Loc, LockCall, ThreadId};
pub use execution::Execution;
pub use view::ExecView;
pub use wf::{check_well_formed, WellFormednessError};
