//! # adt-bdd
//!
//! A reduced ordered binary decision diagram (ROBDD) engine, built from
//! scratch as the substrate for the BDD-based Pareto-front algorithm of
//! *"Attack-Defense Trees with Offensive and Defensive Attributes"*
//! (DSN 2025, §V).
//!
//! The crate is independent of the ADT layer: its input language is the
//! small Boolean-expression IR [`Bexpr`] plus direct manager operations,
//! and variables are anonymous *levels* in a caller-chosen order. The
//! analysis crate maps ADT basic steps onto levels (defense-first, per
//! Definition 11 of the paper).
//!
//! Features:
//!
//! * **complement edges** — a [`NodeRef`] packs a negation tag into bit 31
//!   of its `u32`, with a single `1` terminal and the no-complemented-high
//!   canonicity rule, so `not` is O(1) (a bit flip, [`Bdd::not`]) and a
//!   function shares every node with its negation (see `docs/KERNEL.md`
//!   at the workspace root for the full encoding);
//! * hash-consed unique table — equal functions get equal 32-bit refs
//!   ([`Bdd::ite`] and friends never build unreduced nodes); the table is
//!   a custom open-addressed array of `u32` node indices with
//!   multiplicative hashing (see the kernel-design notes in `manager`);
//! * ITE-based `and`/`or`/`not`/`xor`/`and_not` with standard-triple
//!   normalization (a call and its complement dual share one entry of the
//!   direct-mapped lossy operation cache), evaluated with an explicit
//!   work stack;
//! * restriction (cofactoring), support computation, SAT counting, path
//!   enumeration and Graphviz export — all iterative, so deep DAG-shaped
//!   diagrams cannot overflow the call stack;
//! * mark-and-compact garbage collection for long-lived managers:
//!   [`Bdd::protect`] registers roots, [`Bdd::gc`] compacts the arena
//!   (renumbering indices but preserving complement tags; handles resolve
//!   tag-faithfully through [`Bdd::resolve`]), and [`Bdd::maybe_gc`]
//!   applies a configurable arena threshold;
//! * the FORCE static ordering heuristic with *ordering groups*
//!   ([`force_order`]), used for defense-first order ablations;
//! * **dynamic variable reordering** — Rudell sifting on the live arena
//!   ([`Bdd::sift`]), built on in-place adjacent-level swaps that keep
//!   every root handle and tagged [`NodeRef`] index-stable and
//!   re-establish the no-complemented-high rule with zero tag cascade;
//!   group windows (defenses before attacks) are never crossed, and
//!   [`Bdd::maybe_reorder`] auto-triggers a pass when the live-node count
//!   passes a configurable threshold;
//! * **diagram serialization** — [`Bdd::export_dump`] flattens a function
//!   into a child-before-parent [`DiagramDump`] (complement tags carried
//!   verbatim on every edge) and [`Bdd::import_dump`] replays it into any
//!   manager as one linear hash-consing pass — the kernel half of the
//!   persistent content-addressed store (`adt-store`);
//! * the frozen PR-1 baseline manager ([`control::ControlBdd`] — no
//!   complement edges, two terminals) for differential tests and
//!   speedup/node-count accounting.
//!
//! ## Example
//!
//! ```
//! use adt_bdd::{Bdd, Bexpr};
//!
//! // f = (d ∧ ¬a) over the order d < a — a defense that an attack disables.
//! let mut bdd = Bdd::new(2);
//! let f = bdd.build(&Bexpr::inhibit(Bexpr::var(0), Bexpr::var(1)));
//! assert!(bdd.eval(f, &[true, false]));
//! assert!(!bdd.eval(f, &[true, true]));
//! assert_eq!(bdd.sat_count(f), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cone;
pub mod control;
mod expr;
mod manager;
mod reorder;
mod serial;
mod shared;

/// A variable's position in the global order (0 = tested first).
pub type Level = u32;

pub use cone::{Cone, ConeNode};
pub use expr::Bexpr;
pub use manager::{Bdd, BddRead, GcStats, NodeRef, RootHandle, SiftOutcome};
pub use reorder::force_order;
pub use serial::{DiagramDump, DumpNode, DumpRef};
pub use shared::{in_team_task, BddManager, SharedBdd, Team, TeamCtx, TeamTask};
