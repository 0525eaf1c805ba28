//! # adt-analysis
//!
//! The Pareto-front algorithms of *"Attack-Defense Trees with Offensive and
//! Defensive Attributes"* (DSN 2025):
//!
//! * [`bottom_up`](bottom_up::bottom_up) — Algorithm 1 with the Table-II
//!   operators, for tree-shaped ADTs;
//! * [`naive`](naive::naive) — Algorithm 2, exhaustive enumeration over
//!   `2^{|D|} × 2^{|A|}` events, for arbitrary shapes (the baseline);
//! * [`bdd_bu`](bdd_bu::bdd_bu) — Algorithm 3 over an ROBDD with a
//!   defense-first variable order (Definition 11), for arbitrary shapes;
//! * [`semantics`] — the literal Definitions 7–9 (`ρ`, `S`, `min_⊑ β̂(S)`)
//!   with witnesses, used as the testing oracle;
//! * [`tree_transform`] — the DAG→tree unfolding the paper's case study
//!   applies before running the bottom-up pass;
//! * [`modular`] — modular decomposition (the paper's future-work
//!   extension): confined sharing is analyzed in isolation and substituted
//!   as pseudo-leaf fronts;
//! * [`strategies`] — the front *with witnesses*: which defenses realize
//!   each Pareto point and which attack the rational attacker answers with;
//! * [`engine`] — the long-lived [`AnalysisEngine`]: one GC-managed BDD
//!   manager and a cross-query front cache reused across a stream of
//!   queries (the server-style counterpart of the one-shot functions);
//! * [`incremental`] — the what-if layer over the engine: an
//!   [`IncrementalSession`] keeps one compiled query alive and answers
//!   leaf-value, gate-kind and subtree edits by re-propagating only the
//!   dirty cone.
//!
//! All algorithms are generic over the attacker/defender attribute domains
//! of `adt-core` and agree with each other; the workspace's property tests
//! pit them against each other on random ADTs.
//!
//! ## Example
//!
//! ```
//! use adt_analysis::{bdd_bu::bdd_bu, bottom_up::bottom_up};
//! use adt_core::catalog;
//!
//! # fn main() -> Result<(), adt_analysis::AnalysisError> {
//! // Tree-shaped: bottom-up. DAG-shaped: BDD.
//! let tree_front = bottom_up(&catalog::money_theft_tree())?;
//! let dag_front = bdd_bu(&catalog::money_theft())?;
//! println!("tree analysis: {tree_front}");
//! println!("dag analysis:  {dag_front}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdd_bu;
pub mod bdd_compile;
pub mod bottom_up;
pub mod engine;
mod error;
pub mod incremental;
pub mod modular;
pub mod naive;
mod parallel;
pub mod semantics;
pub mod strategies;
pub mod tree_transform;

pub use bdd_bu::{bdd_bu, bdd_bu_report, bdd_bu_with_order, BddBuReport};
pub use bdd_compile::{compile, compile_into, DefenseFirstOrder};
pub use bottom_up::{bottom_up, table2_attacker_op};
pub use engine::{AnalysisEngine, EngineStats, DEFAULT_GC_THRESHOLD};
pub use error::AnalysisError;
pub use incremental::{EditReport, IncrementalSession};
pub use modular::{find_modules, modular_bdd_bu, proper_modules};
pub use naive::{naive, naive_bitparallel};
pub use semantics::{brute_force_front, feasible_events, optimal_response};
pub use strategies::{pareto_strategies, pareto_strategies_with_order, Strategy};
pub use tree_transform::{unfold_to_tree, unfolded, unfolded_size, DEFAULT_UNFOLD_LIMIT};

use adt_core::{AttributeDomain, AugmentedAdt, ParetoFront};

/// The Pareto front between a defender domain and an attacker domain —
/// shorthand for the value-typed [`ParetoFront`].
pub type Front<DD, DA> =
    ParetoFront<<DD as AttributeDomain>::Value, <DA as AttributeDomain>::Value>;

/// Computes the Pareto front of one augmented ADT with the best applicable
/// algorithm: the linear-pass bottom-up analysis (Algorithm 1) when the
/// shape is a tree, `BDDBU` (Algorithm 3) otherwise.
///
/// This is a self-contained per-job entry point for batch evaluation: it
/// takes one instance, builds any state it needs (including the BDD
/// manager) locally, and returns the front — no globals, so concurrent
/// callers never contend. (The suite pool in `adt-bench` calls the richer
/// [`bdd_bu_report`] instead, which additionally reports BDD size and
/// front width; use `analyze` when all you want is the front. For a long
/// query stream, [`AnalysisEngine::analyze`](engine::AnalysisEngine::analyze)
/// is the same dispatch with manager reuse, bounded-memory GC and a
/// cross-query front cache.)
///
/// # Errors
///
/// Currently infallible (both backing algorithms accept every valid
/// [`AugmentedAdt`]); the `Result` keeps room for resource limits.
///
/// # Examples
///
/// ```
/// use adt_analysis::analyze;
/// use adt_core::catalog;
///
/// # fn main() -> Result<(), adt_analysis::AnalysisError> {
/// // Tree-shaped: dispatches to bottom-up. DAG-shaped: dispatches to BDDBU.
/// let tree_front = analyze(&catalog::money_theft_tree())?;
/// let dag_front = analyze(&catalog::money_theft())?;
/// assert_eq!(tree_front.to_string(), "{(0, 90), (30, 150), (50, 165)}");
/// assert_eq!(dag_front.to_string(), "{(0, 80), (20, 90), (50, 140)}");
/// # Ok(())
/// # }
/// ```
pub fn analyze<DD, DA>(t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    if t.adt().is_tree() {
        bottom_up(t)
    } else {
        bdd_bu(t)
    }
}
