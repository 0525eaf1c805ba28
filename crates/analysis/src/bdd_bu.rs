//! The BDD-based Pareto-front algorithm for DAG-shaped ADTs
//! (Algorithm 3, `BDDBU`).
//!
//! The structure function is compiled into an ROBDD under a defense-first
//! order (Definition 11), and a Pareto front is propagated from the
//! terminals to the BDD root:
//!
//! * below the defense/attack boundary all fronts are singletons
//!   `{(1⊗_D, u)}` — a shortest-path computation in the attacker's semiring
//!   (identical to the BDD-based attack-tree analysis of
//!   Lopuhaä-Zwakenberg et al. when `D = ∅`);
//! * at a defense level the front merges "skip the defense" (`P₀`) with
//!   "buy it" (`P₁` shifted by `β_D ⊗_D ·`), discarding dominated points.
//!
//! Theorem 2 of the paper states that the result is exactly `PF(T)`.
//! Because the BDD shares isomorphic subgraphs, each node's front is
//! computed once (memoized), giving the `O(|W| p²)` complexity the paper
//! reports.
//!
//! # Algorithm 3 correspondence
//!
//! Where each step of the paper's `BDDBU` pseudocode lives in this code:
//!
//! | Algorithm 3 | Here |
//! |---|---|
//! | input: ROBDD of the structure function under a defense-first order | [`compile`] called from [`bdd_bu_report`]; order from [`DefenseFirstOrder`] |
//! | traversal "for `w` in reverse topological order" | the loop of `propagate` over the root's cone (`BddRead::cone`): *tagged* refs, each listed after both cofactors with their positions, so fronts live in a position-indexed vector; a node reached under both complement polarities is visited once per polarity; the walk is O(\|W\|) whatever the arena holds; no recursion |
//! | lines 2–5: terminal fronts (goal terminal depends on the root agent) | the `is_terminal` arm of `propagate`. The paper reads two terminal nodes; the complement-edge kernel stores one, and its two polarities (`Bdd::TRUE` plain, `Bdd::FALSE` tagged) *are* the two terminals |
//! | lines 6–9: attack-level nodes — singleton fronts `{(1⊗_D, u)}` | the else-arm of `node_step`, stored as bare scalars (`NodeFront::Scalar`, no allocation); `Bdd::low`/`Bdd::high` return tag-adjusted cofactor *functions*, so complement edges are invisible to the recurrence |
//! | lines 11–14: defense-level nodes — `min_⊑(P₀ ∪ shift(P₁))` | the `is_defense_level` arm of `node_step`; `ParetoFront::merge_shifted` fuses the `β_D ⊗_D ·` shift, the union and the reduction into one linear sweep |
//! | line 15: return the root's front | the final `match` of `propagate` (the root is the cone's last node) |

use adt_bdd::{Bdd, BddRead, Cone, Level, NodeRef};
use adt_core::{Agent, AttributeDomain, AugmentedAdt, ParetoFront};

use crate::bdd_compile::{compile, DefenseFirstOrder};
use crate::error::AnalysisError;
use crate::Front;

/// Computes the Pareto front of an arbitrary (tree- or DAG-shaped) augmented
/// ADT via its ROBDD, using the declaration defense-first order
/// (Algorithm 3).
///
/// # Errors
///
/// This function currently cannot fail; it returns `Result` for signature
/// symmetry with the other algorithms and to keep room for resource limits.
///
/// # Examples
///
/// The money-theft case study (Fig. 7) in its original DAG shape:
///
/// ```
/// use adt_analysis::bdd_bu::bdd_bu;
/// use adt_core::catalog;
/// use adt_core::semiring::Ext;
///
/// # fn main() -> Result<(), adt_analysis::AnalysisError> {
/// let front = bdd_bu(&catalog::money_theft())?;
/// assert_eq!(
///     front.points(),
///     &[
///         (Ext::Fin(0), Ext::Fin(80)),
///         (Ext::Fin(20), Ext::Fin(90)),
///         (Ext::Fin(50), Ext::Fin(140)),
///     ]
/// );
/// # Ok(())
/// # }
/// ```
///
/// The full pipeline from text: parse a DSL document, attribute it from
/// the `cost` attribute, and analyze. `BDDBU` compiles the ROBDD
/// internally; [`compile`] is public for callers that want to inspect the
/// diagram itself (sizes, orders, DOT export) before propagating fronts:
///
/// ```
/// use adt_analysis::{bdd_bu, compile, DefenseFirstOrder};
/// use adt_core::dsl::Document;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let doc = Document::parse(
///     r#"
///     adt "demo" {
///         attack steal  { cost = 100 }
///         defense vault { cost = 30 }
///         inh guarded (steal ! vault)
///         attack bribe  { cost = 250 }
///         or heist [guarded, bribe]
///         root heist
///     }
///     "#,
/// )?;
/// let tree = doc.to_cost_adt("cost")?;
///
/// // Optional detour: look at the compiled diagram.
/// let order = DefenseFirstOrder::declaration(tree.adt());
/// let (bdd, root) = compile(tree.adt(), &order);
/// assert!(bdd.node_count(root) > 2);
///
/// // The front: do nothing → steal costs 100; buy the vault → bribe (250).
/// let front = bdd_bu(&tree)?;
/// assert_eq!(front.to_string(), "{(0, 100), (30, 250)}");
/// # Ok(())
/// # }
/// ```
pub fn bdd_bu<DD, DA>(t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let order = DefenseFirstOrder::declaration(t.adt());
    bdd_bu_with_order(t, &order)
}

/// [`bdd_bu`] under a caller-chosen defense-first order; used by the
/// ordering ablation.
///
/// # Errors
///
/// See [`bdd_bu`].
pub fn bdd_bu_with_order<DD, DA>(
    t: &AugmentedAdt<DD, DA>,
    order: &DefenseFirstOrder,
) -> Result<Front<DD, DA>, AnalysisError>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    Ok(bdd_bu_report(t, order).front)
}

/// Everything the experiment harness wants to know about one `BDDBU` run.
#[derive(Debug, Clone)]
pub struct BddBuReport<VD, VA> {
    /// The computed Pareto front.
    pub front: ParetoFront<VD, VA>,
    /// `|W|`: distinct sub-functions the propagation visits — tagged refs
    /// of the compiled ROBDD, terminal polarities included. Under
    /// complement edges this is the memo-entry count (the work measure);
    /// the *memory* measure, arena nodes, is `Bdd::node_count` and is up
    /// to 2× smaller.
    pub bdd_nodes: usize,
    /// The largest intermediate front encountered (the paper's `p`).
    pub max_front_width: usize,
}

/// Runs `BDDBU` and reports the BDD size and maximal front width along with
/// the front itself.
pub fn bdd_bu_report<DD, DA>(
    t: &AugmentedAdt<DD, DA>,
    order: &DefenseFirstOrder,
) -> BddBuReport<DD::Value, DA::Value>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let (bdd, root) = compile(t.adt(), order);
    propagate(t, order, &bdd, root)
}

/// The front-propagation half of Algorithm 3, decoupled from compilation:
/// runs the terminal-to-root sweep over an already-compiled diagram and
/// returns the full report. `bdd_nodes` falls out of the same cone walk the
/// propagation follows (`|W|` = the cone's length), so no separate
/// `node_count` pass runs.
///
/// The sweep is a loop over the root's [cone](BddRead::cone): fronts live
/// in a vector indexed by cone position, and each node reads its
/// cofactors' fronts at the positions the walk recorded — no per-node
/// lookup, and nothing sized to the arena, so a long-lived manager pays
/// O(|W|) per query however much garbage and foreign diagrams it holds.
///
/// Standalone so the [`AnalysisEngine`](crate::engine::AnalysisEngine) can
/// compile into its long-lived, GC-managed manager and still share this
/// exact propagation code with the one-shot [`bdd_bu_report`] path.
///
/// Generic over [`BddRead`], so the identical (monomorphized) sweep runs
/// against the sequential [`Bdd`] and the concurrent
/// [`SharedBdd`](adt_bdd::SharedBdd) — the parallel path of
/// [`crate::parallel`] reuses this function verbatim.
pub(crate) fn propagate<B, DD, DA>(
    t: &AugmentedAdt<DD, DA>,
    order: &DefenseFirstOrder,
    bdd: &B,
    root: NodeRef,
) -> BddBuReport<DD::Value, DA::Value>
where
    B: BddRead + ?Sized,
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let cone = bdd.cone(root);
    let root_agent = t.adt().root_agent();
    let mut fronts: Vec<NodeFront<DD::Value, DA::Value>> = Vec::with_capacity(cone.nodes().len());
    let mut max_width = 0;
    for n in cone.nodes() {
        // Terminals (lines 2–5 of Algorithm 3). The paper's pseudocode
        // reads two terminal nodes; the complement-edge kernel stores one,
        // and the two "terminals" here are its two polarities —
        // `Bdd::TRUE` the plain ref, `Bdd::FALSE` the tagged one — so the
        // goal test is a tagged-ref comparison, not a node lookup. Which
        // polarity is the attacker's goal depends on the root agent.
        let front = if n.node.is_terminal() {
            terminal_front(t, root_agent, n.node)
        } else {
            node_step(
                t,
                order,
                n.level,
                &fronts[n.low as usize],
                &fronts[n.high as usize],
                &mut max_width,
            )
        };
        fronts.push(front);
    }
    // The root is the cone's last node (line 15 of Algorithm 3).
    let front = match fronts.pop().expect("a cone holds its root") {
        NodeFront::Front(front) => front,
        NodeFront::Scalar(u) => ParetoFront::singleton((t.defender_domain().one(), u)),
    };
    BddBuReport {
        front,
        bdd_nodes: cone.nodes().len(),
        max_front_width: max_width,
    }
}

/// The memoized front of one BDD node.
///
/// Below the defense/attack boundary every front is the singleton
/// `{(1⊗_D, u)}` (lines 6–9 of Algorithm 3 — a shortest-path computation in
/// the attacker's semiring), so those nodes store just the scalar `u`:
/// no `Vec`, no allocation. Only defense-level nodes hold real fronts.
#[derive(Debug, Clone)]
pub(crate) enum NodeFront<VD, VA> {
    /// `{(1⊗_D, u)}`, stored as `u`.
    Scalar(VA),
    /// A genuine multi-point front (defense levels only).
    Front(ParetoFront<VD, VA>),
}

/// Computes the front of a *terminal* polarity (lines 2–5 of Algorithm 3):
/// the attacker's goal terminal carries `1⊗_A`, the other `0⊗_A`. Which
/// polarity is the goal depends on the root agent.
fn terminal_front<DD, DA>(
    t: &AugmentedAdt<DD, DA>,
    root_agent: Agent,
    w: NodeRef,
) -> NodeFront<DD::Value, DA::Value>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let da = t.attacker_domain();
    let reached_goal = match root_agent {
        Agent::Attacker => w == Bdd::TRUE,
        Agent::Defender => w == Bdd::FALSE,
    };
    NodeFront::Scalar(if reached_goal { da.one() } else { da.zero() })
}

/// Computes the front of one *inner* BDD node from its children's fronts —
/// the body of Algorithm 3's per-node case split (lines 6–14), shared
/// between the one-shot scratch sweep and the incremental persistent-memo
/// sweep.
fn node_step<DD, DA>(
    t: &AugmentedAdt<DD, DA>,
    order: &DefenseFirstOrder,
    level: Level,
    low: &NodeFront<DD::Value, DA::Value>,
    high: &NodeFront<DD::Value, DA::Value>,
    max_width: &mut usize,
) -> NodeFront<DD::Value, DA::Value>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let dd = t.defender_domain();
    let da = t.attacker_domain();
    if order.is_defense_level(level) {
        // Lines 11–14: skip the defense (P0) or buy it (P1 shifted);
        // `merge_shifted` fuses the shift, the union and the reduction
        // into one linear sweep.
        let cost = t
            .defense_value_of(order.event(level))
            .expect("defense level maps to a defense step");
        let (p0_singleton, p1_singleton);
        let p0 = match low {
            NodeFront::Front(front) => front,
            NodeFront::Scalar(u) => {
                p0_singleton = ParetoFront::singleton((dd.one(), u.clone()));
                &p0_singleton
            }
        };
        let p1 = match high {
            NodeFront::Front(front) => front,
            NodeFront::Scalar(u) => {
                p1_singleton = ParetoFront::singleton((dd.one(), u.clone()));
                &p1_singleton
            }
        };
        let merged = p0.merge_shifted(p1, cost, dd, da);
        *max_width = (*max_width).max(merged.len());
        NodeFront::Front(merged)
    } else {
        // Lines 6–9: below the boundary, fronts are singletons; the
        // attacker skips the step or pays for it, whichever is better.
        // Pure scalar semiring arithmetic — no allocation.
        let NodeFront::Scalar(u0) = low else {
            unreachable!("attack-level children are attack-level or terminal")
        };
        let NodeFront::Scalar(u1) = high else {
            unreachable!("attack-level children are attack-level or terminal")
        };
        let cost = t
            .attack_value_of(order.event(level))
            .expect("attack level maps to an attack step");
        let paid = da.mul(cost, u1);
        *max_width = (*max_width).max(1);
        NodeFront::Scalar(da.add(u0, &paid))
    }
}

/// What one incremental sweep did: the regular report plus the reuse split.
pub(crate) struct IncrementalPropagation<VD, VA> {
    pub report: BddBuReport<VD, VA>,
    /// Reachable nodes whose fronts were recomputed this sweep (the dirty
    /// cone plus nodes the memo had never seen).
    pub recomputed: usize,
    /// Reachable nodes served from the retained memo.
    pub reused: usize,
}

/// The persistent propagation state of an
/// [`IncrementalSession`](crate::incremental::IncrementalSession): the
/// [cone](BddRead::cone) of the current diagram *and* every node's front,
/// indexed by the same cone positions.
///
/// This is what makes value edits cheap. The diagram is untouched by a
/// value edit, so the cone walked at the last (re)build is still exact —
/// [`SessionSweep::repropagate`] walks the arrays once, flags the dirty
/// cone through the recorded cofactor positions, and recomputes only
/// flagged fronts in place: no manager reads, no hashing, no allocation
/// beyond one flag vector. Structural edits call
/// [`SessionSweep::rebuild`], which walks the new root's cone and carries
/// every still-valid front over from the previous sweep, found through the
/// previous cone's position table; a carried entry is valid iff no level
/// of its cone changed meaning *and* its cofactors were carried too, which
/// keeps the retained set closed under children — exactly what the
/// children-first recomputation of the remainder requires. Both paths cost
/// O(|W|), whatever else the engine's arena holds.
#[derive(Debug)]
pub(crate) struct SessionSweep<VD, VA> {
    /// The diagram's cone; its last node is the root.
    cone: Cone,
    fronts: Vec<NodeFront<VD, VA>>,
}

impl<VD, VA> Default for SessionSweep<VD, VA> {
    fn default() -> Self {
        SessionSweep {
            cone: Cone::default(),
            fronts: Vec::new(),
        }
    }
}

impl<VD, VA> SessionSweep<VD, VA>
where
    VD: Clone + PartialEq + std::fmt::Debug,
    VA: Clone + PartialEq + std::fmt::Debug,
{
    /// `|W|` of the cached diagram.
    pub(crate) fn len(&self) -> usize {
        self.fronts.len()
    }

    /// Clones out the root's front, widening scalars into singletons.
    fn root_front<DD, DA>(&self, t: &AugmentedAdt<DD, DA>) -> ParetoFront<VD, VA>
    where
        DD: AttributeDomain<Value = VD>,
        DA: AttributeDomain<Value = VA>,
    {
        match self.fronts.last().expect("a cone holds its root") {
            NodeFront::Front(front) => front.clone(),
            NodeFront::Scalar(u) => ParetoFront::singleton((t.defender_domain().one(), u.clone())),
        }
    }

    /// Builds (or rebuilds) the sweep for `root`, carrying over every
    /// still-valid front from `previous` and recomputing the rest
    /// children-first.
    ///
    /// A previous front is carried iff its node is reachable under the
    /// same tagged ref, its level is not dirty, and both cofactors were
    /// carried — the closure under children that lets the recomputed
    /// remainder find every input it needs. Passing an empty (default)
    /// `previous` makes this the plain full propagation of Algorithm 3.
    pub(crate) fn rebuild<B, DD, DA>(
        t: &AugmentedAdt<DD, DA>,
        order: &DefenseFirstOrder,
        bdd: &B,
        root: NodeRef,
        previous: Self,
        mut is_dirty_level: impl FnMut(Level) -> bool,
    ) -> (Self, IncrementalPropagation<VD, VA>)
    where
        B: BddRead + ?Sized,
        DD: AttributeDomain<Value = VD>,
        DA: AttributeDomain<Value = VA>,
    {
        let cone = bdd.cone(root);
        let nodes = cone.nodes();
        let mut previous_fronts: Vec<Option<NodeFront<VD, VA>>> =
            previous.fronts.into_iter().map(Some).collect();
        let root_agent = t.adt().root_agent();
        let mut fronts = Vec::with_capacity(nodes.len());
        let mut carried = vec![false; nodes.len()];
        let mut recomputed = 0usize;
        let mut max_width = 0usize;
        for (i, n) in nodes.iter().enumerate() {
            let kept = previous.cone.position(n.node).filter(|_| {
                n.node.is_terminal()
                    || (!is_dirty_level(n.level)
                        && carried[n.low as usize]
                        && carried[n.high as usize])
            });
            if let Some(old) = kept {
                carried[i] = true;
                fronts.push(
                    previous_fronts[old]
                        .take()
                        .expect("a cone lists each ref once"),
                );
            } else {
                recomputed += 1;
                fronts.push(if n.node.is_terminal() {
                    terminal_front(t, root_agent, n.node)
                } else {
                    node_step(
                        t,
                        order,
                        n.level,
                        &fronts[n.low as usize],
                        &fronts[n.high as usize],
                        &mut max_width,
                    )
                });
            }
        }
        let reused = nodes.len() - recomputed;
        let sweep = SessionSweep { cone, fronts };
        let front = sweep.root_front(t);
        max_width = max_width.max(front.len());
        let prop = IncrementalPropagation {
            report: BddBuReport {
                front,
                bdd_nodes: sweep.len(),
                max_front_width: max_width,
            },
            recomputed,
            reused,
        };
        (sweep, prop)
    }

    /// Re-propagates the dirty cone of a *value* edit entirely in place:
    /// the diagram is unchanged, so the cached traversal is exact, and
    /// the cone — every node on a dirty level plus everything above it
    /// through the precomputed cofactor positions — is recomputed in one
    /// array pass. Untouched positions keep their fronts untouched.
    ///
    /// `max_front_width` in the returned report covers the recomputed
    /// cone (plus the root front itself) — reused nodes don't replay
    /// their widths.
    pub(crate) fn repropagate<DD, DA>(
        &mut self,
        t: &AugmentedAdt<DD, DA>,
        order: &DefenseFirstOrder,
        mut is_dirty_level: impl FnMut(Level) -> bool,
    ) -> IncrementalPropagation<VD, VA>
    where
        DD: AttributeDomain<Value = VD>,
        DA: AttributeDomain<Value = VA>,
    {
        let len = self.len();
        let mut dirty = vec![false; len];
        let mut recomputed = 0usize;
        let mut max_width = 0usize;
        for (i, n) in self.cone.nodes().iter().enumerate() {
            if n.node.is_terminal() {
                continue;
            }
            let (low, high) = (n.low as usize, n.high as usize);
            if !(is_dirty_level(n.level) || dirty[low] || dirty[high]) {
                continue;
            }
            dirty[i] = true;
            recomputed += 1;
            self.fronts[i] = node_step(
                t,
                order,
                n.level,
                &self.fronts[low],
                &self.fronts[high],
                &mut max_width,
            );
        }
        let front = self.root_front(t);
        max_width = max_width.max(front.len());
        IncrementalPropagation {
            report: BddBuReport {
                front,
                bdd_nodes: len,
                max_front_width: max_width,
            },
            recomputed,
            reused: len - recomputed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::bottom_up;
    use crate::naive::naive;
    use adt_core::catalog;
    use adt_core::semiring::Ext;

    fn fin(points: &[(u64, u64)]) -> Vec<(Ext<u64>, Ext<u64>)> {
        points
            .iter()
            .map(|&(d, a)| (Ext::Fin(d), Ext::Fin(a)))
            .collect()
    }

    #[test]
    fn matches_bottom_up_on_paper_trees() {
        for t in [
            catalog::fig1(),
            catalog::fig3(),
            catalog::fig5(),
            catalog::fig4(5),
            catalog::money_theft_tree(),
        ] {
            assert_eq!(bdd_bu(&t).unwrap(), bottom_up(&t).unwrap());
        }
    }

    #[test]
    fn matches_naive_on_dags() {
        for t in [catalog::fig2(), catalog::money_theft()] {
            assert_eq!(bdd_bu(&t).unwrap(), naive(&t).unwrap());
        }
    }

    #[test]
    fn money_theft_dag_front_matches_paper() {
        let front = bdd_bu(&catalog::money_theft()).unwrap();
        assert_eq!(front.points(), &fin(&[(0, 80), (20, 90), (50, 140)])[..]);
    }

    #[test]
    fn all_orders_agree() {
        for t in [catalog::fig2(), catalog::money_theft(), catalog::fig4(4)] {
            let declaration =
                bdd_bu_with_order(&t, &DefenseFirstOrder::declaration(t.adt())).unwrap();
            let dfs = bdd_bu_with_order(&t, &DefenseFirstOrder::dfs(t.adt())).unwrap();
            let force = bdd_bu_with_order(&t, &DefenseFirstOrder::force(t.adt(), 10)).unwrap();
            assert_eq!(declaration, dfs);
            assert_eq!(declaration, force);
        }
    }

    #[test]
    fn fig4_front_is_exponential() {
        let front = bdd_bu(&catalog::fig4(6)).unwrap();
        assert_eq!(front.len(), 64);
        for (k, point) in front.iter().enumerate() {
            let k = k as u64;
            assert_eq!(point, &(Ext::Fin(k), Ext::Fin(k)));
        }
    }

    #[test]
    fn report_exposes_bdd_size_and_width() {
        let t = catalog::money_theft();
        let order = DefenseFirstOrder::declaration(t.adt());
        let report = bdd_bu_report(&t, &order);
        assert_eq!(
            report.front.points(),
            &fin(&[(0, 80), (20, 90), (50, 140)])[..]
        );
        assert!(report.bdd_nodes > 2, "nontrivial function has inner nodes");
        assert!(report.max_front_width >= report.front.len());
    }

    #[test]
    fn attack_tree_reduces_to_single_metric() {
        // Fig. 1 has no defenses: BDDBU degenerates to the BDD-based
        // attack-tree metric of [Lopuhaä-Zwakenberg et al.].
        let front = bdd_bu(&catalog::fig1()).unwrap();
        assert_eq!(front.points(), &fin(&[(0, 25)])[..]);
    }

    #[test]
    fn unattackable_defense_gives_infinite_tail() {
        let mut b = adt_core::AdtBuilder::new();
        let a = b.attack("a").unwrap();
        let d = b.defense("d").unwrap();
        let root = b.inh("root", a, d).unwrap();
        let adt = b.build(root).unwrap();
        let t = adt_core::AugmentedAdt::builder(adt, adt_core::MinCost, adt_core::MinCost)
            .attack_value("a", 5u64)
            .unwrap()
            .defense_value("d", 3u64)
            .unwrap()
            .finish()
            .unwrap();
        let front = bdd_bu(&t).unwrap();
        assert_eq!(
            front.points(),
            &[(Ext::Fin(0), Ext::Fin(5)), (Ext::Fin(3), Ext::Inf)]
        );
    }
}
