//! Modular decomposition of DAG-shaped ADTs (the paper's §VII future work).
//!
//! A node `v` is a *module root* when every other node of its descendant
//! closure has all of its parents inside that closure: the module interacts
//! with the rest of the tree only through `v`. Sharing that is confined to
//! a module is invisible from outside, so the module's Pareto front can be
//! computed in isolation (by `BDDBU`, or recursively) and substituted as a
//! pseudo-leaf front in the host — which, if every shared node is confined
//! this way, is tree-shaped and amenable to the cheap bottom-up pass.
//!
//! Correctness is the same induction as the paper's Theorem 1: the
//! generalized bottom-up propagation only requires each child front to equal
//! `PF` of the child subtree and the children's basic-step sets to be
//! disjoint, both of which module boundaries guarantee. The property tests
//! of the workspace verify `modular_bdd_bu` against plain `BDDBU` on random
//! DAGs.

use std::collections::HashMap;

use adt_core::{Adt, AdtBuilder, AttributeDomain, AugmentedAdt, Gate, NodeId};

use crate::bdd_bu::bdd_bu;
use crate::bottom_up::bu_with_leaf_fronts;
use crate::error::AnalysisError;
use crate::Front;

/// All module roots of the tree, in increasing id order.
///
/// Every leaf is trivially a module, as is the root; callers typically care
/// about *proper* gate modules (see [`proper_modules`]).
pub fn find_modules(adt: &Adt) -> Vec<NodeId> {
    let n = adt.node_count();
    let blocks = n.div_ceil(64);
    // desc[v] = bitset of descendants of v, including v.
    let mut desc = vec![vec![0u64; blocks]; n];
    for &v in adt.topological_order() {
        let i = v.index();
        desc[i][i / 64] |= 1 << (i % 64);
        for &c in adt[v].children() {
            let (left, right) = if c.index() < i {
                let (a, b) = desc.split_at_mut(i);
                (&mut b[0], &a[c.index()])
            } else {
                let (a, b) = desc.split_at_mut(c.index());
                (&mut a[i], &b[0])
            };
            for (l, r) in left.iter_mut().zip(right) {
                *l |= *r;
            }
        }
    }
    let in_set = |set: &[u64], u: NodeId| set[u.index() / 64] >> (u.index() % 64) & 1 == 1;
    let ids: Vec<NodeId> = adt.iter().map(|(id, _)| id).collect();
    ids.iter()
        .copied()
        .filter(|&v| {
            let set = &desc[v.index()];
            ids.iter().all(|&u| {
                u == v || !in_set(set, u) || adt.parents(u).iter().all(|&p| in_set(set, p))
            })
        })
        .collect()
}

/// Module roots that are inner gates (not the tree root, not leaves) —
/// the candidates worth collapsing.
pub fn proper_modules(adt: &Adt) -> Vec<NodeId> {
    find_modules(adt)
        .into_iter()
        .filter(|&v| v != adt.root() && !adt[v].is_leaf())
        .collect()
}

/// How [`modular_core`] obtains the fronts it cannot compute itself: the
/// front of an extracted module (which may decompose further) and the front
/// of a host whose sharing crosses every module boundary.
///
/// Two implementations exist: the stateless one behind [`modular_bdd_bu`]
/// (recursive decomposition, plain `BDDBU` fallback) and the
/// [`AnalysisEngine`](crate::engine::AnalysisEngine), whose implementation
/// consults its cross-query module-root cache first — the same shared
/// module then costs one computation across an entire query stream.
pub(crate) trait ModuleAnalyzer<DD, DA>
where
    DD: AttributeDomain + Clone,
    DA: AttributeDomain + Clone,
{
    /// The front of an extracted module.
    fn module_front(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError>;

    /// The front of a tree that modular decomposition cannot split.
    fn direct_front(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError>;
}

/// The stateless analyzer of [`modular_bdd_bu`]: recurse on modules, fall
/// back to plain [`bdd_bu`] on undecomposable hosts.
struct PlainAnalyzer;

impl<DD, DA> ModuleAnalyzer<DD, DA> for PlainAnalyzer
where
    DD: AttributeDomain + Clone,
    DA: AttributeDomain + Clone,
{
    fn module_front(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError> {
        modular_core(t, self)
    }

    fn direct_front(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError> {
        bdd_bu(t)
    }
}

/// Pareto-front analysis by modular decomposition.
///
/// Shared subtrees confined to modules are analyzed in isolation with
/// [`bdd_bu`] (or recursively, if the module decomposes further); the host
/// quotient — every maximal proper module collapsed to a pseudo-leaf — is
/// analyzed with the generalized bottom-up pass when tree-shaped. Inputs
/// whose sharing crosses all module boundaries fall back to plain `BDDBU`
/// on the whole tree.
///
/// Always computes the same front as [`bdd_bu`]; the point is speed on
/// DAGs with localized sharing (see the `modular_ablation` bench). When the
/// same modules recur across many queries, prefer
/// [`AnalysisEngine::modular`](crate::engine::AnalysisEngine::modular),
/// which funnels every module front through a cross-query cache.
///
/// # Errors
///
/// Currently infallible (returns `Result` for symmetry with the other
/// algorithms).
pub fn modular_bdd_bu<DD, DA>(t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError>
where
    DD: AttributeDomain + Clone,
    DA: AttributeDomain + Clone,
{
    modular_core(t, &mut PlainAnalyzer)
}

/// The outcome of splitting one query into modules — the structural half
/// of [`modular_core`], decoupled from *computing* the module fronts so
/// that the engine's parallel path ([`crate::parallel`]) can fan the
/// extracted modules out over threads instead of analyzing them inline.
pub(crate) enum Decomposed<DD: AttributeDomain, DA: AttributeDomain> {
    /// The input is already a tree: the generalized bottom-up pass applies
    /// directly, no modules involved.
    Tree,
    /// No maximal proper module exists, or the quotient still shares
    /// (sharing crosses every module boundary): analyze the whole tree
    /// directly.
    Direct,
    /// A proper decomposition: each extracted module's front must be
    /// substituted for its pseudo-leaf (by name) in the quotient.
    Modular {
        /// `(pseudo-leaf name, extracted module)` in topological order of
        /// the module roots — the order the sequential path analyzes them
        /// in, which keeps engine cache statistics deterministic.
        modules: Vec<(String, AugmentedAdt<DD, DA>)>,
        /// The host with every maximal module collapsed to a pseudo-leaf
        /// (guaranteed tree-shaped; pseudo-leaves carry placeholder unit
        /// values that [`recombine`] overrides with the module fronts).
        /// Boxed to keep the enum small next to the unit variants.
        quotient: Box<AugmentedAdt<DD, DA>>,
    },
}

/// The decomposition skeleton shared by [`modular_bdd_bu`] and the engine:
/// find maximal proper modules, collapse them to pseudo-leaves whose fronts
/// come from `analyzer`, and run the generalized bottom-up pass over the
/// quotient.
pub(crate) fn modular_core<DD, DA, M>(
    t: &AugmentedAdt<DD, DA>,
    analyzer: &mut M,
) -> Result<Front<DD, DA>, AnalysisError>
where
    DD: AttributeDomain + Clone,
    DA: AttributeDomain + Clone,
    M: ModuleAnalyzer<DD, DA> + ?Sized,
{
    match decompose(t)? {
        Decomposed::Tree => Ok(bu_with_leaf_fronts(t, |_, front| front)),
        Decomposed::Direct => analyzer.direct_front(t),
        Decomposed::Modular { modules, quotient } => {
            let mut fronts: HashMap<String, Front<DD, DA>> = HashMap::new();
            for (name, sub) in &modules {
                fronts.insert(name.clone(), analyzer.module_front(sub)?);
            }
            Ok(recombine(&quotient, &fronts))
        }
    }
}

/// Splits `t` into maximal proper modules and the tree-shaped quotient
/// that remains when each is collapsed to a pseudo-leaf. Pure structure:
/// no fronts are computed here.
pub(crate) fn decompose<DD, DA>(
    t: &AugmentedAdt<DD, DA>,
) -> Result<Decomposed<DD, DA>, AnalysisError>
where
    DD: AttributeDomain + Clone,
    DA: AttributeDomain + Clone,
{
    if t.adt().is_tree() {
        return Ok(Decomposed::Tree);
    }
    let adt = t.adt();
    // Maximal proper modules: keep a module only if none of its ancestors is
    // also a chosen module. Modules are nested or disjoint, so scanning in
    // increasing id order (children before parents in builder order is not
    // guaranteed for arbitrary ids — use descendant containment instead).
    let candidates = proper_modules(adt);
    let mut maximal: Vec<NodeId> = Vec::new();
    'candidates: for &v in candidates.iter().rev() {
        for &kept in &maximal {
            if adt.descendants(kept).contains(&v) {
                continue 'candidates;
            }
        }
        maximal.push(v);
    }
    if maximal.is_empty() {
        return Ok(Decomposed::Direct);
    }

    // Build the quotient: walk from the root, stopping at module boundaries.
    let mut modules: Vec<(String, AugmentedAdt<DD, DA>)> = Vec::new();
    let mut builder = AdtBuilder::new();
    let mut new_ids: HashMap<NodeId, NodeId> = HashMap::new();
    // Instantiate in topological order, skipping module interiors.
    let mut interior = vec![false; adt.node_count()];
    for &m in &maximal {
        for u in adt.descendants(m) {
            if u != m {
                interior[u.index()] = true;
            }
        }
    }
    for &v in adt.topological_order() {
        if interior[v.index()] {
            continue;
        }
        let node = &adt[v];
        let new_id = if maximal.contains(&v) {
            // Collapse the module to a pseudo-leaf carrying its front.
            let (sub, mapping) = adt.subtree(v);
            let sub_aadt = AugmentedAdt::from_fns(
                sub,
                t.defender_domain().clone(),
                t.attacker_domain().clone(),
                |_, id| {
                    t.defense_value_of(mapping[id.index()])
                        .expect("defense copy")
                        .clone()
                },
                |_, id| {
                    t.attack_value_of(mapping[id.index()])
                        .expect("attack copy")
                        .clone()
                },
            );
            modules.push((node.name().to_owned(), sub_aadt));
            builder.leaf(node.agent(), node.name())?
        } else {
            match node.gate() {
                Gate::Basic => builder.leaf(node.agent(), node.name())?,
                Gate::And => {
                    let children: Vec<NodeId> =
                        node.children().iter().map(|c| new_ids[c]).collect();
                    builder.and(node.name(), children)?
                }
                Gate::Or => {
                    let children: Vec<NodeId> =
                        node.children().iter().map(|c| new_ids[c]).collect();
                    builder.or(node.name(), children)?
                }
                Gate::Inh => builder.inh(
                    node.name(),
                    new_ids[&node.children()[0]],
                    new_ids[&node.children()[1]],
                )?,
            }
        };
        new_ids.insert(v, new_id);
    }
    let quotient = builder.build(new_ids[&adt.root()])?;
    if !quotient.is_tree() {
        // Sharing crosses module boundaries: the decomposition does not
        // apply. Fall back to the direct BDD analysis.
        return Ok(Decomposed::Direct);
    }

    // Attribute the quotient: real leaves keep their values; pseudo-leaves
    // get placeholder units (their fronts are substituted by `recombine`).
    let dd = t.defender_domain().clone();
    let da = t.attacker_domain().clone();
    let quotient_aadt = AugmentedAdt::from_fns(
        quotient,
        dd,
        da,
        |q, id| match t
            .adt()
            .node_id(q[id].name())
            .and_then(|o| t.defense_value_of(o))
        {
            Some(v) => v.clone(),
            None => t.defender_domain().one(),
        },
        |q, id| match t
            .adt()
            .node_id(q[id].name())
            .and_then(|o| t.attack_value_of(o))
        {
            Some(v) => v.clone(),
            None => t.attacker_domain().one(),
        },
    );
    Ok(Decomposed::Modular {
        modules,
        quotient: Box::new(quotient_aadt),
    })
}

/// The join at the module boundary: runs the generalized bottom-up pass
/// over the quotient, substituting each pseudo-leaf's default front with
/// its module's computed front (matched by name).
pub(crate) fn recombine<DD, DA>(
    quotient: &AugmentedAdt<DD, DA>,
    module_fronts: &HashMap<String, Front<DD, DA>>,
) -> Front<DD, DA>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    bu_with_leaf_fronts(quotient, |id, default| {
        match module_fronts.get(quotient.adt()[id].name()) {
            Some(front) => front.clone(),
            None => default,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive;
    use adt_core::catalog;
    use adt_core::semiring::{Ext, MinCost};

    #[test]
    fn every_leaf_and_the_root_are_modules() {
        let t = catalog::fig3();
        let modules = find_modules(t.adt());
        assert!(modules.contains(&t.adt().root()));
        for &leaf in t.adt().attacks().iter().chain(t.adt().defenses()) {
            assert!(modules.contains(&leaf), "leaf {leaf} must be a module");
        }
    }

    #[test]
    fn every_node_of_a_tree_is_a_module() {
        let t = catalog::money_theft_tree();
        assert_eq!(find_modules(t.adt()).len(), t.adt().node_count());
    }

    #[test]
    fn shared_node_breaks_enclosing_modules() {
        // In the money-theft DAG, `get_user_name` and `get_password` share
        // Phishing, so neither is a module, but `via_atm` (no sharing) is.
        let t = catalog::money_theft();
        let adt = t.adt();
        let modules = find_modules(adt);
        assert!(!modules.contains(&adt.node_id("get_user_name").unwrap()));
        assert!(!modules.contains(&adt.node_id("get_password").unwrap()));
        assert!(modules.contains(&adt.node_id("via_atm").unwrap()));
        // `via_online_banking` contains both parents of Phishing, so the
        // sharing is confined and it *is* a module.
        assert!(modules.contains(&adt.node_id("via_online_banking").unwrap()));
    }

    #[test]
    fn modular_analysis_matches_bdd_bu_on_dags() {
        for t in [catalog::fig2(), catalog::money_theft()] {
            assert_eq!(modular_bdd_bu(&t).unwrap(), bdd_bu(&t).unwrap());
        }
    }

    #[test]
    fn modular_analysis_matches_bottom_up_on_trees() {
        for t in [
            catalog::fig3(),
            catalog::fig5(),
            catalog::money_theft_tree(),
        ] {
            assert_eq!(
                modular_bdd_bu(&t).unwrap(),
                crate::bottom_up::bottom_up(&t).unwrap()
            );
        }
    }

    #[test]
    fn money_theft_modular_front_matches_paper() {
        let front = modular_bdd_bu(&catalog::money_theft()).unwrap();
        let fin = |pts: &[(u64, u64)]| {
            pts.iter()
                .map(|&(d, a)| (Ext::Fin(d), Ext::Fin(a)))
                .collect::<Vec<_>>()
        };
        assert_eq!(front.points(), &fin(&[(0, 80), (20, 90), (50, 140)])[..]);
    }

    #[test]
    fn root_level_sharing_falls_back_to_bdd() {
        // Sharing directly under the root: no proper module confines it.
        let mut b = AdtBuilder::new();
        let shared = b.attack("shared").unwrap();
        let x = b.attack("x").unwrap();
        let left = b.and("left", [shared, x]).unwrap();
        let y = b.attack("y").unwrap();
        let right = b.and("right", [shared, y]).unwrap();
        let root = b.or("root", [left, right]).unwrap();
        let adt = b.build(root).unwrap();
        let t = AugmentedAdt::from_fns(
            adt,
            MinCost,
            MinCost,
            |_, _| Ext::Fin(1),
            |_, id| match id.index() {
                0 => Ext::Fin(10),
                _ => Ext::Fin(3),
            },
        );
        assert_eq!(modular_bdd_bu(&t).unwrap(), naive(&t).unwrap());
    }

    #[test]
    fn nested_modules_recurse() {
        // A module containing a module containing sharing.
        let mut b = AdtBuilder::new();
        let shared = b.attack("shared").unwrap();
        let x = b.attack("x").unwrap();
        let inner_l = b.and("inner_l", [shared, x]).unwrap();
        let y = b.attack("y").unwrap();
        let inner_r = b.and("inner_r", [shared, y]).unwrap();
        let inner = b.or("inner", [inner_l, inner_r]).unwrap();
        let z = b.attack("z").unwrap();
        let mid = b.and("mid", [inner, z]).unwrap();
        let w = b.attack("w").unwrap();
        let root = b.or("root", [mid, w]).unwrap();
        let adt = b.build(root).unwrap();
        let t = AugmentedAdt::from_fns(
            adt,
            MinCost,
            MinCost,
            |_, _| Ext::Fin(1),
            |_, id| Ext::Fin(id.index() as u64 + 1),
        );
        assert_eq!(modular_bdd_bu(&t).unwrap(), naive(&t).unwrap());
    }
}
