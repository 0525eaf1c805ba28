//! Incremental what-if analysis: dirty-cone re-propagation for
//! interactive edits.
//!
//! An [`IncrementalSession`] keeps one compiled query alive inside an
//! [`AnalysisEngine`] — the GC-protected ROBDD root, the per-ADT-node
//! compiled functions, and the per-BDD-node propagation memo of
//! [`bdd_bu`](crate::bdd_bu::bdd_bu) — and answers *edits* instead of
//! whole queries:
//!
//! * **value edits** ([`set_attack_value`], [`set_defense_value`],
//!   [`toggle_defense`]) change no BDD node at all: exactly the memo
//!   entries whose cone touches the edited variable's level are dropped
//!   and recomputed; everything else is served from the retained memo;
//! * **gate rewrites** ([`set_gate_kind`], `AND`↔`OR` only) recompile
//!   just the edited gate and its ADT ancestors against the retained
//!   sibling functions, then re-propagate whatever BDD nodes are new —
//!   no level changes meaning, so surviving memo entries stay valid;
//! * **structural splices** ([`replace_subtree`]) recompile the unstable
//!   ADT cone under the new declaration order and invalidate exactly the
//!   levels whose *(kind, value)* meaning changed between the orders.
//!
//! The session's propagation state is a `SessionSweep` (see
//! `crate::bdd_bu`): the children-first traversal of the current diagram
//! and every node's front as two parallel position-indexed arrays. Value
//! edits leave the diagram untouched, so they re-propagate *in place* —
//! one array pass flags the dirty cone through precomputed cofactor
//! positions and recomputes only flagged fronts, with no manager reads
//! and no hashing. Structural edits rebuild the sweep and carry every
//! still-valid front over; a carried front is valid iff no level of its
//! cone changed meaning and its cofactors were carried too (closure
//! under children — what the children-first recomputation of the
//! remainder requires). The workspace's differential tests pin every
//! edited front byte-for-byte to a cold recompile of the edited tree.
//!
//! # Fallbacks
//!
//! A session falls back to a full recompile + propagate (counted in
//! [`EngineStats::incr_full_fallbacks`](crate::EngineStats)) when
//! reuse would be unsound:
//!
//! * the root agent flipped under a [`replace_subtree`] — the goal
//!   terminal changes polarity, so *every* memo entry is stale;
//! * the engine's kernel collected garbage between edits (interleaved
//!   [`AnalysisEngine::bdd_bu_report`] queries may trigger GC): a
//!   collection renumbers every [`NodeRef`], stranding the session's
//!   unprotected per-node refs and memo keys. The session detects this
//!   from the collections counter and from its protected root handle.
//!
//! Engine operations that rebuild the manager wholesale —
//! [`AnalysisEngine::reset`] — invalidate open sessions entirely
//! (resolving the session's root handle will panic); close sessions
//! before resetting. Dynamic reordering
//! ([`AnalysisEngine::set_reorder_threshold`]) compacts the arena
//! without counting a collection and must stay disabled (its default)
//! while a session is open.
//!
//! [`set_attack_value`]: IncrementalSession::set_attack_value
//! [`set_defense_value`]: IncrementalSession::set_defense_value
//! [`toggle_defense`]: IncrementalSession::toggle_defense
//! [`set_gate_kind`]: IncrementalSession::set_gate_kind
//! [`replace_subtree`]: IncrementalSession::replace_subtree

use std::collections::HashMap;

use adt_bdd::{Bdd, Level, NodeRef, RootHandle};
use adt_core::{AttributeDomain, AugmentedAdt, Gate, NodeId, ParetoFront};

use crate::bdd_bu::{IncrementalPropagation, SessionSweep};
use crate::bdd_compile::{compile_into_refs, compile_node, DefenseFirstOrder};
use crate::engine::AnalysisEngine;
use crate::error::AnalysisError;
use crate::Front;

/// What one incremental edit did: the refreshed front plus the reuse
/// split that makes the incremental claim checkable.
#[derive(Debug, Clone)]
pub struct EditReport<VD, VA> {
    /// The Pareto front of the edited tree — byte-identical to what a
    /// cold [`bdd_bu`](crate::bdd_bu::bdd_bu) of the edited tree returns.
    pub front: ParetoFront<VD, VA>,
    /// `|W|` of the edited query: reachable tagged BDD refs, terminal
    /// polarities included (same measure as
    /// [`BddBuReport::bdd_nodes`](crate::BddBuReport::bdd_nodes)).
    pub bdd_nodes: usize,
    /// Largest front materialized while re-propagating the dirty cone
    /// (reused nodes do not replay their widths, so this covers the
    /// recomputed cone plus the root front).
    pub max_front_width: usize,
    /// BDD nodes re-propagated by this edit — the dirty cone plus nodes
    /// the retained memo had never seen. `dirty_nodes + reused` is the
    /// full reachable set.
    pub dirty_nodes: usize,
    /// BDD nodes served from the session's retained memo.
    pub reused: usize,
    /// `true` when nothing could be reused and the session recompiled
    /// and re-propagated from scratch (see the module docs).
    pub full_fallback: bool,
}

/// The meaning of one BDD level for the propagation: which kind of basic
/// step sits there and at what attribute value. A retained memo entry is
/// valid across a structural edit iff every level in its cone kept its
/// meaning.
enum LevelMeaning<VD, VA> {
    Defense(VD),
    Attack(VA),
}

impl<VD: PartialEq, VA: PartialEq> PartialEq for LevelMeaning<VD, VA> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (LevelMeaning::Defense(a), LevelMeaning::Defense(b)) => a == b,
            (LevelMeaning::Attack(a), LevelMeaning::Attack(b)) => a == b,
            _ => false,
        }
    }
}

/// A live incremental what-if session over one
/// [`AnalysisEngine`]-managed query (see the [module docs](self)).
///
/// The session is *unbound*: it does not borrow the engine. Every edit
/// takes `&mut AnalysisEngine` explicitly, so a session can live inside
/// the same struct as its engine (the `adt-serve` per-connection state
/// does exactly that) and engine queries may be interleaved between
/// edits — the session notices kernel collections and falls back
/// safely. Call [`close`](IncrementalSession::close) when done to
/// release the GC protection on the session's root.
///
/// # Examples
///
/// ```
/// use adt_analysis::{bdd_bu, AnalysisEngine};
/// use adt_core::semiring::Ext;
/// use adt_core::{catalog, MinCost};
///
/// # fn main() -> Result<(), adt_analysis::AnalysisError> {
/// let mut engine: AnalysisEngine<MinCost, MinCost> = AnalysisEngine::new();
/// let mut session = engine.incremental_session(catalog::money_theft());
/// assert_eq!(session.front().to_string(), "{(0, 80), (20, 90), (50, 140)}");
///
/// // What if phishing got cheaper? Only the cone of that one
/// // variable is re-propagated; the rest is served from the memo.
/// let report = session.set_attack_value(&mut engine, "phishing", Ext::Fin(10))?;
/// assert!(report.reused > 0);
///
/// // The refreshed front is exactly what a cold recompile computes.
/// let mut cold = catalog::money_theft();
/// cold.set_attack_value_of(cold.adt().require("phishing")?, Ext::Fin(10))?;
/// assert_eq!(&bdd_bu(&cold)?, session.front());
///
/// session.close(&mut engine);
/// # Ok(())
/// # }
/// ```
pub struct IncrementalSession<DD: AttributeDomain, DA: AttributeDomain> {
    /// The current (edited) tree.
    t: AugmentedAdt<DD, DA>,
    /// The defense-first order the session's diagram is compiled under;
    /// refreshed on structural edits (declaration order of the edited
    /// tree).
    order: DefenseFirstOrder,
    /// The compiled function of every ADT node, indexed by node id —
    /// the retained siblings a structural edit re-folds against. Only
    /// the root is GC-protected; the session relies on the kernel never
    /// collecting between its own operations.
    refs: Vec<NodeRef>,
    /// GC protection of the root function.
    handle: RootHandle,
    /// The persistent propagation state: the cached children-first
    /// traversal of the current diagram plus every node's front (see
    /// `SessionSweep` in `crate::bdd_bu`).
    sweep: SessionSweep<DD::Value, DA::Value>,
    /// The current front, refreshed by every edit.
    front: Front<DD, DA>,
    /// `|W|` of the current diagram.
    bdd_nodes: usize,
    /// Running maximum front width across the session's sweeps.
    max_front_width: usize,
    /// Kernel collections counter at the last (re)build; a delta means
    /// every unprotected ref and memo key is stale.
    collections_seen: usize,
    /// Original defense values of currently-toggled defenses, keyed by
    /// name so they survive structural edits.
    toggled: HashMap<String, DD::Value>,
}

impl<DD, DA> AnalysisEngine<DD, DA>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    /// Opens an incremental what-if session over `t`: compiles the
    /// query into the engine's manager, protects its root, runs the
    /// initial propagation and retains every intermediate for reuse by
    /// subsequent edits.
    ///
    /// The initial front is identical to
    /// [`bdd_bu`](crate::bdd_bu::bdd_bu) of `t`; it is *not* routed
    /// through the engine's front cache (a session is a live query, not
    /// a cacheable one — its tree changes under it).
    pub fn incremental_session(&mut self, t: AugmentedAdt<DD, DA>) -> IncrementalSession<DD, DA> {
        let order = DefenseFirstOrder::declaration(t.adt());
        let refs = compile_into_refs(self.kernel_mut(), t.adt(), &order);
        let root = refs[t.adt().root().index()];
        let handle = self.kernel_mut().protect(root);
        let (sweep, prop) = SessionSweep::rebuild(
            &t,
            &order,
            self.kernel(),
            root,
            SessionSweep::default(),
            |_| false,
        );
        let collections_seen = self.gc_stats().collections;
        IncrementalSession {
            t,
            order,
            refs,
            handle,
            sweep,
            front: prop.report.front,
            bdd_nodes: prop.report.bdd_nodes,
            max_front_width: prop.report.max_front_width,
            collections_seen,
            toggled: HashMap::new(),
        }
    }
}

impl<DD, DA> IncrementalSession<DD, DA>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    /// The current (edited) tree.
    pub fn tree(&self) -> &AugmentedAdt<DD, DA> {
        &self.t
    }

    /// The current Pareto front (refreshed by every edit).
    pub fn front(&self) -> &Front<DD, DA> {
        &self.front
    }

    /// `|W|` of the current diagram (see
    /// [`BddBuReport::bdd_nodes`](crate::BddBuReport::bdd_nodes)).
    pub fn bdd_nodes(&self) -> usize {
        self.bdd_nodes
    }

    /// The largest intermediate front any of this session's sweeps
    /// materialized.
    pub fn max_front_width(&self) -> usize {
        self.max_front_width
    }

    /// Closes the session: releases the GC protection on its root and
    /// lets the engine reclaim the session's nodes on its next
    /// collection.
    pub fn close(self, engine: &mut AnalysisEngine<DD, DA>) {
        engine.kernel_mut().unprotect(self.handle);
        engine.kernel_mut().maybe_gc();
    }

    /// Sets the attribute value of the basic attack step `name` and
    /// re-propagates its dirty cone.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Adt`] when `name` is unknown, not a leaf, or a
    /// defense.
    pub fn set_attack_value(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        name: &str,
        value: DA::Value,
    ) -> Result<EditReport<DD::Value, DA::Value>, AnalysisError> {
        let id = self.t.adt().require(name)?;
        self.t.set_attack_value_of(id, value)?;
        Ok(self.value_edit(engine, id))
    }

    /// Sets the attribute value of the basic defense step `name` and
    /// re-propagates its dirty cone.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Adt`] when `name` is unknown, not a leaf, or an
    /// attack.
    pub fn set_defense_value(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        name: &str,
        value: DD::Value,
    ) -> Result<EditReport<DD::Value, DA::Value>, AnalysisError> {
        let id = self.t.adt().require(name)?;
        self.t.set_defense_value_of(id, value)?;
        Ok(self.value_edit(engine, id))
    }

    /// Toggles the defense `name` between its original value and `1⊗_D`
    /// (the domain's unit — for cost domains, "already deployed, free to
    /// buy"). Toggling twice restores the original front exactly. A pure
    /// value edit: the structure function is untouched.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Adt`] when `name` is unknown or not a basic
    /// defense step.
    pub fn toggle_defense(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        name: &str,
    ) -> Result<EditReport<DD::Value, DA::Value>, AnalysisError> {
        let id = self.t.adt().require(name)?;
        // Decide the new value without touching the toggle map, so a
        // rejected edit (wrong agent, gate) leaves no trace.
        let (value, remember) = match self.toggled.get(name) {
            Some(original) => (original.clone(), None),
            None => (
                self.t.defender_domain().one(),
                self.t.defense_value_of(id).cloned(),
            ),
        };
        self.t.set_defense_value_of(id, value)?;
        match remember {
            Some(original) => {
                self.toggled.insert(name.to_owned(), original);
            }
            None => {
                self.toggled.remove(name);
            }
        }
        Ok(self.value_edit(engine, id))
    }

    /// The shared tail of every value edit: the tree already carries the
    /// new value; recompute the edited level's cone in place. The BDD is
    /// untouched (value edits never change the structure function), so
    /// the session's cached traversal is exact and the whole edit is one
    /// array pass — no manager reads, no root re-protection.
    fn value_edit(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        id: NodeId,
    ) -> EditReport<DD::Value, DA::Value> {
        if self.kernel_unstable(engine) {
            return self.full_rebuild(engine);
        }
        let level = self.order.level(id).expect("basic steps are ordered");
        let prop = self.sweep.repropagate(&self.t, &self.order, |l| l == level);
        self.finish_edit(engine, prop, false)
    }

    /// `true` when the engine's kernel restructured its arena since this
    /// session's refs and memo keys were minted — a collection ran
    /// (counter delta), or the protected root resolves to a different
    /// ref than the session recorded (renumbering the counter missed).
    fn kernel_unstable(&self, engine: &AnalysisEngine<DD, DA>) -> bool {
        engine.gc_stats().collections != self.collections_seen
            || engine.kernel().resolve(self.handle) != self.refs[self.t.adt().root().index()]
    }

    /// Recompiles the whole current tree and re-propagates from nothing —
    /// the sound-by-construction fallback every unsafe-to-reuse path
    /// lands on.
    fn full_rebuild(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
    ) -> EditReport<DD::Value, DA::Value> {
        let bdd = engine.kernel_mut();
        bdd.unprotect(self.handle);
        self.refs = compile_into_refs(bdd, self.t.adt(), &self.order);
        let root = self.refs[self.t.adt().root().index()];
        self.handle = bdd.protect(root);
        self.resweep(engine, |_| false, true)
    }

    /// The shared tail of every *structural* edit: assumes `self.refs`
    /// compiles the current tree under `self.order`; re-points the
    /// protected root, rebuilds the cached sweep over the new diagram
    /// carrying every still-valid front (none on a full fallback), and
    /// refreshes the session's report and the engine's counters.
    fn resweep(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        is_dirty_level: impl FnMut(Level) -> bool,
        full_fallback: bool,
    ) -> EditReport<DD::Value, DA::Value> {
        let root = self.refs[self.t.adt().root().index()];
        let bdd = engine.kernel_mut();
        bdd.unprotect(self.handle);
        self.handle = bdd.protect(root);
        let previous = if full_fallback {
            SessionSweep::default()
        } else {
            std::mem::take(&mut self.sweep)
        };
        let (sweep, prop) = SessionSweep::rebuild(
            &self.t,
            &self.order,
            engine.kernel(),
            root,
            previous,
            is_dirty_level,
        );
        self.sweep = sweep;
        self.finish_edit(engine, prop, full_fallback)
    }

    /// Refreshes the session's cached report and the engine's counters
    /// from one sweep's propagation result and assembles the edit report.
    fn finish_edit(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        prop: IncrementalPropagation<DD::Value, DA::Value>,
        full_fallback: bool,
    ) -> EditReport<DD::Value, DA::Value> {
        self.collections_seen = engine.gc_stats().collections;
        let stats = engine.stats_mut();
        stats.incr_edits += 1;
        stats.incr_dirty_nodes += prop.recomputed;
        if full_fallback {
            stats.incr_full_fallbacks += 1;
        }
        self.front = prop.report.front.clone();
        self.bdd_nodes = prop.report.bdd_nodes;
        self.max_front_width = self.max_front_width.max(prop.report.max_front_width);
        EditReport {
            front: prop.report.front,
            bdd_nodes: prop.report.bdd_nodes,
            max_front_width: prop.report.max_front_width,
            dirty_nodes: prop.recomputed,
            reused: prop.reused,
            full_fallback,
        }
    }

    /// The propagation meaning of every level of the current order, used
    /// to diff orders across a structural edit.
    fn level_meanings(&self) -> Vec<LevelMeaning<DD::Value, DA::Value>> {
        (0..self.order.var_count())
            .map(|l| {
                let event = self.order.event(l as Level);
                if self.order.is_defense_level(l as Level) {
                    LevelMeaning::Defense(
                        self.t
                            .defense_value_of(event)
                            .expect("defense level maps to a defense step")
                            .clone(),
                    )
                } else {
                    LevelMeaning::Attack(
                        self.t
                            .attack_value_of(event)
                            .expect("attack level maps to an attack step")
                            .clone(),
                    )
                }
            })
            .collect()
    }
}

impl<DD, DA> IncrementalSession<DD, DA>
where
    DD: AttributeDomain + Clone,
    DA: AttributeDomain + Clone,
{
    /// Rewrites the gate kind of node `name` (`AND`↔`OR` only) and
    /// recompiles just that gate and its ADT ancestors against the
    /// retained functions of every untouched node. No level changes
    /// meaning, so the entire surviving memo is reused; only BDD nodes
    /// new to the rewritten cone are propagated.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Adt`] when `name` is unknown or either the
    /// current or the requested gate is not `AND`/`OR`.
    pub fn set_gate_kind(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        name: &str,
        gate: Gate,
    ) -> Result<EditReport<DD::Value, DA::Value>, AnalysisError> {
        let id = self.t.adt().require(name)?;
        self.t = self.t.with_gate_kind(id, gate)?;
        if self.kernel_unstable(engine) {
            return Ok(self.full_rebuild(engine));
        }
        // AND↔OR keeps ids, leaves and declaration order: `self.order`
        // and all sibling refs stay valid. Recompile the gate and its
        // ancestors, children-first.
        let mut dirty = vec![false; self.t.adt().node_count()];
        dirty[id.index()] = true;
        for i in 0..self.t.adt().topological_order().len() {
            let w = self.t.adt().topological_order()[i];
            if !dirty[w.index()] && !self.t.adt()[w].children().iter().any(|c| dirty[c.index()]) {
                continue;
            }
            dirty[w.index()] = true;
            let r = compile_node(
                engine.kernel_mut(),
                self.t.adt(),
                &self.order,
                w,
                &self.refs,
            );
            self.refs[w.index()] = r;
        }
        // Zero dirty *levels*: every carried front stays valid; the
        // rebuild only sheds entries that fell out of the new reachable
        // set and propagates nodes new to the rewritten cone.
        Ok(self.resweep(engine, |_| false, false))
    }

    /// Splices `replacement` in at node `name` (Definition 1 is
    /// re-validated; orphaned nodes are pruned, shared survivors keep
    /// their identity) and re-propagates incrementally:
    ///
    /// * ADT nodes whose compiled function provably survived — leaves at
    ///   an unchanged level, gates of unchanged kind over stable
    ///   children — keep their refs; only the unstable cone recompiles;
    /// * memo entries survive unless a level of their cone changed its
    ///   *(kind, value)* meaning between the old and new declaration
    ///   orders;
    /// * a root-agent flip falls back to a full rebuild (the goal
    ///   terminal changes polarity).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Adt`] on name collisions between the retained
    /// remainder and the replacement, unknown `name`, or a splice whose
    /// agents violate Definition 1.
    pub fn replace_subtree(
        &mut self,
        engine: &mut AnalysisEngine<DD, DA>,
        name: &str,
        replacement: &AugmentedAdt<DD, DA>,
    ) -> Result<EditReport<DD::Value, DA::Value>, AnalysisError> {
        let at = self.t.adt().require(name)?;
        let (new_t, mapping) = self.t.with_replaced_subtree(at, replacement)?;
        // Toggle originals survive only for defenses retained from the
        // old arena outside the replaced slot.
        {
            let old_adt = self.t.adt();
            self.toggled.retain(|n, _| {
                old_adt
                    .node_id(n)
                    .is_some_and(|old| mapping.old_to_new[old.index()].is_some())
            });
        }
        let agent_flip = new_t.adt().root_agent() != self.t.adt().root_agent();
        let kernel_unstable = self.kernel_unstable(engine);
        let old_meanings = self.level_meanings();
        let new_order = DefenseFirstOrder::declaration(new_t.adt());
        if agent_flip || kernel_unstable {
            self.t = new_t;
            self.order = new_order;
            return Ok(self.full_rebuild(engine));
        }

        // Which old node feeds each new slot (splice survivors only; the
        // replacement's nodes have no old counterpart and recompile).
        let mut from_old: Vec<Option<NodeId>> = vec![None; new_t.adt().node_count()];
        for (old_id, _) in self.t.adt().iter() {
            if let Some(new_id) = mapping.old_to_new[old_id.index()] {
                from_old[new_id.index()] = Some(old_id);
            }
        }
        // Stability sweep (children before parents): a node's retained
        // ref is reused iff re-compiling it would reproduce it — leaves
        // whose level is unchanged, gates (kind is preserved by the
        // splice) over all-stable children.
        let mut stable = vec![false; new_t.adt().node_count()];
        let mut new_refs: Vec<NodeRef> = vec![Bdd::FALSE; new_t.adt().node_count()];
        for &w in new_t.adt().topological_order() {
            let Some(old_id) = from_old[w.index()] else {
                continue;
            };
            let node = &new_t.adt()[w];
            let keeps_function = if node.is_leaf() {
                new_order.level(w) == self.order.level(old_id)
            } else {
                node.children().iter().all(|c| stable[c.index()])
            };
            if keeps_function {
                stable[w.index()] = true;
                new_refs[w.index()] = self.refs[old_id.index()];
            }
        }
        // Diff the level meanings: a memo entry is kept only if no level
        // of its cone changed (kind, value) between the orders.
        let dirty_level: Vec<bool> = (0..new_order.var_count())
            .map(|l| {
                let event = new_order.event(l as Level);
                let new_meaning = if new_order.is_defense_level(l as Level) {
                    LevelMeaning::Defense(
                        new_t
                            .defense_value_of(event)
                            .expect("defense level maps to a defense step")
                            .clone(),
                    )
                } else {
                    LevelMeaning::Attack(
                        new_t
                            .attack_value_of(event)
                            .expect("attack level maps to an attack step")
                            .clone(),
                    )
                };
                old_meanings.get(l) != Some(&new_meaning)
            })
            .collect();

        self.t = new_t;
        self.order = new_order;
        self.refs = new_refs;
        let bdd = engine.kernel_mut();
        bdd.ensure_var_count(self.order.var_count());
        for i in 0..self.t.adt().topological_order().len() {
            let w = self.t.adt().topological_order()[i];
            if stable[w.index()] {
                continue;
            }
            let r = compile_node(
                engine.kernel_mut(),
                self.t.adt(),
                &self.order,
                w,
                &self.refs,
            );
            self.refs[w.index()] = r;
        }
        Ok(self.resweep(engine, |l| dirty_level[l as usize], false))
    }
}

impl<DD, DA> IncrementalSession<DD, DA>
where
    DD: AttributeDomain + Clone + Send + 'static,
    DA: AttributeDomain + Clone + Send + 'static,
    DD::Value: Send,
    DA::Value: Send,
{
    /// The modular front of the session's *current* tree, through the
    /// engine's module cache ([`AnalysisEngine::modular`]). After an
    /// edit, only the modules whose content changed miss the
    /// permutation-canonical module cache — untouched defense modules
    /// are served from their retained entries, which is the modular
    /// counterpart of the memo reuse the BDD path does per node.
    ///
    /// # Errors
    ///
    /// Currently infallible, like [`AnalysisEngine::modular`].
    pub fn modular_front(
        &self,
        engine: &mut AnalysisEngine<DD, DA>,
    ) -> Result<Front<DD, DA>, AnalysisError> {
        engine.modular(&self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd_bu::bdd_bu;
    use adt_core::semiring::Ext;
    use adt_core::{catalog, AdtBuilder, AdtError, MinCost};

    type Engine = AnalysisEngine<MinCost, MinCost>;

    fn fresh(t: &AugmentedAdt<MinCost, MinCost>) -> Front<MinCost, MinCost> {
        bdd_bu(t).unwrap()
    }

    #[test]
    fn value_edit_matches_cold_recompile_and_reuses() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        let report = session
            .set_attack_value(&mut engine, "phishing", Ext::Fin(10))
            .unwrap();
        assert!(report.reused > 0, "untouched cone must be served from memo");
        assert!(!report.full_fallback);
        let mut cold = catalog::money_theft();
        let id = cold.adt().require("phishing").unwrap();
        cold.set_attack_value_of(id, Ext::Fin(10)).unwrap();
        assert_eq!(&fresh(&cold), session.front());
        assert_eq!(engine.stats().incr_edits, 1);
        assert_eq!(engine.stats().incr_dirty_nodes, report.dirty_nodes);
        session.close(&mut engine);
    }

    #[test]
    fn toggle_defense_round_trips_the_front() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        let original = session.front().clone();
        let toggled = session.toggle_defense(&mut engine, "sms_auth").unwrap();
        assert_ne!(
            &toggled.front, &original,
            "a free sms_auth changes the front"
        );
        let restored = session.toggle_defense(&mut engine, "sms_auth").unwrap();
        assert_eq!(restored.front, original);
        session.close(&mut engine);
    }

    #[test]
    fn toggle_rejects_attacks_without_state_damage() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        let err = session.toggle_defense(&mut engine, "phishing").unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::Adt(AdtError::WrongAgent { .. })
        ));
        // The failed toggle left no half-applied state behind.
        assert_eq!(&fresh(&catalog::money_theft()), session.front());
        assert_eq!(engine.stats().incr_edits, 0);
        session.close(&mut engine);
    }

    #[test]
    fn gate_kind_edit_matches_cold_recompile() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        // `via_atm` is an AND gate in the case study; weaken it.
        let report = session
            .set_gate_kind(&mut engine, "via_atm", Gate::Or)
            .unwrap();
        assert!(!report.full_fallback);
        let cold = catalog::money_theft();
        let id = cold.adt().require("via_atm").unwrap();
        let cold = cold.with_gate_kind(id, Gate::Or).unwrap();
        assert_eq!(&fresh(&cold), session.front());
        // And back: the original front returns.
        session
            .set_gate_kind(&mut engine, "via_atm", Gate::And)
            .unwrap();
        assert_eq!(&fresh(&catalog::money_theft()), session.front());
        session.close(&mut engine);
    }

    /// A two-step variant of the case study's PIN-learning subtree.
    fn learn_pin_v2() -> AugmentedAdt<MinCost, MinCost> {
        let mut b = AdtBuilder::new();
        let phish = b.attack("shoulder_surf").unwrap();
        let extort = b.attack("extort_pin").unwrap();
        let gate = b.and("learn_pin_v2", [phish, extort]).unwrap();
        AugmentedAdt::builder(b.build(gate).unwrap(), MinCost, MinCost)
            .attack_value("shoulder_surf", 15u64)
            .unwrap()
            .attack_value("extort_pin", 40u64)
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn replace_subtree_matches_cold_recompile() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        // Replace the PIN-learning subtree with a two-step variant.
        let replacement = learn_pin_v2();
        let report = session
            .replace_subtree(&mut engine, "learn_pin", &replacement)
            .unwrap();
        assert!(!report.full_fallback);
        let cold = catalog::money_theft();
        let at = cold.adt().require("learn_pin").unwrap();
        let (cold, _) = cold.with_replaced_subtree(at, &replacement).unwrap();
        assert_eq!(&fresh(&cold), session.front());
        session.close(&mut engine);
    }

    /// With collection off, a long-lived engine's arena keeps every
    /// earlier query's diagram, so a late query's root index sits far
    /// above its `|W|`. Neither the one-shot report nor a session's
    /// structural edits may notice: both must match a fresh engine's.
    #[test]
    fn high_root_index_reports_match_a_fresh_engine() {
        let mut crowded = Engine::with_gc_threshold(usize::MAX);
        for n in 1..=12 {
            let t = catalog::fig4(n);
            crowded.bdd_bu_report(&t, &DefenseFirstOrder::declaration(t.adt()));
        }
        let t = catalog::money_theft();
        let order = DefenseFirstOrder::declaration(t.adt());
        let report = crowded.bdd_bu_report(&t, &order);
        let expected = Engine::with_gc_threshold(usize::MAX).bdd_bu_report(&t, &order);
        assert_eq!(report.front, expected.front);
        assert_eq!(report.bdd_nodes, expected.bdd_nodes);
        assert_eq!(report.max_front_width, expected.max_front_width);

        let mut fresh = Engine::with_gc_threshold(usize::MAX);
        let mut late = crowded.incremental_session(t.clone());
        let mut early = fresh.incremental_session(t);
        let root = crowded.kernel().resolve(late.handle);
        assert!(
            root.index() > 10 * late.bdd_nodes(),
            "root index {} is not far above |W| = {}",
            root.index(),
            late.bdd_nodes()
        );
        let replacement = learn_pin_v2();
        let edits = [
            late.set_gate_kind(&mut crowded, "via_atm", Gate::Or)
                .unwrap(),
            late.replace_subtree(&mut crowded, "learn_pin", &replacement)
                .unwrap(),
        ];
        let expected = [
            early
                .set_gate_kind(&mut fresh, "via_atm", Gate::Or)
                .unwrap(),
            early
                .replace_subtree(&mut fresh, "learn_pin", &replacement)
                .unwrap(),
        ];
        for (edit, expected) in edits.iter().zip(&expected) {
            assert!(!edit.full_fallback);
            assert_eq!(edit.front, expected.front);
            assert_eq!(edit.bdd_nodes, expected.bdd_nodes);
            assert_eq!(edit.max_front_width, expected.max_front_width);
            assert_eq!(
                (edit.dirty_nodes, edit.reused),
                (expected.dirty_nodes, expected.reused)
            );
            assert_eq!(edit.dirty_nodes + edit.reused, edit.bdd_nodes);
        }
        late.close(&mut crowded);
        early.close(&mut fresh);
    }

    #[test]
    fn gc_between_edits_falls_back_to_full_rebuild() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        // Force a collection behind the session's back: everything but
        // the protected session root is swept and every ref renumbers.
        engine.kernel_mut().set_gc_threshold(1);
        assert!(engine.kernel_mut().maybe_gc());
        engine.kernel_mut().set_gc_threshold(usize::MAX);
        let report = session
            .set_attack_value(&mut engine, "phishing", Ext::Fin(10))
            .unwrap();
        assert!(report.full_fallback);
        assert_eq!(engine.stats().incr_full_fallbacks, 1);
        let mut cold = catalog::money_theft();
        let id = cold.adt().require("phishing").unwrap();
        cold.set_attack_value_of(id, Ext::Fin(10)).unwrap();
        assert_eq!(&fresh(&cold), session.front());
        // The next edit is incremental again.
        let report = session
            .set_attack_value(&mut engine, "phishing", Ext::Fin(20))
            .unwrap();
        assert!(!report.full_fallback);
        session.close(&mut engine);
    }

    #[test]
    fn interleaved_engine_queries_do_not_corrupt_the_session() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        // A foreign query through the regular engine lifecycle, with a
        // GC threshold low enough that its cleanup collects.
        engine.set_gc_threshold(1);
        let _ = engine.analyze(&catalog::fig2()).unwrap();
        engine.set_gc_threshold(usize::MAX);
        let report = session
            .set_attack_value(&mut engine, "eavesdrop", Ext::Fin(1))
            .unwrap();
        assert!(report.full_fallback, "collection must be detected");
        let mut cold = catalog::money_theft();
        let id = cold.adt().require("eavesdrop").unwrap();
        cold.set_attack_value_of(id, Ext::Fin(1)).unwrap();
        assert_eq!(&fresh(&cold), session.front());
        session.close(&mut engine);
    }

    #[test]
    fn modular_front_agrees_after_edits() {
        let mut engine = Engine::new();
        let mut session = engine.incremental_session(catalog::money_theft());
        session
            .set_attack_value(&mut engine, "phishing", Ext::Fin(10))
            .unwrap();
        let modular = session.modular_front(&mut engine).unwrap();
        assert_eq!(&modular, session.front());
        session.close(&mut engine);
    }

    #[test]
    fn close_releases_the_root() {
        let mut engine = Engine::new();
        let before = engine.kernel().protected_count();
        let session = engine.incremental_session(catalog::fig2());
        assert_eq!(engine.kernel().protected_count(), before + 1);
        session.close(&mut engine);
        assert_eq!(engine.kernel().protected_count(), before);
    }
}
