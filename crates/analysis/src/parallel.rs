//! Intra-query parallelism: `BDDBU` against the concurrent shared-manager
//! kernel of `adt-bdd`.
//!
//! Everything else in this crate parallelizes *across* queries (one private
//! manager per worker — see `adt_bench::pool`); this module parallelizes
//! *within* one query, Sylvan-style, along the two axes the paper's
//! workload exposes:
//!
//! * **operation-level** — [`compile_into_shared`] builds the structure
//!   function's ROBDD with [`SharedBdd::ite_par`]: each top-level gate
//!   operation forks its cofactor subproblems onto a work-stealing
//!   [`Team`], all workers hash-consing into one sharded unique table and
//!   one concurrent lossy ITE cache;
//! * **module-level** — `par_module_reports` dispatches the independent
//!   defense modules of a DAG (see [`crate::modular`]) to the same team,
//!   each job compiling and propagating its module against the *same*
//!   shared manager, before the sequential bottom-up join at the module
//!   boundary.
//!
//! Determinism: the kernel is canonical (one [`NodeRef`] per function
//! regardless of which thread consed it first), the propagation sweep of
//! [`crate::bdd_bu`](mod@crate::bdd_bu) is value-space, and the cone walk
//! it follows ([`adt_bdd::BddRead::cone`]) is one implementation for both
//! kernels, exploring low cofactors before high ones — so every front
//! computed here is byte-identical to the sequential engine's, at any
//! thread count. The workspace's differential tests pin exactly that.
//!
//! The memory-ordering and quiescence arguments live in `docs/PARALLEL.md`
//! at the workspace root.

use std::sync::{Arc, Mutex};

use adt_bdd::{Bdd, NodeRef, SharedBdd, Team, TeamTask};
use adt_core::{Adt, AttributeDomain, AugmentedAdt, Gate};

use crate::bdd_bu::{propagate, BddBuReport};
use crate::bdd_compile::DefenseFirstOrder;

/// [`crate::bdd_compile::compile_into`] against the concurrent kernel.
///
/// The topological gate fold is identical to the sequential compiler —
/// same fold direction, same neutral elements — so the resulting root is
/// the same canonical function. With a `team`, each gate operation runs as
/// a work-stealing [`SharedBdd::ite_par`]; without one (module jobs, which
/// already *are* team tasks and must not nest a second parallel region),
/// the plain lock-striped [`SharedBdd::ite`] is used.
///
/// Grows the manager's variable count to cover the order if needed and
/// returns the root function.
pub fn compile_into_shared(
    bdd: &SharedBdd,
    team: Option<&Team>,
    adt: &Adt,
    order: &DefenseFirstOrder,
) -> NodeRef {
    bdd.ensure_var_count(order.var_count());
    let and = |f, g| match team {
        Some(team) => bdd.and_par(team, f, g),
        None => bdd.apply_and(f, g),
    };
    let or = |f, g| match team {
        Some(team) => bdd.or_par(team, f, g),
        None => bdd.apply_or(f, g),
    };
    let and_not = |f, g| match team {
        Some(team) => bdd.and_not_par(team, f, g),
        None => bdd.apply_and_not(f, g),
    };
    let mut refs: Vec<NodeRef> = vec![Bdd::FALSE; adt.node_count()];
    for &v in adt.topological_order() {
        let node = &adt[v];
        let f = match node.gate() {
            Gate::Basic => bdd.var(order.level(v).expect("basic steps are ordered")),
            Gate::And => {
                let mut acc = Bdd::TRUE;
                for &c in node.children() {
                    acc = and(acc, refs[c.index()]);
                }
                acc
            }
            Gate::Or => {
                let mut acc = Bdd::FALSE;
                for &c in node.children() {
                    acc = or(acc, refs[c.index()]);
                }
                acc
            }
            Gate::Inh => {
                let inhibited = refs[node.children()[0].index()];
                let trigger = refs[node.children()[1].index()];
                and_not(inhibited, trigger)
            }
        };
        refs[v.index()] = f;
    }
    refs[adt.root().index()]
}

/// One-shot parallel `BDDBU`: compiles `t` into a fresh shared manager
/// with the work-stealing apply, then runs the (sequential, value-space)
/// front propagation. The front — and the whole report — is byte-identical
/// to [`crate::bdd_bu::bdd_bu_report`] under the same order.
pub fn par_bdd_bu_report<DD, DA>(
    t: &AugmentedAdt<DD, DA>,
    order: &DefenseFirstOrder,
    team: &Team,
) -> BddBuReport<DD::Value, DA::Value>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let bdd = SharedBdd::new(order.var_count());
    let root = compile_into_shared(&bdd, Some(team), t.adt(), order);
    propagate(t, order, &bdd, root)
}

/// Analyzes a batch of independent (module) queries on the thread team:
/// one job per module, every job compiling into the **same** shared
/// manager — concurrent `mk` against the sharded unique table is exactly
/// the contention this path exercises — and propagating its own front.
///
/// Jobs use the sequential-shared operations (no [`SharedBdd::ite_par`]):
/// a team task must never enter a nested parallel region, and module-level
/// parallelism already keeps every worker busy. Each module is compiled
/// under its own declaration order; levels are anonymous and per-query, so
/// two modules mapping different events to the same level merely share
/// kernel nodes, never meaning.
///
/// Results come back in input order. The per-job `BddBuReport` is
/// byte-identical to a sequential [`crate::bdd_bu::bdd_bu_report`] of the
/// same module.
pub(crate) fn par_module_reports<DD, DA>(
    team: &Team,
    jobs: Vec<AugmentedAdt<DD, DA>>,
) -> Vec<BddBuReport<DD::Value, DA::Value>>
where
    DD: AttributeDomain + Send + 'static,
    DA: AttributeDomain + Send + 'static,
    DD::Value: Send,
    DA::Value: Send,
{
    let var_count = jobs
        .iter()
        .map(|t| t.adt().defense_count() + t.adt().attack_count())
        .max()
        .unwrap_or(0);
    let shared = SharedBdd::new(var_count);
    // One pre-sized slot per module; each team task fills exactly its own.
    type Slots<D, A> = Arc<Mutex<Vec<Option<BddBuReport<D, A>>>>>;
    let results: Slots<DD::Value, DA::Value> =
        Arc::new(Mutex::new((0..jobs.len()).map(|_| None).collect()));
    let tasks: Vec<TeamTask> = jobs
        .into_iter()
        .enumerate()
        .map(|(slot, t)| {
            let shared = shared.clone();
            let results = Arc::clone(&results);
            Box::new(move |_ctx: &adt_bdd::TeamCtx<'_>| {
                let order = DefenseFirstOrder::declaration(t.adt());
                let root = compile_into_shared(&shared, None, t.adt(), &order);
                let report = propagate(&t, &order, &shared, root);
                results.lock().expect("module job poisoned")[slot] = Some(report);
            }) as TeamTask
        })
        .collect();
    team.run(tasks);
    Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("team.run drained every job"))
        .into_inner()
        .expect("module job poisoned")
        .into_iter()
        .map(|report| report.expect("every job filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd_bu::bdd_bu_report;
    use adt_core::catalog;
    use adt_core::semiring::MinCost;

    #[test]
    fn parallel_compile_matches_sequential_report() {
        let team = Team::new(4);
        for t in [
            catalog::fig2(),
            catalog::money_theft(),
            catalog::fig4(6),
            catalog::fig5(),
        ] {
            for order in [
                DefenseFirstOrder::declaration(t.adt()),
                DefenseFirstOrder::dfs(t.adt()),
            ] {
                let par = par_bdd_bu_report(&t, &order, &team);
                let seq = bdd_bu_report(&t, &order);
                assert_eq!(par.front, seq.front);
                assert_eq!(par.bdd_nodes, seq.bdd_nodes);
                assert_eq!(par.max_front_width, seq.max_front_width);
            }
        }
    }

    #[test]
    fn single_thread_team_still_agrees() {
        let team = Team::new(1);
        let t = catalog::money_theft();
        let order = DefenseFirstOrder::declaration(t.adt());
        assert_eq!(
            par_bdd_bu_report(&t, &order, &team).front,
            bdd_bu_report(&t, &order).front
        );
    }

    #[test]
    fn module_batch_matches_per_module_sequential_runs() {
        let team = Team::new(4);
        let jobs: Vec<AugmentedAdt<MinCost, MinCost>> = vec![
            catalog::money_theft(),
            catalog::fig2(),
            catalog::fig4(5),
            catalog::fig5(),
            catalog::money_theft(),
        ];
        let reports = par_module_reports(&team, jobs.clone());
        assert_eq!(reports.len(), jobs.len());
        for (t, par) in jobs.iter().zip(&reports) {
            let order = DefenseFirstOrder::declaration(t.adt());
            let seq = bdd_bu_report(t, &order);
            assert_eq!(par.front, seq.front);
            assert_eq!(par.bdd_nodes, seq.bdd_nodes);
            assert_eq!(par.max_front_width, seq.max_front_width);
        }
    }
}
