//! Module-level parallelism: the independent defense modules of one DAG,
//! fanned out over private single-owner managers.
//!
//! `BDDBU` (Algorithm 3) is one sequential sweep over one ROBDD, so the
//! only parallelism the paper's workload offers inside a query is the one
//! its modular direction (§VII) exposes: the independent modules of a DAG
//! (see [`crate::modular`]) share no basic step, so their fronts can be
//! computed apart and joined in value space at the module boundary.
//! [`par_module_reports`] does exactly that, and nothing crosses threads
//! but the modules going in and the reports coming out: every thread owns
//! a private [`Bdd`], so no node is ever shared between threads and the
//! kernel needs no synchronization at all.
//!
//! Determinism: a module's report does not depend on which thread ran it,
//! nor on what else that thread's manager holds — the kernel is canonical,
//! the cone walk explores low cofactors before high ones whatever the
//! arena indices, and propagation is value-space — so every report is
//! byte-identical to a sequential [`crate::bdd_bu::bdd_bu_report`] of the
//! same module, at any thread count. `docs/PARALLEL.md` at the workspace
//! root records why there is no shared kernel and what the fan-out gains.

use std::panic;
use std::sync::Mutex;
use std::thread;

use adt_bdd::Bdd;
use adt_core::{AttributeDomain, AugmentedAdt};

use crate::bdd_bu::{propagate, BddBuReport};
use crate::bdd_compile::{compile_into, DefenseFirstOrder};

/// Analyzes a batch of independent (module) queries on up to `threads`
/// threads: the calling thread works alongside `min(threads, jobs) − 1`
/// scoped helpers, each thread pulls the next module off one shared queue
/// and compiles it into its own private manager under the module's
/// declaration order, then propagates its front.
///
/// Results come back in input order, each byte-identical to a sequential
/// [`crate::bdd_bu::bdd_bu_report`] of the same module. A panic on any
/// thread is re-raised on the caller with its original payload once every
/// helper has stopped.
pub(crate) fn par_module_reports<DD, DA>(
    threads: usize,
    jobs: Vec<AugmentedAdt<DD, DA>>,
) -> Vec<BddBuReport<DD::Value, DA::Value>>
where
    DD: AttributeDomain + Send,
    DA: AttributeDomain + Send,
    DD::Value: Send,
    DA::Value: Send,
{
    let count = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // One thread's share of the batch: the (slot, report) pairs it ran.
    let work = || {
        let mut bdd = Bdd::new(0);
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("the queue lock is held only to pop, never across a panic")
                .next();
            let Some((slot, t)) = next else {
                return done;
            };
            let order = DefenseFirstOrder::declaration(t.adt());
            let root = compile_into(&mut bdd, t.adt(), &order);
            done.push((slot, propagate(&t, &order, &bdd, root)));
        }
    };
    let mut slots: Vec<Option<BddBuReport<DD::Value, DA::Value>>> =
        (0..count).map(|_| None).collect();
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(count)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        for (slot, report) in done {
            slots[slot] = Some(report);
        }
    });
    slots
        .into_iter()
        .map(|report| report.expect("every module was analyzed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd_bu::bdd_bu_report;
    use adt_core::catalog;
    use adt_core::semiring::MinCost;

    #[test]
    fn module_batch_matches_per_module_sequential_runs() {
        let jobs: Vec<AugmentedAdt<MinCost, MinCost>> = vec![
            catalog::money_theft(),
            catalog::fig2(),
            catalog::fig4(5),
            catalog::fig5(),
            catalog::money_theft(),
        ];
        for threads in [1, 2, 4, 8] {
            let reports = par_module_reports(threads, jobs.clone());
            assert_eq!(reports.len(), jobs.len());
            for (t, par) in jobs.iter().zip(&reports) {
                let order = DefenseFirstOrder::declaration(t.adt());
                let seq = bdd_bu_report(t, &order);
                assert_eq!(par.front, seq.front, "{threads} threads");
                assert_eq!(par.bdd_nodes, seq.bdd_nodes, "{threads} threads");
                assert_eq!(par.max_front_width, seq.max_front_width);
            }
        }
    }
}
