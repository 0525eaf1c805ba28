//! Seeded experiment suites, mirroring the paper's §VI-B setup.
//!
//! The paper evaluates on 120 randomly generated ADTs with `|N| < 45` for
//! the three-way comparison (Fig. 9a–b include the exponential `Naive`), and
//! extends `BU`/`BDDBU` to trees of up to 325 nodes grouped in 20-node
//! buckets (Figs. 9c and 10). [`paper_suite`] and [`bucket_suite`] recreate
//! both collections deterministically from a master seed.

use adt_core::{AugmentedAdt, MinCost};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::random::{random_adt, RandomAdtConfig, Shape};

/// One generated instance together with its provenance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The generated tree.
    pub adt: AugmentedAdt<MinCost, MinCost>,
    /// The seed that produced it (combine with the config to regenerate).
    pub seed: u64,
    /// Requested target size.
    pub target_nodes: usize,
}

impl Instance {
    /// Actual node count of the instance.
    pub fn nodes(&self) -> usize {
        self.adt.adt().node_count()
    }
}

/// Which static defense-first variable order a suite job's BDD compilation
/// should use.
///
/// This mirrors the constructors of `adt_analysis::DefenseFirstOrder`
/// (declaration order, DFS discovery order, and the FORCE heuristic) as
/// plain *configuration*, so that jobs stay self-contained without `adt-gen`
/// depending on the analysis crate. The consumer (the worker pool in
/// `adt-bench`) materializes the actual order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingKind {
    /// Basic steps in declaration order (the paper's default).
    #[default]
    Declaration,
    /// Basic steps in DFS discovery order from the root.
    Dfs,
    /// The FORCE hypergraph heuristic with the given number of rounds.
    Force {
        /// Improvement rounds of the FORCE sweep.
        rounds: usize,
    },
    /// Dynamic reordering: compile under the declaration order, then let
    /// the engine's sifting pass (`Bdd::sift`, triggered by its
    /// reorder threshold) learn a better order at run time. Consumers
    /// materialize this as the declaration order plus an armed reorder
    /// threshold on the evaluating engine.
    Sift,
}

/// One self-contained unit of suite-evaluation work: a generated instance
/// (tree *and* attribute domains — [`Instance`] bundles both) together with
/// the variable-ordering configuration its BDD compilation should use.
///
/// A `SuiteJob` deliberately carries everything a worker thread needs, so a
/// pool can hand jobs out from a shared cursor and each worker can evaluate
/// its job in a private BDD manager with no shared state at all.
#[derive(Debug, Clone)]
pub struct SuiteJob {
    /// The instance to evaluate.
    pub instance: Instance,
    /// The defense-first order to compile under.
    pub ordering: OrderingKind,
}

/// Packages a generated suite as self-contained jobs, all sharing one
/// ordering configuration. The iterator yields jobs in suite order, which is
/// the order a pool's indexed results are reported in.
pub fn suite_jobs(
    instances: impl IntoIterator<Item = Instance>,
    ordering: OrderingKind,
) -> impl Iterator<Item = SuiteJob> {
    instances
        .into_iter()
        .map(move |instance| SuiteJob { instance, ordering })
}

/// The paper's primary suite: `count` random ADTs with target sizes drawn
/// uniformly from `8..max_nodes` (the paper uses 120 instances with
/// `|N| < 45`).
///
/// Instance `i` uses seed `master_seed + i`, so any single instance can be
/// regenerated in isolation.
pub fn paper_suite(
    count: usize,
    max_nodes: usize,
    shape: Shape,
    master_seed: u64,
) -> Vec<Instance> {
    let mut sizes = ChaCha8Rng::seed_from_u64(master_seed ^ 0x5EED_517E);
    (0..count)
        .map(|i| {
            let target = sizes.random_range(8..max_nodes.max(9));
            let seed = master_seed + i as u64;
            let config = match shape {
                Shape::Tree => RandomAdtConfig::tree(target),
                Shape::Dag => RandomAdtConfig::dag(target),
            };
            Instance {
                adt: random_adt(&config, seed),
                seed,
                target_nodes: target,
            }
        })
        .collect()
}

/// The scaling suite of Figs. 9c/10: `per_bucket` instances per 20-node
/// bucket, with bucket upper bounds `20, 40, …, max_nodes`.
pub fn bucket_suite(
    per_bucket: usize,
    max_nodes: usize,
    shape: Shape,
    master_seed: u64,
) -> Vec<Instance> {
    let mut out = Vec::new();
    let mut bucket_start = 1usize;
    let mut seed = master_seed;
    while bucket_start < max_nodes {
        let bucket_end = (bucket_start + 19).min(max_nodes);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0CE7);
        for _ in 0..per_bucket {
            let target = rng.random_range(bucket_start.max(8)..=bucket_end.max(9));
            let config = match shape {
                Shape::Tree => RandomAdtConfig::tree(target),
                Shape::Dag => RandomAdtConfig::dag(target),
            };
            out.push(Instance {
                adt: random_adt(&config, seed),
                seed,
                target_nodes: target,
            });
            seed += 1;
        }
        bucket_start += 20;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_is_reproducible() {
        let a = paper_suite(10, 45, Shape::Tree, 42);
        let b = paper_suite(10, 45, Shape::Tree, 42);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.nodes(), y.nodes());
        }
    }

    #[test]
    fn paper_suite_sizes_bounded() {
        for instance in paper_suite(30, 45, Shape::Tree, 1) {
            assert!(
                instance.nodes() < 45,
                "instance too large: {}",
                instance.nodes()
            );
            assert!(instance.adt.adt().is_tree());
        }
    }

    #[test]
    fn dag_suite_contains_dags() {
        let suite = paper_suite(30, 45, Shape::Dag, 7);
        assert!(suite.iter().any(|i| !i.adt.adt().is_tree()));
    }

    #[test]
    fn bucket_suite_covers_every_bucket() {
        let suite = bucket_suite(3, 100, Shape::Tree, 5);
        assert_eq!(suite.len(), 15); // 5 buckets × 3
                                     // Each bucket contributes instances that respect its upper bound.
        for (i, instance) in suite.iter().enumerate() {
            let bucket = i / 3;
            let upper = (bucket + 1) * 20;
            assert!(
                instance.target_nodes <= upper,
                "instance {i} target {} above bucket bound {upper}",
                instance.target_nodes
            );
        }
    }

    #[test]
    fn seeds_are_unique_within_suites() {
        let suite = bucket_suite(4, 80, Shape::Dag, 9);
        let mut seeds: Vec<u64> = suite.iter().map(|i| i.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), suite.len());
    }
}
