//! Seeded workload inputs.
//!
//! Every model, popularity sequence and edit script the server receives is
//! generated here from the run's `--seed` with `adt-gen`'s generators, so
//! the same seed always yields the same inputs and the server receives
//! nothing else.

use adt_core::dsl::Document;
use adt_core::{AugmentedAdt, MinCost};
use adt_gen::{edit_script, random_adt, EditOp, EditScriptConfig, RandomAdtConfig};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The min-cost/min-cost trees the server analyzes.
pub type Tree = AugmentedAdt<MinCost, MinCost>;

/// Independent sub-streams of one seed: the models of one workload do not
/// shift when another workload's inputs change.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// `cold-stream`'s distinct models.
    Cold = 1,
    /// `hot-repeat`'s working set.
    Hot = 2,
    /// `hot-repeat`'s Zipf request sequence.
    Popularity = 3,
    /// `whatif`'s base models.
    WhatIf = 4,
    /// `store-restart`'s distinct models.
    Store = 5,
    /// Edit scripts, keyed by the session's base-model stream and index.
    Scripts = 6,
}

/// The 20-node buckets of Figs. 9–10 a stream draws its sizes from:
/// bucket `b` holds generator targets `20(b−1)+1 ..= 20b` (at least 8).
#[derive(Debug, Clone, Copy)]
pub struct Buckets {
    /// First bucket (1 = 1–20 nodes).
    pub first: usize,
    /// Last bucket, inclusive.
    pub last: usize,
}

/// SplitMix64 finalizer: decorrelates `(seed, stream, index)` triples.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng(seed: u64, stream: Stream, index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(mix(mix(mix(seed) ^ stream as u64) ^ index))
}

/// Model `index` of a stream. Trees and DAGs alternate (even indices are
/// trees, as in Fig. 9's paired suites), consecutive pairs step through the
/// buckets round-robin, and each pass over the buckets steps through the
/// targets inside them. The size mix of every prefix of a stream is thus
/// the same whatever the seed, which picks the tree itself.
pub fn model(seed: u64, stream: Stream, buckets: Buckets, index: u64) -> Tree {
    let span = (buckets.last - buckets.first + 1) as u64;
    let bucket = buckets.first + ((index / 2) % span) as usize;
    let (lo, hi) = (((bucket - 1) * 20 + 1).max(8), bucket * 20);
    let target = lo + (index / 2 / span) as usize % (hi - lo + 1);
    let mut rng = rng(seed, stream, index);
    let config = if index.is_multiple_of(2) {
        RandomAdtConfig::tree(target)
    } else {
        RandomAdtConfig::dag(target)
    };
    random_adt(&config, rng.next_u64())
}

/// The wire rendering of a model: its DSL document.
pub fn dsl(t: &Tree) -> String {
    Document::from_cost_adt("g", t).to_dsl()
}

/// A request sequence over `models` ranks with Zipf(`exponent`) popularity:
/// rank `k` (0-based) is requested with probability ∝ `1/(k+1)^exponent`.
pub fn zipf(seed: u64, models: usize, len: usize, exponent: f64) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(models);
    let mut total = 0.0;
    for k in 0..models {
        total += 1.0 / ((k + 1) as f64).powf(exponent);
        cdf.push(total);
    }
    let mut rng = rng(seed, Stream::Popularity, 0);
    (0..len)
        .map(|_| {
            let u = rng.random_range(0.0..total);
            cdf.partition_point(|&c| c <= u).min(models - 1)
        })
        .collect()
}

/// A what-if session's inputs: a base model and an edit script valid
/// against it, in `adt_gen::edit_script`'s default mix (value edits,
/// toggles, gate flips and subtree swaps).
pub struct SessionInput {
    /// The model the session opens.
    pub base: Tree,
    /// The edits applied in order after `open`.
    pub ops: Vec<EditOp>,
}

/// Edits per session script.
pub const SCRIPT_LEN: usize = 20;

/// Session `index` over model `index` of `stream`.
pub fn session(seed: u64, stream: Stream, buckets: Buckets, index: u64) -> SessionInput {
    let base = model(seed, stream, buckets, index);
    let script_seed = rng(seed, Stream::Scripts, mix(stream as u64) ^ index).next_u64();
    let ops = edit_script(&base, &EditScriptConfig::of_len(SCRIPT_LEN), script_seed);
    SessionInput { base, ops }
}

/// Whether an edit restructures the diagram (`gate`, `replace`) rather than
/// only re-valuing leaves (`set`, `toggle`).
pub fn is_structural(op: &EditOp) -> bool {
    matches!(op, EditOp::SetGate { .. } | EditOp::Replace { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_alternate_shapes() {
        let buckets = Buckets { first: 1, last: 4 };
        for index in 0..16 {
            let a = model(7, Stream::Cold, buckets, index);
            let b = model(7, Stream::Cold, buckets, index);
            assert_eq!(dsl(&a), dsl(&b));
            if index % 2 == 0 {
                assert!(a.adt().is_tree(), "even indices are trees");
            }
        }
        assert_ne!(
            dsl(&model(7, Stream::Cold, buckets, 0)),
            dsl(&model(8, Stream::Cold, buckets, 0))
        );
    }

    #[test]
    fn zipf_favors_low_ranks() {
        let seq = zipf(3, 100, 10_000, 1.0);
        let top = seq.iter().filter(|&&k| k == 0).count();
        let tail = seq.iter().filter(|&&k| k == 99).count();
        assert!(seq.iter().all(|&k| k < 100));
        assert!(top > 10 * tail.max(1), "rank 0: {top}, rank 99: {tail}");
    }
}
