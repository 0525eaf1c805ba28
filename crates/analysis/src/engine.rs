//! The long-lived analysis engine: one BDD manager, many queries.
//!
//! Every other entry point of this crate ([`bdd_bu`](crate::bdd_bu::bdd_bu),
//! [`analyze`](crate::analyze), …) builds a throwaway manager per call —
//! correct, contention-free, and exactly wrong for a server that answers
//! millions of queries from one process. [`AnalysisEngine`] is the
//! server-style counterpart:
//!
//! * **Manager reuse** — queries compile into one shared [`Bdd`] (via
//!   [`compile_into`]), so structurally identical sub-functions are shared
//!   across queries by the unique table, and the arena/table/cache
//!   allocations amortize over the query stream.
//! * **Bounded memory** — after each query the root is unprotected and
//!   [`Bdd::maybe_gc`] applies the engine's GC threshold: nothing survives
//!   a collection except the roots of in-flight queries, so the arena peak
//!   is bounded by `threshold + one query's traffic` instead of growing
//!   monotonically. (`BENCH_PR4.json` quantifies this.)
//! * **Cross-query memoization** — finished fronts are cached under a
//!   *structural* key (shape + agents + attribute values, names ignored),
//!   so repeated queries — and, through [`AnalysisEngine::modular`],
//!   repeated shared *modules* — cost a hash lookup instead of a
//!   compilation. The cache stores value-space fronts, never `NodeRef`s,
//!   so it is immune to GC renumbering.
//!
//! # Correctness of the cache key
//!
//! A cache hit requires bit-for-bit equality of the structural encoding
//! *and* `PartialEq`-equality of every attribute value (the hash only
//! buckets; a colliding hash falls through to the full comparison). Equal
//! keys describe isomorphic augmented ADTs, and every algorithm in this
//! crate computes the same front for isomorphic inputs (Theorem 2 — the
//! front is a function of the structure function and the attributions, not
//! of names or node identity). One caveat is *domain instances*: the key
//! does not include `DD`/`DA` state, so an engine must only serve queries
//! whose domain instances are interchangeable. Every domain in `adt-core`
//! is a stateless unit struct, which satisfies this trivially; a future
//! stateful domain would need to become part of the key.
//!
//! The key is built from the *ADT* (shape, agents, values, order levels),
//! never from kernel [`NodeRef`]s — deliberately so:
//! refs are renumbered
//! by GC and, since the complement-edge kernel, carry a polarity tag, so
//! a ref-based key would need both the tag bits and GC-epoch bookkeeping
//! to stay sound. A pre-compilation key sidesteps both hazards, and the
//! cached value space (fronts) is equally ref-free.
//!
//! # Bounded cache (LRU)
//!
//! The cache holds at most [`AnalysisEngine::cache_capacity`] entries
//! ([`DEFAULT_CACHE_CAPACITY`] unless configured): past that, the entry
//! whose last hit is oldest is evicted, so unbounded streams of distinct
//! queries no longer grow the cache without limit while hot modules stay
//! resident. [`AnalysisEngine::clear_cache`] still empties it wholesale.
//!
//! # Persistent second tier
//!
//! [`AnalysisEngine::open_store`] attaches an `adt-store` directory as a
//! second cache tier below the in-memory LRU: memory misses probe the
//! store (a hit is promoted back into memory), inserts append to it, and
//! on the sequential BDD path the *compiled diagram* is persisted too, so
//! a restarted process replays one linear `mk` pass instead of
//! recompiling. The store key is the canonical byte encoding of the same
//! structural `QueryKey` the memory tier compares — every correctness argument
//! above carries over verbatim because records embed their full key bytes
//! and are verified byte-for-byte on load (see `adt-store`'s crate docs).
//! [`EngineStats::store_hits`]/[`EngineStats::store_misses`]/
//! [`EngineStats::store_writes`] count the tier's traffic.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::PathBuf;

use adt_bdd::{Bdd, GcStats, NodeRef};
use adt_core::{Agent, AttributeDomain, AugmentedAdt, Gate};
use adt_store::{Store, ValueCodec, KIND_DIAGRAM, KIND_FRONT};

use crate::bdd_bu::{propagate, BddBuReport};
use crate::bdd_compile::{compile_into, DefenseFirstOrder};
use crate::bottom_up::{bottom_up, bu_with_leaf_fronts};
use crate::error::AnalysisError;
use crate::modular::{decompose, modular_core, recombine, Decomposed, ModuleAnalyzer};
use crate::parallel::par_module_reports;
use crate::Front;

/// Default automatic-GC threshold of a fresh engine, in arena nodes.
///
/// 2²⁰ nodes ≈ 12 MiB of arena — far above any single query of the paper's
/// workloads (so the threshold never fires mid-stream pathologies) yet
/// small enough that a long query stream stays inside cache-friendly
/// memory. Tune per deployment with [`AnalysisEngine::set_gc_threshold`].
pub const DEFAULT_GC_THRESHOLD: usize = 1 << 20;

/// Default capacity of the cross-query front cache, in entries.
///
/// Deliberately generous — a front plus its structural key is hundreds of
/// bytes, so 4096 entries are low single-digit MiB — but *bounded*: an
/// unbounded stream of distinct queries previously grew the cache without
/// limit (the ROADMAP's "eviction smarter than `clear_cache`" item). Tune
/// with [`AnalysisEngine::set_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Key-space tag: which algorithm/shape produced a cached front (fronts
/// agree across algorithms, but the cached *report metadata* — BDD size,
/// width — does not, so the tags keep the entries apart).
const TAG_BOTTOM_UP: u32 = 0;
const TAG_BDD: u32 = 1;
const TAG_MODULAR: u32 = 2;

/// Cache-effectiveness counters of an [`AnalysisEngine`].
///
/// Every cache-consulting analysis — top-level queries *and* module
/// sub-analyses — counts as one lookup, so
/// `cache_hits + cache_misses` is the total number of front requests the
/// engine has served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Front requests answered from the cross-query cache.
    pub cache_hits: usize,
    /// Front requests that had to compile and propagate.
    pub cache_misses: usize,
    /// The subset of `cache_hits` that only hit because module keys are
    /// *permutation-canonical*: the probe and the resident entry describe
    /// order-isomorphic modules (children of `AND`/`OR` gates permuted,
    /// same multiset of subtrees and values), which the pre-canonical key
    /// scheme would have missed. Always `≤ cache_hits`.
    pub perm_module_hits: usize,
    /// In-memory misses answered by the persistent store tier (each hit is
    /// promoted back into memory). Always `≤ cache_misses`; zero without
    /// an attached store.
    pub store_hits: usize,
    /// In-memory misses the persistent store also missed. Only counted
    /// while a store is attached, so `store_hits + store_misses` is the
    /// number of store probes.
    pub store_misses: usize,
    /// Records — fronts and compiled diagrams — newly appended to the
    /// persistent store (deduplicated re-inserts are not counted).
    pub store_writes: usize,
    /// Compiled diagrams replayed from the store instead of recompiled
    /// from the ADT (sequential BDD path only).
    pub store_bdd_loads: usize,
    /// Edits applied through an
    /// [`IncrementalSession`](crate::incremental::IncrementalSession).
    pub incr_edits: usize,
    /// BDD nodes re-propagated across all incremental edits (the summed
    /// dirty-cone sizes; reachable − dirty nodes were served from the
    /// session's retained memo).
    pub incr_dirty_nodes: usize,
    /// Incremental edits that could not reuse anything and fell back to a
    /// full recompile + propagate (root-agent flips, kernel GC between
    /// edits).
    pub incr_full_fallbacks: usize,
}

impl EngineStats {
    /// Total front requests served.
    pub fn lookups(&self) -> usize {
        self.cache_hits + self.cache_misses
    }

    /// Fraction of requests served from cache (0.0 for an idle engine).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups() as f64
        }
    }

    /// Fraction of persistent-store probes the store answered (0.0 when no
    /// store is attached or it was never probed).
    pub fn store_hit_rate(&self) -> f64 {
        let probes = self.store_hits + self.store_misses;
        if probes == 0 {
            0.0
        } else {
            self.store_hits as f64 / probes as f64
        }
    }
}

/// The full structural identity of a query: what must match for a cached
/// front to be reused. See the module docs for the correctness argument.
#[derive(Clone)]
struct QueryKey<VD, VA> {
    /// Canonical encoding of the ADT shape: tag, then per topological node
    /// `[agent/gate head, child count, child local indices…]` (levels of
    /// the variable order appended for BDD-path keys), then the root's
    /// local index. Module keys ([`TAG_MODULAR`], tree-shaped) list
    /// `AND`/`OR` children in a *sorted canonical order* instead of
    /// declaration order, so order-isomorphic modules share one entry.
    structure: Vec<u32>,
    /// Defense-leaf values in topological encounter order.
    defense_values: Vec<VD>,
    /// Attack-leaf values in topological encounter order.
    attack_values: Vec<VA>,
    /// Hash of the *pre-canonicalization* (declaration-order) key.
    /// Deliberately excluded from [`QueryKey::matches`]: it only exists so
    /// a hit whose probe and resident fingerprints differ can be counted
    /// as a permutation-canonical hit ([`EngineStats::perm_module_hits`])
    /// — the hit the old key scheme would have missed. For non-canonical
    /// keys it equals the key's own hash.
    raw_fingerprint: u64,
}

impl<VD: PartialEq, VA: PartialEq> QueryKey<VD, VA> {
    fn matches(&self, other: &Self) -> bool {
        self.structure == other.structure
            && self.defense_values == other.defense_values
            && self.attack_values == other.attack_values
    }
}

/// What the cache stores per key: the front plus the report metadata of
/// the producing run (zero for the non-BDD tags).
#[derive(Clone)]
struct CachedReport<VD: Clone, VA: Clone> {
    front: Front2<VD, VA>,
    bdd_nodes: usize,
    max_front_width: usize,
}

/// Value-typed front alias (the crate's [`Front`] is domain-typed).
type Front2<VD, VA> = adt_core::ParetoFront<VD, VA>;

struct MemoEntry<VD: Clone, VA: Clone> {
    key: QueryKey<VD, VA>,
    report: CachedReport<VD, VA>,
    /// Engine tick of the last hit (or the insertion), driving LRU
    /// eviction once the cache reaches its capacity.
    last_used: u64,
}

/// The hash-bucketed cross-query cache (hash → entries whose keys landed
/// there; see [`QueryKey::matches`] for the collision-proof equality).
type Memo<VD, VA> = HashMap<u64, Vec<MemoEntry<VD, VA>>>;

/// The persistent second cache tier: the on-disk [`Store`] plus the codec
/// hooks bridging it to the engine's key/report types.
///
/// The hooks are plain `fn` pointers monomorphized where the
/// `DD::Value: ValueCodec` bounds hold ([`AnalysisEngine::set_store`]), so
/// the engine's unconstrained lookup/insert paths can call them without
/// carrying codec bounds on every impl block.
struct StoreTier<VD: Clone, VA: Clone> {
    store: Store,
    /// Canonical byte encoding of a [`QueryKey`] (`raw_fingerprint`
    /// excluded — it is hash-only state, excluded from key equality too).
    encode_key: fn(&QueryKey<VD, VA>) -> Vec<u8>,
    /// `(key bytes, report) → FrontRecord` payload bytes.
    encode_front: fn(&[u8], &CachedReport<VD, VA>) -> Vec<u8>,
    /// `(payload, key bytes) → report`; `None` on malformed bytes or an
    /// embedded-key mismatch (digest collision → miss).
    decode_front: FrontDecoder<VD, VA>,
}

/// Decodes a front-record payload against the probe's key bytes; `None` on
/// malformed bytes or an embedded-key mismatch (digest collision → miss).
type FrontDecoder<VD, VA> = fn(&[u8], &[u8]) -> Option<CachedReport<VD, VA>>;

/// Canonical store-key bytes of one query: the three components that
/// [`QueryKey::matches`] compares, each through the canonical
/// [`ValueCodec`] encoding — so byte equality of store keys coincides with
/// the memory tier's key equality.
fn store_key_bytes<VD, VA>(key: &QueryKey<VD, VA>) -> Vec<u8>
where
    VD: Clone + ValueCodec,
    VA: Clone + ValueCodec,
{
    let mut out = Vec::new();
    key.structure.encode(&mut out);
    key.defense_values.encode(&mut out);
    key.attack_values.encode(&mut out);
    out
}

fn encode_front_record<VD, VA>(key_bytes: &[u8], report: &CachedReport<VD, VA>) -> Vec<u8>
where
    VD: Clone + PartialEq + std::fmt::Debug + ValueCodec,
    VA: Clone + PartialEq + std::fmt::Debug + ValueCodec,
{
    adt_store::FrontRecord {
        key: key_bytes.to_vec(),
        points: report.front.points().to_vec(),
        bdd_nodes: report.bdd_nodes,
        max_front_width: report.max_front_width,
    }
    .encode()
}

fn decode_front_record<VD, VA>(payload: &[u8], key_bytes: &[u8]) -> Option<CachedReport<VD, VA>>
where
    VD: Clone + PartialEq + std::fmt::Debug + ValueCodec,
    VA: Clone + PartialEq + std::fmt::Debug + ValueCodec,
{
    let record = adt_store::FrontRecord::<VD, VA>::decode(payload, key_bytes)?;
    Some(CachedReport {
        // Stored points are a persisted `front.points()` — already in
        // canonical staircase order, so the trusted constructor applies.
        front: Front2::from_canonical_points(record.points),
        bdd_nodes: record.bdd_nodes,
        max_front_width: record.max_front_width,
    })
}

/// Builds the structural key (and its hash) of one query.
///
/// Node names are deliberately excluded: two differently-named but
/// isomorphic, identically-attributed trees share one entry. Attribute
/// values enter the *hash* through their `Debug` rendering (the only
/// representation `AttributeDomain::Value` guarantees) but enter the
/// *equality check* through `PartialEq`, so an ambiguous `Debug` can only
/// cost a bucket collision, never a wrong hit.
fn query_key<DD, DA>(
    t: &AugmentedAdt<DD, DA>,
    tag: u32,
    order: Option<&DefenseFirstOrder>,
) -> (u64, QueryKey<DD::Value, DA::Value>)
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let adt = t.adt();
    let mut local = vec![u32::MAX; adt.node_count()];
    let mut structure = Vec::with_capacity(3 * adt.node_count() + 2);
    let mut defense_values = Vec::with_capacity(adt.defense_count());
    let mut attack_values = Vec::with_capacity(adt.attack_count());
    structure.push(tag);
    for (position, &v) in adt.topological_order().iter().enumerate() {
        local[v.index()] = position as u32;
        let node = &adt[v];
        let agent_bit = match node.agent() {
            Agent::Defender => 0u32,
            Agent::Attacker => 1,
        };
        let gate_tag = match node.gate() {
            Gate::Basic => 0u32,
            Gate::And => 1,
            Gate::Or => 2,
            Gate::Inh => 3,
        };
        structure.push(agent_bit << 2 | gate_tag);
        structure.push(node.children().len() as u32);
        for &c in node.children() {
            debug_assert_ne!(local[c.index()], u32::MAX, "child after parent");
            structure.push(local[c.index()]);
        }
        if node.is_leaf() {
            if let Some(order) = order {
                structure.push(order.level(v).expect("basic steps are ordered"));
            }
            match node.agent() {
                Agent::Defender => {
                    defense_values.push(t.defense_value_of(v).expect("defense leaf value").clone())
                }
                Agent::Attacker => {
                    attack_values.push(t.attack_value_of(v).expect("attack leaf value").clone())
                }
            }
        }
    }
    structure.push(local[adt.root().index()]);
    finish_key(structure, defense_values, attack_values, None)
}

/// Hashes the assembled key parts and packs the [`QueryKey`]. The hash is
/// what buckets the memo; `raw_fingerprint` (if `None`, the hash itself)
/// tags where the key came from before canonicalization — see
/// [`QueryKey::raw_fingerprint`].
fn finish_key<VD: std::fmt::Debug, VA: std::fmt::Debug>(
    structure: Vec<u32>,
    defense_values: Vec<VD>,
    attack_values: Vec<VA>,
    raw_fingerprint: Option<u64>,
) -> (u64, QueryKey<VD, VA>) {
    let mut hasher = DefaultHasher::new();
    structure.hash(&mut hasher);
    for value in &defense_values {
        hash_debug(&mut hasher, value);
    }
    for value in &attack_values {
        hash_debug(&mut hasher, value);
    }
    let hash = hasher.finish();
    (
        hash,
        QueryKey {
            structure,
            defense_values,
            attack_values,
            raw_fingerprint: raw_fingerprint.unwrap_or(hash),
        },
    )
}

/// The [`TAG_MODULAR`] key of one module, *permutation-canonical* on trees:
/// `AND`/`OR` children are listed in a canonical sorted order, so two
/// modules that differ only by the declaration order of commutative
/// children — order-isomorphic modules, whose structure functions and
/// hence fronts are identical (Theorem 2) — produce bit-identical keys and
/// share one cache entry. `INH` children are order-*significant*
/// (`INH(a, d) ≠ INH(d, a)`) and keep their positions.
///
/// DAG-shaped modules keep the declaration-order key: under sharing, child
/// lists hold *references*, and sorting them by subtree encoding would
/// conflate a DAG with the tree that unfolds it — which has a different
/// front in general. Trees are the overwhelmingly common module shape
/// (every maximal module of the paper's suites is one), so that is where
/// the canonicalization pays.
fn module_query_key<DD, DA>(t: &AugmentedAdt<DD, DA>) -> (u64, QueryKey<DD::Value, DA::Value>)
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    let (raw_hash, raw_key) = query_key(t, TAG_MODULAR, None);
    if !t.adt().is_tree() {
        return (raw_hash, raw_key);
    }
    let adt = t.adt();
    // Bottom-up canonical encoding of every subtree: gate/agent head, then
    // the children's encodings (sorted for AND/OR, positional for INH),
    // each length-prefixed, and leaf values through their `Debug`
    // rendering. Equal encodings ⇒ order-isomorphic subtrees (up to
    // `Debug` ambiguity, which the `PartialEq` check in `matches` turns
    // into a miss, never a wrong hit).
    let mut enc: Vec<Vec<u8>> = vec![Vec::new(); adt.node_count()];
    for &v in adt.topological_order() {
        let node = &adt[v];
        let mut e = Vec::new();
        let agent_bit = match node.agent() {
            Agent::Defender => 0u8,
            Agent::Attacker => 1,
        };
        let gate_tag = match node.gate() {
            Gate::Basic => 0u8,
            Gate::And => 1,
            Gate::Or => 2,
            Gate::Inh => 3,
        };
        e.push(agent_bit << 2 | gate_tag);
        match node.gate() {
            Gate::Basic => {
                use std::fmt::Write as _;
                struct ByteWriter<'a>(&'a mut Vec<u8>);
                impl std::fmt::Write for ByteWriter<'_> {
                    fn write_str(&mut self, s: &str) -> std::fmt::Result {
                        self.0.extend_from_slice(s.as_bytes());
                        Ok(())
                    }
                }
                match node.agent() {
                    Agent::Defender => {
                        let value = t.defense_value_of(v).expect("defense leaf value");
                        write!(ByteWriter(&mut e), "{value:?}").expect("Debug never fails");
                    }
                    Agent::Attacker => {
                        let value = t.attack_value_of(v).expect("attack leaf value");
                        write!(ByteWriter(&mut e), "{value:?}").expect("Debug never fails");
                    }
                }
                e.push(0xFF);
            }
            Gate::Inh => {
                for &c in node.children() {
                    let child = &enc[c.index()];
                    e.extend_from_slice(&(child.len() as u32).to_le_bytes());
                    e.extend_from_slice(child);
                }
            }
            Gate::And | Gate::Or => {
                let mut kids: Vec<&[u8]> = node
                    .children()
                    .iter()
                    .map(|c| &enc[c.index()][..])
                    .collect();
                kids.sort_unstable();
                for child in kids {
                    e.extend_from_slice(&(child.len() as u32).to_le_bytes());
                    e.extend_from_slice(child);
                }
            }
        }
        enc[v.index()] = e;
    }

    // Re-emit the key in the canonical order: an iterative postorder DFS
    // from the root, descending into AND/OR children sorted by encoding,
    // assigning local indices on completion (children before parents) —
    // the same `[head, child count, child locals…]` record format as
    // `query_key`, just in a declaration-order-independent sequence.
    let mut local = vec![u32::MAX; adt.node_count()];
    let mut structure = Vec::with_capacity(3 * adt.node_count() + 2);
    let mut defense_values = Vec::with_capacity(adt.defense_count());
    let mut attack_values = Vec::with_capacity(adt.attack_count());
    structure.push(TAG_MODULAR);
    let mut emitted = 0u32;
    // Stack frames: (node, children in canonical order, next child slot).
    let mut stack = vec![(
        adt.root(),
        canonical_children(adt, adt.root(), &enc),
        0usize,
    )];
    while let Some((v, children, cursor)) = stack.last_mut() {
        if let Some(&c) = children.get(*cursor) {
            *cursor += 1;
            let frame = (c, canonical_children(adt, c, &enc), 0usize);
            stack.push(frame);
            continue;
        }
        let (v, children) = (*v, std::mem::take(children));
        stack.pop();
        let node = &adt[v];
        let agent_bit = match node.agent() {
            Agent::Defender => 0u32,
            Agent::Attacker => 1,
        };
        let gate_tag = match node.gate() {
            Gate::Basic => 0u32,
            Gate::And => 1,
            Gate::Or => 2,
            Gate::Inh => 3,
        };
        structure.push(agent_bit << 2 | gate_tag);
        structure.push(children.len() as u32);
        for c in children {
            debug_assert_ne!(local[c.index()], u32::MAX, "child after parent");
            structure.push(local[c.index()]);
        }
        if node.is_leaf() {
            match node.agent() {
                Agent::Defender => {
                    defense_values.push(t.defense_value_of(v).expect("defense leaf value").clone())
                }
                Agent::Attacker => {
                    attack_values.push(t.attack_value_of(v).expect("attack leaf value").clone())
                }
            }
        }
        local[v.index()] = emitted;
        emitted += 1;
    }
    structure.push(local[adt.root().index()]);
    finish_key(structure, defense_values, attack_values, Some(raw_hash))
}

/// The children of `v` in canonical-key order: sorted by subtree encoding
/// for the commutative gates, positional otherwise.
fn canonical_children(
    adt: &adt_core::Adt,
    v: adt_core::NodeId,
    enc: &[Vec<u8>],
) -> Vec<adt_core::NodeId> {
    let node = &adt[v];
    let mut children: Vec<adt_core::NodeId> = node.children().to_vec();
    if matches!(node.gate(), Gate::And | Gate::Or) {
        children.sort_by(|a, b| enc[a.index()].cmp(&enc[b.index()]));
    }
    children
}

/// Sifting groups for the manager's levels under a defense-first order:
/// defense levels form group 0, attack levels group 1, and any manager
/// levels beyond this query's order (parked there by earlier queries with
/// wider orders — necessarily empty of this query's live cone) group 2.
/// Group windows are never crossed, so the Definition 11 defense-first
/// shape survives every sift (see `DefenseFirstOrder::permuted`).
fn reorder_groups(order: &DefenseFirstOrder, manager_levels: usize) -> Vec<u32> {
    (0..manager_levels)
        .map(|level| {
            if level < order.defense_count() {
                0
            } else if level < order.var_count() {
                1
            } else {
                2
            }
        })
        .collect()
}

/// Streams a value's `Debug` rendering straight into the hasher — no
/// intermediate `String`, which matters because keys are built on *every*
/// lookup, cache hits included. A `0xFF` terminator delimits values (an
/// ambiguity here could only cost a bucket collision anyway — hits are
/// verified by `PartialEq` — but cheap separators keep the hash honest).
fn hash_debug(hasher: &mut impl Hasher, value: &impl std::fmt::Debug) {
    struct HashWriter<'a, H: Hasher>(&'a mut H);
    impl<H: Hasher> std::fmt::Write for HashWriter<'_, H> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    use std::fmt::Write as _;
    write!(HashWriter(hasher), "{value:?}").expect("Debug formatting never fails");
    hasher.write_u8(0xFF);
}

/// A persistent Pareto-front analysis engine: one GC-managed BDD manager
/// and one cross-query front cache, reused across an unbounded stream of
/// queries.
///
/// Construct once (per worker thread — the engine is single-threaded by
/// design, workers never share managers), then call
/// [`analyze`](AnalysisEngine::analyze),
/// [`bdd_bu_report`](AnalysisEngine::bdd_bu_report) or
/// [`modular`](AnalysisEngine::modular) per query. Results are identical
/// to the one-shot functions they mirror — the workspace's differential
/// tests pin warm-engine output to fresh-manager output front-for-front.
///
/// # Examples
///
/// ```
/// use adt_analysis::AnalysisEngine;
/// use adt_core::{catalog, MinCost};
///
/// let mut engine: AnalysisEngine<MinCost, MinCost> = AnalysisEngine::new();
/// let first = engine.analyze(&catalog::money_theft()).unwrap();
/// // The repeat is served from the cross-query cache — no recompilation.
/// let again = engine.analyze(&catalog::money_theft()).unwrap();
/// assert_eq!(first, again);
/// assert_eq!(engine.stats().cache_hits, 1);
/// assert_eq!(first.to_string(), "{(0, 80), (20, 90), (50, 140)}");
/// ```
pub struct AnalysisEngine<DD: AttributeDomain, DA: AttributeDomain> {
    bdd: Bdd,
    memo: Memo<DD::Value, DA::Value>,
    stats: EngineStats,
    /// Maximum entries of the front cache; the least-recently-used entry
    /// is evicted past this. `0` disables caching entirely.
    cache_capacity: usize,
    /// Monotone logical clock stamping cache touches for LRU.
    tick: u64,
    /// Threads a [`modular`](AnalysisEngine::modular) miss may fan its
    /// modules out over (1 = the sequential path; see
    /// [`AnalysisEngine::set_kernel_threads`]).
    kernel_threads: usize,
    /// The persistent second cache tier, if one is attached (see
    /// [`AnalysisEngine::open_store`]).
    store: Option<StoreTier<DD::Value, DA::Value>>,
}

impl<DD: AttributeDomain, DA: AttributeDomain> Default for AnalysisEngine<DD, DA> {
    fn default() -> Self {
        Self::new()
    }
}

impl<DD, DA> AnalysisEngine<DD, DA>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
{
    /// A fresh engine with the [`DEFAULT_GC_THRESHOLD`].
    pub fn new() -> Self {
        Self::with_gc_threshold(DEFAULT_GC_THRESHOLD)
    }

    /// A fresh engine whose manager auto-collects once its arena reaches
    /// `gc_threshold` nodes (`usize::MAX` disables GC).
    pub fn with_gc_threshold(gc_threshold: usize) -> Self {
        let mut bdd = Bdd::new(0);
        bdd.set_gc_threshold(gc_threshold);
        AnalysisEngine {
            bdd,
            memo: HashMap::new(),
            stats: EngineStats::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            tick: 0,
            kernel_threads: 1,
            store: None,
        }
    }

    /// Switches the engine's *intra-query* parallelism: with `threads > 1`,
    /// [`modular`](AnalysisEngine::modular) analyzes the independent
    /// modules a query's cache lookups missed on up to `threads` threads,
    /// each with a private single-owner manager. `threads ≤ 1` (the
    /// default) keeps the sequential path. Every other query runs the
    /// engine's own manager at any setting.
    ///
    /// Fronts are identical at every thread count (the kernel is
    /// canonical and propagation is value-space; the workspace pins this
    /// differentially); see [`modular`](AnalysisEngine::modular) for the
    /// bookkeeping-only differences in its cache entries.
    pub fn set_kernel_threads(&mut self, threads: usize) {
        self.kernel_threads = threads.max(1);
    }

    /// The configured intra-query thread count (see
    /// [`AnalysisEngine::set_kernel_threads`]).
    pub fn kernel_threads(&self) -> usize {
        self.kernel_threads
    }

    /// Changes the automatic-GC threshold of the underlying manager.
    pub fn set_gc_threshold(&mut self, nodes: usize) {
        self.bdd.set_gc_threshold(nodes);
    }

    /// The current automatic-GC threshold.
    pub fn gc_threshold(&self) -> usize {
        self.bdd.gc_threshold()
    }

    /// Arms dynamic variable reordering: once a query's compiled diagram
    /// reaches `nodes` live nodes, the engine sifts the manager (defense
    /// levels never crossing into attack levels) and propagates under the
    /// learned order. `usize::MAX` (the default) disables reordering, and
    /// every existing code path is byte-identical in that mode.
    ///
    /// The learned order becomes part of the structural cache key: the
    /// result is cached under *both* the requested and the learned order,
    /// so a repeat of either query is a pure cache hit.
    pub fn set_reorder_threshold(&mut self, nodes: usize) {
        self.bdd.set_reorder_threshold(nodes);
    }

    /// The current dynamic-reordering threshold (see
    /// [`AnalysisEngine::set_reorder_threshold`]).
    pub fn reorder_threshold(&self) -> usize {
        self.bdd.reorder_threshold()
    }

    /// Bounds the front cache to at most `entries` entries, evicting the
    /// least-recently-used entries immediately if the cache is already
    /// over the new bound. `0` disables caching (every query recomputes),
    /// `usize::MAX` restores the unbounded pre-LRU behavior.
    pub fn set_cache_capacity(&mut self, entries: usize) {
        self.cache_capacity = entries;
        while self.cached_fronts() > self.cache_capacity {
            self.evict_lru();
        }
    }

    /// The current front-cache capacity (see
    /// [`AnalysisEngine::set_cache_capacity`]).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Restores the engine to its just-constructed state (empty manager,
    /// empty cache, zeroed stats), keeping only its configuration — the GC
    /// threshold and the cache capacity. This is the "cold" baseline of
    /// the `bench_engine` harness and the per-suite reset of the worker
    /// pool's non-warm mode.
    pub fn reset(&mut self) {
        let capacity = self.cache_capacity;
        let reorder = self.reorder_threshold();
        let threads = self.kernel_threads;
        // The persistent store is configuration too: a reset wipes the
        // *process* state (manager, memory cache, stats) while the on-disk
        // tier keeps serving — that asymmetry is exactly what makes
        // restarted processes start warm.
        let store = self.store.take();
        *self = Self::with_gc_threshold(self.gc_threshold());
        self.cache_capacity = capacity;
        self.bdd.set_reorder_threshold(reorder);
        self.kernel_threads = threads;
        self.store = store;
    }

    /// Drops every cached front, keeping the manager. Bounds the memory of
    /// the (otherwise unbounded) cross-query cache on streams with little
    /// repetition. The persistent store tier (append-only by design) is
    /// unaffected — cleared entries are re-promoted from disk on their
    /// next miss.
    pub fn clear_cache(&mut self) {
        self.memo.clear();
    }

    /// The attached persistent store, if any (read access — e.g. for
    /// [`adt_store::StoreStats`] reporting).
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref().map(|tier| &tier.store)
    }

    /// Detaches the persistent store tier, returning the handle.
    pub fn take_store(&mut self) -> Option<Store> {
        self.store.take().map(|tier| tier.store)
    }

    /// Number of distinct fronts currently cached.
    pub fn cached_fronts(&self) -> usize {
        self.memo.values().map(Vec::len).sum()
    }

    /// Cache-effectiveness counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Kernel access for the incremental session (same crate only): the
    /// session compiles, protects and propagates against the engine's
    /// manager directly, bypassing the per-query lifecycle.
    pub(crate) fn kernel(&self) -> &Bdd {
        &self.bdd
    }

    /// Mutable kernel access for the incremental session (same crate only).
    pub(crate) fn kernel_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// Mutable stats access for the incremental session (same crate only).
    pub(crate) fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// Garbage-collection statistics of the underlying manager.
    pub fn gc_stats(&self) -> GcStats {
        self.bdd.gc_stats()
    }

    /// Current arena size of the underlying manager (nodes, terminals and
    /// not-yet-collected garbage included).
    pub fn arena_nodes(&self) -> usize {
        self.bdd.total_nodes()
    }

    /// Largest arena size the engine's manager ever reached — the memory
    /// high-water mark that GC is there to bound.
    pub fn peak_arena(&self) -> usize {
        self.bdd.peak_arena()
    }

    /// Serves a front from the cache, or computes-and-caches it.
    fn cached_front(
        &mut self,
        hash: u64,
        key: QueryKey<DD::Value, DA::Value>,
        compute: impl FnOnce(&mut Self) -> Result<Front<DD, DA>, AnalysisError>,
    ) -> Result<Front<DD, DA>, AnalysisError> {
        if let Some(hit) = self.lookup(hash, &key) {
            return Ok(hit.front);
        }
        let front = compute(self)?;
        self.insert(
            hash,
            key,
            CachedReport {
                front: front.clone(),
                bdd_nodes: 0,
                max_front_width: 0,
            },
        );
        Ok(front)
    }

    fn lookup(
        &mut self,
        hash: u64,
        key: &QueryKey<DD::Value, DA::Value>,
    ) -> Option<CachedReport<DD::Value, DA::Value>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(bucket) = self.memo.get_mut(&hash) {
            if let Some(entry) = bucket.iter_mut().find(|e| e.key.matches(key)) {
                entry.last_used = tick;
                self.stats.cache_hits += 1;
                if entry.key.raw_fingerprint != key.raw_fingerprint {
                    // The canonical keys match but the declaration-order
                    // fingerprints differ: this hit exists only because
                    // module keys canonicalize commutative child order.
                    self.stats.perm_module_hits += 1;
                }
                return Some(entry.report.clone());
            }
        }
        self.stats.cache_misses += 1;
        // Memory miss: consult the persistent tier. A hit is promoted into
        // the memory tier so repeats of this key stay in-process.
        let mut promoted = None;
        if self.cache_capacity > 0 {
            if let Some(tier) = self.store.as_mut() {
                let key_bytes = (tier.encode_key)(key);
                match tier
                    .store
                    .get(KIND_FRONT, &key_bytes)
                    .and_then(|payload| (tier.decode_front)(&payload, &key_bytes))
                {
                    Some(report) => {
                        self.stats.store_hits += 1;
                        promoted = Some(report);
                    }
                    None => self.stats.store_misses += 1,
                }
            }
        }
        let report = promoted?;
        self.insert_memory(hash, key.clone(), report.clone());
        Some(report)
    }

    fn insert(
        &mut self,
        hash: u64,
        key: QueryKey<DD::Value, DA::Value>,
        report: CachedReport<DD::Value, DA::Value>,
    ) {
        if self.cache_capacity == 0 {
            return;
        }
        self.persist_front(&key, &report);
        self.insert_memory(hash, key, report);
    }

    /// The memory-tier half of [`insert`](Self::insert) — also the
    /// promotion path of [`lookup`](Self::lookup), which must *not*
    /// re-persist what it just read.
    fn insert_memory(
        &mut self,
        hash: u64,
        key: QueryKey<DD::Value, DA::Value>,
        report: CachedReport<DD::Value, DA::Value>,
    ) {
        if self.cache_capacity == 0 {
            return;
        }
        while self.cached_fronts() >= self.cache_capacity {
            self.evict_lru();
        }
        self.tick += 1;
        self.memo.entry(hash).or_default().push(MemoEntry {
            key,
            report,
            last_used: self.tick,
        });
    }

    /// Appends a front record to the persistent tier (no-op without one).
    /// Best-effort: an already-present key deduplicates inside
    /// [`Store::put`], and an I/O error degrades to "not persisted" — the
    /// query's result is already computed and correct either way.
    fn persist_front(
        &mut self,
        key: &QueryKey<DD::Value, DA::Value>,
        report: &CachedReport<DD::Value, DA::Value>,
    ) {
        let Some(tier) = self.store.as_mut() else {
            return;
        };
        let key_bytes = (tier.encode_key)(key);
        let payload = (tier.encode_front)(&key_bytes, report);
        if matches!(tier.store.put(KIND_FRONT, &key_bytes, &payload), Ok(true)) {
            self.stats.store_writes += 1;
        }
    }

    /// Replays a previously persisted compiled diagram for `key` into the
    /// engine's manager — the store-tier shortcut past [`compile_into`].
    fn load_diagram(&mut self, key: &QueryKey<DD::Value, DA::Value>) -> Option<NodeRef> {
        if self.cache_capacity == 0 {
            return None;
        }
        let tier = self.store.as_mut()?;
        let key_bytes = (tier.encode_key)(key);
        let payload = tier.store.get(KIND_DIAGRAM, &key_bytes)?;
        let record = adt_store::DiagramRecord::decode(&payload, &key_bytes)?;
        // A malformed dump (impossible via this engine's own writes, but
        // the store may be shared) fails validation inside `import_dump`
        // and falls back to compilation.
        let root = self.bdd.import_dump(&record.dump)?;
        self.stats.store_bdd_loads += 1;
        Some(root)
    }

    /// Persists the just-compiled diagram for `key` (no-op without a
    /// store). `var_count` is normalized to the order's, so the record
    /// bytes are independent of how many levels this long-lived manager
    /// happens to carry from earlier queries.
    fn save_diagram(
        &mut self,
        key: &QueryKey<DD::Value, DA::Value>,
        order: &DefenseFirstOrder,
        root: NodeRef,
    ) {
        if self.cache_capacity == 0 {
            return;
        }
        let Some(tier) = self.store.as_mut() else {
            return;
        };
        let key_bytes = (tier.encode_key)(key);
        let mut dump = self.bdd.export_dump(root);
        dump.var_count = order.var_count() as u32;
        let payload = adt_store::DiagramRecord {
            key: key_bytes.clone(),
            dump,
        }
        .encode();
        if matches!(tier.store.put(KIND_DIAGRAM, &key_bytes, &payload), Ok(true)) {
            self.stats.store_writes += 1;
        }
    }

    /// Drops the least-recently-used cache entry (no-op on an empty
    /// cache). A linear scan over the entries: eviction only runs once per
    /// insert past capacity, and capacities are in the thousands — an
    /// ordered index would cost more in bookkeeping on every hit than the
    /// scan costs here.
    fn evict_lru(&mut self) {
        let Some((&hash, oldest)) = self
            .memo
            .iter()
            .flat_map(|(hash, bucket)| bucket.iter().map(move |entry| (hash, entry.last_used)))
            .min_by_key(|&(_, last_used)| last_used)
        else {
            return;
        };
        let bucket = self.memo.get_mut(&hash).expect("bucket of scanned entry");
        let index = bucket
            .iter()
            .position(|e| e.last_used == oldest)
            .expect("entry of scanned bucket");
        bucket.swap_remove(index);
        if bucket.is_empty() {
            self.memo.remove(&hash);
        }
    }

    /// The engine counterpart of [`crate::analyze`]: bottom-up on trees,
    /// `BDDBU` (under the declaration order, into the long-lived manager) on
    /// DAGs — with the cross-query cache consulted first either way.
    ///
    /// # Errors
    ///
    /// Currently infallible, like the one-shot algorithms it dispatches to.
    pub fn analyze(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError> {
        if t.adt().is_tree() {
            let (hash, key) = query_key(t, TAG_BOTTOM_UP, None);
            self.cached_front(hash, key, |_| bottom_up(t))
        } else {
            let order = DefenseFirstOrder::declaration(t.adt());
            Ok(self.bdd_bu_report(t, &order).front)
        }
    }

    /// The engine counterpart of [`crate::bdd_bu::bdd_bu_report`]: runs
    /// `BDDBU` under `order` against the engine's long-lived manager, applying
    /// the engine's query lifecycle — compile, protect, propagate,
    /// unprotect, maybe-GC — and the cross-query cache (which stores the
    /// full report, so hits reproduce BDD size and width too).
    pub fn bdd_bu_report(
        &mut self,
        t: &AugmentedAdt<DD, DA>,
        order: &DefenseFirstOrder,
    ) -> BddBuReport<DD::Value, DA::Value> {
        let (hash, key) = query_key(t, TAG_BDD, Some(order));
        if let Some(hit) = self.lookup(hash, &key) {
            return BddBuReport {
                front: hit.front,
                bdd_nodes: hit.bdd_nodes,
                max_front_width: hit.max_front_width,
            };
        }
        // The query lifecycle. The protect/unprotect pair brackets every
        // use of `root`: the reordering hook below *does* restructure the
        // arena mid-query (compaction renumbers, sifting relevels), and the
        // registry is what keeps this root alive and resolvable through it.
        //
        // With a persistent store attached, a diagram persisted by an
        // earlier process replays here in one linear `mk` pass (children
        // before parents, complement tags intact) instead of re-walking
        // the ADT — the rest of the lifecycle is identical, because the
        // replay reproduces exactly what `compile_into` would build.
        let root = match self.load_diagram(&key) {
            Some(root) => root,
            None => {
                let root = compile_into(&mut self.bdd, t.adt(), order);
                self.save_diagram(&key, order, root);
                root
            }
        };
        let handle = self.bdd.protect(root);
        // Dynamic reordering hook — inert at the default threshold of
        // `usize::MAX`. When armed and the compiled diagram is big enough,
        // the manager sifts (defense window and attack window separately;
        // the boundary of Definition 11 is never crossed) and the query
        // continues under the *learned* order: levels mean different
        // variables now, so propagation must use the permuted order, and
        // the result is cached under the learned key too — a later query
        // that asks for the learned order directly, or any static order
        // that sifts to it, hits without recompiling.
        let learned = if self.bdd.reorder_threshold() == usize::MAX {
            None
        } else {
            let groups = reorder_groups(order, self.bdd.var_count());
            self.bdd.maybe_reorder(&groups).and_then(|outcome| {
                // An identity permutation learned nothing: the requested
                // key already covers it, so skip the second cache entry.
                let moved = outcome
                    .new_level
                    .iter()
                    .enumerate()
                    .any(|(old, &new)| old != new as usize);
                moved.then(|| order.permuted(&outcome.new_level))
            })
        };
        let mut sifted_entry = None;
        if let Some(sifted) = &learned {
            let (sifted_hash, sifted_key) = query_key(t, TAG_BDD, Some(sifted));
            if let Some(hit) = self.lookup(sifted_hash, &sifted_key) {
                self.bdd.unprotect(handle);
                self.bdd.maybe_gc();
                self.insert(hash, key, hit.clone());
                return BddBuReport {
                    front: hit.front,
                    bdd_nodes: hit.bdd_nodes,
                    max_front_width: hit.max_front_width,
                };
            }
            sifted_entry = Some((sifted_hash, sifted_key));
        }
        let root = self.bdd.resolve(handle);
        let report = propagate(t, learned.as_ref().unwrap_or(order), &self.bdd, root);
        self.bdd.unprotect(handle);
        self.bdd.maybe_gc();
        let cached = CachedReport {
            front: report.front.clone(),
            bdd_nodes: report.bdd_nodes,
            max_front_width: report.max_front_width,
        };
        if let Some((sifted_hash, sifted_key)) = sifted_entry {
            self.insert(sifted_hash, sifted_key, cached.clone());
        }
        self.insert(hash, key, cached);
        report
    }

    /// Request-scoped front door over
    /// [`bdd_bu_report`](AnalysisEngine::bdd_bu_report) for callers that
    /// must outlive a bad request (the `adt-serve` query server): instead
    /// of panicking, it reports.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::InvalidOrder`] when `order` does not cover every
    ///   basic step of `t` — the precondition whose violation the
    ///   panicking entry points `expect` on.
    /// * [`AnalysisError::Internal`] when the analysis panics anyway: the
    ///   panic is caught at this boundary and the engine is [`reset`]
    ///   (wiping the manager and the front cache), so the engine stays
    ///   usable; only the offending request is lost.
    ///
    /// [`reset`]: AnalysisEngine::reset
    pub fn try_bdd_bu_report(
        &mut self,
        t: &AugmentedAdt<DD, DA>,
        order: &DefenseFirstOrder,
    ) -> Result<BddBuReport<DD::Value, DA::Value>, AnalysisError> {
        for &v in t.adt().topological_order() {
            if t.adt()[v].gate() == Gate::Basic && order.level(v).is_none() {
                return Err(AnalysisError::InvalidOrder {
                    reason: format!("basic step #{} has no level in the order", v.index()),
                });
            }
        }
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.bdd_bu_report(t, order)
        }));
        attempt.map_err(|payload| {
            self.reset();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            AnalysisError::Internal { message }
        })
    }
}

/// Persistent-store attachment: only available when the attribute values
/// have a canonical byte encoding ([`ValueCodec`]) — true for every
/// domain in `adt-core`. The bound lives here (not on the engine type) so
/// codec-free domains keep the full in-memory engine.
impl<DD, DA> AnalysisEngine<DD, DA>
where
    DD: AttributeDomain,
    DA: AttributeDomain,
    DD::Value: ValueCodec,
    DA::Value: ValueCodec,
{
    /// Opens (creating if absent) the store directory at `dir` and
    /// attaches it as the engine's second cache tier. The store may be
    /// shared with other engines, other processes, and the serving front —
    /// writers coordinate through the store's lock file, readers are
    /// lockless.
    ///
    /// # Errors
    ///
    /// Propagates [`Store::open`] failures (unwritable directory, foreign
    /// file at the log path, lock timeout).
    pub fn open_store(&mut self, dir: impl Into<PathBuf>) -> io::Result<()> {
        self.set_store(Store::open(dir)?);
        Ok(())
    }

    /// Attaches an already-open [`Store`] as the second cache tier,
    /// replacing any previous one. Monomorphizes the codec hooks here,
    /// where the `ValueCodec` bounds hold, so every unconstrained cache
    /// path can use them.
    pub fn set_store(&mut self, store: Store) {
        self.store = Some(StoreTier {
            store,
            encode_key: store_key_bytes::<DD::Value, DA::Value>,
            encode_front: encode_front_record::<DD::Value, DA::Value>,
            decode_front: decode_front_record::<DD::Value, DA::Value>,
        });
    }
}

impl<DD, DA> AnalysisEngine<DD, DA>
where
    DD: AttributeDomain + Clone + Send,
    DA: AttributeDomain + Clone + Send,
    DD::Value: Send,
    DA::Value: Send,
{
    /// The engine counterpart of [`crate::modular::modular_bdd_bu`], with
    /// every module front routed through the cross-query cache: a module
    /// shared by many queries (or recurring inside one query stream) is
    /// analyzed once, then served by structural lookup — this is the
    /// paper's §VII modular future-work direction made incremental.
    ///
    /// Module keys are *permutation-canonical* (see `module_query_key`):
    /// two modules differing only in the order of commutative children hit
    /// one entry, and [`EngineStats::perm_module_hits`] counts how often
    /// that canonicalization is what produced the hit.
    ///
    /// With [`set_kernel_threads`](AnalysisEngine::set_kernel_threads)
    /// `> 1`, module fronts missing from the cache are analyzed *in
    /// parallel*, each thread compiling into a private single-owner
    /// manager, before the sequential bottom-up join over the quotient.
    /// Fronts are identical to the sequential mode; the cache *entries*
    /// differ in bookkeeping only: parallel jobs analyze their module
    /// directly under its declaration order, without the engine's
    /// reordering hook or store diagrams, so nested sub-modules get no
    /// entries of their own, and a parallel module entry records its run's
    /// BDD stats where the sequential modular path stores zeros.
    ///
    /// # Errors
    ///
    /// Currently infallible, like [`crate::modular::modular_bdd_bu`].
    pub fn modular(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError> {
        let (hash, key) = module_query_key(t);
        self.cached_front(hash, key, |engine| engine.modular_uncached(t))
    }

    /// The cache-miss body of [`AnalysisEngine::modular`]: the sequential
    /// mode delegates to the shared [`modular_core`] skeleton (recursive,
    /// cache-aware via the [`ModuleAnalyzer`] impl below); the parallel
    /// mode fans the module misses out over threads.
    fn modular_uncached(
        &mut self,
        t: &AugmentedAdt<DD, DA>,
    ) -> Result<Front<DD, DA>, AnalysisError> {
        if self.kernel_threads == 1 {
            return modular_core(t, self);
        }
        match decompose(t)? {
            Decomposed::Tree => Ok(bu_with_leaf_fronts(t, |_, front| front)),
            Decomposed::Direct => self.direct_front(t),
            Decomposed::Modular { modules, quotient } => {
                // Cache lookups stay sequential (the memo is engine
                // state); only the misses fan out.
                let mut fronts: HashMap<String, Front<DD, DA>> = HashMap::new();
                let mut miss_meta = Vec::new();
                let mut miss_jobs = Vec::new();
                for (name, sub) in modules {
                    let (hash, key) = module_query_key(&sub);
                    match self.lookup(hash, &key) {
                        Some(hit) => {
                            fronts.insert(name, hit.front);
                        }
                        None => {
                            miss_meta.push((name, hash, key));
                            miss_jobs.push(sub);
                        }
                    }
                }
                if !miss_jobs.is_empty() {
                    let reports = par_module_reports(self.kernel_threads, miss_jobs);
                    for ((name, hash, key), report) in miss_meta.into_iter().zip(reports) {
                        // Unlike the sequential modular path (whose
                        // recombined fronts have no single producing BDD
                        // run), a parallel module job is one full BDDBU
                        // report — keep its stats instead of zeros so a
                        // future reader of TAG_MODULAR entries sees real
                        // numbers.
                        self.insert(
                            hash,
                            key,
                            CachedReport {
                                front: report.front.clone(),
                                bdd_nodes: report.bdd_nodes,
                                max_front_width: report.max_front_width,
                            },
                        );
                        fronts.insert(name, report.front);
                    }
                }
                Ok(recombine(&quotient, &fronts))
            }
        }
    }
}

impl<DD, DA> ModuleAnalyzer<DD, DA> for AnalysisEngine<DD, DA>
where
    DD: AttributeDomain + Clone + Send,
    DA: AttributeDomain + Clone + Send,
    DD::Value: Send,
    DA::Value: Send,
{
    fn module_front(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError> {
        self.modular(t)
    }

    fn direct_front(&mut self, t: &AugmentedAdt<DD, DA>) -> Result<Front<DD, DA>, AnalysisError> {
        let order = DefenseFirstOrder::declaration(t.adt());
        Ok(self.bdd_bu_report(t, &order).front)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::modular_bdd_bu;
    use adt_core::{catalog, MinCost};

    type Engine = AnalysisEngine<MinCost, MinCost>;

    #[test]
    fn warm_engine_matches_fresh_analysis_on_the_catalog() {
        let mut engine = Engine::new();
        for _round in 0..3 {
            for t in [
                catalog::fig1(),
                catalog::fig2(),
                catalog::fig3(),
                catalog::fig5(),
                catalog::fig4(5),
                catalog::money_theft(),
                catalog::money_theft_tree(),
            ] {
                assert_eq!(
                    engine.analyze(&t).unwrap(),
                    crate::analyze(&t).unwrap(),
                    "engine diverged from the one-shot path"
                );
            }
        }
        let stats = engine.stats();
        // Rounds 2 and 3 are pure cache hits.
        assert_eq!(stats.cache_misses, 7);
        assert_eq!(stats.cache_hits, 14);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn try_bdd_bu_report_agrees_with_the_panicking_entry_point() {
        let t = catalog::fig3();
        let order = DefenseFirstOrder::declaration(t.adt());
        let mut engine = Engine::new();
        let checked = engine
            .try_bdd_bu_report(&t, &order)
            .expect("valid order analyzes");
        let mut fresh = Engine::new();
        let direct = fresh.bdd_bu_report(&t, &order);
        assert_eq!(checked.front, direct.front);
        assert_eq!(checked.bdd_nodes, direct.bdd_nodes);
        assert_eq!(checked.max_front_width, direct.max_front_width);
    }

    #[test]
    fn try_bdd_bu_report_rejects_an_order_missing_basic_steps() {
        // An order built over a one-leaf tree covers only node id 0, so
        // fig3's later basic steps have no level — the request must be
        // rejected up front, and the engine must stay usable.
        let t = catalog::fig3();
        let mut b = adt_core::adt::AdtBuilder::new();
        let lone = b.attack("lone").expect("fresh name");
        let tiny = b.build(lone).expect("one-leaf tree builds");
        let foreign = DefenseFirstOrder::declaration(&tiny);
        let mut engine = Engine::new();
        match engine.try_bdd_bu_report(&t, &foreign) {
            Err(AnalysisError::InvalidOrder { reason }) => {
                assert!(reason.contains("has no level"), "reason: {reason}");
            }
            other => panic!("expected InvalidOrder, got {other:?}"),
        }
        let order = DefenseFirstOrder::declaration(t.adt());
        let report = engine
            .try_bdd_bu_report(&t, &order)
            .expect("engine survives the rejected request");
        assert_eq!(report.front, crate::analyze(&t).unwrap());
    }

    #[test]
    fn forced_gc_between_queries_changes_nothing() {
        // Threshold 1: the arena exceeds it after every query, so each
        // query ends with a collection — maximal renumbering pressure.
        let mut engine = Engine::with_gc_threshold(1);
        for t in [catalog::fig2(), catalog::money_theft(), catalog::fig4(6)] {
            let order = DefenseFirstOrder::declaration(t.adt());
            let warm = engine.bdd_bu_report(&t, &order);
            let fresh = crate::bdd_bu::bdd_bu_report(&t, &order);
            assert_eq!(warm.front, fresh.front);
            assert_eq!(warm.bdd_nodes, fresh.bdd_nodes);
            assert_eq!(warm.max_front_width, fresh.max_front_width);
            assert_eq!(engine.arena_nodes(), 1, "post-query GC must sweep all");
        }
        assert_eq!(engine.gc_stats().collections, 3);
        assert!(engine.gc_stats().nodes_freed > 0);
    }

    #[test]
    fn sifting_engine_matches_the_static_path_on_the_catalog() {
        // Maximal reordering pressure: every query sifts (threshold 1) and
        // every query ends in a collection (GC threshold 1). Fronts must
        // still be identical to the fresh static-order path — sifting may
        // change the diagram, never the function.
        let mut engine = Engine::with_gc_threshold(1);
        engine.set_reorder_threshold(1);
        assert_eq!(engine.reorder_threshold(), 1);
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
                let warm = engine.bdd_bu_report(&t, &order);
                let fresh = crate::bdd_bu::bdd_bu_report(&t, &order);
                assert_eq!(warm.front, fresh.front, "sifting changed a front");
                assert_eq!(engine.arena_nodes(), 1, "post-query GC must sweep all");
            }
        }
    }

    #[test]
    fn sifted_repeat_is_a_pure_cache_hit() {
        let mut engine = Engine::new();
        engine.set_reorder_threshold(1);
        let t = catalog::money_theft();
        let order = DefenseFirstOrder::declaration(t.adt());
        let miss = engine.bdd_bu_report(&t, &order);
        let nodes_after_first = engine.arena_nodes();
        let hit = engine.bdd_bu_report(&t, &order);
        assert_eq!(miss.front, hit.front);
        assert_eq!(miss.bdd_nodes, hit.bdd_nodes);
        assert_eq!(miss.max_front_width, hit.max_front_width);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(
            engine.arena_nodes(),
            nodes_after_first,
            "a cache hit must not recompile"
        );
    }

    #[test]
    fn reorder_threshold_survives_reset() {
        let mut engine = Engine::with_gc_threshold(1 << 10);
        engine.set_reorder_threshold(64);
        engine.analyze(&catalog::money_theft()).unwrap();
        engine.reset();
        assert_eq!(engine.reorder_threshold(), 64);
        assert_eq!(engine.gc_threshold(), 1 << 10);
        assert_eq!(engine.cached_fronts(), 0);
    }

    #[test]
    fn cache_hit_reproduces_the_full_report() {
        let mut engine = Engine::new();
        let t = catalog::money_theft();
        let order = DefenseFirstOrder::declaration(t.adt());
        let miss = engine.bdd_bu_report(&t, &order);
        let hit = engine.bdd_bu_report(&t, &order);
        assert_eq!(miss.front, hit.front);
        assert_eq!(miss.bdd_nodes, hit.bdd_nodes);
        assert_eq!(miss.max_front_width, hit.max_front_width);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn different_orders_do_not_share_report_entries() {
        let mut engine = Engine::new();
        let t = catalog::money_theft();
        let declaration = engine.bdd_bu_report(&t, &DefenseFirstOrder::declaration(t.adt()));
        let dfs = engine.bdd_bu_report(&t, &DefenseFirstOrder::dfs(t.adt()));
        // Fronts agree; sizes may not — the key must keep them apart.
        assert_eq!(declaration.front, dfs.front);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn modular_routes_shared_modules_through_the_cache() {
        let mut engine = Engine::new();
        let t = catalog::money_theft();
        assert_eq!(engine.modular(&t).unwrap(), modular_bdd_bu(&t).unwrap());
        let misses_after_first = engine.stats().cache_misses;
        assert!(misses_after_first >= 2, "modules are cached individually");
        // The same query again: one hit, zero new misses — and crucially
        // the *modules* would be hits even from a different host query.
        assert_eq!(engine.modular(&t).unwrap(), modular_bdd_bu(&t).unwrap());
        assert_eq!(engine.stats().cache_misses, misses_after_first);
        assert!(engine.stats().cache_hits >= 1);
    }

    #[test]
    fn structurally_identical_queries_share_one_entry() {
        // The same shape and values under different names must hit.
        let build = |prefix: &str| {
            let mut b = adt_core::AdtBuilder::new();
            let a = b.attack(format!("{prefix}_a")).unwrap();
            let d = b.defense(format!("{prefix}_d")).unwrap();
            let g = b.inh(format!("{prefix}_g"), a, d).unwrap();
            let e = b.attack(format!("{prefix}_e")).unwrap();
            let root = b.or(format!("{prefix}_root"), [g, e]).unwrap();
            let adt = b.build(root).unwrap();
            AugmentedAdt::from_fns(
                adt,
                MinCost,
                MinCost,
                |_, _| adt_core::Ext::Fin(3),
                |_, id| adt_core::Ext::Fin(10 + id.index() as u64),
            )
        };
        let mut engine = Engine::new();
        let f1 = engine.analyze(&build("x")).unwrap();
        let f2 = engine.analyze(&build("completely_different")).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.cached_fronts(), 1);
    }

    #[test]
    fn different_values_never_hit() {
        let with_cost = |c: u64| {
            let t = catalog::fig6();
            AugmentedAdt::from_fns(
                t,
                MinCost,
                MinCost,
                |_, _| adt_core::Ext::Fin(1),
                |_, _| adt_core::Ext::Fin(c),
            )
        };
        let mut engine = Engine::new();
        let cheap = engine.analyze(&with_cost(1)).unwrap();
        let dear = engine.analyze(&with_cost(100)).unwrap();
        assert_ne!(cheap, dear);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn tiny_queries_in_a_garbage_heavy_arena_match_fresh_runs() {
        // Fill the shared arena with a big query's nodes, then run small
        // distinct queries whose reachable sets are a sliver of the arena
        // — the propagation memo takes its sparse path — and pin every
        // report to the fresh-manager (dense-path) result.
        let mut engine = Engine::with_gc_threshold(usize::MAX);
        let big = catalog::fig4(9);
        let order_big = DefenseFirstOrder::declaration(big.adt());
        engine.bdd_bu_report(&big, &order_big);
        assert!(engine.arena_nodes() > 1_000);
        for c in 1..20u64 {
            let t = AugmentedAdt::from_fns(
                catalog::fig6(),
                MinCost,
                MinCost,
                |_, _| adt_core::Ext::Fin(c),
                |_, id| adt_core::Ext::Fin(c + id.index() as u64),
            );
            let order = DefenseFirstOrder::declaration(t.adt());
            let warm = engine.bdd_bu_report(&t, &order);
            let fresh = crate::bdd_bu::bdd_bu_report(&t, &order);
            assert_eq!(warm.front, fresh.front, "cost scale {c}");
            assert_eq!(warm.bdd_nodes, fresh.bdd_nodes);
            assert_eq!(warm.max_front_width, fresh.max_front_width);
        }
    }

    #[test]
    fn reset_restores_the_cold_state() {
        let mut engine = Engine::with_gc_threshold(1 << 10);
        engine.analyze(&catalog::money_theft()).unwrap();
        assert!(engine.cached_fronts() > 0);
        assert!(engine.arena_nodes() > 2);
        engine.set_cache_capacity(17);
        engine.reset();
        assert_eq!(engine.cached_fronts(), 0);
        assert_eq!(engine.arena_nodes(), 1, "only the terminal survives");
        assert_eq!(engine.stats(), EngineStats::default());
        assert_eq!(engine.gc_threshold(), 1 << 10, "threshold survives reset");
        assert_eq!(engine.cache_capacity(), 17, "capacity survives reset");
    }

    /// A family of structurally identical queries distinguished only by
    /// their attack values — each is its own cache entry.
    fn costed(c: u64) -> AugmentedAdt<MinCost, MinCost> {
        AugmentedAdt::from_fns(
            catalog::fig6(),
            MinCost,
            MinCost,
            |_, _| adt_core::Ext::Fin(1),
            |_, _| adt_core::Ext::Fin(c),
        )
    }

    #[test]
    fn lru_eviction_bounds_the_cache_and_keeps_recent_entries() {
        let mut engine = Engine::new();
        engine.set_cache_capacity(2);
        engine.analyze(&costed(1)).unwrap(); // cache: {1}
        engine.analyze(&costed(2)).unwrap(); // cache: {1, 2}
        assert_eq!(engine.cached_fronts(), 2);
        engine.analyze(&costed(1)).unwrap(); // hit: 1 becomes most recent
        assert_eq!(engine.stats().cache_hits, 1);
        engine.analyze(&costed(3)).unwrap(); // evicts 2 (least recent)
        assert_eq!(engine.cached_fronts(), 2, "capacity must bound the cache");
        engine.analyze(&costed(1)).unwrap();
        assert_eq!(engine.stats().cache_hits, 2, "recently-used entry kept");
        let misses = engine.stats().cache_misses;
        engine.analyze(&costed(2)).unwrap();
        assert_eq!(
            engine.stats().cache_misses,
            misses + 1,
            "the LRU entry must have been evicted"
        );
    }

    #[test]
    fn shrinking_the_capacity_evicts_immediately() {
        let mut engine = Engine::new();
        for c in 1..=6 {
            engine.analyze(&costed(c)).unwrap();
        }
        assert_eq!(engine.cached_fronts(), 6);
        engine.set_cache_capacity(3);
        assert_eq!(engine.cached_fronts(), 3);
        // The three most recent queries (4, 5, 6) survived.
        for c in 4..=6 {
            engine.analyze(&costed(c)).unwrap();
        }
        assert_eq!(engine.stats().cache_hits, 3);
    }

    #[test]
    fn zero_capacity_disables_caching_without_changing_results() {
        let mut engine = Engine::new();
        engine.set_cache_capacity(0);
        let first = engine.analyze(&catalog::money_theft()).unwrap();
        let again = engine.analyze(&catalog::money_theft()).unwrap();
        assert_eq!(first, again);
        assert_eq!(engine.cached_fronts(), 0);
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(first, crate::analyze(&catalog::money_theft()).unwrap());
    }

    #[test]
    fn kernel_threads_produce_identical_results() {
        // The acceptance gate in miniature: every analysis surface of the
        // engine must be front-identical across kernel thread counts.
        let inputs = [
            catalog::fig2(),
            catalog::money_theft(),
            catalog::fig4(6),
            catalog::fig5(),
        ];
        let mut sequential = Engine::new();
        for threads in [2usize, 4, 8] {
            let mut parallel = Engine::new();
            parallel.set_kernel_threads(threads);
            assert_eq!(parallel.kernel_threads(), threads);
            for t in &inputs {
                let order = DefenseFirstOrder::declaration(t.adt());
                let seq = sequential.bdd_bu_report(t, &order);
                let par = parallel.bdd_bu_report(t, &order);
                assert_eq!(par.front, seq.front, "{threads} threads");
                assert_eq!(par.bdd_nodes, seq.bdd_nodes, "{threads} threads");
                assert_eq!(par.max_front_width, seq.max_front_width);
                assert_eq!(
                    parallel.modular(t).unwrap(),
                    sequential.modular(t).unwrap(),
                    "{threads}-thread modular diverged"
                );
                assert_eq!(parallel.analyze(t).unwrap(), sequential.analyze(t).unwrap());
            }
        }
    }

    #[test]
    fn kernel_threads_survive_reset_and_downshift() {
        let mut engine = Engine::new();
        engine.set_kernel_threads(4);
        engine.analyze(&catalog::money_theft()).unwrap();
        engine.reset();
        assert_eq!(engine.kernel_threads(), 4);
        assert_eq!(
            engine.analyze(&catalog::money_theft()).unwrap(),
            crate::analyze(&catalog::money_theft()).unwrap()
        );
        engine.set_kernel_threads(1);
        assert_eq!(engine.kernel_threads(), 1);
        assert_eq!(
            engine.analyze(&catalog::money_theft()).unwrap(),
            crate::analyze(&catalog::money_theft()).unwrap()
        );
    }

    /// Two order-isomorphic trees: the same OR of an INH branch and a
    /// plain attack, with the OR children declared in opposite orders.
    fn permuted_pair() -> [AugmentedAdt<MinCost, MinCost>; 2] {
        let build = |flip: bool| {
            let mut b = adt_core::AdtBuilder::new();
            let a = b.attack("a").unwrap();
            let d = b.defense("d").unwrap();
            let g = b.inh("g", a, d).unwrap();
            let e = b.attack("e").unwrap();
            let children = if flip { [e, g] } else { [g, e] };
            let root = b.or("root", children).unwrap();
            let adt = b.build(root).unwrap();
            AugmentedAdt::from_fns(
                adt,
                MinCost,
                MinCost,
                |_, _| adt_core::Ext::Fin(3),
                |q, id| adt_core::Ext::Fin(if q[id].name() == "a" { 10 } else { 25 }),
            )
        };
        [build(false), build(true)]
    }

    #[test]
    fn permuted_commutative_children_hit_one_modular_entry() {
        let [plain, flipped] = permuted_pair();
        // Sanity: the two fronts agree (same structure function).
        assert_eq!(
            crate::analyze(&plain).unwrap(),
            crate::analyze(&flipped).unwrap()
        );
        let mut engine = Engine::new();
        let first = engine.modular(&plain).unwrap();
        assert_eq!(engine.stats().cache_hits, 0);
        assert_eq!(engine.stats().perm_module_hits, 0);
        let second = engine.modular(&flipped).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.stats().cache_hits, 1, "canonical keys must hit");
        assert_eq!(
            engine.stats().perm_module_hits,
            1,
            "the hit exists only thanks to canonicalization"
        );
        assert_eq!(engine.cached_fronts(), 1, "one entry serves both orders");
        // A verbatim repeat is an ordinary hit, not a permutation hit.
        engine.modular(&plain).unwrap();
        assert_eq!(engine.stats().cache_hits, 2);
        assert_eq!(engine.stats().perm_module_hits, 1);
    }

    #[test]
    fn canonical_keys_carry_values_with_their_leaves() {
        // AND children with *different values* declared in swapped order:
        // the canonical key sorts children by subtree encoding (value
        // included), so both declarations land on one entry — the values
        // travel with their leaves, they are not positional.
        let build = |swap: bool| {
            let mut b = adt_core::AdtBuilder::new();
            let x = b.attack("x").unwrap();
            let y = b.attack("y").unwrap();
            let children = if swap { [y, x] } else { [x, y] };
            let root = b.and("root", children).unwrap();
            let adt = b.build(root).unwrap();
            AugmentedAdt::from_fns(
                adt,
                MinCost,
                MinCost,
                |_, _| adt_core::Ext::Fin(1),
                |q, id| adt_core::Ext::Fin(if q[id].name() == "x" { 7 } else { 11 }),
            )
        };
        let mut engine = Engine::new();
        let f1 = engine.modular(&build(false)).unwrap();
        let f2 = engine.modular(&build(true)).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.stats().perm_module_hits, 1);
    }

    #[test]
    fn parallel_modular_fills_the_same_cache() {
        let mut engine = Engine::new();
        engine.set_kernel_threads(4);
        let t = catalog::money_theft();
        assert_eq!(engine.modular(&t).unwrap(), modular_bdd_bu(&t).unwrap());
        let misses = engine.stats().cache_misses;
        assert!(misses >= 2, "modules are cached individually");
        // The repeat — and each module individually — hits.
        assert_eq!(engine.modular(&t).unwrap(), modular_bdd_bu(&t).unwrap());
        assert_eq!(engine.stats().cache_misses, misses);
        assert!(engine.stats().cache_hits >= 1);
    }

    /// The attacker cost whose `⊗` trips [`Tripwire`].
    const TRIP: u64 = 666;

    /// [`MinCost`], except that `⊗` panics when either operand is the
    /// [`TRIP`] cost: a fault planted inside one module's sweep.
    #[derive(Debug, Clone, Copy)]
    struct Tripwire;

    impl AttributeDomain for Tripwire {
        type Value = adt_core::Ext<u64>;

        fn mul(&self, x: &Self::Value, y: &Self::Value) -> Self::Value {
            let trip = adt_core::Ext::Fin(TRIP);
            assert!(*x != trip && *y != trip, "tripwire");
            MinCost.mul(x, y)
        }

        fn one(&self) -> Self::Value {
            MinCost.one()
        }

        fn zero(&self) -> Self::Value {
            MinCost.zero()
        }

        fn compare(&self, x: &Self::Value, y: &Self::Value) -> std::cmp::Ordering {
            MinCost.compare(x, y)
        }
    }

    /// A DAG whose root ORs two independent modules, each an inhibited OR
    /// of pair-ANDs that share attacks; with `trip`, one attack of the
    /// second module costs [`TRIP`]. The first module is wide, so at two
    /// threads whichever thread takes it is still sweeping it when the
    /// other takes the second.
    fn two_modules(trip: bool) -> AugmentedAdt<MinCost, Tripwire> {
        let mut b = adt_core::AdtBuilder::new();
        let blocks: Vec<_> = [("m0", 10), ("m1", 2)]
            .into_iter()
            .map(|(tag, width)| {
                let mut attacks = |side: &str| -> Vec<_> {
                    (0..width)
                        .map(|i| b.attack(format!("{tag}_{side}{i}")).unwrap())
                        .collect()
                };
                let (x, y) = (attacks("x"), attacks("y"));
                let mut ands: Vec<_> = (0..width)
                    .map(|i| b.and(format!("{tag}_p{i}"), [x[i], y[i]]).unwrap())
                    .collect();
                ands.push(b.and(format!("{tag}_px"), [x[0], y[1]]).unwrap());
                let or = b.or(format!("{tag}_or"), ands).unwrap();
                let d = b.defense(format!("{tag}_d")).unwrap();
                b.inh(format!("{tag}_root"), or, d).unwrap()
            })
            .collect();
        let root = b.or("root", blocks).unwrap();
        AugmentedAdt::from_fns(
            b.build(root).unwrap(),
            MinCost,
            Tripwire,
            |_, _| adt_core::Ext::Fin(4),
            |q, id| match q[id].name() {
                "m1_x0" if trip => adt_core::Ext::Fin(TRIP),
                _ => adt_core::Ext::Fin(3 + id.index() as u64 % 7),
            },
        )
    }

    #[test]
    fn module_fan_out_panic_reaches_the_caller_and_reset_recovers() {
        let mut engine: AnalysisEngine<MinCost, Tripwire> = AnalysisEngine::new();
        engine.set_kernel_threads(2);
        let tripped = two_modules(true);
        // Which thread — the caller or its helper — takes the tripped
        // module is a race each round; the payload must reach the caller
        // either way.
        for _round in 0..8 {
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.modular(&tripped)))
                    .expect_err("the planted fault must panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"tripwire"));
            engine.reset();
        }
        assert_eq!(engine.kernel_threads(), 2);
        let ordinary = two_modules(false);
        assert_eq!(
            engine.modular(&ordinary).unwrap(),
            modular_bdd_bu(&ordinary).unwrap()
        );
    }

    #[test]
    fn bounded_arena_on_a_monotone_stream() {
        // Without GC the arena only ever grows; with a threshold it is
        // swept back after every query that crosses it, so the peak stays
        // bounded by threshold + one query's compile traffic.
        let threshold = 64;
        let mut engine = Engine::with_gc_threshold(threshold);
        let mut no_gc = Engine::with_gc_threshold(usize::MAX);
        let mut single_peak = 0usize;
        let mut last_no_gc_arena = 0usize;
        for n in 1..=9 {
            // fig4 is tree-shaped, which `analyze` would hand to the
            // BDD-free bottom-up pass — call the BDD path directly, since
            // arena pressure is the point here.
            let t = catalog::fig4(n);
            let order = DefenseFirstOrder::declaration(t.adt());
            let fresh = {
                let (bdd, _) = crate::bdd_compile::compile(t.adt(), &order);
                bdd.total_nodes()
            };
            single_peak = single_peak.max(fresh);
            assert_eq!(
                engine.bdd_bu_report(&t, &order).front,
                no_gc.bdd_bu_report(&t, &order).front,
                "GC policy must not affect fronts"
            );
            assert!(
                no_gc.arena_nodes() >= last_no_gc_arena,
                "the no-GC arena must grow monotonically"
            );
            last_no_gc_arena = no_gc.arena_nodes();
        }
        assert!(engine.gc_stats().collections >= 1, "threshold never fired");
        assert_eq!(no_gc.gc_stats().collections, 0);
        assert!(
            engine.arena_nodes() < no_gc.arena_nodes(),
            "GC must leave the long-lived arena smaller ({} vs {})",
            engine.arena_nodes(),
            no_gc.arena_nodes()
        );
        assert!(
            engine.peak_arena() <= threshold + single_peak,
            "GC peak {} exceeds threshold {} + single-query peak {}",
            engine.peak_arena(),
            threshold,
            single_peak
        );
    }

    /// The catalog workload every store test replays.
    fn store_workload() -> Vec<AugmentedAdt<MinCost, MinCost>> {
        vec![
            catalog::fig1(),
            catalog::fig2(),
            catalog::fig3(),
            catalog::fig5(),
            catalog::fig4(5),
            catalog::money_theft(),
            catalog::money_theft_tree(),
        ]
    }

    #[test]
    fn a_restarted_engine_starts_warm_from_the_store() {
        let dir = adt_store::TestDir::new("engine-warm-restart");
        let mut cold = Engine::new();
        cold.open_store(dir.path()).expect("store opens");
        let baseline: Vec<_> = store_workload()
            .iter()
            .map(|t| crate::analyze(t).unwrap())
            .collect();
        for (t, expect) in store_workload().iter().zip(&baseline) {
            assert_eq!(&cold.analyze(t).unwrap(), expect);
        }
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.store_hits, 0, "an empty store cannot hit");
        assert_eq!(cold_stats.store_misses, cold_stats.cache_misses);
        assert!(cold_stats.store_writes >= cold_stats.cache_misses);
        drop(cold);

        // "Restart": a brand-new engine over the same directory. Every
        // query must be served from the persistent tier — zero new
        // compile-and-propagate work on the front cache.
        let mut warm = Engine::new();
        warm.open_store(dir.path()).expect("store reopens");
        for (t, expect) in store_workload().iter().zip(&baseline) {
            assert_eq!(&warm.analyze(t).unwrap(), expect, "warm front diverged");
        }
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.store_hits, warm_stats.cache_misses);
        assert_eq!(warm_stats.store_misses, 0);
        assert_eq!(warm_stats.store_writes, 0, "nothing new to persist");
        assert_eq!(warm_stats.store_hit_rate(), 1.0);

        // And the promoted entries serve the third pass from memory.
        for (t, expect) in store_workload().iter().zip(&baseline) {
            assert_eq!(&warm.analyze(t).unwrap(), expect);
        }
        assert_eq!(warm.stats().store_hits, warm_stats.store_hits);
    }

    #[test]
    fn persisted_diagrams_replay_instead_of_recompiling() {
        let dir = adt_store::TestDir::new("engine-diagram-replay");
        let t = catalog::money_theft();
        let order = DefenseFirstOrder::declaration(t.adt());
        let fresh = crate::bdd_bu::bdd_bu_report(&t, &order);

        let mut first = Engine::new();
        first.open_store(dir.path()).expect("store opens");
        let cold = first.bdd_bu_report(&t, &order);
        assert_eq!(cold.front, fresh.front);
        assert_eq!(first.stats().store_bdd_loads, 0);
        drop(first);

        // Wipe the *front* cache's chance to answer: query via the report
        // path on a restarted engine, but delete nothing — the diagram
        // record must shortcut compilation and reproduce the full report.
        let mut second = Engine::new();
        second.open_store(dir.path()).expect("store reopens");
        let report = second.bdd_bu_report(&t, &order);
        assert_eq!(report.front, fresh.front);
        assert_eq!(report.bdd_nodes, fresh.bdd_nodes);
        assert_eq!(report.max_front_width, fresh.max_front_width);
        // The front hit answers before compilation, so the diagram was
        // not even needed; force a diagram replay by clearing the front
        // record's memory promotion and asking with an empty memory tier
        // plus a fresh store handle that only has the diagram... which is
        // exactly what a capacity-starved memory tier looks like:
        assert_eq!(second.stats().store_hits, 1);

        // Third engine: drop the persisted *front* records by probing a
        // permuted-capacity engine — instead, verify the replay machinery
        // directly through a store handle.
        let mut store = Store::open(dir.path()).expect("raw handle");
        let mut diagram_records = 0;
        for t in store_workload() {
            let order = DefenseFirstOrder::declaration(t.adt());
            let (_, key) = query_key::<MinCost, MinCost>(&t, TAG_BDD, Some(&order));
            let key_bytes = store_key_bytes(&key);
            if let Some(payload) = store.get(adt_store::KIND_DIAGRAM, &key_bytes) {
                let record = adt_store::DiagramRecord::decode(&payload, &key_bytes)
                    .expect("well-formed diagram record");
                let mut bdd = Bdd::new(0);
                let root = bdd.import_dump(&record.dump).expect("dump imports");
                let replayed = propagate(&t, &order, &bdd, root);
                let direct = crate::bdd_bu::bdd_bu_report(&t, &order);
                assert_eq!(replayed.front, direct.front, "replayed front diverged");
                assert_eq!(replayed.bdd_nodes, direct.bdd_nodes);
                diagram_records += 1;
            }
        }
        assert!(diagram_records >= 1, "money_theft compiled on the BDD path");
    }

    #[test]
    fn store_survives_reset_and_reset_stays_cold_free() {
        let dir = adt_store::TestDir::new("engine-store-reset");
        let mut engine = Engine::new();
        engine.open_store(dir.path()).expect("store opens");
        let t = catalog::money_theft();
        let expect = crate::analyze(&t).unwrap();
        assert_eq!(engine.analyze(&t).unwrap(), expect);
        let writes = engine.stats().store_writes;
        assert!(writes >= 1);

        // reset() wipes manager + memory cache + stats but keeps the
        // store attached — the repeat is a store hit, not a recompute.
        engine.reset();
        assert!(engine.store().is_some(), "reset dropped the store tier");
        assert_eq!(engine.analyze(&t).unwrap(), expect);
        assert_eq!(engine.stats().store_hits, 1);
        assert_eq!(engine.stats().store_writes, 0);

        // take_store() detaches: back to the pure in-memory engine.
        let store = engine.take_store().expect("store was attached");
        assert!(engine.store().is_none());
        assert!(store.len() >= 2, "front + diagram records persisted");
        engine.reset();
        assert_eq!(engine.analyze(&t).unwrap(), expect);
        assert_eq!(engine.stats().store_hits, 0);
        assert_eq!(engine.stats().store_misses, 0);
    }

    #[test]
    fn capacity_zero_disables_the_store_tier_too() {
        let dir = adt_store::TestDir::new("engine-store-capacity0");
        let mut engine = Engine::new();
        engine.open_store(dir.path()).expect("store opens");
        engine.set_cache_capacity(0);
        let t = catalog::money_theft();
        let expect = crate::analyze(&t).unwrap();
        for _ in 0..2 {
            assert_eq!(engine.analyze(&t).unwrap(), expect);
        }
        let stats = engine.stats();
        assert_eq!(stats.store_hits + stats.store_misses, 0, "no probes");
        assert_eq!(stats.store_writes, 0, "no persistence");
        assert_eq!(engine.store().expect("still attached").len(), 0);
    }

    #[test]
    fn corrupt_store_records_degrade_to_recomputation() {
        let dir = adt_store::TestDir::new("engine-store-corrupt");
        let t = catalog::money_theft();
        let expect = crate::analyze(&t).unwrap();
        {
            let mut engine = Engine::new();
            engine.open_store(dir.path()).expect("store opens");
            assert_eq!(engine.analyze(&t).unwrap(), expect);
        }
        // Flip one byte in every record body region of the log. CRCs now
        // reject the records: the warm restart silently degrades to a
        // cold one, and the recomputed fronts are re-persisted.
        let log_path = dir.path().join("store.log");
        let mut bytes = std::fs::read(&log_path).unwrap();
        for offset in (16..bytes.len()).step_by(24) {
            bytes[offset] ^= 0x40;
        }
        std::fs::write(&log_path, &bytes).unwrap();
        std::fs::remove_file(dir.path().join("store.idx")).ok();

        let mut engine = Engine::new();
        engine
            .open_store(dir.path())
            .expect("corrupt store still opens");
        assert_eq!(engine.analyze(&t).unwrap(), expect, "front must recompute");
    }
}
