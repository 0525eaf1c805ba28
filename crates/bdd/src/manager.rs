//! The ROBDD manager: hash-consed node store with ITE-based operations and
//! **complement edges**.
//!
//! The manager owns every node; functions are referred to by [`NodeRef`].
//! Reducedness (Definition 10 of the paper) is maintained structurally:
//! `mk` never creates a node with equal children and never duplicates an
//! existing `(level, low, high)` triple, so two equal Boolean functions over
//! the same variable order always receive the same [`NodeRef`] — equality of
//! functions is equality of the 32-bit ref.
//!
//! # Complement edges
//!
//! A [`NodeRef`] packs a *complement tag* into bit 31 of the arena index
//! (the encoding of Brace, Rudell & Bryant's ITE paper): the ref `(i, ¬)`
//! denotes the **negation** of the function stored at index `i`. Two
//! canonicity rules keep refs unique per function:
//!
//! * **the high edge is never complemented** — `mk` pushes a complemented
//!   high edge onto the low edge and the returned ref instead
//!   (`(l, g, ¬h) = ¬(l, ¬g, h)`), so each function/negation pair is stored
//!   exactly once;
//! * **a single `1` terminal** — `0` is just its complement, so the arena
//!   holds one terminal node at index 0 ([`Bdd::TRUE`] is the plain ref,
//!   [`Bdd::FALSE`] the tagged one).
//!
//! The payoff: negation is **O(1)** (flip one bit, touch no memory — see
//! [`NodeRef::complement`]), a diagram and its complement share all their
//! nodes (live node counts drop up to 2× on negation-rich workloads such as
//! the ADT defense step's `and_not`), and the ITE cache can fold a call and
//! its complement dual into one entry via *standard-triple normalization*
//! (see [`Bdd::ite`]).
//!
//! # Kernel design
//!
//! The two data structures on the `BDDBU` hot path are engineered for
//! throughput rather than generality (the `HashMap`-based baseline they
//! replaced survives as [`crate::control::ControlBdd`] — tag-free, two
//! terminals — for differential tests and benchmarks):
//!
//! * **Node store** — a flat `Vec<BddNode>` arena; a [`NodeRef`] is a `u32`
//!   whose low 31 bits index into it. Nodes are never deleted, and `mk`
//!   creates children before parents, so *child indices are always smaller
//!   than parent indices*: ascending index order is a topological order of
//!   every diagram, which the iterative `sat_count`/`restrict` sweeps
//!   exploit (tags ride along without disturbing the order — both
//!   polarities of an index share its arena slot).
//!
//! * **Unique table** — open addressing with linear probing over a
//!   power-of-two slot array of `u32` node indices (`u32::MAX` = empty).
//!   The key of a slot is the `(level, low, high)` triple of the node it
//!   points at — `low` with its tag bit, `high` always untagged — so the
//!   table stores 4 bytes per entry instead of a 16-byte key plus SipHash
//!   state. Hashing is multiplicative (two rounds of golden-ratio mixing,
//!   FxHash-style). Since nodes are never removed there are no tombstones:
//!   growth (at 1/2 load) simply reinserts every node index into a doubled
//!   array.
//!
//! * **ITE cache** — a *direct-mapped, lossy* cache of *standard triples*:
//!   [`Bdd::ite`] first rewrites `(f, g, h)` into a canonical equivalent
//!   with `f` and `g` untagged (recording whether the result must be
//!   complemented on the way out), so `ite(f, g, h)` and its complement
//!   dual `¬ite(f, ¬g, ¬h)` — and the commuted and/or forms — all share
//!   one entry. Collisions cost a recomputation, never correctness.
//!
//! * **Iterative walks** — `ite`, `sat_count` and `restrict` use explicit
//!   stacks or index sweeps instead of recursion, so the DAG-shaped
//!   workloads from `adt-gen` (whose diagrams can be thousands of levels
//!   deep) cannot overflow the call stack. Index sweeps cover every index
//!   below the root; the walk bottom-up consumers use,
//!   [`Bdd::cone`], visits only the root's cone instead, so its cost
//!   does not grow with the garbage and foreign diagrams of a long-lived
//!   arena. Where a result depends on the polarity a node is reached with
//!   (`sat_count`, the cone), the complement is derived per tagged ref,
//!   not recomputed per node.
//!
//! * **Mark-and-compact GC** — long-lived managers (the `AnalysisEngine`
//!   in `adt-analysis` reuses one manager across queries) reclaim garbage
//!   with [`Bdd::gc`]: marking strips tags (a node is live if either
//!   polarity is), compaction renumbers **indices but preserves tags** on
//!   low edges and registry roots, so root handles stay tag-faithful —
//!   [`Bdd::resolve`] returns a complemented ref iff a complemented ref
//!   was protected. The tombstone-free unique table is rebuilt by the same
//!   reinsertion loop that growth uses, and the lossy ITE cache — whose
//!   entries hold raw tagged refs — is invalidated wholesale. **A GC
//!   renumbers every [`NodeRef`]**: refs held outside the root registry
//!   are invalidated, and the registry's refs must be re-read through
//!   [`Bdd::resolve`].

use std::fmt::Write as _;

use crate::cone::Cone;
use crate::expr::Bexpr;
use crate::Level;

/// Level number used for the terminal node; compares greater than any real
/// variable level so that `min` over levels finds the branching variable.
pub(crate) const TERMINAL_LEVEL: Level = Level::MAX;

/// The complement tag: bit 31 of a [`NodeRef`]. The arena index lives in
/// the low 31 bits, so a manager holds at most 2³¹ − 1 nodes — half the
/// untagged kernel's ceiling, but complement sharing means a diagram needs
/// at most half the nodes, so the reachable function space is unchanged.
pub(crate) const TAG: u32 = 1 << 31;

/// Empty-slot sentinel of the unique table and the ITE cache. Bit pattern
/// `TAG | 0x7FFF_FFFF`; `mk` asserts the arena stays below index
/// `0x7FFF_FFFF`, and cache keys store `f` untagged, so no live key ever
/// collides with the sentinel.
pub(crate) const EMPTY: u32 = u32::MAX;

/// Initial slot count of the unique table (power of two).
const UNIQUE_INITIAL_SLOTS: usize = 64;

/// Initial entry count of the ITE cache (power of two). Deliberately tiny:
/// a fresh manager compiling a small function should not pay for zeroing
/// kilobytes of cache; the cache grows with the arena.
const ITE_CACHE_INITIAL: usize = 1 << 6;

/// Entry-count ceiling of the ITE cache: 2^18 quadruples = 4 MiB.
const ITE_CACHE_MAX: usize = 1 << 18;

/// Growth-abort factor of [`Bdd::sift`]: a sweep direction is abandoned as
/// soon as the arena exceeds this multiple of the best size seen for the
/// variable being sifted (Rudell's classic cut-off).
const SIFT_GROWTH_ABORT: f64 = 1.2;

/// A reference to a Boolean function owned by a [`Bdd`] manager: an arena
/// index plus a complement tag (bit 31) that negates the stored function.
///
/// The constants [`Bdd::FALSE`] and [`Bdd::TRUE`] are the two polarities of
/// the single terminal node of every manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

impl NodeRef {
    /// Index of this ref's node in the manager's arena (tag stripped).
    pub fn index(self) -> usize {
        (self.0 & !TAG) as usize
    }

    /// `true` if this ref denotes the *negation* of its arena node.
    pub fn is_complemented(self) -> bool {
        self.0 & TAG != 0
    }

    /// The negation of this function — a pure bit flip, no manager access,
    /// no allocation. This is what makes `not` O(1) under complement edges.
    #[must_use]
    pub fn complement(self) -> NodeRef {
        NodeRef(self.0 ^ TAG)
    }

    /// Applies an *additional* complement when `complemented` holds — the
    /// tag-propagation step of every cofactor walk (`¬f`'s cofactors are
    /// the complements of `f`'s).
    #[must_use]
    pub(crate) fn complement_if(self, complemented: bool) -> NodeRef {
        if complemented {
            self.complement()
        } else {
            self
        }
    }

    /// `true` for the two polarities of the terminal (`0` and `1`).
    pub fn is_terminal(self) -> bool {
        self.0 & !TAG == 0
    }

    /// The raw 32-bit encoding (index plus tag bit) — the currency of the
    /// unique table, the operation cache and the cone's position table.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BddNode {
    pub(crate) level: Level,
    /// May carry a complement tag.
    pub(crate) low: NodeRef,
    /// Never carries a complement tag (canonicity rule; `mk` enforces it).
    pub(crate) high: NodeRef,
}

/// Two rounds of golden-ratio multiplicative mixing over the node triple.
///
/// Weak by hash-table-theory standards, strong enough in practice: the
/// inputs are small dense integers (plus the complement bit in the top
/// position), and linear probing over a power-of-two table only needs the
/// high bits to spread.
#[inline]
fn hash_triple(level: Level, low: u32, high: u32) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let packed = (u64::from(low) << 32) | u64::from(high);
    let mut h = packed.wrapping_mul(K);
    h ^= h >> 32;
    h = (h ^ u64::from(level)).wrapping_mul(K);
    h ^ (h >> 29)
}

/// The open-addressed unique table: maps `(level, low, high)` — `low`
/// tagged, `high` untagged — to the node index holding that triple. Keys
/// live in the node arena; the table stores only indices.
#[derive(Debug, Clone)]
struct UniqueTable {
    /// Power-of-two slot array of node indices; [`EMPTY`] marks a free slot.
    slots: Vec<u32>,
    /// Number of occupied slots.
    len: usize,
}

impl UniqueTable {
    fn new() -> Self {
        UniqueTable {
            slots: vec![EMPTY; UNIQUE_INITIAL_SLOTS],
            len: 0,
        }
    }

    /// `true` once load exceeds 1/2 — linear probing degrades sharply past
    /// that, and at 4 bytes per slot the memory cost of headroom is small.
    #[inline]
    fn needs_growth(&self) -> bool {
        self.len * 2 >= self.slots.len()
    }

    /// Doubles the slot array, reinserting every node index. No tombstones
    /// exist (nodes are only deleted by a full [`rebuild`]) and all triples
    /// are distinct, so reinsertion never compares keys.
    ///
    /// [`rebuild`]: UniqueTable::rebuild
    #[cold]
    fn grow(&mut self, nodes: &[BddNode]) {
        self.rebuild(nodes, self.slots.len() * 2);
    }

    /// Reinserts every (non-terminal) node of `nodes` into a fresh slot
    /// array of at least `min_slots` slots (grown further until load stays
    /// below 1/2). This is both the growth path and the post-GC rebuild:
    /// because the table is tombstone-free, "rebuild after compaction" and
    /// "grow" are the same reinsertion loop over the arena.
    #[cold]
    fn rebuild(&mut self, nodes: &[BddNode], min_slots: usize) {
        let inner = nodes.len().saturating_sub(1);
        let mut target = min_slots.max(UNIQUE_INITIAL_SLOTS);
        while inner * 2 >= target {
            target *= 2;
        }
        debug_assert!(target.is_power_of_two());
        let mask = target - 1;
        let mut slots = vec![EMPTY; target];
        for (index, node) in nodes.iter().enumerate().skip(1) {
            let mut i = hash_triple(node.level, node.low.0, node.high.0) as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = index as u32;
        }
        self.slots = slots;
        self.len = inner;
    }
}

/// One quadruple of the direct-mapped ITE cache. `f` and `g` are stored
/// untagged (the standard-triple normalization guarantees it); `h` and
/// `result` may carry tags.
#[derive(Debug, Clone, Copy)]
struct IteEntry {
    f: u32,
    g: u32,
    h: u32,
    result: u32,
}

const VACANT_ENTRY: IteEntry = IteEntry {
    f: EMPTY,
    g: EMPTY,
    h: EMPTY,
    result: EMPTY,
};

/// The direct-mapped lossy operation cache for [`Bdd::ite`].
#[derive(Debug, Clone)]
struct IteCache {
    /// Power-of-two entry array; an entry with `f == EMPTY` is vacant.
    entries: Vec<IteEntry>,
}

impl IteCache {
    fn new() -> Self {
        IteCache {
            entries: vec![VACANT_ENTRY; ITE_CACHE_INITIAL],
        }
    }

    /// Direct-mapped slot of `(f, g, h)`: the same mixer as the unique
    /// table ([`hash_triple`]), with `h` in the scalar position.
    #[inline]
    fn slot(&self, f: NodeRef, g: NodeRef, h: NodeRef) -> usize {
        (hash_triple(h.0, f.0, g.0) >> 32) as usize & (self.entries.len() - 1)
    }

    #[inline]
    fn get(&self, f: NodeRef, g: NodeRef, h: NodeRef) -> Option<NodeRef> {
        let entry = &self.entries[self.slot(f, g, h)];
        if entry.f == f.0 && entry.g == g.0 && entry.h == h.0 {
            Some(NodeRef(entry.result))
        } else {
            None
        }
    }

    /// Stores a result, overwriting whatever occupied the slot, and doubles
    /// the (empty) cache first if the node arena has outgrown it.
    #[inline]
    fn insert(&mut self, f: NodeRef, g: NodeRef, h: NodeRef, result: NodeRef, nodes: usize) {
        // Keep roughly one entry per arena node: measured on the
        // construction and fig4 suites, doubling past that buys no hit
        // rate worth the extra zeroing.
        if self.entries.len() < nodes && self.entries.len() < ITE_CACHE_MAX {
            self.grow(nodes);
        }
        let slot = self.slot(f, g, h);
        self.entries[slot] = IteEntry {
            f: f.0,
            g: g.0,
            h: h.0,
            result: result.0,
        };
    }

    /// Replaces the cache with a larger empty one (lossy by design; the
    /// next few ITEs recompute and repopulate).
    #[cold]
    fn grow(&mut self, target_entries: usize) {
        let mut target = self.entries.len();
        while target < target_entries && target < ITE_CACHE_MAX {
            target *= 2;
        }
        self.entries = vec![VACANT_ENTRY; target];
    }

    /// Empties the cache in place, keeping its capacity. Required after a
    /// GC: entries key and store raw (tagged) arena refs, all of which a
    /// compaction renumbers. (Lossy cache — clearing costs recomputation,
    /// never correctness.)
    #[cold]
    fn clear(&mut self) {
        self.entries.fill(VACANT_ENTRY);
    }
}

/// A stable handle to a GC-protected root function.
///
/// [`Bdd::gc`] renumbers every [`NodeRef`], so long-lived callers register
/// the functions they keep with [`Bdd::protect`] and re-read the current
/// ref through [`Bdd::resolve`] after (potential) collections. Handles stay
/// valid across any number of GCs until [`Bdd::unprotect`] releases them,
/// and stay **tag-faithful**: protecting a complemented ref resolves to a
/// complemented ref after every collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootHandle(usize);

/// Cumulative garbage-collection statistics of one manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Number of collections run.
    pub collections: usize,
    /// Total nodes reclaimed across all collections.
    pub nodes_freed: usize,
    /// Arena size (live nodes, the terminal included) right after the most
    /// recent collection; 0 before the first one.
    pub last_live: usize,
    /// Largest arena size observed at any collection start. The arena only
    /// grows between collections, so `peak_at_gc.max(total_nodes())` is
    /// the true all-time peak; [`Bdd::peak_arena`] computes exactly that.
    pub peak_at_gc: usize,
}

/// Result of one [`Bdd::sift`] pass: the level permutation the caller must
/// apply to its own variable↔level mapping, plus size accounting.
///
/// Levels *are* variables in this kernel, so sifting permutes what each
/// level means. `new_level[old]` is the level now holding the variable that
/// sat at level `old` before the pass; consumers that index assignments or
/// attribute tables by level (e.g. the analysis layer's defense-first
/// order) must remap through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiftOutcome {
    /// Permutation of the variable order: `new_level[old] = new`.
    pub new_level: Vec<Level>,
    /// Live arena size (terminal included) entering the pass, after the
    /// initial compaction.
    pub live_before: usize,
    /// Live arena size (terminal included) leaving the pass. Never larger
    /// than `live_before`: every variable ends at the best position seen,
    /// and staying put is always a candidate.
    pub live_after: usize,
    /// Number of adjacent-level swaps performed.
    pub swaps: usize,
}

impl SiftOutcome {
    /// Live-node reduction factor of the pass (≥ 1.0).
    pub fn reduction(&self) -> f64 {
        self.live_before as f64 / self.live_after as f64
    }
}

/// A pending step of the iterative [`Bdd::ite`] evaluation.
#[derive(Debug, Clone)]
enum IteFrame {
    /// Evaluate `ite(f, g, h)` and push the result.
    Expand(NodeRef, NodeRef, NodeRef),
    /// Pop the two cofactor results, build the node at `level`, cache it
    /// under the normalized `(f, g, h)`, and push the result complemented
    /// when the flag is set (the output-negation recorded by the
    /// standard-triple normalization).
    Reduce(Level, NodeRef, NodeRef, NodeRef, bool),
}

/// A reduced ordered binary decision diagram manager (with complement
/// edges) over a fixed number of variables.
///
/// # Examples
///
/// ```
/// use adt_bdd::{Bdd, Bexpr};
///
/// let mut bdd = Bdd::new(2);
/// let f = bdd.build(&Bexpr::and([Bexpr::var(0), Bexpr::var(1)]));
/// assert!(bdd.eval(f, &[true, true]));
/// assert!(!bdd.eval(f, &[true, false]));
/// assert_eq!(bdd.sat_count(f), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Bdd {
    nodes: Vec<BddNode>,
    unique: UniqueTable,
    ite_cache: IteCache,
    var_count: usize,
    /// Scratch work stack of [`Bdd::ite`], kept to avoid one allocation
    /// per operation (always left empty between calls).
    ite_frames: Vec<IteFrame>,
    /// Scratch result stack of [`Bdd::ite`] (always left empty between
    /// calls).
    ite_results: Vec<NodeRef>,
    /// The GC root registry: `roots[h]` is the (renumbered-on-GC, tagged)
    /// function behind [`RootHandle`] `h`, or `None` once unprotected.
    roots: Vec<Option<NodeRef>>,
    /// Free slots of `roots`, reused by [`Bdd::protect`].
    free_roots: Vec<usize>,
    /// Arena size at which [`Bdd::maybe_gc`] collects; `usize::MAX`
    /// (the default) means "manual GC only".
    gc_threshold: usize,
    /// Cumulative collection statistics.
    gc_stats: GcStats,
    /// Per-level node-count index: `level_counts[l]` stored nonterminal
    /// nodes branching at level `l`. Incremented by `mk_raw`, recomputed
    /// wholesale by `gc` and `compact_topological` (nodes are only ever
    /// freed in bulk); drives the variable-processing order of
    /// [`Bdd::sift`].
    level_counts: Vec<usize>,
    /// Live-node count at which [`Bdd::maybe_reorder`] sifts;
    /// `usize::MAX` (the default) disables dynamic reordering.
    reorder_threshold: usize,
}

impl Bdd {
    /// The `0` terminal: the complemented polarity of the single terminal
    /// node.
    pub const FALSE: NodeRef = NodeRef(TAG);
    /// The `1` terminal: the plain polarity of the single terminal node.
    pub const TRUE: NodeRef = NodeRef(0);

    /// Creates a manager for Boolean functions over `var_count` variables
    /// (levels `0..var_count`).
    pub fn new(var_count: usize) -> Self {
        let terminal = BddNode {
            level: TERMINAL_LEVEL,
            low: Self::TRUE,
            high: Self::TRUE,
        };
        Bdd {
            nodes: vec![terminal],
            unique: UniqueTable::new(),
            ite_cache: IteCache::new(),
            var_count,
            ite_frames: Vec::new(),
            ite_results: Vec::new(),
            roots: Vec::new(),
            free_roots: Vec::new(),
            gc_threshold: usize::MAX,
            gc_stats: GcStats::default(),
            level_counts: Vec::new(),
            reorder_threshold: usize::MAX,
        }
    }

    /// Number of variables of this manager.
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// Raises the variable count to at least `var_count` (never shrinks).
    ///
    /// Long-lived managers serve functions over many variable universes;
    /// existing nodes are untouched — a level keeps whatever meaning its
    /// caller assigned to it.
    pub fn ensure_var_count(&mut self, var_count: usize) {
        self.var_count = self.var_count.max(var_count);
    }

    /// Total number of nodes ever created (including the terminal). With
    /// complement edges a function and its negation share all their nodes,
    /// so this is typically up to 2× smaller than the tag-free
    /// [`crate::control::ControlBdd`]'s count for the same workload.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> NodeRef {
        if value {
            Self::TRUE
        } else {
            Self::FALSE
        }
    }

    /// The projection function of the variable at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= var_count`.
    pub fn var(&mut self, level: Level) -> NodeRef {
        assert!(
            (level as usize) < self.var_count,
            "variable level {level} out of range for {} variables",
            self.var_count
        );
        self.mk(level, Self::FALSE, Self::TRUE)
    }

    /// The branching level of a ref's node ([`Level::MAX`] for terminals).
    /// Complementing does not change the level.
    pub fn level(&self, f: NodeRef) -> Level {
        self.nodes[f.index()].level
    }

    /// The *stored* node at an arena index, tags exactly as in the arena —
    /// the raw view the serializer (`crate::serial`) exports, as opposed
    /// to the function-level cofactors of [`Bdd::low`]/[`Bdd::high`].
    pub(crate) fn node_storage(&self, index: usize) -> BddNode {
        self.nodes[index]
    }

    /// The low (`0`-labeled) cofactor of a nonterminal function. For a
    /// complemented ref this is the complement of the stored low edge —
    /// cofactoring commutes with negation, and the public accessors speak
    /// *functions*, not storage.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn low(&self, f: NodeRef) -> NodeRef {
        assert!(!f.is_terminal(), "terminals have no children");
        self.nodes[f.index()].low.complement_if(f.is_complemented())
    }

    /// The high (`1`-labeled) cofactor of a nonterminal function (see
    /// [`Bdd::low`] for the tag semantics; the *stored* high edge is never
    /// complemented, so this is complemented iff `f` is).
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn high(&self, f: NodeRef) -> NodeRef {
        assert!(!f.is_terminal(), "terminals have no children");
        self.nodes[f.index()]
            .high
            .complement_if(f.is_complemented())
    }

    /// The cone of `f`: every tagged ref reachable from it, children
    /// first, each with its cofactors' positions (see [`Cone`]). Costs
    /// O(|cone|) time and memory however large the arena around it is —
    /// nothing is sized to the arena.
    pub fn cone(&self, f: NodeRef) -> Cone {
        Cone::walk(self, f)
    }

    /// Hash-consing constructor: the canonical ref for the function
    /// `(level, low, high)`, applying the complement-edge canonicity rule —
    /// a complemented high edge is pushed onto the low edge and the
    /// returned ref (`(l, g, ¬h) = ¬(l, ¬g, h)`), so the stored high edge
    /// is always plain and each function/negation pair occupies one node.
    pub(crate) fn mk(&mut self, level: Level, low: NodeRef, high: NodeRef) -> NodeRef {
        if low == high {
            return low;
        }
        if high.is_complemented() {
            let r = self.mk_raw(level, low.complement(), high.complement());
            return r.complement();
        }
        self.mk_raw(level, low, high)
    }

    /// The unique-table probe behind [`Bdd::mk`]; requires an untagged
    /// high edge.
    fn mk_raw(&mut self, level: Level, low: NodeRef, high: NodeRef) -> NodeRef {
        debug_assert!(!high.is_complemented(), "canonicity: high edge is plain");
        if self.unique.needs_growth() {
            self.unique.grow(&self.nodes);
        }
        let mask = self.unique.slots.len() - 1;
        let mut i = hash_triple(level, low.0, high.0) as usize & mask;
        loop {
            let slot = self.unique.slots[i];
            if slot == EMPTY {
                assert!(
                    self.nodes.len() < (TAG as usize) - 1,
                    "node arena exhausted the 31-bit index space"
                );
                let r = NodeRef(self.nodes.len() as u32);
                self.nodes.push(BddNode { level, low, high });
                if self.level_counts.len() <= level as usize {
                    self.level_counts.resize(level as usize + 1, 0);
                }
                self.level_counts[level as usize] += 1;
                self.unique.slots[i] = r.0;
                self.unique.len += 1;
                return r;
            }
            let node = &self.nodes[slot as usize];
            if node.level == level && node.low == low && node.high == high {
                return NodeRef(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// The constant-time ITE exits: terminal conditions and absorptions
    /// that need no cache lookup. The last arm is new with complement
    /// edges: `ite(f, 0, 1) = ¬f` costs a bit flip.
    #[inline]
    fn ite_shortcut(f: NodeRef, g: NodeRef, h: NodeRef) -> Option<NodeRef> {
        if f == Self::TRUE {
            return Some(g);
        }
        if f == Self::FALSE {
            return Some(h);
        }
        if g == h {
            return Some(g);
        }
        if g == Self::TRUE && h == Self::FALSE {
            return Some(f);
        }
        if g == Self::FALSE && h == Self::TRUE {
            return Some(f.complement());
        }
        None
    }

    /// Standard-triple normalization (Brace–Rudell–Bryant): rewrites
    /// `(f, g, h)` into an equivalent canonical triple with `f` and `g`
    /// untagged, returning `true` when the *result* of the rewritten call
    /// must be complemented. Equivalent calls — the commuted conjunction
    /// and disjunction forms, and a call and its complement dual
    /// `¬ite(f, ¬g, ¬h)` — all normalize to the same triple, so they share
    /// one cache entry and one expansion.
    #[inline]
    fn ite_normalize(f: &mut NodeRef, g: &mut NodeRef, h: &mut NodeRef) -> bool {
        // Branches of the condition collapse to constants.
        if g.index() == f.index() {
            *g = if g == f { Self::TRUE } else { Self::FALSE };
        }
        if h.index() == f.index() {
            *h = if h == f { Self::FALSE } else { Self::TRUE };
        }
        // One operand-ordering rewrite per derived form, choosing the
        // smaller arena index as the condition: ∨ (`ite(f,1,h) = ite(h,1,f)`),
        // ∧ (`ite(f,g,0) = ite(g,f,0)`), ¬∧ (`ite(f,0,h) = ite(¬h,0,¬f)`),
        // → (`ite(f,g,1) = ite(¬g,¬f,1)`) and ⊕ (`ite(f,g,¬g) = ite(g,f,¬f)`).
        if *g == Self::TRUE && h.index() < f.index() {
            std::mem::swap(f, h);
        } else if *h == Self::FALSE && g.index() < f.index() {
            std::mem::swap(f, g);
        } else if *g == Self::FALSE && h.index() < f.index() {
            let (of, oh) = (*f, *h);
            *f = oh.complement();
            *h = of.complement();
        } else if *h == Self::TRUE && g.index() < f.index() {
            let (of, og) = (*f, *g);
            *f = og.complement();
            *g = of.complement();
        } else if *h == g.complement() && !g.is_terminal() && g.index() < f.index() {
            let (of, og) = (*f, *g);
            *f = og;
            *g = of;
            *h = of.complement();
        }
        // Untag the condition (`ite(¬f, g, h) = ite(f, h, g)`), then the
        // then-branch — the complement-dual fold, which surfaces as the
        // output negation the caller applies.
        if f.is_complemented() {
            *f = f.complement();
            std::mem::swap(g, h);
        }
        if g.is_complemented() {
            *g = g.complement();
            *h = h.complement();
            true
        } else {
            false
        }
    }

    /// If-then-else: the function `(f ∧ g) ∨ (¬f ∧ h)`. All other Boolean
    /// operations are derived from this one.
    ///
    /// Evaluated with an explicit work stack, so arbitrarily deep diagrams
    /// cannot overflow the call stack. Each step normalizes its triple to
    /// the Brace–Rudell–Bryant standard form (see the module docs and
    /// `docs/KERNEL.md`) before consulting the cache.
    pub fn ite(&mut self, f: NodeRef, g: NodeRef, h: NodeRef) -> NodeRef {
        if let Some(r) = Self::ite_shortcut(f, g, h) {
            return r;
        }
        // Reuse the scratch stacks across calls: one ITE would otherwise
        // pay two heap allocations, which dominates small operations.
        let mut frames = std::mem::take(&mut self.ite_frames);
        let mut results = std::mem::take(&mut self.ite_results);
        debug_assert!(frames.is_empty() && results.is_empty());
        frames.push(IteFrame::Expand(f, g, h));
        while let Some(frame) = frames.pop() {
            match frame {
                IteFrame::Expand(mut f, mut g, mut h) => {
                    if let Some(r) = Self::ite_shortcut(f, g, h) {
                        results.push(r);
                        continue;
                    }
                    let negate = Self::ite_normalize(&mut f, &mut g, &mut h);
                    // Normalization can expose a new shortcut
                    // (e.g. ite(f, f, 0) became ite(f, 1, 0) = f).
                    if let Some(r) = Self::ite_shortcut(f, g, h) {
                        results.push(r.complement_if(negate));
                        continue;
                    }
                    if let Some(r) = self.ite_cache.get(f, g, h) {
                        results.push(r.complement_if(negate));
                        continue;
                    }
                    // One arena load per operand: the node copy serves
                    // both the level minimum and the cofactor split. The
                    // split propagates each operand's tag onto its
                    // cofactors (¬x branches to ¬x₀ / ¬x₁).
                    let nf = self.nodes[f.index()];
                    let ng = self.nodes[g.index()];
                    let nh = self.nodes[h.index()];
                    let level = nf.level.min(ng.level).min(nh.level);
                    let split = |node: BddNode, operand: NodeRef| {
                        if node.level == level {
                            let c = operand.is_complemented();
                            (node.low.complement_if(c), node.high.complement_if(c))
                        } else {
                            (operand, operand)
                        }
                    };
                    let (f0, f1) = split(nf, f);
                    let (g0, g1) = split(ng, g);
                    let (h0, h1) = split(nh, h);
                    frames.push(IteFrame::Reduce(level, f, g, h, negate));
                    // The low branch is pushed last so it evaluates first;
                    // `Reduce` pops high then low.
                    frames.push(IteFrame::Expand(f1, g1, h1));
                    frames.push(IteFrame::Expand(f0, g0, h0));
                }
                IteFrame::Reduce(level, f, g, h, negate) => {
                    let high = results.pop().expect("high cofactor result");
                    let low = results.pop().expect("low cofactor result");
                    let r = self.mk(level, low, high);
                    self.ite_cache.insert(f, g, h, r, self.nodes.len());
                    results.push(r.complement_if(negate));
                }
            }
        }
        let root = results.pop().expect("root result");
        self.ite_frames = frames;
        self.ite_results = results;
        root
    }

    /// Conjunction.
    pub fn and(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g, Self::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, Self::TRUE, g)
    }

    /// Negation — **O(1)**: with complement edges, `¬f` is `f` with the
    /// tag bit flipped ([`NodeRef::complement`]). No ITE runs, no node is
    /// created, the arena does not grow.
    ///
    /// ```
    /// use adt_bdd::{Bdd, Bexpr};
    ///
    /// let mut bdd = Bdd::new(3);
    /// let f = bdd.build(&Bexpr::or([Bexpr::var(0), Bexpr::var(2)]));
    /// let before = bdd.total_nodes();
    /// let nf = bdd.not(f);
    /// assert_eq!(bdd.total_nodes(), before, "negation allocates nothing");
    /// assert_eq!(bdd.not(nf), f, "double negation is the identity");
    /// assert!(bdd.eval(nf, &[false, false, false]));
    /// ```
    #[allow(clippy::should_implement_trait)]
    pub fn not(&mut self, f: NodeRef) -> NodeRef {
        f.complement()
    }

    /// Exclusive or: one ITE, `ite(f, ¬g, g)` — the negated branch is a
    /// tag flip, and the normalization folds the call with its complement
    /// dual in the cache.
    pub fn xor(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g.complement(), g)
    }

    /// `f ∧ ¬g` — the inhibition clause of the structure function.
    ///
    /// With complement edges `¬g` is free (a tag flip), so this is exactly
    /// the conjunction `f ∧ ¬g` as one ITE over shared nodes: nothing is
    /// materialized for the complement, and the diagram of `¬g` *is* the
    /// diagram of `g`. Every INH gate of an ADT compiles through here, so
    /// the defense step (`and_not` in `BDDBU`) rides entirely on existing
    /// nodes.
    pub fn and_not(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.and(f, g.complement())
    }

    /// Builds the ROBDD of a Boolean expression.
    ///
    /// # Panics
    ///
    /// Panics if the expression mentions a level `>= var_count`.
    pub fn build(&mut self, expr: &Bexpr) -> NodeRef {
        match expr {
            Bexpr::Const(b) => self.constant(*b),
            Bexpr::Var(l) => self.var(*l),
            Bexpr::Not(e) => {
                let f = self.build(e);
                self.not(f)
            }
            Bexpr::And(es) => {
                let mut acc = Self::TRUE;
                for e in es {
                    let f = self.build(e);
                    acc = self.and(acc, f);
                    if acc == Self::FALSE {
                        break;
                    }
                }
                acc
            }
            Bexpr::Or(es) => {
                let mut acc = Self::FALSE;
                for e in es {
                    let f = self.build(e);
                    acc = self.or(acc, f);
                    if acc == Self::TRUE {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// Evaluates `f` under a full assignment (index = level), propagating
    /// the complement tag down the walked path.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < var_count`.
    pub fn eval(&self, f: NodeRef, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.var_count,
            "assignment covers {} of {} variables",
            assignment.len(),
            self.var_count
        );
        let mut cur = f;
        while !cur.is_terminal() {
            let node = &self.nodes[cur.index()];
            let child = if assignment[node.level as usize] {
                node.high
            } else {
                node.low
            };
            cur = child.complement_if(cur.is_complemented());
        }
        cur == Self::TRUE
    }

    /// Marks, in `reachable` (indexed by node index, sized `top + 1`), the
    /// nodes of the sub-diagram rooted at index `top` whose restriction at
    /// `cutoff` may differ from the node itself — i.e. nodes reachable
    /// through branchings strictly above `cutoff`. Complement tags are
    /// irrelevant here: a ref and its complement reach the same *nodes*.
    ///
    /// Runs as a single descending index sweep: children always have
    /// smaller indices than parents, so by the time an index is visited its
    /// reachability is final.
    fn mark_above(&self, top: usize, cutoff: Level, reachable: &mut [bool]) {
        reachable[top] = true;
        for index in (1..=top).rev() {
            if !reachable[index] {
                continue;
            }
            let node = &self.nodes[index];
            if node.level >= cutoff {
                continue;
            }
            reachable[node.low.index()] = true;
            reachable[node.high.index()] = true;
        }
    }

    /// Restricts (cofactors) `f` by fixing the variable at `level` to
    /// `value`.
    ///
    /// Implemented as two linear index sweeps (mark, then rebuild in
    /// ascending = topological order) instead of recursion. The sweep
    /// computes restrictions of the *stored* (untagged) nodes; restriction
    /// commutes with complement, so tags are re-applied when edges (and
    /// the root) are read.
    pub fn restrict(&mut self, f: NodeRef, level: Level, value: bool) -> NodeRef {
        if f.is_terminal() || self.level(f) > level {
            return f;
        }
        let top = f.index();
        let mut reachable = vec![false; top + 1];
        self.mark_above(top, level, &mut reachable);
        // results[i] = the restriction of (untagged) node i; only filled
        // for marked indices, whose children are either terminals, marked
        // earlier indices, or nodes at levels > `level` (which map to
        // themselves).
        let mut results: Vec<NodeRef> = vec![NodeRef(EMPTY); top + 1];
        for index in 1..=top {
            if !reachable[index] {
                continue;
            }
            let node = self.nodes[index];
            let r = if node.level > level {
                NodeRef(index as u32)
            } else if node.level == level {
                if value {
                    node.high
                } else {
                    node.low
                }
            } else {
                let low = Self::restricted_child(&results, node.low);
                let high = Self::restricted_child(&results, node.high);
                self.mk(node.level, low, high)
            };
            results[index] = r;
        }
        results[top].complement_if(f.is_complemented())
    }

    /// The already-computed restriction of the `child` edge during a
    /// [`restrict`] sweep: terminals restrict to themselves, and a
    /// complemented edge complements the stored node's restriction.
    ///
    /// [`restrict`]: Bdd::restrict
    fn restricted_child(results: &[NodeRef], child: NodeRef) -> NodeRef {
        if child.is_terminal() {
            child
        } else {
            let r = results[child.index()];
            debug_assert_ne!(r.0, EMPTY, "child restricted before parent");
            r.complement_if(child.is_complemented())
        }
    }

    /// `2^bits - count`: the satisfying-assignment count of a function's
    /// complement over `bits` free variables. Errors loudly (never wraps)
    /// when the complement count itself exceeds `u128` — which at
    /// `bits == 128` it does *not* as long as `count >= 1`, since
    /// `2^128 - count = u128::MAX - (count - 1)`.
    fn complement_count(count: u128, bits: u64) -> u128 {
        if bits < 128 {
            (1u128 << bits) - count
        } else {
            assert!(bits == 128 && count >= 1, "sat_count exceeds u128");
            u128::MAX - (count - 1)
        }
    }

    /// Number of satisfying assignments of `f` over all `var_count`
    /// variables.
    ///
    /// A single ascending (= topological) index sweep over the reachable
    /// sub-diagram, computing the count of every *stored* node once;
    /// complemented edges read the complement count (`2^k - c` over the
    /// `k` variables below the child's level), so the sweep stays
    /// single-pass under complement edges.
    ///
    /// # Panics
    ///
    /// Panics if the count exceeds `u128` (possible once the manager has
    /// 128 or more variables; counts that fit are returned exactly — a
    /// conjunction chain over 50 000 variables still counts fine).
    pub fn sat_count(&self, f: NodeRef) -> u128 {
        // Free variables multiply the count by two per skipped level; a
        // nonzero count whose shift would overflow u128 is a hard error,
        // never a silent wrap.
        let shifted = |count: u128, gap: u64| -> u128 {
            if count == 0 {
                0
            } else {
                assert!(
                    gap <= u64::from(count.leading_zeros()),
                    "sat_count exceeds u128"
                );
                count << (gap as u32)
            }
        };
        if f == Self::FALSE {
            return 0;
        }
        if f == Self::TRUE {
            return shifted(1, self.var_count as u64);
        }
        let top = f.index();
        let mut reachable = vec![false; top + 1];
        self.mark_above(top, TERMINAL_LEVEL, &mut reachable);
        // counts[i] = satisfying assignments of (untagged) node i over the
        // variables at or below its own level.
        let mut counts = vec![0u128; top + 1];
        let n = self.var_count as u64;
        // (count over the child's own variable span, child level) for one
        // stored edge, complement applied for tagged edges.
        let child_info = |counts: &[u128], child: NodeRef| -> (u128, u64) {
            if child.is_terminal() {
                (u128::from(child == Self::TRUE), n)
            } else {
                let level = u64::from(self.nodes[child.index()].level);
                let count = counts[child.index()];
                let count = if child.is_complemented() {
                    Self::complement_count(count, n - level)
                } else {
                    count
                };
                (count, level)
            }
        };
        for index in 1..=top {
            if !reachable[index] {
                continue;
            }
            let node = &self.nodes[index];
            let level = u64::from(node.level);
            let (c0, l0) = child_info(&counts, node.low);
            let (c1, l1) = child_info(&counts, node.high);
            let low = shifted(c0, l0 - level - 1);
            let high = shifted(c1, l1 - level - 1);
            counts[index] = low.checked_add(high).expect("sat_count exceeds u128");
        }
        let top_level = u64::from(self.nodes[top].level);
        let count = if f.is_complemented() {
            Self::complement_count(counts[top], n - top_level)
        } else {
            counts[top]
        };
        shifted(count, top_level)
    }

    /// The distinct sub-*functions* reachable from `f` (terminal polarities
    /// included), each after both of its cofactors: the refs of
    /// [`Bdd::cone`], in the walk's order. A node reached under both
    /// polarities contributes two refs.
    ///
    /// The length of the result is the paper's `|W|` — the number of
    /// fronts `BDDBU` computes.
    pub fn reachable_topological(&self, f: NodeRef) -> Vec<NodeRef> {
        self.cone(f).nodes().iter().map(|n| n.node).collect()
    }

    /// Number of arena nodes reachable from `f`, the terminal included —
    /// the *memory* footprint of the diagram. A function and its
    /// complement share every node, so this is polarity-blind (the
    /// propagation workload `|W|` is the length of [`Bdd::cone`]
    /// instead).
    pub fn node_count(&self, f: NodeRef) -> usize {
        if f.is_terminal() {
            return 1;
        }
        let top = f.index();
        let mut reachable = vec![false; top + 1];
        self.mark_above(top, TERMINAL_LEVEL, &mut reachable);
        reachable.iter().filter(|&&m| m).count()
    }

    /// The set of levels on which `f` depends, in increasing order.
    pub fn support(&self, f: NodeRef) -> Vec<Level> {
        if f.is_terminal() {
            return Vec::new();
        }
        let top = f.index();
        let mut reachable = vec![false; top + 1];
        self.mark_above(top, TERMINAL_LEVEL, &mut reachable);
        let mut levels: Vec<Level> = (1..=top)
            .filter(|&i| reachable[i])
            .map(|i| self.nodes[i].level)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels
    }

    /// All root-to-terminal paths of `f` that end in the `target` terminal.
    ///
    /// Each path lists `(level, value)` for the variables *tested* on the
    /// path; untested (skipped) variables are unconstrained, which is how the
    /// paper's Example 6 writes `f_T(10, 0*) = 0`. Which terminal a path
    /// reaches depends on the parity of complemented edges along it, so the
    /// walk carries the tag.
    ///
    /// Iterative (explicit walk stack), like every other diagram walk of
    /// this manager; the output itself can of course be exponential.
    pub fn paths(&self, f: NodeRef, target: bool) -> Vec<Vec<(Level, bool)>> {
        /// One step of the depth-first path walk.
        enum Walk {
            /// Explore a (tagged) ref (emitting the prefix if it is the
            /// target).
            Enter(NodeRef),
            /// Append an edge label to the prefix.
            Push(Level, bool),
            /// Drop the innermost edge label.
            Pop,
        }
        let target = self.constant(target);
        let mut out = Vec::new();
        let mut prefix: Vec<(Level, bool)> = Vec::new();
        let mut walk = vec![Walk::Enter(f)];
        while let Some(step) = walk.pop() {
            match step {
                Walk::Enter(cur) => {
                    if cur == target {
                        out.push(prefix.clone());
                        continue;
                    }
                    if cur.is_terminal() {
                        continue;
                    }
                    let node = self.nodes[cur.index()];
                    let c = cur.is_complemented();
                    // Reverse push order so the low branch walks first,
                    // matching the recursive formulation's output order.
                    walk.push(Walk::Pop);
                    walk.push(Walk::Enter(node.high.complement_if(c)));
                    walk.push(Walk::Push(node.level, true));
                    walk.push(Walk::Pop);
                    walk.push(Walk::Enter(node.low.complement_if(c)));
                    walk.push(Walk::Push(node.level, false));
                }
                Walk::Push(level, value) => prefix.push((level, value)),
                Walk::Pop => {
                    prefix.pop();
                }
            }
        }
        out
    }

    /// Renders the sub-diagram rooted at `f` as a Graphviz `digraph`, with
    /// dashed `0`-edges and solid `1`-edges (the paper's Fig. 6 convention)
    /// and the classic dot marker (`arrowhead=odot`) on complemented edges.
    /// An entry arrow records the root's own polarity; the single terminal
    /// renders as the square `1`.
    ///
    /// `var_name` maps levels to display names.
    pub fn to_dot(&self, f: NodeRef, var_name: impl Fn(Level) -> String) -> String {
        let mut out = String::from("digraph bdd {\n");
        let _ = writeln!(out, "    root [shape=point];");
        let _ = writeln!(
            out,
            "    root -> n{}{};",
            f.index(),
            if f.is_complemented() {
                " [arrowhead=odot]"
            } else {
                ""
            }
        );
        let mut stack = vec![f.index()];
        let mut visited = vec![false; self.nodes.len()];
        visited[f.index()] = true;
        while let Some(cur) = stack.pop() {
            if cur == 0 {
                let _ = writeln!(out, "    n0 [label=\"1\", shape=square];");
                continue;
            }
            let node = &self.nodes[cur];
            let _ = writeln!(
                out,
                "    n{cur} [label=\"{}\", shape=circle];",
                var_name(node.level),
            );
            let _ = writeln!(
                out,
                "    n{cur} -> n{} [style=dashed{}];",
                node.low.index(),
                if node.low.is_complemented() {
                    ", arrowhead=odot"
                } else {
                    ""
                }
            );
            let _ = writeln!(out, "    n{cur} -> n{};", node.high.index());
            for child in [node.low, node.high] {
                if !visited[child.index()] {
                    visited[child.index()] = true;
                    stack.push(child.index());
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Checks the reducedness and ordering invariants (Definition 10 plus
    /// the complement-edge canonicity rules) for the sub-diagram rooted at
    /// `f`; used by tests. Verified per node: the stored high edge is never
    /// complemented, the stored children differ, children branch strictly
    /// below their parent, and child indices precede parent indices.
    pub fn check_invariants(&self, f: NodeRef) -> Result<(), String> {
        let mut stack = vec![f.index()];
        let mut visited = vec![false; self.nodes.len()];
        visited[f.index()] = true;
        while let Some(cur) = stack.pop() {
            if cur == 0 {
                continue;
            }
            let node = &self.nodes[cur];
            if node.high.is_complemented() {
                return Err(format!("node n{cur} stores a complemented high edge"));
            }
            if node.low == node.high {
                return Err(format!("node n{cur} has identical children"));
            }
            for child in [node.low, node.high] {
                if !child.is_terminal() && self.level(child) <= node.level {
                    return Err(format!(
                        "edge n{cur} -> n{} violates the variable order",
                        child.index()
                    ));
                }
                if child.index() >= cur {
                    return Err(format!(
                        "edge n{cur} -> n{} violates the arena's child-first order",
                        child.index()
                    ));
                }
                if !visited[child.index()] {
                    visited[child.index()] = true;
                    stack.push(child.index());
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Garbage collection
    // -----------------------------------------------------------------

    /// Registers `f` as a GC root and returns a stable handle for it.
    ///
    /// Protected functions (and everything they reach) survive [`Bdd::gc`];
    /// the handle stays valid across collections even though the underlying
    /// [`NodeRef`] is renumbered — read the current ref with
    /// [`Bdd::resolve`], which preserves the protected ref's complement
    /// tag. Release the registration with [`Bdd::unprotect`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `f` is not a node of this manager —
    /// protecting a stale or foreign ref would silently pin garbage.
    pub fn protect(&mut self, f: NodeRef) -> RootHandle {
        debug_assert!(
            f.index() < self.nodes.len(),
            "protecting a NodeRef outside the arena (stale after GC, or from another manager?)"
        );
        match self.free_roots.pop() {
            Some(slot) => {
                debug_assert!(self.roots[slot].is_none());
                self.roots[slot] = Some(f);
                RootHandle(slot)
            }
            None => {
                self.roots.push(Some(f));
                RootHandle(self.roots.len() - 1)
            }
        }
    }

    /// The current [`NodeRef`] behind a protected root (renumbered by any
    /// intervening [`Bdd::gc`], complement tag preserved).
    ///
    /// # Panics
    ///
    /// Panics if the handle was already [`Bdd::unprotect`]ed.
    pub fn resolve(&self, handle: RootHandle) -> NodeRef {
        self.roots[handle.0].expect("resolving an unprotected root handle")
    }

    /// Releases a root registration; the function's nodes become
    /// reclaimable by the next [`Bdd::gc`] (unless reachable from another
    /// root).
    ///
    /// # Panics
    ///
    /// Panics if the handle was already unprotected (double release is a
    /// bookkeeping bug worth failing loudly on).
    pub fn unprotect(&mut self, handle: RootHandle) {
        let slot = self
            .roots
            .get_mut(handle.0)
            .expect("unprotecting a handle from another manager");
        assert!(slot.is_some(), "root handle unprotected twice");
        *slot = None;
        self.free_roots.push(handle.0);
    }

    /// Number of currently protected roots.
    pub fn protected_count(&self) -> usize {
        self.roots.iter().flatten().count()
    }

    /// Sets the arena size (in nodes) at which [`Bdd::maybe_gc`] collects.
    /// `usize::MAX` (the default) disables automatic collection.
    pub fn set_gc_threshold(&mut self, nodes: usize) {
        self.gc_threshold = nodes;
    }

    /// The current automatic-GC threshold (see [`Bdd::set_gc_threshold`]).
    pub fn gc_threshold(&self) -> usize {
        self.gc_threshold
    }

    /// Cumulative garbage-collection statistics.
    pub fn gc_stats(&self) -> GcStats {
        self.gc_stats
    }

    /// The largest arena size this manager ever reached (the terminal and
    /// since-collected garbage included).
    pub fn peak_arena(&self) -> usize {
        self.gc_stats.peak_at_gc.max(self.nodes.len())
    }

    /// Runs [`Bdd::gc`] if the arena has reached the configured threshold;
    /// returns whether a collection ran.
    pub fn maybe_gc(&mut self) -> bool {
        if self.nodes.len() >= self.gc_threshold {
            self.gc();
            true
        } else {
            false
        }
    }

    /// Mark-and-compact garbage collection: reclaims every node not
    /// reachable from a protected root, returning the number of nodes
    /// freed.
    ///
    /// Marking strips complement tags (a node is live if *either* polarity
    /// is reachable — they share the arena slot). Survivors are compacted
    /// to the front of the arena **in their original index order**, so the
    /// child-index < parent-index invariant (and with it every topological
    /// index sweep) is preserved; compaction renumbers indices but
    /// **preserves tags** — a complemented low edge stays complemented,
    /// and a protected complemented root resolves to a complemented ref.
    /// The unique table is rebuilt by the same tombstone-free reinsertion
    /// loop that growth uses, sized back down to the live node count; the
    /// lossy ITE cache is invalidated wholesale (its entries key raw
    /// tagged refs).
    ///
    /// **Every [`NodeRef`] is renumbered.** Refs obtained before the
    /// collection — other than through [`Bdd::resolve`] — must not be used
    /// afterwards: out-of-range ones panic on first use, in-range ones
    /// silently alias a different node. Run tests with
    /// `RUSTFLAGS="-C debug-assertions"` to catch the registry-level
    /// misuses (stale protects, double unprotects) early.
    pub fn gc(&mut self) -> usize {
        debug_assert!(
            self.ite_frames.is_empty() && self.ite_results.is_empty(),
            "gc during an ITE walk"
        );
        let old_len = self.nodes.len();
        self.gc_stats.peak_at_gc = self.gc_stats.peak_at_gc.max(old_len);

        // Mark: seed every protected root (tag stripped), then one
        // descending sweep — by the time an index is visited, its own
        // reachability is final, so its children can be marked immediately
        // (same scheme as `mark_above`, generalized to many roots).
        let mut marked = vec![false; old_len];
        marked[0] = true;
        for root in self.roots.iter().flatten() {
            marked[root.index()] = true;
        }
        for index in (1..old_len).rev() {
            if marked[index] {
                let node = self.nodes[index];
                marked[node.low.index()] = true;
                marked[node.high.index()] = true;
            }
        }

        // Compact in place, ascending: survivors move to the next free
        // index (`next <= index` always, and children — having smaller old
        // indices — were remapped before any parent reads the remap).
        // Renumbering goes through the index; each edge's tag is carried
        // over verbatim.
        let mut remap: Vec<u32> = vec![EMPTY; old_len];
        remap[0] = 0;
        let mut next = 1u32;
        for index in 1..old_len {
            if !marked[index] {
                continue;
            }
            let node = self.nodes[index];
            remap[index] = next;
            self.nodes[next as usize] = BddNode {
                level: node.level,
                low: NodeRef(remap[node.low.index()]).complement_if(node.low.is_complemented()),
                high: NodeRef(remap[node.high.index()]),
            };
            next += 1;
        }
        self.nodes.truncate(next as usize);

        // Rebuild the unique table over the compacted arena and drop every
        // (ref-keyed, now meaningless) ITE cache entry.
        self.unique.rebuild(&self.nodes, UNIQUE_INITIAL_SLOTS);
        self.ite_cache.clear();

        // Renumber the registry, keeping each root's tag.
        for slot in self.roots.iter_mut().flatten() {
            let renumbered = remap[slot.index()];
            debug_assert_ne!(renumbered, EMPTY, "protected root swept");
            *slot = NodeRef(renumbered).complement_if(slot.is_complemented());
        }

        let freed = old_len - self.nodes.len();
        self.gc_stats.collections += 1;
        self.gc_stats.nodes_freed += freed;
        self.gc_stats.last_live = self.nodes.len();
        self.recount_levels();
        #[cfg(debug_assertions)]
        if let Err(message) = self.check_all_invariants() {
            panic!("kernel invariant violated after gc: {message}");
        }
        freed
    }

    // -----------------------------------------------------------------
    // Dynamic variable reordering (sifting)
    // -----------------------------------------------------------------

    /// Number of stored nonterminal nodes branching at `level` (garbage
    /// included until the next collection or sift compaction).
    pub fn level_node_count(&self, level: Level) -> usize {
        self.level_counts.get(level as usize).copied().unwrap_or(0)
    }

    /// Sets the live-node count at which [`Bdd::maybe_reorder`] runs a
    /// sifting pass. `usize::MAX` (the default) disables dynamic
    /// reordering entirely — `maybe_reorder` then never touches the arena.
    pub fn set_reorder_threshold(&mut self, nodes: usize) {
        self.reorder_threshold = nodes;
    }

    /// The current automatic-reordering threshold (see
    /// [`Bdd::set_reorder_threshold`]).
    pub fn reorder_threshold(&self) -> usize {
        self.reorder_threshold
    }

    /// Recomputes the per-level node-count index from the arena.
    fn recount_levels(&mut self) {
        for count in self.level_counts.iter_mut() {
            *count = 0;
        }
        for index in 1..self.nodes.len() {
            let level = self.nodes[index].level as usize;
            if level >= self.level_counts.len() {
                self.level_counts.resize(level + 1, 0);
            }
            self.level_counts[level] += 1;
        }
    }

    /// Checks every manager-wide invariant: the canonicity rules of
    /// [`Bdd::check_invariants`] for **all** stored nodes (not just one
    /// root's cone), plus unique-table consistency — the table holds
    /// exactly the nonterminal nodes, each findable at its own triple,
    /// with no duplicate triples — and every protected root in-arena.
    ///
    /// Always compiled; the *automatic* calls (at the end of every [`Bdd::gc`]
    /// and [`Bdd::sift`]) are `debug_assertions`-gated so release builds
    /// pay nothing. Run tests with `RUSTFLAGS="-C debug-assertions"` (the
    /// CI canary job) to catch a canonicity violation where it happens
    /// instead of as a wrong front downstream.
    pub fn check_all_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() || self.nodes[0].level != TERMINAL_LEVEL {
            return Err("the terminal must sit at index 0".into());
        }
        for index in 1..self.nodes.len() {
            let node = &self.nodes[index];
            if node.level == TERMINAL_LEVEL {
                return Err(format!("nonterminal index n{index} stores a terminal"));
            }
            if node.level as usize >= self.var_count {
                return Err(format!(
                    "node n{index} branches at level {} beyond var_count {}",
                    node.level, self.var_count
                ));
            }
            if node.high.is_complemented() {
                return Err(format!("node n{index} stores a complemented high edge"));
            }
            if node.low == node.high {
                return Err(format!("node n{index} has identical children"));
            }
            for child in [node.low, node.high] {
                if child.index() >= self.nodes.len() {
                    return Err(format!(
                        "edge n{index} -> n{} leaves the arena",
                        child.index()
                    ));
                }
                if !child.is_terminal() && self.nodes[child.index()].level <= node.level {
                    return Err(format!(
                        "edge n{index} -> n{} violates the variable order",
                        child.index()
                    ));
                }
                if child.index() >= index {
                    return Err(format!(
                        "edge n{index} -> n{} violates the arena's child-first order",
                        child.index()
                    ));
                }
            }
        }
        if self.unique.len != self.nodes.len() - 1 {
            return Err(format!(
                "unique table holds {} entries for {} nonterminal nodes",
                self.unique.len,
                self.nodes.len() - 1
            ));
        }
        let mask = self.unique.slots.len() - 1;
        for index in 1..self.nodes.len() {
            let node = &self.nodes[index];
            let mut i = hash_triple(node.level, node.low.0, node.high.0) as usize & mask;
            loop {
                let slot = self.unique.slots[i];
                if slot == EMPTY {
                    return Err(format!("node n{index} is missing from the unique table"));
                }
                if slot as usize == index {
                    break;
                }
                let other = &self.nodes[slot as usize];
                if other.level == node.level && other.low == node.low && other.high == node.high {
                    return Err(format!("nodes n{index} and n{slot} store the same triple"));
                }
                i = (i + 1) & mask;
            }
        }
        for root in self.roots.iter().flatten() {
            if root.index() >= self.nodes.len() {
                return Err(format!(
                    "protected root n{} is outside the arena",
                    root.index()
                ));
            }
        }
        Ok(())
    }

    /// Swaps the variables at levels `upper` and `upper + 1` in place.
    ///
    /// CUDD-style: every node of the two levels keeps its arena index, so
    /// parents above, protected roots and outstanding tagged [`NodeRef`]s
    /// stay valid — only the *meaning* of the two levels is exchanged.
    /// Three node classes:
    ///
    /// * `upper` nodes with a child branching at `upper + 1` are rewritten
    ///   through the cofactor algebra below (same index, same function);
    /// * `upper` nodes independent of the `upper + 1` variable are
    ///   relabeled to `upper + 1` (their function now tests the lower
    ///   level);
    /// * `upper + 1` nodes are relabeled to `upper`.
    ///
    /// Rewriting node `n = (upper, l, h)` (stored `h` plain by canonicity)
    /// needs the four grandchild cofactors with respect to the
    /// `upper + 1` variable — `l0`/`l1` carry `l`'s tag, `h0`/`h1` are
    /// `h`'s stored edges — and rebuilds
    /// `n = (upper, mk(l0, h0), mk(l1, h1))`. The new high edge
    /// `mk(l1, h1)` is **always plain**: `h1` is either the stored plain
    /// `h` or its stored plain high edge, so `mk` never has to push a tag
    /// — a level swap re-establishes the no-complemented-high rule with
    /// zero tag cascade. The unique table is rebuilt (tombstone-free
    /// reinsertion, same path as growth/GC) *between* the relabeling and
    /// the `mk` calls so new `upper + 1` nodes share with the relabeled
    /// independent ones.
    ///
    /// Leaves freshly created nodes at the arena tail (breaking the
    /// child-index < parent-index invariant for rewritten nodes) and stale
    /// unique-table entries for rewritten triples; callers **must** run
    /// [`Bdd::compact_topological`] before any other manager operation —
    /// [`Bdd::sift`] does so after every swap.
    fn swap_adjacent(&mut self, upper: Level) {
        let lower = upper + 1;
        // Classify both levels' nodes and read the cofactors of every
        // dependent `upper` node *before* relabeling (the "branches at
        // `lower`" test is a level comparison, destroyed by relabeling).
        let mut dependent: Vec<(u32, [NodeRef; 4])> = Vec::new();
        let mut independent: Vec<u32> = Vec::new();
        let mut relabel: Vec<u32> = Vec::new();
        for index in 1..self.nodes.len() {
            let node = self.nodes[index];
            if node.level == lower {
                relabel.push(index as u32);
                continue;
            }
            if node.level != upper {
                continue;
            }
            let low_branches =
                !node.low.is_terminal() && self.nodes[node.low.index()].level == lower;
            let high_branches =
                !node.high.is_terminal() && self.nodes[node.high.index()].level == lower;
            if !low_branches && !high_branches {
                independent.push(index as u32);
                continue;
            }
            let (l0, l1) = if low_branches {
                let child = self.nodes[node.low.index()];
                let tag = node.low.is_complemented();
                (child.low.complement_if(tag), child.high.complement_if(tag))
            } else {
                (node.low, node.low)
            };
            let (h0, h1) = if high_branches {
                let child = self.nodes[node.high.index()];
                (child.low, child.high)
            } else {
                (node.high, node.high)
            };
            dependent.push((index as u32, [l0, l1, h0, h1]));
        }
        if dependent.is_empty() && independent.is_empty() && relabel.is_empty() {
            return;
        }
        for &index in &relabel {
            self.nodes[index as usize].level = upper;
        }
        for &index in &independent {
            self.nodes[index as usize].level = lower;
        }
        // Relabeled nodes hash to new triples; rebuild before the `mk`
        // calls below so they can share with the relabeled nodes instead
        // of duplicating them.
        self.unique.rebuild(&self.nodes, UNIQUE_INITIAL_SLOTS);
        for (index, [l0, l1, h0, h1]) in dependent {
            let high = self.mk(lower, l1, h1);
            debug_assert!(
                !high.is_complemented(),
                "swap must not produce a complemented high edge"
            );
            let low = self.mk(lower, l0, h0);
            debug_assert_ne!(low, high, "a dependent node cannot collapse");
            let node = &mut self.nodes[index as usize];
            node.low = low;
            node.high = high;
        }
    }

    /// Compacts the arena to exactly the nodes reachable from protected
    /// roots, renumbering in child-first (topological) order.
    ///
    /// This is the restore-invariants half of a level swap: unlike
    /// [`Bdd::gc`]'s in-index-order compaction (which *relies* on the
    /// child-first invariant), this walk is an explicit iterative
    /// postorder DFS from the roots, so it is correct on the mixed-order
    /// arena a swap leaves behind. The unique table is rebuilt, the ITE
    /// cache invalidated, roots renumbered tag-faithfully, and the
    /// per-level index recounted. Does **not** touch [`GcStats`] — it is
    /// reordering plumbing, not a collection.
    ///
    /// Like `gc`, this drops everything unreachable from the root
    /// registry and renumbers every [`NodeRef`].
    fn compact_topological(&mut self) {
        debug_assert!(
            self.ite_frames.is_empty() && self.ite_results.is_empty(),
            "compaction during an ITE walk"
        );
        let old_len = self.nodes.len();
        let mut remap: Vec<u32> = vec![EMPTY; old_len];
        remap[0] = 0;
        let mut compacted: Vec<BddNode> = Vec::with_capacity(old_len);
        compacted.push(self.nodes[0]);
        let mut stack: Vec<(u32, bool)> = self
            .roots
            .iter()
            .flatten()
            .map(|root| (root.index() as u32, false))
            .collect();
        while let Some((index, expanded)) = stack.pop() {
            if remap[index as usize] != EMPTY {
                continue;
            }
            let node = self.nodes[index as usize];
            if expanded {
                remap[index as usize] = compacted.len() as u32;
                compacted.push(BddNode {
                    level: node.level,
                    low: NodeRef(remap[node.low.index()]).complement_if(node.low.is_complemented()),
                    high: NodeRef(remap[node.high.index()]),
                });
            } else {
                stack.push((index, true));
                for child in [node.low, node.high] {
                    if remap[child.index()] == EMPTY {
                        stack.push((child.index() as u32, false));
                    }
                }
            }
        }
        self.nodes = compacted;
        self.unique.rebuild(&self.nodes, UNIQUE_INITIAL_SLOTS);
        self.ite_cache.clear();
        for slot in self.roots.iter_mut().flatten() {
            let renumbered = remap[slot.index()];
            debug_assert_ne!(renumbered, EMPTY, "protected root lost in compaction");
            *slot = NodeRef(renumbered).complement_if(slot.is_complemented());
        }
        self.recount_levels();
    }

    /// One swap of the variables at positions `upper_pos` and
    /// `upper_pos + 1`, immediately compacted so the arena is live-only,
    /// sweep-safe and exactly measurable, with the position bookkeeping
    /// updated.
    fn swap_positions(&mut self, upper_pos: usize, var_at: &mut [Level], new_level: &mut [Level]) {
        self.swap_adjacent(upper_pos as Level);
        self.compact_topological();
        var_at.swap(upper_pos, upper_pos + 1);
        new_level[var_at[upper_pos] as usize] = upper_pos as Level;
        new_level[var_at[upper_pos + 1] as usize] = (upper_pos + 1) as Level;
    }

    /// Rudell sifting within ordering groups: moves each variable through
    /// every position of its group's contiguous window via adjacent-level
    /// swaps, keeps the position minimizing the live arena, and abandons a
    /// sweep direction early once the arena exceeds the growth-abort
    /// factor (`SIFT_GROWTH_ABORT` = 1.2×) of the variable's best size.
    /// Variables are
    /// processed in descending order of node population (the populous
    /// levels have the most to gain). Group boundaries are **never
    /// crossed** — with defenses in group 0 and attacks in group 1 (the
    /// same convention as [`crate::force_order`]) a defense-first order
    /// stays defense-first.
    ///
    /// `groups[p]` is the group of *position* `p`; it must have one entry
    /// per variable and be non-decreasing (groups are contiguous windows).
    /// Within-group swaps never move a variable across a boundary, so the
    /// position→group map is invariant throughout the pass.
    ///
    /// Like [`Bdd::gc`], this begins by dropping everything not reachable
    /// from a protected root and **renumbers every [`NodeRef`]** — re-read
    /// roots through [`Bdd::resolve`] afterwards. The returned
    /// [`SiftOutcome::new_level`] tells callers how to remap their
    /// level-indexed bookkeeping (assignments, attribute tables); the
    /// analysis layer's `DefenseFirstOrder::permuted` consumes it.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len() != var_count` or `groups` is not
    /// non-decreasing.
    pub fn sift(&mut self, groups: &[u32]) -> SiftOutcome {
        assert_eq!(
            groups.len(),
            self.var_count,
            "one group per variable required"
        );
        assert!(
            groups.windows(2).all(|w| w[0] <= w[1]),
            "groups must be contiguous (non-decreasing by position)"
        );
        self.compact_topological();
        let live_before = self.nodes.len();
        let var_count = self.var_count;
        let mut swaps = 0usize;

        // Group window [group_lo[p], group_hi[p]] of every position —
        // computed once; within-group swaps keep the map invariant.
        let mut group_lo = vec![0usize; var_count];
        let mut group_hi = vec![0usize; var_count];
        if var_count > 0 {
            let mut start = 0usize;
            for (p, lo) in group_lo.iter_mut().enumerate() {
                if groups[p] != groups[start] {
                    start = p;
                }
                *lo = start;
            }
            let mut end = var_count - 1;
            for (p, hi) in group_hi.iter_mut().enumerate().rev() {
                if groups[p] != groups[end] {
                    end = p;
                }
                *hi = end;
            }
        }

        // var_at[p] = original level of the variable now at position p;
        // new_level is its inverse (what the outcome reports).
        let mut var_at: Vec<Level> = (0..var_count as Level).collect();
        let mut new_level: Vec<Level> = (0..var_count as Level).collect();

        // Rudell's processing order: descending node population at pass
        // start.
        let mut by_population: Vec<Level> = (0..var_count as Level).collect();
        by_population.sort_by_key(|&v| std::cmp::Reverse(self.level_node_count(v)));

        for &variable in &by_population {
            let start = new_level[variable as usize] as usize;
            if self.level_node_count(start as Level) == 0 {
                continue;
            }
            let (lo, hi) = (group_lo[start], group_hi[start]);
            if lo == hi {
                continue;
            }
            let mut cur = start;
            let mut best_size = self.nodes.len();
            let mut best_pos = cur;
            // Downward sweep to the bottom of the window…
            while cur < hi {
                self.swap_positions(cur, &mut var_at, &mut new_level);
                swaps += 1;
                cur += 1;
                let size = self.nodes.len();
                if size < best_size {
                    best_size = size;
                    best_pos = cur;
                }
                if size as f64 > SIFT_GROWTH_ABORT * best_size as f64 {
                    break;
                }
            }
            // …then upward through the start position to the top…
            while cur > lo {
                self.swap_positions(cur - 1, &mut var_at, &mut new_level);
                swaps += 1;
                cur -= 1;
                let size = self.nodes.len();
                if size < best_size {
                    best_size = size;
                    best_pos = cur;
                }
                if size as f64 > SIFT_GROWTH_ABORT * best_size as f64 {
                    break;
                }
            }
            // …and settle at the best position seen.
            while cur < best_pos {
                self.swap_positions(cur, &mut var_at, &mut new_level);
                swaps += 1;
                cur += 1;
            }
            while cur > best_pos {
                self.swap_positions(cur - 1, &mut var_at, &mut new_level);
                swaps += 1;
                cur -= 1;
            }
        }

        #[cfg(debug_assertions)]
        if let Err(message) = self.check_all_invariants() {
            panic!("kernel invariant violated after sift: {message}");
        }
        SiftOutcome {
            new_level,
            live_before,
            live_after: self.nodes.len(),
            swaps,
        }
    }

    /// The automatic-reordering trigger: runs [`Bdd::sift`] when the
    /// **live** node count has reached the configured
    /// [`Bdd::set_reorder_threshold`].
    ///
    /// With the threshold at its `usize::MAX` default this is a no-op
    /// returning `None` — the arena is not touched. Otherwise the arena
    /// is first compacted to live nodes (garbage must not trigger a
    /// reorder — [`Bdd::maybe_gc`]'s job is cheaper); if the live count
    /// is still below the threshold, `None` is returned, but **refs have
    /// been renumbered** — resolve roots again. The engine calls this
    /// between compile and propagate, when exactly the current query's
    /// root is protected, which makes the decision (and the learned
    /// order) a pure function of the query — cache-key safe.
    pub fn maybe_reorder(&mut self, groups: &[u32]) -> Option<SiftOutcome> {
        if self.reorder_threshold == usize::MAX {
            return None;
        }
        self.compact_topological();
        if self.nodes.len() < self.reorder_threshold {
            return None;
        }
        Some(self.sift(groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks that a BDD equals an expression on every
    /// assignment of `n` variables.
    fn assert_equals_expr(bdd: &Bdd, f: NodeRef, expr: &Bexpr, n: usize) {
        for mask in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            assert_eq!(
                bdd.eval(f, &assignment),
                expr.eval(&assignment),
                "mismatch at {assignment:?}"
            );
        }
    }

    #[test]
    fn terminals_behave_as_constants() {
        let bdd = Bdd::new(2);
        assert!(bdd.eval(Bdd::TRUE, &[false, false]));
        assert!(!bdd.eval(Bdd::FALSE, &[true, true]));
        assert_eq!(bdd.constant(true), Bdd::TRUE);
        assert_eq!(bdd.constant(false), Bdd::FALSE);
        assert!(Bdd::TRUE.is_terminal() && Bdd::FALSE.is_terminal());
        // One terminal node, two polarities of it.
        assert_eq!(bdd.total_nodes(), 1);
        assert_eq!(Bdd::FALSE, Bdd::TRUE.complement());
        assert!(Bdd::FALSE.is_complemented() && !Bdd::TRUE.is_complemented());
    }

    #[test]
    fn var_projects_its_level() {
        let mut bdd = Bdd::new(3);
        let v1 = bdd.var(1);
        assert!(bdd.eval(v1, &[false, true, false]));
        assert!(!bdd.eval(v1, &[true, false, true]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        Bdd::new(2).var(2);
    }

    #[test]
    fn hash_consing_gives_canonical_refs() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f1 = bdd.and(a, b);
        let f2 = bdd.and(b, a);
        assert_eq!(f1, f2, "AND is commutative, so the ROBDDs must coincide");
        let n = bdd.not(f1);
        let nn = bdd.not(n);
        assert_eq!(nn, f1, "double negation restores the same ref");
    }

    #[test]
    fn negation_is_constant_time_and_allocation_free() {
        let mut bdd = Bdd::new(4);
        let expr = Bexpr::or([
            Bexpr::and([Bexpr::var(0), Bexpr::var(1)]),
            Bexpr::and([Bexpr::var(2), Bexpr::not(Bexpr::var(3))]),
        ]);
        let f = bdd.build(&expr);
        let arena = bdd.total_nodes();
        let mut cur = f;
        for _ in 0..10_000 {
            cur = bdd.not(cur);
            cur = bdd.not(cur);
        }
        assert_eq!(cur, f);
        assert_eq!(bdd.total_nodes(), arena, "not must never grow the arena");
        let nf = bdd.not(f);
        assert_eq!(
            nf.index(),
            f.index(),
            "a function shares its complement's node"
        );
        assert_ne!(nf, f);
        assert_equals_expr(&bdd, nf, &Bexpr::not(expr), 4);
    }

    #[test]
    fn complement_pairs_share_all_nodes() {
        // Parity over n variables: the tag-free kernel needs two nodes per
        // level (even/odd), complement edges need one.
        let n = 10;
        let mut bdd = Bdd::new(n);
        let mut f = Bdd::FALSE;
        for level in 0..n as Level {
            let v = bdd.var(level);
            f = bdd.xor(f, v);
        }
        assert_eq!(bdd.node_count(f), n + 1, "one node per level + terminal");
        let nf = bdd.not(f);
        assert_eq!(bdd.node_count(nf), bdd.node_count(f));
        assert_eq!(bdd.sat_count(f) + bdd.sat_count(nf), 1 << n);
    }

    #[test]
    fn all_binary_ops_match_truth_tables() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        type Case = (NodeRef, fn(bool, bool) -> bool);
        let cases: Vec<Case> = vec![
            (bdd.and(a, b), |x, y| x && y),
            (bdd.or(a, b), |x, y| x || y),
            (bdd.xor(a, b), |x, y| x ^ y),
            (bdd.and_not(a, b), |x, y| x && !y),
        ];
        for (f, op) in cases {
            for mask in 0u32..4 {
                let x = mask & 1 == 1;
                let y = mask & 2 == 2;
                assert_eq!(bdd.eval(f, &[x, y]), op(x, y));
            }
        }
    }

    #[test]
    fn build_matches_eval_exhaustively() {
        let n = 4;
        let expr = Bexpr::or([
            Bexpr::and([Bexpr::var(0), Bexpr::not(Bexpr::var(2))]),
            Bexpr::and([Bexpr::var(1), Bexpr::var(3)]),
            Bexpr::not(Bexpr::var(0)),
        ]);
        let mut bdd = Bdd::new(n);
        let f = bdd.build(&expr);
        assert_equals_expr(&bdd, f, &expr, n);
        bdd.check_invariants(f).unwrap();
    }

    #[test]
    fn ite_matches_definition_exhaustively() {
        let mut bdd = Bdd::new(3);
        let f = bdd.var(0);
        let g = bdd.var(1);
        let h = bdd.var(2);
        let ite = bdd.ite(f, g, h);
        for mask in 0u32..8 {
            let a: Vec<bool> = (0..3).map(|i| mask >> i & 1 == 1).collect();
            assert_eq!(bdd.eval(ite, &a), if a[0] { a[1] } else { a[2] });
        }
    }

    #[test]
    fn ite_on_tagged_operands_matches_definition() {
        // Every combination of complemented operands must still satisfy
        // the ITE truth table — the normalization juggles all three tags.
        let mut bdd = Bdd::new(3);
        let vars = [bdd.var(0), bdd.var(1), bdd.var(2)];
        for tags in 0u32..8 {
            let f = vars[0].complement_if(tags & 1 == 1);
            let g = vars[1].complement_if(tags & 2 == 2);
            let h = vars[2].complement_if(tags & 4 == 4);
            let ite = bdd.ite(f, g, h);
            bdd.check_invariants(ite).unwrap();
            for mask in 0u32..8 {
                let a: Vec<bool> = (0..3).map(|i| mask >> i & 1 == 1).collect();
                let (fa, ga, ha) = (
                    a[0] ^ (tags & 1 == 1),
                    a[1] ^ (tags & 2 == 2),
                    a[2] ^ (tags & 4 == 4),
                );
                assert_eq!(
                    bdd.eval(ite, &a),
                    if fa { ga } else { ha },
                    "tags {tags:#b}"
                );
            }
        }
    }

    #[test]
    fn ite_complement_dual_shares_the_cache_and_the_nodes() {
        let mut bdd = Bdd::new(4);
        let f = bdd.var(0);
        let g = bdd.build(&Bexpr::and([Bexpr::var(1), Bexpr::var(2)]));
        let h = bdd.var(3);
        let direct = bdd.ite(f, g, h);
        let arena = bdd.total_nodes();
        // ¬ite(f, ¬g, ¬h) = ite(f, g, h): the dual normalizes to the same
        // standard triple, so no new nodes appear.
        let dual = bdd.ite(f, g.complement(), h.complement());
        assert_eq!(dual.complement(), direct);
        assert_eq!(bdd.total_nodes(), arena, "dual must reuse every node");
    }

    #[test]
    fn sat_count_of_standard_functions() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let and3 = bdd.and(a, b);
        let and3 = bdd.and(and3, c);
        assert_eq!(bdd.sat_count(and3), 1);
        let nand3 = bdd.not(and3);
        assert_eq!(bdd.sat_count(nand3), 7);
        let or3 = bdd.or(a, b);
        let or3 = bdd.or(or3, c);
        assert_eq!(bdd.sat_count(or3), 7);
        assert_eq!(bdd.sat_count(Bdd::TRUE), 8);
        assert_eq!(bdd.sat_count(Bdd::FALSE), 0);
        // A single variable is satisfied by half the assignments, and so
        // is its complement.
        assert_eq!(bdd.sat_count(b), 4);
        assert_eq!(bdd.sat_count(b.complement()), 4);
    }

    #[test]
    fn restrict_fixes_one_variable() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        assert_eq!(bdd.restrict(f, 0, true), b);
        assert_eq!(bdd.restrict(f, 0, false), Bdd::FALSE);
        assert_eq!(bdd.restrict(f, 1, true), a);
        // Restricting a variable outside the support is the identity.
        let g = bdd.restrict(b, 0, true);
        assert_eq!(g, b);
        // Restriction commutes with complement.
        let nf = bdd.not(f);
        let r = bdd.restrict(nf, 0, true);
        assert_eq!(r, b.complement());
    }

    #[test]
    fn support_lists_only_relevant_levels() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let c = bdd.var(2);
        let f = bdd.or(a, c);
        assert_eq!(bdd.support(f), vec![0, 2]);
        let nf = bdd.not(f);
        assert_eq!(bdd.support(nf), vec![0, 2]);
        assert!(bdd.support(Bdd::TRUE).is_empty());
    }

    #[test]
    fn node_count_counts_reachable_nodes() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        // Nodes: x0, x1, and the single terminal.
        assert_eq!(bdd.node_count(f), 3);
        assert_eq!(bdd.node_count(Bdd::TRUE), 1);
        assert_eq!(bdd.node_count(Bdd::FALSE), 1);
        let nf = bdd.not(f);
        assert_eq!(bdd.node_count(nf), 3, "complement shares nodes");
    }

    #[test]
    fn reachable_topological_lists_both_polarities() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.xor(a, b);
        let reachable = bdd.reachable_topological(f);
        // Children precede parents, and the xor node reaches x1 under both
        // polarities plus both terminal polarities.
        for (pos, &w) in reachable.iter().enumerate() {
            if w.is_terminal() {
                continue;
            }
            for child in [bdd.low(w), bdd.high(w)] {
                assert!(
                    reachable[..pos].contains(&child),
                    "cofactor {child:?} must precede {w:?}"
                );
            }
        }
        assert!(reachable.contains(&Bdd::TRUE) && reachable.contains(&Bdd::FALSE));
        assert_eq!(reachable.last(), Some(&f));
        assert_eq!(bdd.reachable_topological(Bdd::FALSE), vec![Bdd::FALSE]);
    }

    #[test]
    fn paths_enumerate_ways_to_reach_terminal() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.or(a, b);
        let to_one = bdd.paths(f, true);
        // x0=1 (skipping x1), or x0=0 ∧ x1=1.
        assert_eq!(to_one.len(), 2);
        assert!(to_one.contains(&vec![(0, true)]));
        assert!(to_one.contains(&vec![(0, false), (1, true)]));
        let to_zero = bdd.paths(f, false);
        assert_eq!(to_zero, vec![vec![(0, false), (1, false)]]);
        // The complement swaps the terminals path-for-path.
        let nf = bdd.not(f);
        assert_eq!(bdd.paths(nf, false), to_one);
        assert_eq!(bdd.paths(nf, true), to_zero);
    }

    #[test]
    fn dot_output_mentions_every_node() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.xor(a, b);
        let dot = bdd.to_dot(f, |l| format!("x{l}"));
        assert!(dot.starts_with("digraph bdd {"));
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("shape=square"));
        // Complemented edges carry the classic dot marker; a complemented
        // root puts it on the entry arrow.
        let nf = bdd.not(f);
        let ndot = bdd.to_dot(nf, |l| format!("x{l}"));
        assert!(ndot.contains("root -> ") && ndot.contains("arrowhead=odot"));
    }

    #[test]
    fn invariant_checker_accepts_built_functions() {
        let mut bdd = Bdd::new(5);
        let expr = Bexpr::or([
            Bexpr::inhibit(Bexpr::var(3), Bexpr::var(0)),
            Bexpr::inhibit(Bexpr::var(4), Bexpr::var(1)),
            Bexpr::var(2),
        ]);
        let f = bdd.build(&expr);
        bdd.check_invariants(f).unwrap();
        assert_equals_expr(&bdd, f, &expr, 5);
    }

    #[test]
    fn sat_count_handles_root_level_gap() {
        let mut bdd = Bdd::new(4);
        // Function over level 3 only: the three levels above are free.
        let d = bdd.var(3);
        assert_eq!(bdd.sat_count(d), 8);
        assert_eq!(bdd.sat_count(d.complement()), 8);
    }

    #[test]
    fn build_short_circuits_constants() {
        let mut bdd = Bdd::new(1);
        let f = bdd.build(&Bexpr::and([Bexpr::Const(false), Bexpr::var(0)]));
        assert_eq!(f, Bdd::FALSE);
        let g = bdd.build(&Bexpr::or([Bexpr::Const(true), Bexpr::var(0)]));
        assert_eq!(g, Bdd::TRUE);
    }

    #[test]
    fn unique_table_survives_many_growth_rounds() {
        // Force many distinct nodes through the table so it grows
        // repeatedly, then verify hash consing still deduplicates. (With
        // complement edges, parity is one node per level — the pre-tag
        // kernel's two-per-level is exactly what the tags eliminate — so
        // the growth pressure comes from pairwise products too.)
        let n = 14;
        let mut bdd = Bdd::new(n);
        let vars: Vec<NodeRef> = (0..n as Level).map(|l| bdd.var(l)).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                bdd.and(vars[i], vars[j]);
                bdd.or(vars[i], vars[j]);
            }
        }
        let mut f = Bdd::FALSE;
        for &v in &vars {
            f = bdd.xor(f, v);
        }
        assert_eq!(bdd.node_count(f), n + 1, "parity is one node per level");
        let mut g = Bdd::FALSE;
        for &v in &vars {
            g = bdd.xor(g, v);
        }
        assert_eq!(f, g, "rebuilding must hit the unique table, not copy");
        bdd.check_invariants(f).unwrap();
        assert_eq!(bdd.sat_count(f), 1 << (n - 1));
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // A conjunction over thousands of levels produces a diagram whose
        // depth equals the variable count; the iterative walks must handle
        // it without recursing.
        let n: usize = 50_000;
        let mut bdd = Bdd::new(n);
        let mut f = Bdd::TRUE;
        for level in (0..n as Level).rev() {
            let v = bdd.var(level);
            f = bdd.and(v, f);
        }
        assert_eq!(bdd.sat_count(f), 1);
        let g = bdd.restrict(f, 0, true);
        assert_eq!(bdd.level(g), 1);
        let mut h = Bdd::TRUE;
        for level in (1..n as Level).rev() {
            let v = bdd.var(level);
            h = bdd.and(v, h);
        }
        assert_eq!(g, h);
        // An ITE over two deep operands exercises the explicit work stack:
        // x0 ? (x0 ∧ rest) : rest collapses to rest, leaving x0 free.
        let x = bdd.var(0);
        let deep_ite = bdd.ite(x, f, h);
        assert_eq!(deep_ite, h);
        assert_eq!(bdd.sat_count(deep_ite), 2);
        // Path enumeration is iterative too: the single 50 000-edge path
        // to `1` must come back without recursing.
        let to_one = bdd.paths(f, true);
        assert_eq!(to_one.len(), 1);
        assert_eq!(to_one[0].len(), n);
        assert!(to_one[0].iter().all(|&(_, v)| v));
    }

    #[test]
    fn sat_count_panics_instead_of_wrapping() {
        // 130 free variables push the count of a single projection to
        // 2^129 > u128::MAX; that must be a loud failure, not a wrap.
        let mut bdd = Bdd::new(130);
        let v = bdd.var(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bdd.sat_count(v)));
        assert!(result.is_err(), "overflowing count must panic");
        // The TRUE terminal over ≥128 variables overflows the same way.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bdd.sat_count(Bdd::TRUE)));
        assert!(result.is_err(), "2^130 does not fit in u128");
        // But a sparse function whose count fits is still exact — and so
        // is its complement's failure mode (2^130 - 1 does not fit).
        let mut chain = Bdd::TRUE;
        for level in (0..130).rev() {
            let var = bdd.var(level);
            chain = bdd.and(var, chain);
        }
        assert_eq!(bdd.sat_count(chain), 1);
        let nc = bdd.not(chain);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bdd.sat_count(nc)));
        assert!(result.is_err(), "2^130 - 1 does not fit in u128");
    }

    #[test]
    fn gc_reclaims_garbage_and_keeps_protected_roots() {
        let n = 8;
        let mut bdd = Bdd::new(n);
        let vars: Vec<NodeRef> = (0..n as Level).map(|l| bdd.var(l)).collect();
        // The function to keep: a parity over the first four variables.
        let mut keep = Bdd::FALSE;
        for &v in &vars[..4] {
            keep = bdd.xor(keep, v);
        }
        let truth: Vec<bool> = (0u32..1 << n)
            .map(|mask| {
                let a: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                bdd.eval(keep, &a)
            })
            .collect();
        let live_before = bdd.node_count(keep);
        let handle = bdd.protect(keep);
        // Garbage: a pile of unrelated conjunction chains.
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    bdd.and(vars[i], vars[j]);
                }
            }
        }
        let arena_before = bdd.total_nodes();
        let freed = bdd.gc();
        assert!(freed > 0, "garbage must be reclaimed");
        assert_eq!(bdd.total_nodes(), arena_before - freed);
        let keep = bdd.resolve(handle);
        // Live set = the kept function's nodes (terminal included),
        // nothing else.
        assert_eq!(bdd.total_nodes(), live_before);
        assert_eq!(bdd.node_count(keep), live_before);
        bdd.check_invariants(keep).unwrap();
        for (mask, &expected) in truth.iter().enumerate() {
            let a: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            assert_eq!(bdd.eval(keep, &a), expected, "semantics changed at {a:?}");
        }
        bdd.unprotect(handle);
        bdd.gc();
        assert_eq!(bdd.total_nodes(), 1, "only the terminal survives rootless");
    }

    #[test]
    fn gc_preserves_root_tags() {
        // Protect a *complemented* root; the resolved ref must stay
        // complemented (and semantically the negation) across collections.
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let nf = bdd.not(f);
        assert!(nf.is_complemented());
        let handle = bdd.protect(nf);
        for l in 2..4 {
            let v = bdd.var(l);
            bdd.or(f, v); // garbage
        }
        bdd.gc();
        let nf = bdd.resolve(handle);
        assert!(nf.is_complemented(), "GC must keep the root's tag");
        assert!(bdd.eval(nf, &[false, true, false, false]));
        assert!(!bdd.eval(nf, &[true, true, false, false]));
        // And the double complement is the (renumbered) plain function.
        let f = bdd.not(nf);
        assert!(!f.is_complemented());
        assert!(bdd.eval(f, &[true, true, false, false]));
    }

    #[test]
    fn gc_rebuilt_unique_table_still_hash_conses() {
        let n = 6;
        let mut bdd = Bdd::new(n);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let keep = bdd.xor(a, b);
        let handle = bdd.protect(keep);
        for l in 2..n as Level {
            let v = bdd.var(l);
            bdd.or(keep, v); // garbage
        }
        bdd.gc();
        let keep = bdd.resolve(handle);
        // Rebuilding the same function must *find* the surviving nodes via
        // the rebuilt table, not duplicate them.
        let a = bdd.var(0);
        let b = bdd.var(1);
        let again = bdd.xor(a, b);
        assert_eq!(again, keep, "post-GC unique table lost canonicity");
        bdd.check_invariants(keep).unwrap();
    }

    #[test]
    fn gc_threshold_drives_maybe_gc_and_stats() {
        let mut bdd = Bdd::new(10);
        assert_eq!(bdd.gc_threshold(), usize::MAX);
        assert!(!bdd.maybe_gc(), "default threshold never auto-collects");
        bdd.set_gc_threshold(8);
        let vars: Vec<NodeRef> = (0..10).map(|l| bdd.var(l)).collect();
        let mut acc = Bdd::FALSE;
        for &v in &vars {
            acc = bdd.or(acc, v);
        }
        assert!(bdd.total_nodes() >= 8);
        let peak = bdd.total_nodes();
        assert!(bdd.maybe_gc(), "arena crossed the threshold");
        assert_eq!(bdd.total_nodes(), 1, "nothing was protected");
        assert!(!bdd.maybe_gc(), "arena is back under the threshold");
        let stats = bdd.gc_stats();
        assert_eq!(stats.collections, 1);
        assert_eq!(stats.last_live, 1);
        assert_eq!(stats.nodes_freed, peak - 1);
        assert_eq!(stats.peak_at_gc, peak);
        assert_eq!(bdd.peak_arena(), peak);
    }

    #[test]
    fn root_handle_slots_are_reused() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ha = bdd.protect(a);
        let hb = bdd.protect(b);
        assert_ne!(ha, hb);
        assert_eq!(bdd.protected_count(), 2);
        bdd.unprotect(ha);
        let c = bdd.var(2);
        let hc = bdd.protect(c);
        assert_eq!(hc, ha, "freed slot is recycled");
        assert_eq!(bdd.resolve(hc), c);
        assert_eq!(bdd.resolve(hb), b);
        assert_eq!(bdd.protected_count(), 2);
    }

    #[test]
    #[should_panic(expected = "unprotected twice")]
    fn double_unprotect_panics() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let h = bdd.protect(a);
        bdd.unprotect(h);
        bdd.unprotect(h);
    }

    #[test]
    fn gc_is_idempotent_and_ops_work_after_it() {
        let mut bdd = Bdd::new(6);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let h = bdd.protect(f);
        bdd.gc();
        let live = bdd.total_nodes();
        assert_eq!(bdd.gc(), 0, "second GC has nothing to free");
        assert_eq!(bdd.total_nodes(), live);
        // The invalidated ITE cache must not poison post-GC operations.
        let f = bdd.resolve(h);
        let c = bdd.var(2);
        let g = bdd.or(f, c);
        assert!(bdd.eval(g, &[true, true, false, false, false, false]));
        assert!(bdd.eval(g, &[false, false, true, false, false, false]));
        assert!(!bdd.eval(g, &[true, false, false, false, false, false]));
        bdd.check_invariants(g).unwrap();
        // sat_count's topological sweep relies on the preserved
        // child-before-parent order.
        assert_eq!(bdd.sat_count(f), 16);
    }

    #[test]
    fn ensure_var_count_only_grows() {
        let mut bdd = Bdd::new(2);
        bdd.ensure_var_count(5);
        assert_eq!(bdd.var_count(), 5);
        bdd.ensure_var_count(3);
        assert_eq!(bdd.var_count(), 5);
        let v = bdd.var(4);
        assert!(bdd.eval(v, &[false, false, false, false, true]));
    }

    #[test]
    fn lossy_cache_never_affects_results() {
        // Build enough distinct functions that the direct-mapped cache
        // keeps evicting, then re-check canonicity of an early function.
        let n = 10;
        let mut bdd = Bdd::new(n);
        let vars: Vec<NodeRef> = (0..n as Level).map(|l| bdd.var(l)).collect();
        let first = bdd.and(vars[0], vars[1]);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let f = bdd.and(vars[i], vars[j]);
                    let g = bdd.or(vars[i], vars[j]);
                    bdd.xor(f, g);
                }
            }
        }
        let again = bdd.and(vars[0], vars[1]);
        assert_eq!(first, again);
        bdd.check_invariants(again).unwrap();
    }

    /// The classic sifting testbed: Σ xᵢ·x₍ₙ/₂₊ᵢ₎ under the interleaving
    /// order that forces exponential width. Pairing the factors back up is
    /// exactly what adjacent-level swaps must discover.
    fn disjoint_products(bdd: &mut Bdd, pairs: usize) -> (NodeRef, Bexpr) {
        let mut f = Bdd::FALSE;
        let mut terms = Vec::new();
        for i in 0..pairs as Level {
            let a = bdd.var(i);
            let b = bdd.var(i + pairs as Level);
            let t = bdd.and(a, b);
            f = bdd.or(f, t);
            terms.push(Bexpr::and([Bexpr::var(i), Bexpr::var(i + pairs as Level)]));
        }
        (f, Bexpr::or(terms))
    }

    /// Evaluates a sifted diagram on an assignment expressed in the
    /// *original* levels, remapping through the outcome's permutation.
    fn eval_sifted(bdd: &Bdd, f: NodeRef, outcome: &SiftOutcome, original: &[bool]) -> bool {
        let mut permuted = vec![false; original.len()];
        for (old, &value) in original.iter().enumerate() {
            permuted[outcome.new_level[old] as usize] = value;
        }
        bdd.eval(f, &permuted)
    }

    #[test]
    fn sift_shrinks_the_interleaved_products_and_preserves_the_function() {
        let n = 8;
        let mut bdd = Bdd::new(n);
        let (f, expr) = disjoint_products(&mut bdd, n / 2);
        let h = bdd.protect(f);
        let outcome = bdd.sift(&vec![0u32; n]);
        let f = bdd.resolve(h);
        assert!(
            outcome.live_after < outcome.live_before,
            "sifting must shrink the interleaved order ({} -> {})",
            outcome.live_before,
            outcome.live_after
        );
        assert!(outcome.swaps > 0);
        // The permutation is a bijection on levels.
        let mut seen = outcome.new_level.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..n as Level).collect::<Vec<_>>());
        for mask in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            assert_eq!(
                eval_sifted(&bdd, f, &outcome, &assignment),
                expr.eval(&assignment),
                "sift changed the function on {assignment:?}"
            );
        }
        bdd.check_all_invariants().unwrap();
        // A second pass starts from the improved order and cannot grow.
        let second = bdd.sift(&vec![0u32; n]);
        assert!(second.live_after <= second.live_before);
        assert_eq!(second.live_before, outcome.live_after);
    }

    #[test]
    fn sift_never_crosses_group_boundaries() {
        let n = 8;
        let mut bdd = Bdd::new(n);
        let (f, expr) = disjoint_products(&mut bdd, n / 2);
        // Split the interleaved pairs across a hard boundary: levels 0..4
        // in group 0, 4..8 in group 1 — every product would love to cross.
        let groups = [0u32, 0, 0, 0, 1, 1, 1, 1];
        let h = bdd.protect(f);
        let outcome = bdd.sift(&groups);
        let f = bdd.resolve(h);
        for old in 0..n {
            assert_eq!(
                groups[outcome.new_level[old] as usize], groups[old],
                "variable at level {old} crossed its group boundary"
            );
        }
        for mask in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            assert_eq!(
                eval_sifted(&bdd, f, &outcome, &assignment),
                expr.eval(&assignment)
            );
        }
        bdd.check_all_invariants().unwrap();
        bdd.unprotect(h);
    }

    #[test]
    fn sift_keeps_complemented_roots_tag_faithful() {
        let mut bdd = Bdd::new(6);
        let (f, expr) = disjoint_products(&mut bdd, 3);
        let nf = bdd.not(f);
        let h = bdd.protect(nf);
        let outcome = bdd.sift(&[0; 6]);
        let nf = bdd.resolve(h);
        assert!(nf.is_complemented());
        for mask in 0u32..(1 << 6) {
            let assignment: Vec<bool> = (0..6).map(|i| mask >> i & 1 == 1).collect();
            assert_eq!(
                eval_sifted(&bdd, nf, &outcome, &assignment),
                !expr.eval(&assignment)
            );
        }
    }

    #[test]
    fn sift_drops_unprotected_garbage_like_gc() {
        let mut bdd = Bdd::new(6);
        let (f, _) = disjoint_products(&mut bdd, 3);
        let keep = bdd.var(0);
        let h = bdd.protect(keep);
        let _ = f; // unprotected: the pass must sweep it
        let outcome = bdd.sift(&[0; 6]);
        assert_eq!(outcome.live_after, 2, "terminal + the one protected var");
        assert_eq!(bdd.total_nodes(), 2);
        let keep = bdd.resolve(h);
        assert!(bdd.eval(keep, &[true, false, false, false, false, false]));
    }

    #[test]
    fn maybe_reorder_is_inert_by_default() {
        let mut bdd = Bdd::new(6);
        let (f, _) = disjoint_products(&mut bdd, 3);
        let _h = bdd.protect(f);
        let before = bdd.total_nodes();
        assert_eq!(bdd.reorder_threshold(), usize::MAX);
        assert!(bdd.maybe_reorder(&[0; 6]).is_none());
        assert_eq!(
            bdd.total_nodes(),
            before,
            "inert maybe_reorder must not even compact"
        );
        assert_eq!(bdd.resolve(_h), f, "refs must survive an inert call");
    }

    #[test]
    fn maybe_reorder_fires_on_live_nodes_not_garbage() {
        let mut bdd = Bdd::new(6);
        let (f, _) = disjoint_products(&mut bdd, 3);
        let keep = bdd.var(0);
        let h = bdd.protect(keep);
        let _ = f;
        // Arena is fat with garbage, but only 2 nodes are live: below the
        // threshold, so the call compacts and declines to sift.
        bdd.set_reorder_threshold(4);
        assert!(bdd.maybe_reorder(&[0; 6]).is_none());
        assert_eq!(bdd.total_nodes(), 2, "the decline still compacted");
        bdd.unprotect(h);
        // Now protect a genuinely large function: the pass fires.
        let (f, _) = disjoint_products(&mut bdd, 3);
        let h = bdd.protect(f);
        let outcome = bdd
            .maybe_reorder(&[0; 6])
            .expect("live count over threshold");
        assert!(outcome.live_before >= 4);
        bdd.unprotect(h);
    }

    #[test]
    fn level_counts_track_the_arena() {
        let mut bdd = Bdd::new(4);
        assert_eq!(bdd.level_node_count(0), 0);
        let a = bdd.var(0);
        let b = bdd.var(1);
        assert_eq!(bdd.level_node_count(0), 1);
        assert_eq!(bdd.level_node_count(1), 1);
        let f = bdd.and(a, b);
        assert_eq!(
            bdd.level_node_count(0),
            2,
            "the conjunction adds a level-0 node"
        );
        let h = bdd.protect(f);
        bdd.gc();
        assert_eq!(
            bdd.level_node_count(0) + bdd.level_node_count(1),
            bdd.total_nodes() - 1,
            "recount after GC must cover exactly the live nonterminals"
        );
        assert_eq!(bdd.level_node_count(3), 0);
        bdd.unprotect(h);
    }

    #[test]
    fn check_all_invariants_accepts_every_green_manager() {
        let mut bdd = Bdd::new(6);
        let (f, _) = disjoint_products(&mut bdd, 3);
        bdd.check_all_invariants().unwrap();
        let h = bdd.protect(f);
        bdd.gc();
        bdd.check_all_invariants().unwrap();
        bdd.sift(&[0; 6]);
        bdd.check_all_invariants().unwrap();
        bdd.unprotect(h);
    }
}
