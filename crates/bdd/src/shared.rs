//! The concurrent shared-manager kernel: one node arena, one unique
//! table, one operation cache — safe to grow from many threads at once.
//!
//! The sequential [`Bdd`] manager is strictly single-threaded: `mk` and
//! `ite` take `&mut self`, so one large query can never use more than one
//! core no matter how many workers the pool above it runs. This module is
//! the Sylvan-style answer (Van Dijk & Van de Pol, *Sylvan: multi-core
//! framework for decision diagrams*), rebuilt under this crate's
//! `#![forbid(unsafe_code)]` rule:
//!
//! * a **segmented append-only arena** — doubling segments of
//!   `OnceLock<BddNode>` slots behind an atomic bump allocator, so node
//!   publication is a Release store (the `OnceLock` set) and every read an
//!   Acquire load, with no locks on the read path and no relocation ever
//!   (a published index stays valid for the arena's lifetime);
//! * a **lock-striped unique table** — the open-addressed index table is
//!   split into [`SHARD_COUNT`] independently locked shards addressed by
//!   the high bits of the triple hash; a shard grows tombstone-free by
//!   local rebuild exactly like the sequential table, and two threads
//!   racing to create the same triple serialize on the same shard lock, so
//!   hash-consing canonicity (including the no-complemented-high rule,
//!   enforced before the probe) is preserved;
//! * a **lossy seqlock operation cache** — fixed-capacity entries of three
//!   `AtomicU64`s (stamp, key, value) written under an odd/even stamp
//!   protocol; a torn or lost write is detected by the stamp recheck and
//!   degrades to a recompute, never to a wrong result;
//! * a **work-stealing task team** ([`Team`]) — persistent workers with
//!   one deque each (owner pushes and pops at the back, thieves steal
//!   from the front), no external dependencies, patterned on the scoped
//!   thread pool of `adt-bench`;
//! * **parallel ITE by cache warming** ([`SharedBdd::ite_par`]) — below a
//!   team-size-derived depth cutoff each step forks its two cofactor
//!   subproblems as stealable tasks; tasks *warm the shared cache* rather
//!   than return values, and a final sequential pass composes the result
//!   out of cache hits. Duplicated work between racing tasks is wasted
//!   time only — every `mk` still lands in the one shared unique table.
//!
//! [`BddManager::with_threads`] selects between kernels: one thread is
//! the plain sequential [`Bdd`] (zero new code on that path — today's
//! single-thread latency untouched), more than one is a [`SharedBdd`]
//! plus a [`Team`]. GC and sifting are *not* offered by the shared
//! kernel in this first cut: the intended lifecycle is
//! compile-propagate-drop per query behind the engine's quiescence
//! barrier (`Team::run` returns only when every task has drained), with
//! the long-lived sequential manager keeping its GC/sift machinery. See
//! `docs/PARALLEL.md` for the full memory-ordering argument.

use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::manager::{hash_triple, Bdd, BddNode, BddRead, NodeRef, EMPTY, TAG, TERMINAL_LEVEL};
use crate::Level;

/// log2 of the first arena segment's slot count.
const SEG0_BITS: u32 = 12;

/// Number of doubling segments: `2^12 · (2^20 − 1)` slots comfortably
/// covers the 31-bit index ceiling shared with the sequential kernel.
const SEGMENTS: usize = 20;

/// Number of unique-table shards (power of two). Sixty-four stripes keep
/// the probability of two of at most a few dozen threads colliding on one
/// lock small, at 64 mutexes of overhead per manager.
const SHARD_COUNT: usize = 64;

/// Initial slot count of each shard (power of two) — the same headroom
/// rule as the sequential table, per stripe.
const SHARD_INITIAL_SLOTS: usize = 64;

/// log2 of the operation-cache entry count. The cache is fixed-size (no
/// concurrent growth): 2^16 entries × 24 bytes = 1.5 MiB per manager,
/// sized for the compile-and-drop lifecycle of a parallel query.
const CACHE_BITS: u32 = 16;

/// Operands smaller than this many reachable nodes (all three operands
/// combined) are not worth forking: the sequential ITE finishes faster
/// than the team can schedule a task.
const SPLIT_MIN_NODES: usize = 600;

/// Extra forking depth beyond `log2(threads)`: with cutoff
/// `log2(threads) + SPLIT_DEPTH_SLACK` the decomposition produces about
/// `2^slack` tasks per thread, enough slack for stealing to balance
/// uneven cofactor sizes without flooding the deques.
const SPLIT_DEPTH_SLACK: u32 = 3;

// ---------------------------------------------------------------------
// Segmented arena
// ---------------------------------------------------------------------

/// The append-only concurrent node arena.
///
/// Indices are handed out by an atomic bump counter; the slot behind an
/// index is written exactly once via `OnceLock::set` (a Release store of
/// the initialized flag) and read via `OnceLock::get` (an Acquire load).
/// Any thread that learns an index through a synchronizing channel — a
/// shard mutex, the cache's stamp Release/Acquire pair, or a task-queue
/// mutex — therefore observes the fully written node.
struct Arena {
    segments: [OnceLock<Box<[OnceLock<BddNode>]>>; SEGMENTS],
    /// Next free index; also the published node count *upper bound* (an
    /// index may be claimed but not yet written mid-`mk`).
    len: AtomicU32,
}

impl Arena {
    fn new() -> Self {
        let arena = Arena {
            segments: [const { OnceLock::new() }; SEGMENTS],
            len: AtomicU32::new(0),
        };
        // Index 0 is the single terminal node, as in the sequential
        // arena; published before the arena is shared.
        let index = arena.len.fetch_add(1, Ordering::Relaxed);
        debug_assert_eq!(index, 0);
        arena.set(
            0,
            BddNode {
                level: TERMINAL_LEVEL,
                low: Bdd::TRUE,
                high: Bdd::TRUE,
            },
        );
        arena
    }

    /// Maps an index to `(segment, offset)`. Segment `k` holds
    /// `2^SEG0_BITS << k` slots, so the segment of index `i` is
    /// `log2(i / 2^SEG0_BITS + 1)`.
    #[inline]
    fn locate(index: u32) -> (usize, usize) {
        let q = (index >> SEG0_BITS) + 1;
        let k = 31 - q.leading_zeros();
        let base = ((1u32 << k) - 1) << SEG0_BITS;
        (k as usize, (index - base) as usize)
    }

    #[inline]
    fn get(&self, index: u32) -> BddNode {
        let (k, offset) = Self::locate(index);
        *self.segments[k]
            .get()
            .expect("arena segment published before use")[offset]
            .get()
            .expect("arena node published before use")
    }

    fn set(&self, index: u32, node: BddNode) {
        let (k, offset) = Self::locate(index);
        let segment = self.segments[k].get_or_init(|| {
            (0..(1usize << SEG0_BITS) << k)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        segment[offset]
            .set(node)
            .expect("arena slot written exactly once");
    }
}

// ---------------------------------------------------------------------
// Lock-striped unique table
// ---------------------------------------------------------------------

/// One stripe of the unique table: the same open-addressed, tombstone-free
/// `u32` index array as the sequential [`Bdd`]'s table, guarded by its own
/// mutex. The stripe is selected by the *high* bits of the triple hash and
/// slots by the low bits, so the two selections stay uncorrelated.
struct Shard {
    slots: Vec<u32>,
    len: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            slots: vec![EMPTY; SHARD_INITIAL_SLOTS],
            len: 0,
        }
    }

    /// Doubles this stripe's slot array, reinserting its own entries only
    /// — growth is per-shard and tombstone-free, exactly the sequential
    /// `rebuild` scoped to one stripe. Node triples are read back from the
    /// arena (indices in this shard were published under this lock, so
    /// their nodes are visible).
    #[cold]
    fn grow(&mut self, arena: &Arena) {
        let old = std::mem::take(&mut self.slots);
        let target = (old.len() * 2).max(SHARD_INITIAL_SLOTS);
        debug_assert!(target.is_power_of_two());
        let mask = target - 1;
        let mut slots = vec![EMPTY; target];
        for &index in old.iter().filter(|&&s| s != EMPTY) {
            let node = arena.get(index);
            let mut i = hash_triple(node.level, node.low.raw(), node.high.raw()) as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = index;
        }
        self.slots = slots;
    }
}

// ---------------------------------------------------------------------
// Seqlock operation cache
// ---------------------------------------------------------------------

/// One entry of the concurrent ITE cache: a seqlock stamp plus the
/// quadruple packed into two `u64`s (`f`/`g` are untagged 31-bit values
/// by standard-triple normalization; `h` and `result` may carry the tag
/// bit, still well inside 32 bits).
struct CacheEntry {
    /// 0 = never written; odd = write in progress; even ≥ 2 = valid.
    stamp: AtomicU64,
    /// `f << 32 | g`.
    key: AtomicU64,
    /// `h << 32 | result`.
    value: AtomicU64,
}

/// The fixed-capacity lossy concurrent ITE cache.
///
/// Writers claim an entry by bumping its stamp to odd with a CAS; a
/// failed CAS (another writer got there first) simply drops the insert.
/// Readers validate the stamp before and after the data loads. A lost or
/// skipped write costs one recomputation of a result the unique table
/// will deduplicate anyway — never an incorrect hit, because a hit
/// requires a stable even stamp *and* an exact key match.
struct SharedIteCache {
    entries: Box<[CacheEntry]>,
}

impl SharedIteCache {
    fn new() -> Self {
        SharedIteCache {
            entries: (0..1usize << CACHE_BITS)
                .map(|_| CacheEntry {
                    stamp: AtomicU64::new(0),
                    key: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Same slot mixer as the sequential cache: [`hash_triple`] with `h`
    /// in the scalar position, high bits selecting the slot.
    #[inline]
    fn slot(&self, f: NodeRef, g: NodeRef, h: NodeRef) -> usize {
        (hash_triple(h.raw(), f.raw(), g.raw()) >> 32) as usize & (self.entries.len() - 1)
    }

    fn get(&self, f: NodeRef, g: NodeRef, h: NodeRef) -> Option<NodeRef> {
        let entry = &self.entries[self.slot(f, g, h)];
        // Acquire pairs with the writer's Release stamp store: if we see
        // stamp `s` (even, nonzero), we see the data written before it.
        let s1 = entry.stamp.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 != 0 {
            return None;
        }
        let key = entry.key.load(Ordering::Relaxed);
        let value = entry.value.load(Ordering::Relaxed);
        // The fence orders the data loads before the validating stamp
        // re-read; an intervening writer would have bumped the stamp.
        fence(Ordering::Acquire);
        if entry.stamp.load(Ordering::Relaxed) != s1 {
            return None;
        }
        let expect = (u64::from(f.raw()) << 32) | u64::from(g.raw());
        if key != expect || (value >> 32) as u32 != h.raw() {
            return None;
        }
        Some(NodeRef::from_raw(value as u32))
    }

    fn insert(&self, f: NodeRef, g: NodeRef, h: NodeRef, result: NodeRef) {
        let entry = &self.entries[self.slot(f, g, h)];
        let s = entry.stamp.load(Ordering::Relaxed);
        if s & 1 != 0 {
            return; // a writer is mid-flight: lossy skip
        }
        // Claim the entry (odd stamp); a failed claim means we lost the
        // race and the insert is dropped (lossy by design).
        if entry
            .stamp
            .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // Release fence: orders the odd-stamp claim above before the
        // Relaxed data stores below. It pairs with the reader's Acquire
        // fence in `get` — a reader whose data loads observe either store
        // below is guaranteed, after its fence, to observe the odd stamp
        // on its validating re-read and reject the entry. Without this
        // fence a weakly-ordered CPU may let a reader see the new key
        // while both of its stamp loads return the stale even stamp,
        // validating a torn key/value mix as a hit.
        fence(Ordering::Release);
        entry.key.store(
            (u64::from(f.raw()) << 32) | u64::from(g.raw()),
            Ordering::Relaxed,
        );
        entry.value.store(
            (u64::from(h.raw()) << 32) | u64::from(result.raw()),
            Ordering::Relaxed,
        );
        // Release publishes the data together with the new even stamp.
        entry.stamp.store(s + 2, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// SharedBdd
// ---------------------------------------------------------------------

struct SharedState {
    arena: Arena,
    shards: Box<[Mutex<Shard>]>,
    cache: SharedIteCache,
    var_count: AtomicUsize,
}

/// A concurrent ROBDD manager with complement edges: the shared-memory
/// sibling of [`Bdd`].
///
/// Cloning is cheap (an `Arc` bump) and every clone addresses the same
/// arena, unique table and operation cache, so any number of threads may
/// call [`SharedBdd::ite`] / [`SharedBdd::apply_and`] / … on clones
/// concurrently; equal functions receive equal [`NodeRef`]s across all of
/// them. The diagram it builds is the same canonical ROBDD the sequential
/// kernel builds (same reduction rules, same complement-edge canonicity),
/// so value-level results — evaluations, Pareto fronts — are identical;
/// only arena *indices* may differ with thread interleaving.
///
/// Not offered (by design, see the module docs): garbage collection and
/// dynamic reordering. Shared managers live for one query and are
/// dropped whole.
///
/// # Examples
///
/// ```
/// use adt_bdd::SharedBdd;
///
/// let bdd = SharedBdd::new(2);
/// let (a, b) = (bdd.var(0), bdd.var(1));
/// let f = bdd.apply_and(a, b);
/// assert!(bdd.eval(f, &[true, true]));
/// assert!(!bdd.eval(f, &[true, false]));
/// ```
#[derive(Clone)]
pub struct SharedBdd {
    state: Arc<SharedState>,
}

impl std::fmt::Debug for SharedBdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBdd")
            .field("total_nodes", &self.total_nodes())
            .field("var_count", &self.var_count())
            .finish()
    }
}

impl SharedBdd {
    /// Creates a shared manager for functions over `var_count` variables.
    pub fn new(var_count: usize) -> Self {
        SharedBdd {
            state: Arc::new(SharedState {
                arena: Arena::new(),
                shards: (0..SHARD_COUNT)
                    .map(|_| Mutex::new(Shard::new()))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
                cache: SharedIteCache::new(),
                var_count: AtomicUsize::new(var_count),
            }),
        }
    }

    /// Number of variables of this manager.
    pub fn var_count(&self) -> usize {
        self.state.var_count.load(Ordering::Relaxed)
    }

    /// Raises the variable count to at least `var_count` (never shrinks).
    pub fn ensure_var_count(&self, var_count: usize) {
        self.state.var_count.fetch_max(var_count, Ordering::Relaxed);
    }

    /// Upper bound on the number of nodes created so far (exact at
    /// quiescence — i.e. with no `mk` in flight).
    pub fn total_nodes(&self) -> usize {
        self.state.arena.len.load(Ordering::Acquire) as usize
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> NodeRef {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// The projection function of the variable at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= var_count`.
    pub fn var(&self, level: Level) -> NodeRef {
        assert!(
            (level as usize) < self.var_count(),
            "variable level {level} out of range for {} variables",
            self.var_count()
        );
        self.mk(level, Bdd::FALSE, Bdd::TRUE)
    }

    /// The branching level of a ref's node ([`Level::MAX`] for terminals).
    pub fn level(&self, f: NodeRef) -> Level {
        self.node(f).level
    }

    /// The low (`0`-labeled) cofactor of a nonterminal function (function
    /// semantics: the complement tag propagates, as in [`Bdd::low`]).
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn low(&self, f: NodeRef) -> NodeRef {
        assert!(!f.is_terminal(), "terminals have no children");
        self.node(f).low.complement_if(f.is_complemented())
    }

    /// The high (`1`-labeled) cofactor of a nonterminal function.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn high(&self, f: NodeRef) -> NodeRef {
        assert!(!f.is_terminal(), "terminals have no children");
        self.node(f).high.complement_if(f.is_complemented())
    }

    #[inline]
    fn node(&self, f: NodeRef) -> BddNode {
        self.state.arena.get(f.index() as u32)
    }

    /// Hash-consing constructor — the concurrent [`Bdd::mk`]: pushes a
    /// complemented high edge onto the low edge and the returned ref, so
    /// the stored high is always plain (the same canonicity rule, decided
    /// *before* the shard probe and therefore identical under any thread
    /// interleaving).
    fn mk(&self, level: Level, low: NodeRef, high: NodeRef) -> NodeRef {
        if low == high {
            return low;
        }
        if high.is_complemented() {
            return self
                .mk_raw(level, low.complement(), high.complement())
                .complement();
        }
        self.mk_raw(level, low, high)
    }

    fn mk_raw(&self, level: Level, low: NodeRef, high: NodeRef) -> NodeRef {
        debug_assert!(!high.is_complemented(), "canonicity: high edge is plain");
        let hash = hash_triple(level, low.raw(), high.raw());
        // High bits pick the stripe, low bits the slot: uncorrelated
        // selections from one mix.
        let shard_index = (hash >> 58) as usize & (SHARD_COUNT - 1);
        let mut shard = self.state.shards[shard_index]
            .lock()
            .expect("unique-table shard lock poisoned");
        if shard.len * 2 >= shard.slots.len() {
            shard.grow(&self.state.arena);
        }
        let mask = shard.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = shard.slots[i];
            if slot == EMPTY {
                // Claim an index, publish the node (Release via the
                // OnceLock set), then make it findable. Another thread
                // creating the same triple is blocked on this shard's
                // lock until both steps are done.
                let index = self.state.arena.len.fetch_add(1, Ordering::Relaxed);
                assert!(
                    (index as usize) < (TAG as usize) - 1,
                    "node arena exhausted the 31-bit index space"
                );
                self.state.arena.set(index, BddNode { level, low, high });
                shard.slots[i] = index;
                shard.len += 1;
                return NodeRef::from_raw(index);
            }
            let node = self.state.arena.get(slot);
            if node.level == level && node.low == low && node.high == high {
                return NodeRef::from_raw(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// If-then-else on the shared manager: the sequential [`Bdd::ite`]
    /// algorithm (same shortcuts, same standard-triple normalization,
    /// same explicit work stack) against the concurrent tables, with the
    /// stacks local to the call so any number of threads can run it at
    /// once.
    pub fn ite(&self, f: NodeRef, g: NodeRef, h: NodeRef) -> NodeRef {
        if let Some(r) = Bdd::ite_shortcut(f, g, h) {
            return r;
        }
        enum Frame {
            Expand(NodeRef, NodeRef, NodeRef),
            Reduce(Level, NodeRef, NodeRef, NodeRef, bool),
        }
        let mut frames = vec![Frame::Expand(f, g, h)];
        let mut results: Vec<NodeRef> = Vec::new();
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Expand(mut f, mut g, mut h) => {
                    if let Some(r) = Bdd::ite_shortcut(f, g, h) {
                        results.push(r);
                        continue;
                    }
                    let negate = Bdd::ite_normalize(&mut f, &mut g, &mut h);
                    if let Some(r) = Bdd::ite_shortcut(f, g, h) {
                        results.push(r.complement_if(negate));
                        continue;
                    }
                    if let Some(r) = self.state.cache.get(f, g, h) {
                        results.push(r.complement_if(negate));
                        continue;
                    }
                    let nf = self.node(f);
                    let ng = self.node(g);
                    let nh = self.node(h);
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
                    frames.push(Frame::Reduce(level, f, g, h, negate));
                    frames.push(Frame::Expand(f1, g1, h1));
                    frames.push(Frame::Expand(f0, g0, h0));
                }
                Frame::Reduce(level, f, g, h, negate) => {
                    let high = results.pop().expect("high cofactor result");
                    let low = results.pop().expect("low cofactor result");
                    let r = self.mk(level, low, high);
                    self.state.cache.insert(f, g, h, r);
                    results.push(r.complement_if(negate));
                }
            }
        }
        results.pop().expect("root result")
    }

    /// Conjunction (`ite(f, g, 0)`).
    pub fn apply_and(&self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction (`ite(f, 1, g)`).
    pub fn apply_or(&self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Negation — O(1), a tag flip, as in the sequential kernel.
    pub fn apply_not(&self, f: NodeRef) -> NodeRef {
        f.complement()
    }

    /// Exclusive or (`ite(f, ¬g, g)`).
    pub fn apply_xor(&self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g.complement(), g)
    }

    /// `f ∧ ¬g` — the inhibition clause, one ITE over shared nodes.
    pub fn apply_and_not(&self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.apply_and(f, g.complement())
    }

    /// Parallel if-then-else: decomposes the call over `team` below a
    /// depth cutoff, warming the shared operation cache, then composes
    /// the result sequentially out of cache hits.
    ///
    /// Falls back to the sequential [`SharedBdd::ite`] when the team has
    /// a single participant, when the combined operands are too small to
    /// amortize task overhead, or when called from *inside* a team task
    /// (nested parallel regions would self-deadlock on the completion
    /// barrier; the no-nesting rule is documented in `docs/PARALLEL.md`).
    pub fn ite_par(&self, team: &Team, f: NodeRef, g: NodeRef, h: NodeRef) -> NodeRef {
        if team.threads() < 2 || in_team_task() || !self.exceeds(f, g, h, SPLIT_MIN_NODES) {
            return self.ite(f, g, h);
        }
        let cutoff = team.threads().ilog2() + SPLIT_DEPTH_SLACK;
        let bdd = self.clone();
        team.run(vec![Box::new(move |ctx| {
            warm(&bdd, ctx, f, g, h, 0, cutoff);
        })]);
        // All warm tasks have drained (quiescence barrier): the top of
        // the call tree now composes from cache hits.
        self.ite(f, g, h)
    }

    /// Parallel conjunction over a team.
    pub fn and_par(&self, team: &Team, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite_par(team, f, g, Bdd::FALSE)
    }

    /// Parallel disjunction over a team.
    pub fn or_par(&self, team: &Team, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite_par(team, f, Bdd::TRUE, g)
    }

    /// Parallel `f ∧ ¬g` over a team.
    pub fn and_not_par(&self, team: &Team, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite_par(team, f, g.complement(), Bdd::FALSE)
    }

    /// `true` if the diagrams of `f`, `g`, `h` together exceed `cap`
    /// distinct nodes (early-exits at the cap, so the cost is bounded by
    /// the cap, not the diagram).
    fn exceeds(&self, f: NodeRef, g: NodeRef, h: NodeRef, cap: usize) -> bool {
        let mut seen: HashSet<u32> = HashSet::with_capacity(cap.min(1024));
        let mut stack: Vec<u32> = Vec::new();
        for r in [f, g, h] {
            if !r.is_terminal() {
                stack.push(r.index() as u32);
            }
        }
        while let Some(index) = stack.pop() {
            if !seen.insert(index) {
                continue;
            }
            if seen.len() >= cap {
                return true;
            }
            let node = self.state.arena.get(index);
            for child in [node.low, node.high] {
                if !child.is_terminal() {
                    stack.push(child.index() as u32);
                }
            }
        }
        false
    }

    /// Evaluates `f` under a full assignment (index = level).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < var_count`.
    pub fn eval(&self, f: NodeRef, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.var_count(),
            "assignment covers {} of {} variables",
            assignment.len(),
            self.var_count()
        );
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.node(cur);
            let child = if assignment[node.level as usize] {
                node.high
            } else {
                node.low
            };
            cur = child.complement_if(cur.is_complemented());
        }
        cur == Bdd::TRUE
    }

    /// Number of distinct arena nodes reachable from `f`, the terminal
    /// included (polarity-blind, as [`Bdd::node_count`]).
    pub fn node_count(&self, f: NodeRef) -> usize {
        if f.is_terminal() {
            return 1;
        }
        let mut seen: HashSet<u32> = HashSet::new();
        let mut stack = vec![f.index() as u32];
        while let Some(index) = stack.pop() {
            if index == 0 || !seen.insert(index) {
                continue;
            }
            let node = self.state.arena.get(index);
            stack.push(node.low.index() as u32);
            stack.push(node.high.index() as u32);
        }
        seen.len() + 1
    }

    /// Checks the kernel invariants over every node created so far:
    /// plain high edges, no redundant (equal-children) nodes, strictly
    /// child-before-parent indices, and pairwise-distinct triples.
    ///
    /// Only meaningful at quiescence (no `mk` in flight); the stress
    /// tests call it after joining their threads.
    pub fn check_invariants_quiescent(&self) -> Result<(), String> {
        let len = self.total_nodes() as u32;
        let mut triples: HashSet<(Level, u32, u32)> = HashSet::new();
        for index in 1..len {
            let node = self.state.arena.get(index);
            if node.high.is_complemented() {
                return Err(format!("node {index}: complemented high edge"));
            }
            if node.low == node.high {
                return Err(format!("node {index}: redundant equal-children node"));
            }
            for child in [node.low, node.high] {
                if child.index() as u32 >= index {
                    return Err(format!(
                        "node {index}: child index {} not below parent",
                        child.index()
                    ));
                }
            }
            if !triples.insert((node.level, node.low.raw(), node.high.raw())) {
                return Err(format!("node {index}: duplicate triple in the arena"));
            }
        }
        Ok(())
    }
}

impl BddRead for SharedBdd {
    fn level(&self, f: NodeRef) -> Level {
        SharedBdd::level(self, f)
    }

    fn low(&self, f: NodeRef) -> NodeRef {
        SharedBdd::low(self, f)
    }

    fn high(&self, f: NodeRef) -> NodeRef {
        SharedBdd::high(self, f)
    }
}

/// One cache-warming step of the parallel ITE decomposition: normalize,
/// bail on shortcut or cache hit, fork the high cofactor as a stealable
/// task and descend into the low one; at the depth cutoff, compute the
/// whole subproblem sequentially (the result lands in the shared cache).
fn warm(
    bdd: &SharedBdd,
    ctx: &TeamCtx<'_>,
    mut f: NodeRef,
    mut g: NodeRef,
    mut h: NodeRef,
    mut depth: u32,
    cutoff: u32,
) {
    loop {
        if Bdd::ite_shortcut(f, g, h).is_some() {
            return;
        }
        Bdd::ite_normalize(&mut f, &mut g, &mut h);
        if Bdd::ite_shortcut(f, g, h).is_some() || bdd.state.cache.get(f, g, h).is_some() {
            return;
        }
        if depth >= cutoff {
            bdd.ite(f, g, h);
            return;
        }
        let nf = bdd.node(f);
        let ng = bdd.node(g);
        let nh = bdd.node(h);
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
        let child = bdd.clone();
        let d = depth + 1;
        ctx.spawn(Box::new(move |ctx2| {
            warm(&child, ctx2, f1, g1, h1, d, cutoff);
        }));
        (f, g, h) = (f0, g0, h0);
        depth += 1;
    }
}

// ---------------------------------------------------------------------
// Work-stealing team
// ---------------------------------------------------------------------

/// A unit of team work. Tasks warm shared state (the BDD tables or a
/// result slot owned by the submitter) rather than return values.
pub type TeamTask = Box<dyn FnOnce(&TeamCtx<'_>) + Send + 'static>;

thread_local! {
    /// `true` while the current thread executes a team task — the guard
    /// behind the no-nested-parallel-regions rule.
    static IN_TEAM_TASK: Cell<bool> = const { Cell::new(false) };
}

/// `true` while the calling thread is executing a [`Team`] task.
///
/// [`SharedBdd::ite_par`] and the analysis layer consult this to fall
/// back to sequential execution inside tasks: a nested [`Team::run`]
/// would wait on a completion barrier that counts the very task it is
/// called from, a self-deadlock.
pub fn in_team_task() -> bool {
    IN_TEAM_TASK.with(Cell::get)
}

struct TeamState {
    /// One deque per participant (workers first, the submitting thread
    /// last): owners push/pop at the back, thieves steal from the front.
    queues: Vec<Mutex<VecDeque<TeamTask>>>,
    /// Tasks submitted but not yet finished (spawns inside tasks count).
    pending: AtomicUsize,
    /// Wakeup generation; bumped (under the lock) whenever work arrives,
    /// the pending count hits zero, or shutdown begins.
    gate: Mutex<u64>,
    signal: Condvar,
    shutdown: AtomicBool,
    /// First panic payload caught from a task, re-raised on the
    /// submitting thread when [`Team::run`] reaches the barrier. Tasks
    /// are caught (never unwound through a worker loop) so a panicking
    /// task can neither kill a worker thread nor silently shrink the
    /// team.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl TeamState {
    fn bump(&self) {
        let mut generation = self.gate.lock().expect("team gate poisoned");
        *generation += 1;
        drop(generation);
        self.signal.notify_all();
    }

    /// Pops from `me`'s own queue (back) or steals from another queue
    /// (front).
    fn find_task(&self, me: usize) -> Option<TeamTask> {
        if let Some(task) = self.queues[me]
            .lock()
            .expect("team queue poisoned")
            .pop_back()
        {
            return Some(task);
        }
        let n = self.queues.len();
        for step in 1..n {
            let victim = (me + step) % n;
            if let Some(task) = self.queues[victim]
                .lock()
                .expect("team queue poisoned")
                .pop_front()
            {
                return Some(task);
            }
        }
        None
    }

    fn any_queued(&self) -> bool {
        self.queues
            .iter()
            .any(|q| !q.lock().expect("team queue poisoned").is_empty())
    }

    fn execute(&self, task: TeamTask, me: usize) {
        /// Restores the task flag and retires the task even on unwind,
        /// so a panicking task cannot wedge the completion barrier.
        struct Retire<'a> {
            state: &'a TeamState,
            was_in_task: bool,
        }
        impl Drop for Retire<'_> {
            fn drop(&mut self) {
                IN_TEAM_TASK.with(|flag| flag.set(self.was_in_task));
                if self.state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.state.bump();
                }
            }
        }
        let _retire = Retire {
            state: self,
            was_in_task: IN_TEAM_TASK.with(|flag| flag.replace(true)),
        };
        // Catch the unwind so a panicking task cannot kill a worker
        // thread (permanently shrinking the team) or escape mid-drain;
        // the first payload is stashed and re-raised by `Team::run` at
        // the barrier. `AssertUnwindSafe` is sound: the task is consumed
        // either way, and the shared structures it touches are lock- or
        // seqlock-guarded (a poisoned queue Mutex would surface as its
        // own panic at the next lock).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            task(&TeamCtx { state: self, me });
        }));
        if let Err(payload) = result {
            let mut slot = self.panic.lock().expect("team panic slot poisoned");
            slot.get_or_insert(payload);
        }
    }
}

/// The spawning context passed to every running task.
pub struct TeamCtx<'a> {
    state: &'a TeamState,
    me: usize,
}

impl TeamCtx<'_> {
    /// Submits a subtask to the current participant's own deque (LIFO
    /// for the owner, stealable FIFO for everyone else).
    pub fn spawn(&self, task: TeamTask) {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        self.state.queues[self.me]
            .lock()
            .expect("team queue poisoned")
            .push_back(task);
        self.state.bump();
    }
}

/// A persistent work-stealing thread team.
///
/// `Team::new(n)` spawns `n − 1` worker threads; the thread that calls
/// [`Team::run`] is the `n`-th participant, stealing alongside the
/// workers until every task (including tasks spawned by tasks) has
/// finished — `run` returning *is* the quiescence barrier the shared
/// kernel's stop-the-world operations rely on. Workers park on a condvar
/// between runs, so an idle team costs nothing.
pub struct Team {
    state: Arc<TeamState>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Team {
    /// Creates a team of `threads` participants (min 1): `threads − 1`
    /// parked worker threads plus the caller of [`Team::run`].
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(TeamState {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            gate: Mutex::new(0),
            signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let workers = (0..threads.saturating_sub(1))
            .map(|me| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("adt-bdd-team-{me}"))
                    .spawn(move || worker_loop(&state, me))
                    .expect("spawn team worker")
            })
            .collect();
        Team {
            state,
            workers,
            threads,
        }
    }

    /// Number of participants (workers plus the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `tasks` (and everything they spawn) to completion, with the
    /// calling thread participating in the stealing loop. Returns once
    /// the pending count drains to zero — the quiescence barrier.
    ///
    /// # Panics
    ///
    /// If any task panicked, the first caught payload is re-raised here
    /// (on the submitting thread) after the drain completes. Worker
    /// threads themselves survive task panics, so the team stays at full
    /// strength for subsequent runs.
    pub fn run(&self, tasks: Vec<TeamTask>) {
        if tasks.is_empty() {
            return;
        }
        let state = &self.state;
        let me = self.threads - 1; // the submitter's own deque
        state.pending.fetch_add(tasks.len(), Ordering::AcqRel);
        for task in tasks {
            state.queues[me]
                .lock()
                .expect("team queue poisoned")
                .push_back(task);
        }
        state.bump();
        loop {
            if state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            if let Some(task) = state.find_task(me) {
                state.execute(task, me);
                continue;
            }
            // Nothing to steal but tasks are still running elsewhere:
            // park until the generation moves (new work or drain).
            let mut generation = state.gate.lock().expect("team gate poisoned");
            if state.pending.load(Ordering::Acquire) == 0 || state.any_queued() {
                continue;
            }
            let seen = *generation;
            while *generation == seen && state.pending.load(Ordering::Acquire) != 0 {
                generation = state.signal.wait(generation).expect("team gate poisoned");
            }
        }
        let payload = state.panic.lock().expect("team panic slot poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.bump();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(state: &TeamState, me: usize) {
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = state.find_task(me) {
            state.execute(task, me);
            continue;
        }
        let mut generation = state.gate.lock().expect("team gate poisoned");
        // Recheck under the gate lock: a submitter bumps the generation
        // under this lock after pushing, so either we see its task in
        // the queues now or we see a generation the wait will notice.
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        if state.any_queued() {
            continue;
        }
        let seen = *generation;
        while *generation == seen && !state.shutdown.load(Ordering::Acquire) {
            generation = state.signal.wait(generation).expect("team gate poisoned");
        }
    }
}

// ---------------------------------------------------------------------
// BddManager: the mode switch
// ---------------------------------------------------------------------

/// The kernel mode switch: one thread is the plain sequential [`Bdd`]
/// (today's fast path, byte-for-byte), more than one is a [`SharedBdd`]
/// driven through a work-stealing [`Team`].
///
/// The facade exposes the operation set both kernels share; sequential
/// extras (GC, sifting, SAT counting, …) stay on [`Bdd`], reachable via
/// [`BddManager::as_sequential`].
///
/// # Examples
///
/// ```
/// use adt_bdd::BddManager;
///
/// let mut mgr = BddManager::with_threads(2, 1); // sequential mode
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.and(a, b);
/// assert!(mgr.eval(f, &[true, true]));
/// assert_eq!(mgr.threads(), 1);
/// ```
#[derive(Debug)]
pub enum BddManager {
    /// The unsharded single-thread kernel.
    Sequential(Box<Bdd>),
    /// The concurrent kernel plus its thread team.
    Shared {
        /// The shared-table manager.
        bdd: SharedBdd,
        /// The work-stealing team driving parallel operations.
        team: Team,
    },
}

impl BddManager {
    /// Creates a manager over `var_count` variables using `threads`
    /// kernel threads (`threads <= 1` selects the sequential kernel).
    pub fn with_threads(var_count: usize, threads: usize) -> Self {
        if threads <= 1 {
            BddManager::Sequential(Box::new(Bdd::new(var_count)))
        } else {
            BddManager::Shared {
                bdd: SharedBdd::new(var_count),
                team: Team::new(threads),
            }
        }
    }

    /// Number of kernel threads (1 for the sequential kernel).
    pub fn threads(&self) -> usize {
        match self {
            BddManager::Sequential(_) => 1,
            BddManager::Shared { team, .. } => team.threads(),
        }
    }

    /// The sequential kernel, if that is the active mode.
    pub fn as_sequential(&mut self) -> Option<&mut Bdd> {
        match self {
            BddManager::Sequential(bdd) => Some(bdd),
            BddManager::Shared { .. } => None,
        }
    }

    /// The shared kernel and team, if that is the active mode.
    pub fn as_shared(&self) -> Option<(&SharedBdd, &Team)> {
        match self {
            BddManager::Sequential(_) => None,
            BddManager::Shared { bdd, team } => Some((bdd, team)),
        }
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        match self {
            BddManager::Sequential(bdd) => bdd.var_count(),
            BddManager::Shared { bdd, .. } => bdd.var_count(),
        }
    }

    /// Raises the variable count to at least `var_count`.
    pub fn ensure_var_count(&mut self, var_count: usize) {
        match self {
            BddManager::Sequential(bdd) => bdd.ensure_var_count(var_count),
            BddManager::Shared { bdd, .. } => bdd.ensure_var_count(var_count),
        }
    }

    /// Total nodes created (see [`SharedBdd::total_nodes`] for the
    /// concurrent caveat).
    pub fn total_nodes(&self) -> usize {
        match self {
            BddManager::Sequential(bdd) => bdd.total_nodes(),
            BddManager::Shared { bdd, .. } => bdd.total_nodes(),
        }
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> NodeRef {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// The projection function of the variable at `level`.
    pub fn var(&mut self, level: Level) -> NodeRef {
        match self {
            BddManager::Sequential(bdd) => bdd.var(level),
            BddManager::Shared { bdd, .. } => bdd.var(level),
        }
    }

    /// If-then-else (parallel over the team in shared mode).
    pub fn ite(&mut self, f: NodeRef, g: NodeRef, h: NodeRef) -> NodeRef {
        match self {
            BddManager::Sequential(bdd) => bdd.ite(f, g, h),
            BddManager::Shared { bdd, team } => bdd.ite_par(team, f, g, h),
        }
    }

    /// Conjunction.
    pub fn and(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Negation — O(1) in both modes.
    #[allow(clippy::should_implement_trait)]
    pub fn not(&mut self, f: NodeRef) -> NodeRef {
        f.complement()
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g.complement(), g)
    }

    /// `f ∧ ¬g`.
    pub fn and_not(&mut self, f: NodeRef, g: NodeRef) -> NodeRef {
        self.ite(f, g.complement(), Bdd::FALSE)
    }

    /// Evaluates `f` under a full assignment.
    pub fn eval(&self, f: NodeRef, assignment: &[bool]) -> bool {
        match self {
            BddManager::Sequential(bdd) => bdd.eval(f, assignment),
            BddManager::Shared { bdd, .. } => bdd.eval(f, assignment),
        }
    }
}

impl BddRead for BddManager {
    fn level(&self, f: NodeRef) -> Level {
        match self {
            BddManager::Sequential(bdd) => bdd.level(f),
            BddManager::Shared { bdd, .. } => bdd.level(f),
        }
    }

    fn low(&self, f: NodeRef) -> NodeRef {
        match self {
            BddManager::Sequential(bdd) => bdd.low(f),
            BddManager::Shared { bdd, .. } => bdd.low(f),
        }
    }

    fn high(&self, f: NodeRef) -> NodeRef {
        match self {
            BddManager::Sequential(bdd) => bdd.high(f),
            BddManager::Shared { bdd, .. } => bdd.high(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bexpr;

    /// Builds a `Bexpr` on the shared manager sequentially.
    fn build_shared(bdd: &SharedBdd, expr: &Bexpr) -> NodeRef {
        match expr {
            Bexpr::Const(b) => bdd.constant(*b),
            Bexpr::Var(l) => bdd.var(*l),
            Bexpr::Not(e) => build_shared(bdd, e).complement(),
            Bexpr::And(es) => es.iter().fold(Bdd::TRUE, |acc, e| {
                let f = build_shared(bdd, e);
                bdd.apply_and(acc, f)
            }),
            Bexpr::Or(es) => es.iter().fold(Bdd::FALSE, |acc, e| {
                let f = build_shared(bdd, e);
                bdd.apply_or(acc, f)
            }),
        }
    }

    #[test]
    fn arena_locate_covers_segment_boundaries() {
        assert_eq!(Arena::locate(0), (0, 0));
        assert_eq!(Arena::locate(4095), (0, 4095));
        assert_eq!(Arena::locate(4096), (1, 0));
        assert_eq!(Arena::locate(12287), (1, 8191));
        assert_eq!(Arena::locate(12288), (2, 0));
        assert_eq!(Arena::locate(28672), (3, 0));
    }

    #[test]
    fn shared_ops_match_sequential_truth_tables() {
        let n = 4;
        let exprs = [
            Bexpr::and([Bexpr::var(0), Bexpr::var(1), Bexpr::var(2)]),
            Bexpr::or([
                Bexpr::and([Bexpr::var(0), Bexpr::var(3)]),
                Bexpr::and([Bexpr::var(1), Bexpr::var(2)]),
            ]),
            Bexpr::inhibit(Bexpr::var(0), Bexpr::or([Bexpr::var(1), Bexpr::var(3)])),
        ];
        let shared = SharedBdd::new(n);
        let mut seq = Bdd::new(n);
        for expr in &exprs {
            let fs = build_shared(&shared, expr);
            let fq = seq.build(expr);
            for mask in 0u32..(1 << n) {
                let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                assert_eq!(shared.eval(fs, &assignment), seq.eval(fq, &assignment));
            }
        }
        shared.check_invariants_quiescent().unwrap();
        // Same reduction rules → same canonical diagram size.
        assert_eq!(shared.total_nodes(), seq.total_nodes());
    }

    #[test]
    fn shared_hash_consing_is_canonical() {
        let bdd = SharedBdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f1 = bdd.apply_and(a, b);
        let f2 = bdd.apply_and(b, a);
        assert_eq!(f1, f2);
        let nf = bdd.apply_not(f1);
        assert_eq!(nf, f1.complement());
        assert_eq!(bdd.apply_not(nf), f1);
    }

    #[test]
    fn ite_par_equals_ite_seq() {
        let team = Team::new(4);
        let n = 10u32;
        let bdd = SharedBdd::new(n as usize);
        // An interleaved-order disjunction of conjunctions: wide enough
        // to clear the split threshold.
        let half = n / 2;
        let mut f = Bdd::FALSE;
        for i in 0..half {
            let lo = bdd.var(i);
            let hi = bdd.var(half + i);
            let pair = bdd.apply_and(lo, hi);
            f = bdd.apply_or(f, pair);
        }
        let g = bdd.var(0);
        let seq = bdd.ite(f, g, f.complement());
        let par = bdd.ite_par(&team, f, g, f.complement());
        assert_eq!(seq, par);
        bdd.check_invariants_quiescent().unwrap();
    }

    #[test]
    fn team_runs_spawned_task_trees() {
        let team = Team::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        team.run(vec![Box::new(move |ctx| {
            c.fetch_add(1, Ordering::Relaxed);
            for _ in 0..8 {
                let c2 = Arc::clone(&c);
                ctx.spawn(Box::new(move |ctx2| {
                    c2.fetch_add(1, Ordering::Relaxed);
                    let c3 = Arc::clone(&c2);
                    ctx2.spawn(Box::new(move |_| {
                        c3.fetch_add(1, Ordering::Relaxed);
                    }));
                }));
            }
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 1 + 8 + 8);
        // The team is reusable after a run.
        let c = Arc::clone(&counter);
        team.run(vec![Box::new(move |_| {
            c.fetch_add(10, Ordering::Relaxed);
        })]);
        assert_eq!(counter.load(Ordering::Relaxed), 27);
    }

    #[test]
    fn team_survives_task_panic() {
        let team = Team::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(vec![Box::new(|_| panic!("task boom"))]);
        }));
        // The payload reaches the submitter at the barrier...
        let payload = caught.expect_err("task panic must re-raise at run()");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("task boom"),
            "run() re-raises the task's own payload"
        );
        // ...and the worker thread survives: a panicked run drained its
        // pending count, the team stays at full strength, and later runs
        // (with tasks fanned out to the worker) behave normally.
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TeamTask> = (0..16)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move |_: &TeamCtx<'_>| {
                    c.fetch_add(1, Ordering::Relaxed);
                }) as TeamTask
            })
            .collect();
        team.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn manager_modes_agree() {
        let n = 3;
        for threads in [1, 2] {
            let mut mgr = BddManager::with_threads(n, threads);
            assert_eq!(mgr.threads(), threads);
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let ab = mgr.and(a, b);
            let f = mgr.or(ab, c);
            let g = mgr.and_not(f, b);
            for mask in 0u32..(1 << n) {
                let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                // ((a ∧ b) ∨ c) ∧ ¬b collapses to c ∧ ¬b — which is the
                // point: the kernel must find the same simplification.
                let expect = assignment[2] && !assignment[1];
                assert_eq!(mgr.eval(g, &assignment), expect);
            }
        }
    }

    #[test]
    fn seqlock_cache_rejects_mismatched_keys() {
        let cache = SharedIteCache::new();
        let f = NodeRef::from_raw(5);
        let g = NodeRef::from_raw(3);
        let h = NodeRef::from_raw(2 | TAG);
        assert_eq!(cache.get(f, g, h), None);
        cache.insert(f, g, h, NodeRef::from_raw(7));
        assert_eq!(cache.get(f, g, h), Some(NodeRef::from_raw(7)));
        assert_eq!(cache.get(f, g, h.complement()), None);
    }
}
