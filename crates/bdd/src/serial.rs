//! Manager-independent diagram serialization: export a compiled function
//! as a flat, child-before-parent node list ([`DiagramDump`]), and replay
//! it into any manager with one linear pass of `mk` calls.
//!
//! The dump speaks *storage*, not functions: each [`DumpNode`] is the
//! stored `(level, low, high)` triple of one arena node, with complement
//! tags carried verbatim on the edges (bit 31 of a [`DumpRef`], exactly
//! the in-memory [`NodeRef`] encoding). Because `mk` creates children
//! before parents, ascending arena order is a topological order, so the
//! exported node list needs no sorting and the import loop resolves every
//! child by a plain vector lookup — no recursion, no fixpoint.
//!
//! Import goes through `mk`, not raw arena writes: the target manager
//! re-establishes hash-consing and the no-complemented-high canonicity
//! rule itself, so a dump replayed into a manager that already holds the
//! function (or parts of it) deduplicates against the existing nodes, and
//! a *malformed* dump can at worst build a different function — never an
//! unreduced or aliased arena. Structural validation (children strictly
//! before parents, levels inside the declared variable count) rejects
//! hostile input with `None` before any node is built.

use crate::manager::{Bdd, BddRead, NodeRef};
use crate::Level;

/// An edge of a [`DiagramDump`]: bit 31 is the complement tag; the low 31
/// bits are `0` for the terminal or `1 + local node index` otherwise.
///
/// The `+1` bias keeps the terminal representable without a node entry
/// (the dump stores nonterminals only), mirroring how the arena reserves
/// index 0 for its single terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DumpRef(pub u32);

/// The complement tag of a [`DumpRef`] (bit 31, as in [`NodeRef`]).
const DUMP_TAG: u32 = 1 << 31;

impl DumpRef {
    /// The `1` terminal.
    pub const TRUE: DumpRef = DumpRef(0);
    /// The `0` terminal (the complemented polarity of the terminal).
    pub const FALSE: DumpRef = DumpRef(DUMP_TAG);

    /// An edge to the local node at `index`, plain polarity.
    pub fn node(index: u32) -> DumpRef {
        DumpRef(index + 1)
    }

    /// Whether the edge carries the complement tag.
    pub fn is_complemented(self) -> bool {
        self.0 & DUMP_TAG != 0
    }

    /// The local node index this edge points at, or `None` for the
    /// terminal.
    pub fn local_index(self) -> Option<u32> {
        let biased = self.0 & !DUMP_TAG;
        biased.checked_sub(1)
    }

    /// This edge with the complement tag set iff `complemented`… XOR'd in,
    /// matching [`NodeRef`] complement composition.
    pub fn complement_if(self, complemented: bool) -> DumpRef {
        if complemented {
            DumpRef(self.0 ^ DUMP_TAG)
        } else {
            self
        }
    }
}

/// One stored nonterminal node of a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DumpNode {
    /// The branching level.
    pub level: Level,
    /// The stored low edge (may be complemented).
    pub low: DumpRef,
    /// The stored high edge (plain in every dump this crate exports; a
    /// complemented high in foreign input is re-canonicalized by `mk` on
    /// import).
    pub high: DumpRef,
}

/// A self-contained serialized diagram: the reachable nonterminal nodes in
/// child-before-parent order, plus the root edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagramDump {
    /// Number of variables the diagram's levels index into.
    pub var_count: u32,
    /// Reachable nonterminal nodes; every edge points at the terminal or
    /// at a strictly earlier entry.
    pub nodes: Vec<DumpNode>,
    /// The function's root edge.
    pub root: DumpRef,
}

impl Bdd {
    /// Exports the diagram of `f` as a [`DiagramDump`].
    ///
    /// The node list is the reachable nonterminals in ascending arena
    /// order — a topological order (children strictly before parents) by
    /// the arena's construction invariant — with tags preserved verbatim
    /// on every edge, the root included.
    pub fn export_dump(&self, f: NodeRef) -> DiagramDump {
        // Reachable arena indices, ascending, terminal excluded. The cone
        // lists refs per polarity in walk order; sorting its O(|W|)
        // indices restores arena order, which fixes the dump's bytes.
        let mut indices: Vec<u32> = self
            .cone(f)
            .nodes()
            .iter()
            .filter(|n| !n.node.is_terminal())
            .map(|n| n.node.index() as u32)
            .collect();
        indices.sort_unstable();
        indices.dedup();
        // Arena index -> position in `indices` (dense local index).
        let encode = |edge: NodeRef| -> DumpRef {
            let plain = if edge.is_terminal() {
                DumpRef::TRUE
            } else {
                let arena = edge.index() as u32;
                let local = indices
                    .binary_search(&arena)
                    .expect("every edge target is reachable");
                DumpRef::node(local as u32)
            };
            plain.complement_if(edge.is_complemented())
        };
        let nodes = indices
            .iter()
            .map(|&index| {
                let node = self.node_storage(index as usize);
                DumpNode {
                    level: node.level,
                    low: encode(node.low),
                    high: encode(node.high),
                }
            })
            .collect();
        DiagramDump {
            var_count: self.var_count() as u32,
            nodes,
            root: encode(f),
        }
    }

    /// Replays a dump into this manager: one linear pass of `mk` calls,
    /// children always resolved before their parents.
    ///
    /// The manager's variable count is raised to cover the dump's. Returns
    /// `None` — building nothing beyond already-validated prefixes — when
    /// the dump is structurally malformed: an edge pointing at itself or
    /// forward, a level outside the declared variable count, or a root
    /// edge past the node list.
    pub fn import_dump(&mut self, dump: &DiagramDump) -> Option<NodeRef> {
        self.ensure_var_count(dump.var_count as usize);
        let mut local: Vec<NodeRef> = Vec::with_capacity(dump.nodes.len());
        for (i, node) in dump.nodes.iter().enumerate() {
            if node.level >= dump.var_count {
                return None;
            }
            let low = resolve(node.low, i, &local)?;
            let high = resolve(node.high, i, &local)?;
            local.push(self.mk(node.level, low, high));
        }
        resolve(dump.root, dump.nodes.len(), &local)
    }
}

/// Resolves a dump edge against the already-built prefix `local[..bound]`.
fn resolve(edge: DumpRef, bound: usize, local: &[NodeRef]) -> Option<NodeRef> {
    let plain = match edge.local_index() {
        None => Bdd::TRUE,
        Some(k) => {
            if (k as usize) >= bound {
                return None;
            }
            local[k as usize]
        }
    };
    Some(plain.complement_if(edge.is_complemented()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bexpr;

    fn sample() -> (Bdd, NodeRef) {
        let mut bdd = Bdd::new(4);
        // (x0 ∧ ¬x1) ∨ (x2 ⊻ x3): mixes complement tags on low edges and
        // the root.
        let xor = Bexpr::or([
            Bexpr::inhibit(Bexpr::var(2), Bexpr::var(3)),
            Bexpr::inhibit(Bexpr::var(3), Bexpr::var(2)),
        ]);
        let f = bdd.build(&Bexpr::or([
            Bexpr::inhibit(Bexpr::var(0), Bexpr::var(1)),
            xor,
        ]));
        (bdd, f)
    }

    #[test]
    fn round_trip_into_a_fresh_manager() {
        let (bdd, f) = sample();
        let dump = bdd.export_dump(f);
        let mut fresh = Bdd::new(0);
        let g = fresh.import_dump(&dump).expect("well-formed dump");
        assert_eq!(fresh.var_count(), 4);
        for assignment in 0..16u32 {
            let env: Vec<bool> = (0..4).map(|i| assignment >> i & 1 == 1).collect();
            assert_eq!(bdd.eval(f, &env), fresh.eval(g, &env), "env {env:?}");
        }
        // Re-export from the fresh manager reproduces the dump exactly:
        // the encoding is canonical per function.
        assert_eq!(fresh.export_dump(g), dump);
    }

    #[test]
    fn import_into_the_same_manager_deduplicates() {
        let (mut bdd, f) = sample();
        let dump = bdd.export_dump(f);
        let before = bdd.total_nodes();
        let g = bdd.import_dump(&dump).expect("well-formed dump");
        assert_eq!(g, f, "hash-consing makes the replay land on the same ref");
        assert_eq!(bdd.total_nodes(), before, "no new nodes");
    }

    #[test]
    fn terminals_round_trip() {
        let bdd = Bdd::new(0);
        for f in [Bdd::TRUE, Bdd::FALSE] {
            let dump = bdd.export_dump(f);
            assert!(dump.nodes.is_empty());
            let mut fresh = Bdd::new(0);
            assert_eq!(fresh.import_dump(&dump), Some(f));
        }
    }

    #[test]
    fn malformed_dumps_are_rejected() {
        let (bdd, f) = sample();
        let good = bdd.export_dump(f);
        let mut fresh = Bdd::new(0);

        // Forward edge: node 0 pointing at node 1.
        let mut forward = good.clone();
        forward.nodes[0].low = DumpRef::node(1).complement_if(true);
        assert_eq!(fresh.import_dump(&forward), None);

        // Self edge.
        let mut selfish = good.clone();
        selfish.nodes[0].high = DumpRef::node(0);
        assert_eq!(fresh.import_dump(&selfish), None);

        // Level outside the declared variable count.
        let mut deep = good.clone();
        deep.nodes[0].level = deep.var_count;
        assert_eq!(fresh.import_dump(&deep), None);

        // Root past the node list.
        let mut dangling = good.clone();
        dangling.root = DumpRef::node(dangling.nodes.len() as u32);
        assert_eq!(fresh.import_dump(&dangling), None);
    }
}
