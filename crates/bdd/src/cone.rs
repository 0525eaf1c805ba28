//! Cone walks: the tagged refs reachable from one root, children first,
//! each listed with the positions of its two cofactors.
//!
//! Bottom-up consumers of a compiled diagram — the Pareto-front
//! propagation of `BDDBU`, the incremental session's cached sweep, the
//! store's diagram export — all need the same thing: the root's *cone*
//! `W` (every sub-function the root reaches, up to two per arena index
//! under complement edges) in an order where cofactors come first. A
//! long-lived manager's arena holds garbage and other queries' diagrams
//! too, so the walk must cost O(|W|), not O(arena): it is a depth-first
//! post-order traversal from the root, and its visited set is an
//! open-addressed table over the cone's own refs — nothing is sized to
//! the arena or indexed by arena position.

use crate::manager::{Bdd, NodeRef, EMPTY, TERMINAL_LEVEL};
use crate::Level;

/// Slot count of a fresh position table (power of two).
const INITIAL_SLOTS: usize = 64;

/// One tagged ref of a [`Cone`], with its cofactors' positions in the same
/// cone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConeNode {
    /// The tagged ref (a sub-function of the cone's root).
    pub node: NodeRef,
    /// Its branching level ([`Level::MAX`] for the terminal polarities).
    pub level: Level,
    /// Position of its low cofactor ([`ConeNode::NO_CHILD`] for
    /// terminals); always smaller than this node's own position.
    pub low: u32,
    /// Position of its high cofactor ([`ConeNode::NO_CHILD`] for
    /// terminals); always smaller than this node's own position.
    pub high: u32,
}

impl ConeNode {
    /// The cofactor position of the terminal polarities, which have none.
    pub const NO_CHILD: u32 = u32::MAX;
}

/// The cone of one root, as built by [`Bdd::cone`]: every tagged ref
/// reachable from the root, each listed once and after both of its
/// cofactors, the root last.
///
/// A node reached under both complement polarities is listed once per
/// polarity, so the cone's length is the paper's `|W|` — the number of
/// fronts `BDDBU` computes. The order is the walk's own (low cofactors
/// are explored before high ones), not arena order; consumers that need
/// arena order sort the indices they take from it.
#[derive(Debug, Clone, Default)]
pub struct Cone {
    nodes: Vec<ConeNode>,
    /// Open-addressed map from a listed ref's raw bits to its position,
    /// as `(raw, position)` pairs; a slot whose `raw` is [`EMPTY`] is
    /// free. A power of two in length (empty only for
    /// [`Cone::default`]), kept under half full.
    slots: Vec<(u32, u32)>,
}

/// An inner node whose cofactors are still being walked.
struct Frame {
    node: NodeRef,
    level: Level,
    high: NodeRef,
    /// Position of the low cofactor once it is listed, else
    /// [`ConeNode::NO_CHILD`].
    low: u32,
}

impl Cone {
    /// Every ref of the cone, children first; the root is the last entry.
    pub fn nodes(&self) -> &[ConeNode] {
        &self.nodes
    }

    /// The position of `f` in [`Cone::nodes`], or `None` when `f` is not
    /// in the cone. O(1): one probe sequence of the cone's own table.
    pub fn position(&self, f: NodeRef) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(f).map(|pos| pos as usize)
    }

    /// The walk behind [`Bdd::cone`]: an iterative depth-first
    /// post-order traversal from `root`. Every edge resolves the ref it
    /// reaches to a position: a listed ref answers from the table, an
    /// unlisted terminal is listed on sight, and an unlisted inner ref
    /// opens a [`Frame`] and descends into its low cofactor, then its high
    /// one; a frame whose cofactors both have positions is listed and
    /// hands its own position to the frame below it. Diagrams are acyclic,
    /// so a ref is never reached again while its frame is open, and each
    /// ref is listed exactly once.
    pub(crate) fn walk(bdd: &Bdd, root: NodeRef) -> Cone {
        let mut cone = Cone {
            nodes: Vec::new(),
            slots: vec![(EMPTY, 0); INITIAL_SLOTS],
        };
        let mut frames: Vec<Frame> = Vec::new();
        let mut next = root;
        loop {
            let mut pos = match cone.find(next) {
                Some(pos) => pos,
                None if next.is_terminal() => {
                    cone.list(next, TERMINAL_LEVEL, ConeNode::NO_CHILD, ConeNode::NO_CHILD)
                }
                None => {
                    frames.push(Frame {
                        node: next,
                        level: bdd.level(next),
                        high: bdd.high(next),
                        low: ConeNode::NO_CHILD,
                    });
                    next = bdd.low(next);
                    continue;
                }
            };
            // Hand `pos` down the open frames until one still waits for
            // its high cofactor; with none left, `pos` is the root's.
            loop {
                let Some(frame) = frames.last_mut() else {
                    return cone;
                };
                if frame.low == ConeNode::NO_CHILD {
                    frame.low = pos;
                    next = frame.high;
                    break;
                }
                let frame = frames.pop().expect("checked non-empty");
                pos = cone.list(frame.node, frame.level, frame.low, pos);
            }
        }
    }

    /// The position of a listed ref (the table must be non-empty).
    #[inline]
    fn find(&self, f: NodeRef) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let raw = f.raw();
        let mut i = home(raw, self.slots.len());
        loop {
            let (key, pos) = self.slots[i];
            if key == raw {
                return Some(pos);
            }
            if key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends a ref not yet listed and records its position, doubling
    /// the table first when it would pass half full.
    fn list(&mut self, node: NodeRef, level: Level, low: u32, high: u32) -> u32 {
        let pos = u32::try_from(self.nodes.len()).expect("cone positions fit in u32");
        self.nodes.push(ConeNode {
            node,
            level,
            low,
            high,
        });
        if self.nodes.len() * 2 > self.slots.len() {
            self.slots = vec![(EMPTY, 0); self.slots.len() * 2];
            for (pos, n) in self.nodes.iter().enumerate() {
                insert(&mut self.slots, n.node.raw(), pos as u32);
            }
        } else {
            insert(&mut self.slots, node.raw(), pos);
        }
        pos
    }
}

/// The slot `raw` hashes to in a table of `len` (a power of two) slots:
/// the *high* bits of a golden-ratio multiplicative hash. The low bits of
/// a product depend only on the low bits of the key, so the two
/// polarities of an index (which differ in bit 31 alone) would share
/// every low-bit slot.
#[inline]
fn home(raw: u32, len: usize) -> usize {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    (u64::from(raw).wrapping_mul(K) >> (64 - len.trailing_zeros())) as usize
}

/// Stores `(raw, pos)` in the first free slot of `raw`'s probe sequence;
/// `raw` must not be in the table yet.
#[inline]
fn insert(slots: &mut [(u32, u32)], raw: u32, pos: u32) {
    let mask = slots.len() - 1;
    let mut i = home(raw, slots.len());
    while slots[i].0 != EMPTY {
        i = (i + 1) & mask;
    }
    slots[i] = (raw, pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bexpr;

    #[test]
    fn terminal_roots_are_one_node_cones() {
        let bdd = Bdd::new(1);
        for root in [Bdd::TRUE, Bdd::FALSE] {
            let cone = bdd.cone(root);
            assert_eq!(cone.nodes().len(), 1);
            assert_eq!(cone.nodes()[0].node, root);
            assert_eq!(cone.position(root), Some(0));
            assert_eq!(cone.position(root.complement()), None);
        }
        assert_eq!(Cone::default().position(Bdd::TRUE), None);
    }

    #[test]
    fn positions_survive_table_growth() {
        // A parity chain reaches every level under both polarities, so the
        // cone outgrows the initial table several times.
        let vars = 200;
        let mut bdd = Bdd::new(vars);
        let f = bdd.build(&Bexpr::or((0..vars as u32).map(Bexpr::var)));
        let g = (0..vars as u32).fold(Bdd::FALSE, |acc, l| {
            let x = bdd.var(l);
            bdd.xor(acc, x)
        });
        for root in [f, g, g.complement()] {
            let cone = bdd.cone(root);
            let nodes = cone.nodes();
            assert_eq!(nodes.last().map(|n| n.node), Some(root));
            for (pos, n) in nodes.iter().enumerate() {
                assert_eq!(cone.position(n.node), Some(pos));
                if !n.node.is_terminal() {
                    assert_eq!(nodes[n.low as usize].node, bdd.low(n.node));
                    assert_eq!(nodes[n.high as usize].node, bdd.high(n.node));
                    assert_eq!(n.level, bdd.level(n.node));
                }
            }
        }
        assert_eq!(bdd.cone(g).nodes().len(), 2 * vars + 1);
    }
}
