//! Property tests of the cone walk (`Bdd::cone`) on managers whose
//! arena holds more than the queried diagram: garbage from building, and
//! other protected roots created both before (below) and after (above)
//! the queried root.
//!
//! The oracle is the arena scan the walk replaced: one descending sweep
//! over every index below the root with a reachability flag per polarity.
//! The walk must list exactly the scan's set — each ref once, after both
//! of its cofactors, the root last — and must walk the same function the
//! same way on a fresh manager.

use proptest::prelude::*;

use adt_bdd::{Bdd, Bexpr, Cone, ConeNode, NodeRef};

const VARS: usize = 6;

/// Random Boolean expressions over `VARS` variables, up to depth 4.
fn bexpr() -> impl Strategy<Value = Bexpr> {
    let leaf = prop_oneof![
        (0u32..VARS as u32).prop_map(Bexpr::Var),
        any::<bool>().prop_map(Bexpr::Const),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Bexpr::not),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Bexpr::And),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Bexpr::Or),
            (inner.clone(), inner).prop_map(|(a, b)| Bexpr::inhibit(a, b)),
        ]
    })
}

/// The reachable tagged refs of `f` by the pre-walk arena scan: flags per
/// index and polarity, swept from the root's index down to 1, listed in
/// ascending index order (plain before tagged).
fn index_scan(bdd: &Bdd, f: NodeRef) -> Vec<NodeRef> {
    if f.is_terminal() {
        return vec![f];
    }
    let top = f.index();
    // The ref seen at each index, per polarity (`None` = unreached).
    let mut plain: Vec<Option<NodeRef>> = vec![None; top + 1];
    let mut tagged: Vec<Option<NodeRef>> = vec![None; top + 1];
    let mark = |r: NodeRef, plain: &mut [Option<NodeRef>], tagged: &mut [Option<NodeRef>]| {
        if r.is_complemented() {
            tagged[r.index()] = Some(r);
        } else {
            plain[r.index()] = Some(r);
        }
    };
    mark(f, &mut plain, &mut tagged);
    for index in (1..=top).rev() {
        for r in [plain[index], tagged[index]].into_iter().flatten() {
            for child in [bdd.low(r), bdd.high(r)] {
                assert!(child.index() < index, "children sit below parents");
                mark(child, &mut plain, &mut tagged);
            }
        }
    }
    (0..=top)
        .flat_map(|index| [plain[index], tagged[index]])
        .flatten()
        .collect()
}

/// Checks the cone of `root` against the scan and the ordering contract.
fn check_cone(bdd: &Bdd, root: NodeRef) -> Result<(), TestCaseError> {
    let cone = bdd.cone(root);
    let nodes = cone.nodes();
    prop_assert_eq!(nodes.last().map(|n| n.node), Some(root), "root last");
    for (pos, n) in nodes.iter().enumerate() {
        prop_assert_eq!(cone.position(n.node), Some(pos));
        if n.node.is_terminal() {
            prop_assert_eq!((n.low, n.high), (ConeNode::NO_CHILD, ConeNode::NO_CHILD));
            continue;
        }
        prop_assert!(
            (n.low as usize) < pos && (n.high as usize) < pos,
            "{:?} listed before a cofactor",
            n.node
        );
        prop_assert_eq!(nodes[n.low as usize].node, bdd.low(n.node));
        prop_assert_eq!(nodes[n.high as usize].node, bdd.high(n.node));
        prop_assert_eq!(n.level, bdd.level(n.node));
    }
    let mut walked: Vec<NodeRef> = nodes.iter().map(|n| n.node).collect();
    prop_assert_eq!(&bdd.reachable_topological(root), &walked);
    walked.sort_unstable_by_key(|r| (r.index(), r.is_complemented()));
    prop_assert_eq!(walked, index_scan(bdd, root), "walk and scan disagree");
    Ok(())
}

/// The walk's shape with arena indices erased: per position, the level,
/// the ref's polarity and the cofactor positions. Equal for any two
/// managers holding the same function.
fn shape(cone: &Cone) -> Vec<(u32, bool, u32, u32)> {
    cone.nodes()
        .iter()
        .map(|n| (n.level, n.node.is_complemented(), n.low, n.high))
        .collect()
}

proptest! {
    /// The walk lists exactly the scan's refs, children first, whatever
    /// else the arena holds below and above the root; `root_kind` picks a
    /// plain, complemented, `1` or `0` root.
    #[test]
    fn cone_matches_the_index_scan_in_a_crowded_arena(
        below in prop::collection::vec((bexpr(), any::<bool>()), 0..5),
        query in bexpr(),
        above in prop::collection::vec((bexpr(), any::<bool>()), 0..5),
        root_kind in 0u8..4,
        collect in any::<bool>(),
    ) {
        let mut bdd = Bdd::new(VARS);
        for (expr, keep) in &below {
            let f = bdd.build(expr);
            if *keep {
                bdd.protect(f);
            }
        }
        let f = bdd.build(&query);
        let root = match root_kind {
            0 => f,
            1 => f.complement(),
            2 => Bdd::TRUE,
            _ => Bdd::FALSE,
        };
        let handle = bdd.protect(root);
        let query_handle = bdd.protect(f);
        if collect {
            // Compaction renumbers the survivors; the garbage built above
            // the root afterwards is fresh.
            bdd.gc();
        }
        let f = bdd.resolve(query_handle);
        for (expr, keep) in &above {
            let g = bdd.build(expr);
            let g = bdd.xor(g, f);
            if *keep {
                bdd.protect(g);
            }
        }
        let root = bdd.resolve(handle);
        check_cone(&bdd, root)?;
        // A fresh manager walks the same function the same way.
        let mut fresh = Bdd::new(VARS);
        let fresh_root = match root_kind {
            0 => fresh.build(&query),
            1 => {
                let g = fresh.build(&query);
                g.complement()
            }
            2 => Bdd::TRUE,
            _ => Bdd::FALSE,
        };
        prop_assert_eq!(shape(&bdd.cone(root)), shape(&fresh.cone(fresh_root)));
    }

}
