//! Reference answers, computed apart from the serving path.
//!
//! * Tree-shaped models: Algorithm 1 ([`bottom_up`]).
//! * DAGs with at most [`NAIVE_MAX_BASICS`] basic steps: Algorithm 2
//!   ([`naive`] enumeration).
//! * Other DAGs: BDDBU on a fresh manager under the DFS defense-first
//!   order. The server compiles under the declaration order; the front does
//!   not depend on the order, so agreement checks both.
//!
//! Every served front must also be a strictly monotone antichain that
//! contains the zero-defense point, and the `nodes=` of its `S` frame must
//! equal the canonical diagram size: the reachable tagged refs (`|W|`) of
//! the model compiled on a fresh manager under the declaration order.

use std::collections::HashMap;

use adt_analysis::{bdd_bu_with_order, bottom_up, compile, naive, DefenseFirstOrder};
use adt_gen::apply_edit;

use crate::inputs::{is_structural, SessionInput, Tree};

/// DAGs up to this many basic steps are checked by enumeration.
pub const NAIVE_MAX_BASICS: usize = 12;

/// What the server must answer for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The rendered Pareto front.
    pub front: String,
    /// The `S` frame's `nodes=`.
    pub nodes: usize,
}

/// The reference front of `t`, rendered as the server renders fronts.
pub fn front(t: &Tree) -> String {
    let adt = t.adt();
    let front = if adt.is_tree() {
        bottom_up(t)
    } else if adt.attack_count() + adt.defense_count() <= NAIVE_MAX_BASICS {
        naive(t)
    } else {
        bdd_bu_with_order(t, &DefenseFirstOrder::dfs(adt))
    };
    front
        .expect("generated models are within every reference algorithm's limits")
        .to_string()
}

/// `|W|` of `t` compiled on a fresh manager under the declaration order.
pub fn canonical_nodes(t: &Tree) -> usize {
    let (bdd, root) = compile(t.adt(), &DefenseFirstOrder::declaration(t.adt()));
    bdd.reachable_topological(root).len()
}

/// The full reference answer for a query of `t`.
pub fn answer(t: &Tree) -> Answer {
    Answer {
        front: front(t),
        nodes: canonical_nodes(t),
    }
}

/// The answers a session must receive: the base model's for `open`, then
/// one per edit, each against the tree rebuilt with `adt_gen::apply_edit`.
/// Value edits leave the structure, and so the diagram, unchanged: their
/// canonical size is carried over instead of recompiled.
pub fn session_answers(session: &SessionInput) -> Vec<Answer> {
    let mut answers = vec![answer(&session.base)];
    let mut tree = session.base.clone();
    let mut toggles = HashMap::new();
    for op in &session.ops {
        tree = apply_edit(&tree, &mut toggles, op).expect("generated scripts replay cleanly");
        let nodes = if is_structural(op) {
            canonical_nodes(&tree)
        } else {
            answers.last().expect("open answered").nodes
        };
        answers.push(Answer {
            front: front(&tree),
            nodes,
        });
    }
    answers
}

/// One coordinate of a rendered front point; `None` is `∞`.
fn coordinate(text: &str) -> Option<Option<u64>> {
    match text.trim() {
        "∞" => Some(None),
        digits => digits.parse().ok().map(Some),
    }
}

/// Checks that a rendered front is a strictly monotone antichain
/// (defense and attack values both strictly increasing) whose first point
/// is the zero-defense point.
pub fn check_shape(front: &str) -> Result<(), String> {
    let inner = front
        .strip_prefix("{(")
        .and_then(|rest| rest.strip_suffix(")}"))
        .ok_or_else(|| format!("front `{front}` is not a non-empty point set"))?;
    let mut previous: Option<(u64, Option<u64>)> = None;
    for point in inner.split("), (") {
        let (d, a) = point
            .split_once(',')
            .ok_or_else(|| format!("front `{front}`: malformed point `{point}`"))?;
        let d = coordinate(d)
            .flatten()
            .ok_or_else(|| format!("front `{front}`: bad defense value `{d}`"))?;
        let a = coordinate(a).ok_or_else(|| format!("front `{front}`: bad attack value `{a}`"))?;
        // `None` (∞) orders above every finite attack value.
        let attack_above = |pa: Option<u64>| match (pa, a) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(pa), Some(a)) => a > pa,
        };
        match previous {
            None if d != 0 => return Err(format!("front `{front}` lacks the zero-defense point")),
            Some((pd, pa)) if d <= pd || !attack_above(pa) => {
                return Err(format!("front `{front}` is not strictly monotone"));
            }
            _ => {}
        }
        previous = Some((d, a));
    }
    Ok(())
}

/// Compares a served answer with the reference.
pub fn verify(front: &str, nodes: usize, expected: &Answer) -> Result<(), String> {
    check_shape(front)?;
    if front != expected.front {
        return Err(format!("front {front}, reference {}", expected.front));
    }
    if nodes != expected.nodes {
        return Err(format!("nodes={nodes}, canonical size {}", expected.nodes));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::catalog;

    /// The §VI-A case study's published fronts.
    const TREE_FRONT: &str = "{(0, 90), (30, 150), (50, 165)}";
    const DAG_FRONT: &str = "{(0, 80), (20, 90), (50, 140)}";

    #[test]
    fn money_theft_matches_the_paper() {
        let tree = catalog::money_theft_tree();
        let dag = catalog::money_theft();
        assert!(tree.adt().is_tree() && !dag.adt().is_tree());
        assert_eq!(front(&tree), TREE_FRONT);
        assert_eq!(front(&dag), DAG_FRONT);
        // Each reference path on its own reproduces the published fronts.
        let dfs = |t: &Tree| bdd_bu_with_order(t, &DefenseFirstOrder::dfs(t.adt())).unwrap();
        assert_eq!(naive(&dag).unwrap().to_string(), DAG_FRONT);
        assert_eq!(dfs(&dag).to_string(), DAG_FRONT);
        assert_eq!(dfs(&tree).to_string(), TREE_FRONT);
        check_shape(TREE_FRONT).unwrap();
        check_shape(DAG_FRONT).unwrap();
    }

    #[test]
    fn verify_pins_front_and_size() {
        let dag = catalog::money_theft();
        let expected = answer(&dag);
        assert!(expected.nodes > 2);
        verify(DAG_FRONT, expected.nodes, &expected).unwrap();
        assert!(verify(TREE_FRONT, expected.nodes, &expected).is_err());
        assert!(verify(DAG_FRONT, expected.nodes + 1, &expected).is_err());
    }

    #[test]
    fn shape_check_rejects_non_antichains() {
        check_shape("{(0, 5)}").unwrap();
        check_shape("{(0, 5), (3, ∞)}").unwrap();
        for bad in [
            "{}",
            "{(1, 5)}",
            "{(0, 5), (0, 7)}",
            "{(0, 5), (3, 5)}",
            "{(0, 9), (3, 5)}",
            "{(0, ∞), (3, 9)}",
            "{(0, 5), (3, ∞), (4, ∞)}",
            "{(0, 5), (x, 9)}",
        ] {
            assert!(check_shape(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn session_answers_follow_the_edits() {
        use crate::inputs::{session, Buckets, Stream};
        let s = session(5, Stream::WhatIf, Buckets { first: 2, last: 3 }, 1);
        let answers = session_answers(&s);
        assert_eq!(answers.len(), s.ops.len() + 1);
        for a in &answers {
            check_shape(&a.front).unwrap();
        }
    }
}
