//! Relaxation operators over twig patterns.

use lotusx_twig::pattern::{Axis, NodeTest, QNodeId, TwigPattern, ValuePredicate};
use std::fmt;

/// One relaxation step.
#[derive(Clone, Debug, PartialEq)]
pub enum RewriteOp {
    /// Generalize a parent-child edge to ancestor-descendant.
    GeneralizeEdge(QNodeId),
    /// Replace a node's tag (synonym or spelling correction).
    SubstituteTag(QNodeId, String),
    /// Soften a predicate: exact equality → term containment.
    SoftenPredicate(QNodeId),
    /// Drop a node's predicate entirely.
    DropPredicate(QNodeId),
    /// Remove a leaf query node.
    DeleteLeaf(QNodeId),
    /// Remove an internal node, reattaching its children to its parent
    /// with ancestor-descendant edges.
    PromoteNode(QNodeId),
}

impl RewriteOp {
    /// The penalty of applying this operator (lower = gentler).
    pub fn base_cost(&self) -> f64 {
        match self {
            RewriteOp::GeneralizeEdge(_) => 1.0,
            RewriteOp::SubstituteTag(..) => 1.5,
            RewriteOp::SoftenPredicate(_) => 1.0,
            RewriteOp::DropPredicate(_) => 2.0,
            RewriteOp::PromoteNode(_) => 2.5,
            RewriteOp::DeleteLeaf(_) => 3.0,
        }
    }
}

impl fmt::Display for RewriteOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteOp::GeneralizeEdge(q) => write!(f, "edge of node {} : / → //", q.index()),
            RewriteOp::SubstituteTag(q, t) => write!(f, "tag of node {} → {t:?}", q.index()),
            RewriteOp::SoftenPredicate(q) => write!(f, "predicate of node {} : = → ~", q.index()),
            RewriteOp::DropPredicate(q) => write!(f, "drop predicate of node {}", q.index()),
            RewriteOp::DeleteLeaf(q) => write!(f, "delete leaf node {}", q.index()),
            RewriteOp::PromoteNode(q) => write!(f, "promote children of node {}", q.index()),
        }
    }
}

/// Applies `op` to `pattern`, returning the rewritten pattern or `None`
/// when the operator does not apply (already-general edge, missing
/// predicate, root deletion, …).
pub fn apply(pattern: &TwigPattern, op: &RewriteOp) -> Option<TwigPattern> {
    match op {
        RewriteOp::GeneralizeEdge(q) => {
            if pattern.node(*q).axis == Axis::Descendant {
                return None;
            }
            let mut p = pattern.clone();
            p.set_axis(*q, Axis::Descendant);
            Some(p)
        }
        RewriteOp::SubstituteTag(q, tag) => match &pattern.node(*q).test {
            NodeTest::Tag(old) if old != tag => {
                let mut p = pattern.clone();
                p.set_test(*q, NodeTest::Tag(tag.clone()));
                Some(p)
            }
            _ => None,
        },
        RewriteOp::SoftenPredicate(q) => match &pattern.node(*q).predicate {
            Some(ValuePredicate::Equals(v)) => {
                let mut p = pattern.clone();
                p.set_predicate(*q, Some(ValuePredicate::Contains(v.clone())));
                Some(p)
            }
            Some(ValuePredicate::AttrEquals { name, value }) => {
                let mut p = pattern.clone();
                p.set_predicate(
                    *q,
                    Some(ValuePredicate::AttrContains {
                        name: name.clone(),
                        value: value.clone(),
                    }),
                );
                Some(p)
            }
            _ => None,
        },
        RewriteOp::DropPredicate(q) => {
            pattern.node(*q).predicate.as_ref()?;
            let mut p = pattern.clone();
            p.set_predicate(*q, None);
            Some(p)
        }
        RewriteOp::DeleteLeaf(q) => {
            if *q == pattern.root() || !pattern.node(*q).children.is_empty() || pattern.len() <= 1 {
                return None;
            }
            pattern_without(pattern, *q, false)
        }
        RewriteOp::PromoteNode(q) => {
            if *q == pattern.root() || pattern.node(*q).children.is_empty() {
                return None;
            }
            pattern_without(pattern, *q, true)
        }
    }
}

/// Rebuilds the pattern without `removed`. With `reattach`, the removed
/// node's children hang off its parent via ancestor-descendant edges;
/// otherwise `removed` must be a leaf.
fn pattern_without(pattern: &TwigPattern, removed: QNodeId, reattach: bool) -> Option<TwigPattern> {
    let root = pattern.root();
    let root_node = pattern.node(root);
    let mut out = TwigPattern::new(root_node.test.clone(), root_node.axis);
    out.set_predicate(out.root(), root_node.predicate.clone());
    out.set_output(out.root(), root_node.output);
    out.set_ordered(pattern.is_ordered());

    // DFS copying nodes; `map[old] = new`.
    fn copy_children(
        pattern: &TwigPattern,
        out: &mut TwigPattern,
        old_parent: QNodeId,
        new_parent: QNodeId,
        removed: QNodeId,
        reattach: bool,
    ) {
        for &child in &pattern.node(old_parent).children {
            if child == removed {
                if reattach {
                    for &grandchild in &pattern.node(child).children {
                        copy_subtree(pattern, out, grandchild, new_parent, Some(Axis::Descendant));
                    }
                }
                continue;
            }
            copy_subtree(pattern, out, child, new_parent, None);
        }
    }

    fn copy_subtree(
        pattern: &TwigPattern,
        out: &mut TwigPattern,
        old: QNodeId,
        new_parent: QNodeId,
        override_axis: Option<Axis>,
    ) {
        let node = pattern.node(old);
        let id = out.add_child(
            new_parent,
            override_axis.unwrap_or(node.axis),
            node.test.clone(),
        );
        out.set_predicate(id, node.predicate.clone());
        out.set_output(id, node.output);
        for &child in &node.children {
            copy_subtree(pattern, out, child, id, None);
        }
    }

    let new_root = out.root();
    copy_children(pattern, &mut out, root, new_root, removed, reattach);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_twig::xpath::parse_query;

    #[test]
    fn generalize_edge() {
        let p = parse_query("//a/b").unwrap();
        let b = p.node(p.root()).children[0];
        let p2 = apply(&p, &RewriteOp::GeneralizeEdge(b)).unwrap();
        assert_eq!(p2.node(b).axis, Axis::Descendant);
        assert!(
            apply(&p2, &RewriteOp::GeneralizeEdge(b)).is_none(),
            "already general"
        );
    }

    #[test]
    fn substitute_tag() {
        let p = parse_query("//a/writer").unwrap();
        let w = p.node(p.root()).children[0];
        let p2 = apply(&p, &RewriteOp::SubstituteTag(w, "author".into())).unwrap();
        assert_eq!(p2.node(w).test, NodeTest::Tag("author".into()));
        assert!(
            apply(&p, &RewriteOp::SubstituteTag(w, "writer".into())).is_none(),
            "same tag"
        );
    }

    #[test]
    fn soften_and_drop_predicate() {
        let p = parse_query(r#"//t[. = "xml"]"#).unwrap();
        let softened = apply(&p, &RewriteOp::SoftenPredicate(p.root())).unwrap();
        assert_eq!(
            softened.node(p.root()).predicate,
            Some(ValuePredicate::Contains("xml".into()))
        );
        // Softening twice does not apply (already Contains).
        assert!(apply(&softened, &RewriteOp::SoftenPredicate(p.root())).is_none());
        let dropped = apply(&softened, &RewriteOp::DropPredicate(p.root())).unwrap();
        assert_eq!(dropped.node(p.root()).predicate, None);
        assert!(apply(&dropped, &RewriteOp::DropPredicate(p.root())).is_none());
    }

    #[test]
    fn delete_leaf_removes_exactly_one_node() {
        let p = parse_query("//a[b][c]/d").unwrap();
        let b = p.node(p.root()).children[0];
        let p2 = apply(&p, &RewriteOp::DeleteLeaf(b)).unwrap();
        assert_eq!(p2.len(), 3);
        assert_eq!(p2.to_string(), "//a[/c][/d!]");
        // Cannot delete the root or an internal node.
        assert!(apply(&p, &RewriteOp::DeleteLeaf(p.root())).is_none());
    }

    #[test]
    fn promote_internal_node_reattaches_children() {
        let p = parse_query("//a/b/c").unwrap();
        let b = p.node(p.root()).children[0];
        let p2 = apply(&p, &RewriteOp::PromoteNode(b)).unwrap();
        assert_eq!(p2.len(), 2);
        // c now hangs off a with a descendant edge.
        let c = p2.node(p2.root()).children[0];
        assert_eq!(p2.node(c).test, NodeTest::Tag("c".into()));
        assert_eq!(p2.node(c).axis, Axis::Descendant);
        assert!(apply(&p, &RewriteOp::PromoteNode(p.root())).is_none());
    }

    #[test]
    fn rebuild_preserves_flags_and_predicates() {
        let mut p = parse_query(r#"//a[b = "x"][c!]/d"#).unwrap();
        p.set_ordered(true);
        let d = *p.node(p.root()).children.last().unwrap();
        let p2 = apply(&p, &RewriteOp::DeleteLeaf(d)).unwrap();
        assert!(p2.is_ordered());
        let b = p2.node(p2.root()).children[0];
        assert_eq!(
            p2.node(b).predicate,
            Some(ValuePredicate::Equals("x".into()))
        );
        let c = p2.node(p2.root()).children[1];
        assert!(p2.node(c).output);
    }

    #[test]
    fn costs_are_ordered_gentlest_first() {
        let q = QNodeId::from_index(0);
        assert!(
            RewriteOp::GeneralizeEdge(q).base_cost()
                < RewriteOp::SubstituteTag(q, "x".into()).base_cost()
        );
        assert!(
            RewriteOp::SubstituteTag(q, "x".into()).base_cost()
                < RewriteOp::DeleteLeaf(q).base_cost()
        );
    }
}
