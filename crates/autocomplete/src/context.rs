//! The structural context of the query node being typed into.

use lotusx_twig::pattern::{NodeTest, QNodeId, TwigPattern};
use lotusx_twig::Axis;

/// One ancestor step of the focused node in the partial twig.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContextStep {
    /// Tag of the ancestor node, `None` for a wildcard / not-yet-typed tag.
    pub tag: Option<String>,
    /// Axis connecting this step to the previous one (the first step's axis
    /// is relative to the document root).
    pub axis: Axis,
}

/// Where the focused node sits: the chain of already-built ancestors plus
/// the axis that will connect the focused node to its parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PositionContext {
    /// Root-first ancestor chain (may be empty: a fresh root node).
    pub steps: Vec<ContextStep>,
    /// Axis from the innermost step (or the document root if `steps` is
    /// empty) to the focused node.
    pub axis_to_focus: Axis,
}

impl Default for PositionContext {
    fn default() -> Self {
        Self::unconstrained()
    }
}

impl PositionContext {
    /// Context with no structural constraint: a fresh root node reachable
    /// anywhere in the document.
    pub fn unconstrained() -> Self {
        PositionContext {
            steps: Vec::new(),
            axis_to_focus: Axis::Descendant,
        }
    }

    /// Builds a context from a concrete tag path with all-child axes —
    /// convenient for traces ("the user already built /a/b/c").
    pub fn from_tag_path(path: &[&str], axis_to_focus: Axis) -> Self {
        PositionContext {
            steps: path
                .iter()
                .map(|t| ContextStep {
                    tag: Some((*t).to_string()),
                    axis: Axis::Child,
                })
                .collect(),
            axis_to_focus,
        }
    }

    /// Derives the context of `focus` within a partial twig: the chain from
    /// the pattern root down to the focused node's parent, with the focus
    /// axis taken from the focused node's own edge.
    pub fn from_pattern(pattern: &TwigPattern, focus: QNodeId) -> Self {
        let path = pattern.path_to(focus);
        let steps = path[..path.len() - 1]
            .iter()
            .map(|&q| {
                let node = pattern.node(q);
                ContextStep {
                    tag: match &node.test {
                        NodeTest::Tag(t) => Some(t.clone()),
                        NodeTest::Wildcard => None,
                    },
                    axis: node.axis,
                }
            })
            .collect();
        PositionContext {
            steps,
            axis_to_focus: pattern.node(focus).axis,
        }
    }

    /// The context as a chain pattern: one node per step, then the focus,
    /// a wildcard leaf on [`axis_to_focus`](Self::axis_to_focus). Returns
    /// the pattern and the focus's id.
    pub fn to_pattern(&self) -> (TwigPattern, QNodeId) {
        let test = |tag: &Option<String>| tag.clone().map_or(NodeTest::Wildcard, NodeTest::Tag);
        let steps = self.steps.iter().map(|s| (test(&s.tag), s.axis));
        let mut chain = steps.chain([(NodeTest::Wildcard, self.axis_to_focus)]);
        let (root_test, root_axis) = chain.next().expect("the focus ends every chain");
        let mut pattern = TwigPattern::new(root_test, root_axis);
        let mut last = pattern.root();
        for (test, axis) in chain {
            last = pattern.add_child(last, axis, test);
        }
        (pattern, last)
    }

    /// True when nothing constrains the position.
    pub fn is_unconstrained(&self) -> bool {
        self.steps.is_empty() && self.axis_to_focus == Axis::Descendant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_twig::pattern::TwigBuilder;

    #[test]
    fn from_pattern_extracts_ancestor_chain() {
        let mut b = TwigBuilder::root("bib");
        let root = b.root_id();
        let book = b.child(root, "book");
        let title = b.descendant(book, "title");
        let p = b.build();
        let ctx = PositionContext::from_pattern(&p, title);
        assert_eq!(ctx.steps.len(), 2);
        assert_eq!(ctx.steps[0].tag.as_deref(), Some("bib"));
        assert_eq!(ctx.steps[1].tag.as_deref(), Some("book"));
        assert_eq!(ctx.steps[1].axis, Axis::Child);
        assert_eq!(ctx.axis_to_focus, Axis::Descendant);
    }

    #[test]
    fn focus_on_root_has_no_steps() {
        let b = TwigBuilder::root("bib");
        let p = b.build();
        let ctx = PositionContext::from_pattern(&p, p.root());
        assert!(ctx.steps.is_empty());
        assert!(ctx.is_unconstrained());
    }

    #[test]
    fn from_tag_path_uses_child_axes() {
        let ctx = PositionContext::from_tag_path(&["a", "b"], Axis::Child);
        assert_eq!(ctx.steps.len(), 2);
        assert!(ctx.steps.iter().all(|s| s.axis == Axis::Child));
        assert!(!ctx.is_unconstrained());
    }

    #[test]
    fn to_pattern_hangs_a_wildcard_focus_off_the_chain() {
        let ctx = PositionContext {
            steps: vec![
                ContextStep {
                    tag: Some("a".into()),
                    axis: Axis::Descendant,
                },
                ContextStep {
                    tag: None,
                    axis: Axis::Child,
                },
            ],
            axis_to_focus: Axis::Descendant,
        };
        let (pattern, focus) = ctx.to_pattern();
        assert_eq!(pattern.to_string(), "//a[/*[//*]]");
        assert!(pattern.node(focus).children.is_empty());
        assert_eq!(pattern.node(focus).test, NodeTest::Wildcard);

        let root_focus = PositionContext::from_tag_path(&[], Axis::Child);
        let (pattern, focus) = root_focus.to_pattern();
        assert_eq!(
            (pattern.to_string().as_str(), focus),
            ("/*", pattern.root())
        );
    }

    #[test]
    fn wildcard_ancestors_become_none() {
        let mut b = TwigBuilder::wildcard_root();
        let x = b.child(b.root_id(), "x");
        let p = b.build();
        let ctx = PositionContext::from_pattern(&p, x);
        assert_eq!(ctx.steps[0].tag, None);
    }
}
