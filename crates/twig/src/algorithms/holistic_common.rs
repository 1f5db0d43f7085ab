//! Stack machinery shared by the holistic algorithms (PathStack/TwigStack).

use crate::matcher::MatchSet;
use crate::pattern::{Axis, QNodeId, TwigPattern};
use lotusx_index::ElementEntry;

/// One entry on a query node's stack: an element plus the height of the
/// parent query node's stack at push time. By the nesting invariant, every
/// parent-stack entry below that height is an ancestor of this element.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StackEntry {
    pub entry: ElementEntry,
    pub parent_top: usize,
}

/// Pops entries whose region ends before `next_start` — they can no longer
/// be ancestors of anything still ahead in any stream.
pub(crate) fn clean_stack(stack: &mut Vec<StackEntry>, next_start: u32) {
    while let Some(top) = stack.last() {
        if top.entry.region.end < next_start {
            stack.pop();
        } else {
            break;
        }
    }
}

/// Enumerates all root-to-leaf path solutions ending at a just-pushed leaf
/// element, appending one `qpath`-aligned row per solution to `out`.
///
/// `qpath` is the root-to-leaf query path and `stacks[q.index()]` the
/// per-node stacks. `row` is caller-owned scratch of `qpath.len()` columns
/// filled leaf-upwards in place: the caller stores the leaf's node in the
/// last column and starts at `pos = qpath.len() - 1` with the leaf
/// `element` and the `parent_top` parent-stack entries visible to it.
/// Parent-child edges are verified by level here (streams were processed
/// under ancestor-descendant semantics).
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_solutions(
    pattern: &TwigPattern,
    qpath: &[QNodeId],
    stacks: &[Vec<StackEntry>],
    pos: usize,
    element: ElementEntry,
    parent_top: usize,
    row: &mut [lotusx_xml::NodeId],
    out: &mut MatchSet,
) {
    if pos == 0 {
        out.push(row);
        return;
    }
    let axis = pattern.node(qpath[pos]).axis;
    let parent_stack = &stacks[qpath[pos - 1].index()];
    for candidate in parent_stack.iter().take(parent_top).copied() {
        let ok = match axis {
            Axis::Descendant => candidate.entry.region.is_ancestor_of(&element.region),
            Axis::Child => candidate.entry.region.is_parent_of(&element.region),
        };
        if !ok {
            continue;
        }
        row[pos - 1] = candidate.entry.node;
        expand_solutions(
            pattern,
            qpath,
            stacks,
            pos - 1,
            candidate.entry,
            candidate.parent_top,
            row,
            out,
        );
    }
}
