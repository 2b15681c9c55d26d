//! Connected components: the definition the BP satellite-disconnection
//! statistic is checked against.

use crate::graph::{Graph, NodeId};

/// Label every node with its connected-component id (0-based, assigned in
/// order of first discovery). Honors an optional `disabled` edge mask.
pub fn connected_components(g: &Graph, disabled: Option<&[bool]>) -> Vec<u32> {
    if let Some(d) = disabled {
        // lint: allow(panic-reachable) caller contract: the disabled mask is indexed by edge id; a mismatch means it was built for a different graph
        assert_eq!(d.len(), g.num_edges());
    }
    let n = g.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for start in 0..n as NodeId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = next;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for h in g.neighbors(u) {
                if let Some(mask) = disabled {
                    if mask[h.edge as usize] {
                        continue;
                    }
                }
                if label[h.to as usize] == u32::MAX {
                    label[h.to as usize] = next;
                    stack.push(h.to);
                }
            }
        }
        next += 1;
    }
    label
}

/// Sizes of each component, indexed by component id.
pub fn component_sizes(labels: &[u32]) -> Vec<usize> {
    let max = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sizes = vec![0usize; max];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn two_components() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(3, 4, 1.0);
        let g = b.build();
        let l = connected_components(&g, None);
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[3], l[4]);
        assert_ne!(l[0], l[3]);
        let sizes = component_sizes(&l);
        let mut s = sizes.clone();
        s.sort_unstable();
        assert_eq!(s, vec![2, 3]);
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let g = GraphBuilder::new(3).build();
        let l = connected_components(&g, None);
        assert_eq!(l, vec![0, 1, 2]);
        assert_eq!(component_sizes(&l), vec![1, 1, 1]);
    }

    #[test]
    fn mask_splits_component() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let bridge = b.add_edge(1, 2, 1.0);
        let g = b.build();
        let mut disabled = vec![false; g.num_edges()];
        disabled[bridge as usize] = true;
        let l = connected_components(&g, Some(&disabled));
        assert_eq!(l[0], l[1]);
        assert_ne!(l[1], l[2]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(connected_components(&g, None).is_empty());
        assert!(component_sizes(&[]).is_empty());
    }
}
