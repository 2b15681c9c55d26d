//! The two-hop index over a graph's transit nodes (see
//! [`Graph::set_transit`]): for every non-transit node, how many of its
//! half-edges lead to non-transit nodes, and the relay pairs `u → r → v`
//! through which a search crosses transit nodes without settling them.

use crate::graph::{Graph, HalfEdge, NodeId, MARGIN_SCALE};

/// `2⁻⁴⁸`: a relay pair stays in the index when its weight sum is within
/// `M = 2⁻⁴⁸·(D + 2·w_max)` of the cheapest for its endpoints (see
/// [`Graph::set_transit`]).
pub(crate) const TRANSIT_SLACK: f64 = 1.0 / (1u64 << 48) as f64;

/// A graph's two-hop index, in adjacency slots (see [`Graph::half_edge`]):
/// 8 bytes per relay pair and 8 per non-transit node.
#[derive(Debug, Clone)]
pub(crate) struct TwoHop {
    /// First transit node: the index covers the nodes below it.
    pub(crate) first: NodeId,
    /// `direct_len[u]`: how many of node `u`'s half-edges, a prefix of
    /// its adjacency, lead to non-transit nodes.
    direct_len: Vec<u32>,
    /// `hops[hop_off[u]..hop_off[u + 1]]`: node `u`'s kept relay pairs,
    /// each the slot of `u → r` and the slot of `r → v`, ordered by the
    /// first slot, then the second.
    hop_off: Vec<u32>,
    hops: Vec<[u32; 2]>,
}

impl TwoHop {
    /// Node `u`'s half-edges toward non-transit nodes; `u` must be below
    /// [`TwoHop::first`].
    #[inline]
    pub(crate) fn direct<'g>(&self, g: &'g Graph, u: NodeId) -> &'g [HalfEdge] {
        &g.neighbors(u)[..self.direct_len[u as usize] as usize]
    }

    /// Node `u`'s half-edges toward transit nodes, the rest of its
    /// adjacency; `u` must be below [`TwoHop::first`].
    #[inline]
    pub(crate) fn relays<'g>(&self, g: &'g Graph, u: NodeId) -> &'g [HalfEdge] {
        &g.neighbors(u)[self.direct_len[u as usize] as usize..]
    }

    /// Node `u`'s relay pairs; `u` must be below [`TwoHop::first`].
    #[inline]
    pub(crate) fn hops(&self, u: NodeId) -> &[[u32; 2]] {
        let u = u as usize;
        &self.hops[self.hop_off[u] as usize..self.hop_off[u + 1] as usize]
    }

    /// The number of relay pairs.
    pub(crate) fn pairs(&self) -> usize {
        self.hops.len()
    }

    /// Build `g`'s index, or `None` when `g` has no transit nodes, lists
    /// a non-transit node's transit neighbours before a non-transit one,
    /// or fails the weight guard of [`Graph::set_transit`].
    ///
    /// # Panics
    /// If a transit node has a transit neighbour.
    pub(crate) fn build(g: &Graph) -> Option<TwoHop> {
        let first = g.transit().start;
        let n = g.num_nodes();
        if first as usize >= n {
            return None;
        }
        let (mut w_min, mut w_max) = (f64::INFINITY, 0.0f64);
        for u in 0..n as NodeId {
            for h in g.neighbors(u) {
                // lint: allow(panic-reachable) documented `# Panics` contract: a transit node's neighbours are all non-transit, which the contracted search relies on
                assert!(
                    u < first || h.to < first,
                    "transit node {u} has transit neighbour {}",
                    h.to
                );
                w_min = w_min.min(h.weight);
                w_max = w_max.max(h.weight);
            }
        }
        let d = 2.0 * n as f64 * w_max;
        if !(w_min.is_normal() && w_min >= MARGIN_SCALE * d) {
            return None;
        }
        let slack = TRANSIT_SLACK * (d + 2.0 * w_max);
        let below = first as usize;
        // The cheapest sum toward each non-transit `v` from the current
        // `u`, valid where `best[v].0 == u`.
        // lint: allow(hot-path-alloc) one index per graph, built by the graph's first contracted search and kept in it
        let mut best = vec![(NodeId::MAX, f64::INFINITY); below];
        let mut ix = TwoHop {
            first,
            // lint: allow(hot-path-alloc) one index per graph, built by the graph's first contracted search and kept in it
            direct_len: Vec::with_capacity(below),
            // lint: allow(hot-path-alloc) one index per graph, built by the graph's first contracted search and kept in it
            hop_off: Vec::with_capacity(below + 1),
            // lint: allow(hot-path-alloc) one index per graph, built by the graph's first contracted search and kept in it
            hops: Vec::new(),
        };
        ix.hop_off.push(0);
        // `u`'s relay pairs, as `(u → r, r → v, v, sum)`, in adjacency
        // order: one pass over the relays' links finds the cheapest sums
        // and the pairs near the cheapest so far, a second over this
        // buffer keeps those near the cheapest.
        // lint: allow(hot-path-alloc) one index per graph, built by the graph's first contracted search and kept in it
        let mut pairs: Vec<(u32, u32, u32, f64)> = Vec::new();
        for u in 0..first {
            pairs.clear();
            let links = g.neighbors(u);
            let direct = links.iter().position(|h| h.to >= first);
            let direct = direct.unwrap_or(links.len());
            if links[direct..].iter().any(|h| h.to < first) {
                return None;
            }
            for (a, hr) in (g.slots(u).start + direct as u32..).zip(&links[direct..]) {
                for (b, hv) in (g.slots(hr.to).start..).zip(g.neighbors(hr.to)) {
                    if hv.to == u {
                        continue;
                    }
                    let s = hr.weight + hv.weight;
                    let best = &mut best[hv.to as usize];
                    if best.0 != u || s < best.1 {
                        *best = (u, s);
                    }
                    // The cheapest sum only falls: a pair past it now
                    // stays past it.
                    if s <= best.1 + slack {
                        pairs.push((a, b, hv.to, s));
                    }
                }
            }
            for &(a, b, v, s) in &pairs {
                if s <= best[v as usize].1 + slack {
                    ix.hops.push([a, b]);
                }
            }
            ix.direct_len.push(direct as u32);
            ix.hop_off.push(ix.hops.len() as u32);
        }
        ix.hops.shrink_to_fit();
        Some(ix)
    }
}
