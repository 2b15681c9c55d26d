//! The two-hop index over a graph's transit nodes (see
//! [`Graph::set_transit`]): for every non-transit node, how many of its
//! half-edges lead to transit nodes, and the relay pairs `u → r → v`
//! through which a search crosses transit nodes without settling them.
//!
//! The index holds positions relative to the transit half-edges, not
//! adjacency slots, so it serves every graph with the same transit
//! layout, whatever its other edges (see [`Graph::share_two_hop`]).

use crate::graph::{Graph, HalfEdge, NodeId};
use leo_util::telemetry::{enabled, now_ns, Counter, Level};

/// `2⁻⁴⁸`: a relay pair stays in the index when its weight sum is within
/// `M = 2⁻⁴⁸·(D + 2·w_max)` of the cheapest for its endpoints (see
/// [`Graph::set_transit`]).
pub(crate) const TRANSIT_SLACK: f64 = 1.0 / (1u64 << 48) as f64;

/// Telemetry: two-hop indexes built.
static TWO_HOP_BUILT: Counter = Counter::new("two_hop_indexes_built");
/// Telemetry: nanoseconds spent building two-hop indexes.
static TWO_HOP_BUILD_NS: Counter = Counter::new("two_hop_build_ns");

/// A two-hop index: 8 bytes per relay pair and 8 per non-transit node.
#[derive(Debug, Clone)]
pub(crate) struct TwoHop {
    /// First transit node: the index covers the nodes below it.
    pub(crate) first: NodeId,
    /// `suffix[u]`: how many of node `u`'s half-edges, a suffix of its
    /// adjacency, lead to transit nodes.
    suffix: Vec<u32>,
    /// `hops[hop_off[u]..hop_off[u + 1]]`: node `u`'s kept relay pairs,
    /// each the position of `u → r` in `u`'s transit suffix and the
    /// position of `r → v` in the transit section (the half-edges of the
    /// transit nodes, from the first one's on), ordered by the first
    /// position, then the second.
    hop_off: Vec<u32>,
    hops: Vec<[u32; 2]>,
}

impl TwoHop {
    /// Node `u`'s half-edges toward non-transit nodes; `u` must be below
    /// [`TwoHop::first`].
    #[inline]
    pub(crate) fn direct<'g>(&self, g: &'g Graph, u: NodeId) -> &'g [HalfEdge] {
        let links = g.neighbors(u);
        &links[..links.len() - self.suffix[u as usize] as usize]
    }

    /// Node `u`'s transit suffix: its half-edges toward transit nodes,
    /// the rest of its adjacency, which the first position of its relay
    /// pairs indexes; `u` must be below [`TwoHop::first`].
    #[inline]
    pub(crate) fn relays<'g>(&self, g: &'g Graph, u: NodeId) -> &'g [HalfEdge] {
        let links = g.neighbors(u);
        &links[links.len() - self.suffix[u as usize] as usize..]
    }

    /// `g`'s transit section, which the second position of every relay
    /// pair indexes.
    #[inline]
    pub(crate) fn section<'g>(&self, g: &'g Graph) -> &'g [HalfEdge] {
        g.half_edges_from(self.first)
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

    /// Build `g`'s index with the margin of a graph of `g`'s node count
    /// whose largest weight is `w_max`, or `None` when `g` has no transit
    /// nodes or lists a non-transit node's transit neighbours before a
    /// non-transit one. The caller checks the weight guard of
    /// [`Graph::set_transit`].
    ///
    /// # Panics
    /// If a transit node has a transit neighbour.
    pub(crate) fn build(g: &Graph, w_max: f64) -> Option<TwoHop> {
        let first = g.transit().start;
        let n = g.num_nodes();
        if first as usize >= n {
            return None;
        }
        let t0 = enabled(Level::Info).then(now_ns);
        for r in first..n as NodeId {
            for h in g.neighbors(r) {
                // lint: allow(panic-reachable) documented `# Panics` contract: a transit node's neighbours are all non-transit, which the contracted search relies on
                assert!(
                    h.to < first,
                    "transit node {r} has transit neighbour {}",
                    h.to
                );
            }
        }
        let d = 2.0 * n as f64 * w_max;
        let slack = TRANSIT_SLACK * (d + 2.0 * w_max);
        let below = first as usize;
        let section = g.slots(first).start;
        // The cheapest sum toward each non-transit `v` from the current
        // `u`, valid where `best[v].0 == u`.
        // lint: allow(hot-path-alloc) one index per graph or sibling pair, built by the first contracted search and kept in the graphs
        let mut best = vec![(NodeId::MAX, f64::INFINITY); below];
        let mut ix = TwoHop {
            first,
            // lint: allow(hot-path-alloc) one index per graph or sibling pair, built by the first contracted search and kept in the graphs
            suffix: Vec::with_capacity(below),
            // lint: allow(hot-path-alloc) one index per graph or sibling pair, built by the first contracted search and kept in the graphs
            hop_off: Vec::with_capacity(below + 1),
            // lint: allow(hot-path-alloc) one index per graph or sibling pair, built by the first contracted search and kept in the graphs
            hops: Vec::new(),
        };
        ix.hop_off.push(0);
        // `u`'s relay pairs, as `(u → r, r → v, v, sum)`, in adjacency
        // order: one pass over the relays' links finds the cheapest sums
        // and the pairs near the cheapest so far, a second over this
        // buffer keeps those near the cheapest.
        // lint: allow(hot-path-alloc) one index per graph or sibling pair, built by the first contracted search and kept in the graphs
        let mut pairs: Vec<(u32, u32, u32, f64)> = Vec::new();
        for u in 0..first {
            pairs.clear();
            let links = g.neighbors(u);
            let direct = links.iter().position(|h| h.to >= first);
            let direct = direct.unwrap_or(links.len());
            if links[direct..].iter().any(|h| h.to < first) {
                return None;
            }
            for (a, hr) in (0..).zip(&links[direct..]) {
                for (b, hv) in (g.slots(hr.to).start - section..).zip(g.neighbors(hr.to)) {
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
            ix.suffix.push((links.len() - direct) as u32);
            ix.hop_off.push(ix.hops.len() as u32);
        }
        ix.hops.shrink_to_fit();
        if let Some(t0) = t0 {
            TWO_HOP_BUILT.add(1);
            TWO_HOP_BUILD_NS.add(now_ns().saturating_sub(t0));
        }
        Some(ix)
    }
}
