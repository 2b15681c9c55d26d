//! Delta-driven incremental shortest-path trees for per-source sweeps.
//!
//! The fig2 latency driver runs one SSSP per unique source city per
//! snapshot. With [`StudyContext::sweep_fold_deltas`] supplying per-mode
//! [`EdgeDelta`]s, each source can instead keep a [`SptWorkspace`] alive
//! across consecutive snapshots and repair it — bit-identical distances
//! and parents (the workspace's equivalence contract), at a fraction of
//! a fresh Dijkstra when membership churn is small.
//!
//! Keeping every tree resident costs
//! `modes × sources × nodes` node-entries per chunk accumulator, so
//! pooling is budgeted: [`SourceSptPool::fits`] gates it on an estimate
//! against [`SourceSptPool::ENTRY_BUDGET`], and callers fall back to
//! the early-exit `run_multi` path (also output-identical) when the
//! study is too large — protecting the paper-scale memory envelope. A
//! study that falls back sweeps through [`StudyContext::sweep_fold`]
//! and tracks no deltas: no link matching, no per-mode delta vectors,
//! and at `LEO_LOG=off` no second link arena.
//!
//! [`StudyContext::sweep_fold_deltas`]: crate::snapshot::StudyContext::sweep_fold_deltas
//! [`StudyContext::sweep_fold`]: crate::snapshot::StudyContext::sweep_fold
//! [`EdgeDelta`]: crate::snapshot::EdgeDelta

use crate::snapshot::{EdgeDelta, NetworkSnapshot, StudyContext};
use leo_graph::{NodeId, SptWorkspace};

/// One mode's pool of incremental shortest-path trees: one
/// [`SptWorkspace`] per entry of [`StudyContext::pairs_by_src`], in
/// order.
///
/// Edge-delta ids are mode-scoped, so a pool must only ever see one
/// mode's snapshots and deltas — studies over several modes keep one
/// pool per mode.
pub struct SourceSptPool {
    spts: Vec<SptWorkspace>,
}

impl SourceSptPool {
    /// Node-entry budget per chunk accumulator. An entry costs about
    /// 94 bytes, not just the 17 of a tree's labels and parents: each
    /// tree also keeps an edge-sized `old_to_new` map, its repair stack,
    /// heap and Dial buckets at their peak capacity. Measured on
    /// `leo_benchmark`'s `latency_burst` (356 trees of a 6,084-node
    /// graph), the pool raised peak RSS from 28 to 221 MiB, about
    /// 556 KiB per tree, so a full budget is ~135 MiB per sweep chunk
    /// (one chunk per worker thread). Tiny studies and `latency_burst`'s
    /// 100 pairs pool; fig2 at Bench scale (500 pairs, ~6k nodes, 2
    /// modes) and at Paper scale exceeds it and falls back to a sweep
    /// that tracks no deltas.
    pub const ENTRY_BUDGET: usize = 1_500_000;

    /// Whether a `num_modes`-mode study over `ctx`'s pair set fits the
    /// pooling budget. The node count is estimated from satellites,
    /// cities, and relays (aircraft add a few percent — this is a
    /// sizing heuristic, not a correctness bound).
    pub fn fits(ctx: &StudyContext, num_modes: usize) -> bool {
        let approx_nodes = ctx.num_satellites() + ctx.config.num_cities + ctx.ground.relays.len();
        num_modes
            .saturating_mul(ctx.pairs_by_src().len())
            .saturating_mul(approx_nodes)
            <= Self::ENTRY_BUDGET
    }

    /// An empty pool with one cold tree per unique source city.
    pub fn new(ctx: &StudyContext) -> Self {
        Self {
            spts: (0..ctx.pairs_by_src().len())
                .map(|_| SptWorkspace::new())
                .collect(),
        }
    }

    /// The tree rooted at source-group `si`'s city node, brought up to
    /// date for `snap` at `targets`: repaired from `delta` when the tree
    /// is warm and the delta is incremental, rebuilt from scratch
    /// otherwise (first step of a chunk, or a `full` delta). Repairs go
    /// through [`SptWorkspace::apply_for_targets`], which stops the
    /// relaxation drain as soon as every target settles. Distances and
    /// extracted paths for the targets are bitwise identical to a full
    /// rebuild's (the workspace's early-exit contract); other nodes may
    /// read as unreached, so callers must not query beyond `targets`
    /// until the next call.
    pub fn tree_for_targets(
        &mut self,
        si: usize,
        source: NodeId,
        snap: &NetworkSnapshot,
        delta: &EdgeDelta,
        targets: &[NodeId],
    ) -> &SptWorkspace {
        let spt = &mut self.spts[si];
        if !delta.full && spt.is_ready() && spt.source() == source {
            spt.apply_for_targets(&snap.graph, &delta.removed, &delta.reweighted, targets);
        } else {
            spt.rebuild(&snap.graph, source);
        }
        spt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::snapshot::{Mode, TimeSweep};

    #[test]
    fn tiny_fits_budget_and_paper_scale_does_not() {
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        assert!(SourceSptPool::fits(&ctx, 2));
        // An absurd mode multiplicity blows any budget — the gate must
        // actually gate.
        assert!(!SourceSptPool::fits(&ctx, 100_000));
    }

    #[test]
    fn targeted_pool_matches_fresh_dijkstra_at_targets_across_sweep() {
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        let modes = [Mode::Hybrid];
        let mut sweep = TimeSweep::new(&ctx, &modes);
        let mut pool = SourceSptPool::new(&ctx);
        for t in [0.0, 15.0, 90.0, 900.0] {
            let (snaps, deltas) = sweep.step_with_deltas(t);
            let snap = &snaps[0];
            for (si, (src, pair_idxs)) in ctx.pairs_by_src().iter().enumerate() {
                let source = snap.city_node(*src as usize);
                let targets: Vec<NodeId> = pair_idxs
                    .iter()
                    .map(|&i| snap.city_node(ctx.pairs[i].dst as usize))
                    .collect();
                let spt = pool.tree_for_targets(si, source, snap, &deltas[0], &targets);
                let fresh = leo_graph::dijkstra(&snap.graph, source);
                for &tgt in &targets {
                    assert_eq!(
                        spt.dist(tgt).to_bits(),
                        fresh.dist[tgt as usize].to_bits(),
                        "t={t} src={src} target {tgt}"
                    );
                }
            }
        }
    }
}
