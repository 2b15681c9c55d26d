//! Cross-shell BP transitions (paper §8, Fig. 10).
//!
//! Multi-shell constellations cannot easily run ISLs *between* shells
//! (different trajectories make such lasers short-lived, and the filings
//! budget only 4 ISLs per satellite, all intra-shell). A sparing use of
//! bent-pipe hops as "transition points" lets a path switch shells —
//! e.g. Brisbane→Tokyo jumping from the 53° shell to a polar shell via
//! one ground bounce, cutting latency.

use crate::config::{ConstellationKind, StudyConfig};
use crate::snapshot::{Mode, NodeKind, StudyContext};
use leo_graph::with_thread_workspace;
use leo_util::span;

/// One snapshot of the cross-shell comparison.
#[derive(Debug, Clone, Copy)]
pub struct CrossShellRow {
    /// Snapshot time, s.
    pub t_s: f64,
    /// RTT restricted to ISL connectivity (no shell switching), ms.
    pub isl_only_rtt_ms: Option<f64>,
    /// RTT with hybrid connectivity (BP transitions allowed), ms.
    pub hybrid_rtt_ms: Option<f64>,
    /// Number of distinct shells traversed on the hybrid path.
    pub hybrid_shells_used: usize,
    /// Ground bounces (intermediate ground hops) on the hybrid path.
    pub hybrid_ground_bounces: usize,
}

/// Build a two-shell (53° + polar) study context from a base config.
pub fn two_shell_context(mut cfg: StudyConfig) -> StudyContext {
    cfg.constellation = ConstellationKind::StarlinkPlusPolar;
    StudyContext::build(cfg)
}

/// Compare ISL-only vs hybrid routing for one named pair across all
/// snapshots (the paper illustrates Brisbane→Tokyo).
pub fn cross_shell_study(
    ctx: &StudyContext,
    src_name: &str,
    dst_name: &str,
    threads: usize,
) -> Vec<CrossShellRow> {
    let _span = span!("cross_shell_study", src = src_name, dst = dst_name);
    let src = ctx
        .ground
        .city_index(src_name)
        // lint: allow(panic-reachable) config-time lookup of a caller-named city; a typo must fail loudly, not chart a wrong pair
        .unwrap_or_else(|| panic!("unknown city {src_name}"));
    let dst = ctx
        .ground
        .city_index(dst_name)
        // lint: allow(panic-reachable) config-time lookup of a caller-named city; a typo must fail loudly, not chart a wrong pair
        .unwrap_or_else(|| panic!("unknown city {dst_name}"));
    let times = ctx.config.snapshot_times_s.clone();
    let modes = [Mode::IslOnly, Mode::Hybrid];
    ctx.sweep_map(&times, &modes, threads, |ti, snaps| {
        let t = times[ti];
        let (isl_snap, hy_snap) = (&snaps[0], &snaps[1]);
        let (isl_rtt, hybrid_path) = with_thread_workspace(|ws| {
            let isl_rtt = ws
                .run(
                    &isl_snap.graph,
                    isl_snap.city_node(src),
                    None,
                    Some(isl_snap.city_node(dst)),
                )
                .dist(isl_snap.city_node(dst));
            let hybrid_path = ws
                .run(
                    &hy_snap.graph,
                    hy_snap.city_node(src),
                    None,
                    Some(hy_snap.city_node(dst)),
                )
                .extract_path(hy_snap.city_node(dst));
            (isl_rtt, hybrid_path)
        });
        let (hybrid_rtt, shells, bounces) = match &hybrid_path {
            Some(p) => {
                let mut shell_set = std::collections::HashSet::new();
                let mut bounces = 0;
                for &n in p.intermediate_nodes() {
                    match hy_snap.nodes[n as usize] {
                        NodeKind::Satellite(id) => {
                            shell_set.insert(ctx.constellation.shell_of(id).0);
                        }
                        _ => bounces += 1,
                    }
                }
                (
                    Some(crate::rtt_ms(p.total_weight)),
                    shell_set.len(),
                    bounces,
                )
            }
            None => (None, 0, 0),
        };
        CrossShellRow {
            t_s: t,
            isl_only_rtt_ms: isl_rtt.is_finite().then(|| crate::rtt_ms(isl_rtt)),
            hybrid_rtt_ms: hybrid_rtt,
            hybrid_shells_used: shells,
            hybrid_ground_bounces: bounces,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    fn ctx() -> StudyContext {
        let mut cfg = ExperimentScale::Tiny.config();
        cfg.num_cities = 300; // include Brisbane & Tokyo
        two_shell_context(cfg)
    }

    #[test]
    fn two_shells_built() {
        let c = ctx();
        assert_eq!(c.constellation.shells().len(), 2);
        assert_eq!(c.num_satellites(), 1584 + 720);
    }

    #[test]
    fn hybrid_never_slower_than_isl_only() {
        let c = ctx();
        let rows = cross_shell_study(&c, "Brisbane", "Tokyo", 2);
        assert_eq!(rows.len(), c.config.snapshot_times_s.len());
        for r in &rows {
            if let (Some(h), Some(i)) = (r.hybrid_rtt_ms, r.isl_only_rtt_ms) {
                assert!(h <= i + 1e-9, "hybrid {h} ms > isl-only {i} ms");
            }
        }
    }

    /// Regression: with the same city at both ends the hybrid path is the
    /// one-node path — no shells, no bounces (slicing `nodes[1..len - 1]`
    /// used to panic on it).
    #[test]
    fn city_to_itself_uses_no_shell_and_no_bounce() {
        let c = ctx();
        let rows = cross_shell_study(&c, "Tokyo", "Tokyo", 2);
        assert_eq!(rows.len(), c.config.snapshot_times_s.len());
        for r in &rows {
            assert_eq!(r.isl_only_rtt_ms, Some(0.0));
            assert_eq!(r.hybrid_rtt_ms, Some(0.0));
            assert_eq!((r.hybrid_shells_used, r.hybrid_ground_bounces), (0, 0));
        }
    }

    #[test]
    fn paths_have_plausible_rtts() {
        let c = ctx();
        let rows = cross_shell_study(&c, "Brisbane", "Tokyo", 2);
        for r in rows.iter().filter(|r| r.hybrid_rtt_ms.is_some()) {
            let rtt = r.hybrid_rtt_ms.unwrap();
            // Brisbane-Tokyo geodesic ≈ 7,150 km → ≥ ~48 ms RTT at c.
            assert!(rtt > 45.0 && rtt < 250.0, "RTT {rtt} ms");
        }
    }
}
