//! The sharding contract: a `K`-sharded run — restricted contexts,
//! spill files, and all — reproduces the single-process study results
//! **bit-identically**, for both the latency fold and the throughput
//! routing + global solve. Each shard is spilled exactly as an OS worker
//! spills it, and the files are merged exactly as the coordinator merges
//! them.

use leo_core::experiments::latency::{latency_studies, PairStats};
use leo_core::experiments::throughput::{route_pair_paths, throughput_from_path_edges};
use leo_core::{ExperimentScale, Mode, StudyContext};
use leo_flow::FlowWorkspace;
use leo_shard::runner::{
    combo_tag, config_hash, merge_flow_files, merge_latency_files, spill_flow_shard,
    spill_latency_shard,
};
use leo_shard::ShardSpec;

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("leo_shard_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_stats_eq(full: &[Vec<PairStats>], merged: &[Vec<PairStats>]) {
    assert_eq!(full.len(), merged.len(), "mode count");
    for (mi, (a, b)) in full.iter().zip(merged).enumerate() {
        assert_eq!(a.len(), b.len(), "mode {mi} pair count");
        for (pi, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.pair, y.pair, "mode {mi} pair {pi}");
            assert_eq!(
                x.min_rtt_ms.map(f64::to_bits),
                y.min_rtt_ms.map(f64::to_bits),
                "mode {mi} pair {pi} min"
            );
            assert_eq!(
                x.max_rtt_ms.map(f64::to_bits),
                y.max_rtt_ms.map(f64::to_bits),
                "mode {mi} pair {pi} max"
            );
            assert_eq!(x.reachable, y.reachable, "mode {mi} pair {pi} reachable");
            assert_eq!(x.total, y.total, "mode {mi} pair {pi} total");
        }
    }
}

/// Latency: every shard count produces the exact single-process stats,
/// and different shard counts agree with each other.
#[test]
fn sharded_latency_is_bit_identical_to_single_process() {
    let cfg = ExperimentScale::Tiny.config();
    let modes = [Mode::BpOnly, Mode::Hybrid];
    let ctx = StudyContext::build(cfg.clone());
    let full = latency_studies(&ctx, &modes, 0);

    for k in [1usize, 3] {
        let dir = scratch_dir(&format!("lat{k}"));
        let files: Vec<_> = ShardSpec::all(k)
            .into_iter()
            .map(|spec| spill_latency_shard(&cfg, &modes, spec, 1, &dir, "equiv").expect("spill"))
            .collect();
        let (run, keepers) = merge_latency_files(&files).expect("merge");
        assert_eq!(run.shard_count, k as u32);
        assert_eq!(run.n_pairs as usize, ctx.pairs.len());
        assert_eq!(run.config_hash, config_hash(&cfg));
        assert_eq!(run.seed, cfg.seed);
        let merged = keepers.to_stats(&ctx.pairs).expect("restore stats");
        assert_stats_eq(&full, &merged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Throughput: sharded routing + merged global solve equals routing the
/// full matrix in one process — same paths, same aggregate bits.
#[test]
fn sharded_throughput_is_bit_identical_to_single_process() {
    let cfg = ExperimentScale::Tiny.config();
    let combos = [(Mode::BpOnly, 1usize), (Mode::Hybrid, 4usize)];
    let t_s = 0.0;
    let ctx = StudyContext::build(cfg.clone());
    let modes: Vec<Mode> = vec![Mode::BpOnly, Mode::Hybrid];
    let snaps = ctx.snapshot_bundle(t_s, &modes);

    let dir = scratch_dir("flow");
    let files: Vec<_> = ShardSpec::all(2)
        .into_iter()
        .map(|spec| spill_flow_shard(&cfg, t_s, &combos, spec, &dir, "equiv").expect("spill"))
        .collect();
    let (run, merged) = merge_flow_files(&files).expect("merge");
    assert_eq!(run.shard_count, 2);
    assert_eq!(run.n_pairs as usize, ctx.pairs.len());

    for (ci, &(mode, k)) in combos.iter().enumerate() {
        let snap = &snaps[modes.iter().position(|&m| m == mode).expect("mode")];
        let full_paths: Vec<Vec<Vec<u32>>> = route_pair_paths(&ctx, snap, k)
            .into_iter()
            .map(|pair| pair.into_iter().map(|p| p.edges).collect())
            .collect();
        let combo = &merged.combos[ci];
        assert_eq!(combo.tag, combo_tag(mode, k));
        assert_eq!(combo.paths, full_paths, "combo {} paths differ", combo.tag);

        let isl = cfg.network.isl_gbps;
        let a = throughput_from_path_edges(&ctx, snap, &full_paths, isl, &mut FlowWorkspace::new());
        let b =
            throughput_from_path_edges(&ctx, snap, &combo.paths, isl, &mut FlowWorkspace::new());
        assert_eq!(a.aggregate_gbps.to_bits(), b.aggregate_gbps.to_bits());
        assert_eq!(a.routed_pairs, b.routed_pairs);
        assert_eq!(a.flows, b.flows);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
