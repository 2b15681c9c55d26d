//! # leo-graph — graph algorithms for dynamic satellite-network snapshots
//!
//! A LEO network snapshot is a weighted undirected graph whose nodes are
//! satellites, ground terminals, relays, and aircraft, and whose edge
//! weights are propagation delays (or distances). This crate provides the
//! algorithms the paper's experiments need:
//!
//! * [`Graph`] — a compact CSR adjacency structure with stable edge ids,
//!   written in one pass per snapshot ([`Graph::fill`]), with optional
//!   per-node coordinates whose straight-line bound ([`Graph::lambda`])
//!   makes searches toward one or two targets goal-directed without
//!   changing any result bit.
//! * [`dijkstra`] / [`dijkstra_with_mask`] — single-source shortest paths
//!   (the latency experiments run one SSSP per unique source city), and
//!   [`DijkstraWorkspace`] — reusable generation-stamped buffers so hot
//!   loops pay O(touched) reset instead of per-call allocation (the
//!   `_with` variants of every multi-path routine accept one).
//! * [`k_edge_disjoint_paths`] — the iterative shortest-path/edge-removal
//!   scheme used for the throughput experiments' `k` sub-flows per pair.
//! * [`connected_components`] — component labels; the definition the
//!   "fraction of satellites entirely disconnected under BP" statistic
//!   (§5) is tested against (`leo-core` computes it from ISL components
//!   without labelling the whole graph).
//! * [`max_flow`] — Dinic's algorithm, used to reproduce the "lax"
//!   one-big-sink max-flow model of prior work that the paper criticizes.
//! * [`suurballe`] — the optimal two-edge-disjoint-path algorithm, and
//!   [`yen_k_shortest`] — k shortest loopless paths; both feed the
//!   routing-scheme ablations (the paper's §5 "superior routing" future
//!   work).
//!
//! Everything is synchronous and allocation-conscious: snapshot graphs have
//! ~10⁵ nodes and ~10⁶ edges and the experiments run thousands of queries
//! per snapshot.

mod components;
mod disjoint;
mod graph;
mod maxflow;
mod shortest;
mod suurballe;
mod yen;

pub use components::{component_sizes, connected_components};
pub use disjoint::{k_edge_disjoint_paths, k_edge_disjoint_paths_with};
pub use graph::{CsrFill, EdgeId, Graph, GraphBuilder, NodeId};
pub use maxflow::{max_flow, max_flow_with, FlowNetwork, MaxFlowWorkspace};
pub use shortest::{
    dijkstra, dijkstra_with_mask, extract_path, with_thread_workspace, DijkstraWorkspace, Path,
    ShortestPaths, SptWorkspace, SsspView,
};
pub use suurballe::{suurballe, suurballe_with};
pub use yen::{yen_k_shortest, yen_k_shortest_with};
