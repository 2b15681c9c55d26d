//! # leo-core — the ISL-vs-bent-pipe study library
//!
//! This crate ties the substrates together into the system the paper
//! describes: LEO mega-constellations (Starlink/Kuiper phase-1 shells)
//! serving a city-to-city traffic matrix either over **bent-pipe (BP)**
//! connectivity — radio hops bouncing between satellites and ground
//! relays, including in-flight aircraft over oceans — or over **hybrid**
//! connectivity that adds laser inter-satellite links (ISLs) in a +Grid.
//!
//! The pipeline:
//!
//! 1. [`StudyContext::build`] assembles a constellation, the ground
//!    segment ([`GroundSegment`]: city GTs + a 0.5°-grid of land relays
//!    within 2,000 km of cities), and the synthetic flight schedule.
//! 2. [`StudyContext::snapshot`] freezes the network at a simulation time
//!    into a weighted graph ([`NetworkSnapshot`]) under a connectivity
//!    [`Mode`] — `BpOnly`, `Hybrid`, or `IslOnly`.
//! 3. The [`experiments`] modules run the paper's studies on those
//!    snapshots: latency & variability (Fig. 2–3), max-min-fair
//!    throughput (Fig. 4–5 + the disconnected-satellite statistic),
//!    weather resilience (Fig. 6–8), GSO-arc avoidance (Fig. 9),
//!    cross-shell BP transitions (Fig. 10), and fiber augmentation
//!    (Fig. 11).
//!
//! ```no_run
//! use leo_core::{ExperimentScale, Mode, StudyContext};
//!
//! let ctx = StudyContext::build(ExperimentScale::Tiny.config());
//! let snap = ctx.snapshot(0.0, Mode::Hybrid);
//! println!("{} nodes, {} edges", snap.graph.num_nodes(), snap.graph.num_edges());
//! ```

pub mod config;
pub mod experiments;
pub mod ground;
pub mod metrics;
pub mod output;
pub mod par;
pub mod snapshot;
pub mod viz;

pub use config::{ConstellationKind, ExperimentScale, NetworkConfig, StudyConfig};
pub use ground::GroundSegment;
pub use snapshot::{EdgeDelta, EdgeKind, Mode, NetworkSnapshot, NodeKind, StudyContext, TimeSweep};

/// Round-trip time (milliseconds) of a one-way propagation delay in
/// seconds — the unit the paper's figures use.
#[inline]
pub fn rtt_ms(one_way_delay_s: f64) -> f64 {
    2.0 * one_way_delay_s * 1000.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn rtt_doubles_and_scales() {
        assert_eq!(super::rtt_ms(0.010), 20.0);
    }
}
