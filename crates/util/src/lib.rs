//! # leo-util — the hermetic foundation layer
//!
//! Everything the rest of the workspace previously pulled from crates.io
//! lives here as a small, documented, dependency-free implementation:
//!
//! * [`rng`] — seedable SplitMix64 + xoshiro256++ PRNG (replaces `rand`)
//! * [`config`] — writer for the `key = value` config text a run's hash
//!   is taken over (replaces `serde`)
//! * [`check`] — seeded property-testing harness (replaces `proptest`)
//! * [`mod@bench`] — warmup + median/p95 timing harness (replaces `criterion`)
//! * [`telemetry`] — spans/counters/histograms + JSONL run manifests
//!   (replaces `tracing`/`metrics`-style observability stacks)
//! * [`sketch`] — mergeable log-bucket quantile sketch + exact
//!   fixed-point sums for bounded-memory streaming aggregation
//!   (replaces `hdrhistogram`-style crates)
//!
//! The workspace policy (see DESIGN.md "Hermetic build") is that
//! `[workspace.dependencies]` names only `path` crates, so
//! `cargo build --offline` works from a clean checkout with no registry.
//! `scripts/ci.sh` enforces this.
//!
//! This crate depends on nothing but `std`, and every other crate in the
//! workspace may depend on it (it is the bottom of the layer diagram).

pub mod bench;
pub mod check;
pub mod config;
pub mod rng;
pub mod sketch;
pub mod telemetry;

pub use rng::Rng64;
