//! # pbo-core — the parallel Bayesian-optimization engine
//!
//! The paper's experimental machine: five batch-acquisition PBO
//! algorithms running against a **virtual wall clock** that reproduces
//! the paper's time-budgeted protocol (20 virtual minutes, 10 s per
//! simulation, non-negligible model-fitting and acquisition overhead).
//!
//! Structure:
//!
//! - [`clock`]: the virtual clock and overhead accounting. Simulations
//!   advance virtual time by a fixed 10 s (plus a batch-dispatch
//!   overhead); fitting/acquisition advance it by *measured* CPU time ×
//!   a constant `overhead_scale` that calibrates this optimized Rust
//!   stack to the paper's Python/BoTorch stack (one global constant,
//!   identical for every algorithm — the relative costs are produced by
//!   the real code, not hard-coded);
//! - [`budget`]: Table-2 budget allocation (initial sample `16 × q`,
//!   simulation budget in virtual minutes);
//! - [`exec`]: the crossbeam worker pool evaluating batches in parallel;
//! - [`engine`]: shared BO-loop machinery — unit-cube normalization,
//!   dataset, GP fit/refit charging, stopping, recording — built through
//!   the validating `Engine::builder`;
//! - [`config`]: the [`config::AlgoConfig`] family (acquisition, q-EI,
//!   cost-model and fault-tolerance settings) and its validation;
//! - [`error`]: typed [`error::ConfigError`]s surfaced by the builder;
//! - [`observe`]: zero-cost-when-disabled structured observability —
//!   typed engine events, JSONL tracing, lock-free metrics;
//! - [`algorithms`]: KB-q-EGO, mic-q-EGO, MC-based q-EGO, BSP-EGO and
//!   TuRBO (plus uniform random search as the weak baseline);
//! - [`partition`]: the binary-space-partition tree behind BSP-EGO;
//! - [`trust_region`]: TuRBO's trust-region state machine;
//! - [`json`]: minimal JSON value tree (parser + lossless float
//!   encoding) backing the checkpoint serialization of [`record`];
//! - [`record`]: per-run traces (cycles, evaluations, time split) that
//!   the bench harness aggregates into the paper's tables and figures,
//!   with hand-rolled JSON (de)serialization for run checkpoints;
//! - [`stats`]: summary statistics and Welch's t-test (Figure 8);
//! - [`checkpoint`]: shared persistence primitives — FNV-1a content
//!   addressing and atomic temp-file/rename commits;
//! - [`session`]: resumable ask/tell sessions — the engine suspended at
//!   the evaluate boundary, event-sourced for bit-identical resume
//!   (the `pbo-server` daemon is built on this).

pub mod algorithms;
pub mod budget;
pub mod checkpoint;
pub mod clock;
pub mod config;
pub mod engine;
pub mod error;
pub mod exec;
pub mod json;
pub mod observe;
pub mod partition;
pub mod record;
pub mod session;
pub mod stats;
pub mod trust_region;

/// The kernels' work gate (`pbo_linalg::parallel`), re-exported for the
/// session server, whose `server-status` reply reports its counters.
pub use pbo_linalg::parallel;
