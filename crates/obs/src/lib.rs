//! Zero-cost observability for wormsim: metric registry, worm-lifecycle
//! event sink, per-channel/per-lane accounting, the model's per-station
//! breakdown, and JSONL / Chrome `trace_event` exporters.
//!
//! This crate is a dependency-free leaf so that every layer of the
//! workspace (simulator, modeling framework, experiments) can speak the same telemetry types without cycles.
//!
//! # Zero-cost discipline
//!
//! Instrumentation is opt-in per run. The simulation engine stores an
//! `Option<SimTrace>`; with no observer attached every hook site is a
//! single not-taken branch on `None` — the workspace's bench baseline
//! carries an overhead point (`bft64_load0.1_l1`) holding the disabled
//! path to a ≤1% budget.
//!
//! # Neutrality guarantee
//!
//! Hooks never draw from the simulation RNG and never alter control
//! flow, so instrumented runs are bit-for-bit identical to bare runs,
//! and — because events are only emitted at worm state transitions,
//! which occur in individually-walked cycles under every engine — the
//! captured event stream and metric snapshot are themselves identical
//! across all engine kinds. The differential test suite asserts both
//! properties.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod events;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod model;
pub mod sim;
pub mod steady;
pub mod timeseries;

pub use events::{EventSink, StallCause, WormEvent};
pub use metrics::{Histogram, Registry};
pub use model::StationBreakdown;
pub use sim::{ChannelUsage, LaneUsage, ObsConfig, SimSnapshot, SimTrace};
pub use steady::{detect_steady_state, mser, mser5, SteadyState, Truncation};
pub use timeseries::{TimeSeries, TimeSeriesConfig, TimeSeriesResult, WindowStats};
