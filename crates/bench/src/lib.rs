//! Shared helpers for the criterion benchmarks.
//!
//! The benchmarks live in `benches/`:
//!
//! * `queueing_kernels` — the closed-form queueing formulas (Eqs. 4–10).
//! * `model_eval` — full model resolutions: closed-form butterfly fat-tree,
//!   generic framework, saturation search (Eq. 26).
//! * `simulator` — flit-level engine throughput (cycles/second) across
//!   machine sizes and loads, plus the `fast_forward` group comparing the
//!   idle-span-skipping engine against the reference cycle-stepped one.
//! * `figures` — one benchmark per reproduced artifact (Figure 2, a Figure
//!   3 point, a throughput bracket probe, a channel-audit run), so the cost
//!   of regenerating each paper artifact is tracked over time.
//! * `workload` — destination-sampling and flow-vector/per-station-model
//!   hot paths of the workload subsystem.
//! * `lanes` — virtual-channel lanes: engine throughput across lane counts
//!   and allocation policies, the multi-lane model solve, and the
//!   queueing-lane kernels.

#![warn(missing_docs)]

use wormsim_sim::config::{SimConfig, TrafficConfig};

/// A small-but-meaningful simulation configuration for benches: long enough
/// to exercise steady-state behaviour, short enough for criterion.
#[must_use]
pub fn bench_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 4_000,
        drain_cap_cycles: 20_000,
        seed,
        batches: 4,
    }
}

/// Standard bench traffic: 16-flit worms at a moderate load.
#[must_use]
pub fn bench_traffic(flit_load: f64) -> TrafficConfig {
    TrafficConfig::from_flit_load(flit_load, 16).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_consistent_configs() {
        let cfg = bench_sim_config(9);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.measure_cycles >= 1_000);
        let t = bench_traffic(0.02);
        assert!((t.flit_load() - 0.02).abs() < 1e-15);
    }
}
