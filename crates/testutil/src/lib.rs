//! Shared helpers for the wormsim test pyramid.
//!
//! Every tier — per-crate unit tests, the property suites under
//! `crates/*/tests/`, and the root integration tests under `tests/` —
//! needs the same two things: *seeded, fast* simulation configurations
//! (so runs are deterministic and CI-friendly) and *tolerance* helpers
//! (so floating-point comparisons are written once, with good failure
//! messages). They live here so the tiers cannot drift apart.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod differential;

pub use differential::{assert_engine_equivalence, assert_sim_results_identical};

use wormsim_sim::config::{LaneAllocatorKind, LaneConfig, SimConfig, TrafficConfig};

/// The base seed used across the test suites. One canonical value keeps
/// failures reproducible by re-running any single test.
pub const TEST_SEED: u64 = 7;

/// Derives an uncorrelated child seed from a base seed and an index —
/// delegates to the simulator's own per-point sweep derivation so tests
/// asserting "sweep equals sequential runs" share one formula with the
/// code under test.
#[must_use]
pub fn mix_seed(base: u64, index: u64) -> u64 {
    wormsim_sim::runner::point_seed(base, index)
}

/// A fast, seeded simulation config for tests: long enough for stable
/// steady-state averages on small machines, short enough that a full
/// suite of runs stays in CI budget.
#[must_use]
pub fn quick_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        drain_cap_cycles: 30_000,
        seed,
        batches: 8,
    }
}

/// A longer seeded config for the tests that compare simulator output
/// against the analytical model (the Figure-3-style cross-checks) and need
/// tighter Monte-Carlo error than [`quick_sim_config`] provides.
#[must_use]
pub fn validation_sim_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 3_000,
        measure_cycles: 20_000,
        drain_cap_cycles: 60_000,
        seed,
        batches: 8,
    }
}

/// Standard test traffic: uniform random destinations at the given flit
/// load (flits/cycle/PE) with `worm_flits`-flit worms.
#[must_use]
pub fn test_traffic(flit_load: f64, worm_flits: u32) -> TrafficConfig {
    TrafficConfig::from_flit_load(flit_load, worm_flits).unwrap()
}

/// The lane counts every lane-sweep test tier compares: the paper's
/// single-lane channels plus the two multi-lane points of the `repro
/// lanes` experiment.
pub const LANE_SWEEP: [u32; 3] = [1, 2, 4];

/// A validated [`LaneConfig`] for `lanes` lanes with the default
/// (first-free) allocator — the shared construction for lane-sweep tests.
///
/// # Panics
///
/// Panics when `lanes` is outside the validated range (a test-authoring
/// bug, not a runtime condition).
#[must_use]
pub fn lane_config(lanes: u32) -> LaneConfig {
    LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).expect("test lane count is valid")
}

/// The standard seeded lane-sweep grid: one validated config per
/// [`LANE_SWEEP`] entry, for use with `sweep_traffic` /
/// `run_simulation_with_lanes`.
#[must_use]
pub fn lane_sweep_configs() -> Vec<LaneConfig> {
    LANE_SWEEP.iter().map(|&l| lane_config(l)).collect()
}

/// Relative tolerance for "multi-lane model matches simulation"
/// comparisons at low-to-moderate load: tight at `L = 1` (the paper's
/// validated model) and the acceptance band of the lanes extension above.
#[must_use]
pub fn lane_model_tolerance(lanes: u32) -> f64 {
    if lanes <= 1 {
        0.04
    } else {
        0.07
    }
}

/// Asserts the multi-lane model latency agrees with the simulated latency
/// within [`lane_model_tolerance`] — the shared acceptance check for
/// lane-sweep comparisons, so root tests and crate tests use one bound.
///
/// # Panics
/// Panics when the relative error exceeds the per-lane-count tolerance.
pub fn assert_lane_model_close(model: f64, sim: f64, lanes: u32, what: &str) {
    assert_relative_close(
        model,
        sim,
        lane_model_tolerance(lanes),
        &format!("{what} (L={lanes})"),
    );
}

/// Asserts `|a - b| <= abs_tol + rel_tol * max(|a|, |b|)` with a failure
/// message that shows both values and the effective tolerance.
///
/// # Panics
/// Panics when the values differ by more than the tolerance, or when
/// either value is non-finite.
pub fn assert_close(a: f64, b: f64, abs_tol: f64, rel_tol: f64, what: &str) {
    assert!(
        a.is_finite() && b.is_finite(),
        "{what}: non-finite values {a} vs {b}"
    );
    let tol = abs_tol + rel_tol * a.abs().max(b.abs());
    assert!(
        (a - b).abs() <= tol,
        "{what}: {a} vs {b} differ by {} (tolerance {tol})",
        (a - b).abs()
    );
}

/// Asserts that `a` and `b` agree to within a relative tolerance — the
/// standard check for "model matches simulation" comparisons, where the
/// paper reports single-digit-percent accuracy.
///
/// # Panics
/// Panics when the relative error exceeds `rel_tol`.
pub fn assert_relative_close(a: f64, b: f64, rel_tol: f64, what: &str) {
    assert_close(a, b, 0.0, rel_tol, what);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_decorrelates() {
        assert_ne!(mix_seed(TEST_SEED, 0), mix_seed(TEST_SEED, 1));
        assert_ne!(mix_seed(TEST_SEED, 0), TEST_SEED);
        // Deterministic.
        assert_eq!(mix_seed(3, 5), mix_seed(3, 5));
    }

    #[test]
    fn configs_are_seeded_and_fast() {
        let c = quick_sim_config(9);
        assert_eq!(c.seed, 9);
        assert!(c.measure_cycles <= 10_000);
        let v = validation_sim_config(9);
        assert!(v.measure_cycles > c.measure_cycles);
    }

    #[test]
    fn tolerance_helpers() {
        assert_close(1.0, 1.0 + 1e-12, 1e-9, 0.0, "abs");
        assert_relative_close(100.0, 101.0, 0.02, "rel");
    }

    #[test]
    #[should_panic(expected = "differ by")]
    fn tolerance_violation_panics() {
        assert_relative_close(100.0, 120.0, 0.01, "must fail");
    }

    #[test]
    fn lane_sweep_configs_cover_the_standard_grid() {
        let configs = lane_sweep_configs();
        assert_eq!(configs.len(), LANE_SWEEP.len());
        for (cfg, &l) in configs.iter().zip(&LANE_SWEEP) {
            assert_eq!(cfg.lanes(), l);
        }
        assert!(lane_model_tolerance(1) < lane_model_tolerance(2));
        assert_eq!(lane_model_tolerance(2), lane_model_tolerance(4));
        assert_lane_model_close(100.0, 104.0, 2, "within band");
    }

    #[test]
    #[should_panic(expected = "L=4")]
    fn lane_model_violation_panics_with_lane_count() {
        assert_lane_model_close(100.0, 130.0, 4, "must fail");
    }
}
