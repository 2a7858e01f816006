//! Differential testing of the simulator's execution cores.
//!
//! The simulator ships two bit-exact cores behind
//! [`EngineKind`](wormsim_sim::config::EngineKind): the reference cycle
//! walk (the oracle) and idle-span fast-forwarding. Their contract is
//! *observational equality*: the same seeded configuration must yield a
//! field-for-field identical [`SimResult`] whichever core ran. This module
//! is that contract's enforcement point — one comparison helper used by
//! the replay regressions (`tests/fast_forward_replay.rs`,
//! `tests/lanes_regression.rs`) and one harness that runs a config on the
//! reference oracle and any set of cores and asserts equality, used by
//! the randomized differential suite.
//!
//! Floats are compared via `to_bits`, so NaN sentinels (e.g. the CI
//! half-width of a tiny population) compare equal when both runs produce
//! them. Two fields are deliberately excluded: `cycles_skipped` (a
//! diagnostic that *must* differ — it counts cycles a core chose not to
//! walk) and `engine` (the core's own label).

use wormsim_sim::config::{EngineKind, LaneConfig, ObsConfig, SimConfig, TrafficConfig};
use wormsim_sim::router::Router;
use wormsim_sim::runner::{run_simulation_observed, SimResult};

/// Field-by-field bit comparison of two simulation results.
///
/// Every field of [`SimResult`] — including latency percentiles, per-class
/// audit counters, per-lane stats and the `cycles_run` accounting — must
/// match exactly; floats are compared via `to_bits`. The `cycles_skipped`
/// diagnostic and the `engine` tag, which differ across cores by design,
/// are excluded.
///
/// # Panics
///
/// Panics with `label` and the offending field on the first mismatch.
pub fn assert_sim_results_identical(a: &SimResult, b: &SimResult, label: &str) {
    let f = |x: f64, y: f64, field: &str| {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {field} {x} vs {y}");
    };
    assert_eq!(a.topology, b.topology, "{label}: topology");
    assert_eq!(a.num_processors, b.num_processors, "{label}: N");
    assert_eq!(a.worm_flits, b.worm_flits, "{label}: worm_flits");
    f(a.offered_message_rate, b.offered_message_rate, "rate");
    f(a.offered_flit_load, b.offered_flit_load, "offered load");
    f(a.avg_latency, b.avg_latency, "avg_latency");
    f(a.latency_ci95, b.latency_ci95, "latency_ci95");
    f(a.latency_p50, b.latency_p50, "latency_p50");
    f(a.latency_p95, b.latency_p95, "latency_p95");
    f(a.latency_p99, b.latency_p99, "latency_p99");
    f(a.latency_max, b.latency_max, "latency_max");
    f(
        a.injection_wait_mean,
        b.injection_wait_mean,
        "injection wait",
    );
    assert_eq!(
        a.messages_measured, b.messages_measured,
        "{label}: measured"
    );
    assert_eq!(
        a.messages_completed, b.messages_completed,
        "{label}: completed"
    );
    assert_eq!(
        a.messages_incomplete, b.messages_incomplete,
        "{label}: incomplete"
    );
    assert_eq!(
        a.messages_unroutable, b.messages_unroutable,
        "{label}: unroutable"
    );
    f(a.delivered_flit_load, b.delivered_flit_load, "delivered");
    assert_eq!(a.saturated, b.saturated, "{label}: saturated");
    assert_eq!(a.backlog_growth, b.backlog_growth, "{label}: backlog");
    assert_eq!(a.cycles_run, b.cycles_run, "{label}: cycles_run");
    assert_eq!(
        a.max_active_worms, b.max_active_worms,
        "{label}: max_active_worms"
    );
    assert_eq!(a.seed, b.seed, "{label}: seed");
    assert_eq!(a.lanes, b.lanes, "{label}: lanes");
    assert_eq!(
        a.lane_stats.len(),
        b.lane_stats.len(),
        "{label}: lane stats"
    );
    for (la, lb) in a.lane_stats.iter().zip(&b.lane_stats) {
        assert_eq!(la.lane, lb.lane, "{label}: lane index");
        assert_eq!(la.grants, lb.grants, "{label}: lane {} grants", la.lane);
        f(la.mean_hold, lb.mean_hold, "lane mean_hold");
        f(la.utilization, lb.utilization, "lane utilization");
    }
    assert_eq!(a.class_stats.len(), b.class_stats.len(), "{label}: classes");
    for (ca, cb) in a.class_stats.iter().zip(&b.class_stats) {
        assert_eq!(ca.class, cb.class, "{label}: class id");
        assert_eq!(ca.channels, cb.channels, "{label}: {} channels", ca.class);
        assert_eq!(ca.grants, cb.grants, "{label}: {} grants", ca.class);
        f(ca.lambda, cb.lambda, "class lambda");
        f(ca.mean_service, cb.mean_service, "class mean_service");
        f(ca.mean_wait, cb.mean_wait, "class mean_wait");
        f(ca.utilization, cb.utilization, "class utilization");
    }
    // Observability snapshots must agree too: both absent, or equal —
    // the obs layer guarantees the captured snapshot is itself identical
    // across engine kinds (events only occur in walked cycles).
    assert_eq!(
        a.obs.is_some(),
        b.obs.is_some(),
        "{label}: obs presence mismatch"
    );
    if let (Some(oa), Some(ob)) = (&a.obs, &b.obs) {
        assert_eq!(oa, ob, "{label}: obs snapshots differ");
    }
}

/// Runs the same seeded configuration on the reference oracle and on each
/// of `kinds`, asserting every result is field-for-field identical to the
/// oracle's. Returns the oracle result so callers can pin or inspect it.
///
/// # Panics
///
/// Panics with `label`, the engine kind and the offending field on the
/// first divergence.
pub fn assert_engine_equivalence<R: Router>(
    router: &R,
    cfg: &SimConfig,
    traffic: &TrafficConfig,
    lanes: &LaneConfig,
    kinds: &[EngineKind],
    label: &str,
) -> SimResult {
    let bare = ObsConfig::disabled();
    let oracle = run_simulation_observed(router, cfg, traffic, lanes, EngineKind::Reference, &bare);
    assert_eq!(oracle.cycles_skipped, 0, "{label}: the oracle never skips");
    for &kind in kinds {
        let got = run_simulation_observed(router, cfg, traffic, lanes, kind, &bare);
        assert_sim_results_identical(
            &got,
            &oracle,
            &format!("{label} [{} vs reference]", kind.label()),
        );
    }
    oracle
}

/// Proves instrumentation transparency for one seeded configuration:
/// for the reference oracle and each of `kinds`,
///
/// 1. an observed run's `SimResult` (snapshot stripped) is bit-for-bit
///    identical to the bare run's — attaching the observer perturbs
///    nothing (RNG-neutral, no control-flow changes); and
/// 2. the captured [`wormsim_obs::SimSnapshot`]s are identical across
///    engine kinds, and satisfy the conservation laws.
///
/// Returns the reference engine's observed result (snapshot attached)
/// so callers can inspect the metrics.
///
/// # Panics
///
/// Panics with `label`, the engine kind and the offending field on the
/// first divergence, and on any conservation violation.
pub fn assert_observation_transparent<R: Router>(
    router: &R,
    cfg: &SimConfig,
    traffic: &TrafficConfig,
    lanes: &LaneConfig,
    kinds: &[EngineKind],
    obs: &ObsConfig,
    label: &str,
) -> SimResult {
    let oracle_observed =
        run_simulation_observed(router, cfg, traffic, lanes, EngineKind::Reference, obs);
    let oracle_snap = oracle_observed
        .obs
        .as_ref()
        .expect("observer was enabled for the oracle");
    oracle_snap
        .check_conservation()
        .unwrap_or_else(|e| panic!("{label}: oracle conservation: {e}"));
    for &kind in std::iter::once(&EngineKind::Reference).chain(kinds) {
        let bare =
            run_simulation_observed(router, cfg, traffic, lanes, kind, &ObsConfig::disabled());
        let observed = run_simulation_observed(router, cfg, traffic, lanes, kind, obs);
        let snap = observed
            .obs
            .as_ref()
            .expect("observer was enabled for this run");
        assert_eq!(
            snap,
            oracle_snap,
            "{label} [{}]: snapshot differs from the reference engine's",
            kind.label()
        );
        let mut stripped = observed.clone();
        stripped.obs = None;
        assert_sim_results_identical(
            &stripped,
            &bare,
            &format!("{label} [{} observed vs bare]", kind.label()),
        );
        assert_eq!(
            stripped.cycles_skipped,
            bare.cycles_skipped,
            "{label} [{}]: observation changed the skip schedule",
            kind.label()
        );
    }
    oracle_observed
}
