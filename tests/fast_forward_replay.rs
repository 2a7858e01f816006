//! Bit-exact replay: the fast-forwarding engine must be observationally
//! indistinguishable from the reference cycle-stepped engine.
//!
//! Idle cycles make no RNG draw (the request shuffle is over an empty
//! list; grants only draw with a non-empty queue; arrival times are
//! pre-sampled into the source heap), so skipping a provably idle span
//! leaves the random stream — and with it every sampled destination,
//! tie-break and up-link pick — untouched. These tests check that claim
//! the hard way: every `SimResult` field, including latency percentiles,
//! per-class audit counters and the `cycles_run` accounting, must match
//! to the last bit across workloads and loads.

use wormsim::prelude::*;
use wormsim::sim::router::{BftRouter, Router};
// The field-by-field comparison lives in testutil so every replay/
// differential suite shares one definition of "identical result".
use wormsim_testutil::{
    assert_engine_equivalence, assert_sim_results_identical as assert_bit_identical,
    quick_sim_config,
};

/// The reference cycle walk on single-lane channels.
fn run_reference<R: Router>(router: &R, cfg: &SimConfig, traffic: &TrafficConfig) -> SimResult {
    run_simulation_observed(
        router,
        cfg,
        traffic,
        &LaneConfig::single(),
        EngineKind::Reference,
        &ObsConfig::disabled(),
    )
}

fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("uniform", Workload::uniform()),
        (
            "hotspot",
            Workload {
                pattern: DestinationPattern::hot_spot(),
                arrival: ArrivalProcess::Poisson,
            },
        ),
        (
            "bursty",
            Workload {
                pattern: DestinationPattern::Uniform,
                arrival: ArrivalProcess::Mmpp(MmppProfile::default_bursty()),
            },
        ),
    ]
}

#[test]
fn fast_forward_is_bit_exact_across_workloads_and_loads() {
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(41);
    for (name, workload) in workloads() {
        for load in [0.002, 0.05] {
            let traffic = TrafficConfig::from_flit_load(load, 16)
                .unwrap()
                .with_workload(workload);
            let fast = run_simulation(&router, &cfg, &traffic);
            let reference = run_reference(&router, &cfg, &traffic);
            assert_bit_identical(&fast, &reference, &format!("{name}@{load}"));
            assert_eq!(reference.cycles_skipped, 0, "{name}: reference skips");
            assert!(
                load > 0.01 || fast.cycles_skipped > 0,
                "{name}@{load}: fast-forward should elide cycles at low load"
            );
        }
    }
}

#[test]
fn fast_forward_is_bit_exact_on_a_larger_machine_near_the_knee() {
    // Moderate load on N=64: idle spans are short and frequent, so the
    // skip logic is exercised between clustered events rather than across
    // long dead stretches.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(43);
    for load in [0.01, 0.12] {
        let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
        let fast = run_simulation(&router, &cfg, &traffic);
        let reference = run_reference(&router, &cfg, &traffic);
        assert_bit_identical(&fast, &reference, &format!("n64@{load}"));
    }
}

#[test]
fn fast_forward_replays_the_loaded_regime() {
    // The loaded regime, where fast-forwarding finds few idle spans: N=64
    // at 0.1 flits/cycle/PE (the bench group's operating point, ~55% of
    // the single-lane knee) on single-lane and 2-lane channels, where
    // stalls and the lane audit are in play, and a past-knee point where
    // the drain cap and incomplete-message accounting are exercised.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let two = LaneConfig::new(2, LaneAllocatorKind::FirstFree).unwrap();
    for (load, lanes, seed, saturated) in [
        (0.1, &LaneConfig::single(), 29, false),
        (0.1, &two, 31, false),
        (0.25, &LaneConfig::single(), 37, true),
    ] {
        let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
        let label = format!("bft64_load{load}_l{}", lanes.lanes());
        let r = assert_engine_equivalence(
            &router,
            &quick_sim_config(seed),
            &traffic,
            lanes,
            &[EngineKind::FastForward],
            &label,
        );
        assert_eq!(r.saturated, saturated, "{label}: knee side");
    }
}

#[test]
fn fast_forward_skips_almost_everything_at_vanishing_load() {
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(47);
    let traffic = TrafficConfig::new(0.00002, 16).unwrap();
    let fast = run_simulation(&router, &cfg, &traffic);
    let reference = run_reference(&router, &cfg, &traffic);
    assert_bit_identical(&fast, &reference, "vanishing");
    assert!(
        fast.cycles_skipped as f64 > 0.9 * fast.cycles_run as f64,
        "at ~0 load nearly every cycle is idle: skipped {} of {}",
        fast.cycles_skipped,
        fast.cycles_run
    );
}

#[test]
fn fast_forward_handles_zero_rate_and_saturation_edges() {
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(53);
    // Zero rate: the whole run is one idle span.
    let silent = TrafficConfig::new(0.0, 16).unwrap();
    let fast = run_simulation(&router, &cfg, &silent);
    let reference = run_reference(&router, &cfg, &silent);
    assert_bit_identical(&fast, &reference, "zero-rate");
    assert_eq!(fast.cycles_run, cfg.warmup_cycles + cfg.measure_cycles);
    // Far past saturation: no idle spans to skip, but the accounting (drain
    // cap, incomplete messages) must still agree exactly.
    let overload = TrafficConfig::from_flit_load(0.5, 16).unwrap();
    let fast = run_simulation(&router, &cfg, &overload);
    let reference = run_reference(&router, &cfg, &overload);
    assert_bit_identical(&fast, &reference, "overload");
    assert!(fast.saturated);
}

#[test]
fn sweeps_and_replications_reproduce_sequential_runs() {
    // The lock-free disjoint-slot sweep must equal point-by-point
    // sequential simulation with the derived per-point seeds.
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(59);
    let loads = [0.003, 0.01, 0.02, 0.04, 0.06];
    let base = TrafficConfig::from_flit_load(loads[0], 16).unwrap();
    let swept = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads);
    assert_eq!(swept.len(), loads.len());
    for (i, (r, &load)) in swept.iter().zip(&loads).enumerate() {
        let seed = wormsim::sim::runner::point_seed(cfg.seed, i as u64);
        let solo = run_simulation(
            &router,
            &cfg.with_seed(seed),
            &base.at_flit_load(load).unwrap(),
        );
        assert_bit_identical(r, &solo, &format!("sweep point {i}"));
    }
    let reps = replicate(&router, &cfg, &base, 3);
    for (i, r) in reps.runs.iter().enumerate() {
        let seed = wormsim::sim::runner::replication_seed(cfg.seed, i as u64);
        let solo = run_simulation(&router, &cfg.with_seed(seed), &base);
        assert_bit_identical(r, &solo, &format!("replication {i}"));
    }
}
