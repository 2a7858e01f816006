//! Flit-level simulator throughput: how fast the engine turns cycles at
//! the paper's operating points (per-machine-size, per-load), plus the
//! parallel sweep machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wormsim_bench::{bench_sim_config, bench_traffic};
use wormsim_sim::config::{EngineKind, LaneConfig, ObsConfig};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::{run_simulation, run_simulation_observed, sweep_flit_loads};
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);

    for n in [64usize, 256, 1024] {
        let params = BftParams::paper(n).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let cfg = bench_sim_config(3);
        let cycles = cfg.warmup_cycles + cfg.measure_cycles;
        group.throughput(Throughput::Elements(cycles));
        group.bench_with_input(BenchmarkId::new("bft_run_low_load", n), &router, |b, r| {
            b.iter(|| run_simulation(r, &cfg, &bench_traffic(0.01)).messages_completed)
        });
    }

    let params = BftParams::paper(256).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = bench_sim_config(5);
    group.bench_function("bft256_near_knee", |b| {
        b.iter(|| run_simulation(&router, &cfg, &bench_traffic(0.035)).messages_completed)
    });

    group.bench_function("bft256_parallel_sweep_4pts", |b| {
        b.iter(|| {
            sweep_flit_loads(&router, &cfg, 16, &[0.005, 0.01, 0.02, 0.03])
                .iter()
                .map(|r| r.messages_completed)
                .sum::<u64>()
        })
    });

    group.finish();
}

/// Fast-forwarding on vs the reference cycle-stepped engine, across the
/// idle→busy spectrum. The skip only elides cycles with **zero** worms in
/// flight, so the win is largest where the network-wide arrival rate
/// leaves real dead time (small N, low load — the validation grid's
/// bottom edge, where ≥5× is expected) and fades to neutral at
/// N=1024/load 0.01, where ~16 worms are always active and no cycle is
/// globally idle (results stay bit-identical either way).
fn bench_fast_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("fast_forward");
    group.sample_size(10);
    for (n, flit_load) in [(16usize, 0.001), (16, 0.0025), (64, 0.005), (1024, 0.01)] {
        let params = BftParams::paper(n).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let cfg = bench_sim_config(3);
        let traffic = bench_traffic(flit_load);
        for (label, kind) in [
            ("ref", EngineKind::Reference),
            ("ff", EngineKind::FastForward),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("bft{n}_load{flit_load}"), label),
                &kind,
                |b, &kind| {
                    b.iter(|| {
                        run_simulation_observed(
                            &router,
                            &cfg,
                            &traffic,
                            &LaneConfig::single(),
                            kind,
                            &ObsConfig::disabled(),
                        )
                        .messages_completed
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine, bench_fast_forward);
criterion_main!(benches);
