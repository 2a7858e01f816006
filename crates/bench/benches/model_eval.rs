//! Benchmarks of full analytical-model resolutions: one latency evaluation
//! is a complete backward sweep over all channel classes (Eqs. 16–25), and
//! a saturation search runs dozens of them (Eq. 26).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wormsim_core::bft::BftModel;
use wormsim_core::framework::bft_spec;
use wormsim_core::hypercube::hypercube_spec;
use wormsim_core::options::ModelOptions;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

fn bench_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("model");
    group.sample_size(60);

    for n in [64usize, 256, 1024] {
        let params = BftParams::paper(n).unwrap();
        let model = BftModel::new(params, 32.0);
        group.bench_with_input(BenchmarkId::new("bft_latency", n), &model, |b, m| {
            b.iter(|| m.latency_at_flit_load(black_box(0.02)).unwrap().total)
        });
    }

    let params = BftParams::paper(1024).unwrap();
    let model = BftModel::new(params, 32.0);
    group.bench_function("bft_saturation_search_1024", |b| {
        b.iter(|| model.saturation().unwrap().flit_load)
    });

    group.bench_function("framework_bft_solve_1024", |b| {
        b.iter(|| {
            let spec = bft_spec(&params, 32.0, black_box(0.001));
            spec.latency(&ModelOptions::paper()).unwrap().total
        })
    });

    group.bench_function("framework_hypercube_solve_d10", |b| {
        b.iter(|| {
            let spec = hypercube_spec(10, 16.0, black_box(0.002));
            spec.latency(&ModelOptions::paper()).unwrap().total
        })
    });

    group.bench_function("topology_build_bft_1024", |b| {
        b.iter(|| ButterflyFatTree::new(black_box(params)).total_switches())
    });

    group.finish();
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
