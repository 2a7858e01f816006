//! Model load sweeps: a build-once [`FlowModelSweep`] gives the same
//! answers as rebuilding the model at every load, and the paper's
//! closed-form Figure 2/3 numbers do not move.

use wormsim::model::bft::BftModel;
use wormsim::model::flows::model_from_flows;
use wormsim::model::framework::bft_spec;
use wormsim::model::options::ModelOptions;
use wormsim::prelude::*;

#[test]
fn flow_model_sweep_agrees_with_fresh_builds_across_patterns() {
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    for pattern in [
        DestinationPattern::Uniform,
        DestinationPattern::hot_spot(),
        DestinationPattern::HalfShift,
    ] {
        let flows = FlowVector::build(&tree, &pattern).unwrap();
        let mut sweep = FlowModelSweep::new(tree.network(), &flows, 16.0).unwrap();
        for lambda0 in [0.0, 0.0004, 0.0009, 0.0014] {
            let swept = sweep.latency_at(lambda0, &ModelOptions::paper());
            let fresh = model_from_flows(tree.network(), &flows, 16.0, lambda0)
                .unwrap()
                .latency(&ModelOptions::paper());
            match (swept, fresh) {
                (Ok(a), Ok(b)) => assert!(
                    (a.total - b.total).abs() < 1e-9 * (1.0 + b.total),
                    "{pattern:?} λ0={lambda0}: {} vs {}",
                    a.total,
                    b.total
                ),
                (Err(_), Err(_)) => {}
                other => panic!("{pattern:?} λ0={lambda0}: {other:?}"),
            }
        }
    }
}

#[test]
fn figure_2_3_closed_form_numbers_are_unchanged() {
    // Pinned reference latencies from the closed-form §3 model (the
    // generator of the Figure 2/3 curves), captured before the
    // warm-starting machinery landed. The solver rework must not move
    // them: warm starting only changes *how* cyclic fixed points iterate,
    // never the equations, and the tree model is a closed-form recurrence.
    let reference = [
        (1024usize, 16.0f64, 0.01f64, 25.814_671_985_116),
        (1024, 32.0, 0.02, 48.138_340_154_403),
        (1024, 64.0, 0.03, 109.642_937_796_999),
        (64, 16.0, 0.05, 22.658_746_368_357),
        (256, 32.0, 0.02, 41.433_925_061_880),
    ];
    for (n, s, load, expect) in reference {
        let model = BftModel::new(BftParams::paper(n).unwrap(), s);
        let got = model.latency_at_flit_load(load).unwrap().total;
        assert!(
            (got - expect).abs() < 1e-9,
            "N={n} s={s} load={load}: {got} vs pinned {expect}"
        );
        // And the generic framework still reproduces the closed form.
        let spec = bft_spec(&BftParams::paper(n).unwrap(), s, load / s);
        let generic = spec.latency(&ModelOptions::paper()).unwrap().total;
        assert!(
            (generic - expect).abs() < 1e-9 * (1.0 + expect),
            "framework drifted at N={n} s={s}: {generic} vs {expect}"
        );
    }
    let sat = BftModel::new(BftParams::paper(1024).unwrap(), 32.0)
        .saturation_flit_load()
        .unwrap();
    assert!(
        (sat - 0.039_092_332_047).abs() < 1e-9,
        "1024/32-flit saturation moved: {sat}"
    );
}
