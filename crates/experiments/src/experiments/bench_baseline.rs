//! Benchmark baseline harness — `repro bench-baseline`.
//!
//! Runs a *fixed* micro-benchmark set over both engines and writes two
//! machine-readable baselines:
//!
//! * `BENCH_sim.json` — simulator wall-clock per operating point (median
//!   ns over repetitions), cycles/second, and the fraction of cycles not
//!   individually walked (idle fast-forward spans), for the reference
//!   (cycle-stepped) walk and the fast-forwarding core side by side —
//!   including a loaded regime group (`bft64_load0.1_*`), a saturating
//!   N=1024 point where fast-forwarding finds no idle spans, a faulted group
//!   (`bft64_load0.1_f*`) pricing the fault-aware router with an empty
//!   plan and under a 5% link knockout plus a deliberately past-knee
//!   point (`bft64_pastknee_f5_ff`) proving saturated runs complete and
//!   get recorded, and the observability-overhead A/B point
//!   (`obs_overhead`, budget ≤1%).
//! * `BENCH_model.json` — analytical-model costs: closed-form and
//!   framework solve times, a flow-sweep rebuild vs rescale, and the
//!   **deterministic** lane-model latency anchors (machine-independent,
//!   so they belong in version control as a hard regression anchor).
//!
//! Model anchor loads are **knee-derived**: half the bracketed saturation
//! knee ([`wormsim_core::framework::NetworkSpec::find_knee`]) at each
//! machine size, so every anchor sits safely below its own knee at every
//! `N` — no hand-tuned, mode-dependent load constants.
//!
//! The JSON is hand-rolled (no serde in this offline workspace): flat
//! objects, stable key order, one point per line — diffable across PRs so
//! the perf trajectory is tracked from this baseline onward. Timings are
//! machine-dependent snapshots; latency anchors and not-walked-cycle
//! fractions must reproduce exactly anywhere.
//!
//! `--quick` shrinks repetitions and drops the largest machine so CI can
//! smoke the harness on every push.
//!
//! The JSON files are only written when an `--out` directory is given
//! (regenerate the committed baselines with `repro bench-baseline --out .`
//! from the repo root, release profile, no `--quick`); without it the
//! run is report-only, so tests and ad-hoc invocations can never clobber
//! the committed baselines — `tests/bench_hygiene.rs` enforces their
//! full-mode pedigree.

use super::{ExperimentContext, ExperimentOutput};
use crate::error::ExperimentError;
use crate::table::{num, Table};
use std::fmt::Write as _;
use std::time::Instant;
use wormsim_core::bft::BftModel;
use wormsim_core::flows::FlowModelSweep;
use wormsim_core::framework::bft_spec;
use wormsim_core::options::ModelOptions;
use wormsim_faults::{link_faults, FaultPlan};
use wormsim_guard::KneeConfig;
use wormsim_sim::config::ObsConfig;
use wormsim_sim::config::{EngineKind, LaneAllocatorKind, LaneConfig, SimConfig, TrafficConfig};
use wormsim_sim::router::{BftRouter, FaultedBftRouter};
use wormsim_sim::runner::{run_simulation_observed, run_simulation_with_lanes, SimResult};
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_workload::{DestinationPattern, FlowVector};

/// Medians of two interleaved timed closures, in nanoseconds: each
/// repetition samples both (order alternating), so clock drift and
/// thermal throttling hit the two sides alike — the fair way to compare
/// a pair of near-identical costs.
fn interleaved_median_ns<FA: FnMut(), FB: FnMut()>(
    reps: usize,
    mut a: FA,
    mut b: FB,
) -> (u64, u64) {
    fn time<F: FnMut()>(f: &mut F) -> u64 {
        let t0 = Instant::now();
        f();
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
    let reps = reps.max(1);
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    for i in 0..reps {
        if i % 2 == 0 {
            sa.push(time(&mut a));
            sb.push(time(&mut b));
        } else {
            sb.push(time(&mut b));
            sa.push(time(&mut a));
        }
    }
    sa.sort_unstable();
    sb.sort_unstable();
    (sa[sa.len() / 2], sb[sb.len() / 2])
}

/// Median of timed repetitions of `f`, in nanoseconds.
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Escapes nothing (keys/names here are JSON-safe by construction) but
/// keeps floats finite and compact.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// The single-lane model's bracketed saturation knee at `params`, in
/// flits/cycle/PE. Bisection over saturation-aware probes — deterministic,
/// so knee-derived anchor loads reproduce exactly across machines.
fn model_knee_flit_load(params: BftParams, worm_flits: f64) -> Result<f64, ExperimentError> {
    // Reference rate such that the default multiplier range [1e-3, 64]
    // spans flit loads well past every machine's knee.
    let reference_lambda0 = 2.5e-4;
    let spec = bft_spec(&params, worm_flits, reference_lambda0);
    let knee = spec.find_knee(&ModelOptions::paper(), &KneeConfig::default())?;
    Ok(knee.knee * reference_lambda0 * worm_flits)
}

struct SimPoint {
    name: String,
    n: usize,
    flit_load: f64,
    lanes: u32,
    engine: EngineKind,
    median_ns: u64,
    cycles_run: u64,
    cycles_skipped: u64,
}

impl SimPoint {
    /// Times `reps` runs of one operating point; the point's deterministic
    /// fields come from the last run.
    fn measure(
        name: String,
        flit_load: f64,
        reps: usize,
        mut run: impl FnMut() -> SimResult,
    ) -> Result<Self, ExperimentError> {
        let mut last = None;
        let median_ns = median_ns(reps, || last = Some(run()));
        let r =
            last.ok_or_else(|| ExperimentError::Invalid("no benchmark repetition ran".into()))?;
        Ok(Self {
            name,
            n: r.num_processors,
            flit_load,
            lanes: r.lanes,
            engine: r.engine,
            median_ns,
            cycles_run: r.cycles_run,
            cycles_skipped: r.cycles_skipped,
        })
    }

    fn cycles_per_sec(&self) -> f64 {
        if self.median_ns == 0 {
            f64::NAN
        } else {
            self.cycles_run as f64 / (self.median_ns as f64 * 1e-9)
        }
    }
}

/// The simulator bench configuration: small enough for CI, long enough to
/// reach steady state (mirrors `wormsim_bench::bench_sim_config`).
fn bench_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 4_000,
        drain_cap_cycles: 20_000,
        seed,
        batches: 4,
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building topologies,
/// fault plans, traffic configs, or bracketing the anchor knees.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("bench-baseline");
    let reps = if ctx.quick { 3 } else { 15 };

    // ---- Simulator set: (N, flit load) across the idle→busy spectrum,
    // each point on both cores. The (1024, 0.05) point is saturating:
    // zero idle cycles, the regime fast-forwarding cannot touch. ----
    let mut grid: Vec<(usize, f64)> = vec![
        (16, 0.001),
        (16, 0.0025),
        (64, 0.005),
        (256, 0.01),
        (1024, 0.01),
        (1024, 0.05),
    ];
    if ctx.quick {
        grid.retain(|&(n, _)| n <= 256);
    }
    const ENGINES: [(EngineKind, &str); 2] = [
        (EngineKind::Reference, "ref"),
        (EngineKind::FastForward, "ff"),
    ];
    let single = LaneConfig::single();
    let disabled = ObsConfig::disabled();
    let mut sim_points: Vec<SimPoint> = Vec::new();
    for &(n, flit_load) in &grid {
        let tree = ButterflyFatTree::new(BftParams::paper(n)?);
        let router = BftRouter::new(&tree);
        let cfg = bench_cfg(ctx.seed);
        let traffic = TrafficConfig::from_flit_load(flit_load, 16)?;
        for (engine, suffix) in ENGINES {
            sim_points.push(SimPoint::measure(
                format!("bft{n}_load{flit_load}_{suffix}"),
                flit_load,
                reps,
                || run_simulation_observed(&router, &cfg, &traffic, &single, engine, &disabled),
            )?);
        }
    }

    // ---- Lanes group: the loaded regime (N=64 at 0.1 flits/cycle/PE)
    // across lane counts on the fast-forward core. Fast-forwarding finds
    // no idle spans here; the L = 1 point doubles as a no-overhead check
    // against the plain grid. ----
    let mut lane_points: Vec<SimPoint> = Vec::new();
    {
        let n = 64usize;
        let flit_load = 0.1;
        let tree = ButterflyFatTree::new(BftParams::paper(n)?);
        let router = BftRouter::new(&tree);
        let cfg = bench_cfg(ctx.seed);
        let traffic = TrafficConfig::from_flit_load(flit_load, 16)?;
        for lanes in [1u32, 2, 4] {
            let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree)?;
            lane_points.push(SimPoint::measure(
                format!("bft{n}_load{flit_load}_l{lanes}"),
                flit_load,
                reps,
                || run_simulation_with_lanes(&router, &cfg, &traffic, &lc),
            )?);
        }
    }

    // ---- Faulted group: the same loaded regime behind the fault-aware
    // router. The f0 point (empty plan) prices the fault-aware dispatch
    // itself — it must stay within noise of the pristine bft64_load0.1_l1
    // point, since an empty plan keeps every original code path. The f5
    // point (5% link knockout, still fully connected) times actual
    // degraded routing: restricted up-bundle masks and dead-lane
    // pre-occupancy. The group closes with a deliberately past-knee f5
    // point (1.5× the bracketed pristine model knee): the run saturates
    // by construction and must still complete within the drain cap and
    // be recorded — the totality the guard layer promises, priced. ----
    let knee64 = model_knee_flit_load(BftParams::paper(64)?, 16.0)?;
    let mut fault_points: Vec<SimPoint> = Vec::new();
    {
        let n = 64usize;
        let flit_load = 0.1;
        let tree = ButterflyFatTree::new(BftParams::paper(n)?);
        let cfg = bench_cfg(ctx.seed);
        let traffic = TrafficConfig::from_flit_load(flit_load, 16)?;
        let lc = LaneConfig::new(1, LaneAllocatorKind::FirstFree)?;
        let plans = [
            ("f0", FaultPlan::none(tree.network())),
            ("f5", link_faults(tree.network(), 0.05, 7)?),
        ];
        for (tag, plan) in plans {
            let router = FaultedBftRouter::new(&tree, plan)?;
            fault_points.push(SimPoint::measure(
                format!("bft{n}_load{flit_load}_{tag}_ff"),
                flit_load,
                reps,
                || run_simulation_with_lanes(&router, &cfg, &traffic, &lc),
            )?);
            if tag == "f5" {
                let past_knee = 1.5 * knee64;
                let past_traffic = TrafficConfig::from_flit_load(past_knee, 16)?;
                fault_points.push(SimPoint::measure(
                    "bft64_pastknee_f5_ff".to_string(),
                    past_knee,
                    reps,
                    || run_simulation_with_lanes(&router, &cfg, &past_traffic, &lc),
                )?);
            }
        }
    }

    // ---- Observability overhead A/B (bft64_load0.1_l1): the plain entry
    // point vs `run_simulation_observed` with the observer disabled. The
    // disabled path is one not-taken branch per hook, so the ratio must
    // stay within the ≤1% budget (tests/observability.rs enforces it in
    // release mode; this block is the committed evidence). A counters-only
    // enabled point is recorded for information. ----
    let (obs_plain_ns, obs_disabled_ns, obs_enabled_ns) = {
        let tree = ButterflyFatTree::new(BftParams::paper(64)?);
        let router = BftRouter::new(&tree);
        let cfg = bench_cfg(ctx.seed);
        let traffic = TrafficConfig::from_flit_load(0.1, 16)?;
        let lc = LaneConfig::new(1, LaneAllocatorKind::FirstFree)?;
        let obs_reps = if ctx.quick { 5 } else { 31 };
        let (plain, off) = interleaved_median_ns(
            obs_reps,
            || {
                std::hint::black_box(
                    run_simulation_with_lanes(&router, &cfg, &traffic, &lc).cycles_run,
                );
            },
            || {
                std::hint::black_box(
                    run_simulation_observed(
                        &router,
                        &cfg,
                        &traffic,
                        &lc,
                        EngineKind::FastForward,
                        &disabled,
                    )
                    .cycles_run,
                );
            },
        );
        let counters = ObsConfig::counters_only();
        let on = median_ns(obs_reps, || {
            std::hint::black_box(
                run_simulation_observed(
                    &router,
                    &cfg,
                    &traffic,
                    &lc,
                    EngineKind::FastForward,
                    &counters,
                )
                .cycles_run,
            );
        });
        (plain, off, on)
    };
    let obs_ratio = obs_disabled_ns as f64 / obs_plain_ns.max(1) as f64;

    // ---- Model set: solve costs + deterministic latency anchors.
    // Anchor loads are half the bracketed knee at each N — safely below
    // saturation at every machine size, no per-mode constants. ----
    let model_reps = reps * 4;
    let params = BftParams::paper(if ctx.quick { 256 } else { 1024 })?;
    let closed_anchor = 0.5 * model_knee_flit_load(params, 32.0)?;
    let closed = BftModel::new(params, 32.0);
    // Each timed solve is validated once up front so the timing closures
    // can consume the Result without panicking.
    let _ = closed.latency_at_flit_load(closed_anchor)?;
    let closed_ns = median_ns(model_reps, || {
        std::hint::black_box(
            closed
                .latency_at_flit_load(closed_anchor)
                .map(|l| l.total)
                .unwrap_or(f64::NAN),
        );
    });
    let framework_lambda0 = closed_anchor / 32.0;
    let _ = bft_spec(&params, 32.0, framework_lambda0).latency(&ModelOptions::paper())?;
    let framework_ns = median_ns(model_reps, || {
        let spec = bft_spec(&params, 32.0, framework_lambda0);
        std::hint::black_box(
            spec.latency(&ModelOptions::paper())
                .map(|l| l.total)
                .unwrap_or(f64::NAN),
        );
    });

    // Lane model: multi-lane solve cost plus deterministic latency anchors
    // (exact same floating-point values on every machine — the committed
    // baseline pins the lane model's numbers, not just its speed). The
    // anchor is half the single-lane knee, which lower-bounds every L.
    let lane_model_params = BftParams::paper(if ctx.quick { 64 } else { 1024 })?;
    let lane_model_load = 0.5 * model_knee_flit_load(lane_model_params, 16.0)?;
    let mut lane_solve_ns = Vec::new();
    let mut lane_latency = Vec::new();
    for lanes in [1u32, 2, 4] {
        let model = BftModel::with_options(
            lane_model_params,
            16.0,
            ModelOptions::paper().with_lanes(lanes),
        );
        let anchor = model.latency_at_flit_load(lane_model_load)?;
        let ns = median_ns(model_reps, || {
            std::hint::black_box(
                model
                    .latency_at_flit_load(lane_model_load)
                    .map(|l| l.total)
                    .unwrap_or(f64::NAN),
            );
        });
        lane_solve_ns.push(ns);
        lane_latency.push(anchor.total);
    }

    // Workload model sweep: rebuild-per-point vs build-once + rescale.
    let tree64 = ButterflyFatTree::new(BftParams::paper(64)?);
    let flows = FlowVector::build(&tree64, &DestinationPattern::hot_spot())?;
    let flow_loads = [0.0002, 0.0005, 0.0008, 0.0011, 0.0014];
    let opts = ModelOptions::paper();
    let _ = wormsim_core::flows::model_from_flows(tree64.network(), &flows, 16.0, 0.0014)?
        .latency(&opts)?;
    let rebuild_ns = median_ns(reps, || {
        for &l in &flow_loads {
            if let Ok(m) = wormsim_core::flows::model_from_flows(tree64.network(), &flows, 16.0, l)
            {
                std::hint::black_box(m.latency(&opts).map(|x| x.total).unwrap_or(f64::NAN));
            }
        }
    });
    let sweep_ns = median_ns(reps, || {
        if let Ok(mut sweep) = FlowModelSweep::new(tree64.network(), &flows, 16.0) {
            for &l in &flow_loads {
                std::hint::black_box(
                    sweep
                        .latency_at(l, &opts)
                        .map(|x| x.total)
                        .unwrap_or(f64::NAN),
                );
            }
        }
    });

    // ---- Render the report. ----
    let mut tbl = Table::new(vec![
        "point",
        "median us",
        "cycles/s",
        "not walked %",
        "vs ref",
    ]);
    for pair in sim_points.chunks(ENGINES.len()) {
        let ref_ns = pair[0].median_ns;
        for p in pair {
            tbl.row(vec![
                p.name.clone(),
                num(p.median_ns as f64 / 1e3, 1),
                format!("{:.2e}", p.cycles_per_sec()),
                num(100.0 * p.cycles_skipped as f64 / p.cycles_run as f64, 1),
                if p.engine == EngineKind::Reference {
                    "-".to_string()
                } else {
                    num(ref_ns as f64 / p.median_ns.max(1) as f64, 2)
                },
            ]);
        }
    }
    out.section(format!(
        "Benchmark baseline — {} repetitions per point (median), seed {:#x}.\n\
         Timings are per full simulation run (warmup 500 + measure 4000 cycles + drain).",
        reps, ctx.seed
    ));
    out.section(tbl.render());
    let mut lane_tbl = Table::new(vec!["point", "median us", "cycles/s", "vs L=1"]);
    let l1_ns = lane_points.first().map_or(1, |p| p.median_ns.max(1));
    for p in &lane_points {
        lane_tbl.row(vec![
            p.name.clone(),
            num(p.median_ns as f64 / 1e3, 1),
            format!("{:.2e}", p.cycles_per_sec()),
            num(p.median_ns as f64 / l1_ns as f64, 2),
        ]);
    }
    out.section("Lanes group (N=64, load 0.1, first-free allocator; loaded regime):");
    out.section(lane_tbl.render());
    let mut fault_tbl = Table::new(vec!["point", "median us", "cycles/s"]);
    for p in &fault_points {
        fault_tbl.row(vec![
            p.name.clone(),
            num(p.median_ns as f64 / 1e3, 1),
            format!("{:.2e}", p.cycles_per_sec()),
        ]);
    }
    out.section(format!(
        "Faulted group (N=64, load 0.1, fault-aware router; f0 = empty plan, \
         f5 = 5% link knockout; past-knee point at {:.4} flits/cycle/PE = 1.5× \
         the bracketed pristine knee {knee64:.4}):",
        1.5 * knee64,
    ));
    out.section(fault_tbl.render());
    out.section(format!(
        "Observability overhead (bft64_load0.1_l1, interleaved medians): plain {:.1} us, \
         observer-disabled {:.1} us → ratio {:.4} (budget ≤ 1.01); counters-only enabled \
         {:.1} us.",
        obs_plain_ns as f64 / 1e3,
        obs_disabled_ns as f64 / 1e3,
        obs_ratio,
        obs_enabled_ns as f64 / 1e3,
    ));
    out.section(format!(
        "Model: closed-form latency {:.1} us, framework solve {:.1} us (N={}, \
         knee-derived anchor load {:.4}).\n\
         Hot-spot flow sweep (5 points, N=64): rebuild {:.1} us, rescale {:.1} us.",
        closed_ns as f64 / 1e3,
        framework_ns as f64 / 1e3,
        params.num_processors(),
        closed_anchor,
        rebuild_ns as f64 / 1e3,
        sweep_ns as f64 / 1e3,
    ));

    // ---- Write the JSON baselines. ----
    let mut sim_json = String::from("{\n");
    let _ = writeln!(sim_json, "  \"schema\": \"wormsim-bench-sim/v7\",");
    let _ = writeln!(sim_json, "  \"quick\": {},", ctx.quick);
    let _ = writeln!(sim_json, "  \"repetitions\": {reps},");
    let _ = writeln!(
        sim_json,
        "  \"obs_overhead\": {{\"point\": \"bft64_load0.1_l1\", \"plain_median_ns\": \
         {obs_plain_ns}, \"disabled_median_ns\": {obs_disabled_ns}, \"ratio\": {}, \
         \"budget\": 1.01, \"counters_enabled_median_ns\": {obs_enabled_ns}}},",
        json_num(obs_ratio),
    );
    let _ = writeln!(sim_json, "  \"points\": [");
    let all_points: Vec<&SimPoint> = sim_points
        .iter()
        .chain(&lane_points)
        .chain(&fault_points)
        .collect();
    for (idx, p) in all_points.iter().enumerate() {
        let comma = if idx + 1 == all_points.len() { "" } else { "," };
        let _ = writeln!(
            sim_json,
            "    {{\"name\": \"{}\", \"n\": {}, \"flit_load\": {}, \"lanes\": {}, \
             \"engine\": \"{}\", \"median_ns\": {}, \"cycles_run\": {}, \
             \"cycles_skipped\": {}, \"cycles_per_sec\": {}}}{comma}",
            p.name,
            p.n,
            p.flit_load,
            p.lanes,
            p.engine.label(),
            p.median_ns,
            p.cycles_run,
            p.cycles_skipped,
            json_num(p.cycles_per_sec()),
        );
    }
    let _ = writeln!(sim_json, "  ]");
    sim_json.push_str("}\n");

    let mut model_json = String::from("{\n");
    let _ = writeln!(model_json, "  \"schema\": \"wormsim-bench-model/v4\",");
    let _ = writeln!(model_json, "  \"quick\": {},", ctx.quick);
    let _ = writeln!(model_json, "  \"repetitions\": {reps},");
    let _ = writeln!(
        model_json,
        "  \"closed_form_latency_ns\": {closed_ns},\n  \"framework_solve_ns\": {framework_ns},"
    );
    let _ = writeln!(
        model_json,
        "  \"anchor\": {{\"n\": {}, \"flit_load\": {}}},",
        params.num_processors(),
        json_num(closed_anchor),
    );
    let _ = writeln!(
        model_json,
        "  \"flow_sweep\": {{\"points\": {}, \"rebuild_ns\": {rebuild_ns}, \
         \"warm_rescale_ns\": {sweep_ns}}},",
        flow_loads.len(),
    );
    // Lane latencies are deterministic anchors (machine-independent to the
    // printed precision); solve times are snapshots like the rest.
    let _ = writeln!(
        model_json,
        "  \"lanes\": {{\"n\": {}, \"flit_load\": {}, \
         \"l1_solve_ns\": {}, \"l2_solve_ns\": {}, \"l4_solve_ns\": {}, \
         \"l1_latency\": {}, \"l2_latency\": {}, \"l4_latency\": {}}}",
        lane_model_params.num_processors(),
        json_num(lane_model_load),
        lane_solve_ns[0],
        lane_solve_ns[1],
        lane_solve_ns[2],
        json_num(lane_latency[0]),
        json_num(lane_latency[1]),
        json_num(lane_latency[2]),
    );
    model_json.push_str("}\n");

    // Only write when an output directory is configured — an implicit
    // cwd default would let any `cargo test` / `repro bench-baseline`
    // invocation from the repo root silently overwrite the *committed*
    // baselines with a quick-mode run (which is exactly how stale
    // `"quick": true` files slipped into past commits; the root
    // `bench_hygiene` test now guards the committed files).
    if let Some(dir) = &ctx.out_dir {
        for (name, body) in [
            ("BENCH_sim.json", sim_json),
            ("BENCH_model.json", model_json),
        ] {
            let path = dir.join(name);
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
                Ok(()) => out.artifacts.push(path),
                Err(e) => out
                    .report
                    .push_str(&format!("\n[warn] failed to write {name}: {e}\n")),
            }
        }
    } else {
        out.report
            .push_str("\n[note] no --out directory: baselines computed but not written.\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_baseline_writes_both_jsons_with_stable_anchors() {
        let dir = std::env::temp_dir().join(format!("wormsim_bench_{}", std::process::id()));
        let ctx = ExperimentContext {
            quick: true,
            out_dir: Some(dir.clone()),
            seed: 7,
        };
        let out = run(&ctx).unwrap();
        assert_eq!(out.artifacts.len(), 2, "report:\n{}", out.report);
        let sim = std::fs::read_to_string(dir.join("BENCH_sim.json")).unwrap();
        let model = std::fs::read_to_string(dir.join("BENCH_model.json")).unwrap();
        assert!(sim.contains("\"schema\": \"wormsim-bench-sim/v7\""));
        assert!(sim.contains("\"obs_overhead\""), "overhead point present");
        assert!(sim.contains("\"budget\": 1.01"));
        assert!(sim.contains("bft16_load0.001_ff"));
        assert!(
            sim.contains("bft16_load0.001_ref"),
            "reference grid points present"
        );
        assert!(sim.contains("\"engine\": \"reference\""));
        assert!(sim.contains("bft64_load0.1_l2"), "lanes sim group present");
        assert!(
            sim.contains("bft64_load0.1_f0_ff"),
            "empty-plan fault-overhead point present"
        );
        assert!(
            sim.contains("bft64_load0.1_f5_ff"),
            "degraded-routing fault points present"
        );
        assert!(
            sim.contains("bft64_pastknee_f5_ff"),
            "past-knee fault point present"
        );
        assert!(model.contains("\"schema\": \"wormsim-bench-model/v4\""));
        assert!(model.contains("\"anchor\""), "knee-derived anchor recorded");
        assert!(model.contains("\"lanes\""), "lanes model group present");
        assert!(model.contains("l4_latency"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn knee_derived_anchor_sits_below_the_model_knee() {
        let params = BftParams::paper(64).unwrap();
        let knee = model_knee_flit_load(params, 16.0).unwrap();
        assert!(knee > 0.0 && knee < 1.0, "implausible knee {knee}");
        // Half the knee must solve cleanly on every lane count (L=1 has
        // the smallest knee, so it lower-bounds the rest).
        for lanes in [1u32, 2, 4] {
            let model =
                BftModel::with_options(params, 16.0, ModelOptions::paper().with_lanes(lanes));
            model.latency_at_flit_load(0.5 * knee).unwrap();
        }
    }

    #[test]
    fn median_is_robust_to_order() {
        let mut vals = [5u64, 1, 9].iter().copied().cycle();
        let m = median_ns(3, || {
            let _ = vals.next();
        });
        // Can't assert the timing value, but the helper must not panic and
        // must return one of the samples.
        let _ = m;
    }
}
