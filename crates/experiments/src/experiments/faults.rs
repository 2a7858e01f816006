//! Experiment R1 — fault injection: degraded model vs degraded simulation.
//!
//! Seeded link knockouts are applied to the butterfly fat-tree at
//! increasing failure fractions; for every fraction that leaves the
//! fabric fully connected, the analytical model is re-priced over the
//! *surviving* channels (degraded flow vector + per-station alive server
//! counts) and compared against the fault-aware simulator routing around
//! the same dead links. Two sections:
//!
//! 1. **Latency vs failure fraction** at fixed loads below the knee — the
//!    degraded model must keep tracking the degraded simulator as links
//!    die (the acceptance bar is ~5% below the knee at ≤10% failures).
//! 2. **Saturation vs failure fraction** — usable capacity erodes as the
//!    up-bundles thin; simulator knee (bisection-free load scan) vs the
//!    degraded model's own knee on the same grid.
//!
//! Knockout seeds are derived deterministically from the context seed;
//! fractions whose first candidate plans disconnect the fabric scan
//! forward to the next connected seed (reported, never silently skipped).

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_core::flows::FlowModelSweep;
use wormsim_core::options::ModelOptions;
use wormsim_faults::{link_faults, FaultPlan, FaultedBft};
use wormsim_guard::KneeConfig;
use wormsim_sim::config::TrafficConfig;
use wormsim_sim::router::FaultedBftRouter;
use wormsim_sim::runner::{find_saturation, run_simulation};
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_workload::{DestinationPattern, FlowVector};

/// First seed (scanning from `base`) whose `fraction` knockout keeps the
/// tree fully connected, with the realized plan. Returns the number of
/// rejected seeds alongside.
pub(crate) fn connected_plan(
    tree: &ButterflyFatTree,
    fraction: f64,
    base: u64,
) -> Result<(FaultPlan, u64, usize), ExperimentError> {
    for offset in 0..256u64 {
        let seed = base.wrapping_add(offset);
        let plan = link_faults(tree.network(), fraction, seed)?;
        let bft = FaultedBft::new(tree, plan.clone())?;
        if bft.fully_connected() {
            // Every earlier offset was rejected, so the count is `offset`.
            return Ok((plan, seed, offset as usize));
        }
    }
    Err(ExperimentError::Invalid(format!(
        "no connected {fraction} knockout found within 256 seeds"
    )))
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building topologies,
/// fault plans, or degraded models.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("faults");
    let n_procs = 64usize;
    let s = 16u32;
    let params = BftParams::paper(n_procs)?;
    let tree = ButterflyFatTree::new(params);
    let cfg = ctx.sim_config();

    let pristine_knee = BftModel::new(params, f64::from(s)).saturation_flit_load()?;
    let fractions: &[f64] = if ctx.quick {
        &[0.0, 0.05, 0.10]
    } else {
        &[0.0, 0.02, 0.05, 0.08, 0.10]
    };
    let load_fractions: &[f64] = if ctx.quick {
        &[0.25, 0.45]
    } else {
        &[0.2, 0.35, 0.5]
    };

    out.section(format!(
        "Fault injection — butterfly fat-tree N={n_procs}, s={s} flits, uniform \
         traffic, seeded link knockouts (injection/ejection channels protected).\n\
         Model: per-station §2 classes over the degraded flow vector, up-bundle \
         server counts reduced to the surviving links. Simulation: fault-aware \
         adaptive routing around the same dead links. Pristine knee {pristine_knee:.4} \
         flits/cycle/PE; latency loads are fixed fractions of each degraded fabric's \
         *own* model knee, so every point sits comparably below its knee. Base seed {:#x}.",
        ctx.seed
    ));

    // ---- Latency vs failure fraction at fixed sub-knee loads. ----
    let mut tbl = Table::new(vec![
        "fail frac",
        "dead links",
        "load (flits/cyc/PE)",
        "model L",
        "sim L",
        "ci95",
        "rel err %",
    ]);
    let mut csv = Csv::new(&[
        "fail_fraction",
        "dead_links",
        "seed",
        "flit_load",
        "model_latency",
        "sim_latency",
        "sim_ci95",
        "rel_err_pct",
        "sim_saturated",
        "messages_unroutable",
    ]);
    let mut plans: Vec<(f64, FaultPlan, u64)> = Vec::new();
    for &frac in fractions {
        let (plan, seed, rejected) = connected_plan(&tree, frac, ctx.seed)?;
        if rejected > 0 {
            out.section(format!(
                "[note] fraction {frac}: skipped {rejected} disconnecting seed(s), \
                 using seed {seed:#x}."
            ));
        }
        plans.push((frac, plan, seed));
    }
    let step = if ctx.quick { 0.01 } else { 0.005 };
    let mut tbl2 = Table::new(vec![
        "fail frac",
        "dead links",
        "sim last stable",
        "sim saturated at",
        "model knee",
    ]);
    let mut csv2 = Csv::new(&[
        "fail_fraction",
        "dead_links",
        "seed",
        "sim_last_stable",
        "sim_first_saturated",
        "model_knee",
    ]);
    for (frac, plan, seed) in &plans {
        let bft = FaultedBft::new(&tree, plan.clone())?;
        let flows = FlowVector::build(&bft, &DestinationPattern::Uniform)?;
        let alive = plan.alive_servers(tree.network());
        let mut model =
            FlowModelSweep::new_with_servers(tree.network(), &flows, f64::from(s), Some(&alive))?;
        let router = FaultedBftRouter::new(&tree, plan.clone())?;

        // The degraded model's own knee, bracketed by the guard layer
        // (bisection over saturation-aware probes) instead of the old
        // grid scan. `find_knee` works in λ₀, so convert to flit load.
        let knee_cfg = KneeConfig {
            initial: step / f64::from(s),
            max: 1.5 * pristine_knee / f64::from(s),
            rel_tolerance: 5e-3,
            max_probes: 200,
        };
        let model_knee = model.find_knee(&ModelOptions::paper(), &knee_cfg)?.knee * f64::from(s);
        let (last_stable, first_sat) = find_saturation(
            &router,
            &cfg,
            s,
            0.4 * model_knee.max(step),
            step,
            1.5 * pristine_knee,
        );
        tbl2.row(vec![
            num(*frac, 2),
            plan.dead_channel_count().to_string(),
            num(last_stable, 4),
            first_sat.map_or("-".to_string(), |v| num(v, 4)),
            num(model_knee, 4),
        ]);
        csv2.row(&[
            frac.to_string(),
            plan.dead_channel_count().to_string(),
            format!("{seed:#x}"),
            format!("{last_stable:.5}"),
            first_sat.map_or("-".into(), |v| format!("{v:.5}")),
            format!("{model_knee:.5}"),
        ]);

        for &lf in load_fractions {
            let load = lf * model_knee;
            let lambda0 = load / f64::from(s);
            let model_l = model
                .latency_at(lambda0, &ModelOptions::paper())
                .map(|l| l.total);
            let traffic = TrafficConfig::from_flit_load(load, s)?;
            let r = run_simulation(&router, &cfg, &traffic);
            let (model_txt, err_txt, err_pct) = match (&model_l, r.saturated) {
                (Ok(m), false) => {
                    let err = 100.0 * (m - r.avg_latency) / r.avg_latency;
                    (num(*m, 2), num(err, 1), Some(err))
                }
                (Ok(m), true) => (num(*m, 2), "-".to_string(), None),
                (Err(_), _) => ("SAT".to_string(), "-".to_string(), None),
            };
            tbl.row(vec![
                num(*frac, 2),
                plan.dead_channel_count().to_string(),
                num(load, 4),
                model_txt,
                num(r.avg_latency, 2),
                num(r.latency_ci95, 2),
                err_txt,
            ]);
            csv.row(&[
                frac.to_string(),
                plan.dead_channel_count().to_string(),
                format!("{seed:#x}"),
                format!("{load:.5}"),
                model_l.map_or("saturated".into(), |v| format!("{v:.3}")),
                format!("{:.3}", r.avg_latency),
                format!("{:.3}", r.latency_ci95),
                err_pct.map_or("-".into(), |e| format!("{e:.2}")),
                r.saturated.to_string(),
                r.messages_unroutable.to_string(),
            ]);
        }
    }
    out.section("== latency vs failure fraction (loads scaled to each degraded knee) ==");
    out.section(tbl.render());
    ctx.write_csv(&csv, "faults_latency_vs_fraction.csv", &mut out);

    out.section("== saturation throughput vs failure fraction ==");
    out.section(tbl2.render());
    ctx.write_csv(&csv2, "faults_saturation_vs_fraction.csv", &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_both_csvs_and_tracks_the_sim() {
        let dir = std::env::temp_dir().join(format!("wormsim_faults_{}", std::process::id()));
        let ctx = ExperimentContext {
            quick: true,
            out_dir: Some(dir.clone()),
            seed: 7,
        };
        let out = run(&ctx).unwrap();
        assert_eq!(out.artifacts.len(), 2, "report:\n{}", out.report);
        let latency = std::fs::read_to_string(dir.join("faults_latency_vs_fraction.csv")).unwrap();
        // Every sub-knee point on a connected fabric: no drops, model
        // within tolerance (the CSV carries the per-point relative error).
        for line in latency.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 10, "row: {line}");
            assert_eq!(cols[9], "0", "connected fabric must not drop: {line}");
            let err: f64 = cols[7].parse().expect("error column parses");
            assert!(
                err.abs() < 8.0,
                "degraded model off by {err}% in quick mode: {line}"
            );
        }
        let sat = std::fs::read_to_string(dir.join("faults_saturation_vs_fraction.csv")).unwrap();
        assert!(sat.lines().count() >= 4, "one row per fraction:\n{sat}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
