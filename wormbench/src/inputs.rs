//! The inputs listing: what each workload runs, without timing anything.

use std::fmt::Write as _;

use crate::adapter;
use crate::bench::Ctx;
use crate::workloads::{self, Kind, CURVE_POINTS, MODEL_LANES, MODEL_PAIRS, WORM_FLITS};

/// Describes `kind`'s fabrics, traffic, lanes, fault plans, load ladder
/// (absolute and × knee) and the seeds of pass 0, for benchmark seed `seed`.
///
/// # Errors
///
/// A set-up that fails.
pub fn describe(kind: Kind, seed: u64) -> Result<String, String> {
    let mut ctx = Ctx::new(false);
    let mut out = String::new();
    let _ = writeln!(out, "{} (seed {seed}, s={WORM_FLITS} flits)", kind.name());
    if let Some(spec) = workloads::sim_spec(kind) {
        let trees = workloads::build_trees(spec.sizes, &mut ctx)?;
        let setup = workloads::sim_setup(&spec, &trees, seed, &mut ctx)?;
        let _ = writeln!(
            out,
            "  pattern {}, arrival {}, window {}+{} cycles (drain cap {}), observation {:?}",
            adapter::pattern_label(spec.pattern),
            adapter::arrival_label(spec.arrival),
            spec.warmup,
            spec.measure,
            spec.drain_cap,
            spec.observe,
        );
        for f in &setup.fabrics {
            let _ = writeln!(out, "  fabric {}: {}", f.label, f.plan);
            for r in &f.rungs {
                let model = r
                    .model_latency
                    .map_or(String::new(), |l| format!(", model latency {l:.4}"));
                let _ = writeln!(
                    out,
                    "    L={} load {:.6} = {:.2}x knee {:.6}{model}",
                    r.lanes,
                    r.load(),
                    r.factor,
                    r.knee
                );
            }
        }
        let jobs = workloads::sim_jobs(&spec, &setup, seed, 0);
        let seeds: Vec<String> = jobs.iter().map(|j| format!("{:#x}", j.job.seed)).collect();
        let _ = writeln!(
            out,
            "  pass 0: {} runs, {} per rung, seeds {}",
            jobs.len(),
            spec.seeds_per_rung,
            seeds.join(" ")
        );
    } else {
        let trees = workloads::build_trees(&workloads::MODEL_SIZES, &mut ctx)?;
        let setup = workloads::model_setup(&trees, seed, &mut ctx)?;
        for (i, p) in MODEL_PAIRS.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {}: pattern {}, {}, lanes {MODEL_LANES:?}, knee bracket from closed-form knee {:.6}, \
                 {CURVE_POINTS}-point curve from 0 to 1x knee",
                setup.label(i),
                adapter::pattern_label(p.pattern),
                adapter::plan_summary(setup.plans[i].as_ref()),
                setup.pristine_knees[i],
            );
        }
        let _ = writeln!(
            out,
            "  closed form: N=1024, s in {:?}, knee and {CURVE_POINTS}-point curve from 0 to 31/32 of it",
            workloads::FIG3_WORM_FLITS
        );
    }
    Ok(out)
}
