//! The four workloads: their inputs, set-up, one pass of measured work,
//! and the checks on what that work produced.
//!
//! Every workload uses 16-flit worms and places its loads relative to the
//! fabric's model knee, so the inputs follow the model rather than tuned
//! constants. A pass is the workload's batch of operations completed one
//! call after another on one thread; pass `p` draws its seeds from the
//! benchmark seed and `p`.

use std::time::Instant;

use crate::adapter::{self, Arrival, Observe, Pattern, SimJob, SimOutcome};
use crate::bench::{add, Ctx, Tally};
use crate::digest;
use crate::pins;

/// Worm length in flits, for every workload.
pub const WORM_FLITS: u32 = 16;

/// The seed whose outputs are pinned in [`crate::pins`].
pub const DEFAULT_SEED: u64 = 1;

/// Seed derivation (splitmix64 finaliser over `seed + i·golden`).
#[must_use]
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SimLoaded,
    LanesSaturation,
    ModelFlows,
    SimSparse,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SimLoaded,
        Kind::LanesSaturation,
        Kind::ModelFlows,
        Kind::SimSparse,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::SimLoaded => "sim-loaded",
            Kind::LanesSaturation => "lanes-saturation",
            Kind::ModelFlows => "model-flows",
            Kind::SimSparse => "sim-sparse",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Link-failure fraction of the faulted fabrics.
const FAULT_FRACTION: f64 = 0.05;

/// First knockout seed tried for the faulted N=64 fabric, which
/// lanes-saturation and model-flows share.
fn fault_seed(seed: u64) -> u64 {
    mix(seed, 0xFA)
}

/// Builds the trees of a workload, one `topology.build` span each.
pub fn build_trees(sizes: &[usize], ctx: &mut Ctx) -> adapter::Result<Vec<adapter::Tree>> {
    sizes
        .iter()
        .map(|&n| {
            let run = ctx.run_id();
            ctx.span("topology.build", run, || adapter::bft(n))
        })
        .collect()
}

/// The first seeded `fraction` link knockout, scanning seeds from `base`,
/// that keeps the tree connected; with the number of plans rejected.
fn connected_plan(
    tree: &adapter::Tree,
    base: u64,
    ctx: &mut Ctx,
) -> adapter::Result<(adapter::Plan, usize)> {
    let run = ctx.run_id();
    ctx.span("faults.plan", run, || {
        for offset in 0..256u64 {
            let (plan, connected) =
                adapter::link_plan(tree, FAULT_FRACTION, base.wrapping_add(offset))?;
            if connected {
                return Ok((plan, offset as usize));
            }
        }
        Err(format!(
            "no connected {FAULT_FRACTION} knockout within 256 seeds"
        ))
    })
}

/// Closed-form (Eq. 26) knee, one `core.closed_form` span.
fn closed_form_knee(
    model: &adapter::ClosedForm,
    run: u64,
    tally: &mut Tally,
    ctx: &mut Ctx,
) -> adapter::Result<f64> {
    ctx.attempted += 1;
    add(tally, "core.closed_form_queries", 1.0);
    ctx.span("core.closed_form", run, || adapter::closed_form_knee(model))
}

/// Closed-form (Eq. 25) latency at a flit load, one `core.closed_form` span.
fn closed_form_latency(
    model: &adapter::ClosedForm,
    flit_load: f64,
    run: u64,
    tally: &mut Tally,
    ctx: &mut Ctx,
) -> adapter::Result<f64> {
    ctx.attempted += 1;
    add(tally, "core.closed_form_queries", 1.0);
    ctx.span("core.closed_form", run, || {
        adapter::closed_form_latency(model, flit_load)
    })
}

// ------------------------------------------------------------ simulation

/// A fabric of a simulation workload.
struct FabricSpec {
    tree: usize,
    faulted: bool,
    lanes: &'static [u32],
}

/// A simulation workload: fabrics, load ladder (× model knee), traffic,
/// window and seeds per rung.
pub struct SimSpec {
    pub sizes: &'static [usize],
    fabrics: &'static [FabricSpec],
    pub factors: &'static [f64],
    pub pattern: Pattern,
    pub arrival: Arrival,
    pub warmup: u64,
    pub measure: u64,
    pub drain_cap: u64,
    pub observe: Observe,
    pub seeds_per_rung: u64,
}

/// The simulation workloads; `None` for model-flows.
#[must_use]
pub fn sim_spec(kind: Kind) -> Option<SimSpec> {
    match kind {
        // Every cycle is walked: per-worm bookkeeping is nearly all of the
        // time. Loads stay below the simulator's own knee (≈1.12×).
        Kind::SimLoaded => Some(SimSpec {
            sizes: &[1024],
            fabrics: &[FabricSpec {
                tree: 0,
                faulted: false,
                lanes: &[1],
            }],
            factors: &[0.3, 0.5, 0.7, 0.85],
            pattern: Pattern::Uniform,
            arrival: Arrival::Poisson,
            warmup: 20_000,
            measure: 60_000,
            drain_cap: 150_000,
            observe: Observe::Off,
            seeds_per_rung: 1,
        }),
        // Lane spans, stall list, fault-restricted routes, saturated
        // probes draining, obs counters and time series. The 2.0× rung is
        // there because the 5 % faulted N=64 fabric's degraded-model knee
        // sits well below the simulator's: nothing up to 1.5× saturates.
        // The window is shorter than the experiments' 20k+60k so that a
        // pass stays a few seconds long.
        Kind::LanesSaturation => Some(SimSpec {
            sizes: &[256, 64],
            fabrics: &[
                FabricSpec {
                    tree: 0,
                    faulted: false,
                    lanes: &[2, 4],
                },
                FabricSpec {
                    tree: 1,
                    faulted: true,
                    lanes: &[1, 2],
                },
            ],
            factors: &[0.5, 0.75, 1.0, 1.25, 1.5, 2.0],
            pattern: Pattern::Uniform,
            arrival: Arrival::Poisson,
            warmup: 5_000,
            measure: 20_000,
            drain_cap: 40_000,
            observe: Observe::CountersAndSeries { window: 1_000 },
            seeds_per_rung: 1,
        }),
        // Idle skipping, arrival generation and engine construction:
        // many short runs with little per-worm work.
        Kind::SimSparse => Some(SimSpec {
            sizes: &[64],
            fabrics: &[FabricSpec {
                tree: 0,
                faulted: false,
                lanes: &[1],
            }],
            factors: &[0.02, 0.04, 0.06, 0.08, 0.10],
            pattern: Pattern::HotSpot,
            arrival: Arrival::Bursty,
            warmup: 20_000,
            measure: 60_000,
            drain_cap: 150_000,
            observe: Observe::Off,
            seeds_per_rung: 4,
        }),
        Kind::ModelFlows => None,
    }
}

/// One load of a ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub lanes: u32,
    /// Model knee at this lane count and fault plan, flits/cycle/PE.
    pub knee: f64,
    pub factor: f64,
    /// Closed-form latency at this load (pristine single-lane rungs only).
    pub model_latency: Option<f64>,
}

impl Rung {
    #[must_use]
    pub fn load(&self) -> f64 {
        self.factor * self.knee
    }
}

pub struct SimFabric<'t> {
    pub label: String,
    pub plan: String,
    router: adapter::Router<'t>,
    pub rungs: Vec<Rung>,
}

pub struct SimSetup<'t> {
    pub fabrics: Vec<SimFabric<'t>>,
    pub tally: Tally,
}

/// Routers, fault plans and the load ladders over the given trees.
pub fn sim_setup<'t>(
    spec: &SimSpec,
    trees: &'t [adapter::Tree],
    seed: u64,
    ctx: &mut Ctx,
) -> adapter::Result<SimSetup<'t>> {
    let mut tally = Tally::new();
    let mut fabrics = Vec::new();
    for f in spec.fabrics {
        let tree = &trees[f.tree];
        let n = adapter::processors(tree);
        let plan = if f.faulted {
            let (plan, rejected) = connected_plan(tree, fault_seed(seed), ctx)?;
            add(&mut tally, "faults.plans_rejected", rejected as f64);
            Some(plan)
        } else {
            None
        };
        // One run id for the fabric's router, model and ladder.
        let run = ctx.run_id();
        let router = ctx.span("sim.router_build", run, || {
            adapter::router(tree, plan.as_ref())
        })?;
        let closed_form = adapter::closed_form(n, WORM_FLITS)?;
        let pristine_knee = closed_form_knee(&closed_form, run, &mut tally, ctx)?;

        // Pristine single-lane fabrics take the closed-form knee; lanes or
        // faults take the flow model's bracketed knee.
        let needs_flow_model = plan.is_some() || f.lanes.iter().any(|&l| l > 1);
        let mut sweep = if needs_flow_model {
            let (flows, sweep) = build_model(tree, plan.as_ref(), spec.pattern, run, ctx)?;
            add(
                &mut tally,
                "workload.flow_transitions",
                adapter::flow_transitions(&flows) as f64,
            );
            Some(sweep)
        } else {
            None
        };
        let mut rungs = Vec::new();
        for &lanes in f.lanes {
            let knee = match sweep.as_mut() {
                Some(sweep) => {
                    let k = knee(sweep, lanes, pristine_knee, run, ctx)?;
                    add(&mut tally, "guard.knee_probes", k.probes as f64);
                    k.lambda0 * f64::from(WORM_FLITS)
                }
                None => pristine_knee,
            };
            for &factor in spec.factors {
                // Only where the traffic meets the closed form's
                // assumptions: uniform Poisson on a pristine fabric.
                let model_latency = if sweep.is_none()
                    && spec.pattern == Pattern::Uniform
                    && spec.arrival == Arrival::Poisson
                {
                    Some(closed_form_latency(
                        &closed_form,
                        factor * knee,
                        run,
                        &mut tally,
                        ctx,
                    )?)
                } else {
                    None
                };
                rungs.push(Rung {
                    lanes,
                    knee,
                    factor,
                    model_latency,
                });
            }
        }
        if let Some(sweep) = &sweep {
            let (solves, iterations) = adapter::solver_counts(sweep);
            add(&mut tally, "queueing.solves", solves as f64);
            add(&mut tally, "queueing.solver_iterations", iterations as f64);
        }
        fabrics.push(SimFabric {
            label: format!("bft{n}{}", if f.faulted { "-f5" } else { "" }),
            plan: adapter::plan_summary(plan.as_ref()),
            router,
            rungs,
        });
    }
    Ok(SimSetup { fabrics, tally })
}

/// One simulation of a pass.
#[derive(Debug, Clone, Copy)]
pub struct JobRef {
    pub fabric: usize,
    pub model_latency: Option<f64>,
    pub job: SimJob,
}

/// The jobs of pass `pass`, in execution order.
#[must_use]
pub fn sim_jobs(spec: &SimSpec, setup: &SimSetup<'_>, seed: u64, pass: u64) -> Vec<JobRef> {
    let pass_seed = mix(seed, pass);
    let mut jobs = Vec::new();
    for (fi, f) in setup.fabrics.iter().enumerate() {
        for r in &f.rungs {
            for _ in 0..spec.seeds_per_rung {
                let i = jobs.len() as u64;
                jobs.push(JobRef {
                    fabric: fi,
                    model_latency: r.model_latency,
                    job: SimJob {
                        flit_load: r.load(),
                        worm_flits: WORM_FLITS,
                        pattern: spec.pattern,
                        arrival: spec.arrival,
                        lanes: r.lanes,
                        warmup: spec.warmup,
                        measure: spec.measure,
                        drain_cap: spec.drain_cap,
                        seed: mix(pass_seed, i),
                        observe: spec.observe,
                    },
                });
            }
        }
    }
    jobs
}

struct SimRun {
    at: JobRef,
    out: SimOutcome,
    call_s: f64,
}

/// One pass of a simulation workload. In a traced pass every simulation
/// is rerun afterwards with observation flipped, which gives the
/// observation overhead and, for unobserved workloads, the obs counters.
pub fn sim_pass(
    kind: Kind,
    spec: &SimSpec,
    setup: &SimSetup<'_>,
    seed: u64,
    pass: u64,
    traced: bool,
    ctx: &mut Ctx,
) -> Tally {
    let jobs = sim_jobs(spec, setup, seed, pass);
    let run = ctx.run_id();
    let start = Instant::now();
    let span = ctx.tracer.open("bench.pass", run);
    let mut runs = Vec::with_capacity(jobs.len());
    for at in &jobs {
        let run = ctx.run_id();
        ctx.attempted += 1;
        match adapter::simulate(&setup.fabrics[at.fabric].router, &at.job) {
            Ok((out, t)) => {
                ctx.tracer.record("sim.engine_build", run, t.start, t.built);
                ctx.tracer.record("sim.run", run, t.built, t.end);
                let call_s = (t.end - t.start).as_secs_f64();
                runs.push(SimRun {
                    at: *at,
                    out,
                    call_s,
                });
            }
            Err(e) => ctx.fail(format!("{}: simulation failed: {e}", kind.name())),
        }
    }
    ctx.tracer.close(span);
    let wall = start.elapsed().as_secs_f64();

    let mut tally = Tally::new();
    add(&mut tally, "wall_s", wall);
    tally_sims(&runs, spec, &mut tally);
    check_sims(kind, setup, &runs, ctx);
    if pass == 0 && !traced {
        check_pass0(kind, setup, &runs, seed, ctx);
    }
    if traced {
        rerun_flipped(setup, &runs, &mut tally, ctx);
    }
    tally
}

fn tally_sims(runs: &[SimRun], spec: &SimSpec, tally: &mut Tally) {
    let window = spec.warmup + spec.measure;
    let (mut dev_sum, mut dev_points) = (0.0, 0.0);
    let mut max_active = 0u64;
    for r in runs {
        let o = &r.out;
        add(tally, "e2e.sim_s", r.call_s);
        add(tally, "sim.runs", 1.0);
        add(tally, "sim.cycles_run", o.cycles_run as f64);
        add(tally, "sim.cycles_skipped", o.cycles_skipped as f64);
        add(
            tally,
            "sim.cycles_walked",
            (o.cycles_run - o.cycles_skipped) as f64,
        );
        add(
            tally,
            "sim.drain_cycles",
            o.cycles_run.saturating_sub(window) as f64,
        );
        add(
            tally,
            "sim.saturated_runs",
            f64::from(u8::from(o.saturated)),
        );
        add(tally, "sim.msgs_measured", o.measured as f64);
        add(tally, "sim.msgs_completed", o.completed as f64);
        add(tally, "sim.msgs_incomplete", o.incomplete as f64);
        add(tally, "sim.msgs_unroutable", o.unroutable as f64);
        max_active = max_active.max(o.max_active_worms);
        if let Some(obs) = &o.obs {
            add_obs(tally, obs);
        }
        if let Some(model) = r.at.model_latency {
            dev_sum += (model - o.avg_latency).abs() / o.avg_latency * 100.0;
            dev_points += 1.0;
        }
    }
    tally.insert("sim.max_active_worms".into(), max_active as f64);
    add(tally, "e2e.dev_pct_sum", dev_sum);
    add(tally, "e2e.dev_points", dev_points);
}

fn add_obs(tally: &mut Tally, obs: &adapter::ObsCounts) {
    add(tally, "lanes.grants", obs.lane_grants as f64);
    add(tally, "obs.stalls_link_busy", obs.stalls_link_busy as f64);
    add(
        tally,
        "obs.stalls_no_free_lane",
        obs.stalls_no_free_lane as f64,
    );
    add(
        tally,
        "obs.stalls_fcfs_queued",
        obs.stalls_fcfs_queued as f64,
    );
    add(
        tally,
        "obs.channel_busy_cycles",
        obs.channel_busy_cycles as f64,
    );
}

/// Output checks on every simulation, and the workload's traffic rules.
fn check_sims(kind: Kind, setup: &SimSetup<'_>, runs: &[SimRun], ctx: &mut Ctx) {
    for r in runs {
        let o = &r.out;
        let what = || {
            let f = &setup.fabrics[r.at.fabric];
            format!(
                "{} {} L={} load {:.6} seed {:#x}",
                kind.name(),
                f.label,
                r.at.job.lanes,
                r.at.job.flit_load,
                r.at.job.seed
            )
        };
        ctx.check(o.unroutable == 0, || {
            format!(
                "{}: {} unroutable messages on a connected fabric",
                what(),
                o.unroutable
            )
        });
        ctx.check(o.saturated || o.incomplete == 0, || {
            format!(
                "{}: {} incomplete messages in an unsaturated run",
                what(),
                o.incomplete
            )
        });
        ctx.check(
            o.completed > 0 && o.avg_latency.is_finite() && o.avg_latency >= f64::from(WORM_FLITS),
            || {
                format!(
                    "{}: implausible mean latency {} over {} messages",
                    what(),
                    o.avg_latency,
                    o.completed
                )
            },
        );
        match (&o.obs, r.at.job.observe) {
            (None, Observe::Off) => {}
            (Some(obs), observe @ (Observe::Counters | Observe::CountersAndSeries { .. })) => {
                if let Err(e) = &obs.consistent {
                    ctx.fail(format!("{}: observation inconsistent: {e}", what()));
                }
                let series = matches!(observe, Observe::CountersAndSeries { .. });
                ctx.check((obs.windows > 0) == series, || {
                    format!(
                        "{}: time series {} windows, requested: {series}",
                        what(),
                        obs.windows
                    )
                });
            }
            _ => ctx.fail(format!(
                "{}: observation snapshot does not match the request",
                what()
            )),
        }
    }
    match kind {
        Kind::SimLoaded => {
            let saturated = runs.iter().filter(|r| r.out.saturated).count();
            ctx.check(saturated == 0, || {
                format!("sim-loaded: {saturated} saturated runs below the knee")
            });
        }
        Kind::LanesSaturation => {
            for (fi, f) in setup.fabrics.iter().enumerate() {
                let any = runs.iter().any(|r| r.at.fabric == fi && r.out.saturated);
                ctx.check(any, || {
                    format!("lanes-saturation: no saturated probe on {}", f.label)
                });
            }
        }
        Kind::SimSparse => {
            let skipped: u64 = runs.iter().map(|r| r.out.cycles_skipped).sum();
            ctx.check(skipped > 0, || {
                "sim-sparse: no cycle was skipped".to_string()
            });
        }
        Kind::ModelFlows => {}
    }
}

/// Pass 0 against the pinned digests at the default seed; elsewhere one
/// run replayed on the Reference core, which must agree bit for bit.
fn check_pass0(kind: Kind, setup: &SimSetup<'_>, runs: &[SimRun], seed: u64, ctx: &mut Ctx) {
    if seed == DEFAULT_SEED {
        let d = digest::combine(runs.iter().flat_map(|r| [r.out.digest, r.out.obs_digest]));
        pins::check_digest(ctx, &format!("{}/pass0", kind.name()), d);
        for f in &setup.fabrics {
            for r in &f.rungs {
                let key = format!("{}/{}/L{}/x{}", kind.name(), f.label, r.lanes, r.factor);
                pins::check_value(ctx, &format!("{key}/knee"), r.knee);
                if let Some(l) = r.model_latency {
                    pins::check_value(ctx, &format!("{key}/model_latency"), l);
                }
            }
        }
        return;
    }
    let Some(r) = runs.get((seed % runs.len().max(1) as u64) as usize) else {
        return;
    };
    ctx.attempted += 1;
    match adapter::simulate_reference(&setup.fabrics[r.at.fabric].router, &r.at.job) {
        Ok(reference) => {
            let same = reference.digest == r.out.digest && reference.obs_digest == r.out.obs_digest;
            ctx.check(same, || {
                format!(
                    "{}: seed {:#x} differs from its Reference-core replay",
                    kind.name(),
                    r.at.job.seed
                )
            });
        }
        Err(e) => ctx.fail(format!("{}: reference replay failed: {e}", kind.name())),
    }
}

/// Reruns every simulation of a traced pass with observation flipped. The
/// results must be identical (observation is RNG-neutral); the time ratio
/// observed/plain is the observation overhead.
fn rerun_flipped(setup: &SimSetup<'_>, runs: &[SimRun], tally: &mut Tally, ctx: &mut Ctx) {
    ctx.tracer.set_enabled(false);
    let (mut observed_s, mut plain_s) = (0.0, 0.0);
    for r in runs {
        let mut job = r.at.job;
        job.observe = match job.observe {
            Observe::Off => Observe::Counters,
            Observe::Counters | Observe::CountersAndSeries { .. } => Observe::Off,
        };
        ctx.attempted += 1;
        match adapter::simulate(&setup.fabrics[r.at.fabric].router, &job) {
            Ok((out, t)) => {
                let s = (t.end - t.start).as_secs_f64();
                ctx.check(out.digest == r.out.digest, || {
                    format!(
                        "seed {:#x}: observation changed the simulation result",
                        job.seed
                    )
                });
                match &out.obs {
                    Some(obs) => {
                        add_obs(tally, obs);
                        observed_s += s;
                        plain_s += r.call_s;
                    }
                    None => {
                        observed_s += r.call_s;
                        plain_s += s;
                    }
                }
            }
            Err(e) => ctx.fail(format!("observation rerun failed: {e}")),
        }
    }
    if plain_s > 0.0 {
        tally.insert("obs.overhead_ratio".into(), observed_s / plain_s);
    }
    ctx.tracer.set_enabled(true);
}

// ----------------------------------------------------------------- model

/// Flow vector then sweep, one span each.
fn build_model(
    tree: &adapter::Tree,
    plan: Option<&adapter::Plan>,
    pattern: Pattern,
    run: u64,
    ctx: &mut Ctx,
) -> adapter::Result<(adapter::Flows, adapter::Sweep)> {
    ctx.attempted += 2;
    let flows = ctx.span("workload.flow_build", run, || {
        adapter::flow_vector(tree, plan, pattern)
    });
    let flows = flows?;
    let sweep = ctx.span("core.sweep_build", run, || {
        adapter::sweep(tree, plan, &flows, WORM_FLITS)
    });
    Ok((flows, sweep?))
}

/// `find_knee` in one `guard.knee` span.
fn knee(
    sweep: &mut adapter::Sweep,
    lanes: u32,
    pristine_knee: f64,
    run: u64,
    ctx: &mut Ctx,
) -> adapter::Result<adapter::Knee> {
    ctx.attempted += 1;
    let k = ctx.span("guard.knee", run, || {
        adapter::knee(sweep, lanes, pristine_knee, WORM_FLITS)
    });
    let k = k?;
    ctx.check(
        k.lambda0.is_finite()
            && k.lambda0 > 0.0
            && k.rel_width <= adapter::KNEE_REL_TOLERANCE * (1.0 + 1e-9),
        || {
            format!(
                "knee {} bracketed to {} (tolerance {})",
                k.lambda0,
                k.rel_width,
                adapter::KNEE_REL_TOLERANCE
            )
        },
    );
    Ok(k)
}

/// A fabric and traffic pair of model-flows.
pub struct ModelPair {
    pub tree: usize,
    pub pattern: Pattern,
    pub faulted: bool,
}

pub const MODEL_PAIRS: [ModelPair; 3] = [
    ModelPair {
        tree: 0,
        pattern: Pattern::Uniform,
        faulted: false,
    },
    ModelPair {
        tree: 1,
        pattern: Pattern::HotSpot,
        faulted: false,
    },
    ModelPair {
        tree: 2,
        pattern: Pattern::Uniform,
        faulted: true,
    },
];
pub const MODEL_SIZES: [usize; 3] = [1024, 256, 64];
pub const MODEL_LANES: [u32; 3] = [1, 2, 4];
pub const CURVE_POINTS: u32 = 32;
/// Worm lengths of the closed-form Fig. 3 curves, at N=1024.
pub const FIG3_WORM_FLITS: [u32; 3] = [16, 32, 64];

pub struct ModelSetup<'t> {
    pub trees: &'t [adapter::Tree],
    pub plans: Vec<Option<adapter::Plan>>,
    /// Closed-form s=16 knee per pair's tree: sets the knee bracket.
    pub pristine_knees: Vec<f64>,
    pub tally: Tally,
}

impl ModelSetup<'_> {
    #[must_use]
    pub fn label(&self, i: usize) -> String {
        let p = &MODEL_PAIRS[i];
        format!(
            "bft{}-{}{}",
            MODEL_SIZES[p.tree],
            match p.pattern {
                Pattern::Uniform => "uniform",
                Pattern::HotSpot => "hotspot",
            },
            if p.faulted { "-f5" } else { "" }
        )
    }
}

pub fn model_setup<'t>(
    trees: &'t [adapter::Tree],
    seed: u64,
    ctx: &mut Ctx,
) -> adapter::Result<ModelSetup<'t>> {
    let mut tally = Tally::new();
    let mut plans = Vec::new();
    let mut pristine_knees = Vec::new();
    for p in &MODEL_PAIRS {
        let tree = &trees[p.tree];
        plans.push(if p.faulted {
            let (plan, rejected) = connected_plan(tree, fault_seed(seed), ctx)?;
            add(&mut tally, "faults.plans_rejected", rejected as f64);
            Some(plan)
        } else {
            None
        });
        let closed_form = adapter::closed_form(MODEL_SIZES[p.tree], WORM_FLITS)?;
        let run = ctx.run_id();
        pristine_knees.push(closed_form_knee(&closed_form, run, &mut tally, ctx)?);
    }
    Ok(ModelSetup {
        trees,
        plans,
        pristine_knees,
        tally,
    })
}

/// One pass of model-flows: per pair, flow build and sweep build, then per
/// lane count the knee and a 32-point curve from 0 to the knee; then the
/// closed-form Fig. 3 curves.
pub fn model_pass(setup: &ModelSetup<'_>, seed: u64, pass: u64, ctx: &mut Ctx) -> Tally {
    let mut tally = Tally::new();
    let mut values: Vec<(String, f64)> = Vec::new();
    let run = ctx.run_id();
    let start = Instant::now();
    let span = ctx.tracer.open("bench.pass", run);
    for i in 0..MODEL_PAIRS.len() {
        let run = ctx.run_id();
        let span = ctx.tracer.open("bench.model", run);
        let done = model_pair(setup, i, run, &mut tally, &mut values, ctx);
        ctx.tracer.close(span);
        if let Err(e) = done {
            ctx.fail(format!("model-flows {}: {e}", setup.label(i)));
        }
    }
    for s in FIG3_WORM_FLITS {
        if let Err(e) = closed_form_curve(s, &mut tally, &mut values, ctx) {
            ctx.fail(format!("model-flows closed form s={s}: {e}"));
        }
    }
    ctx.tracer.close(span);
    add(&mut tally, "wall_s", start.elapsed().as_secs_f64());

    // The flow model at N=1024, uniform, L=1 and the closed form are two
    // implementations of the same knee.
    let get = |k: &str| values.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
    if let (Some(flow), Some(closed)) = (
        get("model-flows/bft1024-uniform/L1/knee"),
        get("model-flows/closed-form/s16/knee"),
    ) {
        ctx.check((flow / closed - 1.0).abs() <= 0.01, || {
            format!("model-flows: flow-model knee {flow} vs closed-form knee {closed} differ by more than 1%")
        });
    }
    if pass == 0 && seed == DEFAULT_SEED {
        for (key, v) in &values {
            pins::check_value(ctx, key, *v);
        }
    }
    tally
}

fn model_pair(
    setup: &ModelSetup<'_>,
    i: usize,
    run: u64,
    tally: &mut Tally,
    values: &mut Vec<(String, f64)>,
    ctx: &mut Ctx,
) -> adapter::Result<()> {
    let p = &MODEL_PAIRS[i];
    let (tree, plan) = (&setup.trees[p.tree], setup.plans[i].as_ref());
    let label = setup.label(i);
    let t0 = Instant::now();
    let (flows, mut sweep) = build_model(tree, plan, p.pattern, run, ctx)?;
    add(tally, "e2e.model_build_s", t0.elapsed().as_secs_f64());
    add(
        tally,
        "workload.flow_transitions",
        adapter::flow_transitions(&flows) as f64,
    );
    for lanes in MODEL_LANES {
        let t0 = Instant::now();
        let k = knee(&mut sweep, lanes, setup.pristine_knees[i], run, ctx)?;
        let mut curve = Vec::with_capacity(CURVE_POINTS as usize);
        for j in 0..CURVE_POINTS {
            let lambda0 = k.lambda0 * f64::from(j) / f64::from(CURVE_POINTS - 1);
            ctx.attempted += 1;
            let q = ctx.span("core.query", run, || {
                adapter::query(&mut sweep, lambda0, lanes)
            })?;
            curve.push(q.unwrap_or(f64::NAN));
        }
        add(tally, "e2e.model_query_s", t0.elapsed().as_secs_f64());
        add(
            tally,
            "e2e.model_queries",
            f64::from(CURVE_POINTS) + k.probes as f64,
        );
        add(tally, "core.queries", f64::from(CURVE_POINTS));
        add(tally, "guard.knee_probes", k.probes as f64);
        check_curve(ctx, &format!("model-flows {label} L={lanes}"), &curve);
        let key = format!("model-flows/{label}/L{lanes}");
        values.push((format!("{key}/knee"), k.lambda0 * f64::from(WORM_FLITS)));
        values.push((format!("{key}/curve_sum"), curve.iter().sum()));
    }
    let (solves, iterations) = adapter::solver_counts(&sweep);
    add(tally, "queueing.solves", solves as f64);
    add(tally, "queueing.solver_iterations", iterations as f64);
    Ok(())
}

fn closed_form_curve(
    s: u32,
    tally: &mut Tally,
    values: &mut Vec<(String, f64)>,
    ctx: &mut Ctx,
) -> adapter::Result<()> {
    let model = adapter::closed_form(1024, s)?;
    let run = ctx.run_id();
    let knee = closed_form_knee(&model, run, tally, ctx)?;
    // Up to 31/32 of the knee: at the knee itself Eq. 25's wait diverges.
    let mut curve = Vec::with_capacity(CURVE_POINTS as usize);
    for j in 0..CURVE_POINTS {
        let load = knee * f64::from(j) / f64::from(CURVE_POINTS);
        curve.push(closed_form_latency(&model, load, run, tally, ctx)?);
    }
    check_curve(ctx, &format!("model-flows closed form s={s}"), &curve);
    values.push((format!("model-flows/closed-form/s{s}/knee"), knee));
    values.push((
        format!("model-flows/closed-form/s{s}/curve_sum"),
        curve.iter().sum(),
    ));
    Ok(())
}

/// Every point of a sub-knee latency curve converged, is finite, and
/// latency does not fall as load rises.
fn check_curve(ctx: &mut Ctx, what: &str, curve: &[f64]) {
    let finite = curve.iter().all(|l| l.is_finite() && *l > 0.0);
    ctx.check(finite, || {
        format!("{what}: curve has unconverged or non-finite points: {curve:?}")
    });
    let monotone = curve.windows(2).all(|w| w[1] >= w[0] * (1.0 - 1e-9));
    ctx.check(!finite || monotone, || {
        format!("{what}: latency falls as load rises: {curve:?}")
    });
}
