//! The one module that calls into wormsim's public API.
//!
//! Every other file of the benchmark works with the plain types defined
//! here ([`SimJob`], [`SimOutcome`], [`Observe`], ...) or passes wormsim
//! values back into these functions untouched, so a change to wormsim's
//! entry points (for example collapsing the `run_simulation*` family)
//! changes this file only.

use std::time::Instant;

use wormsim_core::bft::BftModel;
use wormsim_core::flows::FlowModelSweep;
use wormsim_core::options::ModelOptions;
use wormsim_faults::{link_faults, FaultPlan, FaultedBft};
use wormsim_guard::{KneeConfig, SolveOutcome};
use wormsim_lanes::{LaneAllocatorKind, LaneConfig};
use wormsim_obs::{ObsConfig, SimSnapshot};
use wormsim_sim::config::{ArrivalProcess, MmppProfile, SimConfig, TrafficConfig};
use wormsim_sim::engine::Engine;
use wormsim_sim::router::{BftRouter, FaultedBftRouter};
use wormsim_sim::runner::run_simulation_observed;
use wormsim_sim::{EngineKind, SimResult};
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_topology::ids::ChannelId;
use wormsim_workload::{DestinationPattern, FlowVector};

use crate::digest::Fnv64;

pub use wormsim_core::flows::FlowModelSweep as Sweep;
pub use wormsim_faults::FaultPlan as Plan;
pub use wormsim_topology::bft::ButterflyFatTree as Tree;
pub use wormsim_workload::FlowVector as Flows;

/// Errors from wormsim, rendered as text.
pub type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Where messages go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    Uniform,
    /// 1/8 of traffic to PE 0 (`DestinationPattern::hot_spot`).
    HotSpot,
}

/// When messages are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    Poisson,
    /// `MmppProfile::default_bursty`.
    Bursty,
}

/// Observation attached to a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observe {
    Off,
    /// `ObsConfig::counters_only()`.
    Counters,
    /// `ObsConfig::counters_only().with_time_series(window)`.
    CountersAndSeries {
        window: u64,
    },
}

fn pattern(p: Pattern) -> DestinationPattern {
    match p {
        Pattern::Uniform => DestinationPattern::Uniform,
        Pattern::HotSpot => DestinationPattern::hot_spot(),
    }
}

/// Human-readable labels for the inputs listing.
#[must_use]
pub fn pattern_label(p: Pattern) -> String {
    pattern(p).label()
}

#[must_use]
pub fn arrival_label(a: Arrival) -> String {
    arrival(a).label()
}

fn arrival(a: Arrival) -> ArrivalProcess {
    match a {
        Arrival::Poisson => ArrivalProcess::Poisson,
        Arrival::Bursty => ArrivalProcess::Mmpp(MmppProfile::default_bursty()),
    }
}

fn obs_config(o: Observe) -> ObsConfig {
    match o {
        Observe::Off => ObsConfig::disabled(),
        Observe::Counters => ObsConfig::counters_only(),
        Observe::CountersAndSeries { window } => {
            ObsConfig::counters_only().with_time_series(window)
        }
    }
}

// ---------------------------------------------------------------- topology

/// The paper's butterfly fat-tree with `n` processors.
pub fn bft(n: usize) -> Result<Tree> {
    Ok(ButterflyFatTree::new(BftParams::paper(n).map_err(err)?))
}

#[must_use]
pub fn processors(tree: &Tree) -> usize {
    tree.network().num_processors()
}

// ------------------------------------------------------------------ faults

/// A seeded `fraction` link knockout, with whether it leaves every
/// processor pair connected.
pub fn link_plan(tree: &Tree, fraction: f64, seed: u64) -> Result<(Plan, bool)> {
    let plan = link_faults(tree.network(), fraction, seed).map_err(err)?;
    let connected = FaultedBft::new(tree, plan.clone())
        .map_err(err)?
        .fully_connected();
    Ok((plan, connected))
}

#[must_use]
pub fn plan_summary(plan: Option<&Plan>) -> String {
    plan.map_or_else(|| "no faults".to_string(), FaultPlan::summary)
}

// ---------------------------------------------------------------- workload

/// The flow vector of `pattern` over the tree, routed around `plan`'s dead
/// links when there is one.
pub fn flow_vector(tree: &Tree, plan: Option<&Plan>, p: Pattern) -> Result<Flows> {
    match plan {
        None => FlowVector::build(tree, &pattern(p)).map_err(err),
        Some(plan) => {
            let bft = FaultedBft::new(tree, plan.clone()).map_err(err)?;
            FlowVector::build(&bft, &pattern(p)).map_err(err)
        }
    }
}

/// Σ over channels of the continuation list lengths: the flow build's
/// work count.
#[must_use]
pub fn flow_transitions(flows: &Flows) -> usize {
    (0..flows.num_channels())
        .map(|c| flows.transitions(ChannelId(c)).len())
        .sum()
}

// -------------------------------------------------------------------- core

/// The per-station model of `flows`, with `plan`'s surviving servers.
pub fn sweep(tree: &Tree, plan: Option<&Plan>, flows: &Flows, worm_flits: u32) -> Result<Sweep> {
    let alive = plan.map(|p| p.alive_servers(tree.network()));
    FlowModelSweep::new_with_servers(
        tree.network(),
        flows,
        f64::from(worm_flits),
        alive.as_deref(),
    )
    .map_err(err)
}

/// A bracketed model knee, in per-PE message rate.
#[derive(Debug, Clone, Copy)]
pub struct Knee {
    pub lambda0: f64,
    pub rel_width: f64,
    pub probes: usize,
}

/// The knee bracket used throughout: from 2 % to 4× the pristine
/// closed-form knee, to 0.5 % relative width.
pub const KNEE_REL_TOLERANCE: f64 = 5e-3;

/// `FlowModelSweep::find_knee` at `lanes` lanes; `pristine_knee` is the
/// closed-form flit-load knee of the same tree size, which sets the bracket.
pub fn knee(sweep: &mut Sweep, lanes: u32, pristine_knee: f64, worm_flits: u32) -> Result<Knee> {
    let s = f64::from(worm_flits);
    let cfg = KneeConfig {
        initial: 0.02 * pristine_knee / s,
        max: 4.0 * pristine_knee / s,
        rel_tolerance: KNEE_REL_TOLERANCE,
        max_probes: 200,
    };
    let k = sweep
        .find_knee(&ModelOptions::paper().with_lanes(lanes), &cfg)
        .map_err(err)?;
    Ok(Knee {
        lambda0: k.knee,
        rel_width: k.rel_width(),
        probes: k.probes,
    })
}

/// `FlowModelSweep::outcome_at`: the latency when the solve converged,
/// `None` when it came back saturated or unconverged.
pub fn query(sweep: &mut Sweep, lambda0: f64, lanes: u32) -> Result<Option<f64>> {
    match sweep
        .outcome_at(lambda0, &ModelOptions::paper().with_lanes(lanes))
        .map_err(err)?
    {
        SolveOutcome::Converged(l) => Ok(Some(l.total)),
        SolveOutcome::Saturated { .. } | SolveOutcome::NoConvergence { .. } => Ok(None),
    }
}

/// `(solves, fixed-point iterations)` fed through the sweep's warm start.
#[must_use]
pub fn solver_counts(sweep: &Sweep) -> (usize, usize) {
    let w = sweep.warm_start();
    (w.solves(), w.total_iterations())
}

/// The closed-form single-lane model of the paper's tree with `n`
/// processors and `worm_flits`-flit worms.
pub struct ClosedForm(BftModel);

pub fn closed_form(n: usize, worm_flits: u32) -> Result<ClosedForm> {
    Ok(ClosedForm(BftModel::new(
        BftParams::paper(n).map_err(err)?,
        f64::from(worm_flits),
    )))
}

/// Eq. 26 saturation point, flits/cycle/PE.
pub fn closed_form_knee(m: &ClosedForm) -> Result<f64> {
    m.0.saturation_flit_load().map_err(err)
}

/// Eq. 25 mean latency at a flit load, cycles.
pub fn closed_form_latency(m: &ClosedForm, flit_load: f64) -> Result<f64> {
    Ok(m.0.latency_at_flit_load(flit_load).map_err(err)?.total)
}

// --------------------------------------------------------------------- sim

/// A router over a tree, pristine or routing around a fault plan.
pub enum Router<'t> {
    Pristine(BftRouter<'t>),
    Faulted(FaultedBftRouter<'t>),
}

pub fn router<'t>(tree: &'t Tree, plan: Option<&Plan>) -> Result<Router<'t>> {
    Ok(match plan {
        None => Router::Pristine(BftRouter::new(tree)),
        Some(plan) => Router::Faulted(FaultedBftRouter::new(tree, plan.clone()).map_err(err)?),
    })
}

/// One simulation: everything but the router.
#[derive(Debug, Clone, Copy)]
pub struct SimJob {
    pub flit_load: f64,
    pub worm_flits: u32,
    pub pattern: Pattern,
    pub arrival: Arrival,
    pub lanes: u32,
    pub warmup: u64,
    pub measure: u64,
    pub drain_cap: u64,
    pub seed: u64,
    pub observe: Observe,
}

struct Prepared {
    cfg: SimConfig,
    traffic: TrafficConfig,
    lanes: LaneConfig,
    obs: ObsConfig,
}

fn prepare(job: &SimJob, processors: usize) -> Result<Prepared> {
    let cfg =
        SimConfig::checked(job.warmup, job.measure, job.drain_cap, job.seed, 12).map_err(err)?;
    let pattern = pattern(job.pattern);
    // `Engine::with_lanes` panics on a pattern that does not fit.
    pattern.validate(processors).map_err(err)?;
    let traffic = TrafficConfig::from_flit_load(job.flit_load, job.worm_flits)
        .map_err(err)?
        .with_pattern(pattern)
        .with_arrival(arrival(job.arrival));
    let lanes = LaneConfig::new(job.lanes, LaneAllocatorKind::FirstFree).map_err(err)?;
    Ok(Prepared {
        cfg,
        traffic,
        lanes,
        obs: obs_config(job.observe),
    })
}

/// Host instants of one simulation: start, engine built, run finished.
#[derive(Debug, Clone, Copy)]
pub struct SimTimes {
    pub start: Instant,
    pub built: Instant,
    pub end: Instant,
}

/// Runs `job` on the default (fast-forward) core. This is the body of
/// `run_simulation_observed`, split so that engine construction and the
/// run can be timed apart from outside the crate.
pub fn simulate(router: &Router<'_>, job: &SimJob) -> Result<(SimOutcome, SimTimes)> {
    fn go<R: wormsim_sim::Router>(r: &R, job: &SimJob) -> Result<(SimResult, SimTimes)> {
        let p = prepare(job, r.network().num_processors())?;
        let start = Instant::now();
        let mut engine = Engine::with_lanes(r, &p.cfg, &p.traffic, &p.lanes);
        engine.set_engine_kind(EngineKind::FastForward);
        engine.set_observer(&p.obs);
        let built = Instant::now();
        let result = std::hint::black_box(engine.run());
        let end = Instant::now();
        Ok((result, SimTimes { start, built, end }))
    }
    let (result, times) = match router {
        Router::Pristine(r) => go(r, job)?,
        Router::Faulted(r) => go(r, job)?,
    };
    Ok((outcome(&result), times))
}

/// Replays `job` through `run_simulation_observed` on the Reference core,
/// the repository's oracle.
pub fn simulate_reference(router: &Router<'_>, job: &SimJob) -> Result<SimOutcome> {
    fn go<R: wormsim_sim::Router>(r: &R, job: &SimJob) -> Result<SimResult> {
        let p = prepare(job, r.network().num_processors())?;
        Ok(run_simulation_observed(
            r,
            &p.cfg,
            &p.traffic,
            &p.lanes,
            EngineKind::Reference,
            &p.obs,
        ))
    }
    let result = match router {
        Router::Pristine(r) => go(r, job)?,
        Router::Faulted(r) => go(r, job)?,
    };
    Ok(outcome(&result))
}

/// Observation counters of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsCounts {
    pub lane_grants: u64,
    pub stalls_link_busy: u64,
    pub stalls_no_free_lane: u64,
    pub stalls_fcfs_queued: u64,
    pub channel_busy_cycles: u64,
    /// Time-series windows kept (0 without a time series).
    pub windows: u64,
    /// `SimSnapshot::check_conservation`.
    pub consistent: std::result::Result<(), String>,
}

/// What the benchmark reads from a `SimResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Digest of every field that is identical across engine cores.
    pub digest: u64,
    /// Digest of the observation snapshot (0 when unobserved).
    pub obs_digest: u64,
    pub cycles_run: u64,
    pub cycles_skipped: u64,
    pub max_active_worms: u64,
    pub measured: u64,
    pub completed: u64,
    pub incomplete: u64,
    pub unroutable: u64,
    pub saturated: bool,
    pub avg_latency: f64,
    pub obs: Option<ObsCounts>,
}

fn outcome(r: &SimResult) -> SimOutcome {
    SimOutcome {
        digest: result_digest(r),
        obs_digest: r.obs.as_ref().map_or(0, snapshot_digest),
        cycles_run: r.cycles_run,
        cycles_skipped: r.cycles_skipped,
        max_active_worms: r.max_active_worms as u64,
        measured: r.messages_measured,
        completed: r.messages_completed,
        incomplete: r.messages_incomplete,
        unroutable: r.messages_unroutable,
        saturated: r.saturated,
        avg_latency: r.avg_latency,
        obs: r.obs.as_ref().map(|o| ObsCounts {
            lane_grants: o.lane_grants,
            stalls_link_busy: o.stalls_link_busy,
            stalls_no_free_lane: o.stalls_no_free_lane,
            stalls_fcfs_queued: o.stalls_fcfs_queued,
            channel_busy_cycles: o.channels.iter().map(|c| c.busy_cycles).sum(),
            windows: o.time_series.as_ref().map_or(0, |t| t.windows.len() as u64),
            consistent: o.check_conservation(),
        }),
    }
}

/// Hashes every `SimResult` field except `engine`, `cycles_skipped` and
/// `obs`: the fields the cores must agree on bit for bit.
fn result_digest(r: &SimResult) -> u64 {
    let mut h = Fnv64::new();
    h.str(&r.topology);
    for v in [
        r.num_processors as u64,
        u64::from(r.worm_flits),
        u64::from(r.lanes),
    ] {
        h.u64(v);
    }
    for l in &r.lane_stats {
        h.u64(u64::from(l.lane));
        h.u64(l.grants);
        h.f64(l.mean_hold);
        h.f64(l.utilization);
    }
    for v in [
        r.offered_message_rate,
        r.offered_flit_load,
        r.avg_latency,
        r.latency_ci95,
        r.latency_p50,
        r.latency_p95,
        r.latency_p99,
        r.latency_max,
        r.injection_wait_mean,
        r.delivered_flit_load,
    ] {
        h.f64(v);
    }
    for v in [
        r.messages_measured,
        r.messages_completed,
        r.messages_incomplete,
        r.messages_unroutable,
        u64::from(r.saturated),
        r.backlog_growth,
        r.cycles_run,
        r.max_active_worms as u64,
        r.seed,
    ] {
        h.u64(v);
    }
    for c in &r.class_stats {
        h.str(&format!("{:?}", c.class));
        h.u64(c.channels as u64);
        h.u64(c.grants);
        for v in [c.lambda, c.mean_service, c.mean_wait, c.utilization] {
            h.f64(v);
        }
    }
    h.finish()
}

/// The snapshot's `Debug` rendering prints every field, floats in their
/// shortest round-trip form, so equal digests mean equal snapshots.
fn snapshot_digest(s: &SimSnapshot) -> u64 {
    let mut h = Fnv64::new();
    h.str(&format!("{s:?}"));
    h.finish()
}

// --------------------------------------------------------------------- obs

/// `wormsim_obs::export::json_is_well_formed`.
#[must_use]
pub fn json_is_well_formed(s: &str) -> bool {
    wormsim_obs::export::json_is_well_formed(s)
}
