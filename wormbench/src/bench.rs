//! Running a workload: repeated set-up, timed passes, metrics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::calibrate;
use crate::stats::{median, tail};
use crate::trace::{self, Open, Tracer};
use crate::workloads::{self, Kind};

/// Named sums of one set-up or one pass.
pub type Tally = BTreeMap<String, f64>;

pub fn add(tally: &mut Tally, key: &str, v: f64) {
    *tally.entry(key.to_string()).or_default() += v;
}

/// Set-up is repeated at least this often, and until it has taken half a
/// second (at most `MAX_SETUPS` times); its median is reported.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 0.5;

/// State shared by everything one benchmark process does.
pub struct Ctx {
    pub tracer: Tracer,
    next_run: u64,
    /// Simulation runs and model calls attempted.
    pub attempted: u64,
    /// Failed output checks and unexpected errors.
    pub failures: Vec<String>,
    setup_s: Vec<f64>,
    setup_tallies: Vec<Tally>,
}

pub struct SetupMark {
    start: Instant,
    span: Open,
}

impl Ctx {
    #[must_use]
    pub fn new(trace: bool) -> Self {
        Self {
            tracer: Tracer::new(trace),
            next_run: 0,
            attempted: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            setup_tallies: Vec::new(),
        }
    }

    /// A fresh run id for the spans of one simulation or model query.
    pub fn run_id(&mut self) -> u64 {
        self.next_run += 1;
        self.next_run
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Calls `f` inside a span (no span while tracing is off).
    pub fn span<T>(&mut self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.open(name, run);
        let out = f();
        self.tracer.close(span);
        out
    }

    pub fn begin_setup(&mut self) -> SetupMark {
        let run = self.run_id();
        let span = self.tracer.open("bench.setup", run);
        SetupMark {
            start: Instant::now(),
            span,
        }
    }

    pub fn end_setup(&mut self, mark: SetupMark, tally: &Tally) {
        self.setup_s.push(mark.start.elapsed().as_secs_f64());
        self.tracer.close(mark.span);
        self.setup_tallies.push(tally.clone());
    }

    #[must_use]
    pub fn enough_setups(&self) -> bool {
        let n = self.setup_s.len();
        n >= MIN_SETUPS && (self.setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S || n >= MAX_SETUPS)
    }
}

/// Command-line arguments of a measured run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Pass tallies: untraced, and (in a traced run) traced.
#[derive(Default)]
pub struct Passes {
    plain: Vec<Tally>,
    traced: Vec<Tally>,
    /// Peak RSS through set-up and the first pass index, read before the
    /// calibration loop first runs so that its memory does not count.
    pub peak_rss_mib: Option<f64>,
}

/// Time spent in the calibration loop after each pass index, as a share
/// of that index's time.
const CALIBRATION_SHARE: f64 = 0.05;

/// Runs passes for `args.seconds` (at least one pass): a pass starts only
/// if one more as long as the slowest so far still ends in time. In a
/// traced run every pass index runs twice, untraced and traced, in
/// alternating order; the difference is the tracing overhead. The
/// calibration loop runs after each pass index, for a twentieth of its
/// time; each untraced pass records `wall_rel`, its time over the mean
/// loop time just before and after it.
pub fn measure(
    ctx: &mut Ctx,
    args: &Args,
    mut pass: impl FnMut(&mut Ctx, u64, bool) -> Tally,
) -> Passes {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = Passes::default();
    let mut longest = Duration::ZERO;
    let mut before = None;
    for p in 0.. {
        let t = Instant::now();
        let mut plain = Tally::new();
        if args.trace {
            let order = if p % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for traced in order {
                ctx.tracer.set_enabled(traced);
                let t = pass(ctx, p, traced);
                if traced {
                    passes.traced.push(t);
                } else {
                    plain = t;
                }
            }
        } else {
            plain = pass(ctx, p, false);
        }
        if p == 0 {
            passes.peak_rss_mib = peak_rss_mib();
        }
        let after = calibrate::mean_over(t.elapsed().mul_f64(CALIBRATION_SHARE));
        let loop_s = before.map_or(after, |b| 0.5 * (b + after));
        if let Some(&wall) = plain.get("wall_s") {
            plain.insert("wall_rel".into(), wall / loop_s);
        }
        plain.insert("calibration_s".into(), loop_s);
        passes.plain.push(plain);
        before = Some(after);
        let now = Instant::now();
        longest = longest.max(now - t);
        if now + longest > deadline {
            break;
        }
    }
    ctx.tracer.set_enabled(false);
    passes
}

/// Runs one workload: repeated set-up, then the timed passes.
///
/// # Errors
///
/// A set-up that fails: nothing can be measured without it.
pub fn run(args: &Args) -> Result<(Ctx, Passes), String> {
    let mut ctx = Ctx::new(args.trace);
    let passes = match workloads::sim_spec(args.kind) {
        Some(spec) => loop {
            let mark = ctx.begin_setup();
            let trees = workloads::build_trees(spec.sizes, &mut ctx)?;
            let setup = workloads::sim_setup(&spec, &trees, args.seed, &mut ctx)?;
            ctx.end_setup(mark, &setup.tally);
            if ctx.enough_setups() {
                break measure(&mut ctx, args, |ctx, p, traced| {
                    workloads::sim_pass(args.kind, &spec, &setup, args.seed, p, traced, ctx)
                });
            }
        },
        None => loop {
            let mark = ctx.begin_setup();
            let trees = workloads::build_trees(&workloads::MODEL_SIZES, &mut ctx)?;
            let setup = workloads::model_setup(&trees, args.seed, &mut ctx)?;
            ctx.end_setup(mark, &setup.tally);
            if ctx.enough_setups() {
                break measure(&mut ctx, args, |ctx, p, _| {
                    workloads::model_pass(&setup, args.seed, p, ctx)
                });
            }
        },
    };
    Ok((ctx, passes))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None` where the workload does no such work.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub n: usize,
    /// Highest percentile with at least ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
}

fn column(tallies: &[Tally], key: &str) -> Vec<f64> {
    tallies.iter().filter_map(|t| t.get(key).copied()).collect()
}

fn sum(tallies: &[Tally], key: &str) -> f64 {
    column(tallies, key).iter().sum()
}

/// The end-to-end metrics, from the untraced passes.
#[must_use]
pub fn end_to_end(ctx: &Ctx, passes: &Passes) -> Vec<Metric> {
    let plain = &passes.plain;
    let timing = |name, unit, values: Vec<f64>| Metric {
        name,
        unit,
        value: median(&values),
        n: values.len(),
        tail: tail(&values),
    };
    let ratio = |name, unit, num: f64, den: f64, n: f64| Metric {
        name,
        unit,
        value: (den > 0.0).then(|| num / den),
        n: n as usize,
        tail: None,
    };
    let sim_runs = sum(plain, "sim.runs");
    let queries = sum(plain, "e2e.model_queries");
    let first = plain.first().cloned().unwrap_or_default();
    let dev_points = first.get("e2e.dev_points").copied().unwrap_or(0.0);
    vec![
        timing("setup_s", "s", ctx.setup_s.clone()),
        timing("wall_s", "s", column(plain, "wall_s")),
        timing("wall_rel", "ratio", column(plain, "wall_rel")),
        timing("calibration_s", "s", column(plain, "calibration_s")),
        ratio(
            "sim_msgs_per_s",
            "msg/s",
            sum(plain, "sim.msgs_completed"),
            sum(plain, "e2e.sim_s"),
            sim_runs,
        ),
        timing("model_build_s", "s", column(plain, "e2e.model_build_s")),
        ratio(
            "model_query_us",
            "us",
            sum(plain, "e2e.model_query_s") * 1e6,
            queries,
            queries,
        ),
        ratio(
            "model_sim_dev_pct",
            "%",
            first.get("e2e.dev_pct_sum").copied().unwrap_or(0.0),
            dev_points,
            dev_points,
        ),
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: passes.peak_rss_mib,
            n: 1,
            tail: None,
        },
        ratio(
            "error_rate",
            "fraction",
            ctx.failures.len() as f64,
            ctx.attempted as f64,
            ctx.attempted as f64,
        ),
    ]
}

/// The end-to-end metrics on the result line (`BENCHMARK.json`'s
/// `end_to_end`): the ones every workload has, that are never 0, and that
/// the host's speed drift does not swamp.
pub const RESULT_END_TO_END: [&str; 3] = ["setup_s", "wall_rel", "peak_rss_mib"];

/// Per-layer metrics of a traced run, with units.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("topology.build_s", "s"),
    ("topology.self_s", "s"),
    ("faults.plan_s", "s"),
    ("faults.plans_rejected", "count"),
    ("faults.self_s", "s"),
    ("workload.flow_build_s", "s"),
    ("workload.flow_transitions", "count"),
    ("workload.self_s", "s"),
    ("core.sweep_build_s", "s"),
    ("core.query_s", "s"),
    ("core.queries", "count"),
    ("core.closed_form_s", "s"),
    ("core.closed_form_queries", "count"),
    ("core.self_s", "s"),
    ("guard.knee_s", "s"),
    ("guard.knee_probes", "count"),
    ("guard.self_s", "s"),
    ("queueing.solves", "count"),
    ("queueing.solver_iterations", "count"),
    ("lanes.grants", "count"),
    ("sim.engine_build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.runs", "count"),
    ("sim.cycles_walked", "count"),
    ("sim.ns_per_walked_cycle", "ns"),
    ("sim.max_active_worms", "count"),
    ("sim.skip_share", "fraction"),
    ("sim.drain_cycles", "count"),
    ("sim.saturated_runs", "count"),
    ("sim.msgs_measured", "count"),
    ("sim.msgs_completed", "count"),
    ("sim.msgs_incomplete", "count"),
    ("sim.msgs_unroutable", "count"),
    ("obs.stalls_link_busy", "count"),
    ("obs.stalls_no_free_lane", "count"),
    ("obs.stalls_fcfs_queued", "count"),
    ("obs.channel_busy_cycles", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// The per-layer metrics of a traced run: for each, one set-up plus one
/// pass (medians over the run's traced set-ups and traced passes). A
/// layer the workload does not use reads 0.
#[must_use]
pub fn per_layer(ctx: &Ctx, passes: &Passes) -> Vec<Metric> {
    let roots = trace::per_root(ctx.tracer.spans());
    let merged = |root: &str, tallies: &[Tally]| -> Vec<Tally> {
        roots
            .iter()
            .filter(|(name, _)| *name == root)
            .zip(tallies)
            .map(|((_, spans), tally)| {
                let mut m = spans.clone();
                m.extend(tally.iter().map(|(k, v)| (k.clone(), *v)));
                m
            })
            .collect()
    };
    let setups = merged("bench.setup", &ctx.setup_tallies);
    let mut traced = merged("bench.pass", &passes.traced);
    for m in &mut traced {
        let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
        let (run_s, walked, skipped, cycles) = (
            get("sim.run_s"),
            get("sim.cycles_walked"),
            get("sim.cycles_skipped"),
            get("sim.cycles_run"),
        );
        if walked > 0.0 {
            m.insert("sim.ns_per_walked_cycle".into(), run_s * 1e9 / walked);
        }
        if cycles > 0.0 {
            m.insert("sim.skip_share".into(), skipped / cycles);
        }
    }
    let med = |maps: &[Tally], key: &str| -> f64 {
        let v: Vec<f64> = maps
            .iter()
            .map(|m| m.get(key).copied().unwrap_or(0.0))
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let overhead = median(&column(&passes.traced, "wall_s")).unwrap_or(0.0)
        - median(&column(&passes.plain, "wall_s")).unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: Some(if name == "trace.overhead_s" {
                overhead
            } else {
                med(&setups, name) + med(&traced, name)
            }),
            n: traced.len(),
            tail: None,
        })
        .collect()
}

/// Whether the traced run shows the layer each workload claims to stress.
/// Reported, not checked: an optimisation may legitimately move these.
#[must_use]
pub fn claims(kind: Kind, layers: &[Metric], passes: &Passes) -> Vec<(String, bool)> {
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
            .unwrap_or(0.0)
    };
    match kind {
        Kind::SimLoaded => vec![(
            format!(
                "walks {:.2}% of its cycles (>= 99%)",
                100.0 * (1.0 - get("sim.skip_share"))
            ),
            get("sim.skip_share") <= 0.01,
        )],
        Kind::SimSparse => vec![(
            format!(
                "skips {:.1}% of its cycles (>= 10%)",
                100.0 * get("sim.skip_share")
            ),
            get("sim.skip_share") >= 0.1,
        )],
        Kind::LanesSaturation => vec![(
            format!(
                "{} saturated probes, {} drain cycles, {} lane stalls (all > 0)",
                get("sim.saturated_runs"),
                get("sim.drain_cycles"),
                get("obs.stalls_no_free_lane")
            ),
            get("sim.saturated_runs") > 0.0
                && get("sim.drain_cycles") > 0.0
                && get("obs.stalls_no_free_lane") > 0.0,
        )],
        Kind::ModelFlows => {
            let wall = median(&column(&passes.traced, "wall_s")).unwrap_or(0.0);
            let share = get("workload.flow_build_s") / wall;
            vec![(
                format!("flow build is {:.1}% of wall_s (> 50%)", 100.0 * share),
                share > 0.5,
            )]
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Writes the spans as Chrome trace JSON under the benchmark's `out/`
/// directory and checks the file is well-formed JSON.
///
/// # Errors
///
/// The file could not be written or read back, or is malformed.
pub fn write_trace(ctx: &Ctx, args: &Args) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.json", args.kind.name(), args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, trace::to_chrome_json(ctx.tracer.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let back = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if crate::adapter::json_is_well_formed(&back) {
        Ok(path.display().to_string())
    } else {
        Err(format!("{}: trace is not well-formed JSON", path.display()))
    }
}

/// A table of metrics, one per line.
#[must_use]
pub fn render(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        let tail = m
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p}={v:.6}"));
        let _ = writeln!(
            out,
            "  {:<28} {:>18} {:<9} n={}{tail}",
            m.name, value, m.unit, m.n
        );
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the named metrics.
#[must_use]
pub fn result_line(ctx: &Ctx, metrics: &[Metric], names: &[&str]) -> String {
    let mut body = Vec::new();
    for name in names {
        let m = metrics.iter().find(|m| m.name == *name);
        let v = m
            .and_then(|m| m.value)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let unit = m.map_or("", |m| m.unit);
        body.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failures.is_empty(),
        ctx.attempted.max(1),
        ctx.failures.len(),
        body.join(", ")
    )
}
