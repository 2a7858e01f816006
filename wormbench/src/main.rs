//! `wormbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics; the last line of standard
//! output is the JSON result. `wormbench --list-inputs [--workload <name>]
//! [--seed <n>]` prints the workloads' inputs without timing anything.

use std::process::ExitCode;

use wormbench::bench::{self, Args, RESULT_END_TO_END};
use wormbench::inputs;
use wormbench::workloads::{Kind, DEFAULT_SEED};

const USAGE: &str = "usage: wormbench --workload <sim-loaded|lanes-saturation|model-flows|sim-sparse> \
     [--seed N] [--seconds S] [--trace 0|1]\n       wormbench --list-inputs [--workload NAME] [--seed N]";

const MAX_FAILURES_SHOWN: usize = 100;

struct Cli {
    kind: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    list_inputs: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        kind: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        list_inputs: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--list-inputs" {
            cli.list_inputs = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                cli.kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => cli.seed = number()?,
            "--seconds" => cli.seconds = number()?.clamp(1, 120),
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("wormbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list_inputs {
        let kinds = cli.kind.map_or(Kind::ALL.to_vec(), |k| vec![k]);
        for kind in kinds {
            match inputs::describe(kind, cli.seed) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("wormbench: {}: set-up failed: {e}", kind.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(kind) = cli.kind else {
        eprintln!("wormbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let (mut ctx, passes) = match bench::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wormbench: {}: set-up failed: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    ctx.check(passes.peak_rss_mib.is_some(), || {
        "peak RSS unavailable (no /proc/self/status)".to_string()
    });
    if args.trace {
        match bench::write_trace(&ctx, &args) {
            Ok(path) => println!("trace: {path}"),
            Err(e) => ctx.fail(e),
        }
    }
    let e2e = bench::end_to_end(&ctx, &passes);
    println!(
        "wormbench {} seed={} seconds={} trace={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("end to end (tracing off):\n{}", bench::render(&e2e));
    let result = if args.trace {
        let layers = bench::per_layer(&ctx, &passes);
        println!(
            "per layer (one set-up plus one pass):\n{}",
            bench::render(&layers)
        );
        for (claim, shown) in bench::claims(kind, &layers, &passes) {
            let verdict = if shown { "confirmed" } else { "NOT confirmed" };
            println!("claim: {} {claim}: {verdict}", kind.name());
        }
        let names: Vec<&str> = layers.iter().map(|m| m.name).collect();
        bench::result_line(&ctx, &layers, &names)
    } else {
        bench::result_line(&ctx, &e2e, &RESULT_END_TO_END)
    };
    for f in ctx.failures.iter().take(MAX_FAILURES_SHOWN) {
        eprintln!("FAILED: {f}");
    }
    if ctx.failures.len() > MAX_FAILURES_SHOWN {
        eprintln!(
            "... and {} more failures",
            ctx.failures.len() - MAX_FAILURES_SHOWN
        );
    }
    println!("{result}");
    if ctx.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
