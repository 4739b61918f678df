//! Command line of the benchmark harness.
//!
//! ```text
//! uabench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, this process
//! uabench run       [--seed n] [--seconds s] [--quick]               four workloads, end-to-end metrics
//! uabench trace     [--seed n] [--seconds s] [--quick]               four workloads, per-layer metrics
//! uabench calibrate --runs N [--seed n] [--seconds s] [--quick]      run-to-run spread of every metric
//! uabench pool-probe                                                  does a multi-worker pool deadlock?
//! ```

use std::process::ExitCode;
use uabench::bench::{self, Params};
use uabench::{driver, suite};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: suite::DEFAULT_SEED,
        seconds: suite::DEFAULT_SECONDS,
        trace: false,
        runs: 5,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--quick" => args.seconds = 2.0,
            command if !command.starts_with('-') && args.command.is_none() => {
                args.command = Some(command.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn dispatch(args: Args) -> Result<bool, String> {
    match (args.command.as_deref(), args.workload) {
        (None, Some(workload)) => {
            driver::arm_watchdog(workload.clone(), suite::watchdog_limit(args.seconds));
            let outcome = bench::run(&Params {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            })?;
            if !outcome.unbounded.is_empty() {
                println!("unbounded: {}", outcome.unbounded_json().render());
            }
            println!("{}", outcome.json().render());
            Ok(outcome.correct)
        }
        (Some("run"), None) => suite::run_all(args.seed, args.seconds, false),
        (Some("trace"), None) => suite::run_all(args.seed, args.seconds, true),
        (Some("calibrate"), None) => {
            suite::calibrate(args.runs, args.seed, args.seconds).map(|()| true)
        }
        (Some("pool-probe"), None) => {
            println!("pool_multiworker: {}", suite::pool_probe());
            Ok(true)
        }
        (Some("pool-probe-child"), None) => suite::pool_probe_child().map(|()| true),
        _ => Err(
            "expected `--workload <name> …` or one of: run, trace, calibrate, pool-probe"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uabench: {e}");
            return ExitCode::from(2);
        }
    };
    // The pool is pinned to one worker before the first engine call: with
    // two or more, `LineagePrograms::exact_probabilities` deadlocks (a
    // `par_iter` inside `OnceLock::get_or_init` whose initialising thread
    // helps drain the queue and re-enters the same `OnceLock`).  Only the
    // pool probe's child runs with the host's default.
    if args.command.as_deref() != Some("pool-probe-child") {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    match dispatch(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("uabench: {e}");
            ExitCode::from(1)
        }
    }
}
