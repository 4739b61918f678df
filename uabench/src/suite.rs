//! The commands that run more than one workload: each workload runs in a
//! fresh child process of the harness (so peak memory does not leak from one
//! workload into the next), under a watchdog that never lets a hung child
//! hang its caller.

use crate::bench::{out_dir, END_TO_END};
use crate::json::Json;
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Default benchmark seed of `run`, `trace` and `calibrate`.
pub const DEFAULT_SEED: u64 = 20_080_609;
/// Default measured window (seconds); `--quick` uses 2.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// The 5-tuple repro of the multi-worker pool deadlock.
pub const POOL_PROBE_QUERY: &str = "conf(project[A](T))";

/// How long a child running one workload may take before it is killed:
/// three times its planned duration.
pub fn watchdog_limit(seconds: f64) -> Duration {
    Duration::from_secs_f64((3.0 * (15.0 + 1.5 * seconds)).min(170.0))
}

/// Runs `args` as a child of this executable, echoing its output; returns
/// its stdout, or an error if it fails or outlives `limit`.
fn child(
    args: &[String],
    envs: &[(&str, Option<&str>)],
    limit: Duration,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut command = Command::new(exe);
    command.args(args).stdout(Stdio::piped());
    for (key, value) in envs {
        match value {
            Some(value) => command.env(key, value),
            None => command.env_remove(key),
        };
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("starting a child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    // Drain the pipe on a helper thread so a chatty child never blocks on
    // it while this thread watches the clock.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("waiting for a child: {e}"))?
        {
            Some(status) => break Some(status),
            None if started.elapsed() >= limit => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        Some(status) if status.success() => Ok(text),
        Some(status) => Err(format!("`{}` failed with {status}\n{text}", args.join(" "))),
        None => Err(format!(
            "`{}` still running after {:.0} s; killed",
            args.join(" "),
            limit.as_secs_f64()
        )),
    }
}

/// Runs one workload in a child and parses its result line and, if it
/// printed one, the `unbounded: {…}` line before it (`Json::Null` otherwise).
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let text = child(&args, &[], watchdog_limit(seconds))
        .map_err(|e| format!("workload {workload}: {e}"))?;
    print!("{text}");
    let mut lines = text.lines().rev();
    let last = lines
        .next()
        .ok_or_else(|| format!("workload {workload}: no output"))?;
    let result =
        Json::parse(last).map_err(|e| format!("workload {workload}: bad result line: {e}"))?;
    let unbounded = match lines.next().and_then(|l| l.strip_prefix("unbounded: ")) {
        Some(line) => Json::parse(line)
            .map_err(|e| format!("workload {workload}: bad unbounded line: {e}"))?,
        None => Json::Null,
    };
    Ok((result, unbounded))
}

/// `pool-probe`: does the engine survive a pool with more than one worker?
/// Re-executes the harness with the default pool size on the 5-tuple repro
/// under a 10 s watchdog.
pub fn pool_probe() -> &'static str {
    let args = ["pool-probe-child".to_string()];
    match child(
        &args,
        &[("RAYON_NUM_THREADS", None)],
        Duration::from_secs(10),
    ) {
        Ok(_) => "ok",
        Err(_) => "deadlock",
    }
}

/// The child side of [`pool_probe`]: one cold `conf` through the one-shot
/// engine with whatever pool the host gives.
pub fn pool_probe_child() -> Result<(), String> {
    let mut db = urel::UDatabase::new();
    crate::gen::add_path_tuples(&mut db, 5, 3, 0.2..0.8, 1);
    crate::workload::exact_answer(&db, POOL_PROBE_QUERY).map(|_| ())
}

/// `run` / `trace`: the four workloads back to back, each in its own child;
/// writes `out/result.json` (or `out/trace.json`).  `trace` also fails when
/// a workload's trace does not show the separation it exists for.
pub fn run_all(seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut unbounded = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let (result, beside) = run_workload(workload, seed, seconds, trace)?;
        correct &= result.get("correct") == Some(&Json::Bool(true));
        let metrics = result
            .get("metrics")
            .map(Json::metric_values)
            .unwrap_or_default();
        correct &= metrics
            .get("driver.separation_violations")
            .is_none_or(|violations| *violations == 0.0);
        unbounded.push((workload, beside));
        workloads.push((workload, result));
    }
    let mut summary = vec![
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("pool_threads", Json::Num(1.0)),
    ];
    if !trace {
        let probe = pool_probe();
        println!("pool_multiworker: {probe}");
        summary.push(("pool_multiworker", Json::str(probe)));
    }
    summary.push(("correct", Json::Bool(correct)));
    if !trace {
        summary.push(("unbounded", Json::obj(unbounded)));
    }
    summary.push(("workloads", Json::obj(workloads)));
    // This benchmark measures; it claims no gain.
    summary.push(("claim", Json::Null));
    let path = out_dir().join(if trace { "trace.json" } else { "result.json" });
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, Json::obj(summary).render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

/// The regression bound `BENCHMARK.json` gives each end-to-end metric.
fn declared_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        return Err(format!("{path}: no `end_to_end` list"));
    };
    Ok(metrics
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Json::Str(name)), Some(Json::Num(bound))) => Some((name.clone(), *bound)),
            _ => None,
        })
        .collect())
}

/// `calibrate`: runs the suite `runs` times on this build (run *i* with seed
/// `seed + i`) and prints, per end-to-end metric and workload, the median,
/// the quartiles, their distance as a share of the median — what the metric's
/// bound in `BENCHMARK.json`, printed beside it, is compared with — and
/// (max − min) / median.  A cell that does not repeat within a tenth is
/// marked `unresolved`: a change smaller than its spread cannot be shown on
/// it by medians alone.  The unbounded metrics (`failed_share`,
/// `update_churn`'s `update_p50_us`) are listed the same way, without a bound.
pub fn calibrate(runs: usize, seed: u64, seconds: f64) -> Result<(), String> {
    let bounds = declared_bounds()?;
    let mut samples: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for run in 0..runs {
        println!(
            "== calibration run {} of {runs} (seed {}) ==",
            run + 1,
            seed + run as u64
        );
        for workload in WORKLOADS {
            let (result, beside) = run_workload(workload, seed + run as u64, seconds, false)?;
            for (name, value) in beside.metric_values() {
                samples.entry((workload, name)).or_default().push(value);
            }
            let values = result
                .get("metrics")
                .map(Json::metric_values)
                .unwrap_or_default();
            for (name, _) in END_TO_END {
                let value = values
                    .get(name)
                    .ok_or_else(|| format!("workload {workload}: metric {name} missing"))?;
                samples
                    .entry((workload, name.to_string()))
                    .or_default()
                    .push(*value);
            }
        }
    }
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound"
    );
    for ((workload, name), values) in &samples {
        let [q1, q2, q3] = quartiles(values);
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        // A metric that is 0 throughout (`failed_share`) has no spread.
        let iqr = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        let range = if q2 == 0.0 {
            max - min
        } else {
            (max - min) / q2
        };
        let bound = bounds.get(name);
        println!(
            "{workload:<16} {name:<16} {q1:>12.3} {q2:>12.3} {q3:>12.3} {iqr:>8.4} {range:>8.4} {:>6}{}{}",
            bound.map_or("-".to_string(), |b| format!("{b:.2}")),
            if iqr > 0.10 { "  unresolved" } else { "" },
            if bound.is_some_and(|b| iqr > *b) {
                "  SPREAD OVER BOUND"
            } else {
                ""
            }
        );
    }
    Ok(())
}
