//! Self-tests of the benchmark harness (not part of the repository's tier-1
//! run): `cargo test --release --manifest-path uabench/Cargo.toml`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use uabench::bench::{separation_violations, trace_overhead_share, END_TO_END, PER_LAYER};
use uabench::clock::{host_speed, REFERENCE_NOMINAL_NS};
use uabench::driver::{
    apply_op, guarantee_failures, request_id, request_traced, verify_content, Read, ReadLog,
    CLIENTS, READ_LOG_CAP,
};
use uabench::gen::{self, OpGenerator};
use uabench::json::Json;
use uabench::stats::{percentile, quartiles, tail_percentile};
use uabench::trace::{self_time_ns, Span};
use uabench::workload::{self, check, confidence_truth, warm_serve, Expect, WORKLOADS};

/// Pins the engine's pool to one worker before any test touches the engine
/// (two or more deadlock — see `src/main.rs`).  Behind a `Once`, so no test
/// thread reads the environment while another writes it.
fn pin_pool() {
    static PIN: std::sync::Once = std::sync::Once::new();
    PIN.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "1"));
}

/// The bytes a database's relations and W-table encode to.
fn encoded(db: &urel::UDatabase) -> Vec<u8> {
    let mut out = Vec::new();
    urel::segment::put_wtable(&mut out, db.wtable());
    for name in db.relation_names() {
        urel::segment::put_relation(&mut out, db.relation(&name).unwrap());
    }
    out
}

#[test]
fn the_same_seed_gives_byte_identical_inputs_and_op_log() {
    pin_pool();
    for name in WORKLOADS {
        let a = workload::build(name, 42).unwrap();
        let b = workload::build(name, 42).unwrap();
        let other = workload::build(name, 43).unwrap();
        assert_eq!(
            encoded(a.database()),
            encoded(b.database()),
            "{name}: inputs differ"
        );
        assert_ne!(
            encoded(a.database()),
            encoded(other.database()),
            "{name}: seed ignored"
        );
        for client in 0..2 {
            for index in 0..200 {
                let (x, y) = (a.request(client, index), b.request(client, index));
                assert_eq!(x.text, y.text);
                assert_eq!(x.accuracy, y.accuracy);
            }
        }
    }
    let db = warm_serve::database(60, 42);
    let log = |seed| {
        let mut ops = OpGenerator::new(&db, seed);
        (0..300)
            .map(|_| format!("{:?}", ops.next_op()))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(log(42).as_bytes(), log(42).as_bytes());
    assert_ne!(log(42), log(43));
}

#[test]
fn cold_adhoc_never_repeats_a_text() {
    pin_pool();
    let w = workload::build("cold_adhoc", 7).unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for client in 0..2 {
        for index in 0..2000 {
            assert!(seen.insert(w.request(client, index).text.to_string()));
        }
    }
}

#[test]
fn percentiles_and_the_samples_beyond_rule() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 0.5), 51.0);
    assert_eq!(percentile(&sorted, 1.0), 100.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
    // p95 needs 200 samples to leave ten beyond it; smaller samples fall
    // back to the highest percentile that does.
    assert_eq!(tail_percentile(1000, 0.95, 10), (0.95, 50));
    assert_eq!(tail_percentile(1000, 0.99, 10), (0.99, 10));
    assert_eq!(tail_percentile(150, 0.95, 10), (0.90, 15));
    assert_eq!(tail_percentile(60, 0.95, 10), (0.75, 15));
    assert_eq!(tail_percentile(30, 0.95, 10), (0.50, 15));
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
}

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        request: 1,
        name: "s",
        start_ns,
        end_ns,
        tag: 0,
    }
}

#[test]
fn self_time_subtracts_what_children_cover_once() {
    let parent = span(1, 0, 0, 100);
    // Overlapping children are counted once; a child running past its
    // parent is clipped to it.
    let children = [span(2, 1, 10, 30), span(3, 1, 20, 50), span(4, 1, 90, 120)];
    assert_eq!(self_time_ns(&parent, &children), 100 - (40 + 10));
    assert_eq!(self_time_ns(&parent, &[]), 100);
    assert_eq!(self_time_ns(&parent, &[span(5, 1, 0, 100)]), 0);
}

#[test]
fn the_checker_rejects_a_perturbed_aconf_answer() {
    pin_pool();
    let db = warm_serve::database(60, 3);
    let text = "aconf[0.05, 0.05](project[B](join(repairkey[K @ W](R), S)))";
    let truth = confidence_truth(&db, text).unwrap();
    assert!(!truth.is_empty());
    let answer = |scale: f64| {
        let schema = pdb::Schema::new(["B", "P"]).unwrap();
        let mut rel = urel::URelation::empty(schema);
        for (i, (tuple, p)) in truth.iter().enumerate() {
            let p = if i == 0 { p * scale } else { *p };
            rel.insert(
                urel::Condition::always(),
                tuple.with_appended(pdb::Value::float(p)),
            )
            .unwrap();
        }
        rel
    };
    let expect = Expect::Within {
        truth: &truth,
        epsilon: 0.05,
    };
    let good = check(&expect, &answer(1.0));
    assert_eq!((good.failure, good.miss), (None, None));
    assert_eq!(good.events, truth.len() as u64);
    // Off by more than ε: a miss the (ε, δ) guarantee allows now and then,
    // so it is counted but is not by itself a failure of the run.
    let bad = check(&expect, &answer(1.2));
    assert!(bad.miss.is_some());
    assert_eq!((bad.failure, bad.eps_violations), (None, 1));
    // A missing tuple is an answer no guarantee allows.
    let mut short = answer(1.0);
    let first = short.iter().next().unwrap().clone();
    short.remove_row(&first);
    assert!(check(&expect, &short).failure.is_some());
}

#[test]
fn only_the_share_of_misses_fails_a_run() {
    let log = |events, eps_violations| ReadLog {
        events,
        eps_violations,
        ..ReadLog::default()
    };
    // One miss in ten thousand events is well within δ = 0.05 …
    assert_eq!(
        guarantee_failures(&log(10_000, 1), 0.05),
        Vec::<String>::new()
    );
    // … and so is δ itself; three standard errors past it is not.
    assert!(guarantee_failures(&log(10_000, 500), 0.05).is_empty());
    assert_eq!(guarantee_failures(&log(10_000, 600), 0.05).len(), 1);
    let decisions = ReadLog {
        decisions: 100,
        decision_errors: 30,
        ..ReadLog::default()
    };
    assert_eq!(guarantee_failures(&decisions, 0.05).len(), 1);
}

#[test]
fn replayed_and_retained_samples_cover_every_shape() {
    pin_pool();
    for name in WORKLOADS {
        let w = workload::build(name, 7).unwrap();
        // As many requests as a short traced window sends.
        let stream: Vec<(usize, u64)> = (0..CLIENTS)
            .flat_map(|client| (0..1500).map(move |index| (client, index)))
            .collect();
        let shapes = |requests: &[(usize, u64)]| -> BTreeSet<u32> {
            requests
                .iter()
                .map(|&(c, i)| w.request(c, i).shape)
                .collect()
        };
        let all = shapes(&stream);
        assert!(all.len() >= 3, "{name}: {all:?}");
        let traced: Vec<(usize, u64)> = stream
            .iter()
            .copied()
            .filter(|&(c, i)| request_traced(7, c, i))
            .collect();
        assert_eq!(shapes(&traced), all, "{name}: traced requests");
        let replayed = gen::pick_sample(7, traced, 256);
        assert_eq!(replayed.len(), 256);
        assert_eq!(shapes(&replayed), all, "{name}: replayed requests");
        let one_in = w.retain_one_in();
        if one_in > 0 {
            let retained: Vec<(usize, u64)> = (0..400 * one_in)
                .filter(|&i| gen::sampled(7, 0, i, one_in))
                .map(|i| (0, i))
                .collect();
            assert_eq!(shapes(&retained), all, "{name}: retained answers");
        }
    }
}

#[test]
fn tracing_overhead_is_compared_shape_by_shape() {
    // Two shapes whose cycle times differ tenfold; a traced request takes a
    // tenth longer.  Whatever the mix of shapes among the traced requests,
    // the overhead is 1 − 1 / 1.1.
    let mut reads = Vec::new();
    let mut at = 0u64;
    for index in 0..4000u64 {
        let shape = u32::from(index % 5 == 0);
        let cycle = if shape == 1 { 100_000 } else { 10_000 };
        reads.push(Read {
            request: request_id(0, index),
            start_ns: at,
            lat_ns: cycle as u32 / 2,
            cpu_ns: cycle as u32 / 2,
            shape,
        });
        at += if request_traced(3, 0, index) {
            cycle + cycle / 10
        } else {
            cycle
        };
    }
    let overhead = trace_overhead_share(3, &reads);
    assert!((overhead - (1.0 - 1.0 / 1.1)).abs() < 1e-9, "{overhead}");
}

#[test]
fn the_host_speed_is_nominal_time_over_the_median_reference_run() {
    assert_eq!(host_speed(&[]), 1.0);
    let nominal = REFERENCE_NOMINAL_NS as u64;
    // One run in five hit by a hiccup does not move the speed.
    let runs = [2 * nominal, 2 * nominal, nominal, 9 * nominal, 2 * nominal];
    assert_eq!(host_speed(&runs), 0.5);
}

#[test]
fn a_full_read_log_keeps_a_sample_of_what_follows() {
    let mut log = ReadLog::default();
    let extra = 50_000;
    for index in 0..(READ_LOG_CAP + extra) as u64 {
        log.record(Read {
            request: index,
            start_ns: index,
            lat_ns: 1,
            cpu_ns: 1,
            shape: 0,
        });
    }
    assert_eq!(log.reads.len(), READ_LOG_CAP);
    assert_eq!(log.recorded, (READ_LOG_CAP + extra) as u64);
    // Later reads take the place of earlier ones at the rate a uniform
    // sample needs: extra · cap / (cap + extra), give or take.
    let late = log
        .reads
        .iter()
        .filter(|r| r.request >= READ_LOG_CAP as u64)
        .count() as f64;
    let expected = (extra * READ_LOG_CAP) as f64 / (READ_LOG_CAP + extra) as f64;
    assert!((late / expected - 1.0).abs() < 0.1, "{late} vs {expected}");
}

#[test]
fn separation_rules_name_the_workload_that_lost_its_layer() {
    let m = |pairs: &[(&'static str, f64)]| pairs.iter().copied().collect::<BTreeMap<_, _>>();
    let warm = m(&[("engine.serving.self_share", 0.8)]);
    assert!(separation_violations("warm_serve", 20.0, &warm).is_empty());
    let sampling_in_warm = m(&[("engine.serving.self_share", 0.3)]);
    let violations = separation_violations("warm_serve", 20.0, &sampling_in_warm);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains("engine.serving.self_share"));
    let cached = m(&[
        ("engine.serving.self_share", 0.04),
        ("confidence.fresh_sample_share", 0.2),
        ("driver.trace_overhead_share", 0.3),
    ]);
    assert_eq!(
        separation_violations("estimation_mix", 20.0, &cached).len(),
        2
    );
}

#[test]
fn the_checker_rejects_a_dropped_delta() {
    pin_pool();
    let db = warm_serve::database(60, 5);
    let engine = engine::ServingEngine::new(workload::serving_config(), db.clone()).unwrap();
    let mut ops = OpGenerator::new(&db, 5);
    // Ten ops generated, the last one never reaches the engine.
    let log: Vec<_> = (0..10).map(|_| ops.next_op()).collect();
    for op in &log[..9] {
        apply_op(&engine, op).unwrap();
    }
    assert_eq!(verify_content(&engine.database(), &db, 5, 9), Ok(()));
    let dropped = verify_content(&engine.database(), &db, 5, 10);
    assert!(dropped.is_err(), "a dropped delta went unnoticed");
}

#[test]
fn the_result_line_parses_back() {
    let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"latency_p50_us": {"value": 1.25, "unit": "us"}}}"#;
    let parsed = Json::parse(line).unwrap();
    assert_eq!(parsed.render(), line);
    assert_eq!(
        parsed.get("metrics").unwrap().metric_values()["latency_p50_us"],
        1.25
    );
    assert!(Json::parse("{\"a\": }").is_err());
}

#[test]
fn benchmark_json_names_what_the_harness_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = spec.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| match item.get(f) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let declared = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), declared(&END_TO_END));
    assert_eq!(names("per_layer"), declared(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn quick_mode_finishes_all_four_workloads_within_a_minute() {
    let start = Instant::now();
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_uabench"))
        .args(["run", "--quick", "--seed", "11"])
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "took {:?}",
        start.elapsed()
    );
    let result =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/out/result.json")).unwrap();
    assert!(result.trim_end().ends_with("\"claim\": null}"));
    let parsed = Json::parse(&result).unwrap();
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
}
