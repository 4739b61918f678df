//! Serving-performance measurement: emits `BENCH_serving.json`.
//!
//! ```text
//! cargo run --release -p bench --bin serving              # full sizes, writes BENCH_serving.json
//! cargo run --release -p bench --bin serving -- --smoke   # CI smoke: small sizes, prints only
//! cargo run --release -p bench --bin serving -- --out p   # custom output path
//! ```
//!
//! The two measurements no `uabench` workload reproduces (that benchmark
//! pins the engine to two shards and its pool to one worker, and times the
//! kernel on its workloads' own arenas only):
//!
//! 1. **Sharded execution** — the large random-DB join workload at
//!    1/2/4/8 shards.
//! 2. **Estimator backends** — kernel samples/second across the block
//!    widths `W ∈ {1, 2, 4}` (64/128/256 lanes per instruction pass), and
//!    d-DNNF compile + weighted-model-count wall time vs FPRAS sampling
//!    wall time on single-literal unions of growing width, annotated with
//!    which backend the cost model picks at the default node budget.

use algebra::LogicalPlan;
use confidence::BitKarpLuby;
use engine::{catalog_of, CompiledSpace, EvalConfig, UEngine};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::TupleIndependentDb;

/// Median wall-clock of `runs` invocations, in microseconds.
fn median_micros(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `(shards, median wall time in µs)` of the join at each shard count.
fn sharding_experiment(num_tuples: usize, runs: usize) -> Vec<(usize, f64)> {
    let db = TupleIndependentDb {
        num_tuples,
        domain_size: 150,
        tuple_probability: Some(0.4),
        seed: 5,
    }
    .database();
    let query = algebra::parse_query("join(project[A, B](T), rename[B -> C](project[A, B](T)))")
        .expect("join query parses");
    let catalog = catalog_of(&db).expect("catalog");
    let plan = LogicalPlan::lower_validated(&query, &catalog).expect("plan lowers");

    [1usize, 2, 4, 8]
        .into_iter()
        .map(|shards| {
            let engine = UEngine::new(EvalConfig::default().with_shards(shards));
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let wall_us = median_micros(runs, || {
                engine
                    .evaluate_plan(&db, &plan, &mut rng)
                    .expect("evaluates");
            });
            (shards, wall_us)
        })
        .collect()
}

/// One rung of the width sweep: a single-literal union of `terms`
/// independent Boolean variables, answered both ways.
struct BackendWidthRow {
    terms: usize,
    /// The Chernoff sample budget of `aconf[0.2, 0.1]` at this width.
    samples_budget: usize,
    /// Median d-DNNF compile + weighted model count, microseconds.
    dnnf_us: f64,
    /// One full FPRAS sampling pass on the widest (4-word) kernel,
    /// microseconds.
    fpras_us: f64,
    /// What `cost::choose_backend` picks at the default node budget.
    chosen: &'static str,
}

/// Results of the estimator-backends experiment: kernel throughput per
/// block width, and the compile-vs-sample tradeoff by lineage width.
struct BackendsResult {
    /// Events in the kernel-throughput batch (the lineage of
    /// `aconf[0.2, 0.1](project[A](T))`).
    kernel_events: usize,
    /// `(words, samples_per_sec)` for `W ∈ {1, 2, 4}`.
    kernel: Vec<(usize, f64)>,
    widths: Vec<BackendWidthRow>,
}

fn estimator_backends_experiment(num_tuples: usize, smoke: bool) -> BackendsResult {
    use std::sync::Arc;

    let db = TupleIndependentDb {
        num_tuples,
        domain_size: 8,
        tuple_probability: None,
        seed: 11,
    }
    .database();
    // The batch an `aconf[0.2, 0.1](project[A](T))` request estimates over:
    // the lineage of project[A](T), extracted and compiled by the engine's
    // own cache.
    let space = CompiledSpace::compile(db.wtable()).expect("compiled space");
    let relation = db.relation("T").expect("relation T");
    let projected =
        engine::ops::project(relation, &[algebra::ProjItem::attr("A")]).expect("projection");
    let lineage = space.relation_events(&projected).expect("lineage batch");
    let programs = lineage.programs();
    let params = confidence::FprasParams::new(0.2, 0.1).expect("params");

    // Kernel throughput per block width on that lineage: the engine's own
    // sample bill, same seed, 64/128/256 lanes per pass.
    let fpras = confidence::FprasEstimator::new(params);
    let mut kernel = Vec::new();
    for words in [1usize, 2, 4] {
        let mut samples = 0usize;
        let start = Instant::now();
        for index in 0..programs.len() {
            let m = fpras.bill(programs, index).expect("budget") as usize;
            let mut k =
                BitKarpLuby::new_with_width(programs.clone(), index, words).expect("kernel");
            let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
            let _ = k.estimate(m, &mut rng).expect("estimate");
            samples += m;
        }
        let secs = start.elapsed().as_secs_f64();
        kernel.push((words, samples as f64 / secs.max(1e-9)));
    }

    // Compile-vs-sample by lineage width: single-literal unions of `w`
    // independent p = 0.5 coins — the d-DNNF is a linear decision chain, so
    // compile + WMC stays flat while the Chernoff sample bill grows with w.
    let widths: &[usize] = if smoke {
        &[4, 16, 64]
    } else {
        &[4, 16, 64, 256]
    };
    let rows = widths
        .iter()
        .map(|&w| {
            let mut event_space = confidence::ProbabilitySpace::new();
            let terms: Vec<confidence::Assignment> = (0..w)
                .map(|_| {
                    let v = event_space.add_bool_variable(0.5).expect("variable");
                    confidence::Assignment::new([(v, 0)]).expect("literal")
                })
                .collect();
            let event = confidence::DnfEvent::new(terms);
            let programs = Arc::new(
                confidence::LineagePrograms::compile(vec![event.clone()], &event_space)
                    .expect("compile"),
            );
            let m = params.samples_for(w).expect("budget");
            let budget = confidence::cost::DEFAULT_NODE_BUDGET;
            let chosen =
                match confidence::cost::choose_backend(programs.dnnf_estimate(0), m as u64, budget)
                {
                    confidence::Backend::Exact => "exact",
                    confidence::Backend::Sample => "sample",
                };
            let dnnf_us = median_micros(9, || {
                let _ = confidence::dnnf::probability(&event, &event_space, budget)
                    .expect("d-DNNF probability");
            });
            let mut k = BitKarpLuby::new_with_width(programs.clone(), 0, 4).expect("kernel");
            let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
            let start = Instant::now();
            let _ = k.estimate(m, &mut rng).expect("estimate");
            let fpras_us = start.elapsed().as_secs_f64() * 1e6;
            BackendWidthRow {
                terms: w,
                samples_budget: m,
                dnnf_us,
                fpras_us,
                chosen,
            }
        })
        .collect();

    BackendsResult {
        kernel_events: programs.len(),
        kernel,
        widths: rows,
    }
}

/// The separator after element `i` of a JSON array of `len` elements.
fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

fn render_json(smoke: bool, shards: &[(usize, f64)], backends: &BackendsResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p bench --bin serving\","
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    // The machine's real thread budget, straight from the OS (the rayon
    // shim's view can be narrower than the hardware).
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let wall = |n| shards.iter().find(|s| s.0 == n).map_or(f64::NAN, |s| s.1);
    let _ = writeln!(out, "  \"sharded_join\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"random-db self-join on A (tuple-independent T, domain 150)\","
    );
    let _ = writeln!(out, "    \"results\": [");
    for (i, (count, wall_us)) in shards.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"shards\": {count}, \"wall_us\": {wall_us:.1}}}{}",
            comma(i, shards.len())
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(
        out,
        "    \"speedup_4_shards_vs_single_batch\": {:.2}",
        wall(1) / wall(4).max(1e-9)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"estimator_backends\": {{");
    let _ = writeln!(
        out,
        "    \"workload\": \"kernel throughput per block width over the lineage batch of \
         aconf[0.2, 0.1](project[A](T)) ({} events), and d-DNNF compile+WMC vs one full \
         FPRAS sampling pass on single-literal unions of growing width (aconf[0.2, 0.1] \
         Chernoff budgets, default node budget {})\",",
        backends.kernel_events,
        confidence::cost::DEFAULT_NODE_BUDGET
    );
    let _ = writeln!(out, "    \"kernel_samples_per_sec\": [");
    for (i, (words, rate)) in backends.kernel.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"words\": {}, \"lanes\": {}, \"samples_per_sec\": {:.0}}}{}",
            words,
            words * 64,
            rate,
            comma(i, backends.kernel.len())
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(out, "    \"compile_vs_sample\": [");
    for (i, row) in backends.widths.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"terms\": {}, \"samples_budget\": {}, \"dnnf_us\": {:.1}, \
             \"fpras_us\": {:.1}, \"cost_model_picks\": \"{}\"}}{}",
            row.terms,
            row.samples_budget,
            row.dnnf_us,
            row.fpras_us,
            row.chosen,
            comma(i, backends.widths.len())
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());

    let (lineage_tuples, join_tuples, runs) = if smoke { (80, 200, 5) } else { (800, 1500, 11) };
    let shards = sharding_experiment(join_tuples, runs);
    let backends = estimator_backends_experiment(lineage_tuples, smoke);
    let json = render_json(smoke, &shards, &backends);
    print!("{json}");

    if !smoke {
        let path = out_path.unwrap_or_else(|| "BENCH_serving.json".to_string());
        std::fs::write(&path, &json).expect("write BENCH_serving.json");
        eprintln!("wrote {path}");
    }
}
