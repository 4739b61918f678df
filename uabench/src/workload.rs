//! What a workload is to the harness: a served engine, a deterministic
//! request stream, and the ground truth every answer is checked against.

use crate::gen::OpGenerator;
use algebra::{parse_query, ProjItem, Query};
use engine::{EvalConfig, EvalOutput, ServingEngine, UEngine};
use pdb::{Tuple, Value};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use urel::{UDatabase, URelation};

pub mod cold_adhoc;
pub mod estimation_mix;
pub mod update_churn;
pub mod warm_serve;

/// The four workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["warm_serve", "estimation_mix", "cold_adhoc", "update_churn"];

/// The engine configuration README recommends for serving, with the shard
/// count pinned (the default is derived from the host).
pub fn serving_config() -> EvalConfig {
    EvalConfig::default()
        .with_exact_backend(confidence::cost::DEFAULT_NODE_BUDGET)
        .with_shared_sampling(true)
        .with_shards(2)
}

/// The 2-hop path self-join over `T(Id, A, B)` read as edges `A → B`: the
/// correlated, wide lineage the cost model routes to sampling.
pub const PATH: &str = "join(project[A, B](T), project[B, C](rename[A -> B](rename[B -> C](T))))";

/// True probabilities per output tuple, ascending by tuple.
pub type Truth = Vec<(Tuple, f64)>;

/// What a correct answer to a request looks like.
#[derive(Clone, Copy, Debug)]
pub enum Expect<'a> {
    /// Exact `conf`: the answer relation equals this one bit for bit.
    Exact(&'a URelation),
    /// `aconf`: the same tuples, each value within relative `epsilon` of the
    /// truth.
    Within { truth: &'a Truth, epsilon: f64 },
    /// `σ̂`: every candidate whose true confidence is further than `eps0`
    /// (relative) from `theta` is kept iff it clears `theta`.
    Decide {
        truth: &'a Truth,
        theta: f64,
        eps0: f64,
    },
    /// No truth known up front (never-seen text, or the database is being
    /// written): the answer must be well formed, and a sample of such
    /// requests is replayed one-shot after the window.
    WellFormed,
}

/// One request of a workload's stream.
#[derive(Clone, Debug)]
pub struct Req<'a> {
    pub text: Cow<'a, str>,
    /// Per-request (ε, δ) override ([`engine::Request::with_accuracy`]).
    pub accuracy: Option<(f64, f64)>,
    /// Index of the request's shape (trace tag).
    pub shape: u32,
    /// Whether the trace accounts the request as cold: its text was never
    /// prepared before, so it pays parsing, lowering and execution.
    pub cold: bool,
    pub expect: Expect<'a>,
}

/// The verdict on one answer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdict {
    /// An answer no guarantee allows: wrong tuples, a differing exact value,
    /// a malformed row.  One of these fails the run.
    pub failure: Option<String>,
    /// The first miss an (ε, δ) guarantee does allow — an `aconf` value off
    /// by more than ε, a wrong `σ̂` decision.  The answer counts as failed,
    /// but the run fails only if the share of misses exceeds what δ
    /// tolerates ([`tolerated_share`]).
    pub miss: Option<String>,
    /// `aconf` events compared against the truth, and how many were off by
    /// more than ε.
    pub events: u64,
    pub eps_violations: u64,
    /// `σ̂` decisions on candidates away from the singularity, and how many
    /// were wrong.
    pub decisions: u64,
    pub decision_errors: u64,
}

/// The share of ε-violating events (or wrong decisions) a δ-guarantee
/// tolerates over `n` trials: δ plus three standard errors.
pub fn tolerated_share(delta: f64, n: u64) -> f64 {
    delta + 3.0 * (delta * (1.0 - delta) / n.max(1) as f64).sqrt()
}

fn probability_of(tuple: &Tuple) -> Option<(Tuple, f64)> {
    let n = tuple.arity().checked_sub(1)?;
    let p = tuple.get(n)?.as_f64()?;
    Some((tuple.project(&(0..n).collect::<Vec<_>>()), p))
}

/// Checks `answer` against `expect`.
pub fn check(expect: &Expect<'_>, answer: &URelation) -> Verdict {
    let mut v = Verdict::default();
    match *expect {
        Expect::Exact(truth) => {
            if answer != truth {
                v.failure = Some(format!(
                    "exact answer differs from the one-shot exact engine ({} rows vs {})",
                    answer.len(),
                    truth.len()
                ));
            }
        }
        Expect::Within { truth, epsilon } => {
            if answer.len() != truth.len() {
                v.failure = Some(format!(
                    "aconf answer has {} tuples, truth has {}",
                    answer.len(),
                    truth.len()
                ));
                return v;
            }
            for (row, (tuple, p)) in answer.iter().zip(truth) {
                match probability_of(&row.tuple) {
                    Some((t, estimate)) if &t == tuple => {
                        v.events += 1;
                        if (estimate - p).abs() > epsilon * p {
                            v.eps_violations += 1;
                            v.miss.get_or_insert_with(|| {
                                format!("aconf of {tuple} is {estimate}, truth {p}, ε {epsilon}")
                            });
                        }
                    }
                    _ => {
                        v.failure = Some(format!("aconf answer row {} has no truth", row.tuple));
                        return v;
                    }
                }
            }
        }
        Expect::Decide { truth, theta, eps0 } => {
            let kept: std::collections::BTreeSet<&Tuple> =
                answer.iter().map(|row| &row.tuple).collect();
            for (tuple, p) in truth {
                if (p - theta).abs() <= eps0 * p.max(theta) {
                    continue;
                }
                v.decisions += 1;
                if kept.contains(tuple) != (*p >= theta) {
                    v.decision_errors += 1;
                    v.miss.get_or_insert_with(|| {
                        format!("σ̂ decided {tuple} wrongly: confidence {p}, threshold {theta}")
                    });
                }
            }
        }
        Expect::WellFormed => {
            for row in answer.iter() {
                if !row.condition.is_empty() {
                    v.failure = Some(format!(
                        "complete answer has a conditional row {}",
                        row.tuple
                    ));
                    return v;
                }
                let confidence = row
                    .tuple
                    .values()
                    .last()
                    .filter(|v| matches!(v, Value::Float(_)))
                    .and_then(Value::as_f64);
                if let Some(p) = confidence.filter(|p| !(0.0..=1.0 + 1e-9).contains(p)) {
                    v.failure = Some(format!(
                        "confidence {p} of {} is not a probability",
                        row.tuple
                    ));
                    return v;
                }
            }
        }
    }
    v
}

/// Evaluates `text` one-shot on the fully exact reference engine.
pub fn exact_answer(db: &UDatabase, text: &str) -> Result<URelation, String> {
    let query = parse_query(text).map_err(|e| format!("{text}: {e}"))?;
    one_shot(db, &query, EvalConfig::exact(), 0).map(|out| out.result.relation)
}

/// One-shot [`UEngine::evaluate`] under `config` with a fresh RNG.
pub fn one_shot(
    db: &UDatabase,
    query: &Query,
    config: EvalConfig,
    rng_seed: u64,
) -> Result<EvalOutput, String> {
    UEngine::new(config)
        .evaluate(db, query, &mut ChaCha8Rng::seed_from_u64(rng_seed))
        .map_err(|e| format!("{query}: {e}"))
}

/// The exact confidence of every tuple an `aconf` / accuracy-overridden
/// `conf` query reports: the same query with its root made an exact `conf`.
pub fn confidence_truth(db: &UDatabase, text: &str) -> Result<Truth, String> {
    let query = parse_query(text).map_err(|e| format!("{text}: {e}"))?;
    let exact = match query {
        Query::ApproxConf {
            input, prob_attr, ..
        }
        | Query::Conf { input, prob_attr } => Query::Conf { input, prob_attr },
        other => return Err(format!("{other}: not a confidence query")),
    };
    truth_of(db, &exact)
}

/// The exact confidence of every candidate of a single-term `σ̂` query.
pub fn decision_truth(db: &UDatabase, text: &str) -> Result<Truth, String> {
    let query = parse_query(text).map_err(|e| format!("{text}: {e}"))?;
    let Query::ApproxSelect { input, terms, .. } = query else {
        return Err(format!("{text}: not an approximate selection"));
    };
    let [term] = terms.as_slice() else {
        return Err(format!("{text}: expected one confidence term"));
    };
    let items = term.attrs.iter().map(ProjItem::attr).collect();
    truth_of(db, &input.project_items(items).conf("P"))
}

fn truth_of(db: &UDatabase, exact: &Query) -> Result<Truth, String> {
    let out = one_shot(db, exact, EvalConfig::exact(), 0)?;
    out.result
        .relation
        .iter()
        .map(|row| {
            probability_of(&row.tuple).ok_or_else(|| format!("{exact}: no probability column"))
        })
        .collect()
}

/// A workload as the driver sees it.
pub trait Workload: Sync {
    fn name(&self) -> &'static str;
    /// The shared engine every client serves from.
    fn engine(&self) -> &ServingEngine;
    /// The database content the engine started with.
    fn database(&self) -> &UDatabase;
    /// Request `index` of read client `client`.
    fn request(&self, client: usize, index: u64) -> Req<'_>;
    /// The largest δ of the workload's probabilistic guarantees: the share
    /// of ε-violating `aconf` events (and wrong `σ̂` decisions) may not
    /// exceed it by more than three standard errors.
    fn delta(&self) -> f64 {
        0.05
    }
    /// Keep one answer in this many (chosen by [`crate::gen::sampled`]) for
    /// replay after the window (0: none).
    fn retain_one_in(&self) -> u64 {
        0
    }
    /// The writer's operation stream (`update_churn` only).
    fn writer(&self) -> Option<OpGenerator> {
        None
    }
    /// The complete relation single-row update probes edit.
    fn update_target(&self) -> &'static str;
    /// A join body over this workload's relations (spill probe).
    fn join_probe(&self) -> &'static str;
}

/// Builds a workload from the seed: inputs, engine, ground truth, and one
/// priming pass over every repeated request shape.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "warm_serve" => Ok(Box::new(warm_serve::WarmServe::build(seed)?)),
        "estimation_mix" => Ok(Box::new(estimation_mix::EstimationMix::build(seed)?)),
        "cold_adhoc" => Ok(Box::new(cold_adhoc::ColdAdhoc::build(seed)?)),
        "update_churn" => Ok(Box::new(update_churn::UpdateChurn::build(seed)?)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Serves `req` once outside any measurement (priming).
pub fn prime(engine: &ServingEngine, req: &Req<'_>) -> Result<(), String> {
    let mut request = engine::Request::new(&req.text);
    if let Some((epsilon, delta)) = req.accuracy {
        request = request.with_accuracy(epsilon, delta);
    }
    engine
        .evaluate_request(&request, &mut ChaCha8Rng::seed_from_u64(0))
        .map(|_| ())
        .map_err(|e| format!("priming {}: {e}", req.text))
}
