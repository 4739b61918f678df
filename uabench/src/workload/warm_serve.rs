//! `warm_serve`: the steady state of a production server — a small repeated
//! mix, everything warm after set-up, so a request is a plan-cache hit, a
//! pool hit, a resume and a memoised estimator lookup.

use super::{
    confidence_truth, exact_answer, prime, serving_config, Expect, Req, Truth, Workload, PATH,
};
use crate::gen;
use engine::ServingEngine;
use std::borrow::Cow;
use urel::{UDatabase, URelation};

/// Keys of `R`; each has three weighted alternatives (`R` holds 3 × KEYS
/// rows).
pub const KEYS: usize = 240;
/// Tuples and nodes of the path relation `T`.
pub const PATH_TUPLES: usize = 50;
pub const PATH_NODES: usize = 10;

/// The truth of one repeated shape.
enum ShapeTruth {
    Exact(URelation),
    Within(Truth, f64),
}

/// One repeated query shape with its weight in the mix.
struct Shape {
    text: String,
    weight: usize,
    truth: ShapeTruth,
}

/// The database of `warm_serve` and `update_churn`: `keys` keys of `R`
/// spread over `keys / 10` labels of `S`, plus the path relation `T`.
pub fn database(keys: usize, seed: u64) -> UDatabase {
    let mut db = gen::rs_database(keys, keys / 10, seed);
    gen::add_path_tuples(&mut db, PATH_TUPLES, PATH_NODES, 0.05..0.25, seed);
    db
}

/// The warm mix over a primed engine, shared by `warm_serve` and
/// `update_churn`.  By weight: the exact join `conf` ×3, a loose `aconf`
/// over the wide path lineage ×1 (sampled once, then a shared-tally lookup),
/// a tight `aconf` over the narrow join lineage ×1 (compiled to a d-DNNF
/// once, then a memoised lookup), and a cheap point `conf` ×3.
pub struct Mix {
    pub db: UDatabase,
    pub engine: ServingEngine,
    shapes: Vec<Shape>,
    /// Shape indices repeated by weight: walking it round-robin reproduces
    /// the mix without randomness.
    schedule: Vec<usize>,
}

impl Mix {
    /// Generates the database, computes every shape's truth, builds the
    /// engine and serves each shape once.
    pub fn build(keys: usize, seed: u64) -> Result<Mix, String> {
        let db = database(keys, seed);
        let join = "project[B](join(repairkey[K @ W](R), S))";
        let exact = |text: String, weight| -> Result<Shape, String> {
            let truth = ShapeTruth::Exact(exact_answer(&db, &text)?);
            Ok(Shape {
                text,
                weight,
                truth,
            })
        };
        let within = |text: String, epsilon| -> Result<Shape, String> {
            let truth = ShapeTruth::Within(confidence_truth(&db, &text)?, epsilon);
            Ok(Shape {
                text,
                weight: 1,
                truth,
            })
        };
        let shapes = vec![
            exact(format!("conf({join})"), 3)?,
            within(format!("aconf[0.30, 0.2](project[]({PATH}))"), 0.30)?,
            within(format!("aconf[0.05, 0.05]({join})"), 0.05)?,
            exact(
                "conf(project[K](select[K < 40 and W >= 3](repairkey[K @ W](R))))".to_string(),
                3,
            )?,
        ];
        let schedule: Vec<usize> = shapes
            .iter()
            .enumerate()
            .flat_map(|(i, s)| std::iter::repeat_n(i, s.weight))
            .collect();
        let engine = ServingEngine::new(serving_config(), db.clone()).map_err(|e| e.to_string())?;
        let mix = Mix {
            db,
            engine,
            shapes,
            schedule,
        };
        for i in 0..mix.schedule.len() as u64 {
            prime(&mix.engine, &mix.request(0, i, true))?;
        }
        Ok(mix)
    }

    /// The request at `index` of a round-robin walk offset per client;
    /// `checked` requests carry the set-up truth, unchecked ones only have
    /// to be well formed (the database they read is being written).
    pub fn request(&self, client: usize, index: u64, checked: bool) -> Req<'_> {
        let at = self.schedule[(index as usize + client * 3) % self.schedule.len()];
        let shape = &self.shapes[at];
        Req {
            text: Cow::Borrowed(&shape.text),
            accuracy: None,
            shape: at as u32,
            cold: false,
            expect: match &shape.truth {
                _ if !checked => Expect::WellFormed,
                ShapeTruth::Exact(truth) => Expect::Exact(truth),
                ShapeTruth::Within(truth, epsilon) => Expect::Within {
                    truth,
                    epsilon: *epsilon,
                },
            },
        }
    }
}

pub struct WarmServe(Mix);

impl WarmServe {
    pub fn build(seed: u64) -> Result<WarmServe, String> {
        Mix::build(KEYS, seed).map(WarmServe)
    }
}

impl Workload for WarmServe {
    fn name(&self) -> &'static str {
        "warm_serve"
    }
    fn engine(&self) -> &ServingEngine {
        &self.0.engine
    }
    fn database(&self) -> &UDatabase {
        &self.0.db
    }
    fn request(&self, client: usize, index: u64) -> Req<'_> {
        self.0.request(client, index, true)
    }
    fn delta(&self) -> f64 {
        0.2
    }
    fn update_target(&self) -> &'static str {
        "S"
    }
    fn join_probe(&self) -> &'static str {
        "join(repairkey[K @ W](R), S)"
    }
}
