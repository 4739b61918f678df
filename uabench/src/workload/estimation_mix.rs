//! `estimation_mix`: the paper's own subject — `conf_{ε,δ}` over correlated
//! wide lineage the cost model routes to sampling, and `σ̂` selections, so
//! time is spent in `confidence` and `approx`, not in the serving layer.

use super::{
    confidence_truth, decision_truth, prime, serving_config, Expect, Req, Truth, Workload, PATH,
};
use crate::gen;
use engine::ServingEngine;
use rand::Rng;
use std::borrow::Cow;
use urel::UDatabase;
use workloads::SensorWorkload;

/// Tuples and nodes of the path relation `T`.  "Some 2-hop path exists" is
/// one connected event of ~250 terms over 50 variables: its structural size
/// estimate (terms × variables) is past the d-DNNF node budget, so the cost
/// model samples it at every ε.  (Per-source-node path events would not do:
/// their successors' edges are disjoint, so they split into small
/// independent components and compile.)
pub const PATH_TUPLES: usize = 50;
pub const PATH_NODES: usize = 10;
pub const SENSORS: usize = 60;
pub const READINGS: usize = 6;
/// Per-request relative error grid (δ = 0.05).  A grid, not a continuum:
/// every distinct ε prepares and pools separately, and a continuum would
/// turn the workload into cold evaluations.
pub const EPSILONS: [f64; 9] = [0.10, 0.125, 0.15, 0.175, 0.20, 0.225, 0.25, 0.275, 0.30];
pub const DELTA: f64 = 0.05;
pub const THETAS: [f64; 3] = [0.3, 0.4, 0.5];
pub const EPS0: f64 = 0.05;

pub struct EstimationMix {
    seed: u64,
    db: UDatabase,
    engine: ServingEngine,
    aconf_text: String,
    aconf_truth: Truth,
    /// Per θ: the sensor alarm query (bounds prune every candidate) and the
    /// path alarm query (one wide candidate Figure 3 has to sample).
    alarms: Vec<[(String, Truth); 2]>,
}

impl EstimationMix {
    pub fn build(seed: u64) -> Result<EstimationMix, String> {
        let sensors = SensorWorkload {
            num_sensors: SENSORS,
            readings_per_sensor: READINGS,
            high_probability: 0.4,
            seed: gen::stream_seed(seed, 0x55),
        };
        let mut db = sensors.database();
        gen::add_path_tuples(&mut db, PATH_TUPLES, PATH_NODES, 0.05..0.25, seed);
        // Shared sampling is off for this workload: with it, a repeated
        // (query, ε) pair is a tally-cache hit and no sample is drawn.
        let config = serving_config().with_shared_sampling(false);
        let engine = ServingEngine::new(config, db.clone()).map_err(|e| e.to_string())?;
        let aconf_text = format!("conf(project[]({PATH}))");
        let aconf_truth = confidence_truth(&db, &aconf_text)?;
        let mut alarms = Vec::new();
        for theta in THETAS {
            let sensor = SensorWorkload::alarm_query(theta, EPS0, DELTA).to_string();
            let zone = format!(
                "aselect[P1 = conf(); P1 >= {theta}; eps0 = {EPS0}; delta = {DELTA}]({PATH})"
            );
            let truths = [decision_truth(&db, &sensor)?, decision_truth(&db, &zone)?];
            alarms.push([(sensor, truths[0].clone()), (zone, truths[1].clone())]);
        }
        let w = EstimationMix {
            seed,
            db,
            engine,
            aconf_text,
            aconf_truth,
            alarms,
        };
        for (i, _) in EPSILONS.iter().enumerate() {
            prime(&w.engine, &w.aconf(i))?;
        }
        for t in 0..THETAS.len() {
            for kind in 0..2 {
                prime(&w.engine, &w.alarm(t, kind))?;
            }
        }
        Ok(w)
    }

    fn aconf(&self, grid: usize) -> Req<'_> {
        Req {
            text: Cow::Borrowed(&self.aconf_text),
            accuracy: Some((EPSILONS[grid], DELTA)),
            shape: 0,
            cold: false,
            expect: Expect::Within {
                truth: &self.aconf_truth,
                epsilon: EPSILONS[grid],
            },
        }
    }

    fn alarm(&self, theta: usize, kind: usize) -> Req<'_> {
        let (text, truth) = &self.alarms[theta][kind];
        Req {
            text: Cow::Borrowed(text),
            accuracy: None,
            shape: 1 + kind as u32,
            cold: false,
            expect: Expect::Decide {
                truth,
                theta: THETAS[theta],
                eps0: EPS0,
            },
        }
    }
}

impl Workload for EstimationMix {
    fn name(&self) -> &'static str {
        "estimation_mix"
    }
    fn engine(&self) -> &ServingEngine {
        &self.engine
    }
    fn database(&self) -> &UDatabase {
        &self.db
    }
    /// Of every five requests, three are `aconf` at a drawn ε, one a sensor
    /// alarm and one a path alarm at a drawn θ.  (Not an even split: with
    /// exactly half the requests in the slower `aconf` population the median
    /// latency would sit on the boundary between the two populations and
    /// jump from run to run.)
    fn request(&self, client: usize, index: u64) -> Req<'_> {
        let mut rng = gen::request_rng(gen::stream_seed(self.seed, 0x56), client, index);
        match index % 5 {
            1 => self.alarm(rng.gen_range(0..THETAS.len()), 0),
            3 => self.alarm(rng.gen_range(0..THETAS.len()), 1),
            _ => self.aconf(rng.gen_range(0..EPSILONS.len())),
        }
    }
    fn update_target(&self) -> &'static str {
        "Readings"
    }
    fn join_probe(&self) -> &'static str {
        PATH
    }
}
