//! `cold_adhoc`: ad-hoc analytics — every request a never-seen text, so
//! every request parses, validates, lowers, executes the operator pipeline,
//! extracts and compiles lineage, and only then estimates.

use super::{prime, serving_config, Expect, Req, Workload, PATH};
use crate::gen;
use engine::ServingEngine;
use rand::Rng;
use std::borrow::Cow;
use urel::UDatabase;

pub const KEYS: usize = 160;
pub const LABELS: usize = 40;
pub const PATH_TUPLES: usize = 200;
pub const PATH_NODES: usize = 40;

pub struct ColdAdhoc {
    seed: u64,
    db: UDatabase,
    engine: ServingEngine,
}

impl ColdAdhoc {
    pub fn build(seed: u64) -> Result<ColdAdhoc, String> {
        let mut db = gen::rs_database(KEYS, LABELS, seed);
        gen::add_path_tuples(&mut db, PATH_TUPLES, PATH_NODES, 0.05..0.95, seed);
        let engine = ServingEngine::new(serving_config(), db.clone()).map_err(|e| e.to_string())?;
        let w = ColdAdhoc { seed, db, engine };
        // Two rounds of every shape, from a client index no window uses, so
        // that set-up exercises every code path (nothing can be primed: no
        // measured request repeats a text) and takes long enough to time.
        for index in 0..50 {
            prime(&w.engine, &w.request(usize::MAX >> 16, index))?;
        }
        Ok(w)
    }
}

impl Workload for ColdAdhoc {
    fn name(&self) -> &'static str {
        "cold_adhoc"
    }
    fn engine(&self) -> &ServingEngine {
        &self.engine
    }
    fn database(&self) -> &UDatabase {
        &self.db
    }
    /// Of every 25 requests: 11 select-and-`conf` over `T`, 8 join `conf`s
    /// with the selection *below* `repairkey` (a new stateful spine, so the
    /// pool cannot help), 5 `conf`s over a selected path join, and 1 join
    /// `aconf` with the selection *above* the join (the one shape whose
    /// prefix — repair-key and join — the pool shares across requests: an
    /// exact `conf` root is part of the stateful spine, so its constant
    /// makes every exact query a pool miss).  The selection
    /// constant carries the request's own client and index as its fraction,
    /// so no two requests share a text.
    fn request(&self, client: usize, index: u64) -> Req<'_> {
        let mut rng = gen::request_rng(gen::stream_seed(self.seed, 0x57), client, index);
        let unique = index * 2 + client as u64;
        let constant = |range: usize, rng: &mut rand_chacha::ChaCha8Rng| {
            format!("{}.{unique:08}", rng.gen_range(0..range))
        };
        let (shape, text) = match index % 25 {
            0..=10 => (
                0,
                format!(
                    "conf(project[A](select[B >= {}](T)))",
                    constant(PATH_NODES, &mut rng)
                ),
            ),
            11..=18 => (
                1,
                format!(
                    "conf(project[B](join(repairkey[K @ W](select[K >= {}](R)), S)))",
                    constant(KEYS, &mut rng)
                ),
            ),
            19..=23 => (
                2,
                format!(
                    "conf(project[A, B](select[C >= {}]({PATH})))",
                    constant(PATH_NODES, &mut rng)
                ),
            ),
            _ => (
                3,
                format!(
                    "aconf[0.3, 0.2](project[B](select[K >= {}](join(repairkey[K @ W](R), S))))",
                    constant(KEYS, &mut rng)
                ),
            ),
        };
        Req {
            text: Cow::Owned(text),
            accuracy: None,
            shape,
            // Shape 3 finds its join prefix pooled (the engine counts it a
            // warm evaluation), but its text is as new as any other: it
            // parses, lowers and runs everything above the join afresh.  The
            // trace accounts it with the cold stages, which over-subtracts
            // the pooled join from the serving layer's own time on one
            // request in 25.
            cold: true,
            expect: Expect::WellFormed,
        }
    }
    fn retain_one_in(&self) -> u64 {
        100
    }
    fn update_target(&self) -> &'static str {
        "S"
    }
    fn join_probe(&self) -> &'static str {
        PATH
    }
}
