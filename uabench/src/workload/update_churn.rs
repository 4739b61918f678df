//! `update_churn`: the `warm_serve` mix read by one client while a paced
//! writer edits the database beside it and checkpoints in the background.

use super::warm_serve::Mix;
use super::{Req, Workload};
use crate::gen::OpGenerator;
use engine::ServingEngine;
use urel::UDatabase;

/// Keys of `R`: half of `warm_serve`'s, so that re-warming a prefix a write
/// dropped stays a small share of the reader's time.
pub const KEYS: usize = 120;

pub struct UpdateChurn {
    seed: u64,
    mix: Mix,
}

impl UpdateChurn {
    pub fn build(seed: u64) -> Result<UpdateChurn, String> {
        Ok(UpdateChurn {
            seed,
            mix: Mix::build(KEYS, seed)?,
        })
    }
}

impl Workload for UpdateChurn {
    fn name(&self) -> &'static str {
        "update_churn"
    }
    fn engine(&self) -> &ServingEngine {
        &self.mix.engine
    }
    fn database(&self) -> &UDatabase {
        &self.mix.db
    }
    /// The truth moves with every write, so reads are checked for form in
    /// the loop; a sample is replayed against the versions it can have seen
    /// (`driver::verify_replays`).
    fn request(&self, client: usize, index: u64) -> Req<'_> {
        self.mix.request(client, index, false)
    }
    fn delta(&self) -> f64 {
        0.2
    }
    fn retain_one_in(&self) -> u64 {
        1024
    }
    fn writer(&self) -> Option<OpGenerator> {
        Some(OpGenerator::new(&self.mix.db, self.seed))
    }
    fn update_target(&self) -> &'static str {
        "S"
    }
    fn join_probe(&self) -> &'static str {
        "join(repairkey[K @ W](R), S)"
    }
}
