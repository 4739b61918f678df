//! The shared block scheduler: cross-request reuse of drawn sample blocks.
//!
//! Shared-sampling engines ([`EvalConfig::shared_sampling`]) derive every
//! approximate-confidence stream from the *content* of the compiled lineage
//! arena (`LineagePrograms::fingerprint`) instead of the caller's seed, so
//! the tally a Karp–Luby run produces for an event is a pure function of
//! `(content, ε/δ-implied sample count, configuration)`.  That purity is
//! what makes sharing sound: when several concurrent requests resolve to
//! the same compiled event arena, the first to arrive draws the world
//! blocks and every later (or concurrently waiting) request's tally is fed
//! from the same drawn blocks — a lookup, not a re-run — while requests
//! touching events no other request shares keep their own streams,
//! bit-identical to a scheduler-free run of the same configuration.
//!
//! The scheduler is deliberately *not* a correctness layer: removing it (or
//! evicting any entry) only re-draws the identical canonical blocks.  Its
//! mutex therefore ranks between the lineage caches and the worker pool
//! ([`LockRank::SharedSampler`]) and is held only around lookups and
//! inserts — never across a sampling run, so concurrent requests sampling
//! *different* events proceed in parallel.
//!
//! [`EvalConfig::shared_sampling`]: crate::EvalConfig::shared_sampling

use crate::sync::{LockRank, OrderedMutex};
use confidence::EventEstimate;
use std::collections::BTreeMap;

/// Bound on retained tallies; past it the smallest key — lowest arena
/// fingerprint, not the oldest entry — is evicted (eviction is invisible
/// apart from the re-draw cost — values are pure functions of their keys).
const MAX_TALLIES: usize = 4096;

/// Tally key: `(arena fingerprint, event index, sample count)`.  The sample
/// count participates because prepared queries with different (ε, δ) share
/// compiled arenas but draw different Chernoff budgets.
type TallyKey = (u64, u32, u64);

/// A cross-request cache of canonical-stream sample tallies; one per
/// serving engine, shared by every concurrent request.
#[derive(Debug)]
pub struct SampleScheduler {
    tallies: OrderedMutex<BTreeMap<TallyKey, EventEstimate>>,
}

impl Default for SampleScheduler {
    fn default() -> Self {
        SampleScheduler::new()
    }
}

impl SampleScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        SampleScheduler {
            tallies: OrderedMutex::new(LockRank::SharedSampler, "sched.tallies", BTreeMap::new()),
        }
    }

    /// Returns the tally for `(fingerprint, index, samples)`, drawing it
    /// with `draw` on the first request.  The boolean is true when the
    /// tally was served from a previously drawn block (a *shared block
    /// hit*).
    ///
    /// `draw` runs outside the lock; two racing requests for the same key
    /// may both draw, but canonical streams make their results identical,
    /// so whichever insert lands is the value every later request sees.
    pub fn estimate<E>(
        &self,
        fingerprint: u64,
        index: u32,
        samples: u64,
        draw: impl FnOnce() -> Result<EventEstimate, E>,
    ) -> Result<(EventEstimate, bool), E> {
        let key = (fingerprint, index, samples);
        if let Some(&cached) = self.tallies.lock().get(&key) {
            return Ok((cached, true));
        }
        let drawn = draw()?;
        let mut tallies = self.tallies.lock();
        while tallies.len() >= MAX_TALLIES {
            tallies.pop_first();
        }
        tallies.insert(key, drawn);
        Ok((drawn, false))
    }

    /// Number of retained tallies (for stats and tests).
    pub fn len(&self) -> usize {
        self.tallies.lock().len()
    }

    /// True when no tally is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(p: f64) -> EventEstimate {
        EventEstimate {
            estimate: p,
            samples: 64,
            exact: false,
        }
    }

    #[test]
    fn first_draw_is_recorded_and_later_requests_hit() {
        let sched = SampleScheduler::new();
        let (first, hit) = sched
            .estimate::<()>(7, 0, 128, || Ok(estimate(0.25)))
            .unwrap();
        assert!(!hit);
        assert_eq!(first.estimate, 0.25);
        let (again, hit) = sched
            .estimate::<()>(7, 0, 128, || panic!("must not re-draw"))
            .unwrap();
        assert!(hit);
        assert_eq!(again, first);
        // A different sample count is a different tally.
        let (_, hit) = sched
            .estimate::<()>(7, 0, 256, || Ok(estimate(0.3)))
            .unwrap();
        assert!(!hit);
        assert_eq!(sched.len(), 2);
    }

    #[test]
    fn draw_errors_propagate_and_record_nothing() {
        let sched = SampleScheduler::new();
        assert_eq!(sched.estimate(1, 2, 3, || Err("boom")), Err("boom"));
        assert!(sched.is_empty());
    }

    #[test]
    fn the_tally_cache_is_bounded() {
        let sched = SampleScheduler::new();
        for i in 0..(MAX_TALLIES as u64 + 64) {
            sched
                .estimate::<()>(i, 0, 64, || Ok(estimate(0.5)))
                .unwrap();
        }
        assert!(sched.len() <= MAX_TALLIES);
    }
}
