//! Incremental (anytime) Karp–Luby estimation, bit-parallel.
//!
//! The predicate-approximation algorithm of Figure 3 interleaves estimation
//! and decision making: in each outer-loop iteration it draws one batch of
//! further samples for every approximable value `p̂_i` — `w_i` of them, the
//! event's sampling width (`⌈M / max_f p_f⌉`, see [`crate::chernoff`]; the
//! paper states the loop with its weaker instance `|F_i|`) — then re-checks
//! whether the current estimates already support the predicate.  [`IncrementalEstimator`]
//! provides exactly that interface: an estimator whose sample count can grow
//! batch by batch while keeping the running estimate and its Chernoff error
//! bound available at all times.
//!
//! Since the bit-parallel rewrite the samples come from the
//! [`crate::bitworld`] kernel, which decides `64·W` worlds per pass over the
//! event's compiled program (`W ∈ {1, 2, 4}` words, chosen from the batch
//! size or by the caller from the run's sampling bill).  Because the adaptive
//! driver asks for batches of `w_i` samples — often far fewer than a block
//! — the estimator banks the unused lanes of the last drawn block and serves
//! later batches from the bank first, so even fine-grained sampling
//! schedules pay the blockwise price.  (Banked lanes are i.i.d. draws that
//! no stopping decision has looked at, so consuming them later leaves the
//! estimator's distribution unchanged.)
//!
//! Events whose probability is already known exactly — trivial events, and
//! events the exact backend ([`LineagePrograms::dnnf_probability`]) answered
//! within budget —
//! short-circuit sampling entirely: their estimate is the exact value, their
//! error bound is 0, and they consume no randomness.

use crate::bitworld::{block_words_for_samples, count_lanes, BitKarpLuby, MAX_BLOCK_WORDS};
use crate::chernoff::{delta_prime, error_bound};
use crate::compile::LineagePrograms;
use crate::error::Result;
use crate::event::{DnfEvent, ProbabilitySpace};
use rand::Rng;
use std::sync::Arc;

/// A Karp–Luby estimator that accumulates samples across calls.
#[derive(Clone, Debug)]
pub struct IncrementalEstimator {
    kernel: Option<BitKarpLuby>,
    /// Exact value for trivial events (empty → 0, certain → 1) and for
    /// events answered by the exact backend.
    trivial: Option<f64>,
    /// The sampling width `w_i ≥ 1`: batch size and error-bound scale.
    width: usize,
    /// Running sum `X = Σ X_i`.
    successes: u64,
    /// Number of samples drawn so far.
    samples: u64,
    /// Number of completed batches (outer-loop iterations `l`).
    batches: u64,
    /// Success bits of drawn-but-unconsumed lanes of the last block, packed
    /// from word 0 upward.
    banked_bits: [u64; MAX_BLOCK_WORDS],
    /// Number of banked lanes (≤ `64·W`).
    banked_len: u32,
}

impl IncrementalEstimator {
    /// Prepares an incremental estimator for an event, compiling it into a
    /// single-program batch.
    ///
    /// Trivial events (no terms, or a term that is always true) are handled
    /// exactly; they never consume samples and their error bound is 0.
    pub fn new(event: DnfEvent, space: ProbabilitySpace) -> Result<Self> {
        let programs = Arc::new(LineagePrograms::compile(vec![event], &space)?);
        IncrementalEstimator::from_compiled(&programs, 0)
    }

    /// Prepares an incremental estimator over an already compiled program —
    /// the warm path: no event walking, no compilation, no space clone.
    /// The kernel's block width follows the event's batch size `w_i`; a
    /// caller that knows the run's total draws picks it from those instead
    /// ([`from_compiled_with_width`](Self::from_compiled_with_width)) — the
    /// lane bank makes a block's cost independent of the batch size.
    pub fn from_compiled(programs: &Arc<LineagePrograms>, index: usize) -> Result<Self> {
        let words = block_words_for_samples(programs.sample_width(index));
        IncrementalEstimator::from_compiled_with_width(programs, index, words)
    }

    /// [`from_compiled`](Self::from_compiled) with an explicit kernel block
    /// width (`1`, `2` or `4` words).
    pub fn from_compiled_with_width(
        programs: &Arc<LineagePrograms>,
        index: usize,
        words: usize,
    ) -> Result<Self> {
        let trivial = programs.trivial(index);
        let width = programs.sample_width(index);
        let kernel = if trivial.is_none() {
            Some(BitKarpLuby::new_with_width(programs.clone(), index, words)?)
        } else {
            None
        };
        Ok(IncrementalEstimator {
            kernel,
            trivial,
            width,
            successes: 0,
            samples: 0,
            batches: 0,
            banked_bits: [0; MAX_BLOCK_WORDS],
            banked_len: 0,
        })
    }

    /// Replaces the estimator with the exactly known probability `p` (the
    /// exact backend's hand-off): sampling stops, the estimate is `p`, and
    /// the error bound drops to 0.  Samples already drawn are discarded —
    /// the exact value supersedes them.
    pub fn resolve_exactly(&mut self, p: f64) {
        self.trivial = Some(p);
        self.kernel = None;
        self.banked_bits = [0; MAX_BLOCK_WORDS];
        self.banked_len = 0;
    }

    /// True if the event's probability is known exactly (trivial event, or
    /// resolved by the exact backend).
    pub fn is_trivial(&self) -> bool {
        self.trivial.is_some()
    }

    /// The sampling width `w_i` of the underlying event: the size of one
    /// batch.
    pub fn sample_width(&self) -> usize {
        self.width
    }

    /// Number of samples drawn so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Number of completed batches (the paper's outer-loop counter `l`).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Draws one batch of `w_i` samples (one outer-loop iteration of
    /// Figure 3).
    pub fn add_batch<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.add_samples(self.width, rng);
        self.batches += 1;
    }

    /// Consumes up to `take` lanes from the bank, returning how many were
    /// served; the bank shifts down as one `64·W`-bit integer.
    fn take_from_bank(&mut self, take: u32) -> u32 {
        let take = take.min(self.banked_len);
        if take == 0 {
            return 0;
        }
        let mut remaining = take;
        for w in 0..MAX_BLOCK_WORDS {
            if remaining == 0 {
                break;
            }
            let in_word = remaining.min(64);
            let mask = if in_word >= 64 {
                !0u64
            } else {
                (1u64 << in_word) - 1
            };
            self.successes += u64::from((self.banked_bits[w] & mask).count_ones());
            remaining -= in_word;
        }
        // Shift the whole bank right by `take` bits across words.
        let word_shift = (take / 64) as usize;
        let bit_shift = take % 64;
        let mut shifted = [0u64; MAX_BLOCK_WORDS];
        for (w, word) in shifted.iter_mut().enumerate() {
            let src = w + word_shift;
            if src < MAX_BLOCK_WORDS {
                *word = self.banked_bits[src] >> bit_shift;
                if bit_shift > 0 && src + 1 < MAX_BLOCK_WORDS {
                    *word |= self.banked_bits[src + 1] << (64 - bit_shift);
                }
            }
        }
        self.banked_bits = shifted;
        self.banked_len -= take;
        take
    }

    /// Draws `n` further samples (bank first, then whole blocks).
    pub fn add_samples<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) {
        if self.kernel.is_none() {
            return;
        }
        // Serve from the bank of already-drawn lanes.
        let banked = u64::from(self.banked_len).min(n as u64) as u32;
        let mut remaining = n as u64 - u64::from(self.take_from_bank(banked));
        self.samples += u64::from(banked);

        let kernel = self.kernel.as_mut().expect("kernel checked above");
        let lanes = u64::from(kernel.lanes());
        let (successes, samples) = (&mut self.successes, &mut self.samples);
        kernel
            .draw_blocks(remaining / lanes, rng, None, |words| {
                *successes += u64::from(count_lanes(words, lanes as u32));
                *samples += lanes;
            })
            .expect("only a deadline interrupts a block");
        remaining %= lanes;
        if remaining > 0 {
            // Draw one more block, consume `remaining` lanes, bank the rest.
            let bank = &mut self.banked_bits;
            kernel
                .draw_blocks(1, rng, None, |words| {
                    *bank = [0; MAX_BLOCK_WORDS];
                    bank[..words.len()].copy_from_slice(words);
                })
                .expect("only a deadline interrupts a block");
            self.banked_len = lanes as u32;
            let consumed = self.take_from_bank(remaining as u32);
            debug_assert_eq!(u64::from(consumed), remaining);
            self.samples += remaining;
        }
    }

    /// The current estimate `p̂ = X · M / m` (or the exact value for trivial
    /// events; 0 before any sample has been drawn).
    pub fn estimate(&self) -> f64 {
        if let Some(v) = self.trivial {
            return v;
        }
        if self.samples == 0 {
            return 0.0;
        }
        let kernel = self.kernel.as_ref().expect("non-trivial estimator");
        self.successes as f64 * kernel.total_weight() / self.samples as f64
    }

    /// The Chernoff bound `δ_i(ε) = 2·e^{−m·ε²/(3·w_i)}` on the probability
    /// that the current estimate misses the true value by a relative error of
    /// ε or more; 0 for trivial events.
    pub fn error_bound(&self, epsilon: f64) -> Result<f64> {
        if self.trivial.is_some() {
            return Ok(0.0);
        }
        error_bound(epsilon, self.samples as usize, self.width)
    }

    /// The balanced form `δ′(ε, l)` of the error bound, driven by the batch
    /// counter instead of the raw sample count; 0 for trivial events.
    pub fn error_bound_by_batches(&self, epsilon: f64) -> Result<f64> {
        if self.trivial.is_some() {
            return Ok(0.0);
        }
        delta_prime(epsilon, self.batches as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Assignment;
    use crate::exact;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (DnfEvent, ProbabilitySpace) {
        let mut s = ProbabilitySpace::new();
        let a = s.add_bool_variable(0.4).unwrap();
        let b = s.add_bool_variable(0.3).unwrap();
        let c = s.add_bool_variable(0.2).unwrap();
        let f = DnfEvent::new([
            Assignment::new([(a, 0)]).unwrap(),
            Assignment::new([(b, 0), (c, 0)]).unwrap(),
        ]);
        (f, s)
    }

    #[test]
    fn trivial_events_are_exact_and_sample_free() {
        let (_, s) = setup();
        let mut never = IncrementalEstimator::new(DnfEvent::never(), s.clone()).unwrap();
        assert!(never.is_trivial());
        assert_eq!(never.estimate(), 0.0);
        assert_eq!(never.error_bound(0.1).unwrap(), 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        never.add_batch(&mut rng);
        assert_eq!(never.samples(), 0);

        let certain = DnfEvent::new([Assignment::always()]);
        let est = IncrementalEstimator::new(certain, s).unwrap();
        assert_eq!(est.estimate(), 1.0);
        assert_eq!(est.error_bound_by_batches(0.1).unwrap(), 0.0);
    }

    #[test]
    fn resolving_exactly_stops_sampling() {
        let (f, s) = setup();
        let exact_p = exact::probability(&f, &s).unwrap();
        let mut est = IncrementalEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        est.add_batch(&mut rng);
        assert!(!est.is_trivial());
        est.resolve_exactly(exact_p);
        assert!(est.is_trivial());
        assert_eq!(est.estimate(), exact_p);
        assert_eq!(est.error_bound(0.2).unwrap(), 0.0);
        let samples = est.samples();
        est.add_batch(&mut rng);
        assert_eq!(est.samples(), samples, "no further sampling after resolve");
    }

    #[test]
    fn batches_accumulate_and_shrink_the_error_bound() {
        let (f, s) = setup();
        let mut est = IncrementalEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(est.estimate(), 0.0);
        est.add_batch(&mut rng);
        let d1 = est.error_bound(0.2).unwrap();
        for _ in 0..50 {
            est.add_batch(&mut rng);
        }
        let d2 = est.error_bound(0.2).unwrap();
        assert!(d2 < d1);
        assert_eq!(est.batches(), 51);
        assert_eq!(est.samples(), 51 * est.sample_width() as u64);
        // The batch-driven bound matches the sample-driven bound because each
        // batch draws exactly w samples.
        assert!(
            (est.error_bound(0.2).unwrap() - est.error_bound_by_batches(0.2).unwrap()).abs()
                < 1e-12
        );
    }

    #[test]
    fn estimate_converges_to_exact() {
        let (f, s) = setup();
        let exact_p = exact::probability(&f, &s).unwrap();
        let mut est = IncrementalEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        est.add_samples(30_000, &mut rng);
        assert!((est.estimate() - exact_p).abs() < 0.02);
    }

    #[test]
    fn banked_lanes_match_fresh_blocks_statistically() {
        // Drawing 30k samples in odd-sized dribbles (exercising the lane
        // bank on every call) must converge exactly like one bulk call — at
        // every supported kernel width.
        let (f, s) = setup();
        let exact_p = exact::probability(&f, &s).unwrap();
        let programs = Arc::new(LineagePrograms::compile(vec![f], &s).unwrap());
        for words in [1usize, 2, 4] {
            let mut est =
                IncrementalEstimator::from_compiled_with_width(&programs, 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(123);
            let mut drawn = 0usize;
            for i in 0.. {
                let n = 1 + (i * 7) % 13;
                est.add_samples(n, &mut rng);
                drawn += n;
                if drawn >= 30_000 {
                    break;
                }
            }
            assert_eq!(est.samples(), drawn as u64);
            assert!(
                (est.estimate() - exact_p).abs() < 0.02,
                "width {words}: {} vs {exact_p}",
                est.estimate()
            );
        }
    }

    #[test]
    fn wide_banks_drain_across_word_boundaries() {
        // Draws that straddle the 64-lane word edges of a 4-word bank: the
        // multiword shift must neither drop nor double-count lanes.
        let (f, s) = setup();
        let exact_p = exact::probability(&f, &s).unwrap();
        let programs = Arc::new(LineagePrograms::compile(vec![f], &s).unwrap());
        let mut est = IncrementalEstimator::from_compiled_with_width(&programs, 0, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let mut drawn = 0usize;
        for n in [1usize, 63, 64, 65, 127, 129, 255, 200, 191, 65, 3]
            .iter()
            .cycle()
        {
            est.add_samples(*n, &mut rng);
            drawn += n;
            if drawn >= 40_000 {
                break;
            }
        }
        assert_eq!(est.samples(), drawn as u64);
        assert!((est.estimate() - exact_p).abs() < 0.02);
    }

    #[test]
    fn from_compiled_reuses_a_shared_batch() {
        let (f, s) = setup();
        let other = DnfEvent::new([Assignment::new([(1, 1)]).unwrap()]);
        let programs = Arc::new(LineagePrograms::compile(vec![f.clone(), other], &s).unwrap());
        let mut a = IncrementalEstimator::from_compiled(&programs, 0).unwrap();
        let mut b = IncrementalEstimator::new(f, s).unwrap();
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        a.add_samples(5_000, &mut r1);
        b.add_samples(5_000, &mut r2);
        // Same event, same seed: the shared-batch estimator and the
        // self-compiled one walk identical programs.
        assert_eq!(a.estimate(), b.estimate());
        assert_eq!(a.sample_width(), b.sample_width());
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let (f, s) = setup();
        let mut est = IncrementalEstimator::new(f, s).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        est.add_batch(&mut rng);
        assert!(est.error_bound(0.0).is_err());
        assert!(est.error_bound(1.0).is_err());
    }
}
