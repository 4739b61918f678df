//! Bit-parallel Monte Carlo: evaluating compiled lineage programs over up to
//! 256 sampled worlds at a time.
//!
//! A sampled world assigns one alternative to every variable an event
//! mentions.  Packing 64 worlds into the bits of a `u64` turns the per-world
//! question "does this literal hold?" into a single word — and the whole DNF
//! into a linear pass of `AND`/`OR`/`ANDNOT` words.  A block is
//! `W ∈ {1, 2, 4}` such words ([`MAX_BLOCK_WORDS`]); one pass decides `64·W`
//! Karp–Luby samples.  The block kernel is generic over `const W`, so every
//! mask is a `[u64; W]` the compiler unrolls and vectorises; the width is
//! matched on once per run of blocks, not per block.  Estimators pick it from
//! their ε/δ-implied sample budget via [`block_words_for_samples`], so tiny
//! draws stay on the cheap one-word block while Chernoff-sized budgets
//! amortize the scan over four words.
//!
//! What is fixed per event is precomputed once, into a sampling table the
//! compiled arena holds beside its other per-event memos (built by the
//! event's first sampled block, never for an event answered exactly — see
//! [`LineagePrograms::sampling_table_built`]): the event's literals
//! renumbered densely, its terms as one flat stream of those literal ids, a
//! Walker alias table over the term weights, and the sampling plan of the
//! variables it mentions.  A block touches the table and a thread-local
//! scratchpad, nothing else.
//!
//! [`BitKarpLuby`] runs the estimator of Definition 4.1 blockwise.  Per block
//! it
//!
//! 1. **chooses a term per lane** with probability `p_f/M` in O(1): one
//!    `u64` per lane, whose high half picks an alias-table column and whose
//!    low half is the column's coin — and marks, in the same pass, the
//!    literals the chosen term forces;
//! 2. **samples a base world block**: per Boolean variable one
//!    [`bernoulli_block`]-style comparison of a lazily drawn uniform against
//!    the binary expansion of `p`, run for all `W` words in lock-step — one
//!    pass over the bits of `p`, branch-free in the bit, one exit test per
//!    step (lanes stay "undecided" while their uniform's bits agree with
//!    `p`'s, so ≈ `log₂(64·W) + 1.3` steps decide a block); multi-valued
//!    variables draw one `u64` per lane against the cumulative fixed-point
//!    thresholds.  Lanes whose chosen term constrains the variable are
//!    overridden; "constrains" is the `OR` of the variable's alternatives'
//!    forced masks, derived here rather than scattered to in step 1;
//! 3. **scans the flat literal stream** once, accumulating a "first
//!    satisfied term" mask — a lane succeeds iff its chosen term is the
//!    lowest-index satisfied term, exactly the scalar estimator's semantics
//!    — and stops as soon as every lane is decided.
//!
//! Scalar runs, runs at different widths, and runs of earlier versions of
//! this kernel consume randomness differently (seeds re-map: the scalar
//! estimator draws an `f64` and binary-searches, this kernel spends one
//! `u64` on an alias column and coin, and the lock-step Bernoulli draws `W`
//! words per step), but each is a pure function of (content, width, seed)
//! and estimates the same quantity; the differential and conformance suites
//! pin their statistical agreement and the per-seed bit-determinism of every
//! width.

use crate::compile::{LineagePrograms, SamplingArena, SLOT_NONE};
use crate::error::{ConfidenceError, Result};
use rand::{Rng, RngCore};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// The widest supported block, in 64-lane words (256 worlds per pass).
pub const MAX_BLOCK_WORDS: usize = 4;

/// How many blocks a kernel draws between deadline probes: small enough that
/// `DeadlineExceeded { stage: "estimate" }` fires within microseconds of the
/// deadline, large enough that the `Instant` read is amortized to noise.
pub const DEADLINE_CHECK_BLOCKS: u32 = 8;

/// Picks the block width (in words) for a run of `m` samples: the widest
/// block the budget fills at least once, so small draws avoid paying a
/// 4-word scan for lanes they would throw away.
pub fn block_words_for_samples(m: usize) -> usize {
    if m >= 4 * 64 {
        4
    } else if m >= 2 * 64 {
        2
    } else {
        1
    }
}

/// Draws 64 independent `Bernoulli(p)` lanes, `p` given as a 64-bit
/// fixed-point fraction (`p = p_bits / 2^64`).
///
/// Compares a lazily generated uniform per lane against the binary expansion
/// of `p`, most significant bit first: a lane decides as soon as its uniform
/// bit differs from `p`'s bit, and all 64 lanes share each drawn word.  The
/// one-word case of the kernel's lock-step primitive.
pub fn bernoulli_block<R: RngCore + ?Sized>(rng: &mut R, p_bits: u64) -> u64 {
    bernoulli_words::<1, R>(rng, p_bits)[0]
}

/// `64·W` independent `Bernoulli(p_bits / 2^64)` lanes, all `W` words
/// advancing through the bits of `p` together: each step draws one word of
/// uniform bits per block word, and the loop ends once no lane of any word
/// is undecided — or below `p`'s lowest set bit, where no lane can still
/// fall under `p`.
fn bernoulli_words<const W: usize, R: RngCore + ?Sized>(rng: &mut R, p_bits: u64) -> [u64; W] {
    let mut result = [0u64; W];
    if p_bits == 0 {
        return result;
    }
    let mut undecided = [!0u64; W];
    for k in (p_bits.trailing_zeros()..64).rev() {
        // All ones when p's bit is 1 — lanes whose uniform bit is 0 are
        // below p, the others stay undecided; all zeros when it is 0 — lanes
        // whose uniform bit is 1 are above p and drop out.
        let one = 0u64.wrapping_sub((p_bits >> k) & 1);
        let mut open = 0u64;
        for w in 0..W {
            let r = rng.next_u64();
            result[w] |= undecided[w] & !r & one;
            undecided[w] &= r ^ !one;
            open |= undecided[w];
        }
        if open == 0 {
            break;
        }
    }
    // Lanes still undecided matched every bit of p, so their uniform equals
    // p's expansion and is not below it: they resolve to false.
    result
}

/// Where each term's literals sit in a [`SamplingTable`]'s flat stream.
#[derive(Debug)]
enum TermRows {
    /// Every term has this many literals (≥ 1): term `t` is row `t`.
    Fixed(usize),
    /// Mixed lengths: term `t` spans `offsets[t] .. offsets[t + 1]`.
    Ragged(Vec<u32>),
}

/// Everything a block needs of one event, precomputed from the compiled
/// arena once (see [`LineagePrograms::sampling_table`]).
///
/// The event's literals are renumbered `0 .. num_lits` so the scratch rows a
/// block touches are dense; one further row, `num_lits`, is the *trash row*
/// standing in for every alternative no term of the event mentions — world
/// sampling writes it instead of branching, nothing reads it.
#[derive(Debug)]
pub(crate) struct SamplingTable {
    /// Walker alias table over the term weights, one cell per term position
    /// (= column): a lane that lands in column `c` keeps term `c` when its
    /// 32-bit coin is below the cell's low half and takes the term in the
    /// cell's high half otherwise.
    alias: Vec<u64>,
    /// The terms' literals as local ids, term after term in DNF order.
    lits: Vec<u32>,
    rows: TermRows,
    /// Per mentioned variable: `(start, len)` of its alternatives in
    /// `alt_thresholds` / `alt_lits`.
    vars: Vec<(u32, u32)>,
    /// Per alternative: the cumulative fixed-point threshold of the arena.
    alt_thresholds: Vec<u64>,
    /// Per alternative: its literal's local id, or the trash row.
    alt_lits: Vec<u32>,
    num_lits: u32,
}

impl SamplingTable {
    pub(crate) fn build(arena: &SamplingArena, event: usize) -> Self {
        let p = &arena.programs[event];
        let event_terms = &arena.event_terms[p.term_start as usize..][..p.term_len as usize];
        let event_vars = &arena.event_vars[p.var_start as usize..][..p.var_len as usize];
        let slots_of = |term: u32| {
            let (start, len) = arena.terms[term as usize];
            &arena.term_lits[start as usize..][..len as usize]
        };

        // Local literal ids: the rank of the arena slot among the slots the
        // event's terms mention.
        let mut slots: Vec<u32> = event_terms
            .iter()
            .flat_map(|&t| slots_of(t))
            .copied()
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let trash = slots.len() as u32;
        let local = |slot: u32| slots.binary_search(&slot).map_or(trash, |i| i as u32);

        let lits: Vec<u32> = event_terms
            .iter()
            .flat_map(|&t| slots_of(t))
            .map(|&slot| local(slot))
            .collect();
        let arity = arena.terms[event_terms[0] as usize].1;
        let rows = if arity > 0
            && event_terms
                .iter()
                .all(|&t| arena.terms[t as usize].1 == arity)
        {
            TermRows::Fixed(arity as usize)
        } else {
            let mut offsets = Vec::with_capacity(event_terms.len() + 1);
            let mut end = 0u32;
            offsets.push(end);
            for &t in event_terms {
                end += arena.terms[t as usize].1;
                offsets.push(end);
            }
            TermRows::Ragged(offsets)
        };

        let mut vars = Vec::with_capacity(event_vars.len());
        let mut alt_thresholds = Vec::new();
        let mut alt_lits = Vec::new();
        for &v in event_vars {
            let plan = arena.vars[v as usize];
            let cells = plan.alt_start as usize..(plan.alt_start + plan.alt_len) as usize;
            vars.push((alt_lits.len() as u32, plan.alt_len));
            alt_thresholds.extend_from_slice(&arena.alt_thresholds[cells.clone()]);
            alt_lits.extend(arena.alt_slots[cells].iter().map(|&slot| {
                if slot == SLOT_NONE {
                    trash
                } else {
                    local(slot)
                }
            }));
        }

        let weights: Vec<f64> = event_terms
            .iter()
            .map(|&t| arena.term_weights[t as usize])
            .collect();
        SamplingTable {
            alias: alias_table(&weights),
            lits,
            rows,
            vars,
            alt_thresholds,
            alt_lits,
            num_lits: trash,
        }
    }
}

/// One alias-table column's worth of probability, in the table's integer
/// units: the coin is 32 bits wide.
const COLUMN: u64 = 1 << 32;

/// Builds the Walker alias table of `weights` (Vose's construction) in exact
/// integer arithmetic: the weights are scaled to units that sum to exactly
/// `|F|` columns, so every pairing conserves mass to the unit, a column's
/// own share is a 32-bit threshold, and a zero-weight term owns nothing and
/// is nobody's alias — it is never chosen.  Cell `c` is
/// `alias << 32 | threshold`.
fn alias_table(weights: &[f64]) -> Vec<u64> {
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    // An all-zero event (every term underflowed) estimates 0 whatever is
    // chosen; scale 0 leaves all mass to one term below.
    let scale = if total > 0.0 {
        n as f64 * COLUMN as f64 / total
    } else {
        0.0
    };
    let mut units: Vec<u64> = weights.iter().map(|&p| (p * scale) as u64).collect();
    // Float rounding leaves the sum a few units off; the heaviest term —
    // at least one full column — absorbs the difference.
    let heaviest = (0..n)
        .max_by_key(|&i| units[i])
        .expect("a sampled event has terms");
    let sum: u128 = units.iter().map(|&u| u128::from(u)).sum();
    units[heaviest] = (u128::from(units[heaviest]) + u128::from(n as u64 * COLUMN) - sum) as u64;

    // Every column starts as its own alias with a full threshold.
    let mut cells: Vec<u64> = (0..n as u64).map(|c| c << 32 | (COLUMN - 1)).collect();
    let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| units[i] < COLUMN);
    while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
        cells[s] = (l as u64) << 32 | units[s];
        units[l] -= COLUMN - units[s];
        if units[l] < COLUMN {
            large.pop();
            small.push(l);
        }
    }
    // Mass is conserved exactly, so what remains holds one column each and
    // keeps the self-alias it started with.
    debug_assert!(small.is_empty() && large.iter().all(|&l| units[l] == COLUMN));
    cells
}

/// The thread-local block scratchpad, shared by every kernel on the thread
/// and strided by the running kernel's block width (`[row·W + w]`).
/// `masks` and `forced` are left dirty between blocks — each block writes
/// the rows of its event before reading them — and a width change merely
/// re-strides the flat buffers.
struct BlockScratch {
    /// Per local literal (and the trash row), per word: the literal's truth
    /// mask over the block's worlds.
    masks: Vec<u64>,
    /// Per local literal, per word: lanes whose chosen term forces it true.
    forced: Vec<u64>,
    /// Per term position, per word: lanes that chose it in the running
    /// block.  **All zero between blocks**: a block clears the positions it
    /// set before it returns — a stale lane bit in a position not chosen
    /// again would be counted as a spurious success by the scan.
    chosen: Vec<u64>,
    /// Per lane: the term position it chose — the positions to clear.
    chosen_term: [u32; 64 * MAX_BLOCK_WORDS],
}

impl BlockScratch {
    fn reserve(&mut self, rows: usize, terms: usize, width: usize) {
        if self.masks.len() < rows * width {
            self.masks.resize(rows * width, 0);
            self.forced.resize(rows * width, 0);
        }
        if self.chosen.len() < terms * width {
            self.chosen.resize(terms * width, 0);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<BlockScratch> = const {
        RefCell::new(BlockScratch {
            masks: Vec::new(),
            forced: Vec::new(),
            chosen: Vec::new(),
            chosen_term: [0; 64 * MAX_BLOCK_WORDS],
        })
    };
}

/// Draws one block of `64·W` Karp–Luby samples of `table`'s event: word `w`,
/// bit `j` of the result is set iff sample `64·w + j` counted 1.
fn block<const W: usize, R: Rng + ?Sized>(
    table: &SamplingTable,
    scratch: &mut BlockScratch,
    rng: &mut R,
) -> [u64; W] {
    // The row layout is settled here, outside the per-lane and per-term
    // loops, so fixed-arity events index their literals by multiplication.
    let lits = &table.lits[..];
    match &table.rows {
        TermRows::Fixed(len) => {
            block_over::<W, R>(table, scratch, rng, |t| &lits[t * len..][..*len])
        }
        TermRows::Ragged(offsets) => block_over::<W, R>(table, scratch, rng, |t| {
            &lits[offsets[t] as usize..offsets[t + 1] as usize]
        }),
    }
}

/// [`block`] with `term(t)` giving the literals (local ids) of the term at
/// position `t`.
#[inline(always)]
fn block_over<'a, const W: usize, R: Rng + ?Sized>(
    table: &SamplingTable,
    scratch: &mut BlockScratch,
    rng: &mut R,
    term: impl Fn(usize) -> &'a [u32],
) -> [u64; W] {
    let rows = table.num_lits as usize + 1;
    let num_terms = table.alias.len();
    let masks = &mut scratch.masks.as_chunks_mut::<W>().0[..rows];
    let forced = &mut scratch.forced.as_chunks_mut::<W>().0[..rows];
    let chosen = &mut scratch.chosen.as_chunks_mut::<W>().0[..num_terms];
    let chosen_term = &mut scratch.chosen_term[..64 * W];
    forced.fill([0; W]);

    // Step 1: per lane, one u64 chooses a term with probability p_f / M —
    // high half → alias column, low half → the column's coin — and the
    // literals of the chosen term are marked forced.
    for (lane, chose) in chosen_term.iter_mut().enumerate() {
        let (w, bit) = (lane / 64, 1u64 << (lane % 64));
        let r = rng.next_u64();
        let column = ((r >> 32) * num_terms as u64) >> 32;
        let cell = table.alias[column as usize];
        let t = if (r as u32) < (cell as u32) {
            column as usize
        } else {
            (cell >> 32) as usize
        };
        *chose = t as u32;
        chosen[t][w] |= bit;
        for &lit in term(t) {
            forced[lit as usize][w] |= bit;
        }
    }

    // Step 2: sample a base world block for every mentioned variable; lanes
    // whose chosen term constrains the variable (forces one of its
    // alternatives) take the forced alternative instead.
    for &(start, len) in &table.vars {
        let alts = start as usize..(start + len) as usize;
        let lits = &table.alt_lits[alts.clone()];
        let thresholds = &table.alt_thresholds[alts];
        if let [l0, l1] = *lits {
            // Boolean: one Bernoulli block decides both alternatives.
            let heads = bernoulli_words::<W, R>(rng, thresholds[0]);
            let (f0, f1) = (forced[l0 as usize], forced[l1 as usize]);
            for w in 0..W {
                masks[l0 as usize][w] = (heads[w] & !f1[w]) | f0[w];
            }
            for w in 0..W {
                masks[l1 as usize][w] = (!heads[w] & !f0[w]) | f1[w];
            }
        } else {
            let mut constrained = [0u64; W];
            for &lit in lits {
                masks[lit as usize] = [0; W];
                for w in 0..W {
                    constrained[w] |= forced[lit as usize][w];
                }
            }
            // The last threshold is saturated: every draw lands somewhere.
            let inner = &thresholds[..thresholds.len() - 1];
            for lane in 0..64 * W {
                let r = rng.next_u64();
                let alt = inner.iter().filter(|&&t| r >= t).count();
                masks[lits[alt] as usize][lane / 64] |= 1u64 << (lane % 64);
            }
            for &lit in lits {
                for w in 0..W {
                    masks[lit as usize][w] =
                        (masks[lit as usize][w] & !constrained[w]) | forced[lit as usize][w];
                }
            }
        }
    }

    // Step 3: one pass over the literal stream.  `already` collects lanes
    // some earlier term satisfied; a lane succeeds iff the first term it
    // satisfies is the one it chose.  Every lane satisfies its chosen term,
    // so the pass ends at the last lane's first satisfied term.
    let mut already = [0u64; W];
    let mut success = [0u64; W];
    for (t, chose) in chosen.iter().enumerate() {
        let mut sat = already.map(|a| !a);
        for &lit in term(t) {
            for w in 0..W {
                sat[w] &= masks[lit as usize][w];
            }
        }
        let mut open = 0u64;
        for w in 0..W {
            success[w] |= sat[w] & chose[w];
            already[w] |= sat[w];
            open |= !already[w];
        }
        if open == 0 {
            break;
        }
    }

    for &t in chosen_term.iter() {
        chosen[t as usize] = [0; W];
    }
    success
}

/// Counts the successes among the first `lanes` samples of a block.
pub(crate) fn count_lanes(words: &[u64], lanes: u32) -> u32 {
    let mut count = 0u32;
    let mut remaining = lanes;
    for &word in words {
        if remaining == 0 {
            break;
        }
        let mask = if remaining >= 64 {
            !0u64
        } else {
            (1u64 << remaining) - 1
        };
        count += (word & mask).count_ones();
        remaining = remaining.saturating_sub(64);
    }
    count
}

/// The Karp–Luby estimator over a compiled program, `64·W` worlds per block.
///
/// Neither constructing a kernel nor sampling allocates on a warm thread:
/// what is per event lives in the arena's sampling table (built by the
/// event's first block, whichever kernel draws it), and the per-block masks
/// live in a thread-local scratchpad shared by every kernel on the thread —
/// so a batched estimator can build one kernel per event of a large relation
/// for the price of an `Arc` clone each.
#[derive(Clone, Debug)]
pub struct BitKarpLuby {
    programs: Arc<LineagePrograms>,
    event: usize,
    /// Block width in words (`W ∈ {1, 2, 4}`).
    words: usize,
    /// Blocks drawn so far; paces the deadline probe.
    drawn: u32,
}

impl BitKarpLuby {
    /// Prepares a one-word (64-lane) kernel for event `event` of a compiled
    /// batch; fails on an event with no terms (probability 0, nothing to
    /// sample — the same contract as the scalar
    /// [`crate::KarpLubyEstimator`]).
    pub fn new(programs: Arc<LineagePrograms>, event: usize) -> Result<Self> {
        BitKarpLuby::new_with_width(programs, event, 1)
    }

    /// Prepares a kernel with an explicit block width of `words` `u64`s
    /// (`1`, `2` or `4`); see [`block_words_for_samples`] for the
    /// budget-driven choice.
    pub fn new_with_width(
        programs: Arc<LineagePrograms>,
        event: usize,
        words: usize,
    ) -> Result<Self> {
        if !matches!(words, 1 | 2 | 4) {
            return Err(ConfidenceError::InvalidParameter(format!(
                "block width {words} is not 1, 2 or 4 words"
            )));
        }
        if programs.num_terms(event) == 0 {
            return Err(ConfidenceError::EmptyEvent);
        }
        Ok(BitKarpLuby {
            programs,
            event,
            words,
            drawn: 0,
        })
    }

    /// The total term weight `M`.
    pub fn total_weight(&self) -> f64 {
        self.programs.total_weight(self.event)
    }

    /// The number of terms `|F|`.
    pub fn num_terms(&self) -> usize {
        self.programs.num_terms(self.event)
    }

    /// The block width in words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The number of samples one block decides (`64·W`).
    pub fn lanes(&self) -> u32 {
        64 * self.words as u32
    }

    /// Draws `blocks` blocks, handing each block's `W` success words to
    /// `sink`.  Before every [`DEADLINE_CHECK_BLOCKS`]-th block of the
    /// kernel's life — the first included — an expired `deadline` ends the
    /// run with [`ConfidenceError::Interrupted`]; the probe draws no
    /// randomness.  This is the one place the width is matched on.
    pub(crate) fn draw_blocks<R, F>(
        &mut self,
        blocks: u64,
        rng: &mut R,
        deadline: Option<Instant>,
        sink: F,
    ) -> Result<()>
    where
        R: Rng + ?Sized,
        F: FnMut(&[u64]),
    {
        match self.words {
            1 => self.draw_blocks_of::<1, R, F>(blocks, rng, deadline, sink),
            2 => self.draw_blocks_of::<2, R, F>(blocks, rng, deadline, sink),
            _ => self.draw_blocks_of::<4, R, F>(blocks, rng, deadline, sink),
        }
    }

    fn draw_blocks_of<const W: usize, R, F>(
        &mut self,
        blocks: u64,
        rng: &mut R,
        deadline: Option<Instant>,
        mut sink: F,
    ) -> Result<()>
    where
        R: Rng + ?Sized,
        F: FnMut(&[u64]),
    {
        let table = self.programs.sampling_table(self.event);
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.reserve(table.num_lits as usize + 1, table.alias.len(), W);
            for _ in 0..blocks {
                if let Some(d) = deadline {
                    if self.drawn.is_multiple_of(DEADLINE_CHECK_BLOCKS) && Instant::now() >= d {
                        return Err(ConfidenceError::Interrupted);
                    }
                }
                self.drawn = self.drawn.wrapping_add(1);
                sink(&block::<W, R>(table, scratch, rng));
            }
            Ok(())
        })
    }

    /// Draws one block of `64·W` Karp–Luby samples into `out` (word `w`, bit
    /// `j` set iff sample `64·w + j` counted 1); only the first
    /// [`words`](Self::words) entries of `out` are written.
    pub fn sample_block_words<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        out: &mut [u64; MAX_BLOCK_WORDS],
    ) {
        self.draw_blocks(1, rng, None, |words| {
            out[..words.len()].copy_from_slice(words)
        })
        .expect("only a deadline interrupts a block");
    }

    /// Draws one block of 64 Karp–Luby samples and returns the success mask
    /// (bit `j` set iff sample `j` counted 1); the width-1 view of
    /// [`sample_block_words`](Self::sample_block_words), valid only on
    /// one-word kernels.
    pub fn sample_block_bits<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        debug_assert_eq!(self.words, 1, "sample_block_bits needs a 1-word kernel");
        let mut out = [0u64; MAX_BLOCK_WORDS];
        self.sample_block_words(rng, &mut out);
        out[0]
    }

    /// Draws one block and counts the successes among its first `lanes`
    /// samples (`lanes ≤ 64·W`; partial blocks keep sample counts exact).
    pub fn sample_block<R: Rng + ?Sized>(&mut self, rng: &mut R, lanes: u32) -> u32 {
        debug_assert!((1..=self.lanes()).contains(&lanes));
        let mut out = [0u64; MAX_BLOCK_WORDS];
        self.sample_block_words(rng, &mut out);
        count_lanes(&out[..self.words], lanes)
    }

    /// Draws exactly `m` samples blockwise and returns `p̂ = X · M / m`.
    pub fn estimate<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> Result<f64> {
        self.estimate_with_deadline(m, rng, None)
    }

    /// [`estimate`](Self::estimate) with a cooperative deadline: the clock
    /// is probed every [`DEADLINE_CHECK_BLOCKS`] blocks (the check is ~ns
    /// against a ~µs block) and an expired deadline aborts the run with
    /// [`ConfidenceError::Interrupted`] instead of finishing the draw.  A
    /// run that completes is bit-identical to the deadline-free path: the
    /// probe consumes no randomness.
    pub fn estimate_with_deadline<R: Rng + ?Sized>(
        &mut self,
        m: usize,
        rng: &mut R,
        deadline: Option<Instant>,
    ) -> Result<f64> {
        if m == 0 {
            return Err(ConfidenceError::InvalidParameter(
                "the Karp-Luby estimate needs at least one sample".into(),
            ));
        }
        let lanes = self.lanes() as usize;
        let mut successes = 0u64;
        self.draw_blocks((m / lanes) as u64, rng, deadline, |words| {
            successes += u64::from(count_lanes(words, lanes as u32));
        })?;
        let rest = (m % lanes) as u32;
        if rest > 0 {
            self.draw_blocks(1, rng, deadline, |words| {
                successes += u64::from(count_lanes(words, rest));
            })?;
        }
        Ok(successes as f64 * self.total_weight() / m as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Assignment, DnfEvent, ProbabilitySpace};
    use crate::exact;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn compile_one(event: DnfEvent, space: &ProbabilitySpace) -> Arc<LineagePrograms> {
        Arc::new(LineagePrograms::compile(vec![event], space).unwrap())
    }

    #[test]
    fn bernoulli_block_matches_its_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for &p in &[0.05f64, 0.3, 0.5, 0.9] {
            let p_bits = (p * 1.8446744073709552e19) as u64;
            let mut ones = 0u64;
            let blocks = 4000;
            for _ in 0..blocks {
                ones += u64::from(bernoulli_block(&mut rng, p_bits).count_ones());
            }
            let freq = ones as f64 / (blocks as f64 * 64.0);
            assert!(
                (freq - p).abs() < 0.01,
                "frequency {freq} too far from p = {p}"
            );
        }
    }

    /// |count − N·p| for a `Bin(N, p)` count stays within this with
    /// probability > 1 − 4·10⁻⁸ (5.5 standard deviations, normal tail; the
    /// `+ 1` covers the discreteness at p ≈ 0 or 1).
    fn binomial_slack(n: u64, p: f64) -> f64 {
        5.5 * (n as f64 * p * (1.0 - p)).sqrt() + 1.0
    }

    fn fixed_point(p: f64) -> u64 {
        (p * 1.8446744073709552e19) as u64
    }

    /// The lock-step Bernoulli at width `W`: 2²⁰ lanes *per word index* for
    /// each `p_bits`, every word index within [`binomial_slack`] of `N·p`.
    /// 42 checks in all, so the suite as a whole holds with probability
    /// > 1 − 2·10⁻⁶ over seeds (and, being seeded, either always or never).
    fn bernoulli_words_match_p<const W: usize>() {
        const BLOCKS: u64 = 1 << 14;
        let mut rng = ChaCha8Rng::seed_from_u64(7 + W as u64);
        for p_bits in [
            0,
            1,
            1 << 63,
            u64::MAX,
            fixed_point(0.05),
            fixed_point(0.25),
        ] {
            let p = p_bits as f64 / 1.8446744073709552e19;
            let mut ones = [0u64; W];
            for _ in 0..BLOCKS {
                let block = bernoulli_words::<W, _>(&mut rng, p_bits);
                for w in 0..W {
                    ones[w] += u64::from(block[w].count_ones());
                }
            }
            let lanes = 64 * BLOCKS;
            for (w, &count) in ones.iter().enumerate() {
                if p_bits == 0 {
                    assert_eq!(count, 0, "p = 0 set a lane in word {w} at width {W}");
                }
                assert!(
                    (count as f64 - lanes as f64 * p).abs() <= binomial_slack(lanes, p),
                    "width {W}, word {w}, p_bits {p_bits:#x}: {count} of {lanes} lanes"
                );
            }
        }
    }

    #[test]
    fn lock_step_bernoulli_words_match_their_probability_at_every_width() {
        bernoulli_words_match_p::<1>();
        bernoulli_words_match_p::<2>();
        bernoulli_words_match_p::<4>();
    }

    #[test]
    fn bernoulli_block_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(bernoulli_block(&mut rng, 0), 0);
        // p_bits = MAX is (2^64 - 1)/2^64: all but a measure-2^-64 sliver.
        let all = bernoulli_block(&mut rng, u64::MAX);
        assert_eq!(all.count_ones(), 64);
    }

    /// The probability with which step 1 of a block chooses each term, read
    /// off the table exactly: the column a lane lands in is
    /// `(h · n) >> 32` for a uniform 32-bit `h`, its coin a uniform 32-bit
    /// value compared against the cell's threshold.
    fn implied_probabilities(cells: &[u64]) -> Vec<f64> {
        let n = cells.len() as u128;
        // Column c is hit by the h with c·2³² ≤ h·n < (c+1)·2³².
        let first_h = |c: u128| (c << 32).div_ceil(n);
        let mut implied = vec![0.0f64; cells.len()];
        for (c, &cell) in cells.iter().enumerate() {
            let column = (first_h(c as u128 + 1) - first_h(c as u128)) as f64 / COLUMN as f64;
            let own = (cell & (COLUMN - 1)) as f64 / COLUMN as f64;
            implied[c] += column * own;
            implied[(cell >> 32) as usize] += column * (1.0 - own);
        }
        implied
    }

    #[test]
    fn alias_tables_reproduce_the_term_weights_and_skip_weightless_terms() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut cases: Vec<Vec<f64>> = vec![
            vec![0.3],
            vec![0.5, 0.5],
            vec![0.9, 0.0, 0.1],
            vec![1e-12, 0.25, 0.0, 0.125, 3e-7, 0.0],
            vec![0.0, 0.0, 0.0],
        ];
        for n in [7usize, 64, 250, 1000] {
            cases.push((0..n).map(|_| rng.gen_range(0.0..1.0f64).powi(6)).collect());
        }
        for weights in cases {
            let n = weights.len();
            let total: f64 = weights.iter().sum();
            let cells = alias_table(&weights);
            assert_eq!(cells.len(), n);
            let implied = implied_probabilities(&cells);
            assert!((implied.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            if total == 0.0 {
                continue;
            }
            let tolerance = n as f64 / COLUMN as f64;
            for (t, (&p, &got)) in weights.iter().zip(&implied).enumerate() {
                assert!(
                    (got - p / total).abs() <= tolerance,
                    "term {t} of {n}: implied {got} vs {}",
                    p / total
                );
                if p == 0.0 {
                    assert_eq!(got, 0.0, "weightless term {t} of {n} can be chosen");
                }
            }
        }
    }

    #[test]
    fn widths_follow_the_sample_budget() {
        assert_eq!(block_words_for_samples(0), 1);
        assert_eq!(block_words_for_samples(127), 1);
        assert_eq!(block_words_for_samples(128), 2);
        assert_eq!(block_words_for_samples(255), 2);
        assert_eq!(block_words_for_samples(256), 4);
        assert_eq!(block_words_for_samples(1 << 20), 4);
    }

    #[test]
    fn rejects_the_impossible_event_and_zero_samples() {
        let mut s = ProbabilitySpace::new();
        s.add_bool_variable(0.5).unwrap();
        let programs = compile_one(DnfEvent::never(), &s);
        assert!(matches!(
            BitKarpLuby::new(programs, 0),
            Err(ConfidenceError::EmptyEvent)
        ));
        let s2 = {
            let mut s2 = ProbabilitySpace::new();
            s2.add_bool_variable(0.5).unwrap();
            s2
        };
        let programs = compile_one(DnfEvent::new([Assignment::new([(0, 0)]).unwrap()]), &s2);
        let mut kernel = BitKarpLuby::new(programs.clone(), 0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(kernel.estimate(0, &mut rng).is_err());
        assert!(matches!(
            BitKarpLuby::new_with_width(programs, 0, 3),
            Err(ConfidenceError::InvalidParameter(_))
        ));
    }

    #[test]
    fn estimates_converge_on_the_coin_event() {
        // Example 2.2: fair coin with two heads, or the double-headed coin.
        let mut s = ProbabilitySpace::new();
        let c = s.add_variable(vec![2.0 / 3.0, 1.0 / 3.0]).unwrap();
        let t1 = s.add_variable(vec![0.5, 0.5]).unwrap();
        let t2 = s.add_variable(vec![0.5, 0.5]).unwrap();
        let event = DnfEvent::new([
            Assignment::new([(c, 0), (t1, 0), (t2, 0)]).unwrap(),
            Assignment::new([(c, 1)]).unwrap(),
        ]);
        let exact_p = exact::probability(&event, &s).unwrap();
        let programs = compile_one(event, &s);
        for words in [1usize, 2, 4] {
            let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            assert_eq!(kernel.num_terms(), 2);
            assert_eq!(kernel.lanes(), 64 * words as u32);
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let p_hat = kernel.estimate(40_000, &mut rng).unwrap();
            assert!(
                (p_hat - exact_p).abs() < 0.02,
                "estimate {p_hat} too far from exact {exact_p} at width {words}"
            );
        }
    }

    #[test]
    fn overlapping_terms_are_not_overcounted() {
        // The Karp-Luby coverage trick is exactly what the minimal-term scan
        // implements; naive averaging would give 1.0 here instead of 0.75.
        let mut s = ProbabilitySpace::new();
        let x = s.add_bool_variable(0.5).unwrap();
        let y = s.add_bool_variable(0.5).unwrap();
        let event = DnfEvent::new([
            Assignment::new([(x, 0)]).unwrap(),
            Assignment::new([(y, 0)]).unwrap(),
        ]);
        let programs = compile_one(event, &s);
        for words in [1usize, 4] {
            let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let p_hat = kernel.estimate(60_000, &mut rng).unwrap();
            assert!(
                (p_hat - 0.75).abs() < 0.015,
                "estimate {p_hat} vs 0.75 at width {words}"
            );
        }
    }

    #[test]
    fn multivalued_variables_sample_correctly() {
        let mut s = ProbabilitySpace::new();
        let v = s.add_variable(vec![0.2, 0.3, 0.5]).unwrap();
        let w = s.add_variable(vec![0.25, 0.25, 0.25, 0.25]).unwrap();
        let event = DnfEvent::new([
            Assignment::new([(v, 1)]).unwrap(),
            Assignment::new([(v, 2), (w, 3)]).unwrap(),
        ]);
        let exact_p = exact::probability(&event, &s).unwrap();
        let programs = compile_one(event, &s);
        for words in [1usize, 2, 4] {
            let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(31);
            let p_hat = kernel.estimate(60_000, &mut rng).unwrap();
            assert!(
                (p_hat - exact_p).abs() < 0.015,
                "estimate {p_hat} vs exact {exact_p} at width {words}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let mut s = ProbabilitySpace::new();
        let x = s.add_bool_variable(0.4).unwrap();
        let y = s.add_bool_variable(0.6).unwrap();
        let event = DnfEvent::new([
            Assignment::new([(x, 0)]).unwrap(),
            Assignment::new([(y, 1)]).unwrap(),
        ]);
        let programs = compile_one(event, &s);
        for words in [1usize, 2, 4] {
            let mut a = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut b = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut r1 = ChaCha8Rng::seed_from_u64(11);
            let mut r2 = ChaCha8Rng::seed_from_u64(11);
            let mut r3 = ChaCha8Rng::seed_from_u64(12);
            let ea = a.estimate(1000, &mut r1).unwrap();
            let eb = b.estimate(1000, &mut r2).unwrap();
            assert_eq!(ea, eb, "one seed must give bit-identical estimates");
            let ec = a.estimate(1000, &mut r3).unwrap();
            assert_ne!(ea, ec, "different seeds must diverge");
        }
    }

    #[test]
    fn partial_blocks_count_exactly_the_requested_lanes() {
        let mut s = ProbabilitySpace::new();
        s.add_bool_variable(0.999).unwrap();
        // Single near-certain term: nearly every lane succeeds, so a partial
        // block's count is bounded by the lane budget.
        let event = DnfEvent::new([Assignment::new([(0, 0)]).unwrap()]);
        let programs = compile_one(event, &s);
        for words in [1usize, 2, 4] {
            let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            for lanes in [1u32, 7, 33, 64, 64 * words as u32] {
                let x = kernel.sample_block(&mut rng, lanes);
                assert!(x <= lanes);
            }
        }
    }

    #[test]
    fn wide_blocks_fill_every_word() {
        // A certain-per-term single-variable event at p close to 1: each of
        // the four words must carry successes, proving lanes past 64 are
        // really sampled and counted.
        let mut s = ProbabilitySpace::new();
        s.add_bool_variable(0.999).unwrap();
        let event = DnfEvent::new([Assignment::new([(0, 0)]).unwrap()]);
        let programs = compile_one(event, &s);
        let mut kernel = BitKarpLuby::new_with_width(programs, 0, 4).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut out = [0u64; MAX_BLOCK_WORDS];
        kernel.sample_block_words(&mut rng, &mut out);
        for (w, &word) in out.iter().enumerate() {
            assert!(
                word.count_ones() > 32,
                "word {w} carries only {} successes",
                word.count_ones()
            );
        }
    }
}
