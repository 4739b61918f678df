//! Exact confidence computation.
//!
//! Computing the probability of a DNF event over independent discrete
//! variables is #P-complete (Theorem 3.4 via [10, 7]), so every method here
//! is exponential in the worst case.  Three methods are provided:
//!
//! * [`by_enumeration`] — iterate over all total assignments of the mentioned
//!   variables; the paper's semantics spelled out, exponential in the number
//!   of variables.
//! * [`by_inclusion_exclusion`] — sum over subsets of terms, exponential in
//!   the number of terms `|F|`.
//! * [`by_shannon_expansion`] — Shannon expansion on one variable at a time
//!   with memoisation and decomposition into independent components; the
//!   practical exact method and the default [`probability`].
//!
//! The expansion runs on interned terms: every literal `(variable,
//! alternative)` of a computation sits in one flat buffer, a term is an id,
//! a sub-event is a list of ids, the restriction `f \ {X}` interns a new
//! term instead of cloning one, and the memo is keyed by sorted id lists.  A
//! compiled batch runs its events through one kernel
//! ([`crate::LineagePrograms::exact_probabilities`]), so they share the term
//! buffer; the memo stays per event.  The kernel repeats the recursion over
//! boxed [`DnfEvent`]s it replaced step for step — the same simplification
//! order, component order, branch variable and alternative order, and memo
//! hits in the same places — so its answers are bit-identical to it; the
//! `exact_kernel_differential` suite keeps that recursion as the reference
//! and compares with `to_bits()`.
//!
//! The same kernel is the exact backend of the estimators: under a node
//! budget it counts its expansion steps and gives up with
//! [`ConfidenceError::TooLarge`] past the budget
//! ([`crate::LineagePrograms::dnnf_probability`]), and with a recorder it
//! writes down what it computes as a decision-DNNF ([`crate::Dnnf`]).

use crate::dnnf::Recorder;
use crate::error::{ConfidenceError, Result};
use crate::event::{Assignment, DnfEvent, ProbabilitySpace, VarId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Default limit on the number of total assignments [`by_enumeration`] will
/// touch.
pub const DEFAULT_ENUMERATION_LIMIT: u128 = 1 << 22;

/// Default limit on the number of terms [`by_inclusion_exclusion`] accepts
/// (it sums over `2^|F| − 1` subsets).
pub const DEFAULT_INCLUSION_EXCLUSION_LIMIT: usize = 24;

/// The most terms `by_inclusion_exclusion` accepts under any limit: its
/// subsets are the non-zero masks of a `u64`.
const MAX_INCLUSION_EXCLUSION_TERMS: usize = 63;

/// Exact probability of the event by enumerating all total assignments of
/// the variables the event mentions.
pub fn by_enumeration(event: &DnfEvent, space: &ProbabilitySpace, limit: u128) -> Result<f64> {
    if event.is_never() {
        return Ok(0.0);
    }
    let vars = event.variables();
    let count = space.assignment_count(&vars)?;
    if count > limit {
        return Err(ConfidenceError::TooLarge {
            what: format!("enumeration over {count} assignments"),
            limit,
        });
    }
    // Depth-first enumeration without materialising the assignment list.
    fn recurse(
        vars: &[VarId],
        space: &ProbabilitySpace,
        event: &DnfEvent,
        partial: &mut Vec<(VarId, usize)>,
        weight: f64,
    ) -> Result<f64> {
        match vars.split_first() {
            None => {
                let total = Assignment::new(partial.iter().copied())
                    .expect("enumeration never assigns a variable twice");
                Ok(if event.satisfied_by(&total) {
                    weight
                } else {
                    0.0
                })
            }
            Some((&v, rest)) => {
                let mut acc = 0.0;
                for alt in 0..space.num_alternatives(v)? {
                    let p = space.probability(v, alt)?;
                    partial.push((v, alt));
                    acc += recurse(rest, space, event, partial, weight * p)?;
                    partial.pop();
                }
                Ok(acc)
            }
        }
    }
    let mut partial = Vec::with_capacity(vars.len());
    recurse(&vars, space, event, &mut partial, 1.0)
}

/// Exact probability by inclusion–exclusion over the terms:
/// `Pr[⋃ f_i] = Σ_{∅ ≠ S ⊆ F} (−1)^{|S|+1} · Pr[⋀ S]`, where the conjunction
/// of inconsistent terms has probability 0.
///
/// Fails with [`ConfidenceError::TooLarge`] past `max_terms` terms (after
/// simplification), and past 63 whatever the limit: the subsets are the
/// masks of a `u64`.
pub fn by_inclusion_exclusion(
    event: &DnfEvent,
    space: &ProbabilitySpace,
    max_terms: usize,
) -> Result<f64> {
    let event = event.simplified();
    let n = event.num_terms();
    if n == 0 {
        return Ok(0.0);
    }
    // The subsets are the bit masks of a `u64`, so 63 terms is the most
    // any limit admits.
    let limit = max_terms.min(MAX_INCLUSION_EXCLUSION_TERMS);
    if n > limit {
        return Err(ConfidenceError::TooLarge {
            what: format!("inclusion-exclusion over {n} terms"),
            limit: limit as u128,
        });
    }
    let terms = event.terms();
    let mut total = 0.0;
    for mask in 1u64..(1u64 << n) {
        let mut merged = Assignment::always();
        let mut consistent = true;
        for (i, term) in terms.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            match merged.merge(term) {
                Some(m) => merged = m,
                None => {
                    consistent = false;
                    break;
                }
            }
        }
        if !consistent {
            continue;
        }
        let sign = if mask.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        total += sign * merged.weight(space)?;
    }
    Ok(total.clamp(0.0, 1.0))
}

/// Exact probability by Shannon expansion with memoisation and independent
/// component factorisation.  This is the default exact method.
pub fn by_shannon_expansion(event: &DnfEvent, space: &ProbabilitySpace) -> Result<f64> {
    Shannon::new(space).probability(event)
}

/// Exact probability using the default method ([`by_shannon_expansion`]).
pub fn probability(event: &DnfEvent, space: &ProbabilitySpace) -> Result<f64> {
    by_shannon_expansion(event, space)
}

/// Marks a term that does not mention the branch variable; never a
/// literal's alternative ([`Terms::intern`] rejects it).
const UNASSIGNED: u32 = u32::MAX;

/// One step of the multiplicative hash behind the term index and the memo.
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95)
}

fn hash_lits(lits: &[(u32, u32)]) -> u64 {
    lits.iter().fold(lits.len() as u64, |h, &(v, a)| {
        mix(h, u64::from(v) << 32 | u64::from(a))
    })
}

/// The memo's hasher: [`mix`] over the key's words.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = mix(self.0, n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The terms of one Shannon computation, interned: every literal
/// `(variable, alternative)` sits in one flat buffer, a term is the id of
/// its run there, and equal runs share one id — so a set of terms is a list
/// of ids, and two sets are equal exactly when their sorted id lists are.
#[derive(Default)]
struct Terms {
    /// Every term's literals in variable order, term after term.
    lits: Vec<(u32, u32)>,
    /// Term id → `(start, len)` into `lits`.
    spans: Vec<(u32, u32)>,
    /// Open-addressed index over the terms: a cell holds `id + 1`, 0 is
    /// empty; a power of two at least twice the term count long.
    index: Vec<u32>,
}

impl Terms {
    fn lits(&self, id: u32) -> &[(u32, u32)] {
        let (start, len) = self.spans[id as usize];
        &self.lits[start as usize..][..len as usize]
    }

    fn is_empty_term(&self, id: u32) -> bool {
        self.spans[id as usize].1 == 0
    }

    /// The index cell `lits` hashes to.
    fn cell(&self, lits: &[(u32, u32)]) -> usize {
        (hash_lits(lits) >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Interns a term of an event.  Ids past `u32` are rejected up front
    /// as unknown (a rejected term's literals stay behind unreferenced);
    /// the space itself is consulted only where the expansion branches, as
    /// it always was.
    fn intern(&mut self, term: &Assignment) -> Result<u32> {
        let start = self.lits.len();
        for (var, alt) in term.iter() {
            let v = u32::try_from(var).map_err(|_| ConfidenceError::UnknownVariable(var))?;
            let a = u32::try_from(alt)
                .ok()
                .filter(|&a| a != UNASSIGNED)
                .ok_or(ConfidenceError::UnknownAlternative { var, alt })?;
            self.lits.push((v, a));
        }
        Ok(self.intern_tail(start))
    }

    /// Interns the literals `lits[start..]`, just pushed: the id of an
    /// equal earlier term (dropping the pushed copy), or a new id.
    fn intern_tail(&mut self, start: usize) -> u32 {
        if 2 * (self.spans.len() + 1) > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut cell = self.cell(&self.lits[start..]);
        while let Some(id) = self.index[cell].checked_sub(1) {
            if self.lits(id) == &self.lits[start..] {
                self.lits.truncate(start);
                return id;
            }
            cell = (cell + 1) & mask;
        }
        let id = self.spans.len() as u32;
        self.spans
            .push((start as u32, (self.lits.len() - start) as u32));
        self.index[cell] = id + 1;
        id
    }

    fn grow(&mut self) {
        self.index = vec![0; (2 * self.index.len()).max(16)];
        let mask = self.index.len() - 1;
        for id in 0..self.spans.len() as u32 {
            let mut cell = self.cell(self.lits(id));
            while self.index[cell] != 0 {
                cell = (cell + 1) & mask;
            }
            self.index[cell] = id + 1;
        }
    }

    /// `term` restricted to the other variables than `var` (the step
    /// `f \ {X}`): `(alternative, rest)`, or `(UNASSIGNED, term)` when the
    /// term does not mention `var`.
    fn without(&mut self, term: u32, var: u32) -> (u32, u32) {
        let (start, len) = self.spans[term as usize];
        let run = start as usize..(start + len) as usize;
        match self.lits[run.clone()].binary_search_by_key(&var, |&(v, _)| v) {
            Err(_) => (UNASSIGNED, term),
            Ok(at) => {
                let at = run.start + at;
                let alt = self.lits[at].1;
                let tail = self.lits.len();
                self.lits.extend_from_within(run.start..at);
                self.lits.extend_from_within(at + 1..run.end);
                (alt, self.intern_tail(tail))
            }
        }
    }

    /// True if every literal of `k` is a literal of `t`: `k` subsumes `t`.
    fn subsumes(&self, k: u32, t: u32) -> bool {
        if k == t {
            return true;
        }
        let (k, t) = (self.lits(k), self.lits(t));
        if k.len() > t.len() {
            return false;
        }
        let mut j = 0;
        k.iter().all(|&(v, a)| {
            while j < t.len() && t[j].0 < v {
                j += 1;
            }
            let found = j < t.len() && t[j] == (v, a);
            j += 1;
            found
        })
    }
}

/// Pushes the terms of `stack[lo..]` less duplicate and subsumed ones, in
/// the order [`DnfEvent::simplified`] keeps them, and returns where they sit.
fn simplify(terms: &Terms, stack: &mut Vec<u32>, lo: usize) -> (usize, usize) {
    let base = stack.len();
    for at in lo..base {
        let t = stack[at];
        if stack[base..].iter().any(|&k| terms.subsumes(k, t)) {
            continue;
        }
        let mut kept = base;
        for r in base..stack.len() {
            let k = stack[r];
            if !terms.subsumes(t, k) {
                stack[kept] = k;
                kept += 1;
            }
        }
        stack.truncate(kept);
        stack.push(t);
    }
    (base, stack.len())
}

/// `p₁·(p₂·(…·p_k))` over a term's literals in variable order: what the
/// expansion computes for a single term (every other branch adds `+0.0`).
/// A literal naming no alternative of its variable is never satisfied.
pub(crate) fn term_probability(space: &ProbabilitySpace, lits: &[(u32, u32)]) -> Result<f64> {
    for &(var, alt) in lits {
        if alt as usize >= space.num_alternatives(var as usize)? {
            return Ok(0.0);
        }
    }
    lits.iter().rev().try_fold(1.0, |acc, &(var, alt)| {
        Ok(space.probability(var as usize, alt as usize)? * acc)
    })
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// The Shannon-expansion kernel over interned terms.  One kernel serves a
/// whole batch ([`crate::LineagePrograms::exact_probabilities`]): the terms
/// stay interned across its events, while the memo is per event.
///
/// Every step repeats the recursion over [`DnfEvent`]s it replaced, so
/// every answer is bit-identical to it: the event is simplified in
/// [`DnfEvent::simplified`]'s order; a sub-event splits into the components
/// of [`DnfEvent::independent_components`], in the same order (by
/// union-find root, the same unions in the same order); one component
/// branches on its most frequent variable (ties to the smallest id) over the
/// alternatives in order; and the memo is keyed by the set of terms, so it
/// hits exactly where the old one did.  A single term is answered by
/// [`term_probability`].
///
/// Every memo miss of two or more terms is one expansion step — a split
/// into components or a branch — and a kernel with a budget
/// ([`Shannon::with_budget`]) fails with [`ConfidenceError::TooLarge`] at
/// the step past it.  A recording kernel ([`Shannon::trace`]) also hands
/// every answer to a [`Recorder`]: a constant or single-term leaf, a
/// decision per branch, a complement-of-product per split, and the node of
/// the first computation on a memo hit — one internal node per step.
pub(crate) struct Shannon<'a> {
    space: &'a ProbabilitySpace,
    terms: Terms,
    memo: HashMap<Box<[u32]>, f64, BuildHasherDefault<IdHasher>>,
    /// The most expansion steps one event may take.
    budget: u64,
    /// The expansion steps of the current event.
    steps: u64,
    recorder: Option<Recorder>,
    /// The open sub-events, innermost last: each one's term ids, then its
    /// sorted memo key, then its components or its restricted terms.
    stack: Vec<u32>,
    /// One sub-event's literal occurrences `(variable, term, position)`.
    occurrences: Vec<(u32, u32, u32)>,
    /// Per literal position: the first term that mentions its variable.
    first: Vec<u32>,
    /// Union-find parents over one sub-event's terms.
    parent: Vec<u32>,
    /// `(root, term)`: the component order.
    groups: Vec<(u32, u32)>,
}

impl<'a> Shannon<'a> {
    pub(crate) fn new(space: &'a ProbabilitySpace) -> Self {
        Shannon {
            space,
            terms: Terms::default(),
            memo: HashMap::default(),
            budget: u64::MAX,
            steps: 0,
            recorder: None,
            stack: Vec::new(),
            occurrences: Vec::new(),
            first: Vec::new(),
            parent: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// The kernel that gives up on an event past `budget` expansion steps.
    pub(crate) fn with_budget(mut self, budget: u32) -> Self {
        self.budget = u64::from(budget);
        self
    }

    /// The expansion steps the last event took (all of them, if it was
    /// answered).
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Computes the probability of `event` and returns the recorded
    /// decision-DNNF of that computation.
    pub(crate) fn trace(mut self, event: &DnfEvent) -> Result<Recorder> {
        self.recorder = Some(Recorder::default());
        self.probability(event)?;
        Ok(self.recorder.unwrap_or_default())
    }

    /// The exact probability of `event`.
    pub(crate) fn probability(&mut self, event: &DnfEvent) -> Result<f64> {
        self.memo.clear();
        self.stack.clear();
        self.steps = 0;
        for term in event.terms() {
            let id = self.terms.intern(term)?;
            self.stack.push(id);
        }
        let (lo, hi) = simplify(&self.terms, &mut self.stack, 0);
        self.solve(lo, hi)
    }

    /// The probability of the simplified sub-event `stack[lo..hi]`; leaves
    /// the stack as it found it.
    fn solve(&mut self, lo: usize, hi: usize) -> Result<f64> {
        let certain = self.stack[lo..hi]
            .iter()
            .any(|&t| self.terms.is_empty_term(t));
        if hi - lo == 0 || certain {
            if let Some(r) = &mut self.recorder {
                r.constant(certain);
            }
            return Ok(if certain { 1.0 } else { 0.0 });
        }
        if hi - lo == 1 {
            let term = self.stack[lo];
            let lits = self.terms.lits(term);
            let p = term_probability(self.space, lits)?;
            if let Some(r) = &mut self.recorder {
                r.term(term, lits);
            }
            return Ok(p);
        }
        let key = self.stack.len();
        self.stack.extend_from_within(lo..hi);
        self.stack[key..].sort_unstable();
        if let Some(&p) = self.memo.get(&self.stack[key..]) {
            if let Some(r) = &mut self.recorder {
                r.shared(&self.stack[key..]);
            }
            self.stack.truncate(key);
            return Ok(p);
        }
        let body = self.stack.len();
        let p = self.expand(lo, hi)?;
        if let Some(r) = &mut self.recorder {
            r.remember(&self.stack[key..body]);
        }
        self.memo.insert(self.stack[key..body].into(), p);
        self.stack.truncate(key);
        Ok(p)
    }

    /// One expansion step of a sub-event with at least two terms, none of
    /// them empty: split into independent components, or branch.
    fn expand(&mut self, lo: usize, hi: usize) -> Result<f64> {
        self.steps += 1;
        if self.steps > self.budget {
            return Err(ConfidenceError::TooLarge {
                what: "Shannon expansion".into(),
                limit: u128::from(self.budget),
            });
        }
        let mark = self.recorder.as_ref().map_or(0, Recorder::mark);
        let n = hi - lo;
        // Every literal occurrence, sorted by variable: a variable's run
        // starts at the first term that mentions it, and its length is the
        // variable's count.
        self.occurrences.clear();
        for (i, &t) in self.stack[lo..hi].iter().enumerate() {
            for &(var, _) in self.terms.lits(t) {
                let position = self.occurrences.len() as u32;
                self.occurrences.push((var, i as u32, position));
            }
        }
        self.occurrences.sort_unstable();
        self.first.clear();
        self.first.resize(self.occurrences.len(), 0);
        let (mut branch, mut branch_count) = (0u32, 0usize);
        for run in self.occurrences.chunk_by(|a, b| a.0 == b.0) {
            for &(_, _, position) in run {
                self.first[position as usize] = run[0].1;
            }
            if run.len() > branch_count {
                (branch, branch_count) = (run[0].0, run.len());
            }
        }

        // Union-find over the terms, uniting each term with the first term
        // of each of its variables, term by term and variable by variable.
        self.parent.clear();
        self.parent.extend(0..n as u32);
        let mut position = 0;
        for (i, &t) in self.stack[lo..hi].iter().enumerate() {
            for _ in self.terms.lits(t) {
                let first = self.first[position];
                if (first as usize) < i {
                    let a = find(&mut self.parent, i as u32);
                    let b = find(&mut self.parent, first);
                    self.parent[a as usize] = b;
                }
                position += 1;
            }
        }
        self.groups.clear();
        for i in 0..n as u32 {
            let root = find(&mut self.parent, i);
            self.groups.push((root, i));
        }
        self.groups.sort_unstable();

        if self.groups[0].0 != self.groups[n - 1].0 {
            // Independent components: 1 − Π (1 − p_i).  Their sizes, then
            // their terms, go on the stack (children reuse the scratch).
            let sizes = self.stack.len();
            for run in self.groups.chunk_by(|a, b| a.0 == b.0) {
                self.stack.push(run.len() as u32);
            }
            let components = self.stack.len() - sizes;
            for &(_, i) in &self.groups {
                self.stack.push(self.stack[lo + i as usize]);
            }
            let mut start = sizes + components;
            let mut q = 1.0;
            for c in 0..components {
                let len = self.stack[sizes + c] as usize;
                q *= 1.0 - self.solve(start, start + len)?;
                start += len;
            }
            self.stack.truncate(sizes);
            if let Some(r) = &mut self.recorder {
                r.components(mark);
            }
            return Ok(1.0 - q);
        }

        // One component: branch on its most frequent variable.  Each term's
        // restriction `(alternative, rest)` is interned once, before the
        // alternatives.
        let var = branch as usize;
        let restricted = self.stack.len();
        for at in lo..hi {
            let (alt, rest) = self.terms.without(self.stack[at], branch);
            self.stack.extend([alt, rest]);
        }
        let top = self.stack.len();
        let mut acc = 0.0;
        for alt in 0..self.space.num_alternatives(var)? {
            let p_alt = self.space.probability(var, alt)?;
            for i in 0..n {
                let (assigned, rest) = (
                    self.stack[restricted + 2 * i],
                    self.stack[restricted + 2 * i + 1],
                );
                if assigned == UNASSIGNED || assigned as usize == alt {
                    self.stack.push(rest);
                }
            }
            let (sub_lo, sub_hi) = simplify(&self.terms, &mut self.stack, top);
            acc += p_alt * self.solve(sub_lo, sub_hi)?;
            self.stack.truncate(top);
        }
        self.stack.truncate(restricted);
        if let Some(r) = &mut self.recorder {
            r.decision(var, mark);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ProbabilitySpace {
        let mut s = ProbabilitySpace::new();
        s.add_variable(vec![2.0 / 3.0, 1.0 / 3.0]).unwrap(); // 0
        s.add_variable(vec![0.5, 0.5]).unwrap(); // 1
        s.add_variable(vec![0.5, 0.5]).unwrap(); // 2
        s.add_variable(vec![0.25, 0.75]).unwrap(); // 3
        s
    }

    fn a(pairs: &[(usize, usize)]) -> Assignment {
        Assignment::new(pairs.iter().copied()).unwrap()
    }

    /// The event of Example 2.2 / Figure 1(b): the picked coin is fair and
    /// both tosses come up heads, OR the coin is double-headed.
    fn coin_event() -> DnfEvent {
        DnfEvent::new([a(&[(0, 0), (1, 0), (2, 0)]), a(&[(0, 1)])])
    }

    #[test]
    fn all_methods_agree_on_the_coin_event() {
        let s = space();
        let f = coin_event();
        let expected = 2.0 / 3.0 * 0.25 + 1.0 / 3.0; // = 1/2
        for p in [
            by_enumeration(&f, &s, DEFAULT_ENUMERATION_LIMIT).unwrap(),
            by_inclusion_exclusion(&f, &s, DEFAULT_INCLUSION_EXCLUSION_LIMIT).unwrap(),
            by_shannon_expansion(&f, &s).unwrap(),
            probability(&f, &s).unwrap(),
        ] {
            assert!((p - expected).abs() < 1e-12, "got {p}, expected {expected}");
        }
    }

    #[test]
    fn trivial_events() {
        let s = space();
        assert_eq!(probability(&DnfEvent::never(), &s).unwrap(), 0.0);
        let certain = DnfEvent::new([Assignment::always()]);
        assert_eq!(probability(&certain, &s).unwrap(), 1.0);
        assert_eq!(by_enumeration(&DnfEvent::never(), &s, 10).unwrap(), 0.0);
        assert_eq!(
            by_inclusion_exclusion(&DnfEvent::never(), &s, 10).unwrap(),
            0.0
        );
    }

    #[test]
    fn single_term_probability_is_its_weight() {
        let s = space();
        let f = DnfEvent::new([a(&[(0, 0), (3, 1)])]);
        let expected = 2.0 / 3.0 * 0.75;
        assert!((probability(&f, &s).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn overlapping_terms_are_not_double_counted() {
        let s = space();
        // X1 = 0  ∨  X2 = 0 : 0.5 + 0.5 − 0.25 = 0.75.
        let f = DnfEvent::new([a(&[(1, 0)]), a(&[(2, 0)])]);
        for p in [
            by_enumeration(&f, &s, 1 << 10).unwrap(),
            by_inclusion_exclusion(&f, &s, 10).unwrap(),
            by_shannon_expansion(&f, &s).unwrap(),
        ] {
            assert!((p - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn contradictory_terms_drop_out_of_inclusion_exclusion() {
        let s = space();
        // The two terms are inconsistent, so their conjunction contributes 0.
        let f = DnfEvent::new([a(&[(0, 0)]), a(&[(0, 1)])]);
        let expected = 1.0; // exhaustive alternatives of variable 0
        assert!((by_inclusion_exclusion(&f, &s, 10).unwrap() - expected).abs() < 1e-12);
        assert!((by_shannon_expansion(&f, &s).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn methods_agree_on_random_events() {
        // Small pseudo-random stress test with a fixed pattern (no RNG needed).
        let s = space();
        let mut terms = Vec::new();
        for i in 0..6usize {
            let v1 = i % 4;
            let v2 = (i * 7 + 1) % 4;
            let t = if v1 == v2 {
                a(&[(v1, i % 2)])
            } else {
                a(&[(v1, i % 2), (v2, (i / 2) % 2)])
            };
            terms.push(t);
        }
        let f = DnfEvent::new(terms);
        let p1 = by_enumeration(&f, &s, 1 << 16).unwrap();
        let p2 = by_inclusion_exclusion(&f, &s, 16).unwrap();
        let p3 = by_shannon_expansion(&f, &s).unwrap();
        assert!((p1 - p2).abs() < 1e-10);
        assert!((p1 - p3).abs() < 1e-10);
    }

    #[test]
    fn limits_are_enforced() {
        let s = space();
        let f = coin_event();
        assert!(matches!(
            by_enumeration(&f, &s, 1),
            Err(ConfidenceError::TooLarge { .. })
        ));
        assert!(matches!(
            by_inclusion_exclusion(&f, &s, 1),
            Err(ConfidenceError::TooLarge { .. })
        ));
    }

    /// 64 independent `p = 0.5` literals: the union is 1 − 2⁻⁶⁴ = 1.0 in
    /// `f64`.  Their subsets do not fit a `u64` mask, so inclusion–exclusion
    /// refuses them under any limit (it used to answer 0).
    #[test]
    fn inclusion_exclusion_refuses_64_and_more_terms_whatever_the_limit() {
        for n in [64, 65] {
            let mut s = ProbabilitySpace::new();
            let terms: Vec<Assignment> = (0..n)
                .map(|_| {
                    let v = s.add_bool_variable(0.5).unwrap();
                    Assignment::new([(v, 0)]).unwrap()
                })
                .collect();
            let f = DnfEvent::new(terms);
            assert_eq!(by_shannon_expansion(&f, &s).unwrap(), 1.0);
            for limit in [100, usize::MAX] {
                assert_eq!(
                    by_inclusion_exclusion(&f, &s, limit),
                    Err(ConfidenceError::TooLarge {
                        what: format!("inclusion-exclusion over {n} terms"),
                        limit: MAX_INCLUSION_EXCLUSION_TERMS as u128,
                    })
                );
            }
        }
    }

    #[test]
    fn shannon_handles_many_independent_components_quickly() {
        // 2·n Boolean variables in n independent pair-components; enumeration
        // would need 4^n assignments but factorisation keeps this instant.
        let mut s = ProbabilitySpace::new();
        let mut terms = Vec::new();
        let n = 30;
        for _ in 0..n {
            let x = s.add_bool_variable(0.5).unwrap();
            let y = s.add_bool_variable(0.5).unwrap();
            terms.push(Assignment::new([(x, 0), (y, 0)]).unwrap());
        }
        let f = DnfEvent::new(terms);
        let p = by_shannon_expansion(&f, &s).unwrap();
        let expected = 1.0 - (1.0 - 0.25f64).powi(n);
        assert!((p - expected).abs() < 1e-9);
    }
}
