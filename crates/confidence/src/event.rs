//! The event model: independent discrete random variables and DNF events
//! (disjunctions of partial assignments).
//!
//! This crate is deliberately independent of the data model: the `engine`
//! crate maps U-relation conditions onto [`VarId`]/alternative indices before
//! asking for probabilities, and the estimators here work on plain indices
//! for speed.

use crate::error::{ConfidenceError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Index of a random variable within a [`ProbabilitySpace`].
pub type VarId = usize;

/// Index of an alternative (domain value) of a variable.
pub type AltId = usize;

/// Numerical slack accepted when checking that a distribution sums to 1.
pub const DISTRIBUTION_TOLERANCE: f64 = 1e-9;

/// A finite set of independent discrete random variables, each with a
/// probability per alternative.
///
/// The distributions are one flat buffer — every variable's run of
/// alternative probabilities, in id order — behind one [`Arc`], so a clone
/// (every compiled batch keeps one) is a pointer copy, and declaring a
/// variable allocates nothing of its own;
/// [`ProbabilitySpace::add_variable`] copies the buffer first only while a
/// clone shares it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProbabilitySpace {
    dists: Arc<Distributions>,
}

/// The distributions of a [`ProbabilitySpace`]: `Pr[X_v = a]` is
/// `probabilities[ends[v - 1] + a]` (`ends[-1]` read as 0).
#[derive(Clone, Debug, Default, PartialEq)]
struct Distributions {
    probabilities: Vec<f64>,
    ends: Vec<usize>,
}

impl ProbabilitySpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        ProbabilitySpace::default()
    }

    /// An empty space with room for `variables` variables of
    /// `alternatives` alternatives in total.
    pub fn with_capacity(variables: usize, alternatives: usize) -> Self {
        ProbabilitySpace {
            dists: Arc::new(Distributions {
                probabilities: Vec::with_capacity(alternatives),
                ends: Vec::with_capacity(variables),
            }),
        }
    }

    /// Adds a variable with the given per-alternative probabilities, which
    /// must be strictly positive and sum to 1.
    pub fn add_variable(&mut self, probabilities: Vec<f64>) -> Result<VarId> {
        self.push_variable(probabilities)
    }

    /// [`add_variable`](ProbabilitySpace::add_variable) from any sequence
    /// of probabilities, appended straight to the space's buffer: same
    /// checks, same errors, and nothing added on error.
    pub fn push_variable(&mut self, probabilities: impl IntoIterator<Item = f64>) -> Result<VarId> {
        let dists = Arc::make_mut(&mut self.dists);
        let start = dists.probabilities.len();
        dists.probabilities.extend(probabilities);
        if let Err(e) = check_distribution(&dists.probabilities[start..]) {
            dists.probabilities.truncate(start);
            return Err(e);
        }
        dists.ends.push(dists.probabilities.len());
        Ok(dists.ends.len() - 1)
    }

    /// Adds a Boolean variable: alternative 0 is "true" with probability `p`,
    /// alternative 1 is "false" with probability `1 − p`.
    pub fn add_bool_variable(&mut self, p: f64) -> Result<VarId> {
        if !(p > 0.0 && p < 1.0) {
            return Err(ConfidenceError::InvalidDistribution(format!(
                "Boolean probability {p} must be strictly between 0 and 1"
            )));
        }
        self.add_variable(vec![p, 1.0 - p])
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.dists.ends.len()
    }

    /// Number of alternatives of variable `var`.
    pub fn num_alternatives(&self, var: VarId) -> Result<usize> {
        self.distribution(var).map(<[f64]>::len)
    }

    /// `Pr[X_var = alt]`.
    pub fn probability(&self, var: VarId, alt: AltId) -> Result<f64> {
        let dist = self.distribution(var)?;
        dist.get(alt)
            .copied()
            .ok_or(ConfidenceError::UnknownAlternative { var, alt })
    }

    /// The full distribution of variable `var`.
    pub fn distribution(&self, var: VarId) -> Result<&[f64]> {
        let dists = &*self.dists;
        let end = *dists
            .ends
            .get(var)
            .ok_or(ConfidenceError::UnknownVariable(var))?;
        let start = var.checked_sub(1).map_or(0, |prev| dists.ends[prev]);
        Ok(&dists.probabilities[start..end])
    }

    /// Number of total assignments over the given variables.
    pub fn assignment_count(&self, vars: &[VarId]) -> Result<u128> {
        let mut n: u128 = 1;
        for &v in vars {
            n = n.saturating_mul(self.num_alternatives(v)? as u128);
        }
        Ok(n)
    }
}

/// A distribution's checks: at least one alternative, every probability
/// in `(0, 1]`, and a sum within [`DISTRIBUTION_TOLERANCE`] of 1.
fn check_distribution(probabilities: &[f64]) -> Result<()> {
    if probabilities.is_empty() {
        return Err(ConfidenceError::InvalidDistribution(
            "a variable needs at least one alternative".into(),
        ));
    }
    let mut total = 0.0;
    for &p in probabilities {
        if !p.is_finite() || p <= 0.0 {
            return Err(ConfidenceError::InvalidDistribution(format!(
                "probability {p} is not in (0, 1]"
            )));
        }
        total += p;
    }
    if (total - 1.0).abs() > DISTRIBUTION_TOLERANCE {
        return Err(ConfidenceError::InvalidDistribution(format!(
            "probabilities sum to {total}, expected 1"
        )));
    }
    Ok(())
}

/// A partial assignment `f : Var → Dom`, the building block of DNF events.
///
/// Assignments are kept sorted by variable id; an empty assignment is the
/// always-true event.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Assignment {
    pairs: Vec<(VarId, AltId)>,
}

impl Assignment {
    /// The empty assignment (true in every world).
    pub fn always() -> Self {
        Assignment::default()
    }

    /// Creates an assignment from pairs; duplicate variables must agree.
    ///
    /// Pairs already strictly sorted by variable are taken as they are;
    /// otherwise one stable sort and one linear pass drop repeats and find
    /// conflicts, and the error names the first pair, in input order, that
    /// contradicts an earlier one.
    pub fn new(pairs: impl IntoIterator<Item = (VarId, AltId)>) -> Result<Self> {
        let pairs: Vec<(VarId, AltId)> = pairs.into_iter().collect();
        if strictly_sorted(&pairs) {
            return Ok(Assignment { pairs });
        }
        let mut sorted = pairs.clone();
        sorted.sort_by_key(|&(var, _)| var);
        sorted.dedup();
        if strictly_sorted(&sorted) {
            return Ok(Assignment { pairs: sorted });
        }
        // The stable sort keeps each variable's first pair at the head of
        // its run, so the first input pair that differs from its head is
        // the first conflict.
        let (var, existing, alt) = pairs
            .iter()
            .find_map(|&(var, alt)| {
                let head = sorted[sorted.partition_point(|&(v, _)| v < var)].1;
                (head != alt).then_some((var, head, alt))
            })
            .expect("an unsorted run after dedup holds a conflict");
        Err(ConfidenceError::InvalidDistribution(format!(
            "assignment maps variable {var} to both {existing} and {alt}"
        )))
    }

    /// Number of constrained variables.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no variable is constrained.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over `(variable, alternative)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, AltId)> + '_ {
        self.pairs.iter().copied()
    }

    /// The alternative assigned to `var`, if any.
    pub fn get(&self, var: VarId) -> Option<AltId> {
        self.pairs
            .binary_search_by_key(&var, |&(v, _)| v)
            .ok()
            .map(|i| self.pairs[i].1)
    }

    /// The weight `p_f = Π Pr[X = f(X)]` (Equation 2 of the paper).
    pub fn weight(&self, space: &ProbabilitySpace) -> Result<f64> {
        let mut p = 1.0;
        for &(var, alt) in &self.pairs {
            p *= space.probability(var, alt)?;
        }
        Ok(p)
    }

    /// True if the two partial assignments agree on shared variables.
    pub fn consistent_with(&self, other: &Assignment) -> bool {
        // Merge-join over the sorted pair lists.
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.pairs.len() && j < other.pairs.len() {
            let (va, aa) = self.pairs[i];
            let (vb, ab) = other.pairs[j];
            match va.cmp(&vb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if aa != ab {
                        return false;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// The union of two consistent assignments, or `None` if they conflict.
    pub fn merge(&self, other: &Assignment) -> Option<Assignment> {
        let (a, b) = (&self.pairs, &other.pairs);
        let mut pairs = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    pairs.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    pairs.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        return None;
                    }
                    pairs.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        pairs.extend_from_slice(&a[i..]);
        pairs.extend_from_slice(&b[j..]);
        Some(Assignment { pairs })
    }

    /// True if the total assignment `total` extends this partial assignment
    /// (`total ∈ ω(f)` in the paper's notation, with `total` restricted to
    /// the mentioned variables).
    pub fn satisfied_by(&self, total: &Assignment) -> bool {
        self.pairs
            .iter()
            .all(|&(var, alt)| total.get(var) == Some(alt))
    }

    /// The variables this assignment constrains.
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        self.pairs.iter().map(|&(v, _)| v)
    }

    /// Restricts the assignment to variables other than `var`, returning the
    /// removed alternative if the variable was constrained.
    pub fn without(&self, var: VarId) -> (Option<AltId>, Assignment) {
        let mut pairs = self.pairs.clone();
        match pairs.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(i) => {
                let (_, alt) = pairs.remove(i);
                (Some(alt), Assignment { pairs })
            }
            Err(_) => (None, Assignment { pairs }),
        }
    }
}

/// True if the pairs' variables strictly increase (sorted, no repeats).
fn strictly_sorted(pairs: &[(VarId, AltId)]) -> bool {
    pairs.windows(2).all(|w| w[0].0 < w[1].0)
}

/// A DNF event: a disjunction `F = f₁ ∨ … ∨ f_m` of partial assignments.
///
/// The probability of the event is the confidence of the tuple whose
/// U-relation conditions are the `f_i` (Section 4).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DnfEvent {
    terms: Vec<Assignment>,
}

impl DnfEvent {
    /// The impossible event (no terms).
    pub fn never() -> Self {
        DnfEvent { terms: Vec::new() }
    }

    /// Creates an event from its terms (order is preserved; the Karp–Luby
    /// estimator relies on a fixed order).
    pub fn new(terms: impl IntoIterator<Item = Assignment>) -> Self {
        DnfEvent {
            terms: terms.into_iter().collect(),
        }
    }

    /// Adds a term.
    pub fn push(&mut self, term: Assignment) {
        self.terms.push(term);
    }

    /// The terms in order.
    pub fn terms(&self) -> &[Assignment] {
        &self.terms
    }

    /// Number of terms `|F|`.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// True if the event has no terms (probability 0).
    pub fn is_never(&self) -> bool {
        self.terms.is_empty()
    }

    /// True if some term is the empty assignment (probability 1).
    pub fn is_certain(&self) -> bool {
        self.terms.iter().any(Assignment::is_empty)
    }

    /// `M = Σ_f p_f`, the total weight of the terms counted separately.
    pub fn total_term_weight(&self, space: &ProbabilitySpace) -> Result<f64> {
        let mut m = 0.0;
        for t in &self.terms {
            m += t.weight(space)?;
        }
        Ok(m)
    }

    /// The distinct variables mentioned by any term, in increasing order.
    pub fn variables(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self
            .terms
            .iter()
            .flat_map(|t| t.variables().collect::<Vec<_>>())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Removes duplicate and subsumed terms (a term subsumed by a more
    /// general one never changes the event's probability but does slow the
    /// estimator down).
    pub fn simplified(&self) -> DnfEvent {
        let mut kept: Vec<Assignment> = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            // Skip `t` if an already-kept term is a subset of it.
            if kept
                .iter()
                .any(|k| k.iter().all(|(v, a)| t.get(v) == Some(a)))
            {
                continue;
            }
            // Drop previously kept terms that `t` subsumes.
            kept.retain(|k| !t.iter().all(|(v, a)| k.get(v) == Some(a)));
            kept.push(t.clone());
        }
        DnfEvent { terms: kept }
    }

    /// True if the total assignment satisfies the event.
    pub fn satisfied_by(&self, total: &Assignment) -> bool {
        self.terms.iter().any(|t| t.satisfied_by(total))
    }

    /// Splits the event into independent components: two terms are in the
    /// same component iff they (transitively) share a variable.  The event is
    /// the disjunction of its components, and distinct components mention
    /// disjoint variables, so
    /// `Pr[F] = 1 − Π_i (1 − Pr[component_i])`.
    pub fn independent_components(&self) -> Vec<DnfEvent> {
        let n = self.terms.len();
        if n == 0 {
            return Vec::new();
        }
        // Union-find over term indices.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut by_var: BTreeMap<VarId, usize> = BTreeMap::new();
        for (i, term) in self.terms.iter().enumerate() {
            for v in term.variables() {
                match by_var.get(&v) {
                    Some(&j) => {
                        let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                        parent[a] = b;
                    }
                    None => {
                        by_var.insert(v, i);
                    }
                }
            }
        }
        let mut groups: BTreeMap<usize, Vec<Assignment>> = BTreeMap::new();
        for (i, term) in self.terms.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(term.clone());
        }
        groups.into_values().map(DnfEvent::new).collect()
    }
}

impl FromIterator<Assignment> for DnfEvent {
    fn from_iter<T: IntoIterator<Item = Assignment>>(iter: T) -> Self {
        DnfEvent::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ProbabilitySpace {
        let mut s = ProbabilitySpace::new();
        s.add_variable(vec![2.0 / 3.0, 1.0 / 3.0]).unwrap(); // var 0
        s.add_variable(vec![0.5, 0.5]).unwrap(); // var 1
        s.add_variable(vec![0.25, 0.25, 0.5]).unwrap(); // var 2
        s
    }

    #[test]
    fn probability_space_validation() {
        let mut s = ProbabilitySpace::new();
        assert!(s.add_variable(vec![]).is_err());
        assert!(s.add_variable(vec![0.5, 0.4]).is_err());
        assert!(s.add_variable(vec![0.0, 1.0]).is_err());
        assert!(s.add_variable(vec![f64::NAN, 1.0]).is_err());
        assert!(s.add_bool_variable(1.0).is_err());
        let v = s.add_bool_variable(0.25).unwrap();
        assert_eq!(s.num_alternatives(v).unwrap(), 2);
        assert!((s.probability(v, 1).unwrap() - 0.75).abs() < 1e-12);
        assert!(s.probability(v, 2).is_err());
        assert!(s.probability(99, 0).is_err());
        assert!(s.num_alternatives(99).is_err());
    }

    #[test]
    fn assignment_weight_and_consistency() {
        let s = space();
        let a = Assignment::new([(0, 0), (1, 1)]).unwrap();
        assert!((a.weight(&s).unwrap() - (2.0 / 3.0) * 0.5).abs() < 1e-12);
        assert!((Assignment::always().weight(&s).unwrap() - 1.0).abs() < 1e-12);
        let b = Assignment::new([(1, 1), (2, 0)]).unwrap();
        let c = Assignment::new([(1, 0)]).unwrap();
        assert!(a.consistent_with(&b));
        assert!(!a.consistent_with(&c));
        assert_eq!(a.merge(&b).unwrap().len(), 3);
        assert!(a.merge(&c).is_none());
        assert!(Assignment::new([(0, 0), (0, 1)]).is_err());
        assert!(Assignment::new([(0, 0), (0, 0)]).is_ok());
    }

    #[test]
    fn assignment_without_removes_a_variable() {
        let a = Assignment::new([(0, 1), (2, 0)]).unwrap();
        let (alt, rest) = a.without(0);
        assert_eq!(alt, Some(1));
        assert_eq!(rest.len(), 1);
        let (alt, rest) = a.without(7);
        assert_eq!(alt, None);
        assert_eq!(rest, a);
    }

    #[test]
    fn dnf_weights_and_variables() {
        let s = space();
        let f = DnfEvent::new([
            Assignment::new([(0, 0)]).unwrap(),
            Assignment::new([(1, 0), (2, 1)]).unwrap(),
        ]);
        assert_eq!(f.num_terms(), 2);
        assert_eq!(f.variables(), vec![0, 1, 2]);
        let m = f.total_term_weight(&s).unwrap();
        assert!((m - (2.0 / 3.0 + 0.5 * 0.25)).abs() < 1e-12);
        assert!(!f.is_never());
        assert!(!f.is_certain());
        assert!(DnfEvent::never().is_never());
        assert!(DnfEvent::new([Assignment::always()]).is_certain());
    }

    #[test]
    fn satisfied_by_total_assignment() {
        let f = DnfEvent::new([
            Assignment::new([(0, 0)]).unwrap(),
            Assignment::new([(1, 1)]).unwrap(),
        ]);
        let world = Assignment::new([(0, 1), (1, 1), (2, 2)]).unwrap();
        assert!(f.satisfied_by(&world));
        let world = Assignment::new([(0, 1), (1, 0), (2, 2)]).unwrap();
        assert!(!f.satisfied_by(&world));
    }

    #[test]
    fn simplification_removes_duplicates_and_subsumed_terms() {
        let general = Assignment::new([(0, 0)]).unwrap();
        let specific = Assignment::new([(0, 0), (1, 1)]).unwrap();
        let f = DnfEvent::new([
            specific.clone(),
            general.clone(),
            specific.clone(),
            general.clone(),
        ]);
        let s = f.simplified();
        assert_eq!(s.num_terms(), 1);
        assert_eq!(s.terms()[0], general);
    }

    #[test]
    fn independent_components_split_by_shared_variables() {
        let f = DnfEvent::new([
            Assignment::new([(0, 0)]).unwrap(),
            Assignment::new([(0, 1), (1, 0)]).unwrap(),
            Assignment::new([(2, 0)]).unwrap(),
        ]);
        let comps = f.independent_components();
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = comps.iter().map(DnfEvent::num_terms).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
        assert!(DnfEvent::never().independent_components().is_empty());
    }
}
