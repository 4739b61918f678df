//! Decision-DNNF: the exact kernel's computation, recorded.
//!
//! Exact confidence computation is #P-complete (Theorem 3.4), but events of
//! moderate *width* — few interacting variables per independent component —
//! take few Shannon expansion steps.  [`Dnnf::compile`] runs the exact
//! kernel of [`crate::exact`] once, under a budget on its expansion steps,
//! and writes down what it computes as a **deterministic, decomposable
//! negation normal form** (decision-DNNF):
//!
//! * a **decision** node per branch on a variable `X`: one child per
//!   alternative, weighted by `Pr[X = a]` (deterministic OR — `X` takes
//!   exactly one value);
//! * a **complement-of-product** node per split into independent
//!   components: `1 − Π (1 − child)`, where the children mention disjoint
//!   variables (decomposable AND under negation, sound because every node's
//!   count is the probability of its sub-event — unmentioned variables
//!   marginalise away, the weighted form of smoothing);
//! * a **leaf** per single term, counted by the kernel's right fold over its
//!   literals, and a constant leaf for the impossible and the certain
//!   event;
//! * a sub-event the kernel finds in its memo is the node it recorded the
//!   first time: shared, not recomputed.
//!
//! [`Dnnf::wmc`] replays the kernel's operations in recorded order, so its
//! count is [`exact::probability`] bit for bit.  The budget counts the
//! internal (decision and complement-of-product) nodes: the instant the
//! kernel would take one step more, compilation fails with
//! [`ConfidenceError::TooLarge`] — the abort costs at most the budget,
//! never an exponential blow-up.  The engine's exact backend runs the same
//! kernel under the same budget without recording
//! ([`crate::LineagePrograms::dnnf_probability`]); the [`crate::cost`] model
//! decides per event whether the attempt is worth making.
//!
//! [`ConfidenceError::TooLarge`]: crate::ConfidenceError::TooLarge

use crate::error::Result;
use crate::event::{DnfEvent, ProbabilitySpace, VarId};
use crate::exact::{self, Shannon};
use std::collections::BTreeMap;

/// One node of the recorded circuit.  Children always precede parents in
/// the arena, so a single forward pass evaluates the circuit.
#[derive(Clone, Debug, PartialEq)]
enum Node {
    /// The certain event.
    True,
    /// The impossible event.
    False,
    /// One term: the product of its literals' probabilities.
    Term {
        /// Range into the flat literal buffer.
        lit_start: u32,
        /// Number of literals.
        lit_len: u32,
    },
    /// Shannon decision on `var`: child `a` is the cofactor under
    /// `X_var = a`, weighted by `Pr[X_var = a]` during counting
    /// (deterministic OR — the branches are mutually exclusive).
    Decision {
        /// The decision variable.
        var: VarId,
        /// Range into the flat child buffer, one child per alternative.
        child_start: u32,
        /// Number of alternatives.
        child_len: u32,
    },
    /// `1 − Π (1 − child)` over variable-disjoint children: the union of
    /// independent components.
    Components {
        /// Range into the flat child buffer.
        child_start: u32,
        /// Number of children.
        child_len: u32,
    },
}

/// A compiled event: the decision-DNNF of its exact computation, produced
/// by [`Dnnf::compile`].
#[derive(Clone, Debug)]
pub struct Dnnf {
    nodes: Vec<Node>,
    children: Vec<u32>,
    lits: Vec<(u32, u32)>,
    root: u32,
}

/// The circuit under construction while the exact kernel runs: the kernel
/// hands it every answer as it computes it ([`exact`]'s `Shannon::trace`).
#[derive(Default)]
pub(crate) struct Recorder {
    nodes: Vec<Node>,
    children: Vec<u32>,
    lits: Vec<(u32, u32)>,
    /// The nodes of the answered sub-events their parent has not taken yet,
    /// innermost last.
    results: Vec<u32>,
    /// Per interned term id, its leaf once recorded.
    term_leaves: Vec<Option<u32>>,
    /// The impossible and the certain leaf, once recorded.
    constants: [Option<u32>; 2],
    /// Per sub-event in the kernel's memo (its sorted term ids), its node.
    memo: BTreeMap<Box<[u32]>, u32>,
}

impl Recorder {
    fn add(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    /// The answer `0` (`certain` false) or `1`.
    pub(crate) fn constant(&mut self, certain: bool) {
        let leaf = match self.constants[usize::from(certain)] {
            Some(leaf) => leaf,
            None => {
                let leaf = self.add(if certain { Node::True } else { Node::False });
                self.constants[usize::from(certain)] = Some(leaf);
                leaf
            }
        };
        self.results.push(leaf);
    }

    /// The answer for the single term `term` (an interned id) of literals
    /// `lits`.
    pub(crate) fn term(&mut self, term: u32, lits: &[(u32, u32)]) {
        let at = term as usize;
        if at >= self.term_leaves.len() {
            self.term_leaves.resize(at + 1, None);
        }
        let leaf = match self.term_leaves[at] {
            Some(leaf) => leaf,
            None => {
                let lit_start = self.lits.len() as u32;
                self.lits.extend_from_slice(lits);
                let leaf = self.add(Node::Term {
                    lit_start,
                    lit_len: lits.len() as u32,
                });
                self.term_leaves[at] = Some(leaf);
                leaf
            }
        };
        self.results.push(leaf);
    }

    /// The latest answer is the sub-event `key`'s, which the kernel
    /// memoises.
    pub(crate) fn remember(&mut self, key: &[u32]) {
        self.memo.insert(key.into(), self.last());
    }

    /// A memo hit on the sub-event `key`: the answer is its node again.
    pub(crate) fn shared(&mut self, key: &[u32]) {
        self.results.push(self.memo[key]);
    }

    /// Where the next expansion step's children will start.
    pub(crate) fn mark(&self) -> usize {
        self.results.len()
    }

    /// The node of the latest answer.
    fn last(&self) -> u32 {
        self.results.last().copied().unwrap_or_default()
    }

    /// A branch on `var`: the answers since `mark`, one per alternative.
    pub(crate) fn decision(&mut self, var: VarId, mark: usize) {
        self.close(mark, |child_start, child_len| Node::Decision {
            var,
            child_start,
            child_len,
        });
    }

    /// A split into the independent components answered since `mark`.
    pub(crate) fn components(&mut self, mark: usize) {
        self.close(mark, |child_start, child_len| Node::Components {
            child_start,
            child_len,
        });
    }

    /// Answers with the node `make` builds over the answers since `mark`.
    fn close(&mut self, mark: usize, make: impl FnOnce(u32, u32) -> Node) {
        let start = self.children.len() as u32;
        self.children.extend(self.results.drain(mark..));
        let node = self.add(make(start, self.children.len() as u32 - start));
        self.results.push(node);
    }

    /// The circuit whose root is the latest answer.
    fn finish(self) -> Dnnf {
        Dnnf {
            root: self.last(),
            nodes: self.nodes,
            children: self.children,
            lits: self.lits,
        }
    }
}

impl Dnnf {
    /// Compiles an event into a decision-DNNF of at most `max_nodes`
    /// internal nodes — the exact kernel's expansion steps.
    ///
    /// Fails with [`ConfidenceError::TooLarge`] the moment the kernel would
    /// take a step past the budget (abort-and-fallback: the caller samples
    /// instead), and with the space's own errors when the event mentions
    /// undeclared variables where the expansion reaches them.
    ///
    /// [`ConfidenceError::TooLarge`]: crate::ConfidenceError::TooLarge
    pub fn compile(event: &DnfEvent, space: &ProbabilitySpace, max_nodes: u32) -> Result<Dnnf> {
        Ok(Shannon::new(space)
            .with_budget(max_nodes)
            .trace(event)?
            .finish())
    }

    /// Number of circuit nodes: leaves, once per distinct term, and one
    /// internal node per expansion step.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Weighted model counting: one forward pass over the arena (children
    /// precede parents) that repeats the exact kernel's arithmetic node by
    /// node, so the count equals [`exact::probability`] bit for bit.
    /// Linear in the circuit size.
    pub fn wmc(&self, space: &ProbabilitySpace) -> Result<f64> {
        let mut value = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                Node::True => 1.0,
                Node::False => 0.0,
                Node::Term { lit_start, lit_len } => exact::term_probability(
                    space,
                    &self.lits[lit_start as usize..][..lit_len as usize],
                )?,
                Node::Decision {
                    var,
                    child_start,
                    child_len,
                } => {
                    let mut acc = 0.0;
                    let children = &self.children[child_start as usize..][..child_len as usize];
                    for (alt, &child) in children.iter().enumerate() {
                        acc += space.probability(var, alt)? * value[child as usize];
                    }
                    acc
                }
                Node::Components {
                    child_start,
                    child_len,
                } => {
                    let mut q = 1.0;
                    for &child in &self.children[child_start as usize..][..child_len as usize] {
                        q *= 1.0 - value[child as usize];
                    }
                    1.0 - q
                }
            };
            value.push(v);
        }
        Ok(value[self.root as usize])
    }
}

/// Compiles and counts in one call: the exact probability of the event via
/// the recorded circuit, or [`ConfidenceError::TooLarge`] past `max_nodes`
/// expansion steps.
///
/// [`ConfidenceError::TooLarge`]: crate::ConfidenceError::TooLarge
pub fn probability(event: &DnfEvent, space: &ProbabilitySpace, max_nodes: u32) -> Result<f64> {
    Dnnf::compile(event, space, max_nodes)?.wmc(space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfidenceError;
    use crate::event::Assignment;

    fn a(pairs: &[(usize, usize)]) -> Assignment {
        Assignment::new(pairs.iter().copied()).unwrap()
    }

    fn space() -> ProbabilitySpace {
        let mut s = ProbabilitySpace::new();
        s.add_variable(vec![2.0 / 3.0, 1.0 / 3.0]).unwrap(); // 0
        s.add_bool_variable(0.5).unwrap(); // 1
        s.add_bool_variable(0.5).unwrap(); // 2
        s.add_variable(vec![0.25, 0.25, 0.5]).unwrap(); // 3
        s
    }

    #[test]
    fn trivial_events_compile_to_leaves() {
        let s = space();
        let never = Dnnf::compile(&DnfEvent::never(), &s, 16).unwrap();
        assert_eq!(never.wmc(&s).unwrap(), 0.0);
        assert_eq!(never.node_count(), 1);
        let certain = Dnnf::compile(&DnfEvent::new([Assignment::always()]), &s, 16).unwrap();
        assert_eq!(certain.wmc(&s).unwrap(), 1.0);
    }

    #[test]
    fn coin_event_counts_exactly() {
        // Example 2.2: fair coin with two heads, or the double-headed coin.
        let s = space();
        let event = DnfEvent::new([a(&[(0, 0), (1, 0), (2, 0)]), a(&[(0, 1)])]);
        let p = probability(&event, &s, 64).unwrap();
        assert!((p - 0.5).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn multivalued_and_overlap_match_shannon() {
        let s = space();
        let events = [
            DnfEvent::new([a(&[(1, 0)]), a(&[(2, 0)])]),
            DnfEvent::new([a(&[(3, 1)]), a(&[(3, 2), (1, 0)])]),
            DnfEvent::new([a(&[(0, 0)]), a(&[(0, 1)])]),
            DnfEvent::new([a(&[(0, 0), (3, 0)]), a(&[(1, 1), (2, 0)]), a(&[(3, 2)])]),
        ];
        for event in events {
            let expected = exact::probability(&event, &s).unwrap();
            let got = probability(&event, &s, 1 << 12).unwrap();
            assert!(
                (got - expected).abs() < 1e-12,
                "wmc {got} vs shannon {expected} for {event:?}"
            );
        }
    }

    #[test]
    fn independent_components_stay_linear() {
        // n independent pair-components: the circuit grows linearly, far
        // under an exponential worst case.
        let mut s = ProbabilitySpace::new();
        let mut terms = Vec::new();
        let n = 50;
        for _ in 0..n {
            let x = s.add_bool_variable(0.5).unwrap();
            let y = s.add_bool_variable(0.5).unwrap();
            terms.push(Assignment::new([(x, 0), (y, 0)]).unwrap());
        }
        let f = DnfEvent::new(terms);
        let circuit = Dnnf::compile(&f, &s, 4096).unwrap();
        assert!(circuit.node_count() < 20 * n);
        let expected = 1.0 - (1.0 - 0.25f64).powi(n as i32);
        assert!((circuit.wmc(&s).unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn the_node_budget_aborts_compilation() {
        let mut s = ProbabilitySpace::new();
        let mut terms = Vec::new();
        // A chain x_i ∧ x_{i+1} keeps everything one component.
        let vars: Vec<usize> = (0..24).map(|_| s.add_bool_variable(0.5).unwrap()).collect();
        for w in vars.windows(2) {
            terms.push(Assignment::new([(w[0], 0), (w[1], 0)]).unwrap());
        }
        let f = DnfEvent::new(terms);
        let err = Dnnf::compile(&f, &s, 4).unwrap_err();
        assert!(matches!(err, ConfidenceError::TooLarge { .. }));
        // A generous budget compiles the same event fine.
        let p = probability(&f, &s, 1 << 14).unwrap();
        let expected = exact::probability(&f, &s).unwrap();
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn hash_consing_shares_identical_cofactors() {
        let mut s = ProbabilitySpace::new();
        let x = s.add_bool_variable(0.5).unwrap();
        let y = s.add_bool_variable(0.5).unwrap();
        let z = s.add_bool_variable(0.5).unwrap();
        // Both x-branches leave the same cofactor over {y, z}.
        let f = DnfEvent::new([a(&[(x, 0), (y, 0)]), a(&[(x, 1), (y, 0)]), a(&[(z, 0)])]);
        let circuit = Dnnf::compile(&f, &s, 256).unwrap();
        let expected = exact::probability(&f, &s).unwrap();
        assert!((circuit.wmc(&s).unwrap() - expected).abs() < 1e-12);
        // y=0 appears under both x branches; sharing its leaf keeps the
        // arena strictly smaller than the un-shared expansion would be.
        assert!(circuit.node_count() <= 12, "{}", circuit.node_count());
    }

    /// Both branches on `x` reach the sub-event `{y, z}`: the kernel's memo
    /// answers the second, and the circuit shares the first one's node.
    #[test]
    fn memo_hits_are_shared_nodes() {
        let mut s = ProbabilitySpace::new();
        let x = s.add_bool_variable(0.3).unwrap();
        let y = s.add_bool_variable(0.6).unwrap();
        let z = s.add_bool_variable(0.2).unwrap();
        let f = DnfEvent::new([
            a(&[(x, 0), (y, 0)]),
            a(&[(x, 1), (y, 0)]),
            a(&[(x, 0), (z, 0)]),
            a(&[(x, 1), (z, 0)]),
        ]);
        let circuit = Dnnf::compile(&f, &s, 256).unwrap();
        assert_eq!(
            circuit.wmc(&s).unwrap().to_bits(),
            exact::probability(&f, &s).unwrap().to_bits()
        );
        // Leaves y and z, one split of {y, z}, the decision on x.
        assert_eq!(circuit.node_count(), 4);
        // Two expansion steps: the second branch is a memo hit.
        assert!(Dnnf::compile(&f, &s, 2).is_ok());
        assert!(Dnnf::compile(&f, &s, 1).is_err());
    }

    #[test]
    fn unknown_variables_are_rejected() {
        let s = space();
        let f = DnfEvent::new([a(&[(17, 0)])]);
        assert!(Dnnf::compile(&f, &s, 64).is_err());
    }
}
