//! Bit-identity of the exact kernel: [`exact::by_shannon_expansion`] and
//! [`LineagePrograms::exact_probabilities`] against the Shannon recursion
//! over boxed [`DnfEvent`]s that the kernel over interned terms replaced,
//! kept here as the reference.  Answers are compared with `to_bits()`: a
//! kernel that reorders one addition or misses one memo hit fails, not
//! just one that computes a different probability.  The exact backend of
//! the estimators — the same kernel under a node budget — and the
//! decision-DNNF it records are held to the kernel's bits the same way.

use confidence::{
    cost, dnnf, exact, Assignment, ConfidenceError, DnfEvent, Dnnf, LineagePrograms,
    ProbabilitySpace, VarId,
};
use proptest::prelude::*;

mod reference {
    use confidence::{Assignment, DnfEvent, ProbabilitySpace, Result, VarId};
    use std::collections::HashMap;

    /// Shannon expansion with memoisation and independent component
    /// factorisation, over boxed events.
    pub fn by_shannon_expansion(event: &DnfEvent, space: &ProbabilitySpace) -> Result<f64> {
        let mut memo: HashMap<Vec<Assignment>, f64> = HashMap::new();
        shannon(&event.simplified(), space, &mut memo)
    }

    fn shannon(
        event: &DnfEvent,
        space: &ProbabilitySpace,
        memo: &mut HashMap<Vec<Assignment>, f64>,
    ) -> Result<f64> {
        if event.is_never() {
            return Ok(0.0);
        }
        if event.is_certain() {
            return Ok(1.0);
        }
        let key: Vec<Assignment> = {
            let mut terms = event.terms().to_vec();
            terms.sort();
            terms
        };
        if let Some(&p) = memo.get(&key) {
            return Ok(p);
        }
        let components = event.independent_components();
        let p = if components.len() > 1 {
            let mut q = 1.0;
            for c in components {
                q *= 1.0 - shannon(&c, space, memo)?;
            }
            1.0 - q
        } else {
            let var = most_frequent_variable(event).expect("non-empty, non-certain event");
            let mut acc = 0.0;
            for alt in 0..space.num_alternatives(var)? {
                let p_alt = space.probability(var, alt)?;
                let mut restricted = Vec::new();
                for term in event.terms() {
                    let (assigned, rest) = term.without(var);
                    match assigned {
                        Some(a) if a != alt => continue,
                        _ => restricted.push(rest),
                    }
                }
                let sub = DnfEvent::new(restricted).simplified();
                acc += p_alt * shannon(&sub, space, memo)?;
            }
            acc
        };
        memo.insert(key, p);
        Ok(p)
    }

    fn most_frequent_variable(event: &DnfEvent) -> Option<VarId> {
        let mut counts: HashMap<VarId, usize> = HashMap::new();
        for term in event.terms() {
            for v in term.variables() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
            .map(|(v, _)| v)
    }
}

/// Number of variables of a generated space.
const VARS: usize = 6;

/// A space of [`VARS`] variables with 2–4 alternatives each; the weights
/// are small integers over their sum, so probabilities like 1/3 and 2/7 make
/// every rounding step visible.
fn space_of(shape: &[(usize, [u32; 4])]) -> ProbabilitySpace {
    let mut space = ProbabilitySpace::new();
    for &(alts, weights) in shape {
        let total: u32 = weights[..alts].iter().sum();
        space
            .add_variable(
                weights[..alts]
                    .iter()
                    .map(|&w| f64::from(w) / f64::from(total))
                    .collect(),
            )
            .unwrap();
    }
    space
}

fn arb_space() -> impl Strategy<Value = Vec<(usize, [u32; 4])>> {
    proptest::collection::vec(
        (2usize..5, (1u32..10, 1u32..10, 1u32..10, 1u32..10)),
        VARS..VARS + 1,
    )
    .prop_map(|vars| {
        vars.into_iter()
            .map(|(alts, (a, b, c, d))| (alts, [a, b, c, d]))
            .collect()
    })
}

/// A term as up to four `(variable, alternative)` pairs; a repeated
/// variable keeps its first pair, and alternatives wrap into range.
fn term_of(space: &ProbabilitySpace, pairs: &[(usize, usize)]) -> Assignment {
    let mut kept: Vec<(VarId, usize)> = Vec::new();
    for &(var, alt) in pairs {
        if kept.iter().all(|&(v, _)| v != var) {
            kept.push((var, alt % space.num_alternatives(var).unwrap()));
        }
    }
    Assignment::new(kept).unwrap()
}

/// How a generated term relates to the terms before it.
type TermPlan = (usize, Vec<(usize, usize)>, usize);

fn arb_terms(max: usize) -> impl Strategy<Value = Vec<TermPlan>> {
    proptest::collection::vec(
        (
            0usize..16,
            proptest::collection::vec((0usize..VARS, 0usize..4), 1..5),
            0usize..64,
        ),
        0..max + 1,
    )
}

/// Builds an event from plans: mostly fresh terms, with copies of earlier
/// terms (duplicates), earlier terms plus a literal (subsumed), and the
/// always-true term mixed in.
fn event_of(space: &ProbabilitySpace, pool: &mut Vec<Assignment>, plans: &[TermPlan]) -> DnfEvent {
    let mut event = DnfEvent::never();
    for (kind, pairs, pick) in plans {
        let term = match kind {
            0 => Assignment::always(),
            1 | 2 if !pool.is_empty() => pool[pick % pool.len()].clone(),
            3 | 4 if !pool.is_empty() => {
                let base = &pool[pick % pool.len()];
                let mut extended: Vec<(usize, usize)> = base.iter().collect();
                extended.extend_from_slice(pairs);
                term_of(space, &extended)
            }
            _ => term_of(space, pairs),
        };
        pool.push(term.clone());
        event.push(term);
    }
    event
}

fn assert_bits(actual: f64, expected: f64, event: &DnfEvent) -> Result<(), TestCaseError> {
    prop_assert!(
        actual.to_bits() == expected.to_bits(),
        "kernel {actual:e} ({:#x}) vs reference {expected:e} ({:#x}) on {event:?}",
        actual.to_bits(),
        expected.to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, .. ProptestConfig::default() })]

    #[test]
    fn single_events_are_bit_identical(shape in arb_space(), plans in arb_terms(12)) {
        let space = space_of(&shape);
        let event = event_of(&space, &mut Vec::new(), &plans);
        let expected = reference::by_shannon_expansion(&event, &space).unwrap();
        assert_bits(exact::by_shannon_expansion(&event, &space).unwrap(), expected, &event)?;
        assert_bits(exact::probability(&event, &space).unwrap(), expected, &event)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// Events of one batch share terms, so the batch's one term arena holds
    /// terms (and restrictions) interned by earlier events.
    #[test]
    fn batches_are_bit_identical(
        shape in arb_space(),
        batch in proptest::collection::vec(arb_terms(8), 1..6),
    ) {
        let space = space_of(&shape);
        let mut pool = Vec::new();
        let events: Vec<DnfEvent> =
            batch.iter().map(|plans| event_of(&space, &mut pool, plans)).collect();
        let programs = LineagePrograms::compile(events.clone(), &space).unwrap();
        let probabilities = programs.exact_probabilities().unwrap();
        prop_assert!(!programs.arena_built());
        for (event, &p) in events.iter().zip(probabilities) {
            let expected = reference::by_shannon_expansion(event, &space).unwrap();
            assert_bits(p, expected, event)?;
        }
    }
}

/// A `cold_adhoc`-shaped lineage: one head literal shared by every term,
/// over `k` tails on disjoint variables (a projection of a join path).
fn head_over_tails(space: &mut ProbabilitySpace, k: usize, tail_len: usize) -> DnfEvent {
    let head = space.add_variable(vec![0.3, 0.7]).unwrap();
    (0..k)
        .map(|j| {
            let mut pairs = vec![(head, 0)];
            for l in 0..tail_len {
                let p = 1.0 / (3.0 + (j + l) as f64);
                let v = space.add_variable(vec![p, 1.0 - p]).unwrap();
                pairs.push((v, (j + l) % 2));
            }
            Assignment::new(pairs).unwrap()
        })
        .collect()
}

#[test]
fn shared_head_over_disjoint_tails_is_bit_identical() {
    for k in 1..=16 {
        for tail_len in 1..=3 {
            let mut space = ProbabilitySpace::new();
            let event = head_over_tails(&mut space, k, tail_len);
            let expected = reference::by_shannon_expansion(&event, &space).unwrap();
            let actual = exact::by_shannon_expansion(&event, &space).unwrap();
            assert_eq!(
                actual.to_bits(),
                expected.to_bits(),
                "k = {k}, tail {tail_len}"
            );
        }
    }
    // A batch of such events over one space, as a `conf` over a projection
    // compiles them.
    let mut space = ProbabilitySpace::new();
    let events: Vec<DnfEvent> = (1..=12)
        .map(|k| head_over_tails(&mut space, k, 1 + k % 3))
        .collect();
    let programs = LineagePrograms::compile(events.clone(), &space).unwrap();
    for (event, &p) in events.iter().zip(programs.exact_probabilities().unwrap()) {
        let expected = reference::by_shannon_expansion(event, &space).unwrap();
        assert_eq!(p.to_bits(), expected.to_bits());
    }
}

#[test]
fn unknown_variables_and_alternatives_answer_as_before() {
    let mut space = ProbabilitySpace::new();
    let x = space.add_variable(vec![0.25, 0.75]).unwrap();
    let y = space.add_bool_variable(0.4).unwrap();
    let a = |pairs: &[(usize, usize)]| Assignment::new(pairs.iter().copied()).unwrap();
    let events = [
        // An unknown variable fails where the expansion reaches it ...
        DnfEvent::new([a(&[(x, 0), (7, 0)]), a(&[(y, 1)])]),
        DnfEvent::new([a(&[(7, 1)])]),
        // ... and not when the event is certain first.
        DnfEvent::new([a(&[(7, 0)]), Assignment::always()]),
        // An alternative out of range is never satisfied.
        DnfEvent::new([a(&[(x, 5)])]),
        DnfEvent::new([a(&[(x, 0), (y, 9)]), a(&[(x, 1)])]),
        DnfEvent::new([a(&[(x, 5), (7, 0)])]),
    ];
    for event in &events {
        let expected = reference::by_shannon_expansion(event, &space);
        let actual = exact::by_shannon_expansion(event, &space);
        match (&actual, &expected) {
            (Ok(p), Ok(q)) => assert_eq!(p.to_bits(), q.to_bits(), "{event:?}"),
            _ => assert_eq!(actual, expected, "{event:?}"),
        }
    }
}

/// Branching on `X` reaches the sub-event `{A, B, C}` twice, in the orders
/// `A, B, C` and `B, C, A`.  Its three components multiply in term order,
/// and the two orders round differently, so only a memo that hits where the
/// reference's hits gives the reference's bits.
#[test]
fn the_memo_hits_where_the_reference_hits() {
    let mut space = ProbabilitySpace::new();
    let x = space.add_bool_variable(0.5).unwrap();
    let (pa, pb, pc) = (1.0 / 3.0, 0.1, 1.0 / 9.0);
    let a = space.add_bool_variable(pa).unwrap();
    let b = space.add_bool_variable(pb).unwrap();
    let c = space.add_bool_variable(pc).unwrap();
    let term = |branch: usize, var: usize| Assignment::new([(x, branch), (var, 0)]).unwrap();
    let event = DnfEvent::new([
        term(0, a),
        term(0, b),
        term(0, c),
        term(1, b),
        term(1, c),
        term(1, a),
    ]);
    let in_order = 1.0 - ((1.0 - pa) * (1.0 - pb)) * (1.0 - pc);
    let rotated = 1.0 - ((1.0 - pb) * (1.0 - pc)) * (1.0 - pa);
    assert_ne!(
        in_order.to_bits(),
        rotated.to_bits(),
        "the orders must round apart"
    );
    let expected = reference::by_shannon_expansion(&event, &space).unwrap();
    assert_eq!(
        expected.to_bits(),
        (0.5 * in_order + 0.5 * in_order).to_bits()
    );
    let actual = exact::by_shannon_expansion(&event, &space).unwrap();
    assert_eq!(actual.to_bits(), expected.to_bits());
    // The memo is per event: a batch whose first event is `{A, B, C}` in
    // the rotated order must not lend that value to the second.
    let rotated_event = DnfEvent::new([b, c, a].map(|v| Assignment::new([(v, 0)]).unwrap()));
    let programs = LineagePrograms::compile(vec![rotated_event, event], &space).unwrap();
    let batch = programs.exact_probabilities().unwrap();
    assert_eq!(batch[0].to_bits(), rotated.to_bits());
    assert_eq!(batch[1].to_bits(), expected.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// The exact backend is the kernel under a node budget: an event it
    /// answers gets the bits `exact_probabilities` gives it.
    #[test]
    fn the_exact_backend_answers_with_the_kernels_bits(
        shape in arb_space(),
        batch in proptest::collection::vec(arb_terms(8), 1..6),
    ) {
        let space = space_of(&shape);
        let mut pool = Vec::new();
        let events: Vec<DnfEvent> =
            batch.iter().map(|plans| event_of(&space, &mut pool, plans)).collect();
        let programs = LineagePrograms::compile(events.clone(), &space).unwrap();
        let exact = programs.exact_probabilities().unwrap();
        for (i, event) in events.iter().enumerate() {
            if let Some(p) = programs.dnnf_probability(i, cost::DEFAULT_NODE_BUDGET) {
                assert_bits(p, exact[i], event)?;
            }
        }
    }

    /// The recorded circuit counts what the kernel computed, bit for bit.
    #[test]
    fn the_recorded_circuit_counts_the_kernels_bits(
        shape in arb_space(),
        plans in arb_terms(12),
    ) {
        let space = space_of(&shape);
        let event = event_of(&space, &mut Vec::new(), &plans);
        let circuit = Dnnf::compile(&event, &space, cost::DEFAULT_NODE_BUDGET).unwrap();
        let expected = exact::probability(&event, &space).unwrap();
        assert_bits(circuit.wmc(&space).unwrap(), expected, &event)?;
        assert_bits(
            dnnf::probability(&event, &space, cost::DEFAULT_NODE_BUDGET).unwrap(),
            expected,
            &event,
        )?;
    }

    /// Both the recording and the backend kernel succeed exactly when the
    /// expansion takes no more steps than the budget, and an abort stays.
    #[test]
    fn the_budget_admits_exactly_the_expansion_count(
        shape in arb_space(),
        plans in arb_terms(12),
    ) {
        let space = space_of(&shape);
        let event = event_of(&space, &mut Vec::new(), &plans);
        let fresh = || LineagePrograms::compile(vec![event.clone()], &space).unwrap();
        let measured = fresh();
        prop_assert!(measured.dnnf_probability(0, u32::MAX).is_some());
        let Some(steps) = measured.dnnf_nodes(0) else {
            // Trivial events take no step and never reach the kernel.
            prop_assert!(measured.trivial(0).is_some());
            return Ok(());
        };
        let circuit = Dnnf::compile(&event, &space, steps).unwrap();
        prop_assert!(circuit.node_count() > steps as usize);
        let at = fresh();
        prop_assert!(at.dnnf_probability(0, steps).is_some());
        prop_assert_eq!(at.dnnf_nodes(0), Some(steps));
        if steps > 0 {
            prop_assert!(matches!(
                Dnnf::compile(&event, &space, steps - 1),
                Err(ConfidenceError::TooLarge { .. })
            ));
            let below = fresh();
            prop_assert_eq!(below.dnnf_probability(0, steps - 1), None);
            prop_assert_eq!(below.dnnf_probability(0, u32::MAX), None, "the abort is sticky");
            prop_assert_eq!(below.dnnf_nodes(0), None);
        }
    }
}
