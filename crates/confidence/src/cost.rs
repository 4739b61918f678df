//! The estimation-layer cost model: compile or sample, decided per event.
//!
//! Every approximate confidence request has two ways to produce an answer
//! for a compiled event:
//!
//! * **sample** it with the Karp–Luby kernel, paying the Chernoff-implied
//!   `m = ⌈3·w·ln(2/δ)/ε²⌉` world draws on *every* request (`w ≤ |F|` the
//!   event's sampling width, [`crate::chernoff::sample_width`]), or
//! * **answer it exactly** once with the Shannon kernel of exact `conf`
//!   ([`crate::LineagePrograms::dnnf_probability`]) and read the memoised
//!   probability forever after.
//!
//! Exact expansion is worst-case exponential, so it runs under a hard node
//! budget — its expansion steps, the internal nodes of the decision-DNNF
//! [`crate::dnnf`] records from the same run — with abort-and-fallback;
//! the question this module answers is whether the attempt is worth
//! making.  The decision compares a cheap structural **size estimate** of
//! the circuit against both the budget and the sample bill.  The estimate
//! sums `terms · variables` over the event's independent components —
//! Shannon expansion touches at most every term per decision level and the
//! components expand separately, so the sum is a serviceable proxy for the
//! step count (expansion steps and kernel samples both cost a handful of
//! instructions each).  The expansion is paid once per content hash while
//! sampling recurs per request, so when the two look comparable the tie
//! deliberately goes to the exact answer.
//!
//! The decision is a pure function of the event's structure and the
//! request's sample budget — never of clocks, caches, or request history —
//! which is what keeps warm and cold evaluations bit-identical.

use crate::event::DnfEvent;

/// Default hard budget on exact expansion steps (decision-DNNF internal
/// nodes) per event.  Generous enough for every moderate-width lineage in
/// the test corpora while bounding the abort cost of a failed attempt to
/// well under a millisecond.
pub const DEFAULT_NODE_BUDGET: u32 = 1 << 13;

/// Which backend should answer an approximate confidence request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Attempt the exact expansion (falling back to sampling if the hard
    /// node budget aborts it).
    Exact,
    /// Draw Chernoff-many samples with the bit-parallel kernel.
    Sample,
}

/// Structural proxy for the compiled circuit size: `Σ terms_c · vars_c`
/// over independent components, plus the factorisation overhead.  Saturates
/// rather than overflows on adversarial inputs.
pub fn estimated_nodes(event: &DnfEvent) -> u64 {
    let components = event.independent_components();
    let mut total = 2u64; // the constant leaves
    for c in &components {
        let terms = c.num_terms() as u64;
        let vars = c.variables().len() as u64;
        total = total.saturating_add(terms.saturating_mul(vars.max(1)));
    }
    // The split into components: two per component plus one.
    total.saturating_add(2 * components.len() as u64 + 1)
}

/// Picks the backend for one event.
///
/// `estimated` is the structural size proxy ([`estimated_nodes`], cached
/// per event by `LineagePrograms`), `samples` the Chernoff-implied draw
/// count for the request's ε/δ at the event's sampling width, and
/// `node_budget` the hard limit on expansion steps (0 disables the exact
/// backend entirely).
pub fn choose_backend(estimated: u64, samples: u64, node_budget: u32) -> Backend {
    if node_budget == 0 || estimated > node_budget as u64 || estimated > samples {
        Backend::Sample
    } else {
        Backend::Exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Assignment;

    fn chain_event(vars: usize) -> DnfEvent {
        let terms: Vec<Assignment> = (0..vars.saturating_sub(1))
            .map(|i| Assignment::new([(i, 0), (i + 1, 0)]).unwrap())
            .collect();
        DnfEvent::new(terms)
    }

    #[test]
    fn a_zero_budget_disables_the_exact_backend() {
        assert_eq!(choose_backend(4, u64::MAX, 0), Backend::Sample);
    }

    #[test]
    fn small_events_with_big_sample_bills_compile() {
        let est = estimated_nodes(&chain_event(8));
        assert_eq!(
            choose_backend(est, 10_000, DEFAULT_NODE_BUDGET),
            Backend::Exact
        );
    }

    #[test]
    fn tiny_sample_bills_prefer_sampling() {
        let est = estimated_nodes(&chain_event(8));
        assert!(est > 8, "estimate should see the chain width: {est}");
        assert_eq!(choose_backend(est, 4, DEFAULT_NODE_BUDGET), Backend::Sample);
    }

    #[test]
    fn estimates_exploit_independent_components() {
        // 100 independent single-literal terms: the component-wise estimate
        // stays linear where terms·vars would be quadratic.
        let terms: Vec<Assignment> = (0..100)
            .map(|i| Assignment::new([(i, 0)]).unwrap())
            .collect();
        let est = estimated_nodes(&DnfEvent::new(terms));
        assert!(est < 400, "component-wise estimate blew up: {est}");
        assert_eq!(
            choose_backend(est, 2_000, DEFAULT_NODE_BUDGET),
            Backend::Exact
        );
    }

    #[test]
    fn over_budget_estimates_fall_back_to_sampling() {
        assert_eq!(
            choose_backend(u64::MAX, u64::MAX, DEFAULT_NODE_BUDGET),
            Backend::Sample
        );
    }
}
