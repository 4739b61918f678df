//! Chernoff-bound bookkeeping for the Karp–Luby estimator (Section 4).
//!
//! One Karp–Luby draw (Definition 4.1) is a Bernoulli variable of mean
//! `μ = p/M`, with `p` the event's probability and `M = Σ_f p_f` its total
//! term weight, so after `m` draws the Chernoff step is
//! `Pr[|p̂ − p| ≥ ε·p] ≤ 2·e^{−m·μ·ε²/3}`.  The event is at least as likely as
//! its likeliest term, `p ≥ max_f p_f`, hence `μ ≥ 1/w` for the **sampling
//! width** `w = ⌈M / max_f p_f⌉` ([`sample_width`]), and
//! `m = ⌈3·w·ln(2/δ)/ε²⌉` draws guarantee `Pr[|p̂ − p| ≥ ε·p] ≤ δ`.
//!
//! The paper weakens one step further, `max_f p_f ≥ M/|F|`, and states
//! Proposition 4.2 with `|F|` in place of `w`; that is the instance of the
//! count above for terms of equal weight, and never smaller (`w ≤ |F|`).
//! Everything downstream keeps the paper's form with `w` as the scale: the
//! per-iteration error `δ′(ε, l) = 2·e^{−l·ε²/3}` of Figure 3 is the bound
//! after `l` outer iterations of `w` draws each.

use crate::error::{ConfidenceError, Result};

/// Checks that a relative error ε is usable by the bound (`0 < ε < 1`).
pub fn check_epsilon(epsilon: f64) -> Result<()> {
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(ConfidenceError::InvalidParameter(format!(
            "epsilon = {epsilon} must be in (0, 1)"
        )));
    }
    Ok(())
}

/// Checks that an error probability δ is usable (`0 < δ < 1`).
pub fn check_delta(delta: f64) -> Result<()> {
    if !(delta > 0.0 && delta < 1.0) {
        return Err(ConfidenceError::InvalidParameter(format!(
            "delta = {delta} must be in (0, 1)"
        )));
    }
    Ok(())
}

/// The sampling width `w = ⌈M / max_f p_f⌉`, clamped to `1 ..= |F|`, of an
/// event with total term weight `M`, largest term weight `max_f p_f` and
/// `|F|` terms: a lower bound `1/w` on the mean of one Karp–Luby draw, and
/// so the scale of every sample count in this module.  `w = |F|` exactly
/// when all terms weigh the same.
///
/// The quotient is shaded by one part in 10⁹ before rounding up, which
/// swallows the rounding error of summing `M` in any term order — the width
/// is a function of the multiset of term weights — at a cost to the bound
/// far below anything a sample count resolves.  An event of weightless
/// terms (`M = 0`, probability 0) keeps the paper's `|F|`, and the width is
/// at least 1 even for the event without terms, which is never sampled.
pub fn sample_width(total_weight: f64, max_weight: f64, num_terms: usize) -> usize {
    let num_terms = num_terms.max(1);
    if max_weight <= 0.0 {
        return num_terms;
    }
    let w = (total_weight / max_weight * (1.0 - 1e-9)).ceil();
    (w as usize).clamp(1, num_terms)
}

/// Rounds a sample or iteration count up to an integer; counts that are not
/// finite or lie past 2⁵³ — beyond what `f64` counts exactly and what any
/// run could draw — are a parameter error, not a saturated cast.
fn checked_count(count: f64, epsilon: f64) -> Result<usize> {
    let count = count.ceil();
    if !count.is_finite() || count > 9_007_199_254_740_992.0 {
        return Err(ConfidenceError::InvalidParameter(format!(
            "epsilon = {epsilon} asks for {count:e} samples, more than 2^53"
        )));
    }
    Ok(count as usize)
}

/// The FPRAS sample count `m = ⌈3·w·ln(2/δ)/ε²⌉` guaranteeing
/// `Pr[|p̂ − p| ≥ ε·p] ≤ δ` for an event of sampling width `width`
/// ([`sample_width`]); Proposition 4.2 is the case `width = |F|`.
pub fn required_samples(epsilon: f64, delta: f64, width: usize) -> Result<usize> {
    check_epsilon(epsilon)?;
    check_delta(delta)?;
    if width == 0 {
        return Err(ConfidenceError::EmptyEvent);
    }
    checked_count(
        3.0 * width as f64 * (2.0 / delta).ln() / (epsilon * epsilon),
        epsilon,
    )
}

/// The error bound `δ_i(ε) = 2·e^{−m·ε²/(3·w)}` after `m` samples of an
/// event of sampling width `width`.
pub fn error_bound(epsilon: f64, samples: usize, width: usize) -> Result<f64> {
    check_epsilon(epsilon)?;
    if width == 0 {
        return Err(ConfidenceError::EmptyEvent);
    }
    Ok(2.0 * (-(samples as f64) * epsilon * epsilon / (3.0 * width as f64)).exp())
}

/// The balanced per-estimator error `δ′(ε, l) = 2·e^{−l·ε²/3}` after `l`
/// outer-loop iterations of the Figure 3 algorithm (each iteration draws
/// `w_i` samples for estimator `i`).
pub fn delta_prime(epsilon: f64, iterations: usize) -> Result<f64> {
    check_epsilon(epsilon)?;
    Ok(2.0 * (-(iterations as f64) * epsilon * epsilon / 3.0).exp())
}

/// The number of outer-loop iterations needed so that `δ′(ε, l) ≤ delta`:
/// `l = ⌈3·ln(2/δ)/ε²⌉`.
pub fn required_iterations(epsilon: f64, delta: f64) -> Result<usize> {
    check_epsilon(epsilon)?;
    check_delta(delta)?;
    checked_count(3.0 * (2.0 / delta).ln() / (epsilon * epsilon), epsilon)
}

/// Combines per-value error bounds into a bound for a predicate over `k`
/// values (Lemma 5.1): the sum `Σ δ_i(ε)` in general, or the slightly better
/// `1 − Π (1 − δ_i(ε))` when the values are independently approximated.
pub fn combine_error_bounds(bounds: &[f64], independent: bool) -> f64 {
    if independent {
        1.0 - bounds
            .iter()
            .map(|d| 1.0 - d.clamp(0.0, 1.0))
            .product::<f64>()
    } else {
        bounds.iter().sum::<f64>().min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_follow_the_largest_term() {
        // Equal weights: the paper's |F|, whatever rounding the sum carried.
        assert_eq!(sample_width(0.1 + 0.1 + 0.1, 0.1, 3), 3);
        assert_eq!(sample_width(7.0 * 0.3, 0.3, 7), 7);
        // One dominant term: M / max = 0.6 / 0.5.
        assert_eq!(sample_width(0.6, 0.5, 11), 2);
        // The same multiset summed in two orders (0.6 vs 0.6000000000000001).
        assert_eq!(sample_width(0.1 + 0.2 + 0.3, 0.3, 3), 2);
        assert_eq!(sample_width(0.3 + 0.2 + 0.1, 0.3, 3), 2);
        // Clamped to 1 ..= |F|; weightless events keep |F|.
        assert_eq!(sample_width(0.9, 0.9, 1), 1);
        assert_eq!(sample_width(5.0, 0.5, 4), 4);
        assert_eq!(sample_width(0.0, 0.0, 6), 6);
        assert_eq!(sample_width(0.0, 0.0, 0), 1);
    }

    #[test]
    fn counts_past_2_pow_53_are_parameter_errors() {
        // ε = 1e-10 would saturate the cast to `usize::MAX` draws.
        for result in [
            required_samples(1e-10, 0.05, 10),
            required_iterations(1e-10, 0.05),
            required_samples(1e-200, 0.05, 1),
        ] {
            assert!(matches!(result, Err(ConfidenceError::InvalidParameter(_))));
        }
        // The largest counts that fit still come back exact.
        assert!(required_samples(1e-6, 0.05, 100).unwrap() > 1_000_000_000_000);
        assert!(required_iterations(1e-7, 0.05).is_ok());
    }

    #[test]
    fn sample_bound_matches_the_formula() {
        // w = 10, ε = 0.1, δ = 0.05: m = ceil(3*10*ln(40)/0.01) = ceil(11067.1...)
        let m = required_samples(0.1, 0.05, 10).unwrap();
        let expected = (3.0 * 10.0 * (2.0f64 / 0.05).ln() / 0.01).ceil() as usize;
        assert_eq!(m, expected);
        assert!(m > 11_000 && m < 11_100);
    }

    #[test]
    fn error_bound_decreases_with_samples_and_epsilon() {
        let d1 = error_bound(0.1, 1_000, 10).unwrap();
        let d2 = error_bound(0.1, 10_000, 10).unwrap();
        let d3 = error_bound(0.2, 10_000, 10).unwrap();
        assert!(d2 < d1);
        assert!(d3 < d2);
        // With the required m, the bound is at most δ.
        let m = required_samples(0.1, 0.05, 10).unwrap();
        assert!(error_bound(0.1, m, 10).unwrap() <= 0.05 + 1e-12);
    }

    #[test]
    fn delta_prime_matches_error_bound_with_l_batches() {
        // δ'(ε, l) = error_bound(ε, l·w, w) for any width w.
        let l = 37;
        for width in [1usize, 5, 20] {
            let a = delta_prime(0.15, l).unwrap();
            let b = error_bound(0.15, l * width, width).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn required_iterations_reach_the_target() {
        let l = required_iterations(0.1, 0.05).unwrap();
        assert!(delta_prime(0.1, l).unwrap() <= 0.05 + 1e-12);
        assert!(delta_prime(0.1, l.saturating_sub(2)).unwrap() > 0.05);
    }

    #[test]
    fn parameter_validation() {
        assert!(required_samples(0.0, 0.05, 10).is_err());
        assert!(required_samples(1.0, 0.05, 10).is_err());
        assert!(required_samples(0.1, 0.0, 10).is_err());
        assert!(required_samples(0.1, 1.0, 10).is_err());
        assert!(required_samples(0.1, 0.05, 0).is_err());
        assert!(error_bound(0.5, 10, 0).is_err());
        assert!(delta_prime(2.0, 10).is_err());
        assert!(required_iterations(0.1, 1.5).is_err());
    }

    #[test]
    fn combining_bounds() {
        let sum = combine_error_bounds(&[0.01, 0.02, 0.03], false);
        assert!((sum - 0.06).abs() < 1e-12);
        let indep = combine_error_bounds(&[0.01, 0.02, 0.03], true);
        assert!(indep < sum);
        assert!(indep > 0.058);
        // Saturates at 1.
        assert_eq!(combine_error_bounds(&[0.9, 0.9], false), 1.0);
        assert!(combine_error_bounds(&[0.9, 0.9], true) <= 1.0);
        assert_eq!(combine_error_bounds(&[], false), 0.0);
        assert_eq!(combine_error_bounds(&[], true), 0.0);
    }
}
