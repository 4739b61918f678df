//! Regression test for a pool re-entrancy hang in
//! `LineagePrograms::exact_probabilities`.
//!
//! The memoised expansion used to run a parallel map inside its
//! `OnceLock` initialiser.  Called from inside a parallel batch (which is
//! how `ExactEstimator` reaches it), the initialising thread's
//! submitter-helping could pick up a sibling job of the same batch,
//! re-enter the cell from inside its own initialiser and hang — on any pool
//! with at least two workers.
//!
//! This file holds **one** test on purpose: it sizes the process-global
//! pool through `RAYON_NUM_THREADS` before the pool's first use, which only
//! works when nothing else in the binary has touched the pool yet.

use confidence::{exact, Assignment, DnfEvent, LineagePrograms, ProbabilitySpace};
use rayon::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn exact_probabilities_can_be_asked_for_from_inside_a_parallel_batch() {
    std::env::set_var("RAYON_NUM_THREADS", "2");
    assert_eq!(rayon::current_num_threads(), 2);

    let mut space = ProbabilitySpace::new();
    for i in 0..12 {
        space.add_bool_variable(0.1 + 0.06 * i as f64).unwrap();
    }
    // Overlapping three-literal terms: enough events that both the outer
    // batch and (formerly) the inner map are split across the pool.
    let events: Vec<DnfEvent> = (0..64usize)
        .map(|e| {
            DnfEvent::new((0..6).map(|t| {
                let v = (e + 2 * t) % 12;
                Assignment::new([(v, t % 2), ((v + 1) % 12, e % 2), ((v + 5) % 12, 1)]).unwrap()
            }))
        })
        .collect();
    let expected: Vec<f64> = events
        .iter()
        .map(|event| exact::probability(event, &space).unwrap())
        .collect();

    // A hang would stall the test run forever; fail it instead.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..20 {
            let programs = LineagePrograms::compile(events.clone(), &space).unwrap();
            let asked: Vec<f64> = (0..events.len())
                .into_par_iter()
                .map(|i| programs.exact_probabilities().unwrap()[i])
                .collect();
            // Every caller read the one memoised slice.
            assert_eq!(asked, programs.exact_probabilities().unwrap());
            assert_eq!(asked, expected);
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("exact_probabilities hung (or failed) inside a parallel batch");
}
