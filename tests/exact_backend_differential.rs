//! Differential suite for the exact d-DNNF backend and canonical shared
//! sampling.
//!
//! The cost model may answer any individual confidence *exactly* instead of
//! sampling it — that must never change what a query returns beyond
//! replacing an (ε, δ) estimate with the true value.  In particular:
//!
//! * `aconf` answers with the backend enabled equal the exact-confidence
//!   reference (they are no longer estimates at all) and are independent of
//!   the caller's seed;
//! * σ̂ keep/drop decisions are unchanged on the clear-margin workload
//!   suites whichever backend the cost model picks, in both Monte Carlo
//!   decision modes, across seeds;
//! * canonical shared sampling makes approximate answers pure functions of
//!   (content, configuration, ε/δ): two evaluations under *different*
//!   caller seeds agree bit for bit, and the caller's RNG stream still
//!   advances exactly as before (a later draw sees the same state).

use engine::{ApproxSelectMode, ConfidenceMode, EvalConfig, UEngine};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use urel::UDatabase;
use workloads::{coins, CleaningWorkload, SensorWorkload};

const NODE_BUDGET: u32 = confidence::cost::DEFAULT_NODE_BUDGET;

fn sigma_suites() -> Vec<(&'static str, UDatabase, algebra::Query)> {
    let sensors = SensorWorkload {
        num_sensors: 8,
        readings_per_sensor: 4,
        high_probability: 0.45,
        seed: 29,
    };
    let cleaning = CleaningWorkload {
        num_records: 6,
        alternatives_per_record: 2,
        num_cities: 3,
        seed: 13,
    };
    vec![
        (
            "coins",
            coins::coin_udatabase(),
            coins::query_posterior_filter(2, 0.4),
        ),
        (
            "sensors",
            sensors.database(),
            SensorWorkload::alarm_query(0.7, 0.05, 0.05),
        ),
        (
            "cleaning",
            cleaning.database(),
            CleaningWorkload::confident_city_query(0.6, 0.05, 0.05),
        ),
    ]
}

#[test]
fn backend_choice_never_changes_a_sigma_decision() {
    for (name, db, query) in sigma_suites() {
        for mode in [
            ApproxSelectMode::Adaptive,
            ApproxSelectMode::FixedIterations(64),
        ] {
            for seed in 0..6u64 {
                let run = |budget: u32| {
                    let engine = UEngine::new(
                        EvalConfig {
                            approx_select: mode,
                            confidence: ConfidenceMode::Exact,
                            ..EvalConfig::default()
                        }
                        .with_exact_backend(budget),
                    );
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    engine
                        .evaluate(&db, &query, &mut rng)
                        .expect("σ̂ evaluation")
                };
                let sampled = run(0);
                let backed = run(NODE_BUDGET);
                assert_eq!(
                    sampled.result.relation.possible_tuples(),
                    backed.result.relation.possible_tuples(),
                    "{name}: the exact backend changed a decision ({mode:?}, seed {seed})"
                );
                assert!(
                    backed.stats.karp_luby_samples <= sampled.stats.karp_luby_samples,
                    "{name}: the backend cost extra samples ({mode:?}, seed {seed})"
                );
            }
        }
    }
}

#[test]
fn backed_aconf_equals_the_exact_reference_and_ignores_the_seed() {
    let db = coins::coin_udatabase();
    let approximate =
        algebra::parse_query("aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))")
            .unwrap();
    let exact =
        algebra::parse_query("conf(project[CoinType](repairkey[ @ Count](Coins)))").unwrap();

    let reference = {
        let engine = UEngine::new(EvalConfig::exact());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        engine.evaluate(&db, &exact, &mut rng).unwrap()
    };
    let engine = UEngine::new(EvalConfig::default().with_exact_backend(NODE_BUDGET));
    let mut outputs = Vec::new();
    for seed in [7u64, 31337, 0] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        outputs.push(engine.evaluate(&db, &approximate, &mut rng).unwrap());
    }
    for out in &outputs {
        assert_eq!(
            out.result.relation, reference.result.relation,
            "a compiled aconf answer must equal exact model counting"
        );
        assert_eq!(out.stats.karp_luby_samples, 0, "no samples were needed");
        assert!(out.stats.exact_compiled_answers > 0);
        assert_eq!(out.stats.sampled_answers, 0);
    }
}

#[test]
fn shared_sampling_answers_are_seed_independent_but_streams_still_advance() {
    let db = coins::coin_udatabase();
    let query =
        algebra::parse_query("aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))")
            .unwrap();
    let engine = UEngine::new(EvalConfig::default().with_shared_sampling(true));

    let mut rng_a = ChaCha8Rng::seed_from_u64(1);
    let a = engine.evaluate(&db, &query, &mut rng_a).unwrap();
    let mut rng_b = ChaCha8Rng::seed_from_u64(2);
    let b = engine.evaluate(&db, &query, &mut rng_b).unwrap();
    assert_eq!(
        a.result.relation, b.result.relation,
        "canonical streams must make the answer independent of the caller's seed"
    );
    assert!(a.stats.karp_luby_samples > 0, "still a sampled answer");

    // The master-seed draw still happens, so the caller's stream is exactly
    // where a non-shared evaluation would have left it.
    let mut plain_rng = ChaCha8Rng::seed_from_u64(1);
    let plain_engine = UEngine::new(EvalConfig::default());
    plain_engine.evaluate(&db, &query, &mut plain_rng).unwrap();
    assert_eq!(
        rng_a.next_u64(),
        plain_rng.next_u64(),
        "shared sampling must not change how much caller randomness is consumed"
    );
}

/// Beyond the coins: on the sensor and cleaning databases, an `aconf` whose
/// every event goes to the exact backend answers with exact `conf`'s bits,
/// whatever the seed — the backend is the exact kernel under a budget.
#[test]
fn backed_aconf_equals_exact_conf_bit_for_bit_on_sensors_and_cleaning() {
    let bodies = [
        (
            "sensors",
            "project[Sensor](select[Temp >= 30](repairkey[Sensor @ Weight](Readings)))",
        ),
        (
            "cleaning",
            "project[City](repairkey[RecId @ Weight](Dirty))",
        ),
    ];
    let suites = sigma_suites();
    for (name, body) in bodies {
        let db = &suites.iter().find(|(n, _, _)| *n == name).unwrap().1;
        let exact = algebra::parse_query(&format!("conf({body})")).unwrap();
        let approximate = algebra::parse_query(&format!("aconf[0.05, 0.05]({body})")).unwrap();
        let reference = UEngine::new(EvalConfig::exact())
            .evaluate(db, &exact, &mut ChaCha8Rng::seed_from_u64(0))
            .unwrap();
        assert!(reference.result.relation.len() > 1, "{name}: a real batch");
        let engine = UEngine::new(EvalConfig::default().with_exact_backend(NODE_BUDGET));
        for seed in [7u64, 31337, 0] {
            let out = engine
                .evaluate(db, &approximate, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(
                out.result.relation, reference.result.relation,
                "{name}, seed {seed}: a backed aconf answer must be exact conf's"
            );
            assert_eq!(out.stats.sampled_answers, 0, "{name}: every event compiled");
            assert_eq!(out.stats.karp_luby_samples, 0, "{name}");
            assert!(out.stats.exact_compiled_answers > 0, "{name}");
        }
    }
}
