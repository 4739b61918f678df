//! EXPLAIN-style tour of the logical plan: lower a UA query into the
//! validated operator DAG, render it, lower it to the physical plan (where
//! each exact `conf` reads the σ/π/ρ chain below it in one pass), then
//! execute the physical pipeline.
//!
//! ```text
//! cargo run --release --example plan_explain
//! ```

use algebra::{parse_query, LogicalPlan};
use engine::{catalog_of, EvalConfig, PhysicalPlan, UEngine};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let db = workloads::coin_udatabase();
    let query = workloads::coins::query_u(2);
    println!("query U of Example 2.2:\n  {query}\n");

    // Lowering merges structurally equal subqueries: the syntax tree has
    // many more operators than the DAG has nodes.
    let catalog = catalog_of(&db).expect("catalog");
    let plan = LogicalPlan::lower_validated(&query, &catalog).expect("valid query");
    println!(
        "syntax tree: {} operators  →  logical plan: {} nodes\n",
        query.size(),
        plan.len()
    );
    println!("{plan}");

    // Physical lowering fuses each exact `conf` with the σ/π/ρ chain below
    // it: the `conf` reads the chain's base through the chain's operators,
    // and the chain's own nodes never run.
    let physical = PhysicalPlan::lower(&plan, EvalConfig::exact()).expect("lowers");
    println!("{physical}");

    let engine = UEngine::new(EvalConfig::exact());
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let out = engine
        .evaluate_plan(&db, &plan, &mut rng)
        .expect("evaluates");
    println!("result (posterior after two observed heads):");
    for row in out.result.relation.iter() {
        println!("  {}", row.tuple);
    }

    // Static validation catches bad queries before execution.
    let bad = parse_query("project[Missing](Coins)").expect("parses");
    let err = LogicalPlan::lower_validated(&bad, &catalog).unwrap_err();
    println!("\nvalidation of `{bad}` fails at plan time:\n  {err}");
}
