//! Seeded input generators: every relation, request parameter and writer
//! operation is a pure function of the benchmark seed, so two runs with the
//! same seed feed the engine byte-identical inputs.

use pdb::{Relation, Schema, Tuple, Value};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use urel::{Condition, RelationDelta, UDatabase, URelation, URow, Var};

/// SplitMix64 finaliser: the one hash every derived seed goes through.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of a named input stream (`salt` separates relations and roles).
pub fn stream_seed(seed: u64, salt: u64) -> u64 {
    mix64(seed ^ mix64(salt))
}

/// Seed of request `index` of `client`: `hash(seed, client, request_index)`.
pub fn request_seed(seed: u64, client: usize, index: u64) -> u64 {
    mix64(
        stream_seed(seed, 0xC11E_0000 + client as u64) ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D),
    )
}

/// Sampling key of request `index` of `client`: a hash independent of the
/// request's position in its stream.  Workloads choose a request's shape by
/// `index % period`, so sampling "every n-th index" aliases onto one shape;
/// the harness samples by this key instead.
pub fn sample_key(seed: u64, client: usize, index: u64) -> u64 {
    mix64(request_seed(seed, client, index) ^ 0x5A3C_91E7_0000_0001)
}

/// Whether request `index` of `client` is in the one-in-`one_in` sample kept
/// for replay after the window (`one_in == 0`: none is).
pub fn sampled(seed: u64, client: usize, index: u64, one_in: u64) -> bool {
    one_in > 0 && sample_key(seed, client, index).is_multiple_of(one_in)
}

/// The `n` requests of `candidates` (`(client, index)` pairs) with the
/// smallest sampling keys: a uniform sample whatever order or period the
/// candidates come in.
pub fn pick_sample(
    seed: u64,
    candidates: impl IntoIterator<Item = (usize, u64)>,
    n: usize,
) -> Vec<(usize, u64)> {
    let mut keyed: Vec<(u64, (usize, u64))> = candidates
        .into_iter()
        .map(|(client, index)| (sample_key(seed, client, index), (client, index)))
        .collect();
    keyed.sort_unstable();
    keyed.truncate(n);
    keyed.into_iter().map(|(_, request)| request).collect()
}

/// The RNG of a derived seed.
pub fn rng_from(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// The per-request RNG the serving call draws from.
pub fn request_rng(seed: u64, client: usize, index: u64) -> ChaCha8Rng {
    rng_from(request_seed(seed, client, index))
}

fn relation(attrs: &[&str]) -> Relation {
    Relation::empty(Schema::new(attrs.iter().copied()).expect("distinct attribute names"))
}

fn int_tuple(values: &[i64]) -> Tuple {
    Tuple::new(values.iter().map(|&v| Value::Int(v)).collect())
}

/// `R(K, W)`: `keys` keys with three rows each, of three distinct weights
/// out of 1..=5, so `repairkey[K @ W]` gives every key three alternatives.
///
/// `crates/bench`'s `capacity` generator is not reused: its weight hash
/// repeats with the key count, so every key there has a single alternative
/// and every confidence is exactly 1.
pub fn weighted_rows(keys: usize, seed: u64) -> URelation {
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, 0x52));
    let mut rel = relation(&["K", "W"]);
    for k in 0..keys {
        let a = rng.gen_range(1..=5i64);
        let mut b = rng.gen_range(1..=4i64);
        if b >= a {
            b += 1;
        }
        for w in (1..=5i64).filter(|&w| w != a && w != b) {
            rel.insert(int_tuple(&[k as i64, w])).expect("arity 2");
        }
    }
    URelation::from_complete(&rel)
}

/// `S(K, W, B)`: one label row per key, carrying one of that key's weights,
/// so the natural join with `repairkey[K @ W](R)` keeps a single alternative
/// per key and `conf` of a label is a non-trivial union over its keys.
/// Labels are `k mod labels`.
pub fn label_rows(r: &URelation, labels: usize, seed: u64) -> URelation {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut by_key: std::collections::BTreeMap<i64, Vec<i64>> = std::collections::BTreeMap::new();
    for row in r.iter() {
        let k = row
            .tuple
            .get(0)
            .and_then(Value::as_int)
            .expect("integer key");
        let w = row
            .tuple
            .get(1)
            .and_then(Value::as_int)
            .expect("integer weight");
        by_key.entry(k).or_default().push(w);
    }
    let mut rel = relation(&["K", "W", "B"]);
    for (k, weights) in by_key {
        let w = weights[rng.gen_range(0..weights.len())];
        rel.insert(int_tuple(&[k, w, k % labels as i64]))
            .expect("arity 3");
    }
    URelation::from_complete(&rel)
}

/// The `R`/`S` pair as a database: `keys` keys spread over `labels` labels.
pub fn rs_database(keys: usize, labels: usize, seed: u64) -> UDatabase {
    let r = weighted_rows(keys, seed);
    let s = label_rows(&r, labels, stream_seed(seed, 0x53));
    let mut db = UDatabase::new();
    db.set_relation("R", r, true);
    db.set_relation("S", s, true);
    db
}

/// Adds the tuple-independent relation `T(Id, A, B)` (one Boolean variable
/// per tuple, probability uniform in `p_lo..p_hi`) to `db`.
///
/// Read as edges `A → B`, the tuples form a circulant graph: tuple `i` leaves
/// node `i mod nodes` for the node `1 + i / nodes` steps ahead.  Every node
/// has the same degree, so every 2-hop path event has the same number of
/// terms and variables whatever the seed — only the probabilities change —
/// and per-request cost does not move with the seed the way it does with
/// `workloads::TupleIndependentDb`'s random structure.
pub fn add_path_tuples(
    db: &mut UDatabase,
    tuples: usize,
    nodes: usize,
    p: std::ops::Range<f64>,
    seed: u64,
) {
    assert!(
        tuples / nodes < nodes,
        "an edge must not loop back to its own node"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, 0x54));
    let schema = Schema::new(["Id", "A", "B"]).expect("distinct attribute names");
    let mut rel = URelation::empty(schema);
    for i in 0..tuples {
        let var = Var::new(format!("t{i}"));
        db.wtable_mut()
            .add_bool_variable(var.clone(), rng.gen_range(p.clone()))
            .expect("fresh variable with a valid probability");
        let a = i % nodes;
        let b = (a + 1 + i / nodes) % nodes;
        let cond = Condition::new([(var, Value::Bool(true))]).expect("one variable");
        rel.insert(cond, int_tuple(&[i as i64, a as i64, b as i64]))
            .expect("arity 3");
    }
    db.set_relation("T", rel, false);
}

/// One writer operation of `update_churn`.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A row delta, applied with `ServingEngine::apply_deltas`.
    Delta {
        relation: &'static str,
        delta: RelationDelta,
    },
    /// A whole-row-set replacement, applied with
    /// `ServingEngine::update_relations`.
    Replace {
        relation: &'static str,
        content: URelation,
    },
}

impl Op {
    /// Trace tag and report label of the op's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Delta { relation: "R", .. } => OpKind::SpineDelta,
            Op::Delta { .. } => OpKind::SideDelta,
            Op::Replace { .. } => OpKind::Replace,
        }
    }

    /// Applies the op to a plain database (the sequential reference).
    pub fn apply_to(&self, db: &mut UDatabase) -> Result<(), String> {
        match self {
            Op::Delta { relation, delta } => db.apply_delta(relation, delta),
            Op::Replace { relation, content } => db.replace_relation(relation, content.clone()),
        }
        .map_err(|e| e.to_string())
    }
}

/// The three kinds of writer operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Single-row delta on the pure join side `S` (patched in place).
    SideDelta = 1,
    /// Whole-row-set replacement of `S` (demote + recompute).
    Replace = 2,
    /// Single-row delta on the repair-key input `R` (spine drop).
    SpineDelta = 3,
}

/// The deterministic operation log of the paced writer: of every 100 ops,
/// 90 are single-row deltas on `S`, 9 replace `S` whole, 1 is a single-row
/// delta on `R`.  The generator tracks the content its ops produce, so each
/// delta is pinned to the digest it will land on.
#[derive(Clone)]
pub struct OpGenerator {
    seed: u64,
    model: UDatabase,
    labels: usize,
    index: u64,
    /// Rows this generator inserted and has not deleted yet, per relation
    /// (`S`, `R`): deletes take from here so relation sizes stay bounded.
    inserted: [Vec<URow>; 2],
}

impl OpGenerator {
    /// A generator over the `R`/`S` pair of `db`.
    pub fn new(db: &UDatabase, seed: u64) -> OpGenerator {
        let mut model = UDatabase::new();
        for name in ["R", "S"] {
            let rel = db.relation(name).expect("R/S database").clone();
            model.set_relation(name, rel, true);
        }
        let labels = model
            .relation("S")
            .expect("set above")
            .iter()
            .filter_map(|row| row.tuple.get(2).and_then(Value::as_int))
            .max()
            .map_or(1, |b| b as usize + 1);
        OpGenerator {
            seed,
            model,
            labels,
            index: 0,
            inserted: [Vec::new(), Vec::new()],
        }
    }

    /// Number of ops generated so far.
    pub fn generated(&self) -> u64 {
        self.index
    }

    /// The `R`/`S` content after every generated op.
    pub fn model(&self) -> &UDatabase {
        &self.model
    }

    fn row_delta(&mut self, relation: &'static str, rng: &mut ChaCha8Rng) -> Op {
        let slot = usize::from(relation == "R");
        let base = self.model.relation(relation).expect("modelled relation");
        let keys = self.model.relation("S").expect("modelled relation").len() as i64;
        let delete = self.inserted[slot].len() >= 8
            || (!self.inserted[slot].is_empty() && rng.gen_bool(0.5));
        let delta = if delete {
            let at = rng.gen_range(0..self.inserted[slot].len());
            let row = self.inserted[slot].swap_remove(at);
            RelationDelta::new(base, [], [row])
        } else {
            // Redraw until the row is new: the domain is far larger than
            // the relation, so this terminates at once.
            let row = loop {
                let k = rng.gen_range(0..keys);
                let w = rng.gen_range(1..=9i64);
                let tuple = if relation == "R" {
                    int_tuple(&[k, w])
                } else {
                    int_tuple(&[k, w, rng.gen_range(0..self.labels as i64)])
                };
                let row = URow {
                    condition: Condition::always(),
                    tuple,
                };
                if !base.contains_row(&row) {
                    break row;
                }
            };
            self.inserted[slot].push(row.clone());
            RelationDelta::new(base, [row], [])
        }
        .expect("the delta was built against this content");
        Op::Delta { relation, delta }
    }

    /// The next op; the generator's model already reflects it on return.
    pub fn next_op(&mut self) -> Op {
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.seed, 0x0900_0000 + self.index));
        let op = match self.index % 100 {
            50 => self.row_delta("R", &mut rng),
            5 | 15 | 25 | 35 | 45 | 55 | 65 | 75 | 85 => {
                self.inserted[0].clear();
                let r = self.model.relation("R").expect("modelled relation");
                Op::Replace {
                    relation: "S",
                    content: label_rows(r, self.labels, rng.next_u64()),
                }
            }
            _ => self.row_delta("S", &mut rng),
        };
        op.apply_to(&mut self.model)
            .expect("generated ops apply to the generator's own model");
        self.index += 1;
        op
    }
}
