//! Bridging the named random variables of a U-relational database to the
//! index-based probability space the `confidence` crate estimates over,
//! with two serving-grade caches layered on top:
//!
//! * a **lineage/event cache inside [`CompiledSpace`]**: the batch of DNF
//!   events of a whole relation ([`RelationEvents`]) is extracted once,
//!   **compiled into flat bit-parallel lineage programs**
//!   ([`confidence::LineagePrograms`]) and memoised by relation content, so
//!   repeated evaluations of a cached plan pay for estimation only — never
//!   for re-walking rows, re-translating conditions, or re-compiling event
//!   trees (the programs, and the exact probabilities the exact estimator
//!   memoises inside them, are the serving layer's warm estimator state).
//!   The key, [`URelation::content_digest`], is hashed once per content and
//!   memoised with it, so a lookup on shared content (a pooled result and
//!   every request resuming it) is O(1) rather than a pass over the rows;
//! * a **[`SpaceCache`]** memoising compilation of W-table states by their
//!   content, so the confidence-bearing operators of one pipeline (and every
//!   warm resume of a pooled prefix) share one compiled space instead of
//!   recompiling per operator.

use crate::error::{EngineError, Result};
use crate::sync::{LockRank, OrderedMutex};
use confidence::{Assignment, DnfEvent, LineagePrograms, ProbabilitySpace, VarId};
use pdb::{Tuple, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use urel::{Condition, URelation, Var, WTable};

/// Upper bound on distinct relations memoised per compiled space; reaching
/// it clears the cache (steady-state serving re-fills the handful of hot
/// entries immediately).
const LINEAGE_CACHE_CAP: usize = 1024;

/// Upper bound on distinct W-table states memoised per [`SpaceCache`];
/// reaching it clears the cache, like [`LINEAGE_CACHE_CAP`].  A cache only
/// keeps growing under a `repair-key` above a sampled operator, whose
/// variables then follow the sampled result.
const SPACE_CACHE_CAP: usize = 64;

/// A compiled view of a W-table: the probability space plus the name/value →
/// index mappings needed to translate conditions into assignments, plus a
/// content-addressed cache of per-relation lineage batches.
pub struct CompiledSpace {
    /// The table this space was compiled from (a pointer copy): what a
    /// [`SpaceCache`] hit is checked against.
    wtable: WTable,
    space: ProbabilitySpace,
    /// Variable name → its index and its domain values, sorted, each with
    /// its alternative's index: one hash lookup and one binary search per
    /// literal of a condition.
    vars: HashMap<Var, (VarId, Vec<(Value, usize)>)>,
    /// [`URelation::content_digest`] → extracted event batch.
    /// Content-addressed, so the cache stays correct no matter who shares
    /// this compiled space; keying by digest instead of a relation clone
    /// keeps the cache from retaining copies of large relations.
    lineage: OrderedMutex<HashMap<(u64, u64, usize), Arc<RelationEvents>>>,
    /// Number of lineage-cache hits: warm requests that reused an already
    /// extracted-and-compiled batch (so they paid estimation only).
    lineage_hits: std::sync::atomic::AtomicU64,
}

impl fmt::Debug for CompiledSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSpace")
            .field("space", &self.space)
            .field("cached_relations", &self.lineage_len())
            .finish()
    }
}

/// The lineage batch of one relation: every distinct data tuple paired with
/// its translated DNF event — already compiled into flat bit-parallel
/// programs — in canonical tuple order.
#[derive(Clone, Debug)]
pub struct RelationEvents {
    /// Distinct and sorted ([`URelation::tuple_events`]'s order), so a
    /// tuple's index is one binary search.
    tuples: Vec<Tuple>,
    programs: Arc<LineagePrograms>,
}

impl RelationEvents {
    /// The distinct tuples, in the order of
    /// [`URelation::possible_tuples`].
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The events, parallel to [`tuples`](RelationEvents::tuples).
    pub fn events(&self) -> &[DnfEvent] {
        self.programs.events()
    }

    /// The compiled lineage programs of the batch — the input of the
    /// bit-parallel `estimate_compiled*` estimator paths, cached alongside
    /// the events so a warm request never recompiles.
    pub fn programs(&self) -> &Arc<LineagePrograms> {
        &self.programs
    }

    /// The batch index of one tuple (`None` if the tuple is not in the
    /// relation; its event is then the impossible event).
    pub fn index_of(&self, t: &Tuple) -> Option<usize> {
        self.tuples.binary_search(t).ok()
    }

    /// The event of one tuple (`None` if the tuple is not in the relation;
    /// its event is then the impossible event).
    pub fn event_of(&self, t: &Tuple) -> Option<&DnfEvent> {
        self.index_of(t).map(|i| &self.programs.events()[i])
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation had no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

impl CompiledSpace {
    /// Compiles a W-table.
    pub fn compile(wtable: &WTable) -> Result<CompiledSpace> {
        let mut space = ProbabilitySpace::new();
        let mut vars = HashMap::new();
        for (var, dist) in wtable.iter() {
            let probs: Vec<f64> = dist.iter().map(|(_, p)| *p).collect();
            let id = space.add_variable(probs)?;
            let mut alts: Vec<(Value, usize)> = dist
                .iter()
                .map(|(value, _)| value.clone())
                .zip(0..)
                .collect();
            alts.sort_unstable();
            vars.insert(var.clone(), (id, alts));
        }
        Ok(CompiledSpace {
            wtable: wtable.clone(),
            space,
            vars,
            lineage: OrderedMutex::new(LockRank::LineageCache, "space.lineage", HashMap::new()),
            lineage_hits: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The index-based probability space.
    pub fn space(&self) -> &ProbabilitySpace {
        &self.space
    }

    /// The whole lineage batch of a relation — [`URelation::tuple_events`]
    /// plus condition translation plus compilation into bit-parallel lineage
    /// programs — memoised by relation content, so a warm re-execution of a
    /// cached plan never re-extracts, re-translates, or re-compiles.  The
    /// cache key is the relation's memoised content digest: hashed once per
    /// content, then O(1) for every clone that shares it.
    pub fn relation_events(&self, relation: &URelation) -> Result<Arc<RelationEvents>> {
        let digest = relation.content_digest();
        if let Some(hit) = self.lineage.lock().get(&digest) {
            self.lineage_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(hit.clone());
        }
        let batch = relation.tuple_events();
        let mut tuples = Vec::with_capacity(batch.len());
        let mut events = Vec::with_capacity(batch.len());
        for (t, conditions) in batch {
            events.push(self.event(&conditions)?);
            tuples.push(t);
        }
        let programs = Arc::new(
            LineagePrograms::compile(events, &self.space).map_err(EngineError::Confidence)?,
        );
        let entry = Arc::new(RelationEvents { tuples, programs });
        let mut guard = self.lineage.lock();
        // A shared space can outlive many evaluations (serving); bound the
        // cache so varying post-sampling relations cannot grow it forever.
        if guard.len() >= LINEAGE_CACHE_CAP {
            guard.clear();
        }
        guard.insert(digest, entry.clone());
        Ok(entry)
    }

    /// Number of relations whose lineage batch is currently cached.
    pub fn lineage_len(&self) -> usize {
        self.lineage.lock().len()
    }

    /// Number of lineage-cache hits so far: requests served from an already
    /// extracted-and-compiled batch.  A warm serving resume of a confidence
    /// query must hit here — paying sampling only — rather than re-extract
    /// or re-compile.
    pub fn lineage_hits(&self) -> u64 {
        self.lineage_hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Translates a condition (partial function over named variables) into an
    /// index-based assignment.
    pub fn assignment(&self, condition: &Condition) -> Result<Assignment> {
        let mut pairs = Vec::with_capacity(condition.len());
        for (var, value) in condition.iter() {
            let (var_id, alts) = self.vars.get(var).ok_or_else(|| {
                EngineError::Urel(urel::UrelError::UnknownVariable(var.name().to_owned()))
            })?;
            let at = alts.binary_search_by(|(v, _)| v.cmp(value)).map_err(|_| {
                EngineError::Urel(urel::UrelError::UnknownDomainValue {
                    var: var.name().to_owned(),
                    value: value.to_string(),
                })
            })?;
            pairs.push((*var_id, alts[at].1));
        }
        Assignment::new(pairs).map_err(Into::into)
    }

    /// Translates a DNF of conditions (the event under which a tuple belongs
    /// to a relation) into an index-based [`DnfEvent`].
    pub fn event(&self, conditions: &[Condition]) -> Result<DnfEvent> {
        let mut terms = Vec::with_capacity(conditions.len());
        for c in conditions {
            terms.push(self.assignment(c)?);
        }
        Ok(DnfEvent::new(terms))
    }
}

/// A cache of compiled W-table states, shared by every confidence-bearing
/// operator of one evaluation and, through the serving layer's pooled
/// snapshots, by every warm resume of the same prefix.
///
/// A compiled space is a function of its W-table's content (Section 3's
/// `W(Var, Dom, P)` is a relation), so a hit requires that content: the
/// very table the space was compiled from — a pointer comparison, which is
/// what every resume over a pooled prefix's table finds — or, failing that,
/// an equal one.  The cache is therefore safe to share with anyone, across
/// evaluations and databases alike.
#[derive(Clone, Debug)]
pub struct SpaceCache {
    inner: Arc<OrderedMutex<Vec<Arc<CompiledSpace>>>>,
}

impl Default for SpaceCache {
    fn default() -> Self {
        SpaceCache {
            inner: Arc::new(OrderedMutex::new(
                LockRank::SpaceCache,
                "space.cache",
                Vec::new(),
            )),
        }
    }
}

impl SpaceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SpaceCache::default()
    }

    /// The compiled space for the W-table's current content, compiling at
    /// most once per content while it stays cached.
    pub fn compiled(&self, wtable: &WTable) -> Result<Arc<CompiledSpace>> {
        if let Some(hit) = find(&self.inner.lock(), wtable) {
            return Ok(hit);
        }
        let compiled = Arc::new(CompiledSpace::compile(wtable)?);
        let mut spaces = self.inner.lock();
        // A racing evaluation may have compiled the same content meanwhile:
        // keep the first, so every sharer sees one lineage cache.
        if let Some(hit) = find(&spaces, wtable) {
            return Ok(hit);
        }
        if spaces.len() >= SPACE_CACHE_CAP {
            spaces.clear();
        }
        spaces.push(compiled.clone());
        Ok(compiled)
    }

    /// Number of cached W-table states.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cached space compiled from `wtable`'s content: pointer matches
/// first, content comparisons only when none matches.
fn find(spaces: &[Arc<CompiledSpace>], wtable: &WTable) -> Option<Arc<CompiledSpace>> {
    (spaces.iter().find(|s| s.wtable.shares_content(wtable)))
        .or_else(|| spaces.iter().find(|s| s.wtable == *wtable))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use confidence::exact;
    use pdb::Value;

    fn coin_wtable() -> WTable {
        let mut w = WTable::new();
        w.add_variable(
            Var::new("c"),
            [
                (Value::str("fair"), 2.0 / 3.0),
                (Value::str("2headed"), 1.0 / 3.0),
            ],
        )
        .unwrap();
        w.add_variable(
            Var::new("t1"),
            [(Value::str("H"), 0.5), (Value::str("T"), 0.5)],
        )
        .unwrap();
        w.add_variable(
            Var::new("t2"),
            [(Value::str("H"), 0.5), (Value::str("T"), 0.5)],
        )
        .unwrap();
        w
    }

    #[test]
    fn compiles_and_translates_conditions() {
        let w = coin_wtable();
        let cs = CompiledSpace::compile(&w).unwrap();
        assert_eq!(cs.space().num_variables(), 3);
        let cond = Condition::new([
            (Var::new("c"), Value::str("fair")),
            (Var::new("t1"), Value::str("H")),
        ])
        .unwrap();
        let a = cs.assignment(&cond).unwrap();
        assert_eq!(a.len(), 2);
        assert!(
            (a.weight(cs.space()).unwrap() - cond.weight(&w).unwrap()).abs() < 1e-12,
            "weights must agree between representations"
        );
    }

    #[test]
    fn event_probability_matches_example_2_2() {
        let w = coin_wtable();
        let cs = CompiledSpace::compile(&w).unwrap();
        let both_heads_fair = Condition::new([
            (Var::new("c"), Value::str("fair")),
            (Var::new("t1"), Value::str("H")),
            (Var::new("t2"), Value::str("H")),
        ])
        .unwrap();
        let two_headed = Condition::new([(Var::new("c"), Value::str("2headed"))]).unwrap();
        let event = cs.event(&[both_heads_fair, two_headed]).unwrap();
        let p = exact::probability(&event, cs.space()).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relation_events_are_memoised_by_content() {
        use pdb::{schema, tuple};
        let w = coin_wtable();
        let cs = CompiledSpace::compile(&w).unwrap();
        let mut rel = URelation::empty(schema!["CoinType"]);
        rel.insert(
            Condition::new([(Var::new("c"), Value::str("fair"))]).unwrap(),
            tuple!["fair"],
        )
        .unwrap();
        rel.insert(
            Condition::new([(Var::new("t1"), Value::str("H"))]).unwrap(),
            tuple!["fair"],
        )
        .unwrap();
        rel.insert(
            Condition::new([(Var::new("c"), Value::str("2headed"))]).unwrap(),
            tuple!["2headed"],
        )
        .unwrap();

        let a = cs.relation_events(&rel).unwrap();
        assert_eq!(cs.lineage_len(), 1);
        assert_eq!(cs.lineage_hits(), 0);
        // A content-equal clone hits the cache — including the compiled
        // programs, which are built exactly once per content digest.
        let b = cs.relation_events(&rel.clone()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(a.programs(), b.programs()));
        assert_eq!(a.programs().len(), a.len());
        assert_eq!(cs.lineage_len(), 1);
        assert_eq!(cs.lineage_hits(), 1);

        // The batch matches the per-tuple extraction.
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        for (t, conditions) in rel.tuple_events() {
            let expected = cs.event(&conditions).unwrap();
            assert_eq!(a.event_of(&t), Some(&expected));
        }
        assert_eq!(a.tuples().len(), a.events().len());
        assert!(a.event_of(&tuple!["3sided"]).is_none());
    }

    #[test]
    fn space_cache_compiles_once_per_table_content() {
        let w = coin_wtable();
        let cache = SpaceCache::new();
        assert!(cache.is_empty());
        let a = cache.compiled(&w).unwrap();
        let b = cache.compiled(&w).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);

        // A separately built table with the same content hits; a clone of
        // the cache shares its map.
        let shared = cache.clone();
        assert!(Arc::ptr_eq(&a, &shared.compiled(&coin_wtable()).unwrap()));

        // The same variable count over other probabilities is another
        // space, and so is a grown table.
        let mut reweighted = WTable::new();
        for (var, dist) in w.iter() {
            let flipped = dist
                .iter()
                .map(|(v, _)| v.clone())
                .zip(dist.iter().rev().map(|(_, p)| *p));
            reweighted.add_variable(var.clone(), flipped).unwrap();
        }
        assert_eq!(reweighted.num_variables(), w.num_variables());
        assert_ne!(reweighted, w);
        let c = shared.compiled(&reweighted).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let mut grown = w.clone();
        grown.add_bool_variable(Var::new("extra"), 0.5).unwrap();
        shared.compiled(&grown).unwrap();
        assert_eq!(cache.len(), 3);
        assert!(Arc::ptr_eq(&a, &cache.compiled(&w).unwrap()));

        // Bounded: past the cap the cache starts over.
        for i in 0..SPACE_CACHE_CAP {
            let mut fresh = WTable::new();
            fresh
                .add_bool_variable(Var::new(format!("x{i}")), 0.5)
                .unwrap();
            cache.compiled(&fresh).unwrap();
        }
        assert!(cache.len() <= SPACE_CACHE_CAP);
    }

    #[test]
    fn unknown_variables_and_values_error() {
        let w = coin_wtable();
        let cs = CompiledSpace::compile(&w).unwrap();
        let unknown_var = Condition::new([(Var::new("ghost"), Value::Int(1))]).unwrap();
        assert!(cs.assignment(&unknown_var).is_err());
        let unknown_value = Condition::new([(Var::new("c"), Value::str("3headed"))]).unwrap();
        assert!(cs.assignment(&unknown_value).is_err());
        assert!(cs.event(&[unknown_value]).is_err());
    }
}
