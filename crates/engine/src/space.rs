//! Bridging the named random variables of a U-relational database to the
//! index-based probability space the `confidence` crate estimates over,
//! with two serving-grade caches layered on top:
//!
//! * a **[`SpaceIndex`]**, the immutable part of a compiled W-table — the
//!   probability space and the name/value → index mappings that translate
//!   conditions into assignments.  It is a function of the table's content
//!   alone (Section 3's `W(Var, Dom, P)` is a relation), so it is shared
//!   behind an `Arc`: the serving layer compiles its served table once and
//!   seeds every cold request with it, so a cold `conf` over the served
//!   table compiles nothing.  A request's `repair-key` declares above the
//!   served map, which its table keeps as a shared lower layer, and the
//!   index of that table *extends* the served one: it maps the declared
//!   variables only and translates every served one through the served
//!   index, its id shifted to the variable's place in the whole table, so
//!   ids, translations and probabilities are those of a compile of the
//!   whole table;
//! * a **lineage/event cache inside [`CompiledSpace`]** (an index plus a
//!   memo of its own): the batch of DNF events of a whole relation
//!   ([`RelationEvents`]) is extracted once — from the relation's rows,
//!   borrowed, each condition translated straight into an assignment —
//!   **compiled into flat bit-parallel lineage programs**
//!   ([`confidence::LineagePrograms`]) and memoised by relation content, so
//!   repeated evaluations of a cached plan pay for estimation only — never
//!   for re-walking rows, re-translating conditions, or re-compiling event
//!   trees (the programs, and the exact probabilities the exact estimator
//!   memoises inside them, are the serving layer's warm estimator state).
//!   The key, [`URelation::content_digest`], is hashed once per content and
//!   memoised with it, so a lookup on shared content (a pooled result and
//!   every request resuming it) is O(1) rather than a pass over the rows.
//!   An exact `conf` skips the memo ([`CompiledSpace::extract_events`]):
//!   its result is pooled with its stateful spine, so nothing would look
//!   the batch up again;
//! * a **[`SpaceCache`]** memoising compiled spaces by their W-table's
//!   content, so the confidence-bearing operators of one pipeline (and every
//!   warm resume of a pooled prefix) share one compiled space instead of
//!   recompiling per operator.

use crate::error::{EngineError, Result};
use crate::sync::{LockRank, OrderedMutex};
use confidence::{Assignment, DnfEvent, LineagePrograms, ProbabilitySpace, VarId};
use pdb::{Tuple, Value};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
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

/// The immutable part of a compiled W-table: the probability space plus
/// the name/value → index mappings needed to translate conditions into
/// assignments.  Variable ids follow the table's variable order.
///
/// An index can *extend* the index of its table's
/// [lower layer](WTable::lower_layer): it then maps only the variables
/// declared above that layer, and translates every other one through the
/// lower index, shifting its id to the variable's place in the whole
/// table.  [`compile`](SpaceIndex::compile) is the extension of nothing.
pub(crate) struct SpaceIndex {
    /// The table this index was compiled from (a pointer copy): what a
    /// [`SpaceCache`] hit is checked against.
    wtable: WTable,
    space: ProbabilitySpace,
    /// The index of the lower layer this one extends, with the id here of
    /// each of its ids.
    lower: Option<(Arc<SpaceIndex>, Vec<VarId>)>,
    /// Variable name → its index and the range of its domain in `alts`,
    /// for the variables this index compiled itself: one hash lookup and
    /// one binary search per literal of a condition.
    vars: HashMap<Var, (VarId, Range<usize>)>,
    /// Those variables' domain values, each variable's run sorted, with the
    /// alternative's index: one buffer for all of them.
    alts: Vec<(Value, usize)>,
}

impl SpaceIndex {
    /// Compiles a W-table in one pass over its variables.
    pub(crate) fn compile(wtable: &WTable) -> Result<SpaceIndex> {
        SpaceIndex::extend(None, wtable)
    }

    /// Compiles `wtable` over `lower`, the index of the table's lower
    /// layer (`None`: over nothing), in one pass over its variables in name
    /// order.  The space is assembled in one buffer; only the variables
    /// `lower` does not cover are mapped here.
    fn extend(lower: Option<Arc<SpaceIndex>>, wtable: &WTable) -> Result<SpaceIndex> {
        let n = wtable.num_variables();
        let covered = lower.as_ref().map_or(0, |l| l.space.num_variables());
        let mut space = ProbabilitySpace::with_capacity(n, 2 * n);
        let mut shifted = Vec::with_capacity(covered);
        let mut vars = HashMap::with_capacity(n - covered);
        let mut alts = Vec::with_capacity(2 * (n - covered));
        for (var, dist, in_lower) in wtable.iter_layered() {
            let id = space.push_variable(dist.iter().map(|(_, p)| *p))?;
            if in_lower && lower.is_some() {
                shifted.push(id);
                continue;
            }
            let start = alts.len();
            alts.extend(dist.iter().map(|(value, _)| value.clone()).zip(0..));
            alts[start..].sort_unstable();
            vars.insert(var.clone(), (id, start..alts.len()));
        }
        Ok(SpaceIndex {
            wtable: wtable.clone(),
            space,
            lower: lower.map(|lower| (lower, shifted)),
            vars,
            alts,
        })
    }

    /// The index-based probability space.
    pub(crate) fn space(&self) -> &ProbabilitySpace {
        &self.space
    }

    /// A variable's id and its sorted alternatives.
    fn lookup(&self, var: &Var) -> Option<(VarId, &[(Value, usize)])> {
        if let Some((id, range)) = self.vars.get(var) {
            return Some((*id, &self.alts[range.clone()]));
        }
        let (lower, shifted) = self.lower.as_ref()?;
        let (id, alts) = lower.lookup(var)?;
        Some((shifted[id], alts))
    }

    /// True if this index extends `lower` (a pointer comparison).
    #[cfg(test)]
    pub(crate) fn extends(&self, lower: &Arc<SpaceIndex>) -> bool {
        (self.lower.as_ref()).is_some_and(|(l, _)| Arc::ptr_eq(l, lower))
    }
}

/// A compiled view of a W-table: its immutable part (probability space and
/// translation maps), shared behind an `Arc` by every compiled space over
/// the same table content, plus a content-addressed cache of per-relation
/// lineage batches of its own.
pub struct CompiledSpace {
    index: Arc<SpaceIndex>,
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
            .field("space", self.space())
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
        Ok(CompiledSpace::over(Arc::new(SpaceIndex::compile(wtable)?)))
    }

    /// A compiled space over an already compiled index, with an empty
    /// lineage cache of its own.
    pub(crate) fn over(index: Arc<SpaceIndex>) -> CompiledSpace {
        CompiledSpace {
            index,
            lineage: OrderedMutex::new(LockRank::LineageCache, "space.lineage", HashMap::new()),
            lineage_hits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The index-based probability space.
    pub fn space(&self) -> &ProbabilitySpace {
        self.index.space()
    }

    /// The compiled table this space translates with (test hook: sharing
    /// is a pointer comparison).
    #[cfg(test)]
    pub(crate) fn index(&self) -> &Arc<SpaceIndex> {
        &self.index
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
        let entry = Arc::new(self.extract_events(relation)?);
        let mut guard = self.lineage.lock();
        // A shared space can outlive many evaluations (serving); bound the
        // cache so varying post-sampling relations cannot grow it forever.
        if guard.len() >= LINEAGE_CACHE_CAP {
            guard.clear();
        }
        guard.insert(digest, entry.clone());
        Ok(entry)
    }

    /// The lineage batch of a relation, extracted and compiled as
    /// [`relation_events`](CompiledSpace::relation_events) does but with no
    /// memo: no content digest, nothing kept.  For a batch nobody looks up
    /// again — an exact `conf`'s, whose result is pooled with its stateful
    /// spine.  Extraction borrows the rows: each condition is translated
    /// where it lies, and each distinct tuple is cloned once, into the
    /// batch.
    pub fn extract_events(&self, relation: &URelation) -> Result<RelationEvents> {
        let batch = relation.tuple_events();
        let mut tuples = Vec::with_capacity(batch.len());
        let mut events = Vec::with_capacity(batch.len());
        for (t, conditions) in batch.iter() {
            events.push(self.event(conditions)?);
            tuples.push(t.clone());
        }
        let programs = Arc::new(
            LineagePrograms::compile(events, self.space()).map_err(EngineError::Confidence)?,
        );
        Ok(RelationEvents { tuples, programs })
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
            let (var_id, alts) = self.index.lookup(var).ok_or_else(|| {
                EngineError::Urel(urel::UrelError::UnknownVariable(var.name().to_owned()))
            })?;
            let at = alts.binary_search_by(|(v, _)| v.cmp(value)).map_err(|_| {
                EngineError::Urel(urel::UrelError::UnknownDomainValue {
                    var: var.name().to_owned(),
                    value: value.to_string(),
                })
            })?;
            pairs.push((var_id, alts[at].1));
        }
        Assignment::new(pairs).map_err(Into::into)
    }

    /// Translates a DNF of conditions (the event under which a tuple belongs
    /// to a relation) into an index-based [`DnfEvent`], one term per
    /// condition, in order.
    pub fn event<'c>(
        &self,
        conditions: impl IntoIterator<Item = &'c Condition>,
    ) -> Result<DnfEvent> {
        let conditions = conditions.into_iter();
        let mut terms = Vec::with_capacity(conditions.size_hint().0);
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
        SpaceCache::from_spaces(Vec::new())
    }
}

impl SpaceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SpaceCache::default()
    }

    /// A cache holding one compiled space over `index` with an empty
    /// lineage cache: a lookup of the index's table compiles nothing, and
    /// the batches extracted through it stay this cache's own.
    pub(crate) fn seeded(index: Arc<SpaceIndex>) -> Self {
        SpaceCache::from_spaces(vec![Arc::new(CompiledSpace::over(index))])
    }

    fn from_spaces(spaces: Vec<Arc<CompiledSpace>>) -> Self {
        SpaceCache {
            inner: Arc::new(OrderedMutex::new(
                LockRank::SpaceCache,
                "space.cache",
                spaces,
            )),
        }
    }

    /// The compiled space for the W-table's current content, compiling at
    /// most once per content while it stays cached.  A table whose
    /// [lower layer](WTable::lower_layer) is cached — a request's table
    /// after a `repair-key` over the served one — compiles as the
    /// extension of that layer's index by its own variables.
    pub fn compiled(&self, wtable: &WTable) -> Result<Arc<CompiledSpace>> {
        let lower = {
            let spaces = self.inner.lock();
            if let Some(hit) = find(&spaces, wtable) {
                return Ok(hit);
            }
            let lower = wtable.lower_layer();
            let by_pointer = |s: &&Arc<CompiledSpace>| {
                (lower.as_ref()).is_some_and(|lower| s.index.wtable.shares_content(lower))
            };
            spaces.iter().find(by_pointer).map(|s| Arc::clone(&s.index))
        };
        let index = SpaceIndex::extend(lower, wtable)?;
        let compiled = Arc::new(CompiledSpace::over(Arc::new(index)));
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
    let by_pointer = spaces
        .iter()
        .find(|s| s.index.wtable.shares_content(wtable));
    (by_pointer.or_else(|| spaces.iter().find(|s| s.index.wtable == *wtable))).cloned()
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
        for (t, conditions) in rel.tuple_events().iter() {
            let expected = cs.event(conditions).unwrap();
            assert_eq!(a.event_of(t), Some(&expected));
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

    /// The extraction [`CompiledSpace::relation_events`] replaced, kept as
    /// the bit-identity reference: the space compiled with one sorted
    /// alternative `Vec` per variable, and every row's tuple and condition
    /// cloned into per-tuple vectors before translation.
    fn cloned_reference(
        wtable: &WTable,
        relation: &URelation,
    ) -> (ProbabilitySpace, Vec<Tuple>, Vec<DnfEvent>) {
        let mut space = ProbabilitySpace::new();
        let mut vars = HashMap::new();
        for (var, dist) in wtable.iter() {
            let id = (space.add_variable(dist.iter().map(|(_, p)| *p).collect())).unwrap();
            let mut alts: Vec<(Value, usize)> = dist
                .iter()
                .map(|(value, _)| value.clone())
                .zip(0..)
                .collect();
            alts.sort_unstable();
            vars.insert(var.clone(), (id, alts));
        }
        let mut rows: Vec<&urel::URow> = relation.iter().collect();
        rows.sort_by(|a, b| a.tuple.cmp(&b.tuple));
        let batch: Vec<(Tuple, Vec<Condition>)> = (rows.chunk_by(|a, b| a.tuple == b.tuple))
            .map(|group| {
                let conditions = group.iter().map(|row| row.condition.clone()).collect();
                (group[0].tuple.clone(), conditions)
            })
            .collect();
        let (mut tuples, mut events) = (Vec::new(), Vec::new());
        for (t, conditions) in batch {
            let terms = conditions.iter().map(|c| {
                let pairs = c.iter().map(|(var, value)| {
                    let (id, alts) = &vars[var];
                    let at = alts.binary_search_by(|(v, _)| v.cmp(value)).unwrap();
                    (*id, alts[at].1)
                });
                Assignment::new(pairs).unwrap()
            });
            events.push(DnfEvent::new(terms.collect::<Vec<_>>()));
            tuples.push(t);
        }
        (space, tuples, events)
    }

    /// Domain values across variants, so a variable's sorted alternatives
    /// differ from its declaration order.
    fn domain_value(i: usize) -> Value {
        [
            Value::Int(3),
            Value::str("H"),
            Value::Int(-1),
            Value::float(0.5),
        ][i % 4]
            .clone()
    }

    /// Variable names whose byte order differs from their declaration order.
    const NAMES: [&str; 5] = ["x2", "x10", "a", "x1", "b0"];

    /// A W-table with one variable per weight list (alternative
    /// probabilities proportional to the weights), and a relation over it:
    /// each row a tuple with the literals `(variable, alternative)` that
    /// name a variable not named before in the row.
    fn build_case(weights: &[Vec<u8>], rows: &[(Vec<(usize, usize)>, i64)]) -> (WTable, URelation) {
        use pdb::{schema, tuple};
        let mut w = WTable::new();
        for (name, alts) in NAMES.iter().zip(weights) {
            let total: f64 = alts.iter().map(|&x| f64::from(x)).sum();
            let dist =
                (alts.iter().enumerate()).map(|(i, &x)| (domain_value(i), f64::from(x) / total));
            w.add_variable(Var::new(name), dist).unwrap();
        }
        let mut rel = URelation::empty(schema!["T"]);
        for (literals, t) in rows {
            let mut pairs: Vec<(Var, Value)> = Vec::new();
            for &(v, a) in literals {
                let v = v % weights.len();
                if pairs.iter().all(|(var, _)| var.name() != NAMES[v]) {
                    pairs.push((Var::new(NAMES[v]), domain_value(a % weights[v].len())));
                }
            }
            rel.insert(Condition::new(pairs).unwrap(), tuple![*t])
                .unwrap();
        }
        (w, rel)
    }

    /// `relation_events` against [`cloned_reference`]: equal tuples, equal
    /// events, and exact probabilities equal bit for bit.
    fn assert_matches_reference(
        wtable: &WTable,
        relation: &URelation,
    ) -> proptest::prelude::TestCaseResult {
        use proptest::prop_assert_eq;
        let cs = CompiledSpace::compile(wtable).unwrap();
        let batch = cs.relation_events(relation).unwrap();
        let (space, tuples, events) = cloned_reference(wtable, relation);
        prop_assert_eq!(cs.space(), &space);
        prop_assert_eq!(batch.tuples(), &tuples[..]);
        prop_assert_eq!(batch.events(), &events[..]);
        let reference = LineagePrograms::compile(events, &space).unwrap();
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(batch.programs().exact_probabilities().unwrap()),
            bits(reference.exact_probabilities().unwrap())
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

        /// Random relations — 1–5 variables of 1–4 alternatives, rows of
        /// 0–3 literals over tuples from a domain of four, so tuples repeat
        /// under several conditions — over a random table and over the
        /// table a `repair-key` extended it to.
        #[test]
        fn relation_events_match_the_cloning_reference(
            weights in proptest::collection::vec(proptest::collection::vec(1u8..10, 1..5), 1..6),
            rows in proptest::collection::vec(
                (proptest::collection::vec((0usize..5, 0usize..4), 0..4), 0i64..4),
                0..24,
            ),
            keyed in proptest::collection::vec((0i64..3, 0i64..4, 1i64..5), 1..10),
        ) {
            use pdb::{schema, tuple, Relation};
            use rand::SeedableRng;
            let (wtable, rel) = build_case(&weights, &rows);
            assert_matches_reference(&wtable, &rel)?;

            // `project[V](repairkey[K @ W](R))`: one variable per key,
            // and tuples of V that several keys' alternatives produce.
            let keyed = keyed.iter().map(|&(k, v, w)| tuple![k, v, w]);
            let r = Relation::new(schema!["K", "V", "W"], keyed).unwrap();
            let mut db = urel::UDatabase::from_complete_relations([("R", r)]);
            *db.wtable_mut() = wtable;
            let query = algebra::parse_query("project[V](repairkey[K @ W](R))").unwrap();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
            let out = crate::UEngine::new(crate::EvalConfig::exact())
                .evaluate(&db, &query, &mut rng)
                .unwrap();
            let extended = out.database.wtable();
            assert_matches_reference(extended, &out.result.relation)?;
            assert_matches_reference(extended, &rel)?;
        }
    }

    /// Names declared over the [`NAMES`] table, sorting before, between
    /// and after its names.
    const DECLARED: [&str; 4] = ["rk1:(0)", "x11", "b", "zz"];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

        /// The index of a table declared over a compiled one-layer table,
        /// as its extension and as a compilation from nothing: equal
        /// spaces, every variable with the same id and alternatives,
        /// unknown ones unknown to both, and a random relation over both
        /// layers with equal events and exact probabilities equal by
        /// `to_bits`.
        #[test]
        fn an_extended_index_matches_a_compiled_one(
            weights in proptest::collection::vec(proptest::collection::vec(1u8..10, 1..5), 1..6),
            declared in proptest::collection::vec(proptest::collection::vec(1u8..10, 1..5), 0..5),
            rows in proptest::collection::vec(
                (proptest::collection::vec((0usize..9, 0usize..4), 0..4), 0i64..4),
                0..16,
            ),
        ) {
            use pdb::{schema, tuple};
            use proptest::{prop_assert, prop_assert_eq};
            let (served, _) = build_case(&weights, &[]);
            let lower = Arc::new(SpaceIndex::compile(&served).unwrap());
            let mut table = served.clone();
            for (name, alts) in DECLARED.iter().zip(&declared) {
                let total: f64 = alts.iter().map(|&x| f64::from(x)).sum();
                let dist = (alts.iter().enumerate()).map(|(i, &x)| (domain_value(i), f64::from(x) / total));
                table.add_variable(Var::new(name), dist).unwrap();
            }
            prop_assert_eq!(table.lower_layer().is_some(), !declared.is_empty());
            let cache = SpaceCache::seeded(Arc::clone(&lower));
            let extended = cache.compiled(&table).unwrap();
            let compiled = CompiledSpace::compile(&table).unwrap();
            if !declared.is_empty() {
                prop_assert!(table.lower_layer().unwrap().shares_content(&served));
                prop_assert!(extended.index.extends(&lower));
            }
            prop_assert_eq!(extended.space(), compiled.space());
            for (var, _) in table.iter() {
                prop_assert_eq!(extended.index.lookup(var), compiled.index.lookup(var));
            }
            for ghost in ["a0", "x3", "zzz"] {
                prop_assert!(extended.index.lookup(&Var::new(ghost)).is_none());
            }

            let vars: Vec<(Var, Vec<Value>)> = (table.iter())
                .map(|(var, dist)| (var.clone(), dist.iter().map(|(v, _)| v.clone()).collect()))
                .collect();
            let mut rel = URelation::empty(schema!["T"]);
            for (literals, t) in &rows {
                let mut pairs: Vec<(Var, Value)> = Vec::new();
                for &(v, a) in literals {
                    let (var, domain) = &vars[v % vars.len()];
                    if pairs.iter().all(|(named, _)| named != var) {
                        pairs.push((var.clone(), domain[a % domain.len()].clone()));
                    }
                }
                rel.insert(Condition::new(pairs).unwrap(), tuple![*t]).unwrap();
            }
            let (a, b) = (extended.extract_events(&rel).unwrap(), compiled.extract_events(&rel).unwrap());
            prop_assert_eq!(a.tuples(), b.tuples());
            prop_assert_eq!(a.events(), b.events());
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(a.programs().exact_probabilities().unwrap()),
                bits(b.programs().exact_probabilities().unwrap())
            );
        }
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
