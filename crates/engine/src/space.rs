//! Bridging the named random variables of a U-relational database to the
//! index-based probability space the `confidence` crate estimates over,
//! with two serving-grade memos layered on top:
//!
//! * a **[`SpaceIndex`]**, the compiled W-table — the probability space
//!   and the name/value → index mappings that translate conditions into
//!   assignments.  It is a function of the table's content alone (Section
//!   3's `W(Var, Dom, P)` is a relation), so it is memoised with that
//!   content ([`WTable::derived`]), as a relation's digest and join index
//!   are with its rows: every table that shares the content — the served
//!   table and every request's and pooled prefix's clone of it — finds one
//!   index, compiled at most once, and an edit starts without it.  A
//!   request's `repair-key` declares above the served map, which its table
//!   keeps as a shared lower layer, and the index of that table *extends*
//!   the index in the lower layer's own memo: it maps the declared
//!   variables only and translates every served one through the served
//!   index, its id shifted to the variable's place in the whole table, so
//!   ids, translations and probabilities are those of a compile of the
//!   whole table;
//! * a **[`SpaceCache`]**, the lineage memo of one evaluation context, and
//!   so of a pooled prefix and every resume of it: the batch of DNF events
//!   of a whole relation ([`RelationEvents`]) is extracted once — from the
//!   relation's rows, borrowed, each condition translated straight into an
//!   assignment — **compiled into flat bit-parallel lineage programs**
//!   ([`confidence::LineagePrograms`]) and memoised by index and relation
//!   content, so repeated evaluations of a cached plan pay for estimation
//!   only — never for re-walking rows, re-translating conditions, or
//!   re-compiling event trees (the programs, and the exact probabilities
//!   the exact estimator memoises inside them, are the serving layer's warm
//!   estimator state).  The relation's half of the key,
//!   [`URelation::content_digest`], is hashed once per content and memoised
//!   with it, so a lookup on shared content (a pooled result and every
//!   request resuming it) is O(1) rather than a pass over the rows.  An
//!   exact `conf` skips the memo ([`CompiledSpace::extract_events`]): its
//!   result is pooled with its stateful spine, so nothing would look the
//!   batch up again, and it extracts straight through the `σ` / `π` / `ρ`
//!   chain lowering fused it with, in one pass over the chain's base.
//!
//! A [`CompiledSpace`] is the two together: a table's index and a handle
//! on the cache its batches are kept in.

use crate::error::{EngineError, Result};
use crate::ops::Chain;
use crate::sync::{LockRank, OrderedMutex};
use confidence::{Assignment, DnfEvent, LineagePrograms, ProbabilitySpace, VarId};
use pdb::{Tuple, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use urel::{Condition, URelation, Var, WTable};

/// Upper bound on distinct batches memoised per [`SpaceCache`]; reaching
/// it clears the cache (steady-state serving re-fills the handful of hot
/// entries immediately).
const LINEAGE_CACHE_CAP: usize = 1024;

/// The compiled W-table: the probability space plus the name/value → index
/// mappings needed to translate conditions into assignments.  Variable ids
/// follow the table's variable order.
///
/// An index can *extend* the index of its table's
/// [lower layer](WTable::lower_layer): it then maps only the variables
/// declared above that layer, and translates every other one through the
/// lower index, shifting its id to the variable's place in the whole
/// table.  A compile from nothing is the extension of nothing.
pub(crate) struct SpaceIndex {
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
    /// The index of `wtable`, memoised with its content: compiled on first
    /// use — a two-layer table as the extension of its lower layer's
    /// memoised index by its own variables — and shared by every table
    /// that shares the content.  A table that does not compile memoises
    /// its error.
    pub(crate) fn of(wtable: &WTable) -> Result<Arc<SpaceIndex>> {
        let memo = wtable.derived(|wtable| -> Result<Arc<SpaceIndex>> {
            let lower = (wtable.lower_layer().as_ref()).map(SpaceIndex::of);
            Ok(Arc::new(SpaceIndex::extend(lower.transpose()?, wtable)?))
        });
        memo.as_ref().clone()
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

/// A compiled view of a W-table: its [`SpaceIndex`], memoised with the
/// table, and a handle on the [`SpaceCache`] its lineage batches are kept
/// in.  Cheap to build: two pointer copies once the table is compiled.
#[derive(Clone)]
pub struct CompiledSpace {
    index: Arc<SpaceIndex>,
    cache: SpaceCache,
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
    /// The compiled space of a W-table: its memoised index (compiled now
    /// if nothing compiled the table's content before) with a lineage
    /// cache of its own.
    pub fn compile(wtable: &WTable) -> Result<CompiledSpace> {
        SpaceCache::new().compiled(wtable)
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

    /// True if both spaces keep their batches in one cache (test hook).
    #[cfg(test)]
    pub(crate) fn shares_cache(&self, other: &CompiledSpace) -> bool {
        Arc::ptr_eq(&self.cache.lineage, &other.cache.lineage)
    }

    /// The whole lineage batch of a relation — [`URelation::tuple_events`]
    /// plus condition translation plus compilation into bit-parallel lineage
    /// programs — memoised in the space's cache by index and relation
    /// content, so a warm re-execution of a cached plan never re-extracts,
    /// re-translates, or re-compiles.  The relation's half of the key is
    /// its memoised content digest: hashed once per content, then O(1) for
    /// every clone that shares it.
    pub fn relation_events(&self, relation: &URelation) -> Result<Arc<RelationEvents>> {
        let key = (Arc::as_ptr(&self.index) as usize, relation.content_digest());
        let mut memo = self.cache.lineage.lock();
        if let Some(hit) = memo.batches.get(&key).map(|(_, batch)| Arc::clone(batch)) {
            memo.hits += 1;
            return Ok(hit);
        }
        drop(memo);
        let entry = Arc::new(self.extract_events(relation)?);
        let mut memo = self.cache.lineage.lock();
        // A shared cache can outlive many evaluations (serving); bound it
        // so varying post-sampling relations cannot grow it forever.
        if memo.batches.len() >= LINEAGE_CACHE_CAP {
            memo.batches.clear();
        }
        // The index is kept beside its batches, so its address is not
        // reused while a key names it.
        (memo.batches).insert(key, (Arc::clone(&self.index), entry.clone()));
        Ok(entry)
    }

    /// The lineage batch of a relation, extracted and compiled as
    /// [`relation_events`](CompiledSpace::relation_events) does but with no
    /// memo: no content digest, nothing kept.  For a batch nobody looks up
    /// again — an exact `conf`'s, whose result is pooled with its stateful
    /// spine.  The empty chain's case of the one extraction pass,
    /// `chain_events`, which an exact `conf` runs through its fused chain.
    pub fn extract_events(&self, relation: &URelation) -> Result<RelationEvents> {
        self.chain_events(relation, &Chain::new(relation.schema().clone()))
    }

    /// The lineage batch of what `chain` makes of `relation`, with no memo:
    /// one scan of the rows in row order, each surviving row's chained
    /// tuple paired with its condition (borrowed); one stable sort of the
    /// pairs by tuple and the repeated pairs dropped; then each tuple's
    /// conditions translated into its event, and the batch compiled.  No
    /// relation is built between the links, and each distinct tuple is
    /// cloned at most once, into the batch.
    ///
    /// Rows come in `(condition, tuple)` order, so after the stable sort
    /// each tuple's conditions are in condition order, equal pairs sit
    /// side by side, and the batch is the one
    /// [`URelation::tuple_events`] gives over the relation the chain would
    /// materialise: the same tuples, each event's terms in the same order.
    pub(crate) fn chain_events(
        &self,
        relation: &URelation,
        chain: &Chain<'_>,
    ) -> Result<RelationEvents> {
        let mut pairs: Vec<(Cow<'_, Tuple>, &Condition)> = Vec::with_capacity(relation.len());
        for row in relation.iter() {
            if let Some(tuple) = chain.apply(&row.tuple)? {
                pairs.push((tuple, &row.condition));
            }
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup();
        let groups = pairs.chunk_by(|a, b| a.0 == b.0);
        let events = groups.map(|group| self.event(group.iter().map(|(_, c)| *c)));
        let events = events.collect::<Result<Vec<_>>>()?;
        // One pair per tuple is left, its tuple moved into the batch.
        pairs.dedup_by(|a, b| a.0 == b.0);
        let tuples = pairs.into_iter().map(|(t, _)| t.into_owned()).collect();
        let programs = Arc::new(
            LineagePrograms::compile(events, self.space()).map_err(EngineError::Confidence)?,
        );
        Ok(RelationEvents { tuples, programs })
    }

    /// Number of relations whose lineage batch the space's cache holds
    /// (over any table the cache's context compiled).
    pub fn lineage_len(&self) -> usize {
        self.cache.lineage.lock().batches.len()
    }

    /// Number of hits of the space's cache so far: requests served from an
    /// already extracted-and-compiled batch.  A warm serving resume of a
    /// confidence query must hit here — paying sampling only — rather than
    /// re-extract or re-compile.
    pub fn lineage_hits(&self) -> u64 {
        self.cache.lineage.lock().hits
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

/// The lineage memo of one evaluation context, shared by every
/// confidence-bearing operator of the evaluation and, through the serving
/// layer's pooled snapshots, by every warm resume of the same prefix.
/// A clone shares the memo.
///
/// A batch is keyed by the [`SpaceIndex`] it was translated with (a
/// pointer: an index is memoised with its table's content, so one content
/// has one index) and its relation's content digest.  The cache is
/// therefore safe to share with anyone, across evaluations and databases
/// alike.
#[derive(Clone, Debug)]
pub struct SpaceCache {
    lineage: Arc<OrderedMutex<Lineage>>,
}

/// A lineage batch's key: its index's address and its relation's
/// [`URelation::content_digest`].
type BatchKey = (usize, (u64, u64, usize));

/// What a [`SpaceCache`] holds under its one lock.
#[derive(Default)]
struct Lineage {
    /// Key → the index and the extracted batch.  Keying by digest instead
    /// of a relation clone keeps the cache from retaining copies of large
    /// relations.
    batches: HashMap<BatchKey, (Arc<SpaceIndex>, Arc<RelationEvents>)>,
    /// Lookups that found their batch.
    hits: u64,
}

impl Default for SpaceCache {
    fn default() -> Self {
        SpaceCache {
            lineage: Arc::new(OrderedMutex::new(
                LockRank::SpaceCache,
                "space.lineage",
                Lineage::default(),
            )),
        }
    }
}

impl SpaceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SpaceCache::default()
    }

    /// The compiled space of the W-table's current content — its memoised
    /// index ([`WTable::derived`]), compiled at most once per content —
    /// with its batches kept in this cache.
    pub fn compiled(&self, wtable: &WTable) -> Result<CompiledSpace> {
        Ok(CompiledSpace {
            index: SpaceIndex::of(wtable)?,
            cache: self.clone(),
        })
    }
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
    fn an_index_is_compiled_once_per_table_content() {
        let w = coin_wtable();
        let a = SpaceIndex::of(&w).unwrap();
        assert!(Arc::ptr_eq(&a, &SpaceIndex::of(&w).unwrap()));
        // A clone shares the content, and so the index; two caches over one
        // table share it too, each with a lineage memo of its own.
        assert!(Arc::ptr_eq(&a, &SpaceIndex::of(&w.clone()).unwrap()));
        let (one, two) = (SpaceCache::new(), SpaceCache::new());
        let x = one.compiled(&w).unwrap();
        assert!(Arc::ptr_eq(x.index(), &a));
        assert!(Arc::ptr_eq(two.compiled(&w).unwrap().index(), &a));

        // A separately built table is other content: an index of its own,
        // equal to the first.
        let separate = coin_wtable();
        let b = SpaceIndex::of(&separate).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.space(), b.space());

        // The same variable count over other probabilities is another
        // space, and so is a grown table; the original keeps its index.
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
        assert_ne!(SpaceIndex::of(&reweighted).unwrap().space(), a.space());
        let mut grown = w.clone();
        grown.add_bool_variable(Var::new("extra"), 0.5).unwrap();
        let c = SpaceIndex::of(&grown).unwrap();
        assert!(c.extends(&a));
        assert_eq!(c.space().num_variables(), 4);
        assert!(Arc::ptr_eq(&a, &SpaceIndex::of(&w).unwrap()));
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

    /// One step of [`a_memoised_index_matches_a_fresh_compile`], over
    /// indices into a growing list of tables.
    #[derive(Clone, Debug)]
    enum Step {
        Clone(usize),
        Declare(usize, usize, Vec<u8>),
        Merge(usize, usize),
        OneLayer(usize),
        Introduced(usize, usize),
        Segment(usize),
        Compile(usize),
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::strategy::Strategy;
        let weights = proptest::collection::vec(1u8..10, 1..4);
        (0usize..7, 0usize..16, 0usize..16, weights).prop_map(|(kind, a, b, weights)| match kind {
            0 => Step::Clone(a),
            1 => Step::Declare(a, b, weights),
            2 => Step::Merge(a, b),
            3 => Step::OneLayer(a),
            4 => Step::Introduced(a, b),
            5 => Step::Segment(a),
            _ => Step::Compile(a),
        })
    }

    /// `weights` as a distribution over [`domain_value`]s.
    fn dist(weights: &[u8]) -> impl Iterator<Item = (Value, f64)> + '_ {
        let total: f64 = weights.iter().map(|&x| f64::from(x)).sum();
        (weights.iter().enumerate()).map(move |(i, &x)| (domain_value(i), f64::from(x) / total))
    }

    /// A compile of `table` from nothing, memo aside: the extension of
    /// nothing.
    fn compile(table: &WTable) -> SpaceIndex {
        SpaceIndex::extend(None, table).unwrap()
    }

    /// The memoised index of `table` against a fresh [`compile`]: equal
    /// spaces, every variable with the same id and alternatives, unknown
    /// ones unknown to both, and a relation over the table (its `rows`
    /// literals name the table's variables by position) with equal events
    /// and exact probabilities equal by `to_bits`.
    fn assert_memo_matches_compile(
        table: &WTable,
        rows: &[(Vec<(usize, usize)>, i64)],
    ) -> proptest::prelude::TestCaseResult {
        use pdb::{schema, tuple};
        use proptest::{prop_assert, prop_assert_eq};
        let memoised = SpaceCache::new().compiled(table).unwrap();
        if let Some(lower) = table.lower_layer() {
            prop_assert!(memoised.index().extends(&SpaceIndex::of(&lower).unwrap()));
        }
        let fresh = CompiledSpace {
            index: Arc::new(compile(table)),
            cache: SpaceCache::new(),
        };
        prop_assert_eq!(memoised.space(), fresh.space());
        for (var, _) in table.iter() {
            prop_assert_eq!(memoised.index.lookup(var), fresh.index.lookup(var));
        }
        for ghost in ["a0", "x3", "zzz"] {
            prop_assert!(memoised.index.lookup(&Var::new(ghost)).is_none());
        }

        let vars: Vec<(Var, Vec<Value>)> = (table.iter())
            .map(|(var, dist)| (var.clone(), dist.iter().map(|(v, _)| v.clone()).collect()))
            .collect();
        let mut rel = URelation::empty(schema!["T"]);
        for (literals, t) in rows {
            let mut pairs: Vec<(Var, Value)> = Vec::new();
            for &(v, a) in literals.iter().filter(|_| !vars.is_empty()) {
                let (var, domain) = &vars[v % vars.len()];
                if pairs.iter().all(|(named, _)| named != var) {
                    pairs.push((var.clone(), domain[a % domain.len()].clone()));
                }
            }
            rel.insert(Condition::new(pairs).unwrap(), tuple![*t])
                .unwrap();
        }
        let (a, b) = (
            memoised.extract_events(&rel).unwrap(),
            fresh.extract_events(&rel).unwrap(),
        );
        prop_assert_eq!(a.tuples(), b.tuples());
        prop_assert_eq!(a.events(), b.events());
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(a.programs().exact_probabilities().unwrap()),
            bits(b.programs().exact_probabilities().unwrap())
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

        /// The memoised index stays the index of its table's content.  A
        /// table declared over a compiled one-layer table keeps it as its
        /// lower layer and extends its index; then random sequences of
        /// clones, declarations, merges, layer merges, `introduced_over`,
        /// segment round trips and compiles run over one- and two-layer
        /// tables, shared and unshared.  After each step the index of the
        /// table it wrote — and at the end every table's — matches a fresh
        /// compile ([`assert_memo_matches_compile`]).
        #[test]
        fn a_memoised_index_matches_a_fresh_compile(
            weights in proptest::collection::vec(proptest::collection::vec(1u8..10, 1..5), 1..6),
            declared in proptest::collection::vec(proptest::collection::vec(1u8..10, 1..5), 0..5),
            rows in proptest::collection::vec(
                (proptest::collection::vec((0usize..9, 0usize..4), 0..4), 0i64..4),
                0..16,
            ),
            steps in proptest::collection::vec(arb_step(), 0..24),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let (served, _) = build_case(&weights, &[]);
            let lower = SpaceIndex::of(&served).unwrap();
            let mut table = served.clone();
            for (name, alts) in DECLARED.iter().zip(&declared) {
                table.add_variable(Var::new(name), dist(alts)).unwrap();
            }
            prop_assert_eq!(table.lower_layer().is_some(), !declared.is_empty());
            if !declared.is_empty() {
                prop_assert!(table.lower_layer().unwrap().shares_content(&served));
                prop_assert!(SpaceIndex::of(&table).unwrap().extends(&lower));
            }
            assert_memo_matches_compile(&table, &rows)?;

            let mut tables = vec![served, table];
            for step in &steps {
                let n = tables.len();
                let written = match step {
                    Step::Clone(a) => {
                        tables.push(tables[a % n].clone());
                        n
                    }
                    Step::Declare(a, b, alts) => {
                        let name = format!("{}{}", DECLARED[b % DECLARED.len()], b / 4);
                        let _ = tables[a % n].add_variable(Var::new(name), dist(alts));
                        a % n
                    }
                    Step::Merge(a, b) => {
                        let other = tables[b % n].clone();
                        let _ = tables[a % n].merge(&other);
                        a % n
                    }
                    Step::OneLayer(a) => {
                        let one = std::mem::take(&mut tables[a % n]).into_one_layer();
                        tables[a % n] = one;
                        a % n
                    }
                    Step::Introduced(a, b) => {
                        tables.push(tables[a % n].introduced_over(&tables[b % n]));
                        n
                    }
                    Step::Segment(a) => {
                        let mut bytes = Vec::new();
                        urel::segment::put_wtable(&mut bytes, &tables[a % n]);
                        let decoded = urel::segment::SegmentCursor::new(&bytes).take_wtable();
                        tables.push(decoded.unwrap());
                        n
                    }
                    Step::Compile(a) => {
                        SpaceIndex::of(&tables[a % n]).unwrap();
                        a % n
                    }
                };
                assert_memo_matches_compile(&tables[written], &rows)?;
            }
            for table in &tables {
                assert_memo_matches_compile(table, &rows)?;
            }
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
