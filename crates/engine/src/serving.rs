//! The serving layer: workload-level query evaluation at steady-state
//! estimation cost.
//!
//! A [`ServingEngine`] binds a [`UEngine`](crate::UEngine) configuration to
//! one database and serves query *text*.  Three caches stack up:
//!
//! 1. one **query cache** mapping request text, per effective
//!    configuration, straight to a prepared query: its [`PhysicalPlan`],
//!    lowered against the engine configuration, together with its *prefix
//!    profile* (sub-plan digests, relation footprints, the deterministic
//!    prefix and its stateful spine).  A query's normalized text (its
//!    canonical `Display` form) is its identity and every other spelling is
//!    an alias of the same entry, so a repeated query, however spelled, is
//!    parsed, validated and lowered once;
//! 2. a cross-query **snapshot pool**: the deterministic prefix of every
//!    prepared query (relational operators, repair-key, exact confidence,
//!    lineage extraction, W-table compilation) is executed once and its
//!    results stored *per sub-plan*, content-addressed by
//!    [`SubplanDigest`] — so a hot join shared by
//!    many prepared queries is executed once and resumed by all of them,
//!    and the first evaluation of a new query whose prefix another query
//!    already warmed never runs cold (past an eager budget the pool admits
//!    only prefixes and results it has seen before, so never-repeated
//!    queries stop filling it);
//! 3. inside each pooled prefix, the memoised [`SpaceCache`] /
//!    lineage-batch caches of the `space` module, shared by every resume
//!    (a compiled space is found by its W-table's content) —
//!    including the **compiled lineage programs**
//!    ([`confidence::LineagePrograms`]) the bit-parallel Monte Carlo
//!    estimators sample through and the exact probabilities the exact
//!    estimator memoises inside them, so a warm `aconf` request pays
//!    sampling only (and a warm `conf`/`cert` request pays lookups only):
//!    event trees are never re-walked or re-compiled per request.  The
//!    cache key is the input relation's content digest, which the pooled
//!    result memoises with its content, so with shared sampling on (tallies
//!    reused across requests) a warm `aconf` hashes nothing either — it is
//!    a lookup, like a warm `conf`.
//!
//! Snapshot identity is "sub-plan × relation footprint", not "query":
//! pool entries are keyed by the *stateful spine* of the prefix (the ordered
//! repair-key / exact-confidence nodes, which determine every context
//! effect — introduced variables, statistics, compiled spaces), and each
//! stored sub-plan result records the set of base relations it scans.
//! Content commits exploit both.  Every content change is a *delta*:
//! [`ServingEngine::apply_deltas`] takes [`urel::RelationDelta`]s
//! (insert/delete row sets against a digest-pinned base) and
//! [`ServingEngine::update_relations`] takes whole replacements and derives
//! the net delta itself; both end in one commit routine.  A commit to
//! relation `R` writes the new content once — into the served database, as
//! a new row set: whoever shares the old rows keeps them.  Pool entries
//! hold what their spine *added* (the W-table `repair-key` left behind),
//! never relation content of their own; a pooled scan result is a pointer
//! copy of the relation the capturing request scanned.  The commit drops
//! whole entries only when `R` feeds their
//! stateful spine, and patches the pooled sub-plan results whose footprint
//! contains `R` **in place** through the incremental operator rules of
//! [`crate::delta`], so the
//! re-warm cost is proportional to the delta rather than to the sub-plans
//! it touches; slots the rules cannot cover (and deltas large relative to
//! their base — a replacement that rewrites most of a relation) are demoted
//! and recomputed by the next warm resume.  Every other prepared query
//! stays at warm-path cost.  [`ServingEngine::set_database`] remains the
//! full-swap path that drops everything (required for schema changes).
//!
//! Warm and cold requests are one path: both read the served database,
//! the content epoch and their spine's pool entry as one consistent cut
//! (one read lock of the served state, which holds all three) and
//! [resume](PhysicalPlan::resume) a snapshot over them — the pooled prefix,
//! or the plan's empty snapshot on a cold start.  Relation and W-table
//! content is shared, copy-on-write, inside `urel`, so a request starts
//! without copying content: its database is a clone of the served one
//! (pointer copies) with the entry's W-table assigned, and a scan, a slot
//! hand-off, a pool absorb and the pool → run hand-off — which gives the
//! executor the entry's results for the plan's prefix nodes plus the
//! entry's effects — are pointer copies too.  The executor derives what is left to run from
//! which results are present (`PhysicalPlan::snapshot_from`): a wanted pure
//! result the entry lacks is recomputed (and re-absorbed), a wanted
//! stateful one makes the lookup a miss, an unwanted one is not missed.
//! Warm results are bit-identical to what a cold evaluation with the same
//! RNG state would produce: the snapshot restores slots, variable counter
//! and statistics, all exactly as the sequential schedule would have left
//! them at the sampling frontier, and sampling operators derive all
//! randomness from the caller's RNG as usual.  Sub-plan sharing preserves
//! this because entries are only shared between prefixes with identical
//! stateful spines — the per-index sub-RNG discipline of the estimation
//! layer is never disturbed by where the prefix values came from.
//!
//! # Concurrency
//!
//! Every serving method takes `&self`: any number of sessions — see
//! [`ServingEngine::session`] — evaluate concurrently over one shared
//! engine.  Two locks guard everything shared, both **read-mostly**: the
//! query cache, and the served state — the database, its content epoch and
//! the snapshot pool, behind one lock.  Lookups clone `Arc`-held entries
//! under short read locks (a warm `prepare` is one read lock of the query
//! cache and one hash of the text; a request's admission peek and its
//! start are one read lock of the served state each, the start covering the
//! database clone, the epoch and an entry lookup), all other work
//! (parsing, lowering, prefix resolution, execution, estimation) runs with
//! *no* engine lock held, and every mutation path —
//! [`update_relations`](ServingEngine::update_relations) /
//! [`apply_deltas`](ServingEngine::apply_deltas) commits, pool absorbs —
//! rewrites shared entries **copy-on-write** (`Arc::make_mut` on the entry,
//! whose slot values are themselves pointer copies), so an
//! in-flight reader keeps the immutable entry it resolved.
//!
//! Admission control bounds how many requests execute at once
//! ([`ServingLimits::max_in_flight`]), and a separate, tighter gate bounds
//! *cold* prepares ([`ServingLimits::max_cold_in_flight`]).  A cold request
//! acquires its cold permit **before** the admission permit, so a burst of
//! never-seen queries queues behind the cold gate without occupying
//! admission slots — warm traffic keeps flowing.  A request admitted as
//! warm whose pool entry vanishes before resolution (an invalidation just
//! dropped a hot prefix) re-enters through the cold gate — releasing its
//! admission slot first, to keep the cold-before-admission permit order —
//! so even an invalidation stampede stays bounded by the cold gate.
//! Per-request ε/δ and deadline budgets ride on [`Request`]; a deadline is
//! checked while queued and again before execution, failing fast with
//! [`EngineError::DeadlineExceeded`].
//!
//! Determinism survives concurrency because warm ≡ cold: a request's answer
//! depends only on its text, the database content, and its own RNG state —
//! never on which warm state other sessions happened to leave in the pool.
//! Races over pool contents can change *cost* (a resolve may miss state a
//! concurrent request is still absorbing), not *answers*.  Commits enforce
//! this against in-flight evaluations with a database **epoch**: every
//! content commit bumps it in the same write of the served state that
//! maintains the pool, every capturing evaluation records it when it reads
//! its inputs, and an absorb whose recorded epoch is no longer current
//! drops its snapshot instead of pooling it
//! ([`ServingStats::stale_absorbs_dropped`]) — results computed from
//! pre-commit content can never re-enter the pool behind the commit's
//! maintenance pass.  The catalog needs no epoch of its own: the query
//! cache holds the catalog its entries were validated against, a cold
//! `prepare` lowers against that `Arc` with no lock held and installs its
//! entry only while the cache still holds the same `Arc`, so a plan lowered
//! against a catalog that [`set_database`](ServingEngine::set_database)
//! replaced mid-prepare is lowered again rather than served.
//!
//! # Checkpoints
//!
//! [`ServingEngine::checkpoint`] persists the served state as a directory of
//! digest-verified segment files (see `engine::storage` for the framing):
//! the W-table, the relation catalog, one segment per relation, and one
//! *warm* segment per poolable deterministic-prefix snapshot (its introduced
//! variables, counters and sub-plan results — relation content is written
//! once, in the relation segments), all recorded — length and digest pair —
//! in a `MANIFEST` segment written last.
//! [`ServingEngine::restore`] rebuilds a server from such a directory and
//! re-seeds the snapshot pool from the warm segments, so the restarted
//! process answers its first requests at warm cost without re-preparing.
//! Restores verify everything before serving any of it: a missing, truncated
//! or bit-flipped segment fails the whole restore with a classified
//! [`EngineError::Storage`] — the caller falls back to a cold start — and a
//! restored-warm evaluation is bit-identical to a cold evaluation over the
//! same database at the same RNG state (warm segments that do not match the
//! restoring configuration are skipped, never coerced).
//!
//! ```
//! use engine::{EvalConfig, ServingEngine};
//! use pdb::{relation, schema};
//! use rand::SeedableRng;
//! use urel::UDatabase;
//!
//! let db = UDatabase::from_complete_relations([
//!     ("Coins", relation![schema!["CoinType", "Count"]; ["fair", 2], ["2headed", 1]]),
//! ]);
//! let serving = ServingEngine::new(EvalConfig::exact(), db).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let q = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
//! let cold = serving.evaluate(q, &mut rng).unwrap();
//! let warm = serving.evaluate(q, &mut rng).unwrap();   // served from the pool
//! assert_eq!(cold.result.relation, warm.result.relation);
//! assert_eq!(serving.stats().warm_evaluations, 1);
//! ```

use crate::adaptive_query::catalog_of;
use crate::delta::DeltaInput;
use crate::error::{EngineError, Result};
use crate::exec::{
    config_digest, ConfidenceMode, EvalConfig, EvalOutput, EvalStats, EvaluatedRelation,
};
use crate::faults::splitmix64;
use crate::physical::{
    ExecContext, ExecSnapshot, OpClass, PhysicalNode, PhysicalPlan, PrefixEffects,
};
use crate::space::SpaceCache;
use crate::sync::{HeldRank, LockRank, OrderedCondvar, OrderedMutex, OrderedRwLock};
use algebra::{Catalog, LogicalPlan, SubplanDigest};
use confidence::EventBounds;
use pdb::Tuple;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urel::{RelationDelta, UDatabase, URelation, URow, WTable};

/// Upper bound on query-cache entries — normalized texts plus raw-text
/// aliases, over every configuration.  Each prepared query holds a lowered
/// physical plan and a prefix profile (prefix state lives in the pool).  At
/// the bound the aliases go first — they only spare a re-parse — and only
/// if the prepared queries alone still fill it is the cache cleared;
/// evicted queries re-prepare and find their prefix still pooled.
const PREPARED_CAP: usize = 1024;

/// Upper bound on pooled prefix entries; each holds the post-spine W-table
/// plus the live sub-plan results of one stateful spine.  Reaching it clears
/// the pool — steady-state serving re-warms the hot entries on the next
/// requests.  Since [admission](SnapshotPool::absorb) turned selective the
/// wipe is only the hard bound on *repeated* spines: a stream of
/// never-repeated texts no longer reaches it.  Still not one entry at a
/// time: oldest-inserted-first eviction was re-applied and measured on
/// `uabench`'s `cold_adhoc` (a stream of never-repeated queries, so every
/// cold request then frees one pooled prefix).  Its median latency went to
/// 1.6–1.9× the parent's (five alternating triples, bound 1.25×) where this
/// wipe gives 0.6×; even with request databases sharing the served rows,
/// which makes an entry cheaper, it was 1.18×.  What an entry owns
/// privately — intermediate sub-plan results, its compiled W-table space,
/// lineage programs and exact caches, the scanned row sets of its capturing
/// request's database — makes dropping one cost a few hundred µs, and a
/// pool that is always full keeps the heap full of interleaved lifetimes,
/// which slows every request.
const POOL_CAP: usize = 256;

/// Pooled sub-plan results below which the pool admits a new spine entry or
/// a new slot on its first sighting; at or past it, only on its second (see
/// [`SnapshotPool::absorb`]).  Small repeated mixes never reach it, so they
/// are warm from their first repeat exactly as with unconditional pooling.
/// Measured on `uabench`'s `cold_adhoc` (ten alternating pairs, seeds
/// 301–310, 20 s windows): `peak_rss_mb` median 264 → 72 MiB, throughput
/// ×1.33 (no 256-entry wipe to pay for), p50 flat, p90 +7 %.  Two
/// alternatives were measured and rejected: admitting on second sighting
/// only (no eager budget) makes every primed shape run cold once more after
/// the client's read log is allocated — `estimation_mix` `peak_rss_mb`
/// 22.1 → 26.4, `warm_serve` +8 %; and admitting everything but wiping
/// never-hit entries still builds and drops every one-off entry and wipes
/// the shared ones — `cold_adhoc` throughput ×0.85, p90 +47 %.
const EAGER_SUBPLANS: usize = 256;

/// Sightings the pool remembers before it forgets them all at once (a
/// digest then needs two fresh sightings again).
const SIGHTINGS_CAP: usize = 4 * POOL_CAP;

/// Counters describing how the serving caches are performing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Evaluations that executed the deterministic prefix from scratch (an
    /// admitted one populates the snapshot pool, see `EAGER_SUBPLANS`).
    pub cold_evaluations: u64,
    /// Evaluations resumed from the snapshot pool (estimation-only cost,
    /// plus recomputation of any sub-plans an update invalidated).
    pub warm_evaluations: u64,
    /// Query-cache hits: requests answered by an already prepared query,
    /// found by their text or, after a parse, by its normalized form (an
    /// alternative spelling).  A prepared query is specific to its
    /// effective configuration, so the first request of a known text under
    /// a new accuracy override is a miss.
    pub plan_cache_hits: u64,
    /// Query-cache misses: requests whose text had to be validated and
    /// lowered (those that then fail validation included).
    pub plan_cache_misses: u64,
    /// First evaluations of a query served warm because another prepared
    /// query had already pooled the shared prefix (a subset of
    /// `warm_evaluations`).
    pub shared_prefix_hits: u64,
    /// Pool entries dropped by a content commit
    /// ([`ServingEngine::update_relations`] or
    /// [`ServingEngine::apply_deltas`]) because a changed relation fed
    /// their stateful spine.
    pub snapshots_invalidated: u64,
    /// Pooled sub-plan results (inside surviving entries) demoted by a
    /// commit that arrived through [`ServingEngine::update_relations`]: the
    /// replacement's net delta was too large to patch, or no incremental
    /// rule applied.  The `apply_deltas` counterpart is
    /// `subplans_demoted`.
    pub subplans_invalidated: u64,
    /// Pure sub-plans recomputed during warm resumes because their pooled
    /// result was missing (invalidated by an update, or never produced by
    /// the query that pooled the prefix).  Each recomputed result is
    /// absorbed back into the pool, so a given sub-plan is recomputed at
    /// most once per invalidation.
    pub subplans_recomputed: u64,
    /// Relations whose content actually changed across all
    /// [`ServingEngine::update_relations`] and
    /// [`ServingEngine::apply_deltas`] calls (net no-ops — an empty row
    /// delta — are skipped).
    pub relation_updates: u64,
    /// Pooled sub-plan results *patched in place* by a content commit
    /// (through either entry point) by the incremental operator rules of
    /// [`crate::delta`] — their entries stayed warm without any
    /// recomputation.
    pub subplans_patched: u64,
    /// Pooled sub-plan results a commit that arrived through
    /// [`ServingEngine::apply_deltas`] had to demote (drop for
    /// recomputation on the next warm resume) because no incremental rule
    /// applied: the delta was large relative to its base, the operator has
    /// no rule (product, difference), or a result the patch needed was
    /// already missing.
    pub subplans_demoted: u64,
    /// Captured snapshots dropped instead of pooled because a database
    /// commit landed while the capturing evaluation was in flight — the
    /// results were computed from a database version the pool's
    /// invalidation pass has already moved past.  Pure cost, never a
    /// correctness event: the evaluation's own answer is still served, and
    /// the next request of that prefix re-warms from current content.
    pub stale_absorbs_dropped: u64,
    /// Transient-error retries issued by [`ServingSession`] retry loops
    /// (see [`RetryPolicy`]).
    pub retries: u64,
    /// Pool entries dropped because an evaluation using them panicked: the
    /// panicking run's prefix entry is quarantined (removed) while the
    /// engine stays serviceable; the next request of that prefix re-warms
    /// it from scratch.
    pub entries_quarantined: u64,
    /// Requests answered in degraded mode — guaranteed `[lower, upper]`
    /// confidence bounds instead of an (ε, δ) estimate — because their
    /// deadline expired mid-sampling or the cold gate was saturated (see
    /// [`ServingEngine::evaluate_degradable`]).
    pub degraded_answers: u64,
    /// Approximate-confidence events answered *exactly* by the compiled
    /// d-DNNF backend (seed-independent, zero samples drawn) because the
    /// cost model priced compilation below the Chernoff sampling bill (see
    /// [`EvalConfig::exact_backend_node_budget`]).
    pub exact_compiled_answers: u64,
    /// Approximate-confidence events answered by Karp–Luby sampling —
    /// the complement of `exact_compiled_answers` among non-trivial
    /// estimated events.
    pub sampled_answers: u64,
    /// Estimated events served from the shared block scheduler's
    /// previously drawn tallies instead of re-running the sampler (see
    /// [`EvalConfig::shared_sampling`]).
    pub shared_block_hits: u64,
}

/// Everything the pool needs to know about one prepared query's
/// deterministic prefix, computed once at preparation time.
struct PrefixProfile {
    /// Pool key: hash of the lowering configuration plus the ordered
    /// sub-plan digests of the stateful spine.  Equal keys imply equal
    /// context effects (introduced variables, counter, statistics, compiled
    /// spaces) for prefixes executed over the same database.
    fingerprint: (u64, u64),
    /// [`config_digest`] of the lowering configuration; pool entries record
    /// it so a checkpoint can tell base-configuration entries apart.
    config_digest: u64,
    /// Per-node content digests ([`LogicalPlan::subplan_digests`]).
    digests: Vec<SubplanDigest>,
    /// Per-node relation footprints ([`LogicalPlan::subplan_footprints`]).
    footprints: Vec<Arc<BTreeSet<String>>>,
    /// The deterministic prefix ([`PhysicalPlan::prefix_done_flags`]).
    done: Vec<bool>,
    /// Union footprint of the stateful spine: an update touching it makes
    /// the pooled effects stale, so the whole entry must go.
    stateful_footprint: BTreeSet<String>,
}

impl PrefixProfile {
    fn new(plan: &LogicalPlan, physical: &PhysicalPlan, config_digest: u64) -> PrefixProfile {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let digests = plan.subplan_digests();
        let footprints: Vec<Arc<BTreeSet<String>>> = plan
            .subplan_footprints()
            .into_iter()
            .map(Arc::new)
            .collect();
        let done = physical.prefix_done_flags();
        let spine = physical.stateful_prefix();
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        0x9E37_79B9_7F4A_7C15_u64.hash(&mut h2);
        config_digest.hash(&mut h1);
        config_digest.hash(&mut h2);
        let mut stateful_footprint = BTreeSet::new();
        for &id in &spine {
            digests[id].hash(&mut h1);
            digests[id].hash(&mut h2);
            stateful_footprint.extend(footprints[id].iter().cloned());
        }
        PrefixProfile {
            fingerprint: (h1.finish(), h2.finish()),
            config_digest,
            digests,
            footprints,
            done,
            stateful_footprint,
        }
    }
}

/// One prepared query: its normalized text, its lowered physical plan, its
/// prefix profile, and how often it has been evaluated.  Prepared entries
/// are `Arc`-shared across sessions; the evaluation counter is the only
/// mutable part.
struct PreparedQuery {
    /// The normalized text: the query's identity in the query cache, and
    /// the creator its pool entries and their checkpoint segments record.
    key: Arc<str>,
    physical: PhysicalPlan,
    profile: PrefixProfile,
    evaluations: AtomicU64,
}

/// One pooled sub-plan result: the evaluated relation plus the base
/// relations its sub-plan scans (the invalidation unit).
#[derive(Clone)]
struct PooledSlot {
    value: EvaluatedRelation,
    footprint: Arc<BTreeSet<String>>,
}

/// One committed relation-content change as the pool maintenance consumes
/// it: the relation's name, plus the net row delta when it is small enough
/// to patch pooled results in place (`None` demotes every intersecting slot
/// for recomputation on the next warm resume).
struct DeltaUpdate {
    name: String,
    patch: Option<RelationDelta>,
}

/// Whether patching pooled sub-plan results in place is worthwhile for a
/// net delta of `magnitude` row edits against a base of `base_rows`: tiny
/// deltas always are, and beyond that the bookkeeping of the incremental
/// rules should stay well below a recompute of the base.  Past the bound
/// the commit falls back to demote-and-recompute.
fn patch_worthwhile(magnitude: usize, base_rows: usize) -> bool {
    magnitude <= 8 || magnitude * 2 <= base_rows
}

/// A pool lookup that succeeded: the snapshot to resume, how many pure
/// sub-plans the resume recomputes because the query wants their results
/// and the entry does not hold them, and whether the entry was created by a
/// *different* query (genuine cross-query sharing).
struct ResolvedPrefix {
    snapshot: ExecSnapshot,
    recomputed: u64,
    shared: bool,
}

/// What a request starts from ([`ServingEngine::start`]): its own database
/// (a clone of the served one over the resolved prefix's W-table, or the
/// base table on a cold start), the content epoch it was read at, and the
/// pooled prefix of the query's spine when one resolved (`None` is a cold
/// start).
struct Start {
    database: UDatabase,
    epoch: u64,
    resolved: Option<ResolvedPrefix>,
}

/// The shared prefix of every prepared query with one stateful spine: the
/// context effects of executing that spine — what it *added* to the
/// database it ran over, never that database's content — plus the
/// content-addressed live results of the prefix sub-plans (of *all* queries
/// that share the spine).  Its `Clone` is the copy-on-write clone
/// `Arc::make_mut` runs when a mutation hits an entry a concurrent reader
/// still holds: pointer copies throughout, the space cache included.
#[derive(Clone)]
struct PoolEntry {
    /// Normalized key of the query whose cold execution created the entry;
    /// used to tell genuine cross-query sharing apart from a query finding
    /// its own pooled prefix again (e.g. after prepared-cache eviction).
    creator: Arc<str>,
    /// [`config_digest`] of the configuration the entry was pooled under.
    config_digest: u64,
    effects: PrefixEffects,
    slots: HashMap<SubplanDigest, PooledSlot>,
    stateful_footprint: BTreeSet<String>,
}

/// The cross-query snapshot pool.  Entries are `Arc`-held: readers resolve
/// against an entry clone taken under the served state's read lock,
/// mutators rewrite entries copy-on-write.  What it keeps is decided by
/// [`absorb`](SnapshotPool::absorb) from the sighting set: the spine
/// fingerprints and slot digests of every capture absorbed since the last
/// clear.
#[derive(Default)]
struct SnapshotPool {
    entries: HashMap<(u64, u64), Arc<PoolEntry>>,
    sightings: HashSet<(u64, u64)>,
}

fn intersects(a: &BTreeSet<String>, b: &BTreeSet<String>) -> bool {
    if a.len() > b.len() {
        return intersects(b, a);
    }
    a.iter().any(|x| b.contains(x))
}

impl SnapshotPool {
    /// The `Arc`-held entry for a prefix fingerprint, if pooled.  Callers
    /// clone the `Arc` under the served state's read lock and resolve
    /// against it with [`resolve_prefix`] *after* dropping the lock —
    /// resolution never blocks the pool.
    fn entry(&self, fingerprint: &(u64, u64)) -> Option<Arc<PoolEntry>> {
        self.entries.get(fingerprint).cloned()
    }
}

/// Hands the executor what one pool entry holds for a prepared query: the
/// pooled results of the plan's prefix nodes and the entry's effects, all
/// pointer copies — the resume shares the entry's space cache.  The
/// executor derives what is left to run
/// ([`PhysicalPlan::snapshot_from`]): wanted pure results the entry lacks
/// (never computed for it, or dropped by an update) are recomputed from the
/// served database during the resume; a wanted *stateful* result it lacks
/// turns the lookup into a miss.
fn resolve_prefix(entry: &PoolEntry, prepared: &PreparedQuery) -> Option<ResolvedPrefix> {
    let pooled = |id: usize| {
        let slot = entry.slots.get(&prepared.profile.digests[id])?;
        Some(slot.value.clone())
    };
    let (snapshot, recomputed) =
        (prepared.physical).snapshot_from(pooled, entry.effects.clone())?;
    Some(ResolvedPrefix {
        snapshot,
        recomputed,
        shared: entry.creator != prepared.key,
    })
}

impl SnapshotPool {
    /// Stores the live sub-plan results of a freshly captured prefix
    /// snapshot, creating the spine's entry if this is the first query to
    /// execute it.  Results already present are kept (they are equal by
    /// construction: same spine, same database).
    ///
    /// One admission rule covers both units stored — a new spine entry and
    /// a new slot in an existing entry: while the pool holds fewer than
    /// [`EAGER_SUBPLANS`] sub-plan results it is admitted on its first
    /// sighting, past that only on its second.  Every digest of the capture
    /// is sighted, admitted or not; a declined spine drops the whole
    /// capture, a declined slot is simply not stored.  Either way only cost
    /// changes: the next request of that prefix runs (or recomputes) it
    /// again.  Admitted digests stay sighted, so a slot a commit demoted
    /// re-absorbs on its first recompute.
    fn absorb(&mut self, prepared: &PreparedQuery, snapshot: &ExecSnapshot) {
        let profile = &prepared.profile;
        let eager = self.subplans() < EAGER_SUBPLANS;
        if self.sightings.len() >= SIGHTINGS_CAP {
            self.sightings.clear();
        }
        let sightings = &mut self.sightings;
        // Records the sighting, then admits a repeat always, a first only
        // under the budget.
        let mut admit = |digest| !sightings.insert(digest) || eager;
        let pooled = self.entries.contains_key(&profile.fingerprint);
        let spine = admit(profile.fingerprint) || pooled;
        let slots: Vec<(usize, &EvaluatedRelation)> = snapshot
            .live_slots()
            .filter(|&(id, _)| admit(profile.digests[id]))
            .collect();
        if !spine {
            return;
        }
        if !pooled && self.entries.len() >= POOL_CAP {
            self.entries.clear();
        }
        let entry = self.entries.entry(profile.fingerprint).or_insert_with(|| {
            Arc::new(PoolEntry {
                creator: prepared.key.clone(),
                config_digest: profile.config_digest,
                effects: snapshot.effects().clone(),
                slots: HashMap::new(),
                stateful_footprint: profile.stateful_footprint.clone(),
            })
        });
        // Copy-on-write: a fresh entry is mutated in place (`make_mut` is a
        // no-op on a unique Arc); an entry a concurrent reader holds is
        // cloned shallowly first, leaving the reader's view intact.
        let entry = Arc::make_mut(entry);
        for (id, value) in slots {
            entry
                .slots
                .entry(profile.digests[id])
                .or_insert_with(|| PooledSlot {
                    value: value.clone(),
                    footprint: profile.footprints[id].clone(),
                });
        }
    }

    /// Sub-plan results pooled across all entries.
    fn subplans(&self) -> usize {
        self.entries.values().map(|e| e.slots.len()).sum()
    }

    /// Applies committed relation-content changes: entries whose stateful
    /// spine scans a changed relation drop (their context effects are
    /// stale); in surviving entries the
    /// footprint-intersecting sub-plan results are *patched in place* by
    /// the incremental operator rules of [`crate::delta`] wherever an
    /// update carries a row delta and a rule applies, and demoted (dropped,
    /// recomputed lazily on the next warm resume) everywhere else.  Returns
    /// `(entries_dropped, slots_patched, slots_demoted)`.
    fn patch(&mut self, updates: &[DeltaUpdate], plans: &[Arc<PreparedQuery>]) -> (u64, u64, u64) {
        let changed: &BTreeSet<String> = &updates.iter().map(|u| u.name.clone()).collect();
        let mut entries_dropped = 0;
        let mut slots_patched = 0;
        let mut slots_demoted = 0;
        self.entries.retain(|fingerprint, entry| {
            if intersects(&entry.stateful_footprint, changed) {
                entries_dropped += 1;
                return false;
            }
            let entry = Arc::make_mut(entry);
            let (patched, demoted) = patch_entry_slots(entry, fingerprint, changed, updates, plans);
            slots_patched += patched;
            slots_demoted += demoted;
            true
        });
        (entries_dropped, slots_patched, slots_demoted)
    }
}

/// The result of delta maintenance for one pooled sub-plan.
enum SlotOutcome {
    /// The slot's relation was rewritten in place; the stored row sets are
    /// the edit of the *output* (inserted, deleted), which consumers take
    /// as their input delta.
    Patched(BTreeSet<URow>, BTreeSet<URow>),
    /// No incremental rule applied; the slot was dropped and the next warm
    /// resume recomputes it (and, transitively, anything consuming it).
    Demoted,
}

/// Patches (or demotes) every footprint-intersecting sub-plan result of one
/// surviving pool entry, driving the incremental rules along the prepared
/// plans that share the entry's stateful spine.  Nodes are visited in
/// topological order, so each node's input deltas are resolved before the
/// node itself; sub-plans shared by several prepared queries are
/// content-addressed and therefore processed once.
fn patch_entry_slots(
    entry: &mut PoolEntry,
    fingerprint: &(u64, u64),
    changed: &BTreeSet<String>,
    updates: &[DeltaUpdate],
    plans: &[Arc<PreparedQuery>],
) -> (u64, u64) {
    let mut outcomes: HashMap<SubplanDigest, SlotOutcome> = HashMap::new();
    let mut patched = 0u64;
    let mut demoted = 0u64;
    let no_rows: BTreeSet<URow> = BTreeSet::new();
    for prepared in plans {
        let profile = &prepared.profile;
        if profile.fingerprint != *fingerprint {
            continue;
        }
        for (id, node) in prepared.physical.nodes().iter().enumerate() {
            if !profile.done[id] || !intersects(&profile.footprints[id], changed) {
                continue;
            }
            let digest = profile.digests[id];
            if outcomes.contains_key(&digest) {
                continue;
            }
            match try_patch_slot(entry, node, id, profile, updates, &outcomes, &no_rows) {
                Some((new, inserted, deleted)) => {
                    let slot = entry
                        .slots
                        .get_mut(&digest)
                        .expect("try_patch_slot read this slot");
                    slot.value.relation = new;
                    patched += 1;
                    outcomes.insert(digest, SlotOutcome::Patched(inserted, deleted));
                }
                None => {
                    if entry.slots.remove(&digest).is_some() {
                        demoted += 1;
                    }
                    outcomes.insert(digest, SlotOutcome::Demoted);
                }
            }
        }
    }
    // Intersecting slots no prepared plan covers (their query was evicted
    // from the query cache) cannot be patched: demote them.
    entry.slots.retain(|digest, slot| {
        let keep = outcomes.contains_key(digest) || !intersects(&slot.footprint, changed);
        if !keep {
            demoted += 1;
        }
        keep
    });
    (patched, demoted)
}

/// Attempts to patch one sub-plan result in place, returning the new
/// relation and its output row edit (inserted, deleted), or `None` when the
/// slot must be demoted instead.  Every `None` is safe by construction:
/// demotion falls back to the recompute-on-resume path whose correctness
/// the pool already guarantees.
fn try_patch_slot(
    entry: &PoolEntry,
    node: &PhysicalNode,
    id: usize,
    profile: &PrefixProfile,
    updates: &[DeltaUpdate],
    outcomes: &HashMap<SubplanDigest, SlotOutcome>,
    no_rows: &BTreeSet<URow>,
) -> Option<(URelation, BTreeSet<URow>, BTreeSet<URow>)> {
    // Failpoint: a dropped patch is a legal outcome of this function — the
    // slot demotes and the next warm resume recomputes it.
    if crate::faults::fire_cost_only("patch") {
        return None;
    }
    let slot = entry.slots.get(&profile.digests[id])?;
    if node.operator.class() != OpClass::Pure || !slot.value.errors.is_empty() {
        // Stateful nodes never reach here (their entry dropped), and pure
        // prefix results carry no error bounds; both checks are defensive.
        return None;
    }
    if node.inputs.is_empty() {
        // A scan of a changed relation: the relation's net delta *is* the
        // output delta.  `apply_to` digest-checks the stored value, so a
        // slot that somehow drifted out of sync demotes instead of
        // corrupting downstream patches.
        let name = profile.footprints[id].iter().next()?;
        let update = updates.iter().find(|u| &u.name == name)?;
        let patch = update.patch.as_ref()?;
        let new = patch.apply_to(&slot.value.relation).ok()?;
        return Some((new, patch.inserted().clone(), patch.deleted().clone()));
    }
    let mut inputs: Vec<DeltaInput<'_>> = Vec::with_capacity(node.inputs.len());
    for &i in &node.inputs {
        let value = &entry.slots.get(&profile.digests[i])?.value.relation;
        let (inserted, deleted) = match outcomes.get(&profile.digests[i]) {
            // Never visited: the input's footprint misses the change, so its
            // value is current and its delta empty.
            None => (no_rows, no_rows),
            Some(SlotOutcome::Patched(inserted, deleted)) => (inserted, deleted),
            Some(SlotOutcome::Demoted) => return None,
        };
        inputs.push(DeltaInput {
            new: value,
            inserted,
            deleted,
        });
    }
    let old = &slot.value.relation;
    let new = node.operator.execute_delta(old, &inputs).ok()??;
    let (inserted, deleted) = old.row_edits(&new);
    Some((new, inserted, deleted))
}

/// Admission limits of a [`ServingEngine`]: how many requests may execute
/// concurrently, and how many of those may be cold prepares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingLimits {
    /// Requests admitted to execute at once across all sessions.  Further
    /// requests queue (deadline-aware) until a slot frees.
    pub max_in_flight: usize,
    /// Upper bound on concurrently executing *cold* requests (first
    /// evaluation of a prefix nobody pooled: full prefix execution, lineage
    /// extraction and compilation).  Cold requests take a cold permit
    /// **before** an admission slot, so a cold burst queues behind this
    /// gate without starving warm traffic of admission slots.  Clamped to
    /// `max_in_flight`.
    pub max_cold_in_flight: usize,
    /// Queue deadline, distinct from the request deadline: the longest a
    /// request may wait at either gate before the engine sheds it with
    /// [`EngineError::Overloaded`].  A saturated gate then fails fast —
    /// after `max_queue_wait` — instead of burning the whole request budget
    /// in line (and [`ServingEngine::evaluate_degradable`] turns the shed
    /// into a bounds answer).  `None` (the default) waits up to the request
    /// deadline as before.
    pub max_queue_wait: Option<Duration>,
}

impl Default for ServingLimits {
    /// Twice the hardware parallelism of admitted requests (estimation-bound
    /// warm requests overlap well), half of them allowed to be cold.
    fn default() -> Self {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let max_in_flight = (hw * 2).clamp(4, 64);
        ServingLimits {
            max_in_flight,
            max_cold_in_flight: (max_in_flight / 2).max(1),
            max_queue_wait: None,
        }
    }
}

/// One serving request: the query text plus optional per-request budgets.
///
/// `epsilon`/`delta` override the engine configuration's FPRAS accuracy
/// defaults for this request only (the request is prepared and pooled under
/// its effective configuration, so requests with different budgets never
/// share incompatible state).  `deadline` bounds how long the request may
/// wait for admission and is re-checked before execution starts.
#[derive(Clone, Copy, Debug)]
pub struct Request<'q> {
    text: &'q str,
    accuracy: Option<(f64, f64)>,
    deadline: Option<Instant>,
}

impl<'q> Request<'q> {
    /// A request for `text` with the engine's default budgets.
    pub fn new(text: &'q str) -> Request<'q> {
        Request {
            text,
            accuracy: None,
            deadline: None,
        }
    }

    /// Overrides the FPRAS accuracy budget (relative error ε, failure
    /// probability δ) for this request's `conf`-style operators.
    pub fn with_accuracy(mut self, epsilon: f64, delta: f64) -> Self {
        self.accuracy = Some((epsilon, delta));
        self
    }

    /// Sets a deadline: the request fails with
    /// [`EngineError::DeadlineExceeded`] instead of executing once the
    /// instant has passed.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The query text.
    pub fn text(&self) -> &str {
        self.text
    }

    /// The engine configuration this request is lowered against, with its
    /// [`config_digest`]: the engine's own pair `(base, base_digest)` unless
    /// the request overrides accuracy — the one case that digests a
    /// configuration per request.
    fn effective_config(&self, base: EvalConfig, base_digest: u64) -> (EvalConfig, u64) {
        match self.accuracy {
            None => (base, base_digest),
            Some((epsilon, delta)) => {
                let config = EvalConfig {
                    confidence: ConfidenceMode::Fpras { epsilon, delta },
                    ..base
                };
                (config, config_digest(&config))
            }
        }
    }
}

/// Why a request was answered with guaranteed bounds instead of an (ε, δ)
/// estimate (see [`ServingEngine::evaluate_degradable`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedReason {
    /// The request's deadline expired while sampling was underway
    /// ([`EngineError::DeadlineExceeded`] in the `estimate` stage).
    DeadlineExpired,
    /// An admission gate stayed saturated past the engine's
    /// [`ServingLimits::max_queue_wait`] and the request was shed
    /// ([`EngineError::Overloaded`]).
    QueueSaturated,
}

/// A graceful bounds answer: per output tuple, an exact confidence interval
/// `[lower, upper]` that is guaranteed to contain the tuple's true
/// confidence.  Produced without drawing a single Monte Carlo sample — the
/// deterministic prefix runs to completion and the root `conf` is answered
/// by the interval bounds of [`confidence::event_bounds_with_limit`]
/// (first-order ∩ Bonferroni lower, Hunter–Worsley upper), widened by any
/// accumulated upstream approximation error.
#[derive(Clone, Debug)]
pub struct DegradedAnswer {
    /// Output tuples with their guaranteed confidence intervals.
    pub bounds: Vec<(Tuple, EventBounds)>,
    /// Why the engine degraded instead of estimating.
    pub reason: DegradedReason,
}

/// The outcome of a degradable evaluation: the full (ε, δ) answer when the
/// request completed within its budgets, or guaranteed confidence bounds
/// when it could not.
#[derive(Debug)]
pub enum ServingAnswer {
    /// The request completed normally.
    Full(EvalOutput),
    /// The request was degraded to guaranteed bounds.
    Degraded(DegradedAnswer),
}

/// Bounded exponential backoff with deterministic jitter, applied by
/// [`ServingSession`] evaluation loops to errors classified transient by
/// [`EngineError::is_transient`].
///
/// Backoff for attempt `n` is `base_backoff · 2ⁿ`, capped at `max_backoff`,
/// scaled by a jitter factor in `[0.5, 1.0]` derived (splitmix64) from
/// `jitter_seed`, the session's evaluation count and the attempt index —
/// reproducible runs schedule reproducible retries, while concurrent
/// sessions with different seeds desynchronize instead of thundering back
/// in lockstep.  A retry never oversleeps a request deadline: when the
/// backoff would land past it, the session gives up and returns the
/// transient error instead.
///
/// Retries preserve the engine's determinism contract: admission, prepare
/// and injected-fault failures happen *before* an evaluation draws from the
/// caller's RNG, so a retried success consumes exactly the RNG stream a
/// first-try success would have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (`0` disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries, 1 ms base, 20 ms cap.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0x5eed_f417,
        }
    }
}

impl RetryPolicy {
    /// No retries: every error surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The jittered backoff before retry number `attempt` (0-based), for a
    /// session whose evaluation counter is `salt`.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let r = splitmix64(self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt));
        // Top 53 bits → uniform in [0, 1), mapped to a factor in [0.5, 1.0].
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + unit * 0.5)
    }
}

/// A counting semaphore with deadline-aware acquisition (standing in for an
/// async admission queue: requests block, fairly woken, until a permit
/// frees).
#[derive(Debug)]
struct Gate {
    permits: OrderedMutex<usize>,
    freed: OrderedCondvar,
    /// Rank a held permit occupies on the holder's rank stack
    /// ([`LockRank::GateCold`] or [`LockRank::GateAdmission`]): both sit
    /// below the internal counter and below every engine lock, which is
    /// what machine-checks the cold-before-admission permit order.
    permit_rank: LockRank,
    permit_name: &'static str,
}

/// A held [`Gate`] permit; released on drop.
#[derive(Debug)]
struct GatePermit<'a> {
    gate: &'a Gate,
    _token: HeldRank,
}

impl Gate {
    fn new(
        capacity: usize,
        permit_rank: LockRank,
        permit_name: &'static str,
        counter_name: &'static str,
    ) -> Gate {
        Gate {
            permits: OrderedMutex::new(LockRank::GateInternal, counter_name, capacity.max(1)),
            freed: OrderedCondvar::new(),
            permit_rank,
            permit_name,
        }
    }

    /// Blocks until a permit is free, or until `deadline` passes (failing
    /// with [`EngineError::DeadlineExceeded`] tagged `stage`), or — when
    /// `max_wait` is set — until the request has queued for `max_wait`
    /// (failing with [`EngineError::Overloaded`]: the gate is saturated and
    /// the engine sheds the request early instead of burning the rest of
    /// its budget in line).
    fn acquire(
        &self,
        deadline: Option<Instant>,
        max_wait: Option<Duration>,
        stage: &'static str,
    ) -> Result<GatePermit<'_>> {
        let queue_deadline = max_wait.map(|w| Instant::now() + w);
        let mut permits = self.permits.lock();
        loop {
            if *permits > 0 {
                *permits -= 1;
                // The internal counter (GateInternal) outranks the permit
                // token about to be issued, so the counter guard must die
                // first — the held-rank stack only ever grows upward.
                drop(permits);
                return Ok(GatePermit {
                    gate: self,
                    _token: HeldRank::acquire(self.permit_rank, self.permit_name),
                });
            }
            let now = Instant::now();
            if let Some(deadline) = deadline {
                if now >= deadline {
                    return Err(EngineError::DeadlineExceeded { stage });
                }
            }
            if let Some(queue_deadline) = queue_deadline {
                if now >= queue_deadline {
                    return Err(EngineError::Overloaded { stage });
                }
            }
            let wake = match (deadline, queue_deadline) {
                (None, None) => None,
                (Some(d), None) => Some(d),
                (None, Some(q)) => Some(q),
                (Some(d), Some(q)) => Some(d.min(q)),
            };
            permits = match wake {
                None => self.freed.wait(permits),
                Some(wake) => self.freed.wait_timeout(permits, wake - now).0,
            };
        }
    }
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        // Fine rank-wise: the counter (GateInternal) outranks the permit
        // token this drop still holds (`_token` dies after this body).
        let mut permits = self.gate.permits.lock();
        *permits += 1;
        self.gate.freed.notify_one();
    }
}

/// Serving counters, updated lock-free by concurrent sessions.
#[derive(Default)]
struct Counters {
    cold_evaluations: AtomicU64,
    warm_evaluations: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    shared_prefix_hits: AtomicU64,
    snapshots_invalidated: AtomicU64,
    subplans_invalidated: AtomicU64,
    subplans_recomputed: AtomicU64,
    relation_updates: AtomicU64,
    subplans_patched: AtomicU64,
    subplans_demoted: AtomicU64,
    stale_absorbs_dropped: AtomicU64,
    retries: AtomicU64,
    entries_quarantined: AtomicU64,
    degraded_answers: AtomicU64,
    exact_compiled_answers: AtomicU64,
    sampled_answers: AtomicU64,
    shared_block_hits: AtomicU64,
}

/// The served state, behind one lock: the database, its content epoch and
/// the snapshot pool.  A request's start reads the three as one cut, and
/// every commit writes them together, so a reader never pairs a database
/// with pool state of another version.
struct Served {
    database: UDatabase,
    /// Monotonic database-content version, bumped by every commit.  A
    /// capturing evaluation records it at its start, and its absorb
    /// ([`absorb_if_current`](ServingEngine::absorb_if_current)) drops the
    /// snapshot once the epoch moved: a commit landing between a session's
    /// start and its absorb can never re-pool pre-commit answers after the
    /// commit's pool pass.
    epoch: u64,
    pool: SnapshotPool,
}

/// The query cache: request text → prepared query, per effective lowering
/// configuration, for one catalog.  Per-request accuracy overrides prepare
/// separately; the pool fingerprint hashes the same configuration, so their
/// pooled prefixes separate consistently.
struct QueryCache {
    /// The catalog every cached query was validated against; replaced, with
    /// the entries, only by [`set_database`](ServingEngine::set_database).
    catalog: Arc<Catalog>,
    /// Config digest → request text → prepared query.  Each query is stored
    /// under its normalized text; other spellings are aliases of its `Arc`.
    queries: HashMap<u64, HashMap<Box<str>, Arc<PreparedQuery>>>,
}

impl QueryCache {
    fn new(catalog: Arc<Catalog>) -> QueryCache {
        QueryCache {
            catalog,
            queries: HashMap::new(),
        }
    }

    fn get(&self, text: &str, digest: u64) -> Option<Arc<PreparedQuery>> {
        self.queries.get(&digest)?.get(text).cloned()
    }

    /// Caches `prepared` under its normalized text — unless a racing
    /// session did first, whose entry then wins — and `text` as its alias,
    /// returning the cached entry.  `None` when `catalog`, which `prepared`
    /// was validated against, is no longer the cache's.
    fn install(
        &mut self,
        text: &str,
        catalog: &Arc<Catalog>,
        prepared: Arc<PreparedQuery>,
    ) -> Option<Arc<PreparedQuery>> {
        if !Arc::ptr_eq(&self.catalog, catalog) {
            return None;
        }
        // Room for a normalized entry and an alias: the aliases go first,
        // then everything.
        if self.len() + 2 > PREPARED_CAP {
            (self.queries.values_mut()).for_each(|texts| texts.retain(|text, q| **text == *q.key));
        }
        if self.len() + 2 > PREPARED_CAP {
            self.queries.clear();
        }
        let digest = prepared.profile.config_digest;
        let queries = self.queries.entry(digest).or_default();
        let entry = Arc::clone(queries.entry(Box::from(&*prepared.key)).or_insert(prepared));
        if text != &*entry.key {
            queries.insert(text.into(), Arc::clone(&entry));
        }
        Some(entry)
    }

    /// Entries, aliases included.
    fn len(&self) -> usize {
        self.queries.values().map(HashMap::len).sum()
    }

    /// Every prepared query once: the entries under their normalized text.
    fn prepared(&self) -> impl Iterator<Item = &Arc<PreparedQuery>> {
        let queries = self.queries.values().flatten();
        queries.filter_map(|(text, query)| (**text == *query.key).then_some(query))
    }
}

/// A query server over one database: repeated queries cost estimation only,
/// prefixes are shared across queries, content commits touch only what
/// intersects them, and any number of sessions evaluate concurrently over
/// `&self` (see the module docs' concurrency section).
pub struct ServingEngine {
    config: EvalConfig,
    /// [`config_digest`] of `config`, computed once at construction: what
    /// keys the prepared queries and pool entries of requests without an
    /// accuracy override, and what checkpoints record.
    config_digest: u64,
    limits: ServingLimits,
    state: OrderedRwLock<Served>,
    queries: OrderedRwLock<QueryCache>,
    admission: Gate,
    cold_admission: Gate,
    counters: Counters,
    /// The cross-request shared block scheduler, consulted by estimation
    /// only when the effective configuration enables
    /// [`EvalConfig::shared_sampling`] (canonical content-derived streams
    /// make its tallies pure functions of their keys, so attaching it
    /// never changes an answer).
    sampler: Arc<crate::sched::SampleScheduler>,
}

impl ServingEngine {
    /// Creates a server for `database` with the given engine configuration
    /// and default admission limits.
    pub fn new(config: EvalConfig, database: UDatabase) -> Result<ServingEngine> {
        ServingEngine::with_limits(config, database, ServingLimits::default())
    }

    /// Creates a server with explicit admission limits.
    pub fn with_limits(
        config: EvalConfig,
        database: UDatabase,
        limits: ServingLimits,
    ) -> Result<ServingEngine> {
        let catalog = Arc::new(catalog_of(&database)?);
        let max_in_flight = limits.max_in_flight.max(1);
        let limits = ServingLimits {
            max_in_flight,
            max_cold_in_flight: limits.max_cold_in_flight.clamp(1, max_in_flight),
            max_queue_wait: limits.max_queue_wait,
        };
        Ok(ServingEngine {
            config,
            config_digest: config_digest(&config),
            limits,
            state: OrderedRwLock::new(
                LockRank::State,
                "serving.state",
                Served {
                    database,
                    epoch: 0,
                    pool: SnapshotPool::default(),
                },
            ),
            queries: OrderedRwLock::new(
                LockRank::Prepared,
                "serving.queries",
                QueryCache::new(catalog),
            ),
            admission: Gate::new(
                limits.max_in_flight,
                LockRank::GateAdmission,
                "gate.admission.permit",
                "gate.admission.counter",
            ),
            cold_admission: Gate::new(
                limits.max_cold_in_flight,
                LockRank::GateCold,
                "gate.cold.permit",
                "gate.cold.counter",
            ),
            counters: Counters::default(),
            sampler: Arc::new(crate::sched::SampleScheduler::new()),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// The admission limits (normalized).
    pub fn limits(&self) -> ServingLimits {
        self.limits
    }

    /// A lightweight per-session handle over this engine; sessions evaluate
    /// concurrently, each with its own RNG (held by the caller).
    pub fn session(&self) -> ServingSession<'_> {
        ServingSession {
            engine: self,
            evaluations: 0,
            retry: RetryPolicy::default(),
        }
    }

    /// The database being served: a pointer copy (relations and W-table
    /// are shared copy-on-write), so it costs O(1) and holds no lock.
    pub fn database(&self) -> UDatabase {
        self.state.read().database.clone()
    }

    /// Replaces the whole database and drops every cache: prepared queries
    /// (they validate against the catalog, which may change schemas) and the
    /// snapshot pool.  This is the schema-evolution path;
    /// content-only changes should use
    /// [`update_relations`](ServingEngine::update_relations), which keeps
    /// warm caches warm.
    pub fn set_database(&self, database: UDatabase) -> Result<()> {
        let catalog = Arc::new(catalog_of(&database)?);
        let mut served = self.state.write();
        // The epoch moves with the pool reset, so an in-flight session's
        // absorb drops instead of undoing it.  A racing prepare lowered
        // against the old catalog fails its install once the new cache is
        // in place, and lowers again.
        *served = Served {
            database,
            epoch: served.epoch + 1,
            pool: SnapshotPool::default(),
        };
        *self.queries.write() = QueryCache::new(catalog);
        Ok(())
    }

    /// Replaces the content of named base relations, re-warming only the
    /// cached state the change touches.
    ///
    /// Every update must keep the relation's catalog identity: same schema,
    /// and a relation declared complete stays complete (schema evolution
    /// goes through [`set_database`](ServingEngine::set_database)).
    ///
    /// Batch semantics are **last-wins, validated atomically over the net
    /// content**: a name given several times collapses to its final
    /// replacement *before* validation, so a transient-invalid intermediate
    /// that the same batch overwrites cannot reject the update — only the
    /// content the batch would actually leave behind is checked, and either
    /// every update applies or none does.
    ///
    /// A replacement is committed as the row delta it amounts to: the net
    /// [`RelationDelta`] is derived by one merge walk over the stored and
    /// the new rows ([`URelation::diff`]) and handed to the same commit
    /// path as [`apply_deltas`](ServingEngine::apply_deltas) — see there
    /// for what a commit does to the pool.  An empty diff is a no-op: no
    /// epoch bump, no counter, nothing invalidated.  So a *small*
    /// replacement (a few rows of a large relation rewritten) patches the
    /// pooled sub-plan results in place, exactly as the equivalent delta
    /// would; a replacement that rewrites more than about half the
    /// relation demotes them for recomputation on the next warm resume.
    /// Slots demoted by a commit that arrived through this method count in
    /// [`ServingStats::subplans_invalidated`].
    ///
    /// Warm answers after an update are bit-identical to a cold evaluation
    /// over the updated database at the same RNG state.
    pub fn update_relations(
        &self,
        updates: impl IntoIterator<Item = (impl Into<String>, URelation)>,
    ) -> Result<()> {
        // The state write lock is held across validate + commit, so
        // concurrent sessions see either the whole batch or none of it.
        let mut served = self.state.write();
        // Collapse the batch to its net content first (last replacement per
        // name wins), then validate only that net content — atomically,
        // before anything is applied.
        let mut finals: BTreeMap<String, URelation> = BTreeMap::new();
        for (name, rel) in updates {
            finals.insert(name.into(), rel);
        }
        for (name, rel) in &finals {
            served.database.check_replacement(name, rel)?;
        }
        let finals = finals.into_iter().map(|(name, new)| (name, new, None));
        self.commit(&mut served, finals, &self.counters.subplans_invalidated);
        Ok(())
    }

    /// Applies incremental row deltas to named base relations, re-warming
    /// pooled state at cost proportional to the delta.
    ///
    /// Validation mirrors [`update_relations`](ServingEngine::update_relations):
    /// the whole batch is checked before anything is applied (each delta's
    /// base digest must match the content it lands on — deltas to one name
    /// chain in batch order — and the patched relation must keep its catalog
    /// identity), and net no-ops commit nothing.
    ///
    /// The commit — shared with `update_relations` — then maintains the
    /// pool at *row* granularity: entries whose stateful spine scans a
    /// changed relation drop (their repair-key variables or statistics
    /// would be stale), and in the surviving entries — which hold no
    /// relation content of their own, so the commit writes the new content
    /// exactly once — every footprint-intersecting pure
    /// sub-plan result is patched in place by the incremental operator
    /// rules of [`crate::delta`] — selections, projections, unions and
    /// renames map the row edits pointwise, joins re-derive only the
    /// affected join keys — producing bit-for-bit the relation a recompute
    /// would.  Sub-plans with no incremental rule (products, difference),
    /// deltas large relative to their base relation (they would cost more
    /// to patch than to recompute), and slots whose required neighbours are
    /// missing are demoted instead: dropped, and recomputed once by the
    /// next warm resume that needs them.  Prepared queries scanning no
    /// changed relation keep their full warm path.
    /// [`ServingStats::subplans_patched`] / [`ServingStats::subplans_demoted`]
    /// record which way each slot went.
    ///
    /// Warm answers after a delta are bit-identical to a cold evaluation
    /// over the patched database at the same RNG state.
    pub fn apply_deltas(
        &self,
        deltas: impl IntoIterator<Item = (impl Into<String>, RelationDelta)>,
    ) -> Result<()> {
        // Like `update_relations`, the state write lock spans validate +
        // commit.
        let mut served = self.state.write();
        let state = &served.database;
        // Validate the whole batch before applying any of it.  Deltas to
        // one name chain: each must apply against the content the previous
        // one produced (digest-checked), and the final content must pass
        // the same catalog checks as a full replacement.
        // Per name: the final content, and the net row edit while a single
        // delta *is* it (it was digest-validated against the stored
        // content); a chain's net edit is re-derived by diffing.
        let mut finals: BTreeMap<String, (URelation, Option<RelationDelta>)> = BTreeMap::new();
        for (name, delta) in deltas {
            let name = name.into();
            match finals.get_mut(&name) {
                Some((current, single)) => {
                    let new = delta.apply_to(current)?;
                    state.check_replacement(&name, &new)?;
                    *current = new;
                    *single = None;
                }
                None => {
                    let new = state.check_delta(&name, &delta)?;
                    finals.insert(name, (new, Some(delta)));
                }
            }
        }
        let finals = finals
            .into_iter()
            .map(|(name, (new, single))| (name, new, single));
        self.commit(&mut served, finals, &self.counters.subplans_demoted);
        Ok(())
    }

    /// The one commit path of every content change, called with the state
    /// write lock held and the batch validated and reduced to one final
    /// content per relation.  Each comes with its net row edit when the
    /// caller already holds it (a single validated [`RelationDelta`]);
    /// otherwise the edit is derived by one merge walk over the stored and
    /// the new rows ([`URelation::diff`]).  Relations whose edit is empty
    /// are skipped; the others are written — once, into the served database,
    /// the only copy of relation content — and the observed edit size decides
    /// patch-vs-demote ([`patch_worthwhile`]).  Then the commit bumps the
    /// content epoch, maintains the pool ([`SnapshotPool::patch`]) and
    /// counts — all under the one write lock, so no reader sees part of
    /// it.  Demoted slots are charged to `demoted_counter`, which is the
    /// only thing that differs between the two public entry points.
    fn commit(
        &self,
        served: &mut Served,
        finals: impl IntoIterator<Item = (String, URelation, Option<RelationDelta>)>,
        demoted_counter: &AtomicU64,
    ) {
        let state = &mut served.database;
        let mut updates = Vec::new();
        for (name, new, delta) in finals {
            let old = state.relation(&name).expect("validated by caller");
            let delta = match delta {
                Some(delta) => delta,
                None => old.diff(&new).expect("replacement schema validated"),
            };
            if delta.is_empty() {
                continue;
            }
            let patch = patch_worthwhile(delta.magnitude(), old.len()).then_some(delta);
            // The batch was fully validated by the caller; apply without
            // re-running the catalog checks, preserving the completeness
            // declaration.
            let complete = state.is_complete(&name);
            state.set_relation(name.clone(), new, complete);
            updates.push(DeltaUpdate { name, patch });
        }
        if updates.is_empty() {
            return;
        }
        served.epoch += 1;
        let plans: Vec<Arc<PreparedQuery>> = self.queries.read().prepared().cloned().collect();
        let (entries_dropped, patched, demoted) = served.pool.patch(&updates, &plans);
        let counters = &self.counters;
        for (counter, by) in [
            (&counters.relation_updates, updates.len() as u64),
            (&counters.snapshots_invalidated, entries_dropped),
            (&counters.subplans_patched, patched),
            (demoted_counter, demoted),
        ] {
            counter.fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Evaluates a UA query given as text.  The first evaluation of a query
    /// resumes from the cross-query snapshot pool when another prepared
    /// query already executed the same deterministic prefix; otherwise it
    /// runs cold and offers its prefix to the pool.  Repeated evaluations
    /// resume at the sampling frontier once the pool admitted it.
    pub fn evaluate<R: Rng + ?Sized>(&self, text: &str, rng: &mut R) -> Result<EvalOutput> {
        self.evaluate_request(&Request::new(text), rng)
    }

    /// Evaluates a [`Request`] (query text plus optional per-request ε/δ and
    /// deadline budgets).
    ///
    /// Warm and cold requests run the same path and differ only in the
    /// snapshot they start from: the pooled prefix
    /// of the query's stateful spine, or the plan's empty snapshot.
    pub fn evaluate_request<R: Rng + ?Sized>(
        &self,
        request: &Request<'_>,
        rng: &mut R,
    ) -> Result<EvalOutput> {
        let deadline = request.deadline;
        // A request that arrives with its deadline already spent fails with
        // a deterministic tag before any work (or queueing) happens.
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Err(EngineError::DeadlineExceeded { stage: "prepare" });
            }
        }
        let (config, digest) = request.effective_config(self.config, self.config_digest);
        let prepared = self.prepare(request.text, config, digest)?;
        crate::faults::fire("admission", deadline)?;
        let profile = &prepared.profile;

        // Fair admission.  Classify warm/cold by peeking the pool (presence
        // of the prefix entry).  The classification is best-effort —
        // authoritative resolution happens after admission.
        let mut cold_admitted =
            !(self.state.read().pool.entries).contains_key(&profile.fingerprint);
        let mut _permits = self.admit(cold_admitted, deadline)?;
        let start = loop {
            let start = self.start(&prepared);
            if start.resolved.is_some() || cold_admitted {
                break start;
            }
            // A warm-classified request lands here when the pool entry
            // vanished (or resolved as a miss) between the admission peek
            // and resolution — typically right after an invalidation
            // dropped a hot prefix.  It is a cold request now: route it
            // through the cold gate so the resulting stampede stays bounded
            // by `max_cold_in_flight`.  The admission slot is released
            // first — permits are ordered cold-before-admission everywhere,
            // and waiting on the cold gate while holding an admission slot
            // could deadlock the two gates against each other — and so is
            // the start, which is read again once the request is through.
            drop((start, _permits));
            cold_admitted = true;
            _permits = self.admit(true, deadline)?;
        };
        // Counted once admitted: a request shed at a gate never ran.
        let first_evaluation = prepared.evaluations.fetch_add(1, Ordering::Relaxed) == 0;

        let warm = start.resolved.is_some();
        let (snapshot, capture) = match start.resolved {
            Some(resolved) => {
                self.counters
                    .warm_evaluations
                    .fetch_add(1, Ordering::Relaxed);
                if first_evaluation && resolved.shared {
                    self.counters
                        .shared_prefix_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.counters
                    .subplans_recomputed
                    .fetch_add(resolved.recomputed, Ordering::Relaxed);
                // When pure nodes recompute during this resume, capture at
                // the frontier again and pool their fresh results, so the
                // next request (of any query sharing them) finds the prefix
                // fully warm.
                (resolved.snapshot, resolved.recomputed > 0)
            }
            None => {
                self.counters
                    .cold_evaluations
                    .fetch_add(1, Ordering::Relaxed);
                (prepared.physical.empty_snapshot(), true)
            }
        };
        let mut rng_ref: &mut R = rng;
        let mut ctx = self.context(config, start.database, &mut rng_ref, deadline);
        // Quarantine region: a panicking run (an operator bug, or an
        // injected fault) drops only this run's pool entry — the engine
        // stays serviceable and the next request of this prefix re-warms
        // it.  The cold failpoint fires *inside* it: an injected cold-eval
        // panic must be caught here, and it runs before the execution draws
        // any caller randomness, so a retried request still evaluates
        // bit-identically to cold.
        let run = catch_unwind(AssertUnwindSafe(|| {
            if !warm {
                crate::faults::fire("cold-eval", deadline)?;
            }
            prepared.physical.resume(&mut ctx, snapshot, capture)
        }));
        let (result, captured) = match run {
            Ok(output) => output?,
            Err(_) => {
                self.quarantine(&profile.fingerprint);
                let stage = if warm { "warm-eval" } else { "cold-eval" };
                return Err(EngineError::Panicked { stage });
            }
        };
        if let Some(captured) = captured {
            self.absorb_if_current(start.epoch, &prepared, &captured);
        }
        self.absorb_estimation_stats(&ctx.stats);
        Ok(EvalOutput {
            result,
            database: ctx.database,
            stats: ctx.stats,
        })
    }

    /// Fair admission: a cold request waits on the cold gate *before*
    /// taking an admission slot, so a cold burst cannot occupy the slots
    /// warm traffic needs.  Fails with the stage-tagged deadline or overload
    /// error of whichever gate (or the final pre-execution check) gave up.
    fn admit(
        &self,
        cold: bool,
        deadline: Option<Instant>,
    ) -> Result<(GatePermit<'_>, Option<GatePermit<'_>>)> {
        let queue_wait = self.limits.max_queue_wait;
        let cold_gate = cold.then_some(&self.cold_admission);
        let cold_permit = cold_gate
            .map(|gate| gate.acquire(deadline, queue_wait, "cold admission"))
            .transpose()?;
        let permit = self.admission.acquire(deadline, queue_wait, "admission")?;
        match deadline {
            Some(deadline) if Instant::now() >= deadline => Err(EngineError::DeadlineExceeded {
                stage: "pre-execution",
            }),
            _ => Ok((permit, cold_permit)),
        }
    }

    /// Reads what a request starts from as one consistent cut — the served
    /// database, the content epoch, and the pool entry of the query's
    /// stateful spine — under one read lock of the served state.  The lock
    /// is held for pointer copies only: the database clone shares every
    /// relation and the W-table with the served one (`UDatabase`'s
    /// `Clone`), and the entry is an `Arc`.  Whatever the database's size,
    /// a start copies no row.  Outside the lock the entry is resolved into
    /// a resumable snapshot (pointer copies) and the
    /// request's database takes the resolved prefix's W-table, shared with
    /// the entry (a cold start keeps the served table).  An edit the
    /// request makes — a `repair-key` declaring variables — copies the part
    /// it edits, never reaching the served database.
    /// Commits write database, epoch and pool under the same lock, so the
    /// entry's sub-plan results always belong to the cloned relations; if
    /// the guarded absorb later sees the same epoch, no commit touched the
    /// pool in between.
    fn start(&self, prepared: &PreparedQuery) -> Start {
        let (mut database, epoch, entry) = {
            let served = self.state.read();
            let entry = served.pool.entry(&prepared.profile.fingerprint);
            (served.database.clone(), served.epoch, entry)
        };
        let resolved = entry.and_then(|entry| resolve_prefix(&entry, prepared));
        if let Some(wtable) = (resolved.as_ref()).and_then(|r| r.snapshot.effects().wtable.as_ref())
        {
            *database.wtable_mut() = wtable.clone();
        }
        Start {
            database,
            epoch,
            resolved,
        }
    }

    /// The execution context of one request over its start's database.
    fn context<'a>(
        &self,
        config: EvalConfig,
        database: UDatabase,
        rng: &'a mut dyn RngCore,
        deadline: Option<Instant>,
    ) -> ExecContext<'a> {
        ExecContext {
            config,
            database,
            stats: EvalStats::default(),
            var_counter: 0,
            rng,
            spaces: SpaceCache::new(),
            deadline,
            sampler: config.shared_sampling.then(|| Arc::clone(&self.sampler)),
        }
    }

    /// Rolls one evaluation's estimation-backend counters into the engine
    /// totals surfaced by [`stats`](ServingEngine::stats).
    fn absorb_estimation_stats(&self, stats: &EvalStats) {
        self.counters
            .exact_compiled_answers
            .fetch_add(stats.exact_compiled_answers, Ordering::Relaxed);
        self.counters
            .sampled_answers
            .fetch_add(stats.sampled_answers, Ordering::Relaxed);
        self.counters
            .shared_block_hits
            .fetch_add(stats.shared_block_hits, Ordering::Relaxed);
    }

    /// Evaluates a [`Request`], degrading to a guaranteed-bounds answer when
    /// the full evaluation cannot fit its budgets.
    ///
    /// The request first runs normally.  If it fails because its deadline
    /// expired *mid-sampling* ([`EngineError::DeadlineExceeded`] in the
    /// `estimate` stage) or because an admission gate was saturated past
    /// [`ServingLimits::max_queue_wait`] ([`EngineError::Overloaded`]), and
    /// the query is an approximate `conf` over a deterministic prefix
    /// ([`PhysicalPlan::bounds_root`]), the engine answers with
    /// [`DegradedAnswer`]: per output tuple, an exact interval
    /// `[lower, upper]` guaranteed to contain the tuple's true confidence,
    /// computed without drawing a single sample.  Every other error (and
    /// every budget failure of a query with no bounds form) propagates
    /// unchanged.
    ///
    /// The bounds path consumes no caller randomness, so a degraded answer
    /// leaves the session's RNG stream exactly where a shed request would
    /// have: determinism of later full answers is unaffected.  It starts
    /// the way a full evaluation does: when the query's prefix is pooled,
    /// the fallback resumes it instead of re-running the prefix cold (the
    /// bounds draw no randomness, so the answer is the same either way).
    pub fn evaluate_degradable<R: Rng + ?Sized>(
        &self,
        request: &Request<'_>,
        rng: &mut R,
    ) -> Result<ServingAnswer> {
        let err = match self.evaluate_request(request, rng) {
            Ok(full) => return Ok(ServingAnswer::Full(full)),
            Err(err) => err,
        };
        let reason = match &err {
            EngineError::DeadlineExceeded { stage: "estimate" } => DegradedReason::DeadlineExpired,
            EngineError::Overloaded { .. } => DegradedReason::QueueSaturated,
            _ => return Err(err),
        };
        match self.bounds_answer(request, reason) {
            Ok(answer) => {
                self.counters
                    .degraded_answers
                    .fetch_add(1, Ordering::Relaxed);
                Ok(ServingAnswer::Degraded(answer))
            }
            // The bounds form is unsupported (or itself failed): surface the
            // original budget error, not the fallback's.
            Err(_) => Err(err),
        }
    }

    /// The guaranteed-bounds fallback of
    /// [`evaluate_degradable`](ServingEngine::evaluate_degradable): finishes
    /// the deterministic prefix from the same [`start`](ServingEngine::start)
    /// a full evaluation takes — the pooled prefix when there is one, so a
    /// request shed on a warm prefix re-runs nothing — and answers the root
    /// `conf` from exact interval bounds.  Deliberately bypasses the
    /// admission gates — it is the shed path's fallback, so re-queueing it
    /// behind the very gate that shed the request would defeat the point —
    /// and uses a fixed dummy RNG, which [`PhysicalPlan::execute_bounds`]
    /// never draws from.
    fn bounds_answer(
        &self,
        request: &Request<'_>,
        reason: DegradedReason,
    ) -> Result<DegradedAnswer> {
        let (config, digest) = request.effective_config(self.config, self.config_digest);
        let prepared = self.prepare(request.text, config, digest)?;
        let start = self.start(&prepared);
        let snapshot = match start.resolved {
            Some(resolved) => resolved.snapshot,
            None => prepared.physical.empty_snapshot(),
        };
        let mut dummy = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut ctx = self.context(config, start.database, &mut dummy, None);
        let limit = config.pairwise_bound_limit;
        let bounds = prepared
            .physical
            .execute_bounds(&mut ctx, snapshot, limit)?;
        Ok(DegradedAnswer { bounds, reason })
    }

    /// Removes a prefix entry after a panic inside an evaluation that used
    /// (or was about to populate) it, counting the removal.  The engine
    /// stays serviceable: the next request of the prefix re-warms it.
    fn quarantine(&self, fingerprint: &(u64, u64)) {
        let removed = self.state.write().pool.entries.remove(fingerprint);
        if removed.is_some() {
            self.counters
                .entries_quarantined
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pools a captured snapshot unless the database has moved on since the
    /// snapshot's inputs were read (at `epoch`).
    ///
    /// Commits bump the epoch and maintain the pool under the same write
    /// lock this absorb takes, so the check is exact: a matching epoch
    /// means no commit ran since the start — a later one will maintain
    /// this insert like any other entry.  A mismatch means invalidation
    /// already ran, and inserting would serve pre-commit answers to every
    /// later warm hit; the snapshot is dropped instead (the module-doc
    /// invariant: races change cost, never answers).
    fn absorb_if_current(&self, epoch: u64, prepared: &PreparedQuery, snapshot: &ExecSnapshot) {
        // Failpoint: skipping an absorb is a legal opportunistic miss — the
        // answer was already computed; only the pool stays cold.
        if crate::faults::fire_cost_only("absorb") {
            self.counters
                .stale_absorbs_dropped
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut served = self.state.write();
        if served.epoch == epoch {
            served.pool.absorb(prepared, snapshot);
        } else {
            self.counters
                .stale_absorbs_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The prepared query for one request under its effective
    /// configuration.  A hit is one read lock of the query cache and one
    /// hash of the text.  A miss parses the text with no lock held and
    /// looks the normalized text up (another spelling of a prepared query
    /// is a hit and only adds an alias); otherwise it validates and lowers
    /// against the cache's catalog, still with no lock held.  When two
    /// sessions race to prepare the same query, the first install wins and
    /// the loser's work is discarded.
    ///
    /// A racing [`set_database`](ServingEngine::set_database) is detected
    /// by catalog identity: the install checks, under the cache's write
    /// lock, that the cache still holds the catalog `Arc` the miss read.
    /// `set_database` swaps in a fresh cache with the new catalog, so a
    /// passed check proves the swap has not happened yet — it will then
    /// drop this entry like any other — while a failed one means the plan
    /// was validated against a replaced catalog and must be redone.
    /// Invalid texts are never cached.
    ///
    /// `digest` is `config`'s [`config_digest`], which the caller already
    /// holds (see [`Request`]'s `effective_config`).
    fn prepare(&self, text: &str, config: EvalConfig, digest: u64) -> Result<Arc<PreparedQuery>> {
        crate::faults::fire("prepare", None)?;
        let counters = &self.counters;
        loop {
            let catalog = {
                let cache = self.queries.read();
                if let Some(hit) = cache.get(text, digest) {
                    counters.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(hit);
                }
                Arc::clone(&cache.catalog)
            };
            let query = algebra::parse_query(text)?;
            let key = query.to_string();
            let known = self.queries.read().get(&key, digest);
            let prepared = match known {
                Some(known) => {
                    counters.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                    known
                }
                None => {
                    counters.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
                    let plan = LogicalPlan::lower_validated(&query, &catalog)?;
                    let physical = PhysicalPlan::lower(&plan, config)?;
                    let profile = PrefixProfile::new(&plan, &physical, digest);
                    Arc::new(PreparedQuery {
                        key: key.into(),
                        physical,
                        profile,
                        evaluations: AtomicU64::new(0),
                    })
                }
            };
            if let Some(prepared) = self.queries.write().install(text, &catalog, prepared) {
                return Ok(prepared);
            }
        }
    }

    /// Cache counters (a consistent-enough snapshot: counters are updated
    /// lock-free by concurrent sessions).
    pub fn stats(&self) -> ServingStats {
        ServingStats {
            cold_evaluations: self.counters.cold_evaluations.load(Ordering::Relaxed),
            warm_evaluations: self.counters.warm_evaluations.load(Ordering::Relaxed),
            plan_cache_hits: self.counters.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.counters.plan_cache_misses.load(Ordering::Relaxed),
            shared_prefix_hits: self.counters.shared_prefix_hits.load(Ordering::Relaxed),
            snapshots_invalidated: self.counters.snapshots_invalidated.load(Ordering::Relaxed),
            subplans_invalidated: self.counters.subplans_invalidated.load(Ordering::Relaxed),
            subplans_recomputed: self.counters.subplans_recomputed.load(Ordering::Relaxed),
            relation_updates: self.counters.relation_updates.load(Ordering::Relaxed),
            subplans_patched: self.counters.subplans_patched.load(Ordering::Relaxed),
            subplans_demoted: self.counters.subplans_demoted.load(Ordering::Relaxed),
            stale_absorbs_dropped: self.counters.stale_absorbs_dropped.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            entries_quarantined: self.counters.entries_quarantined.load(Ordering::Relaxed),
            degraded_answers: self.counters.degraded_answers.load(Ordering::Relaxed),
            exact_compiled_answers: self.counters.exact_compiled_answers.load(Ordering::Relaxed),
            sampled_answers: self.counters.sampled_answers.load(Ordering::Relaxed),
            shared_block_hits: self.counters.shared_block_hits.load(Ordering::Relaxed),
        }
    }

    /// Number of prepared queries (aliases for alternative spellings do not
    /// count).
    pub fn prepared_queries(&self) -> usize {
        self.queries.read().prepared().count()
    }

    /// Number of pooled prefix entries (distinct stateful spines).  Smaller
    /// than [`prepared_queries`](ServingEngine::prepared_queries) when
    /// prepared queries share prefixes.
    pub fn pooled_prefixes(&self) -> usize {
        self.state.read().pool.entries.len()
    }

    /// Total number of sub-plan results currently pooled across all
    /// entries.
    pub fn pooled_subplans(&self) -> usize {
        self.state.read().pool.subplans()
    }

    /// Writes a checkpoint of the served state into `dir` (created if
    /// missing): the W-table, the relation catalog, one digest-framed
    /// segment per relation, and one *warm* segment per poolable
    /// deterministic-prefix snapshot, all recorded in a `MANIFEST` segment
    /// written last — a crash mid-checkpoint leaves no complete manifest,
    /// which [`restore`](ServingEngine::restore) rejects as a whole.  A warm
    /// segment holds what its prefix added — the variables it introduced on
    /// top of the base W-table, the variable counter, statistics and the
    /// pooled sub-plan results — so relation content (and the base W-table)
    /// is written once, in the segments of its own.
    ///
    /// The database and the pool entries are cloned under one read lock of
    /// the served state, which every commit writes whole, so a checkpoint is
    /// a consistent cut: it never pairs a post-commit database with
    /// pre-commit warm state.
    /// Only pool entries created under the engine's own base configuration
    /// are persisted (per-request accuracy overrides prepare — and pool —
    /// separately; their entries are rebuilt on demand after a restore).
    /// A checkpoint only reads: it prepares nothing and moves no counter.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| {
            EngineError::Storage(format!("creating checkpoint dir {}: {e}", dir.display()))
        })?;
        let base_digest = self.config_digest;
        let (database, mut entries) = {
            let served = self.state.read();
            let entries: Vec<((u64, u64), Arc<PoolEntry>)> = (served.pool)
                .entries
                .iter()
                .filter(|(_, entry)| entry.config_digest == base_digest)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            (served.database.clone(), entries)
        };
        entries.sort_by_key(|(k, _)| *k);
        let mut manifest = Vec::new();
        let mut write = |name: &str, payload: &[u8]| -> Result<()> {
            manifest.push(crate::storage::write_segment_file(dir, name, payload)?);
            Ok(())
        };

        let mut wtable = Vec::new();
        urel::segment::put_wtable(&mut wtable, database.wtable());
        write("wtable.seg", &wtable)?;

        let names = database.relation_names();
        let mut catalog = Vec::new();
        urel::segment::put_u32(&mut catalog, names.len() as u32);
        for name in &names {
            urel::segment::put_str(&mut catalog, name);
            urel::segment::put_u8(&mut catalog, u8::from(database.is_complete(name)));
        }
        write("catalog.seg", &catalog)?;
        for (i, name) in names.iter().enumerate() {
            let mut payload = Vec::new();
            urel::segment::put_relation(
                &mut payload,
                database.relation(name).expect("listed relation exists"),
            );
            write(&format!("rel-{i}.seg"), &payload)?;
        }

        for (i, (_, entry)) in entries.iter().enumerate() {
            let mut slots: Vec<((u64, u64), BTreeSet<String>, EvaluatedRelation)> = entry
                .slots
                .iter()
                .map(|(digest, slot)| (*digest, (*slot.footprint).clone(), slot.value.clone()))
                .collect();
            slots.sort_by_key(|a| a.0);
            let warm = crate::storage::WarmEntry {
                creator: entry.creator.to_string(),
                config_digest: base_digest,
                var_counter: entry.effects.var_counter as u64,
                stats: entry.effects.stats,
                introduced: match &entry.effects.wtable {
                    Some(wtable) => wtable.introduced_over(database.wtable()),
                    None => WTable::new(),
                },
                slots,
            };
            let mut payload = Vec::new();
            crate::storage::put_warm(&mut payload, &warm);
            write(&format!("warm-{i}.seg"), &payload)?;
        }
        crate::storage::write_manifest(dir, &manifest)
    }

    /// Rebuilds a server from a checkpoint directory with default admission
    /// limits (see
    /// [`restore_with_limits`](ServingEngine::restore_with_limits)).
    pub fn restore(config: EvalConfig, dir: impl AsRef<Path>) -> Result<ServingEngine> {
        ServingEngine::restore_with_limits(config, dir, ServingLimits::default())
    }

    /// Rebuilds a server from a checkpoint directory written by
    /// [`checkpoint`](ServingEngine::checkpoint), re-seeding the snapshot
    /// pool from the warm segments so the first evaluations of the restored
    /// queries run at warm cost — bit-identical to what the original process
    /// would have answered at the same RNG state.
    ///
    /// Everything is verified before any of it is served: a missing,
    /// truncated or bit-flipped manifest or segment — including warm
    /// segments — fails the restore with [`EngineError::Storage`], and the
    /// caller falls back to constructing a cold engine — as it does for a
    /// directory written under an older segment format version.  A warm
    /// segment carries no relation content, only the variables its prefix
    /// introduced on top of the restored W-table: they are decoded through
    /// the validating W-table constructor and must not collide with a
    /// restored base variable.  Warm segments whose
    /// recorded configuration digest differs from `config` verify but are
    /// skipped (their prefixes re-warm on demand); they are never coerced
    /// into a pool they were not computed under.
    pub fn restore_with_limits(
        config: EvalConfig,
        dir: impl AsRef<Path>,
        limits: ServingLimits,
    ) -> Result<ServingEngine> {
        let dir = dir.as_ref();
        let manifest = crate::storage::read_manifest(dir)?;
        let wtable =
            crate::storage::read_decoded(dir, &manifest, "wtable.seg", |cur| cur.take_wtable())?;
        let names = crate::storage::read_decoded(dir, &manifest, "catalog.seg", |cur| {
            let count = cur.take_u32()? as usize;
            let mut names = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let name = cur.take_str()?;
                let complete = cur.take_u8()? != 0;
                names.push((name, complete));
            }
            Ok(names)
        })?;

        let mut database = UDatabase::new();
        *database.wtable_mut() = wtable;
        for (i, (name, complete)) in names.into_iter().enumerate() {
            let file = format!("rel-{i}.seg");
            let rel =
                crate::storage::read_decoded(dir, &manifest, &file, |cur| cur.take_relation())?;
            database.set_relation(name, rel, complete);
        }
        database
            .validate()
            .map_err(|e| EngineError::Storage(format!("restored database: {e}")))?;

        // Every warm segment is verified and decoded before the engine
        // exists.  What a prefix introduced sits *on top of* the base
        // W-table: a variable declared in both means the segment does not
        // belong to this database.
        let mut warm_entries = Vec::new();
        for entry in manifest.iter().filter(|e| e.name.starts_with("warm-")) {
            let warm = crate::storage::read_decoded(
                dir,
                &manifest,
                &entry.name,
                crate::storage::take_warm,
            )?;
            let base = database.wtable();
            if let Some((var, _)) = warm.introduced.iter().find(|(var, _)| base.contains(var)) {
                return Err(EngineError::Storage(format!(
                    "{}: introduced variable {var} collides with the restored W-table",
                    entry.name
                )));
            }
            let mut wtable = base.clone();
            wtable
                .merge(&warm.introduced)
                .expect("disjoint from the base");
            warm_entries.push((warm, wtable));
        }

        let engine = ServingEngine::with_limits(config, database, limits)?;
        let base_digest = engine.config_digest;
        for (warm, wtable) in warm_entries {
            if warm.config_digest != base_digest {
                continue;
            }
            // Re-prepare the creator against the restored catalog: the
            // freshly computed profile supplies the pool fingerprint and the
            // stateful footprint, so the pool key always matches what this
            // process would compute — nothing keyed is trusted from disk.
            let Ok(prepared) = engine.prepare(&warm.creator, config, base_digest) else {
                continue;
            };
            let slots: HashMap<SubplanDigest, PooledSlot> = warm
                .slots
                .into_iter()
                .map(|(digest, footprint, value)| {
                    (
                        digest,
                        PooledSlot {
                            value,
                            footprint: Arc::new(footprint),
                        },
                    )
                })
                .collect();
            let pooled = PoolEntry {
                creator: prepared.key.clone(),
                config_digest: base_digest,
                effects: PrefixEffects {
                    wtable: Some(wtable),
                    var_counter: warm.var_counter as usize,
                    stats: warm.stats,
                    spaces: SpaceCache::new(),
                },
                slots,
                stateful_footprint: prepared.profile.stateful_footprint.clone(),
            };
            (engine.state.write().pool.entries)
                .insert(prepared.profile.fingerprint, Arc::new(pooled));
        }
        Ok(engine)
    }
}

/// A per-session handle over a shared [`ServingEngine`].
///
/// Sessions are cheap (`engine.session()`), hold no engine state beyond the
/// borrow, and may run on their own threads: all sharing and synchronization
/// lives in the engine.  Each session keeps a local evaluation count; the
/// caller owns the session's RNG, preserving the engine's determinism
/// contract (a session's answers depend on its own RNG stream only).
pub struct ServingSession<'a> {
    engine: &'a ServingEngine,
    evaluations: u64,
    retry: RetryPolicy,
}

impl<'a> ServingSession<'a> {
    /// The shared engine this session serves from.
    pub fn engine(&self) -> &'a ServingEngine {
        self.engine
    }

    /// Number of evaluations this session has issued.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Replaces the session's [`RetryPolicy`] (the default retries transient
    /// errors a few times with jittered backoff; [`RetryPolicy::none`]
    /// surfaces every error immediately).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Evaluates a query with the engine's default budgets.
    pub fn evaluate<R: Rng + ?Sized>(&mut self, text: &str, rng: &mut R) -> Result<EvalOutput> {
        self.evaluate_request(&Request::new(text), rng)
    }

    /// Evaluates a [`Request`] with per-request budgets, retrying transient
    /// failures ([`EngineError::is_transient`]) under the session's
    /// [`RetryPolicy`].  A retry that would sleep past the request deadline
    /// is not attempted — the transient error surfaces instead.
    pub fn evaluate_request<R: Rng + ?Sized>(
        &mut self,
        request: &Request<'_>,
        rng: &mut R,
    ) -> Result<EvalOutput> {
        self.with_retries(request, |engine| engine.evaluate_request(request, rng))
    }

    /// The degradable counterpart of
    /// [`evaluate_request`](ServingSession::evaluate_request): retries
    /// transient failures, then falls back to guaranteed bounds via
    /// [`ServingEngine::evaluate_degradable`] when budgets still cannot be
    /// met.
    pub fn evaluate_degradable<R: Rng + ?Sized>(
        &mut self,
        request: &Request<'_>,
        rng: &mut R,
    ) -> Result<ServingAnswer> {
        self.with_retries(request, |engine| engine.evaluate_degradable(request, rng))
    }

    /// Counts one session evaluation and runs `call` against the engine,
    /// re-issuing it after a jittered backoff while it fails transiently
    /// and the retry policy and the request deadline allow.
    fn with_retries<T>(
        &mut self,
        request: &Request<'_>,
        mut call: impl FnMut(&ServingEngine) -> Result<T>,
    ) -> Result<T> {
        self.evaluations += 1;
        let salt = self.evaluations;
        let mut attempt = 0u32;
        loop {
            match call(self.engine) {
                Err(e) if e.is_transient() && attempt < self.retry.max_retries => {
                    match self.backoff_or_give_up(request, attempt, salt) {
                        Some(()) => attempt += 1,
                        None => return Err(e),
                    }
                }
                verdict => return verdict,
            }
        }
    }

    /// Sleeps the jittered backoff before retry `attempt` and counts the
    /// retry, or returns `None` when the sleep would overrun the request
    /// deadline (the caller then surfaces the transient error).
    fn backoff_or_give_up(&self, request: &Request<'_>, attempt: u32, salt: u64) -> Option<()> {
        let backoff = self.retry.backoff(attempt, salt);
        if let Some(deadline) = request.deadline {
            if Instant::now() + backoff >= deadline {
                return None;
            }
        }
        std::thread::sleep(backoff);
        self.engine.counters.retries.fetch_add(1, Ordering::Relaxed);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::UEngine;
    use pdb::{relation, schema, tuple};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn coin_db() -> UDatabase {
        UDatabase::from_complete_relations([(
            "Coins",
            relation![schema!["CoinType", "Count"]; ["fair", 2], ["2headed", 1]],
        )])
    }

    /// Held by tests that assert on pool contents or warm/cold counters:
    /// the failpoint registry is process-wide, so under `--features
    /// failpoints` a sibling test's armed storm (dropped absorbs, injected
    /// errors) reaches every engine of the test binary.
    #[cfg(feature = "failpoints")]
    use crate::faults::exclusive as storm_free;
    #[cfg(not(feature = "failpoints"))]
    fn storm_free() -> impl Sized {}

    fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uadb-serving-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn restored_engines_serve_warm_and_match_cold_answers() {
        let _calm = storm_free();
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        serving.evaluate(text, &mut rng).unwrap();
        assert_eq!(serving.pooled_prefixes(), 1);

        let dir = checkpoint_dir("warm");
        serving.checkpoint(&dir).unwrap();
        let restored = ServingEngine::restore(EvalConfig::exact(), &dir).unwrap();
        // The warm segment re-seeded the pool before any evaluation ran.
        assert_eq!(restored.pooled_prefixes(), 1);
        assert!(restored.pooled_subplans() > 0);

        let mut warm_rng = ChaCha8Rng::seed_from_u64(23);
        let warm = restored.evaluate(text, &mut warm_rng).unwrap();
        let cold_engine = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut cold_rng = ChaCha8Rng::seed_from_u64(23);
        let cold = cold_engine.evaluate(text, &mut cold_rng).unwrap();
        assert_eq!(warm.result.relation, cold.result.relation);
        assert_eq!(warm.result.errors, cold.result.errors);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.database, cold.database);
        use rand::RngCore as _;
        assert_eq!(
            warm_rng.next_u64(),
            cold_rng.next_u64(),
            "identical RNG consumption"
        );
        // The restored engine's first evaluation was warm, not cold.
        assert_eq!(restored.stats().warm_evaluations, 1);
        assert_eq!(restored.stats().cold_evaluations, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_or_partial_checkpoints_are_rejected_not_served() {
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        serving.evaluate(text, &mut rng).unwrap();
        let dir = checkpoint_dir("corrupt");
        serving.checkpoint(&dir).unwrap();

        // Flip one byte in every segment in turn: each flip must fail the
        // whole restore with a classified storage error.
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert!(names.iter().any(|n| n.starts_with("warm-")));
        for name in &names {
            let path = dir.join(name);
            let pristine = std::fs::read(&path).unwrap();
            let mut bad = pristine.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            match ServingEngine::restore(EvalConfig::exact(), &dir) {
                Err(EngineError::Storage(_)) => {}
                other => panic!("corrupted {name} not rejected: {:?}", other.is_ok()),
            }
            std::fs::write(&path, &pristine).unwrap();
        }
        // Pristine again: restore succeeds.
        ServingEngine::restore(EvalConfig::exact(), &dir).unwrap();

        // A truncated directory (a listed segment deleted) is rejected too.
        std::fs::remove_file(dir.join("rel-0.seg")).unwrap();
        assert!(matches!(
            ServingEngine::restore(EvalConfig::exact(), &dir),
            Err(EngineError::Storage(_))
        ));
        // And so is a directory with no manifest (crash mid-checkpoint).
        std::fs::remove_file(dir.join(super::super::storage::MANIFEST)).unwrap();
        assert!(matches!(
            ServingEngine::restore(EvalConfig::exact(), &dir),
            Err(EngineError::Storage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restores_under_a_different_config_skip_warm_segments() {
        let _calm = storm_free();
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        serving.evaluate(text, &mut rng).unwrap();
        let dir = checkpoint_dir("config");
        serving.checkpoint(&dir).unwrap();

        // A different lowering configuration verifies the warm segment but
        // skips it: the pool starts empty and the first evaluation is cold —
        // and still correct.
        let other = EvalConfig::exact()
            .with_shards(1)
            .with_spill_budget_bytes(96);
        let restored = ServingEngine::restore(other, &dir).unwrap();
        assert_eq!(restored.pooled_prefixes(), 0);
        let mut rng_a = ChaCha8Rng::seed_from_u64(17);
        let out = restored.evaluate(text, &mut rng_a).unwrap();
        let reference = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng_b = ChaCha8Rng::seed_from_u64(17);
        let expect = reference.evaluate(text, &mut rng_b).unwrap();
        assert_eq!(out.result.relation, expect.result.relation);
        assert_eq!(restored.stats().cold_evaluations, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A database with a base variable `c` (an uncertain relation `Flip`
    /// over it) beside the complete `Coins`, `Labels` and `Other`.
    fn uncertain_db() -> UDatabase {
        let mut db = two_relation_db();
        let c = urel::Var::new("c");
        db.add_variable(
            c.clone(),
            [(pdb::Value::Int(0), 0.5), (pdb::Value::Int(1), 0.5)],
        )
        .unwrap();
        let mut flip = URelation::empty(schema!["Side"]);
        for side in 0..2 {
            let cond = urel::Condition::new([(c.clone(), pdb::Value::Int(side))]).unwrap();
            flip.insert(cond, tuple![side]).unwrap();
        }
        db.set_relation("Flip", flip, false);
        db
    }

    /// Number and total size of the files in `dir` whose name starts with
    /// `prefix`.
    fn segment_files(dir: &std::path::Path, prefix: &str) -> (usize, u64) {
        let sizes: Vec<u64> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
            .map(|e| e.metadata().unwrap().len())
            .collect();
        (sizes.len(), sizes.iter().sum())
    }

    #[test]
    fn checkpoints_are_read_only_and_hold_relation_content_once() {
        let _calm = storm_free();
        // Three pooled spines (an exact `conf` root is part of its spine),
        // one of them under a per-request accuracy override.
        let serving = ServingEngine::new(EvalConfig::exact(), uncertain_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let spines = [
            "conf(project[CoinType](repairkey[ @ Count](Coins)))",
            "conf(project[Label](join(repairkey[ @ Count](Coins), Labels)))",
            "conf(Flip)",
        ];
        for text in spines {
            serving.evaluate(text, &mut rng).unwrap();
        }
        let budgeted = Request::new(spines[0]).with_accuracy(0.3, 0.1);
        serving.evaluate_request(&budgeted, &mut rng).unwrap();
        assert_eq!(serving.pooled_prefixes(), 4);

        // A checkpoint only reads: no counter moves (it prepares nothing,
        // so the query cache sees no lookup) and nothing is re-prepared.
        let before = (serving.stats(), serving.prepared_queries());
        let dir = checkpoint_dir("once");
        serving.checkpoint(&dir).unwrap();
        assert_eq!((serving.stats(), serving.prepared_queries()), before);
        // Only the three base-configuration spines are persisted.
        let (warm_files, warm_bytes) = segment_files(&dir, "warm-");
        assert_eq!(warm_files, 3);

        // Relation content is written once, in the relation segments:
        // growing a relation no pooled slot scans grows those and leaves
        // the warm segments byte for byte as large as before.
        let (_, rel_bytes) = segment_files(&dir, "rel-");
        let mut grown = pdb::Relation::empty(pdb::Schema::new(["X"]).unwrap());
        for i in 0..500 {
            grown
                .insert(pdb::Tuple::new(vec![pdb::Value::Int(i)]))
                .unwrap();
        }
        serving
            .update_relations([("Other", URelation::from_complete(&grown))])
            .unwrap();
        assert_eq!(serving.pooled_prefixes(), 4, "no spine scans Other");
        let dir2 = checkpoint_dir("once-grown");
        serving.checkpoint(&dir2).unwrap();
        assert_eq!(segment_files(&dir2, "warm-"), (3, warm_bytes));
        assert!(segment_files(&dir2, "rel-").1 > rel_bytes + 500);

        // The restored engine serves all three spines warm, bit-identically
        // to a cold engine over the same database.
        let restored = ServingEngine::restore(EvalConfig::exact(), &dir2).unwrap();
        assert_eq!(restored.pooled_prefixes(), 3);
        let cold = ServingEngine::new(EvalConfig::exact(), serving.database().clone()).unwrap();
        for (i, text) in spines.iter().enumerate() {
            let mut warm_rng = ChaCha8Rng::seed_from_u64(60 + i as u64);
            let mut cold_rng = ChaCha8Rng::seed_from_u64(60 + i as u64);
            let warm = restored.evaluate(text, &mut warm_rng).unwrap();
            let expect = cold.evaluate(text, &mut cold_rng).unwrap();
            assert_eq!(warm.result.relation, expect.result.relation);
            assert_eq!(warm.stats, expect.stats);
            assert_eq!(warm.database, expect.database);
        }
        assert_eq!(restored.stats().warm_evaluations, 3);
        assert_eq!(restored.stats().cold_evaluations, 0);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn colliding_warm_variables_and_older_formats_fail_the_restore() {
        use crate::storage::{self, MANIFEST, VERSION};
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), uncertain_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        serving.evaluate(text, &mut rng).unwrap();
        let dir = checkpoint_dir("collide");
        serving.checkpoint(&dir).unwrap();
        ServingEngine::restore(EvalConfig::exact(), &dir).unwrap();

        // The warm segment holds the repair-key variable only — not the
        // base variable `c`.  Re-frame it (segment and manifest row both
        // digest-consistent) with `c` among its introduced variables: the
        // segment no longer sits on top of this database's W-table.
        let mut manifest = storage::read_manifest(&dir).unwrap();
        let row = manifest
            .iter()
            .position(|e| e.name == "warm-0.seg")
            .unwrap();
        let mut warm =
            storage::read_decoded(&dir, &manifest, "warm-0.seg", storage::take_warm).unwrap();
        let c = urel::Var::new("c");
        assert!(!warm.introduced.is_empty() && !warm.introduced.contains(&c));
        warm.introduced
            .add_variable(c, [(pdb::Value::Int(7), 1.0)])
            .unwrap();
        let mut payload = Vec::new();
        storage::put_warm(&mut payload, &warm);
        let pristine = std::fs::read(dir.join("warm-0.seg")).unwrap();
        let pristine_row = manifest[row].clone();
        manifest[row] = storage::write_segment_file(&dir, "warm-0.seg", &payload).unwrap();
        storage::write_manifest(&dir, &manifest).unwrap();
        match ServingEngine::restore(EvalConfig::exact(), &dir) {
            Err(EngineError::Storage(msg)) => assert!(msg.contains("collides"), "{msg}"),
            other => panic!("colliding warm segment not rejected: {:?}", other.is_ok()),
        }
        std::fs::write(dir.join("warm-0.seg"), pristine).unwrap();
        manifest[row] = pristine_row;
        storage::write_manifest(&dir, &manifest).unwrap();
        ServingEngine::restore(EvalConfig::exact(), &dir).unwrap();

        // A directory written under the previous format version — every
        // frame stamped with it, payloads and digests intact — is rejected
        // the same way; the caller falls back to a cold start.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&(VERSION - 1).to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
        }
        assert!(dir.join(MANIFEST).exists());
        match ServingEngine::restore(EvalConfig::exact(), &dir) {
            Err(EngineError::Storage(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("older format not rejected: {:?}", other.is_ok()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_evaluations_match_cold_and_engine_results() {
        let _calm = storm_free();
        let db = coin_db();
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), db.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let cold = serving.evaluate(text, &mut rng).unwrap();
        let warm = serving.evaluate(text, &mut rng).unwrap();
        assert_eq!(cold.result.relation, warm.result.relation);
        assert_eq!(cold.result.errors, warm.result.errors);
        assert_eq!(cold.stats, warm.stats);
        assert_eq!(cold.database, warm.database);

        // Agrees with the plain engine on a fresh RNG with the same seed
        // (the query is deterministic, so RNG state is irrelevant).
        let engine = UEngine::new(EvalConfig::exact());
        let query = algebra::parse_query(text).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let direct = engine.evaluate(&db, &query, &mut rng).unwrap();
        assert_eq!(direct.result.relation, warm.result.relation);

        let stats = serving.stats();
        assert_eq!(stats.cold_evaluations, 1);
        assert_eq!(stats.warm_evaluations, 1);
        assert_eq!(stats.plan_cache_misses, 1);
        assert_eq!(stats.plan_cache_hits, 1);
        assert_eq!(stats.shared_prefix_hits, 0);
        assert_eq!(serving.prepared_queries(), 1);
        assert_eq!(serving.pooled_prefixes(), 1);
    }

    #[test]
    fn warm_aconf_requests_reuse_compiled_estimator_state() {
        let _calm = storm_free();
        // The pooled prefix retains the SpaceCache, whose compiled spaces
        // hold the extracted-and-compiled lineage programs: every warm
        // resume of a sampling query must hit that cache (sampling only) —
        // never re-extract events or re-compile programs.
        let db = coin_db();
        let text = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        serving.evaluate(text, &mut rng).unwrap();

        let entry = {
            let served = serving.state.read();
            served
                .pool
                .entries
                .values()
                .next()
                .cloned()
                .expect("pooled prefix")
        };
        let wtable = entry.effects.wtable.as_ref().expect("post-spine W-table");
        let space = entry
            .effects
            .spaces
            .compiled(wtable)
            .expect("compiled space");
        let len_before = space.lineage_len();
        let hits_before = space.lineage_hits();
        assert!(len_before > 0, "the cold run must populate the cache");
        // The pooled result feeding the `aconf` root carries the content
        // digest the lineage cache is keyed by, so a warm request's cache
        // lookup hashes nothing.
        let input = algebra::parse_query("project[CoinType](repairkey[ @ Count](Coins))").unwrap();
        let input = algebra::LogicalPlan::lower(&input).unwrap();
        let input = entry.slots[&input.subplan_digests()[input.root()]]
            .value
            .relation
            .clone();
        assert!(input.digest_is_memoised(), "the cold run must memoise it");

        for _ in 0..3 {
            serving.evaluate(text, &mut rng).unwrap();
        }
        assert_eq!(
            space.lineage_len(),
            len_before,
            "warm requests must not extract or compile new batches"
        );
        assert_eq!(
            space.lineage_hits(),
            hits_before + 3,
            "every warm request must be served from the compiled cache"
        );
        assert!(input.digest_is_memoised(), "warm requests keep the memo");

        // A commit to the relation feeding that result: the next warm
        // answer is the cold one over the committed content.
        let old = serving.database().relation("Coins").unwrap().clone();
        let mut new = old.clone();
        new.insert(urel::Condition::always(), pdb::tuple!["weighted", 5])
            .unwrap();
        serving
            .apply_deltas([("Coins", old.diff(&new).unwrap())])
            .unwrap();
        serving.evaluate(text, &mut rng).unwrap();
        assert_warm_matches_cold(&serving, text, 8);
    }

    #[test]
    fn absorb_racing_an_update_is_dropped_not_pooled() {
        let _calm = storm_free();
        // The reviewed race, replayed deterministically: a cold session
        // reads its start (database clone + epoch) under the state read
        // lock, executes, and only then absorbs into the pool.  If an
        // update commits (and runs pool
        // invalidation) in between, the absorb must drop the snapshot —
        // pooling it would serve pre-update answers to every later warm hit.
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let text = "poss(Coins)";
        let prepared = serving
            .prepare(text, EvalConfig::exact(), serving.config_digest)
            .unwrap();

        // Step 1 of the request path: read the start — nothing is pooled,
        // so it is a cold one — and run it, capturing.
        let start = serving.start(&prepared);
        assert!(start.resolved.is_none());
        assert_eq!(start.epoch, serving.state.read().epoch);
        let epoch = start.epoch;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ctx = serving.context(EvalConfig::exact(), start.database, &mut rng, None);
        let plan = &prepared.physical;
        let (_, snapshot) = plan.resume(&mut ctx, plan.empty_snapshot(), true).unwrap();
        let snapshot = snapshot.expect("a capturing run returns its snapshot");

        // Step 2: a concurrent update commits and invalidates the pool
        // before the session reaches its absorb.
        let updated =
            URelation::from_complete(&relation![schema!["CoinType", "Count"]; ["fair", 5]]);
        serving
            .update_relations([("Coins", updated.clone())])
            .unwrap();

        // Step 3: the late absorb must detect the epoch change and drop.
        serving.absorb_if_current(epoch, &prepared, &snapshot);
        assert_eq!(
            serving.pooled_prefixes(),
            0,
            "a snapshot captured before the update must not re-enter the pool"
        );
        assert_eq!(serving.stats().stale_absorbs_dropped, 1);

        // The next evaluation runs cold against the updated content and
        // re-warms the pool; a warm repeat matches it bit for bit.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cold = serving.evaluate(text, &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let warm = serving.evaluate(text, &mut rng).unwrap();
        assert_eq!(cold.result.relation, warm.result.relation);
        assert_eq!(
            cold.result.relation, updated,
            "post-update evaluations must serve the updated content"
        );
        assert_eq!(serving.stats().stale_absorbs_dropped, 1);
    }

    #[test]
    fn absorb_at_the_current_epoch_still_pools() {
        let _calm = storm_free();
        // Counterpart to the race test: with no intervening commit the
        // guarded absorb behaves exactly like the unguarded one did.
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        serving.evaluate("poss(Coins)", &mut rng).unwrap();
        assert_eq!(serving.pooled_prefixes(), 1);
        assert_eq!(serving.stats().stale_absorbs_dropped, 0);
    }

    #[test]
    fn alternative_spellings_share_one_prepared_query() {
        let _calm = storm_free();
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let counts = || {
            let stats = serving.stats();
            (stats.plan_cache_hits, stats.plan_cache_misses)
        };
        // A first request lowers; an exact repeat and a respelling are hits.
        serving.evaluate("poss(Coins)", &mut rng).unwrap();
        assert_eq!(counts(), (0, 1));
        serving.evaluate("poss(Coins)", &mut rng).unwrap();
        serving.evaluate("poss( Coins )", &mut rng).unwrap();
        assert_eq!(counts(), (2, 1));
        assert_eq!(serving.stats().warm_evaluations, 2);
        // Prepared queries count once, however many spellings alias them.
        assert_eq!(serving.prepared_queries(), 1);
        serving
            .evaluate("poss(select[Count = 1](Coins))", &mut rng)
            .unwrap();
        assert_eq!(serving.prepared_queries(), 2);
    }

    #[test]
    fn query_cache_skips_invalid_texts_and_clears_on_set_database() {
        let _calm = storm_free();
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let counts = || {
            let stats = serving.stats();
            (stats.plan_cache_hits, stats.plan_cache_misses)
        };
        serving.evaluate("poss(Coins)", &mut rng).unwrap();
        serving
            .evaluate("poss(select[Count = 1](Coins))", &mut rng)
            .unwrap();
        assert_eq!(serving.prepared_queries(), 2);

        // Invalid texts are never cached, and the warm path is untouched.
        assert!(serving
            .evaluate("project[Missing](Coins)", &mut rng)
            .is_err());
        assert!(serving.evaluate("poss(Coins", &mut rng).is_err());
        assert_eq!(serving.prepared_queries(), 2);
        let (hits, misses) = counts();
        let warm = serving.stats().warm_evaluations;
        serving.evaluate("poss( Coins )", &mut rng).unwrap();
        assert_eq!(counts(), (hits + 1, misses));
        assert_eq!(serving.stats().warm_evaluations, warm + 1);

        // Replacing the database empties the cache.
        serving.set_database(coin_db()).unwrap();
        assert_eq!(serving.prepared_queries(), 0);
        assert_eq!(serving.queries.read().len(), 0);
    }

    #[test]
    fn spelling_churn_evicts_aliases_never_the_hot_query() {
        let _calm = storm_free();
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        serving.evaluate("poss(Coins)", &mut rng).unwrap();
        serving
            .evaluate("poss(select[Count = 1](Coins))", &mut rng)
            .unwrap();
        let misses = serving.stats().plan_cache_misses;
        // Spelling churn past the bound drops aliases, never the hot query:
        // it is never lowered again, and the cache never outgrows the bound.
        for pad in 1..=PREPARED_CAP + 100 {
            let spelled = format!("poss({}Coins)", " ".repeat(pad));
            serving.evaluate(&spelled, &mut rng).unwrap();
            assert!(serving.queries.read().len() <= PREPARED_CAP, "pad {pad}");
        }
        let stats = serving.stats();
        assert_eq!(
            stats.plan_cache_misses, misses,
            "spelling churn never re-lowered"
        );
        assert_eq!(stats.plan_cache_hits, PREPARED_CAP as u64 + 100);
        assert_eq!(serving.prepared_queries(), 2);
    }

    #[test]
    fn prepares_racing_set_database_never_cache_a_replaced_catalog() {
        // Two databases whose catalogs disagree: the join's shared attribute
        // is `X` in one and `Y` in the other, and each projection validates
        // under one catalog only.  A plan validated against one catalog and
        // cached under the other would answer a projection the fresh engine
        // rejects: its selection is empty, so execution never reaches the
        // missing attribute.
        let _calm = storm_free();
        let a = UDatabase::from_complete_relations([
            ("R", relation![schema!["K", "X"]; [1, 10], [2, 20]]),
            ("S", relation![schema!["X", "V"]; [10, "a"], [20, "b"]]),
        ]);
        let b = UDatabase::from_complete_relations([
            ("R", relation![schema!["K", "Y"]; [1, 20], [3, 30]]),
            ("S", relation![schema!["Y", "V"]; [20, "c"], [30, "d"]]),
        ]);
        let texts = [
            "poss(join(R, S))",
            "conf(project[K](join(R, S)))",
            "poss(project[X](select[K = 5](R)))",
            "poss(project[Y](select[K = 5](R)))",
        ];
        let answer = |result: Result<EvalOutput>| {
            result
                .map(|out| out.result.relation)
                .map_err(|e| e.to_string())
        };
        let fresh = |db: &UDatabase, text: &str| {
            let query = algebra::parse_query(text).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            answer(UEngine::new(EvalConfig::exact()).evaluate(db, &query, &mut rng))
        };
        let expected: Vec<[std::result::Result<URelation, String>; 2]> = texts
            .iter()
            .map(|text| [fresh(&a, text), fresh(&b, text)])
            .collect();
        let serving = ServingEngine::new(EvalConfig::exact(), a.clone()).unwrap();

        // The race replayed deterministically: a query lowered against the
        // catalog of `a` reaches its install after `set_database(b)`.
        let stale = Arc::clone(&serving.queries.read().catalog);
        let (text, digest) = (texts[2], serving.config_digest);
        let lowered = serving.prepare(text, EvalConfig::exact(), digest).unwrap();
        serving.set_database(b.clone()).unwrap();
        assert!(serving
            .queries
            .write()
            .install(text, &stale, lowered)
            .is_none());
        assert_eq!(serving.prepared_queries(), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(answer(serving.evaluate(text, &mut rng)), expected[2][1]);
        serving.set_database(a.clone()).unwrap();

        // The race itself, many times over.
        for round in 0..100 {
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                for reader in 0..3 {
                    let (serving, stop, expected) = (&serving, &stop, &expected);
                    scope.spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            for (text, expected) in texts.iter().zip(expected) {
                                let mut rng = ChaCha8Rng::seed_from_u64(5);
                                let got = answer(serving.evaluate(text, &mut rng));
                                if got.is_ok() {
                                    assert!(
                                        expected.contains(&got),
                                        "round {round} reader {reader}: {text} gave {got:?}"
                                    );
                                }
                            }
                        }
                    });
                }
                for switch in 0..40 {
                    let db = if switch % 2 == 0 { &b } else { &a };
                    serving.set_database(db.clone()).unwrap();
                    // Let the readers start lowering against the new catalog.
                    std::thread::yield_now();
                }
                // The last switch installs `b` on odd rounds, `a` on even.
                if round % 2 == 1 {
                    serving.set_database(b.clone()).unwrap();
                }
                stop.store(true, Ordering::Release);
            });
            let last = usize::from(round % 2 == 1);
            for (text, expected) in texts.iter().zip(&expected) {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let got = answer(serving.evaluate(text, &mut rng));
                assert_eq!(
                    got, expected[last],
                    "round {round}, after the writer: {text}"
                );
            }
        }
    }

    #[test]
    fn sampling_queries_resume_at_the_frontier_deterministically() {
        let db = coin_db();
        let text = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::default(), db.clone()).unwrap();
        // Warm evaluation with RNG state S must equal a cold evaluation of
        // the plain engine with the same RNG state S.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let _cold = serving.evaluate(text, &mut rng).unwrap();
        let mut warm_rng = ChaCha8Rng::seed_from_u64(1234);
        let warm = serving.evaluate(text, &mut warm_rng).unwrap();

        let engine = UEngine::new(EvalConfig::default());
        let query = algebra::parse_query(text).unwrap();
        let mut direct_rng = ChaCha8Rng::seed_from_u64(1234);
        let direct = engine.evaluate(&db, &query, &mut direct_rng).unwrap();
        assert_eq!(warm.result.relation, direct.result.relation);
        assert_eq!(warm.stats, direct.stats);
    }

    #[test]
    fn shared_sampling_reuses_drawn_blocks_without_changing_answers() {
        let db = coin_db();
        let text = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let config = EvalConfig::default().with_shared_sampling(true);
        let serving = ServingEngine::new(config, db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let first = serving.evaluate(text, &mut rng).unwrap();
        assert_eq!(
            serving.stats().shared_block_hits,
            0,
            "the first request draws every block itself"
        );
        // A second request with a *different* caller seed: canonical
        // content-derived streams make the answer a pure function of
        // (content, configuration, ε/δ), so it matches the first bit for
        // bit — and its tallies come from the scheduler, not a re-run.
        let mut rng2 = ChaCha8Rng::seed_from_u64(999);
        let second = serving.evaluate(text, &mut rng2).unwrap();
        assert_eq!(first.result.relation, second.result.relation);
        let stats = serving.stats();
        assert!(stats.shared_block_hits > 0, "stats: {stats:?}");
        assert!(stats.sampled_answers > 0, "stats: {stats:?}");
        assert_eq!(stats.exact_compiled_answers, 0, "backend is off by default");
    }

    #[test]
    fn the_exact_backend_answers_narrow_aconf_queries_seed_independently() {
        let db = coin_db();
        let text = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let config =
            EvalConfig::default().with_exact_backend(confidence::cost::DEFAULT_NODE_BUDGET);
        let serving = ServingEngine::new(config, db.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let first = serving.evaluate(text, &mut rng).unwrap();
        let mut rng2 = ChaCha8Rng::seed_from_u64(31337);
        let second = serving.evaluate(text, &mut rng2).unwrap();
        // Every event of the coin query is narrow enough to compile, so the
        // answers are exact and independent of the caller's seed.
        assert_eq!(first.result.relation, second.result.relation);
        let stats = serving.stats();
        assert!(stats.exact_compiled_answers > 0, "stats: {stats:?}");
        assert_eq!(stats.sampled_answers, 0, "stats: {stats:?}");
        assert_eq!(first.stats.karp_luby_samples, 0, "no samples drawn");
        // The compiled answers agree with exact model counting.
        let exact_text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let exact_engine = UEngine::new(EvalConfig::exact());
        let query = algebra::parse_query(exact_text).unwrap();
        let mut exact_rng = ChaCha8Rng::seed_from_u64(0);
        let exact = exact_engine.evaluate(&db, &query, &mut exact_rng).unwrap();
        assert_eq!(first.result.relation, exact.result.relation);
    }

    #[test]
    fn set_database_invalidates_caches() {
        let _calm = storm_free();
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        serving.evaluate("poss(Coins)", &mut rng).unwrap();
        let other = UDatabase::from_complete_relations([(
            "Coins",
            relation![schema!["CoinType", "Count"]; ["weighted", 5]],
        )]);
        serving.set_database(other).unwrap();
        assert_eq!(serving.prepared_queries(), 0);
        assert_eq!(serving.pooled_prefixes(), 0);
        let out = serving.evaluate("poss(Coins)", &mut rng).unwrap();
        assert_eq!(out.result.relation.len(), 1);
        // Unknown relations fail validation against the new catalog.
        assert!(serving.evaluate("poss(Nope)", &mut rng).is_err());
    }

    #[test]
    fn overlapping_queries_share_one_pooled_prefix() {
        let _calm = storm_free();
        // Two queries over the same deterministic prefix (repair-key +
        // projection), differing only in their sampling suffix: the second
        // query's *first* evaluation must resume the pooled prefix.
        let db = coin_db();
        let q1 = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let q2 = "aconf[0.2, 0.05](project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::default(), db.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        serving.evaluate(q1, &mut rng).unwrap();
        let mut rng2 = ChaCha8Rng::seed_from_u64(77);
        let shared = serving.evaluate(q2, &mut rng2).unwrap();

        let stats = serving.stats();
        assert_eq!(stats.cold_evaluations, 1, "q2 never ran its prefix");
        assert_eq!(stats.warm_evaluations, 1);
        assert_eq!(stats.shared_prefix_hits, 1);
        assert_eq!(serving.prepared_queries(), 2);
        assert_eq!(serving.pooled_prefixes(), 1, "one spine, two queries");

        // The shared resume is bit-identical to a cold evaluation of q2.
        let engine = UEngine::new(EvalConfig::default());
        let query = algebra::parse_query(q2).unwrap();
        let mut direct_rng = ChaCha8Rng::seed_from_u64(77);
        let direct = engine.evaluate(&db, &query, &mut direct_rng).unwrap();
        assert_eq!(shared.result.relation, direct.result.relation);
        assert_eq!(shared.stats, direct.stats);
        assert_eq!(shared.database, direct.database);
    }

    fn two_relation_db() -> UDatabase {
        UDatabase::from_complete_relations([
            (
                "Coins",
                relation![schema!["CoinType", "Count"]; ["fair", 2], ["2headed", 1]],
            ),
            (
                "Labels",
                relation![schema!["CoinType", "Label"]; ["fair", "ok"], ["2headed", "trick"]],
            ),
            ("Other", relation![schema!["X"]; [1], [2]]),
        ])
    }

    #[test]
    fn update_relations_touches_only_intersecting_state() {
        let _calm = storm_free();
        let db = two_relation_db();
        let touching = "aconf[0.3, 0.1](project[Label](join(repairkey[ @ Count](Coins), Labels)))";
        let independent = "aconf[0.3, 0.1](project[X](Other))";
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        serving.evaluate(touching, &mut rng).unwrap();
        serving.evaluate(independent, &mut rng).unwrap();
        assert_eq!(serving.stats().cold_evaluations, 2);
        let pooled = serving.pooled_subplans();

        // Replace `Labels`: it feeds only pure sub-plans of `touching` (the
        // repair-key spine reads `Coins`), so the entry survives, and
        // `independent` (whose spine is empty and footprint disjoint) keeps
        // its pooled state.  The replacement amounts to a four-row delta,
        // small enough that the Labels-scanning sub-plans are patched in
        // place rather than dropped — exactly what the equivalent
        // `apply_deltas` call does.
        let new_labels = URelation::from_complete(
            &relation![schema!["CoinType", "Label"]; ["fair", "good"], ["2headed", "evil"]],
        );
        serving.update_relations([("Labels", new_labels)]).unwrap();
        let stats = serving.stats();
        assert_eq!(stats.relation_updates, 1);
        assert_eq!(stats.snapshots_invalidated, 0, "no spine scans Labels");
        assert_eq!(stats.subplans_patched, 3, "scan + join + project");
        assert_eq!(stats.subplans_invalidated, 0);
        assert_eq!(stats.subplans_demoted, 0);
        assert_eq!(serving.pooled_subplans(), pooled);

        // Both queries still evaluate warm with nothing to recompute, and
        // the touching query's answer matches a cold engine over the updated
        // database.
        let mut warm_rng = ChaCha8Rng::seed_from_u64(42);
        let warm = serving.evaluate(touching, &mut warm_rng).unwrap();
        serving.evaluate(independent, &mut warm_rng).unwrap();
        let stats = serving.stats();
        assert_eq!(stats.cold_evaluations, 2, "no evaluation re-ran cold");
        assert_eq!(stats.warm_evaluations, 2);
        assert_eq!(stats.subplans_recomputed, 0);

        let engine = UEngine::new(EvalConfig::default());
        let query = algebra::parse_query(touching).unwrap();
        let mut direct_rng = ChaCha8Rng::seed_from_u64(42);
        let direct = engine
            .evaluate(&serving.database(), &query, &mut direct_rng)
            .unwrap();
        assert_eq!(warm.result.relation, direct.result.relation);
        assert_eq!(warm.stats, direct.stats);
        assert_eq!(warm.database, direct.database);
    }

    #[test]
    fn update_to_a_spine_relation_drops_the_entry() {
        let _calm = storm_free();
        let db = two_relation_db();
        let text = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        serving.evaluate(text, &mut rng).unwrap();
        assert_eq!(serving.pooled_prefixes(), 1);

        // `Coins` feeds the repair-key spine: the entry must go.
        let new_coins = URelation::from_complete(
            &relation![schema!["CoinType", "Count"]; ["fair", 1], ["2headed", 3]],
        );
        serving.update_relations([("Coins", new_coins)]).unwrap();
        assert_eq!(serving.stats().snapshots_invalidated, 1);
        assert_eq!(
            serving.stats().subplans_patched,
            0,
            "stale spine: no patching"
        );
        assert_eq!(serving.pooled_prefixes(), 0);

        // The next evaluation runs cold over the new content and matches
        // the plain engine.
        let mut rng_a = ChaCha8Rng::seed_from_u64(11);
        let re_cold = serving.evaluate(text, &mut rng_a).unwrap();
        assert_eq!(serving.stats().cold_evaluations, 2);
        let engine = UEngine::new(EvalConfig::default());
        let query = algebra::parse_query(text).unwrap();
        let mut rng_b = ChaCha8Rng::seed_from_u64(11);
        let direct = engine
            .evaluate(&serving.database(), &query, &mut rng_b)
            .unwrap();
        assert_eq!(re_cold.result.relation, direct.result.relation);
    }

    #[test]
    fn no_op_updates_invalidate_nothing() {
        let _calm = storm_free();
        let db = coin_db();
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), db.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        serving.evaluate(text, &mut rng).unwrap();
        let before = (serving.stats(), serving.state.read().epoch);
        let same = db.relation("Coins").unwrap().clone();
        serving.update_relations([("Coins", same)]).unwrap();
        // A content-identical replacement is an empty delta: no epoch bump,
        // no counter moves, nothing leaves the pool.
        assert_eq!((serving.stats(), serving.state.read().epoch), before);
        assert_eq!(serving.pooled_prefixes(), 1);
        serving.evaluate(text, &mut rng).unwrap();
        assert_eq!(serving.stats().warm_evaluations, 1);
    }

    #[test]
    fn update_validation_is_atomic() {
        let db = two_relation_db();
        let serving = ServingEngine::new(EvalConfig::exact(), db.clone()).unwrap();
        let good =
            URelation::from_complete(&relation![schema!["CoinType", "Count"]; ["weighted", 4]]);
        let bad_schema = URelation::from_complete(&relation![schema!["A"]; [1]]);
        // The second update is invalid: nothing may be applied.
        assert!(serving
            .update_relations([("Coins", good), ("Labels", bad_schema)])
            .is_err());
        assert_eq!(
            serving.database().relation("Coins").unwrap(),
            db.relation("Coins").unwrap()
        );
        // Unknown relations are rejected up front too.
        let any = URelation::from_complete(&relation![schema!["A"]; [1]]);
        assert!(serving.update_relations([("Nope", any)]).is_err());
    }

    #[test]
    fn apply_deltas_patches_pure_subplans_in_place() {
        let _calm = storm_free();
        let db = two_relation_db();
        let touching = "aconf[0.3, 0.1](project[Label](join(repairkey[ @ Count](Coins), Labels)))";
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        serving.evaluate(touching, &mut rng).unwrap();

        // A single-row delta to the pure join side: the Labels scan, the
        // join and the projection above it are patched in place — nothing
        // is demoted, so the next resume recomputes nothing.
        let old = serving.database().relation("Labels").unwrap().clone();
        let mut new = old.clone();
        new.insert(urel::Condition::always(), pdb::tuple!["2headed", "sneaky"])
            .unwrap();
        let delta = old.diff(&new).unwrap();
        serving.apply_deltas([("Labels", delta)]).unwrap();
        let stats = serving.stats();
        assert_eq!(stats.relation_updates, 1);
        assert_eq!(stats.snapshots_invalidated, 0, "no spine scans Labels");
        assert_eq!(stats.subplans_patched, 3, "scan + join + project");
        assert_eq!(stats.subplans_demoted, 0);
        assert_eq!(stats.subplans_invalidated, 0);

        // The patched warm path is bit-identical to a cold engine over the
        // patched database, with zero sub-plan recomputation.
        let mut warm_rng = ChaCha8Rng::seed_from_u64(99);
        let warm = serving.evaluate(touching, &mut warm_rng).unwrap();
        assert_eq!(serving.stats().subplans_recomputed, 0);
        let engine = UEngine::new(EvalConfig::default());
        let query = algebra::parse_query(touching).unwrap();
        let mut direct_rng = ChaCha8Rng::seed_from_u64(99);
        let direct = engine
            .evaluate(&serving.database(), &query, &mut direct_rng)
            .unwrap();
        assert_eq!(warm.result.relation, direct.result.relation);
        assert_eq!(warm.stats, direct.stats);
        assert_eq!(warm.database, direct.database);
    }

    #[test]
    fn delta_to_a_spine_relation_still_drops_the_entry() {
        let _calm = storm_free();
        let db = two_relation_db();
        let text = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        serving.evaluate(text, &mut rng).unwrap();

        // `Coins` feeds the repair-key spine: however small the delta, the
        // pooled context effects are stale and the entry must go.
        let old = serving.database().relation("Coins").unwrap().clone();
        let mut new = old.clone();
        new.insert(urel::Condition::always(), pdb::tuple!["weighted", 5])
            .unwrap();
        let delta = old.diff(&new).unwrap();
        serving.apply_deltas([("Coins", delta)]).unwrap();
        let stats = serving.stats();
        assert_eq!(stats.snapshots_invalidated, 1);
        assert_eq!(stats.subplans_patched, 0);
        assert_eq!(serving.pooled_prefixes(), 0);

        let mut rng_a = ChaCha8Rng::seed_from_u64(22);
        let re_cold = serving.evaluate(text, &mut rng_a).unwrap();
        assert_eq!(serving.stats().cold_evaluations, 2);
        let engine = UEngine::new(EvalConfig::default());
        let query = algebra::parse_query(text).unwrap();
        let mut rng_b = ChaCha8Rng::seed_from_u64(22);
        let direct = engine
            .evaluate(&serving.database(), &query, &mut rng_b)
            .unwrap();
        assert_eq!(re_cold.result.relation, direct.result.relation);
    }

    /// A server over a 40-row `Labels` join side with the touching query
    /// pooled, plus that query's text.
    fn wide_labels_serving() -> (ServingEngine, &'static str) {
        let mut labels = pdb::Relation::empty(pdb::Schema::new(["CoinType", "Label"]).unwrap());
        for i in 0..40 {
            labels
                .insert(pdb::Tuple::new(vec![
                    pdb::Value::str(if i % 2 == 0 { "fair" } else { "2headed" }),
                    pdb::Value::Int(i),
                ]))
                .unwrap();
        }
        let mut db = two_relation_db();
        db.set_relation("Labels", URelation::from_complete(&labels), true);
        let touching = "aconf[0.3, 0.1](project[Label](join(repairkey[ @ Count](Coins), Labels)))";
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        serving.evaluate(touching, &mut rng).unwrap();
        (serving, touching)
    }

    fn assert_warm_matches_cold(serving: &ServingEngine, text: &str, seed: u64) {
        let mut warm_rng = ChaCha8Rng::seed_from_u64(seed);
        let warm = serving.evaluate(text, &mut warm_rng).unwrap();
        let engine = UEngine::new(EvalConfig::default());
        let query = algebra::parse_query(text).unwrap();
        let mut direct_rng = ChaCha8Rng::seed_from_u64(seed);
        let direct = engine
            .evaluate(&serving.database(), &query, &mut direct_rng)
            .unwrap();
        assert_eq!(warm.result.relation, direct.result.relation);
        assert_eq!(warm.stats, direct.stats);
        // The request's database was composed from the served relations and
        // the pooled spine's W-table: both halves match the one-shot run.
        assert!(
            warm.database.wtable().num_variables() > 0,
            "spine variables"
        );
        assert_eq!(warm.database.wtable(), direct.database.wtable());
        let served = serving.database().clone();
        for name in served.relation_names() {
            assert_eq!(
                warm.database.relation(&name).unwrap(),
                served.relation(&name).unwrap()
            );
        }
        assert_eq!(warm.database, direct.database);
    }

    #[test]
    fn commits_outside_an_entrys_footprint_reach_its_warm_requests() {
        let _calm = storm_free();
        // `Other` is scanned by no pooled slot of the touching query; with
        // relation content living once, in the served database, the next
        // warm request still returns the committed `Other`, and a commit
        // inside the footprint (`Labels`) patches slots and content alike.
        let (serving, touching) = wide_labels_serving();
        let grown = URelation::from_complete(&relation![schema!["X"]; [1], [2], [3]]);
        serving
            .update_relations([("Other", grown.clone())])
            .unwrap();
        assert_eq!(serving.stats().subplans_patched, 0);
        assert_warm_matches_cold(&serving, touching, 34);
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let warm = serving.evaluate(touching, &mut rng).unwrap();
        assert_eq!(warm.database.relation("Other").unwrap(), &grown);
        assert_eq!(serving.stats().cold_evaluations, 1, "still warm");

        let mut labels = serving.database().relation("Labels").unwrap().clone();
        labels
            .insert(urel::Condition::always(), pdb::tuple!["fair", 4242])
            .unwrap();
        serving.update_relations([("Labels", labels)]).unwrap();
        assert_warm_matches_cold(&serving, touching, 36);
        assert_eq!(serving.stats().cold_evaluations, 1, "still warm");
    }

    #[test]
    fn pooled_results_and_request_databases_share_the_served_content() {
        // A request's start is pointer copies throughout: its database
        // shares every relation with the served one (and, cold, the
        // W-table), a cold run's scan result *is* its database's row set,
        // the pool absorbed it without copying, and a warm request's
        // W-table is the pooled spine's.  Sharing is no aliasing: a commit
        // replaces the served relation and leaves an output taken before
        // it on the old rows.
        let _calm = storm_free();
        let (serving, touching) = wide_labels_serving();
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let pooled_entry = |text: &str| {
            let prepared = serving
                .prepare(text, *serving.config(), serving.config_digest)
                .unwrap();
            (serving.state.read().pool)
                .entry(&prepared.profile.fingerprint)
                .expect("pooled by the cold run")
        };
        let other = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let prepared = serving
            .prepare(other, *serving.config(), serving.config_digest)
            .unwrap();
        let cold_start = serving.start(&prepared);
        assert!(cold_start.resolved.is_none());
        assert!((cold_start.database.wtable()).shares_content(serving.database().wtable()));
        let cold = serving.evaluate(other, &mut rng).unwrap();
        assert_eq!(serving.stats().cold_evaluations, 2);
        let scanned = cold.database.relation("Coins").unwrap();
        assert!(
            (pooled_entry(other).slots.values())
                .any(|slot| slot.value.relation.shares_content(scanned)),
            "the pooled scan is the run's relation"
        );

        let warm = serving.evaluate(touching, &mut rng).unwrap();
        assert_eq!(serving.stats().warm_evaluations, 1);
        let entry = pooled_entry(touching);
        let pooled_wtable = entry.effects.wtable.as_ref().expect("captured");
        assert!(warm.database.wtable().shares_content(pooled_wtable));
        let shares_served = |output: &EvalOutput, changed: Option<(&str, &URelation)>| {
            let served = serving.database();
            for name in served.relation_names() {
                let returned = output.database.relation(&name).unwrap();
                let current = served.relation(&name).unwrap();
                match changed {
                    Some((changed, old)) if changed == name => {
                        assert!(returned.shares_content(old), "{name}");
                        assert!(!returned.shares_content(current), "{name}");
                        assert_eq!(returned, old)
                    }
                    _ => {
                        assert!(returned.shares_content(current), "{name}");
                        assert_eq!(returned, current, "{name}")
                    }
                }
            }
        };
        shares_served(&cold, None);
        shares_served(&warm, None);

        // Snapshot isolation: an output obtained before a commit to
        // `Labels` keeps the old rows, through either entry point.
        for as_delta in [false, true] {
            let before = serving.evaluate(touching, &mut rng).unwrap();
            let old = serving.database().relation("Labels").unwrap().clone();
            let mut new = old.clone();
            let marker = 4242 + i64::from(as_delta);
            new.insert(urel::Condition::always(), pdb::tuple!["fair", marker])
                .unwrap();
            if as_delta {
                let delta = old.diff(&new).unwrap();
                serving.apply_deltas([("Labels", delta)]).unwrap();
            } else {
                serving.update_relations([("Labels", new.clone())]).unwrap();
            }
            assert_eq!(serving.database().relation("Labels").unwrap(), &new);
            shares_served(&before, Some(("Labels", &old)));
            let after = serving.evaluate(touching, &mut rng).unwrap();
            shares_served(&after, None);
        }
        assert_eq!(serving.stats().cold_evaluations, 2, "warm throughout");
    }

    #[test]
    fn a_start_copies_no_rows_and_a_prepare_no_catalog() {
        // Over a 10 000-row relation, a start's database — cold or warm —
        // shares every relation with the served one, and every prepare
        // lowers against the one catalog allocation.  A commit between two
        // starts ends only the sharing of the relation it replaced.
        let _calm = storm_free();
        let mut labels = pdb::Relation::empty(pdb::Schema::new(["CoinType", "Label"]).unwrap());
        for i in 0..10_000 {
            let coin = if i % 2 == 0 { "fair" } else { "2headed" };
            (labels.insert(pdb::tuple![coin, i])).unwrap();
        }
        let mut db = two_relation_db();
        db.set_relation("Labels", URelation::from_complete(&labels), true);
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let assert_shares_served = |start: &Start, except: Option<&str>| {
            let served = serving.database();
            for name in served.relation_names() {
                let shares = (start.database.relation(&name).unwrap())
                    .shares_content(served.relation(&name).unwrap());
                assert_eq!(shares, except != Some(name.as_str()), "{name}");
            }
        };
        let catalog = || Arc::clone(&serving.queries.read().catalog);
        let prepare = |text: &str| {
            let before = catalog();
            let prepared = serving
                .prepare(text, *serving.config(), serving.config_digest)
                .unwrap();
            assert!(Arc::ptr_eq(&before, &catalog()), "{text}");
            (before, prepared)
        };

        let text = "conf(project[CoinType](join(repairkey[ @ Count](Coins), Labels)))";
        let (first, prepared) = prepare(text);
        let cold = serving.start(&prepared);
        assert!(cold.resolved.is_none());
        assert!((cold.database.wtable()).shares_content(serving.database().wtable()));
        assert_shares_served(&cold, None);
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        serving.evaluate(text, &mut rng).unwrap();
        let warm = serving.start(&prepared);
        assert!(warm.resolved.is_some());
        assert_shares_served(&warm, None);

        // A content commit to `Other` between two prepares of different
        // texts: the catalog stays the same allocation, and only `Other`
        // stops being shared with the start read before the commit.
        let old = serving.database().relation("Other").unwrap().clone();
        let mut new = old.clone();
        (new.insert(urel::Condition::always(), pdb::tuple![3])).unwrap();
        serving
            .apply_deltas([("Other", old.diff(&new).unwrap())])
            .unwrap();
        let (after, prepared) = prepare("poss(Labels)");
        assert!(Arc::ptr_eq(&first, &after));
        assert_shares_served(&warm, Some("Other"));
        assert_shares_served(&serving.start(&prepared), None);
    }

    /// Drops the pooled results of the named operators (`scan` means the
    /// scan of `Labels`) from the touching query's pool entry.
    fn drop_pooled(serving: &ServingEngine, touching: &str, operators: &[&str]) {
        let prepared = serving
            .prepare(touching, *serving.config(), serving.config_digest)
            .unwrap();
        let profile = &prepared.profile;
        let mut served = serving.state.write();
        let entry = (served.pool.entries)
            .get_mut(&profile.fingerprint)
            .expect("pooled");
        for (id, node) in prepared.physical.nodes().iter().enumerate() {
            let name = node.operator.name();
            let other_scan = name == "scan" && !profile.footprints[id].contains("Labels");
            if operators.contains(&name) && !other_scan {
                let dropped = Arc::make_mut(entry).slots.remove(&profile.digests[id]);
                assert!(dropped.is_some(), "{name} was pooled");
            }
        }
    }

    #[test]
    fn a_resume_recomputes_what_it_wants_and_the_pool_lacks_nothing_else() {
        // scan(Coins) → repair-key ⋈ scan(Labels) → project → aconf.
        let _calm = storm_free();
        let (serving, touching) = wide_labels_serving();
        let pooled = serving.pooled_subplans();

        // A missing interior result under a pooled consumer is not wanted:
        // nothing is recomputed, nothing re-pooled, the request is warm.
        drop_pooled(&serving, touching, &["scan"]);
        assert_warm_matches_cold(&serving, touching, 41);
        let stats = serving.stats();
        assert_eq!((stats.warm_evaluations, stats.cold_evaluations), (1, 1));
        assert_eq!(stats.subplans_recomputed, 0);
        assert_eq!(serving.pooled_subplans(), pooled - 1);

        // With its consumers pooled away as well, the scan is recomputed —
        // exactly itself and them — and all three are pooled again.
        drop_pooled(&serving, touching, &["join", "project"]);
        assert_warm_matches_cold(&serving, touching, 42);
        let stats = serving.stats();
        assert_eq!((stats.warm_evaluations, stats.cold_evaluations), (2, 1));
        assert_eq!(stats.subplans_recomputed, 3, "scan + join + project");
        assert_eq!(serving.pooled_subplans(), pooled);

        // A missing stateful result nobody wants changes nothing …
        drop_pooled(&serving, touching, &["repair-key"]);
        assert_warm_matches_cold(&serving, touching, 43);
        let stats = serving.stats();
        assert_eq!((stats.warm_evaluations, stats.cold_evaluations), (3, 1));
        assert_eq!(stats.subplans_recomputed, 3);
        // … but once a resume wants it, the lookup is a miss: the request
        // runs cold and pools the spine's results afresh.
        drop_pooled(&serving, touching, &["join", "project"]);
        assert_warm_matches_cold(&serving, touching, 44);
        let stats = serving.stats();
        assert_eq!((stats.warm_evaluations, stats.cold_evaluations), (3, 2));
        assert_eq!(stats.subplans_recomputed, 3);
        assert_eq!(serving.pooled_subplans(), pooled);
    }

    #[test]
    fn large_changes_demote_and_recompute_through_either_entry_point() {
        let _calm = storm_free();
        // Rewriting most of the join side crosses the patch-worthiness
        // bound: the intersecting slots demote instead of patching, and the
        // next warm resume recomputes them — same bit-identical answers.
        // The two entry points differ only in which counter the demoted
        // slots are charged to.
        let mut replacement =
            pdb::Relation::empty(pdb::Schema::new(["CoinType", "Label"]).unwrap());
        for i in 0..40 {
            replacement
                .insert(pdb::Tuple::new(vec![
                    pdb::Value::str("fair"),
                    pdb::Value::Int(1000 + i),
                ]))
                .unwrap();
        }
        let new = URelation::from_complete(&replacement);
        for as_delta in [false, true] {
            let (serving, touching) = wide_labels_serving();
            let pooled = serving.pooled_subplans();
            if as_delta {
                let old = serving.database().relation("Labels").unwrap().clone();
                let delta = old.diff(&new).unwrap();
                assert!(
                    delta.magnitude() * 2 > old.len(),
                    "wants an unpatchable delta"
                );
                serving.apply_deltas([("Labels", delta)]).unwrap();
            } else {
                serving.update_relations([("Labels", new.clone())]).unwrap();
            }
            let stats = serving.stats();
            assert_eq!(stats.snapshots_invalidated, 0);
            assert_eq!(stats.subplans_patched, 0);
            let (charged, other) = if as_delta {
                (stats.subplans_demoted, stats.subplans_invalidated)
            } else {
                (stats.subplans_invalidated, stats.subplans_demoted)
            };
            assert_eq!(charged, 3, "scan + join + project");
            assert_eq!(other, 0);
            assert_eq!(serving.pooled_subplans(), pooled - 3);

            assert_warm_matches_cold(&serving, touching, 32);

            // The resume recomputed the demoted sub-plans once and pooled
            // the fresh results: a further warm evaluation recomputes
            // nothing.
            let recomputed = serving.stats().subplans_recomputed;
            assert!(recomputed > 0, "the touching resume re-warmed sub-plans");
            assert_eq!(serving.pooled_subplans(), pooled);
            let mut rng = ChaCha8Rng::seed_from_u64(32);
            serving.evaluate(touching, &mut rng).unwrap();
            assert_eq!(serving.stats().subplans_recomputed, recomputed);
            assert_eq!(serving.pooled_subplans(), pooled);
        }
    }

    #[test]
    fn one_row_replacements_patch_in_place() {
        let _calm = storm_free();
        // A whole-relation replacement that differs from the stored content
        // in one row is committed as that one-row delta: the pooled scan,
        // join and projection are patched, nothing leaves the pool, and the
        // next resume recomputes nothing.
        let (serving, touching) = wide_labels_serving();
        let pooled = serving.pooled_subplans();
        let mut new = serving.database().relation("Labels").unwrap().clone();
        new.insert(urel::Condition::always(), pdb::tuple!["2headed", 777])
            .unwrap();
        serving.update_relations([("Labels", new)]).unwrap();
        let stats = serving.stats();
        assert_eq!(stats.relation_updates, 1);
        assert_eq!(stats.subplans_patched, 3, "scan + join + project");
        assert_eq!(stats.subplans_invalidated, 0);
        assert_eq!(stats.snapshots_invalidated, 0);
        assert_eq!(serving.pooled_subplans(), pooled);

        assert_warm_matches_cold(&serving, touching, 33);
        assert_eq!(serving.stats().subplans_recomputed, 0);
    }

    #[test]
    fn delta_batches_chain_and_validate_atomically() {
        let db = two_relation_db();
        let serving = ServingEngine::new(EvalConfig::exact(), db.clone()).unwrap();
        let original = db.relation("Labels").unwrap().clone();
        let mut step1 = original.clone();
        step1
            .insert(urel::Condition::always(), pdb::tuple!["fair", "extra"])
            .unwrap();
        let mut step2 = step1.clone();
        step2
            .insert(urel::Condition::always(), pdb::tuple!["2headed", "more"])
            .unwrap();
        // Two deltas to one name chain within a batch: the second applies
        // against the first's output.
        let d1 = original.diff(&step1).unwrap();
        let d2 = step1.diff(&step2).unwrap();
        serving
            .apply_deltas([("Labels", d1.clone()), ("Labels", d2.clone())])
            .unwrap();
        assert_eq!(serving.database().relation("Labels").unwrap(), &step2);

        // A delta chained out of order is stale (digest mismatch) and the
        // whole batch — including the valid first element — is rejected.
        let before = serving.database().relation("Labels").unwrap().clone();
        let fresh = before.diff(&original).unwrap();
        assert!(serving
            .apply_deltas([("Labels", fresh), ("Labels", d2)])
            .is_err());
        assert_eq!(serving.database().relation("Labels").unwrap(), &before);

        // A net no-op batch (apply and revert) invalidates nothing.
        let updates_before = serving.stats().relation_updates;
        let forward = before.diff(&original).unwrap();
        let backward = original.diff(&before).unwrap();
        serving
            .apply_deltas([("Labels", forward), ("Labels", backward)])
            .unwrap();
        assert_eq!(serving.stats().relation_updates, updates_before);
    }

    #[test]
    fn transient_invalid_intermediates_are_overwritten_by_the_batch() {
        // Batch semantics are last-wins *before* validation: an invalid
        // intermediate that the same batch overwrites must not reject the
        // atomic update.
        let db = coin_db();
        let serving = ServingEngine::new(EvalConfig::exact(), db).unwrap();
        let bad_schema = URelation::from_complete(&relation![schema!["A"]; [1]]);
        let good =
            URelation::from_complete(&relation![schema!["CoinType", "Count"]; ["weighted", 4]]);
        serving
            .update_relations([("Coins", bad_schema.clone()), ("Coins", good.clone())])
            .unwrap();
        assert_eq!(serving.database().relation("Coins").unwrap(), &good);
        // The invalid content as the *final* word still rejects.
        assert!(serving
            .update_relations([("Coins", good), ("Coins", bad_schema)])
            .is_err());
    }

    #[test]
    fn duplicate_names_in_one_batch_are_last_wins() {
        let db = coin_db();
        let serving = ServingEngine::new(EvalConfig::exact(), db.clone()).unwrap();
        let replacement =
            URelation::from_complete(&relation![schema!["CoinType", "Count"]; ["weighted", 4]]);
        let original = db.relation("Coins").unwrap().clone();
        // Replace, then restore in the same batch: the net effect is a
        // no-op — the final content equals the stored one, so nothing is
        // applied or invalidated.
        serving
            .update_relations([("Coins", replacement.clone()), ("Coins", original.clone())])
            .unwrap();
        assert_eq!(serving.database().relation("Coins").unwrap(), &original);
        assert_eq!(serving.stats().relation_updates, 0);
        // The other order really updates, once.
        serving
            .update_relations([("Coins", original), ("Coins", replacement.clone())])
            .unwrap();
        assert_eq!(serving.database().relation("Coins").unwrap(), &replacement);
        assert_eq!(serving.stats().relation_updates, 1);
    }

    #[test]
    fn the_engine_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServingEngine>();
        assert_send_sync::<ServingSession<'_>>();
    }

    #[test]
    fn concurrent_warm_hits_are_all_counted() {
        let _calm = storm_free();
        // Satellite regression: ServingStats counters are atomics — N
        // sessions hammering the warm path concurrently must lose no
        // counts.
        let db = coin_db();
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        serving.evaluate(text, &mut rng).unwrap();
        let threads = 8;
        let per_thread = 5;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let serving = &serving;
                scope.spawn(move || {
                    let mut session = serving.session();
                    let mut rng = ChaCha8Rng::seed_from_u64(100 + t);
                    for _ in 0..per_thread {
                        session.evaluate(text, &mut rng).unwrap();
                    }
                    assert_eq!(session.evaluations(), per_thread);
                });
            }
        });
        let stats = serving.stats();
        assert_eq!(stats.cold_evaluations, 1);
        assert_eq!(stats.warm_evaluations, threads * per_thread);
        assert_eq!(stats.plan_cache_hits, threads * per_thread);
    }

    #[test]
    fn concurrent_sessions_match_the_sequential_schedule_per_seed() {
        // Warm ≡ cold makes results a function of (text, database, own RNG)
        // only: concurrent sessions must be bit-identical to the same
        // per-session request streams run sequentially.
        let db = two_relation_db();
        let queries = [
            "aconf[0.3, 0.1](project[Label](join(repairkey[ @ Count](Coins), Labels)))",
            "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))",
            "aconf[0.3, 0.1](project[X](Other))",
        ];
        let rounds = 4;
        let concurrent = ServingEngine::new(EvalConfig::default(), db.clone()).unwrap();
        let concurrent_results: Vec<Vec<URelation>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..queries.len())
                .map(|s| {
                    let concurrent = &concurrent;
                    let text = queries[s];
                    scope.spawn(move || {
                        let mut session = concurrent.session();
                        let mut rng = ChaCha8Rng::seed_from_u64(7 + s as u64);
                        (0..rounds)
                            .map(|_| session.evaluate(text, &mut rng).unwrap().result.relation)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let sequential = ServingEngine::new(EvalConfig::default(), db).unwrap();
        for (s, text) in queries.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(7 + s as u64);
            for (round, concurrent_relation) in concurrent_results[s].iter().enumerate() {
                let out = sequential.evaluate(text, &mut rng).unwrap();
                assert_eq!(
                    concurrent_relation, &out.result.relation,
                    "session {s} round {round} diverged from the sequential schedule"
                );
            }
        }
    }

    #[test]
    fn tight_admission_limits_still_serve_every_request() {
        let _calm = storm_free();
        // max_in_flight = 1 serializes execution; max_cold_in_flight = 1
        // serializes cold prepares of distinct queries.  Nothing may
        // deadlock, and all requests complete with correct counts.
        let serving = ServingEngine::with_limits(
            EvalConfig::default(),
            two_relation_db(),
            ServingLimits {
                max_in_flight: 1,
                max_cold_in_flight: 1,
                max_queue_wait: None,
            },
        )
        .unwrap();
        assert_eq!(serving.limits().max_in_flight, 1);
        let queries = [
            "aconf[0.3, 0.1](project[Label](join(repairkey[ @ Count](Coins), Labels)))",
            "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))",
            "aconf[0.3, 0.1](project[X](Other))",
            "poss(Other)",
        ];
        std::thread::scope(|scope| {
            for (s, text) in queries.iter().enumerate() {
                let serving = &serving;
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(s as u64);
                    for _ in 0..3 {
                        serving.evaluate(text, &mut rng).unwrap();
                    }
                });
            }
        });
        let stats = serving.stats();
        assert_eq!(
            stats.cold_evaluations + stats.warm_evaluations,
            (queries.len() * 3) as u64
        );
    }

    #[test]
    fn expired_deadlines_reject_instead_of_executing() {
        let _calm = storm_free();
        let serving = ServingEngine::new(EvalConfig::exact(), coin_db()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let request = Request::new("poss(Coins)")
            .with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        match serving.evaluate_request(&request, &mut rng) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // No evaluation happened.
        let stats = serving.stats();
        assert_eq!(stats.cold_evaluations + stats.warm_evaluations, 0);
        // A generous deadline executes normally.
        let request = Request::new("poss(Coins)")
            .with_deadline(Instant::now() + std::time::Duration::from_secs(60));
        serving.evaluate_request(&request, &mut rng).unwrap();
        assert_eq!(serving.stats().cold_evaluations, 1);
    }

    #[test]
    fn per_request_accuracy_overrides_prepare_separately_and_deterministically() {
        let _calm = storm_free();
        // The same text under an ε/δ override lowers against a distinct
        // effective configuration: its own prepared entry and pool prefix,
        // and answers bit-identical to an engine configured that way.
        let db = coin_db();
        let text = "conf(project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::new(EvalConfig::exact(), db.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        serving.evaluate(text, &mut rng).unwrap();
        assert_eq!(serving.prepared_queries(), 1);

        let request = Request::new(text).with_accuracy(0.3, 0.1);
        let mut rng_a = ChaCha8Rng::seed_from_u64(51);
        let budgeted = serving.evaluate_request(&request, &mut rng_a).unwrap();
        assert_eq!(serving.prepared_queries(), 2, "override prepares its own");
        assert_eq!(serving.pooled_prefixes(), 2, "and pools its own prefix");

        let config = EvalConfig {
            confidence: ConfidenceMode::Fpras {
                epsilon: 0.3,
                delta: 0.1,
            },
            ..EvalConfig::exact()
        };
        let engine = UEngine::new(config);
        let query = algebra::parse_query(text).unwrap();
        let mut rng_b = ChaCha8Rng::seed_from_u64(51);
        let direct = engine.evaluate(&db, &query, &mut rng_b).unwrap();
        assert_eq!(budgeted.result.relation, direct.result.relation);
        assert_eq!(budgeted.stats, direct.stats);

        // And the override's warm path is as deterministic as the default's.
        let mut rng_c = ChaCha8Rng::seed_from_u64(51);
        let warm = serving.evaluate_request(&request, &mut rng_c).unwrap();
        assert_eq!(warm.result.relation, direct.result.relation);
    }

    #[test]
    fn shared_prefix_hits_require_a_different_creator() {
        let _calm = storm_free();
        // A query resuming the prefix *it* pooled (here: after the query
        // cache was cleared, as eviction at its bound does) is warm but not
        // a cross-query sharing event.
        let serving = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
        let q = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        serving.evaluate(q, &mut rng).unwrap();
        // Simulate prepared-cache eviction: the pool survives, the prepared
        // entry is rebuilt, and the first evaluation of the re-prepared
        // query is warm — but not counted as shared.
        serving.queries.write().queries.clear();
        serving.evaluate(q, &mut rng).unwrap();
        let stats = serving.stats();
        assert_eq!(stats.warm_evaluations, 1);
        assert_eq!(stats.shared_prefix_hits, 0);
    }

    #[test]
    fn retry_backoff_is_bounded_deterministic_and_jittered() {
        let policy = RetryPolicy::default();
        for attempt in 0..8 {
            for salt in 0..4 {
                let a = policy.backoff(attempt, salt);
                assert_eq!(a, policy.backoff(attempt, salt), "jitter must replay");
                assert!(a <= policy.max_backoff);
                let exp = policy
                    .base_backoff
                    .saturating_mul(1 << attempt.min(16))
                    .min(policy.max_backoff);
                assert!(a >= exp.mul_f64(0.5), "jitter floor is half the step");
            }
        }
        // Different sessions (salts) desynchronize.
        let spread: BTreeSet<Duration> = (0..16).map(|salt| policy.backoff(0, salt)).collect();
        assert!(spread.len() > 1, "jitter must actually vary across salts");
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn gates_tag_deadline_and_overload_errors_with_their_stage() {
        // Table-driven over both gate stages: a drained gate fails a
        // deadline wait with `DeadlineExceeded { stage }` and a queue-
        // deadline wait with `Overloaded { stage }`, tagged verbatim.
        for stage in ["cold admission", "admission"] {
            let gate = Gate::new(1, LockRank::GateCold, "test.permit", "test.counter");
            let _held = gate.acquire(None, None, stage).unwrap();
            let soon = Some(Instant::now() + Duration::from_millis(5));
            match gate.acquire(soon, None, stage) {
                Err(EngineError::DeadlineExceeded { stage: tag }) => assert_eq!(tag, stage),
                other => panic!("expected DeadlineExceeded({stage}), got {other:?}"),
            }
            match gate.acquire(None, Some(Duration::from_millis(5)), stage) {
                Err(err @ EngineError::Overloaded { .. }) => {
                    assert_eq!(err, EngineError::Overloaded { stage });
                    assert!(err.is_transient(), "sheds must be retryable");
                }
                other => panic!("expected Overloaded({stage}), got {other:?}"),
            }
            // With both budgets pending, whichever expires first decides
            // the classification: the request deadline outranks the queue.
            let d = Some(Instant::now() + Duration::from_millis(5));
            match gate.acquire(d, Some(Duration::from_secs(60)), stage) {
                Err(EngineError::DeadlineExceeded { stage: tag }) => assert_eq!(tag, stage),
                other => panic!("expected DeadlineExceeded({stage}), got {other:?}"),
            };
        }
    }

    #[test]
    fn deadline_stage_tags_cover_the_request_lifecycle() {
        // The "admission" stage below needs its prefix pooled.
        let _calm = storm_free();
        let q = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        // Stage "prepare": the deadline was already spent on arrival.
        {
            let serving = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let request = Request::new(q).with_deadline(Instant::now() - Duration::from_millis(1));
            match serving.evaluate_request(&request, &mut rng) {
                Err(EngineError::DeadlineExceeded { stage }) => assert_eq!(stage, "prepare"),
                other => panic!("expected DeadlineExceeded(prepare), got {other:?}"),
            }
        }
        // Stage "cold admission": the cold gate is held and the prefix is
        // not pooled, so the request queues there until its deadline.
        {
            let serving = ServingEngine::with_limits(
                EvalConfig::default(),
                coin_db(),
                ServingLimits {
                    max_in_flight: 4,
                    max_cold_in_flight: 1,
                    max_queue_wait: None,
                },
            )
            .unwrap();
            let _cold = serving
                .cold_admission
                .acquire(None, None, "cold admission")
                .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let request = Request::new(q).with_deadline(Instant::now() + Duration::from_millis(10));
            match serving.evaluate_request(&request, &mut rng) {
                Err(EngineError::DeadlineExceeded { stage }) => {
                    assert_eq!(stage, "cold admission")
                }
                other => panic!("expected DeadlineExceeded(cold admission), got {other:?}"),
            }
        }
        // Stage "admission": the prefix is pooled (warm classification
        // skips the cold gate) and the admission gate is held.
        {
            let serving = ServingEngine::with_limits(
                EvalConfig::default(),
                coin_db(),
                ServingLimits {
                    max_in_flight: 1,
                    max_cold_in_flight: 1,
                    max_queue_wait: None,
                },
            )
            .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            serving.evaluate(q, &mut rng).unwrap();
            let _held = serving.admission.acquire(None, None, "admission").unwrap();
            let request = Request::new(q).with_deadline(Instant::now() + Duration::from_millis(10));
            match serving.evaluate_request(&request, &mut rng) {
                Err(EngineError::DeadlineExceeded { stage }) => assert_eq!(stage, "admission"),
                other => panic!("expected DeadlineExceeded(admission), got {other:?}"),
            }
        }
        // Stage "estimate" is covered (with the containment check) by
        // `mid_sampling_deadlines_degrade_to_guaranteed_bounds`; stage
        // "pre-execution" by `burned_admission_deadlines_tag_pre_execution`
        // under the failpoints feature.
    }

    #[test]
    fn mid_sampling_deadlines_degrade_to_guaranteed_bounds() {
        // ε = 2e-4 needs tens of millions of Karp–Luby samples: a 15 ms
        // deadline expires mid-sampling, at a bitworld block boundary.
        let serving = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
        let q = "aconf[0.0002, 0.01](project[CoinType](repairkey[ @ Count](Coins)))";
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let request = Request::new(q).with_deadline(Instant::now() + Duration::from_millis(15));
        match serving.evaluate_request(&request, &mut rng) {
            Err(EngineError::DeadlineExceeded { stage }) => assert_eq!(stage, "estimate"),
            Ok(_) => panic!("sampling at ε=2e-4 must not finish within 15 ms"),
            other => panic!("expected DeadlineExceeded(estimate), got {other:?}"),
        }
        // The degradable entry point turns the same failure into exact
        // confidence bounds that bracket the true confidences (2/3, 1/3).
        let request = Request::new(q).with_deadline(Instant::now() + Duration::from_millis(15));
        let answer = serving.evaluate_degradable(&request, &mut rng).unwrap();
        let ServingAnswer::Degraded(degraded) = answer else {
            panic!("expected a degraded answer")
        };
        assert_eq!(degraded.reason, DegradedReason::DeadlineExpired);
        assert_eq!(degraded.bounds.len(), 2);
        for (t, b) in &degraded.bounds {
            let p = if *t == tuple!["fair"] {
                2.0 / 3.0
            } else {
                assert_eq!(*t, tuple!["2headed"]);
                1.0 / 3.0
            };
            assert!((0.0..=1.0).contains(&b.lower) && (0.0..=1.0).contains(&b.upper));
            assert!(
                b.lower <= p && p <= b.upper,
                "true confidence {p} outside degraded bounds [{}, {}]",
                b.lower,
                b.upper
            );
        }
        assert_eq!(serving.stats().degraded_answers, 1);
    }

    #[test]
    fn saturated_queues_shed_and_degrade_where_bounds_exist() {
        let q = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::with_limits(
            EvalConfig::default(),
            coin_db(),
            ServingLimits {
                max_in_flight: 1,
                max_cold_in_flight: 1,
                max_queue_wait: Some(Duration::from_millis(10)),
            },
        )
        .unwrap();
        // Hold the only admission slot — from a separate thread, as a real
        // competing request would.  Holding it on this thread and then
        // evaluating a cold request here would acquire the cold permit
        // under the admission permit, which the rank discipline (rightly)
        // rejects as the gate-to-gate deadlock order.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let holder = &serving;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _held = holder.admission.acquire(None, None, "admission").unwrap();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            held_rx.recv().unwrap();
            let err = serving
                .evaluate_request(&Request::new(q), &mut rng)
                .unwrap_err();
            assert_eq!(err, EngineError::Overloaded { stage: "admission" });
            // The degradable entry point converts the shed into bounds...
            let answer = serving
                .evaluate_degradable(&Request::new(q), &mut rng)
                .unwrap();
            match answer {
                ServingAnswer::Degraded(d) => {
                    assert_eq!(d.reason, DegradedReason::QueueSaturated);
                    assert_eq!(d.bounds.len(), 2);
                }
                ServingAnswer::Full(_) => panic!("held gate cannot serve a full answer"),
            }
            // ... but a query with no bounds form keeps its Overloaded error.
            let err = serving
                .evaluate_degradable(&Request::new("poss(Coins)"), &mut rng)
                .unwrap_err();
            assert!(matches!(err, EngineError::Overloaded { .. }));
            release_tx.send(()).unwrap();
        });
        // Released gate: the degradable path serves full answers again.
        match serving
            .evaluate_degradable(&Request::new(q), &mut rng)
            .unwrap()
        {
            ServingAnswer::Full(_) => {}
            ServingAnswer::Degraded(_) => panic!("free engine must answer in full"),
        }
        assert_eq!(serving.stats().degraded_answers, 1);
    }

    #[test]
    fn a_first_request_shed_at_admission_keeps_its_shared_prefix_hit() {
        let _calm = storm_free();
        let a = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
        let b = "aconf[0.2, 0.05](project[CoinType](repairkey[ @ Count](Coins)))";
        let serving = ServingEngine::with_limits(
            EvalConfig::default(),
            coin_db(),
            ServingLimits {
                max_in_flight: 1,
                max_cold_in_flight: 1,
                max_queue_wait: Some(Duration::from_millis(10)),
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        serving.evaluate(a, &mut rng).unwrap();
        assert_eq!(serving.pooled_prefixes(), 1, "a pooled its spine");
        // B shares that spine; its first request is shed while another
        // thread holds the only admission slot.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let holder = &serving;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _held = holder.admission.acquire(None, None, "admission").unwrap();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            held_rx.recv().unwrap();
            let err = serving.evaluate(b, &mut rng).unwrap_err();
            assert_eq!(err, EngineError::Overloaded { stage: "admission" });
            release_tx.send(()).unwrap();
        });
        // The first evaluation of B that runs is its first one.
        let before = serving.stats();
        serving.evaluate(b, &mut rng).unwrap();
        let after = serving.stats();
        assert_eq!(after.warm_evaluations, before.warm_evaluations + 1);
        assert_eq!(after.shared_prefix_hits, before.shared_prefix_hits + 1);
    }

    #[test]
    fn clashing_placeholders_fail_before_anything_is_prepared_or_run() {
        let _calm = storm_free();
        let db = UDatabase::from_complete_relations([(
            "T",
            relation![schema!["A", "P1"]; [1, 0.5], [2, 0.7]],
        )]);
        let serving = ServingEngine::new(EvalConfig::default(), db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let err = serving
            .evaluate("aselect[P1 = conf(A); P1 >= 0.5](T)", &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("clashes"), "{err}");
        assert_eq!(serving.stats().cold_evaluations, 0);
        assert_eq!(serving.prepared_queries(), 0);
    }

    #[cfg(feature = "failpoints")]
    mod failpoints {
        use super::*;
        use crate::faults::{self, FaultPlan, ERROR, PANIC};

        #[test]
        fn burned_admission_deadlines_tag_pre_execution() {
            let _guard = faults::exclusive();
            let serving = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
            let q = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            faults::arm(
                &FaultPlan::storm(7, 1_000_000)
                    .at("admission")
                    .with_kinds(faults::BURN),
            );
            let request = Request::new(q).with_deadline(Instant::now() + Duration::from_millis(5));
            let out = serving.evaluate_request(&request, &mut rng);
            faults::disarm();
            match out {
                Err(EngineError::DeadlineExceeded { stage }) => {
                    assert_eq!(stage, "pre-execution")
                }
                other => panic!("expected DeadlineExceeded(pre-execution), got {other:?}"),
            }
        }

        #[test]
        fn injected_panics_quarantine_the_entry_and_the_engine_recovers() {
            let _guard = faults::exclusive();
            let serving = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
            let q = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            let cold = serving.evaluate(q, &mut rng).unwrap();
            assert_eq!(serving.pooled_prefixes(), 1);
            // Panic at the next estimate probe: the warm resume unwinds
            // into the quarantine region.
            faults::arm(
                &FaultPlan::storm(5, 1_000_000)
                    .at("estimate")
                    .with_kinds(PANIC),
            );
            let mut rng_warm = ChaCha8Rng::seed_from_u64(21);
            let err = serving.evaluate(q, &mut rng_warm).unwrap_err();
            faults::disarm();
            assert_eq!(err, EngineError::Panicked { stage: "warm-eval" });
            assert!(err.is_transient());
            assert_eq!(serving.stats().entries_quarantined, 1);
            assert_eq!(serving.pooled_prefixes(), 0, "quarantine drops the entry");
            // The engine stays serviceable: the same seed re-warms the
            // prefix and reproduces the cold answer bit-identically (the
            // panic fired before any RNG draw).
            let mut rng_retry = ChaCha8Rng::seed_from_u64(21);
            let again = serving.evaluate(q, &mut rng_retry).unwrap();
            assert_eq!(again.result.relation, cold.result.relation);
            assert_eq!(serving.pooled_prefixes(), 1);
        }

        #[test]
        fn sessions_retry_injected_faults_to_bit_identical_answers() {
            let _guard = faults::exclusive();
            let q = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
            // Fault-free ground truth.
            let clean = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(33);
            let truth = clean.evaluate(q, &mut rng).unwrap();
            // Inject admission errors on roughly half the probe hits; the
            // session's retry loop must absorb every one of them, and the
            // answers must still match the fault-free run bit for bit
            // (failed attempts consume no caller randomness).
            let serving = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
            faults::arm(
                &FaultPlan::storm(1, 500_000)
                    .at("admission")
                    .with_kinds(ERROR),
            );
            let mut session = serving.session().with_retry_policy(RetryPolicy {
                max_retries: 16,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(1),
                jitter_seed: 9,
            });
            let mut rng = ChaCha8Rng::seed_from_u64(33);
            let first = session.evaluate(q, &mut rng).unwrap();
            let warm = session.evaluate(q, &mut rng).unwrap();
            let injected = faults::injected_count();
            faults::disarm();
            assert_eq!(first.result.relation, truth.result.relation);
            assert_eq!(first.result.errors, truth.result.errors);
            assert_eq!(warm.result.relation, first.result.relation);
            assert!(injected >= 1, "a 50% storm over many probes must fire");
            assert_eq!(serving.stats().retries, injected);
        }

        #[test]
        fn dropped_absorbs_and_patches_only_change_cost() {
            let _guard = faults::exclusive();
            let serving = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
            let q = "aconf[0.3, 0.1](project[CoinType](repairkey[ @ Count](Coins)))";
            // Every absorb drops: the pool stays cold, but answers flow.
            faults::arm(
                &FaultPlan::storm(13, 1_000_000)
                    .at("absorb")
                    .with_kinds(ERROR),
            );
            let mut rng = ChaCha8Rng::seed_from_u64(41);
            let a = serving.evaluate(q, &mut rng).unwrap();
            let b = serving.evaluate(q, &mut rng).unwrap();
            faults::disarm();
            assert_eq!(serving.pooled_prefixes(), 0, "all absorbs were dropped");
            assert_eq!(serving.stats().cold_evaluations, 2);
            // Both requests ran cold, so they must agree with a fresh
            // serving engine evaluating twice on the same seed.
            let clean = ServingEngine::new(EvalConfig::default(), coin_db()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(41);
            let ca = clean.evaluate(q, &mut rng).unwrap();
            let cb = clean.evaluate(q, &mut rng).unwrap();
            assert_eq!(a.result.relation, ca.result.relation);
            assert_eq!(b.result.relation, cb.result.relation);
        }
    }
}
