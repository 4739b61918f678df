//! Ranked lock wrappers: the engine's machine-checked lock-ordering
//! discipline.
//!
//! Every lock in the engine carries a [`LockRank`], and a thread may only
//! acquire a lock whose rank is **strictly greater** than every rank it
//! already holds.  Because ranks totally order the lock graph, any
//! execution that respects them is deadlock-free by construction; the
//! prose invariant from the serving module ("lock order is served state →
//! query cache") becomes a runtime check instead of a review item.
//!
//! The held-rank stack itself is thread-local and process-wide, shared
//! with the vendored worker pool (`rayon::lockcheck`), so engine locks and
//! pool-internal locks are checked against each other on the same thread —
//! a submitter that helps drain pool deques while holding the served-state
//! lock is still covered.  This module is the workspace's **single
//! source of truth for rank values**; `rayon::lockcheck` mirrors the pool
//! ranks as numeric constants and a unit test pins the two in sync.
//!
//! # Cost model
//!
//! Checking is compiled in when [`CHECKED`] is true: debug builds always,
//! release builds only under `--features lockcheck`.  Unchecked builds get
//! passthrough wrappers — a plain `std::sync` lock plus an inlined empty
//! call, nothing else.  Compile-time guard tests pin both configurations.
//!
//! # Violation and poison policy
//!
//! A rank violation **panics**, naming both lock sites (the vendored
//! pool's internal wrappers abort instead — see `rayon::lockcheck` for why
//! its no-unwind window cannot tolerate a panic).  Lock poisoning
//! **aborts the process** in all builds: a poisoned engine lock means a
//! panic escaped while mid-update under a write lock, and no read of that
//! state can be trusted.  This extends the pool's PR 6 abort-on-poison
//! decision to the whole engine, replacing the scattered
//! `.expect("… lock")` sites that would have unwound.  The single
//! deliberate exception is [`OrderedMutex::lock_recovering`], used by
//! `faults::exclusive()` where tests panic *by design* while holding the
//! lock and the `()` payload has no state to corrupt.
//!
//! # Adding a new lock
//!
//! Pick the smallest rank strictly above everything the new lock is
//! acquired while holding, add a [`LockRank`] variant with a doc-table
//! entry in [`LockRank::protects`], and construct the wrapper with it.
//! Debug runs of the concurrency suites then verify the choice on every
//! schedule they exercise; `ARCHITECTURE.md`'s lock-discipline table is
//! pinned to the enum by `architecture_lock_table_matches_lock_rank_enum`.

use rayon::lockcheck::{note_acquire, note_release};
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// True when rank checking is compiled into this build: debug builds
/// always, release builds under `--features lockcheck` only.  Guard tests
/// pin the value per configuration, like `faults::COMPILED`.
pub const CHECKED: bool = rayon::lockcheck::CHECKED;

/// The total order over every lock in the process, lowest first.
///
/// A thread may acquire a lock only if its rank is strictly greater than
/// every rank the thread already holds.  The serving door's *permit* (not
/// a mutex, but a held resource a thread can block on) gets a rank too,
/// which machine-checks that a permit holder never queues for a second
/// permit and never waits at the door while holding an engine lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum LockRank {
    /// `faults::exclusive()`, serializing fault-injection tests
    /// process-wide.  Lowest: a test holds it across whole evaluations.
    TestExclusive = 10,
    /// A held admission permit (RAII token); one per request, cold or warm.
    GateAdmission = 30,
    /// The admission gate's counts of requests in flight and cold ones;
    /// held only for counter arithmetic and condvar waits.
    GateInternal = 40,
    /// The served state: the database, its content epoch and the snapshot
    /// pool, read and written together.
    State = 50,
    /// The query cache: request text → prepared query, plus the catalog the
    /// prepared queries were validated against.
    Prepared = 60,
    /// A space cache: (compiled index, relation content) → lineage batch,
    /// shared by a pooled prefix and every resume of it.
    SpaceCache = 90,
    /// The shared-sampling block scheduler's tally cache (acquired briefly
    /// around lookups/inserts during estimation; never held across a
    /// sampling run).
    SharedSampler = 110,
    /// A pool worker's job deque (`rayon::lockcheck::RANK_WORKER_DEQUE`).
    WorkerDeque = 200,
    /// The pool wakeup channel: generation counter + shutdown flag.
    PoolSignal = 210,
    /// Per-batch completion state: first panic payload, done flag.
    PoolBatch = 220,
    /// The ordered result slots a `par_apply` batch writes into.  Highest:
    /// a submitter may reach it while holding any engine lock.
    PoolResults = 230,
}

impl LockRank {
    /// Every rank, lowest first — the doc table and the cross-crate pin
    /// test iterate this.
    pub const ALL: [LockRank; 11] = [
        LockRank::TestExclusive,
        LockRank::GateAdmission,
        LockRank::GateInternal,
        LockRank::State,
        LockRank::Prepared,
        LockRank::SpaceCache,
        LockRank::SharedSampler,
        LockRank::WorkerDeque,
        LockRank::PoolSignal,
        LockRank::PoolBatch,
        LockRank::PoolResults,
    ];

    /// The numeric rank compared by the checker.
    pub const fn rank(self) -> u16 {
        self as u16
    }

    /// The variant name, as printed in violation messages and the doc
    /// table.
    pub const fn name(self) -> &'static str {
        match self {
            LockRank::TestExclusive => "TestExclusive",
            LockRank::GateAdmission => "GateAdmission",
            LockRank::GateInternal => "GateInternal",
            LockRank::State => "State",
            LockRank::Prepared => "Prepared",
            LockRank::SpaceCache => "SpaceCache",
            LockRank::SharedSampler => "SharedSampler",
            LockRank::WorkerDeque => "WorkerDeque",
            LockRank::PoolSignal => "PoolSignal",
            LockRank::PoolBatch => "PoolBatch",
            LockRank::PoolResults => "PoolResults",
        }
    }

    /// What the lock at this rank protects — the "protects" column of the
    /// `ARCHITECTURE.md` lock-discipline table.
    pub const fn protects(self) -> &'static str {
        match self {
            LockRank::TestExclusive => {
                "`faults::exclusive()` — serializes fault-injection tests process-wide"
            }
            LockRank::GateAdmission => "a held admission permit (RAII token, not a mutex)",
            LockRank::GateInternal => {
                "the admission gate's in-flight and cold counts + wakeup condvar"
            }
            LockRank::State => "the served state: database, content epoch and snapshot pool",
            LockRank::Prepared => {
                "the query cache: request text → prepared query, and the catalog it was validated against"
            }
            LockRank::SpaceCache => {
                "a space cache: (compiled index, relation content) → lineage batch (shared by a pooled prefix and its resumes)"
            }
            LockRank::SharedSampler => {
                "the shared-sampling block scheduler's tally cache (never held across sampling)"
            }
            LockRank::WorkerDeque => "a pool worker's job deque (vendored pool)",
            LockRank::PoolSignal => {
                "the pool wakeup channel: generation + shutdown (vendored pool)"
            }
            LockRank::PoolBatch => {
                "per-batch completion state: panic slot, done flag (vendored pool)"
            }
            LockRank::PoolResults => "`par_apply` ordered result slots (vendored pool)",
        }
    }

    /// Renders the lock-discipline table embedded in `ARCHITECTURE.md`
    /// (pinned there by a unit test, so the doc cannot drift from this
    /// enum).
    pub fn discipline_table() -> String {
        let mut table = String::from("| rank | lock | protects |\n|-----:|------|----------|\n");
        for rank in LockRank::ALL {
            table.push_str(&format!(
                "| {} | `{}` | {} |\n",
                rank.rank(),
                rank.name(),
                rank.protects()
            ));
        }
        table
    }
}

/// Poisoning means a panic escaped while the lock was held mid-update;
/// nothing downstream can trust the protected state, so the process ends
/// here (the engine-wide extension of the pool's abort-on-poison policy).
fn poisoned(name: &'static str) -> ! {
    eprintln!("lock \"{name}\" poisoned: a panic escaped while it was held; aborting");
    std::process::abort();
}

/// A mutex with a static [`LockRank`], panicking on out-of-order
/// acquisition (checked builds) and aborting on poisoning (all builds).
pub struct OrderedMutex<T> {
    rank: LockRank,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates the mutex; `name` identifies the lock in violation
    /// messages.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Locks, panicking on a rank violation and aborting if poisoned.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        note_acquire(self.rank.rank(), self.name, false);
        match self.inner.lock() {
            Ok(guard) => OrderedMutexGuard {
                rank: self.rank,
                name: self.name,
                guard: Some(guard),
            },
            Err(_) => poisoned(self.name),
        }
    }

    /// Like [`lock`](OrderedMutex::lock), but *recovers* from poisoning
    /// instead of aborting.  Only for locks whose payload cannot be left
    /// inconsistent by an unwinding holder — in this workspace, the `()`
    /// payload of `faults::exclusive()`, which fault tests poison by
    /// design.
    pub fn lock_recovering(&self) -> OrderedMutexGuard<'_, T> {
        note_acquire(self.rank.rank(), self.name, false);
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        OrderedMutexGuard {
            rank: self.rank,
            name: self.name,
            guard: Some(guard),
        }
    }
}

impl<T> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Guard for an [`OrderedMutex`]; pops its rank on drop.
pub struct OrderedMutexGuard<'a, T> {
    rank: LockRank,
    name: &'static str,
    /// `None` only transiently inside [`OrderedCondvar`] waits, where the
    /// std guard is surrendered to the condvar while the rank stays held.
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.take().is_some() {
            note_release(self.rank.rank(), self.name);
        }
    }
}

/// A reader–writer lock with a static [`LockRank`]; read and write guards
/// both hold the rank (two read acquisitions of the same lock on one
/// thread are a violation — by design, since a writer queued between them
/// deadlocks that interleaving).
pub struct OrderedRwLock<T> {
    rank: LockRank,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates the lock; `name` identifies it in violation messages.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            rank,
            name,
            inner: RwLock::new(value),
        }
    }

    /// Takes a shared read guard, panicking on a rank violation and
    /// aborting if poisoned.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        note_acquire(self.rank.rank(), self.name, false);
        match self.inner.read() {
            Ok(guard) => OrderedReadGuard {
                rank: self.rank,
                name: self.name,
                guard,
            },
            Err(_) => poisoned(self.name),
        }
    }

    /// Takes the exclusive write guard, panicking on a rank violation and
    /// aborting if poisoned.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        note_acquire(self.rank.rank(), self.name, false);
        match self.inner.write() {
            Ok(guard) => OrderedWriteGuard {
                rank: self.rank,
                name: self.name,
                guard,
            },
            Err(_) => poisoned(self.name),
        }
    }
}

impl<T> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Shared read guard for an [`OrderedRwLock`]; pops its rank on drop.
pub struct OrderedReadGuard<'a, T> {
    rank: LockRank,
    name: &'static str,
    guard: RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.rank.rank(), self.name);
    }
}

/// Exclusive write guard for an [`OrderedRwLock`]; pops its rank on drop.
pub struct OrderedWriteGuard<'a, T> {
    rank: LockRank,
    name: &'static str,
    guard: RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.rank.rank(), self.name);
    }
}

/// A condition variable paired with [`OrderedMutex`].  Waiting keeps the
/// mutex's rank on the held stack: the waiter owns the lock again before
/// `wait` returns, and a blocked thread acquires nothing in between.
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// Creates the condvar.
    pub const fn new() -> OrderedCondvar {
        OrderedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Blocks until notified, aborting if the mutex is poisoned.
    pub fn wait<'a, T>(&self, mut guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        let name = guard.name;
        let inner = guard.guard.take().expect("guard present outside wait");
        match self.inner.wait(inner) {
            Ok(reacquired) => {
                guard.guard = Some(reacquired);
                guard
            }
            Err(_) => poisoned(name),
        }
    }

    /// Blocks until notified or `timeout` elapses, aborting if the mutex
    /// is poisoned.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: OrderedMutexGuard<'a, T>,
        timeout: Duration,
    ) -> (OrderedMutexGuard<'a, T>, std::sync::WaitTimeoutResult) {
        let name = guard.name;
        let inner = guard.guard.take().expect("guard present outside wait");
        match self.inner.wait_timeout(inner, timeout) {
            Ok((reacquired, timed_out)) => {
                guard.guard = Some(reacquired);
                (guard, timed_out)
            }
            Err(_) => poisoned(name),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for OrderedCondvar {
    fn default() -> OrderedCondvar {
        OrderedCondvar::new()
    }
}

impl fmt::Debug for OrderedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedCondvar").finish_non_exhaustive()
    }
}

/// An RAII rank token for held resources that are not mutexes but that a
/// thread can block on — the admission permit.  Holding the token subjects
/// every later acquisition to the same strictly-increasing-rank rule, which
/// is how "no second permit, no permit under an engine lock" is
/// machine-checked.
#[derive(Debug)]
pub struct HeldRank {
    rank: LockRank,
    name: &'static str,
}

impl HeldRank {
    /// Pushes `rank` onto the current thread's held stack (panicking if it
    /// does not strictly increase); popped when the token drops.
    pub fn acquire(rank: LockRank, name: &'static str) -> HeldRank {
        note_acquire(rank.rank(), name, false);
        HeldRank { rank, name }
    }
}

impl Drop for HeldRank {
    fn drop(&mut self) {
        note_release(self.rank.rank(), self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Like `faults::default_build_has_no_failpoints`: a release build
    /// without the feature must compile the checker out entirely.
    #[cfg(all(not(debug_assertions), not(feature = "lockcheck")))]
    #[test]
    fn release_build_compiles_lockcheck_out() {
        const { assert!(!super::CHECKED) }
    }

    /// Debug builds and `--features lockcheck` builds must check.
    #[cfg(any(debug_assertions, feature = "lockcheck"))]
    #[test]
    fn checked_build_compiles_lockcheck_in() {
        const { assert!(super::CHECKED) }
    }

    #[test]
    fn ranks_are_strictly_increasing_and_pin_the_pool_constants() {
        for pair in LockRank::ALL.windows(2) {
            assert!(
                pair[0].rank() < pair[1].rank(),
                "{} must rank below {}",
                pair[0].name(),
                pair[1].name()
            );
        }
        // This enum is the source of truth; the pool mirrors its four
        // ranks as numeric constants.
        assert_eq!(
            LockRank::WorkerDeque.rank(),
            rayon::lockcheck::RANK_WORKER_DEQUE
        );
        assert_eq!(
            LockRank::PoolSignal.rank(),
            rayon::lockcheck::RANK_POOL_SIGNAL
        );
        assert_eq!(
            LockRank::PoolBatch.rank(),
            rayon::lockcheck::RANK_POOL_BATCH
        );
        assert_eq!(
            LockRank::PoolResults.rank(),
            rayon::lockcheck::RANK_POOL_RESULTS
        );
    }

    #[test]
    fn in_order_acquisition_is_clean_in_every_build() {
        let state = OrderedRwLock::new(LockRank::State, "test.state", 1u32);
        let queries = OrderedMutex::new(LockRank::Prepared, "test.queries", 2u32);
        let spaces = OrderedRwLock::new(LockRank::SpaceCache, "test.spaces", 3u32);
        let balance = rayon::lockcheck::held_ranks();
        {
            let s = state.read();
            let p = queries.lock();
            let q = spaces.write();
            assert_eq!(*s + *p + *q, 6);
        }
        assert_eq!(rayon::lockcheck::held_ranks(), balance);
    }

    #[test]
    fn rank_inversion_panics_when_checked_and_is_free_otherwise() {
        let state = OrderedRwLock::new(LockRank::State, "test.state", ());
        let spaces = OrderedRwLock::new(LockRank::SpaceCache, "test.spaces", ());
        let held = spaces.write();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _inverted = state.read();
        }));
        drop(held);
        if CHECKED {
            let payload = result.expect_err("acquiring State under SpaceCache must panic");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.contains("test.state") && message.contains("test.spaces"),
                "violation must name both sites: {message}"
            );
            assert!(message.contains("rank violation"), "{message}");
        } else {
            assert!(result.is_ok(), "unchecked builds must not enforce ranks");
        }
        // The inversion was caught before the std lock was touched, so the
        // locks stay usable in rank order.
        let _s = state.read();
        drop(_s);
        let _q = spaces.write();
    }

    #[test]
    fn guards_can_be_released_out_of_order() {
        let state = OrderedRwLock::new(LockRank::State, "test.state", ());
        let spaces = OrderedRwLock::new(LockRank::SpaceCache, "test.spaces", ());
        let balance = rayon::lockcheck::held_ranks();
        let s = state.read();
        let q = spaces.read();
        drop(s); // release the *lower* rank first
        drop(q);
        assert_eq!(rayon::lockcheck::held_ranks(), balance);
        // And the low rank is acquirable again afterwards.
        let _s = state.read();
    }

    /// The serving door's permit rule as a table: the admission permit is
    /// taken before any engine lock, and taking it under one — or taking a
    /// second permit — is a checked violation.  The gate sits below
    /// `State`.
    #[test]
    fn gate_permit_order_table() {
        let ok_orders: [&[LockRank]; 1] = [&[LockRank::GateAdmission, LockRank::State]];
        for order in ok_orders {
            let tokens: Vec<HeldRank> = order
                .iter()
                .map(|&rank| HeldRank::acquire(rank, rank.name()))
                .collect();
            drop(tokens);
        }
        if !CHECKED {
            return;
        }
        let violations: [&[LockRank]; 2] = [
            &[LockRank::GateAdmission, LockRank::GateAdmission],
            &[LockRank::State, LockRank::GateAdmission],
        ];
        for order in violations {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _tokens: Vec<HeldRank> = order
                    .iter()
                    .map(|&rank| HeldRank::acquire(rank, rank.name()))
                    .collect();
            }));
            assert!(
                result.is_err(),
                "order {:?} must violate the rank discipline",
                order.iter().map(|r| r.name()).collect::<Vec<_>>()
            );
            // The successfully-acquired prefix tokens were dropped by the
            // unwind; the stack must be balanced again.
            assert_eq!(rayon::lockcheck::held_ranks(), 0);
        }
    }

    #[test]
    fn condvar_wait_timeout_keeps_the_rank_held() {
        let gate = OrderedMutex::new(LockRank::GateInternal, "test.gate", 0u32);
        let cv = OrderedCondvar::new();
        let balance = rayon::lockcheck::held_ranks();
        let guard = gate.lock();
        let (guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(1));
        assert!(timed_out.timed_out());
        if CHECKED {
            assert_eq!(rayon::lockcheck::held_ranks(), balance + 1);
        }
        drop(guard);
        assert_eq!(rayon::lockcheck::held_ranks(), balance);
    }

    #[test]
    fn lock_recovering_survives_a_poisoning_panic() {
        let lock = std::sync::Arc::new(OrderedMutex::new(
            LockRank::TestExclusive,
            "test.recovering",
            (),
        ));
        let poisoner = lock.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock();
            panic!("poison the lock");
        })
        .join();
        // `lock()` would abort here; `lock_recovering` hands the guard
        // back because `()` cannot be left inconsistent.
        let _guard = lock.lock_recovering();
    }

    #[test]
    fn discipline_table_covers_every_rank() {
        let table = LockRank::discipline_table();
        for rank in LockRank::ALL {
            assert!(table.contains(rank.name()), "missing {}", rank.name());
            assert!(
                table.contains(&format!("| {} |", rank.rank())),
                "missing rank {}",
                rank.rank()
            );
        }
    }

    /// The "Lock discipline" table in ARCHITECTURE.md is generated from
    /// [`LockRank`]; regenerate it with [`LockRank::discipline_table`]
    /// when the enum changes.
    #[test]
    fn architecture_lock_table_matches_lock_rank_enum() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ARCHITECTURE.md");
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let begin = "<!-- lock-discipline:begin -->";
        let end = "<!-- lock-discipline:end -->";
        let start = doc
            .find(begin)
            .expect("ARCHITECTURE.md must carry the lock-discipline begin marker")
            + begin.len();
        let stop = doc
            .find(end)
            .expect("ARCHITECTURE.md must carry the lock-discipline end marker");
        let embedded = doc[start..stop].trim();
        let generated = LockRank::discipline_table();
        assert_eq!(
            embedded,
            generated.trim(),
            "ARCHITECTURE.md lock-discipline table is stale; regenerate it \
             from LockRank::discipline_table()"
        );
    }
}
