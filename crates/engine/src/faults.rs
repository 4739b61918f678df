//! Deterministic fault injection for the concurrent serving path.
//!
//! A *failpoint* is a named site in the serving pipeline where a fault —
//! an injected error return, a panic, added latency, or a deadline burn —
//! can be forced for testing.  The registry is compiled only under the
//! `failpoints` cargo feature: the default build ships the two probe
//! functions as empty `#[inline(always)]` stubs (and [`COMPILED`] as
//! `false`), so disabled builds carry no failpoint code at all.  With the
//! feature on but the registry disarmed, each probe costs one relaxed
//! atomic load.
//!
//! Whether a given probe hit faults — and which fault it takes — is a pure
//! function of the armed seed, the site name, and a per-site hit counter,
//! so a fault storm replays identically for a fixed seed and schedule.
//!
//! The failpoint map (see also ARCHITECTURE.md, "Failure model"):
//!
//! | site        | location                                   | faults        |
//! |-------------|--------------------------------------------|---------------|
//! | `admission` | before the admission gate                  | error/latency/burn |
//! | `prepare`   | top of the query-cache lookup              | error/latency/burn |
//! | `cold-eval` | before a capturing cold execution          | error/latency/burn/panic |
//! | `estimate`  | top of `conf` sampling (before seed draw)  | error/latency/burn/panic |
//! | `absorb`    | before a snapshot is absorbed into the pool| drop/latency  |
//! | `patch`     | before a delta patch of a pool entry       | drop/latency  |
//! | `storage`   | checkpoint segment writes                  | flip one byte |
//! | pool-steal  | `rayon::faults` (vendored pool)            | latency only  |
//!
//! `absorb` and `patch` run under the pool write lock where an unwind or
//! error return is not acceptable; their probe ([`fire_cost_only`]) only
//! adds latency or asks the caller to *drop* the work (skip the absorb,
//! demote instead of patch) — both of which the serving path already
//! treats as legal cache misses.  Panics are only ever injected at
//! `cold-eval` and `estimate`, which sit inside the serving path's
//! quarantine (`catch_unwind`) region.
//!
//! `storage` is a *corruption* site: its probe ([`corrupt_bytes`]) flips
//! one deterministic bit of a framed checkpoint segment just before it is
//! written, exercising the storage layer's digest verification — a
//! corrupted segment must be rejected on read (`EngineError::Storage`),
//! never decoded into wrong answers.

#[cfg(feature = "failpoints")]
pub use imp::*;

/// SplitMix64 step (Steele et al.): one multiply-xorshift cascade per draw,
/// no state.  The failpoint dice and `RetryPolicy`'s backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `true` iff this build compiled the failpoint registry.  The default
/// build's CI guard asserts this is `false`, which proves no failpoint
/// code (not even the disarmed atomic check) is present.
#[cfg(feature = "failpoints")]
pub const COMPILED: bool = true;

/// `true` iff this build compiled the failpoint registry.  The default
/// build's CI guard asserts this is `false`, which proves no failpoint
/// code (not even the disarmed atomic check) is present.
#[cfg(not(feature = "failpoints"))]
pub const COMPILED: bool = false;

/// Fallible probe stub for builds without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fire(
    _site: &'static str,
    _deadline: Option<std::time::Instant>,
) -> crate::error::Result<()> {
    Ok(())
}

/// Cost-only probe stub for builds without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fire_cost_only(_site: &'static str) -> bool {
    false
}

/// Corruption probe stub for builds without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn corrupt_bytes(_site: &'static str, _bytes: &mut [u8]) -> bool {
    false
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::splitmix64;
    use crate::error::{EngineError, Result};
    use crate::sync::{LockRank, OrderedMutex, OrderedMutexGuard};
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    /// Fault kind bit: return `EngineError::Injected { site }`.
    pub const ERROR: u8 = 1;
    /// Fault kind bit: panic (only honored at quarantined sites).
    pub const PANIC: u8 = 2;
    /// Fault kind bit: sleep for the plan's latency, then proceed.
    pub const LATENCY: u8 = 4;
    /// Fault kind bit: sleep until just past the request deadline, then
    /// proceed — downstream deadline checks must catch it.
    pub const BURN: u8 = 8;

    /// The fallible failpoint sites, in registry order.
    pub const SITES: [&str; 4] = ["admission", "prepare", "cold-eval", "estimate"];
    /// The cost-only failpoint sites (latency or drop-the-work, never
    /// error/panic — they run under the pool write lock).
    pub const COST_SITES: [&str; 2] = ["absorb", "patch"];
    /// The corruption failpoint sites ([`corrupt_bytes`]): a fault flips one
    /// bit of the bytes about to hit disk instead of erroring.
    pub const CORRUPT_SITES: [&str; 1] = ["storage"];
    /// Sites inside the serving quarantine region where an injected panic
    /// is recoverable; `PANIC` rolls elsewhere downgrade to `ERROR`.
    const PANIC_SITES: [&str; 2] = ["cold-eval", "estimate"];

    /// What to inject, where, and how often.  Armed via [`arm`].
    #[derive(Clone, Debug)]
    pub struct FaultPlan {
        /// Seed of the deterministic per-hit roll.
        pub seed: u64,
        /// Probability (parts per million) that a probe hit faults.
        pub rate_ppm: u32,
        /// Bitmask of fault kinds to draw from ([`ERROR`] | [`PANIC`] |
        /// [`LATENCY`] | [`BURN`]).
        pub kinds: u8,
        /// Sleep injected by `LATENCY` faults (and by cost-only sites).
        pub latency: Duration,
        /// Sites to fault; empty means every site.
        pub sites: Vec<&'static str>,
    }

    impl FaultPlan {
        /// A plan faulting every site with every kind at `rate_ppm`.
        pub fn storm(seed: u64, rate_ppm: u32) -> Self {
            FaultPlan {
                seed,
                rate_ppm,
                kinds: ERROR | PANIC | LATENCY | BURN,
                latency: Duration::from_micros(200),
                sites: Vec::new(),
            }
        }

        /// Restricts the plan to one site.
        pub fn at(mut self, site: &'static str) -> Self {
            self.sites = vec![site];
            self
        }

        /// Restricts the plan to the given fault kinds.
        pub fn with_kinds(mut self, kinds: u8) -> Self {
            self.kinds = kinds;
            self
        }
    }

    /// The single hot-path guard: probes return immediately while false.
    static ARMED: AtomicBool = AtomicBool::new(false);
    static SEED: AtomicU64 = AtomicU64::new(0);
    static RATE_PPM: AtomicU32 = AtomicU32::new(0);
    static KINDS: AtomicU32 = AtomicU32::new(0);
    static LATENCY_US: AtomicU64 = AtomicU64::new(0);
    /// Bitmask over `SITES` + `COST_SITES` + `CORRUPT_SITES` of the sites
    /// the plan targets.
    static SITE_MASK: AtomicU32 = AtomicU32::new(0);
    static INJECTED: AtomicU64 = AtomicU64::new(0);

    fn hit_counters() -> &'static [AtomicU64; 7] {
        static HITS: OnceLock<[AtomicU64; 7]> = OnceLock::new();
        HITS.get_or_init(|| std::array::from_fn(|_| AtomicU64::new(0)))
    }

    /// Serializes arm/disarm across tests in one process: the registry is
    /// global, so storms from concurrent `#[test]` threads must not
    /// interleave.  Hold the guard for the duration of the storm.
    ///
    /// Ranked at [`LockRank::TestExclusive`] — the lowest rank, since the
    /// holder evaluates through every engine lock — and acquired with
    /// poison *recovery* rather than the engine's abort-on-poison policy:
    /// storm tests panic by design while holding it, and its `()` payload
    /// has no state to corrupt.
    pub fn exclusive() -> OrderedMutexGuard<'static, ()> {
        static LOCK: OrderedMutex<()> =
            OrderedMutex::new(LockRank::TestExclusive, "faults.exclusive", ());
        LOCK.lock_recovering()
    }

    fn site_index(site: &'static str) -> usize {
        SITES
            .iter()
            .chain(COST_SITES.iter())
            .chain(CORRUPT_SITES.iter())
            .position(|s| *s == site)
            .unwrap_or_else(|| panic!("unknown failpoint site {site:?}"))
    }

    /// Arms the registry with `plan`; resets hit and injection counters.
    pub fn arm(plan: &FaultPlan) {
        let mask = if plan.sites.is_empty() {
            u32::MAX
        } else {
            plan.sites.iter().fold(0u32, |m, s| m | 1 << site_index(s))
        };
        SEED.store(plan.seed, Ordering::Relaxed);
        RATE_PPM.store(plan.rate_ppm.min(1_000_000), Ordering::Relaxed);
        KINDS.store(plan.kinds as u32, Ordering::Relaxed);
        LATENCY_US.store(
            plan.latency.as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        SITE_MASK.store(mask, Ordering::Relaxed);
        for h in hit_counters() {
            h.store(0, Ordering::Relaxed);
        }
        INJECTED.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarms every failpoint; probes become single-load no-ops again.
    pub fn disarm() {
        ARMED.store(false, Ordering::SeqCst);
    }

    /// Whether the registry is currently armed.
    pub fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Number of faults injected since the registry was last armed.
    pub fn injected_count() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    /// FNV-1a over the site name: stable per-site stream separation.
    fn site_hash(site: &str) -> u64 {
        site.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Rolls the deterministic die for one probe hit; `None` = no fault.
    fn roll(site: &'static str) -> Option<u64> {
        let idx = site_index(site);
        if SITE_MASK.load(Ordering::Relaxed) & (1 << idx) == 0 {
            return None;
        }
        let hit = hit_counters()[idx].fetch_add(1, Ordering::Relaxed);
        let r = splitmix64(SEED.load(Ordering::Relaxed) ^ site_hash(site) ^ hit);
        if (r % 1_000_000) as u32 >= RATE_PPM.load(Ordering::Relaxed) {
            return None;
        }
        INJECTED.fetch_add(1, Ordering::Relaxed);
        Some(r)
    }

    /// The fallible probe.  At an armed site this may return
    /// `EngineError::Injected`, panic (quarantined sites only), sleep for
    /// the plan latency, or burn the caller's deadline (sleep until just
    /// past `deadline`, capped at 50 ms) before returning `Ok`.
    pub fn fire(site: &'static str, deadline: Option<Instant>) -> Result<()> {
        if !ARMED.load(Ordering::Relaxed) {
            return Ok(());
        }
        let Some(r) = roll(site) else { return Ok(()) };
        let mut kinds = KINDS.load(Ordering::Relaxed) as u8;
        if !PANIC_SITES.contains(&site) {
            kinds &= !PANIC;
        }
        if kinds == 0 {
            kinds = ERROR;
        }
        let enabled: Vec<u8> = [ERROR, PANIC, LATENCY, BURN]
            .into_iter()
            .filter(|k| kinds & k != 0)
            .collect();
        match enabled[((r >> 32) as usize) % enabled.len()] {
            ERROR => Err(EngineError::Injected { site }),
            PANIC => panic!("injected fault at failpoint {site:?}"),
            LATENCY => {
                std::thread::sleep(Duration::from_micros(LATENCY_US.load(Ordering::Relaxed)));
                Ok(())
            }
            _burn => {
                let until = match deadline {
                    Some(d) => d + Duration::from_millis(2),
                    None => Instant::now() + Duration::from_millis(2),
                };
                let now = Instant::now();
                if until > now {
                    std::thread::sleep((until - now).min(Duration::from_millis(50)));
                }
                Ok(())
            }
        }
    }

    /// The corruption probe for storage writes.  At an armed site a fault
    /// flips one deterministic bit of `bytes` (the byte index and bit
    /// position both derive from the roll) and returns `true`; otherwise
    /// the bytes pass through untouched.  Callers write the possibly
    /// mangled buffer to disk as-is — detection is the *reader's* job,
    /// via digest verification.
    pub fn corrupt_bytes(site: &'static str, bytes: &mut [u8]) -> bool {
        if !ARMED.load(Ordering::Relaxed) || bytes.is_empty() {
            return false;
        }
        let Some(r) = roll(site) else { return false };
        let idx = ((r >> 24) as usize) % bytes.len();
        bytes[idx] ^= 1 << ((r >> 16) & 7);
        true
    }

    /// The cost-only probe for sites that run under the pool write lock.
    /// Never errors or panics: a fault either sleeps for the plan latency
    /// (returning `false`) or returns `true`, asking the caller to drop
    /// the work — skip the absorb, or demote instead of patching.
    pub fn fire_cost_only(site: &'static str) -> bool {
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
        let Some(r) = roll(site) else { return false };
        if KINDS.load(Ordering::Relaxed) as u8 & LATENCY != 0 && r & (1 << 33) != 0 {
            std::thread::sleep(Duration::from_micros(LATENCY_US.load(Ordering::Relaxed)));
            false
        } else {
            true
        }
    }
}

#[cfg(all(test, not(feature = "failpoints")))]
mod tests {
    /// The compile-time guard the CI default-feature job relies on: a
    /// default build must not compile the registry at all.
    #[test]
    fn default_build_has_no_failpoints() {
        const { assert!(!super::COMPILED) };
        assert_eq!(super::fire("anywhere", None), Ok(()));
        assert!(!super::fire_cost_only("anywhere"));
        let mut bytes = [1u8, 2, 3];
        assert!(!super::corrupt_bytes("anywhere", &mut bytes));
        assert_eq!(bytes, [1, 2, 3]);
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::error::EngineError;

    #[test]
    fn disarmed_probes_are_no_ops() {
        let _guard = exclusive();
        disarm();
        assert!(fire("admission", None).is_ok());
        assert!(!fire_cost_only("absorb"));
    }

    #[test]
    fn error_storm_is_deterministic_and_classified() {
        let _guard = exclusive();
        let plan = FaultPlan::storm(7, 500_000).with_kinds(ERROR);
        let observe = |plan: &FaultPlan| -> Vec<bool> {
            arm(plan);
            let hits = (0..64).map(|_| fire("admission", None).is_err()).collect();
            disarm();
            hits
        };
        let a = observe(&plan);
        let b = observe(&plan);
        assert_eq!(a, b, "same seed must inject the same schedule");
        assert!(a.iter().any(|&e| e), "50% rate over 64 hits must fire");
        assert!(a.iter().any(|&e| !e));
        arm(&plan);
        let err = (0..64).find_map(|_| fire("prepare", None).err()).unwrap();
        disarm();
        assert_eq!(err, EngineError::Injected { site: "prepare" });
        assert!(err.is_transient());
    }

    #[test]
    fn panic_downgrades_outside_quarantined_sites() {
        let _guard = exclusive();
        arm(&FaultPlan::storm(3, 1_000_000).with_kinds(PANIC));
        // `admission` is outside the quarantine region: PANIC must
        // downgrade to an error return rather than unwind.
        let r = fire("admission", None);
        disarm();
        assert_eq!(r, Err(EngineError::Injected { site: "admission" }));
    }

    #[test]
    fn quarantined_site_can_panic() {
        let _guard = exclusive();
        arm(&FaultPlan::storm(3, 1_000_000).with_kinds(PANIC));
        let unwound = std::panic::catch_unwind(|| {
            let _ = fire("cold-eval", None);
        })
        .is_err();
        disarm();
        assert!(unwound);
    }

    #[test]
    fn site_filter_spares_other_sites() {
        let _guard = exclusive();
        arm(&FaultPlan::storm(9, 1_000_000)
            .with_kinds(ERROR)
            .at("estimate"));
        assert!(fire("admission", None).is_ok());
        assert!(fire("estimate", None).is_err());
        assert!(!fire_cost_only("patch"));
        disarm();
    }

    #[test]
    fn corruption_probe_flips_exactly_one_deterministic_bit() {
        let _guard = exclusive();
        let plan = FaultPlan::storm(21, 1_000_000).at("storage");
        let pristine: Vec<u8> = (0..64u8).collect();
        let observe = |plan: &FaultPlan| {
            arm(plan);
            let mut bytes = pristine.clone();
            let hit = corrupt_bytes("storage", &mut bytes);
            disarm();
            (hit, bytes)
        };
        let (hit_a, a) = observe(&plan);
        let (hit_b, b) = observe(&plan);
        assert!(hit_a, "full-rate corruption must fire on the first hit");
        assert_eq!((hit_a, &a), (hit_b, &b), "same seed, same flipped bit");
        let flipped: Vec<usize> = a
            .iter()
            .zip(&pristine)
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, (x, y))| {
                assert_eq!((*x ^ *y).count_ones(), 1, "exactly one bit per byte");
                i
            })
            .collect();
        assert_eq!(flipped.len(), 1, "exactly one byte is touched");
    }

    #[test]
    fn corruption_probe_respects_arming_and_site_filter() {
        let _guard = exclusive();
        disarm();
        let mut bytes = vec![0xAAu8; 16];
        assert!(!corrupt_bytes("storage", &mut bytes));
        assert_eq!(bytes, vec![0xAAu8; 16]);
        // A storm aimed elsewhere must not corrupt storage writes.
        arm(&FaultPlan::storm(5, 1_000_000).at("prepare"));
        assert!(!corrupt_bytes("storage", &mut bytes));
        assert_eq!(bytes, vec![0xAAu8; 16]);
        // Empty buffers are left alone even at full rate.
        arm(&FaultPlan::storm(5, 1_000_000).at("storage"));
        assert!(!corrupt_bytes("storage", &mut []));
        disarm();
    }

    #[test]
    fn cost_only_sites_drop_rather_than_fail() {
        let _guard = exclusive();
        arm(&FaultPlan::storm(11, 1_000_000).with_kinds(ERROR | PANIC));
        // With latency disabled every cost-only fault asks to drop.
        assert!(fire_cost_only("absorb"));
        assert!(fire_cost_only("patch"));
        assert!(injected_count() >= 2);
        disarm();
    }
}
