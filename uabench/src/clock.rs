//! The CPU clock of the calling thread.
//!
//! The benchmark host is a 2-vCPU VM that shares its cores with whatever
//! else runs there, and the wall clock charges all of it to the engine: with
//! three busy processes beside the benchmark the wall-clock median of a
//! `cold_adhoc` request went from 2.1 ms to 8.0 ms and `warm_serve`'s
//! wall-clock throughput fell to a third, on the same code.  A thread's CPU
//! clock stops while the thread is off the CPU — preempted by another
//! process, or (the guest kernel accounts stolen time) by the hypervisor —
//! and every request of this benchmark is an in-process call that runs on
//! its caller's thread from start to end (the pool is pinned to one worker,
//! which makes every `par_iter` inline), so on a host of its own the two
//! clocks agree and on a shared one only this clock repeats.

use std::sync::atomic::{AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds the calling thread has spent on a CPU since it started.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) for the whole call, which writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A fixed piece of work that shares no code and no memory with the engine,
/// timed beside the requests to tell how fast the host is at that moment.
///
/// The CPU clock removes the time a thread is kept off the CPU; it does not
/// remove what the host's other tenants do to the time spent on it.  On the
/// reference VM every workload's CPU-clock latencies move together between
/// 1 and 1.4–1.6 times their best, in regimes that last from seconds to tens
/// of minutes (ten runs of `warm_serve` over 20 minutes: medians from 103 to
/// 150 µs), while a register-only loop moves by 0.03: what slows down is
/// code that chases pointers, stores, and executes locked instructions — an
/// allocator's work, and most of a warm request.  The kernel below does
/// those things over 128 KiB of its own memory; dividing by what it takes
/// brought the run-to-run spread of every timing from 0.06–0.50 of the median
/// to 0.04–0.16 over two 25-minute series in which the host changed regime.
/// It is a partial correction — the kernel slows by 1.15–1.3 where the
/// workloads slow by 1.35–1.65 — and the README says what is left.
/// Kernels over 4 MiB (the L2 cache's size) or 8 MiB, read-only table walks
/// and a clone-and-drop of a `BTreeMap` were tried: the large ones are
/// noisier than what they correct, the read-only ones move by a third of
/// what the workloads move by, and a kernel that allocates is as fast as the
/// engine's heap is tidy, which is not the host's doing.
pub struct Reference {
    cells: Vec<AtomicU64>,
}

/// Cells of the kernel's memory (8 bytes each).
const CELLS: usize = 1 << 14;
/// Steps of the walk with locked operations, and operations on the lists.
const WALK_STEPS: usize = 4096;
const LIST_OPS: usize = 16_384;
/// A list link that points nowhere.
const NIL: u64 = 0xffff_ffff;

/// What one run of the kernel takes on the reference VM when nothing
/// disturbs it, in ns.  Timings are reported as if the host ran the kernel
/// in this time.
pub const REFERENCE_NOMINAL_NS: f64 = 230_000.0;

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            cells: (0..CELLS as u64).map(AtomicU64::new).collect(),
        }
    }

    /// Runs the kernel once and returns what it took on the calling thread's
    /// CPU clock, in ns.
    pub fn run(&self) -> u64 {
        let start = thread_cpu_ns();
        std::hint::black_box(self.walk() ^ self.lists());
        thread_cpu_ns() - start
    }

    /// A data-dependent walk: every step adds to a cell with a locked
    /// read-modify-write and stores to another with a locked exchange.
    fn walk(&self) -> u64 {
        let mask = CELLS - 1;
        let mut at = 1usize;
        let mut sum = 0u64;
        for _ in 0..WALK_STEPS {
            let seen = self.cells[at & mask].fetch_add(1, Ordering::SeqCst);
            sum = sum.wrapping_add(seen);
            at = (seen as usize).wrapping_add(at.wrapping_mul(31));
            self.cells[(at >> 7) & mask].store(sum, Ordering::SeqCst);
        }
        sum
    }

    /// A free list and 64 linked lists threaded through the cells (low half
    /// of a cell: the next cell; high half: a payload): three operations in
    /// four take a cell off the free list and push it, the fourth pops one,
    /// walks up to eight links and frees it.
    fn lists(&self) -> u64 {
        let cells = &self.cells;
        for (k, cell) in cells.iter().enumerate() {
            cell.store(((k + 1) % CELLS) as u64, Ordering::Relaxed);
        }
        let link = |cell: usize| cells[cell].load(Ordering::Relaxed) & NIL;
        let mut free = 0usize;
        let mut heads = [NIL; 64];
        let mut x = 88_172_645_463_325_252u64;
        let mut sum = 0u64;
        for _ in 0..LIST_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let list = (x & 63) as usize;
            if x & 0x300 != 0 {
                let cell = free;
                free = link(cell) as usize;
                cells[cell].store(heads[list] | (x << 32), Ordering::Relaxed);
                heads[list] = cell as u64;
            } else if heads[list] != NIL {
                let cell = heads[list] as usize;
                heads[list] = link(cell);
                let mut at = heads[list];
                for _ in 0..8 {
                    if at == NIL {
                        break;
                    }
                    let seen = cells[at as usize].load(Ordering::Relaxed);
                    sum = sum.wrapping_add(seen >> 32);
                    at = seen & NIL;
                }
                cells[cell].store(free as u64, Ordering::Relaxed);
                free = cell;
            }
        }
        sum
    }
}

/// The host's speed, from what runs of the reference kernel took (ns): 1 at
/// [`REFERENCE_NOMINAL_NS`], below 1 on a slower host.  Multiplying a
/// duration by it gives the duration at nominal speed.  Without samples the
/// host counts as nominal.
pub fn host_speed(reference_ns: &[u64]) -> f64 {
    if reference_ns.is_empty() {
        return 1.0;
    }
    let mut sorted = reference_ns.to_vec();
    sorted.sort_unstable();
    REFERENCE_NOMINAL_NS / sorted[sorted.len() / 2] as f64
}
