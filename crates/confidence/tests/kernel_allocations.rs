//! The bit-parallel kernel allocates nothing on a warm thread: once an
//! event's first block has built its sampling table and sized the thread's
//! scratchpad, further blocks — and further kernels over the same event, the
//! one-kernel-per-tuple pattern of the batched estimators — never reach the
//! allocator; and compiling a batch shares the probability space instead of
//! copying it.  Counted with a global allocator that tallies per thread, so
//! the harness's own threads cannot disturb the count.

use confidence::{
    Assignment, BitKarpLuby, DnfEvent, IncrementalEstimator, LineagePrograms, ProbabilitySpace,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocator calls (alloc, zeroed alloc, realloc) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread past its TLS teardown still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it allocates nothing
// and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    // SAFETY: `ptr` came from this allocator, i.e. from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: `ptr` came from this allocator, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A mixed-arity event over Boolean and multi-valued variables: every
/// branch of the block kernel runs.
fn programs() -> Arc<LineagePrograms> {
    let mut space = ProbabilitySpace::new();
    let x = space.add_bool_variable(0.3).unwrap();
    let y = space.add_bool_variable(0.6).unwrap();
    let z = space.add_variable(vec![0.2, 0.3, 0.5]).unwrap();
    let event = DnfEvent::new([
        Assignment::new([(x, 0)]).unwrap(),
        Assignment::new([(y, 1), (z, 2)]).unwrap(),
        Assignment::new([(x, 1), (y, 0), (z, 0)]).unwrap(),
    ]);
    Arc::new(LineagePrograms::compile(vec![event], &space).unwrap())
}

#[test]
fn warm_blocks_and_kernel_constructions_allocate_nothing() {
    let programs = programs();
    let mut rng = SmallRng::seed_from_u64(5);
    // The first block at the widest width builds the event's table and
    // sizes this thread's scratchpad for every narrower width too.
    assert!(!programs.sampling_table_built(0));
    let mut first = BitKarpLuby::new_with_width(programs.clone(), 0, 4).unwrap();
    let mut successes = u64::from(first.sample_block(&mut rng, 256));
    assert!(programs.sampling_table_built(0));

    let before = allocations();
    assert!(before > 0, "the counter sees this thread's allocations");
    for words in [1usize, 2, 4] {
        for _ in 0..50 {
            let mut kernel = BitKarpLuby::new_with_width(programs.clone(), 0, words).unwrap();
            for _ in 0..20 {
                successes += u64::from(kernel.sample_block(&mut rng, kernel.lanes()));
            }
            successes += (kernel.estimate(1000, &mut rng).unwrap() > 0.0) as u64;
        }
        // The incremental estimator is a kernel plus a lane bank, all inline.
        for _ in 0..50 {
            let mut estimator =
                IncrementalEstimator::from_compiled_with_width(&programs, 0, words).unwrap();
            for _ in 0..40 {
                estimator.add_batch(&mut rng);
            }
            successes += estimator.samples();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "300 constructions, 3 000 blocks and 6 000 batches on a warm thread allocated"
    );
    assert!(successes > 0);
}

/// A compiled batch keeps a clone of its space, and the clone shares the
/// distributions: compiling one event against 100 or 1 600 variables costs
/// the same allocations, none of them per variable.
#[test]
fn compiling_a_batch_allocates_nothing_per_space_variable() {
    let compile_allocations = |vars: usize| {
        let mut space = ProbabilitySpace::new();
        for _ in 0..vars {
            space.add_bool_variable(0.5).unwrap();
        }
        let events = vec![DnfEvent::new([
            Assignment::new([(0, 0), (1, 1)]).unwrap(),
            Assignment::new([(vars - 1, 0)]).unwrap(),
        ])];
        let before = allocations();
        let programs = LineagePrograms::compile(events, &space).unwrap();
        let spent = allocations() - before;
        assert_eq!(programs.space(), &space);
        spent
    };
    let small = compile_allocations(100);
    assert_eq!(small, compile_allocations(1_600));
    assert!(small < 100, "{small} allocations for one event");
}
