//! Allocation bound of the cold build: one `quick(23)` build at one
//! build thread makes at most a fixed number of allocations, and holds
//! at most a fixed number of bytes above what the finished atlas keeps.
//!
//! The build counts over dense ids: FP-Growth keeps its counts, ranks
//! and tree in flat arrays, the authenticity matrix counts straight into
//! its rows, and the generator stores each recipe in exact-size vectors.
//! A build that goes back to one map or `Vec` per recipe, tree node or
//! conditional path makes several times more allocations, and one that
//! keeps a second matrix or a per-catalog count array raises the
//! transient peak; either fails here. Both figures repeat exactly from
//! run to run at one thread, so the bounds are about 25% above the
//! measured ones.
//!
//! The counting allocator is the one of `recipedb`'s
//! `decode_alloc_bound`: it charges a growing `realloc` with both
//! blocks at once, as a moving reallocation holds them. It also counts
//! allocator calls: every `alloc`, `alloc_zeroed` and `realloc`. This
//! file is its own test binary so no other test's allocations are
//! counted, and it holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cuisine_atlas::{AtlasConfig, CuisineAtlas};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(transient: usize, kept: usize) {
    let live = LIVE.fetch_add(kept, Ordering::SeqCst);
    PEAK.fetch_max(live + transient.max(kept), Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            grow(layout.size(), layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            grow(layout.size(), layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            let old = layout.size();
            if new_size >= old {
                grow(new_size, new_size - old);
            } else {
                LIVE.fetch_sub(old - new_size, Ordering::SeqCst);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn one_thread_quick_build_stays_within_its_allocation_bounds() {
    let config = AtlasConfig::quick(23).with_build_threads(1);
    // Warm up anything lazily allocated on first use.
    drop(CuisineAtlas::build(&config));

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let allocs_before = ALLOCS.load(Ordering::SeqCst);
    let atlas = CuisineAtlas::build(&config);
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;
    let peak = PEAK.load(Ordering::SeqCst) - base;
    let retained = LIVE.load(Ordering::SeqCst) - base;
    let transient = peak - retained;
    assert_eq!(atlas.cuisines().len(), 26);
    eprintln!(
        "quick(23) at one thread: {allocs} allocations, atlas retains {retained} B, \
         peak {peak} B, transient {transient} B"
    );
    assert!(
        allocs <= ALLOCS_BOUND,
        "{allocs} allocations exceed the bound of {ALLOCS_BOUND}"
    );
    assert!(
        transient <= TRANSIENT_BOUND,
        "transient peak of {transient} B above the {retained} B the atlas retains \
         exceeds the bound of {TRANSIENT_BOUND} B"
    );
    drop(atlas);
}

/// About 1.25× the 252,025 allocations measured (the map-per-node
/// build made 639,904).
const ALLOCS_BOUND: usize = 315_000;
/// About 1.25× the 159,240 B measured (the map-based build, which also
/// kept a prevalence matrix beside the relative one, held 6,681,528 B).
const TRANSIENT_BOUND: usize = 200_000;
