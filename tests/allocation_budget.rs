//! The index's memory, counted at the allocator.
//!
//! One keyword set is one buffer, and a stored entry is that buffer
//! plus its `Arc` block — the paper's storage argument (§3.3: one index
//! entry per object) rests on that entry staying small. This test
//! builds a 50,000-object pchome index under a counting global
//! allocator and holds the line on bytes per object, allocations per
//! insert and per clone, and on `StoreFootprint` reporting what the
//! allocator saw.
//!
//! Exactly one `#[test]` lives in this file: the counters are global to
//! the test binary, so a second test running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hyperdex::core::{HypercubeIndex, KeywordSet, ObjectId};
use hyperdex::workload::{Corpus, CorpusConfig};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's arguments are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

const OBJECTS: usize = 50_000;
const R: u8 = 12;

#[test]
fn a_stored_entry_is_two_small_blocks_and_the_footprint_says_so() {
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(OBJECTS), 14);

    // A clone is one buffer copy.
    let sample = &corpus.records()[0].keywords;
    let before = allocations();
    let copy = sample.clone();
    assert_eq!(allocations() - before, 1, "KeywordSet::clone");
    assert_eq!(&copy, sample);
    drop(copy);

    // Nothing is indexed twice, so every insert is of a fresh set.
    let base = live_bytes();
    let mut entries: Vec<(ObjectId, KeywordSet)> = corpus
        .indexable()
        .map(|(id, keywords)| (id, keywords.clone()))
        .collect();
    let mut index = HypercubeIndex::new(R, 14).expect("valid r");
    let before = allocations();
    for (id, keywords) in entries.drain(..) {
        index.insert(id, keywords).expect("non-empty set");
    }
    let per_insert = (allocations() - before) as f64 / OBJECTS as f64;
    drop(entries);
    assert_eq!(index.len(), OBJECTS);

    // What the index holds: everything allocated since `base` that is
    // still alive — the sets moved in, their `Arc` blocks, the slabs.
    let counted = live_bytes() - base;
    let per_object = counted as f64 / OBJECTS as f64;
    let reported = index.store_footprint().bytes_resident;
    let reported_per_object = reported as f64 / OBJECTS as f64;
    println!(
        "{per_object:.1} B/object counted, {reported_per_object:.1} B/object reported, {per_insert:.2} allocations/insert"
    );
    assert!(
        per_object <= 260.0,
        "{per_object:.1} live heap bytes per indexed object (budget 260)"
    );
    assert!(
        per_insert <= 3.0,
        "{per_insert:.2} allocations per insert of a fresh set (budget 3)"
    );
    // The store's own accounting has an absolute budget too (DESIGN
    // §17), stated at this density of ~12 objects per vertex.
    assert!(
        reported_per_object <= 240.0,
        "store_footprint reports {reported_per_object:.1} bytes per object (budget 240)"
    );
    let ratio = reported as f64 / counted as f64;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "store_footprint reports {reported} B, the allocator counted {counted} B (ratio {ratio:.3})"
    );
}
