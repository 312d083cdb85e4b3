//! The index's memory, counted at the allocator.
//!
//! One keyword set is one shared buffer, and a stored entry is that
//! buffer — the paper's storage argument (§3.3: one index entry per
//! object) rests on that entry staying small. This test builds a
//! 50,000-object pchome index under a counting global allocator twice:
//! from sets decoded fresh, as a server receives them, and from clones
//! of sets the caller keeps. It holds the line on allocations per set
//! built, per clone, per insert and per remove, on bytes per object,
//! on a shared set costing the index no buffer, and on `StoreFootprint`
//! reporting what the allocator saw.
//!
//! Exactly one `#[test]` lives in this file: the counters are global to
//! the test binary, so a second test running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hyperdex::core::{HypercubeIndex, KeywordSet, StoreFootprint};
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

/// Allocations `f` makes, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// An index built by `build`, with its live heap bytes and allocations
/// per object as the allocator counted them.
fn measured(build: impl FnOnce(&mut HypercubeIndex)) -> (HypercubeIndex, f64, f64) {
    let base = live_bytes();
    let (index, made) = counted(|| {
        let mut index = HypercubeIndex::new(R, 14).expect("valid r");
        build(&mut index);
        index
    });
    assert_eq!(index.len(), OBJECTS);
    let objects = OBJECTS as f64;
    let per_object = (live_bytes() - base) as f64 / objects;
    (index, per_object, made as f64 / objects)
}

fn per_object(bytes: usize) -> f64 {
    bytes as f64 / OBJECTS as f64
}

const OBJECTS: usize = 50_000;
const R: u8 = 12;

#[test]
fn a_stored_entry_is_one_shared_buffer_and_the_footprint_says_so() {
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(OBJECTS), 14);

    // Building a set is one allocation; the empty set and a clone are
    // none.
    let sample = &corpus.records()[0].keywords;
    let (empty, made) = counted(KeywordSet::new);
    assert_eq!(made, 0, "KeywordSet::new");
    drop(empty);
    let (copy, made) = counted(|| sample.clone());
    assert_eq!(made, 0, "KeywordSet::clone");
    assert_eq!(&copy, sample);
    let ((decoded, _), made) =
        counted(|| KeywordSet::decode_packed(sample.as_packed()).expect("canonical"));
    assert_eq!(made, 1, "KeywordSet::decode_packed");
    assert_eq!(&decoded, sample);
    let (collected, made) = counted(|| sample.iter().collect::<KeywordSet>());
    assert_eq!(made, 1, "KeywordSet: FromIterator<KeywordRef>");
    assert_eq!(&collected, sample);
    drop((copy, decoded, collected));

    // Owned: every set decoded off its wire form and moved in, as a
    // server's worker does. The index holds each buffer alone.
    let (index, owned, per_insert) = measured(|index| {
        for (id, keywords) in corpus.indexable() {
            let (set, _) = KeywordSet::decode_packed(keywords.as_packed()).expect("canonical");
            index.insert(id, set).expect("non-empty set");
        }
    });
    let reported = index.store_footprint();
    println!(
        "owned: {owned:.1} B/object counted, {:.1} B/object reported ({:.1} of them keys), {per_insert:.2} allocations/insert",
        per_object(reported.bytes_resident),
        per_object(reported.key_bytes)
    );
    assert!(
        per_insert <= 1.75,
        "{per_insert:.2} allocations per received insert, its decode included (budget 1.75)"
    );
    assert!(
        owned <= 185.0,
        "{owned:.1} live heap bytes per indexed object (budget 185)"
    );
    // The store's own accounting has an absolute budget too (DESIGN
    // §17), stated at this density of ~12 objects per vertex.
    assert!(
        per_object(reported.bytes_resident) <= 180.0,
        "store_footprint reports {:.1} bytes per object (budget 180)",
        per_object(reported.bytes_resident)
    );
    assert_reports(reported, owned);
    drop(index);

    // Shared: clones of sets the caller keeps. The index adds no
    // keyword buffer, only its own slab.
    let (mut index, shared, per_insert) = measured(|index| {
        for (id, keywords) in corpus.indexable() {
            index.insert(id, keywords.clone()).expect("non-empty set");
        }
    });
    let reported = index.store_footprint();
    let slab_share = per_object(reported.bytes_resident - reported.key_bytes);
    println!(
        "shared: {shared:.1} B/object counted, {slab_share:.1} B/object the slab's own, {per_insert:.2} allocations/insert"
    );
    assert!(
        shared <= slab_share * 1.15,
        "{shared:.1} live heap bytes per object against the slab's own {slab_share:.1}: a keyword buffer was copied"
    );
    assert!(
        slab_share <= 80.0,
        "the slab's own {slab_share:.1} bytes per object (budget 80: 40 a slot, with growth slack, and the arena)"
    );
    assert!(
        per_insert < 0.75,
        "{per_insert:.2} allocations per insert of a kept set (the slab's growth only)"
    );
    // Every store reports the buffers it holds, shared or not.
    assert_reports(reported, owned);

    // Removing: a slot's only object swap-removes the slot, any other
    // streams the list to its arena's tail with the id dropped. Neither
    // needs a buffer, so only an arena's growth allocates — a
    // compaction's rebuild, or the tail room a relocated list takes.
    let doomed: Vec<_> = corpus.indexable().step_by(10).collect();
    let (removed, made) = counted(|| {
        doomed
            .iter()
            .filter(|&&(id, keywords)| index.remove(id, keywords))
            .count()
    });
    assert_eq!(removed, doomed.len());
    let per_remove = made as f64 / removed as f64;
    println!("remove: {made} allocations over {removed} removes ({per_remove:.4} each)");
    assert!(
        per_remove <= 0.001,
        "{per_remove:.4} allocations per remove (budget 0.001: a decode buffer per store was 0.47)"
    );
}

/// `store_footprint()` is within ±15 % of what the allocator counted
/// for an index holding its sets alone.
fn assert_reports(reported: StoreFootprint, counted_per_object: f64) {
    let ratio = per_object(reported.bytes_resident) / counted_per_object;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "store_footprint reports {:.1} B/object, the allocator counted {counted_per_object:.1} (ratio {ratio:.3})",
        per_object(reported.bytes_resident)
    );
}
