//! The index's memory, counted at the allocator.
//!
//! One keyword set is one shared buffer, and a stored entry is that
//! buffer — the paper's storage argument (§3.3: one index entry per
//! object) rests on that entry staying small. This test generates
//! 50,000 pchome records under a counting global allocator, then
//! builds their index twice: from sets decoded fresh, as a server
//! receives them, and from clones of sets the caller keeps. It holds
//! the line on allocations per generated record, per set built, per
//! clone, per insert and per remove, on bytes per object,
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

/// An index over an `r`-dimensional cube built by `build`, with its
/// live heap bytes and allocations per object as the allocator counted
/// them.
fn measured(r: u8, build: impl FnOnce(&mut HypercubeIndex)) -> (HypercubeIndex, f64, f64) {
    let base = live_bytes();
    let (index, made) = counted(|| {
        let mut index = HypercubeIndex::new(r, 14).expect("valid r");
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

/// What one cube's two builds of the corpus cost, per object.
struct Budget {
    /// Live heap bytes of the index of owned sets.
    owned: f64,
    /// What that index's `store_footprint()` reports.
    reported: f64,
    /// Allocations per received insert, its decode included.
    received: f64,
    /// The slab's own bytes in the index of kept sets.
    slab_share: f64,
    /// Allocations per insert of a kept set.
    kept: f64,
}

/// Builds the corpus over an `r`-dimensional cube twice — from sets
/// decoded fresh, as a server receives them, then from clones of sets
/// the caller keeps — and returns the second index with what both
/// cost. Checks what holds at any density: the footprint reports what
/// the allocator counted, and a kept set's buffer is not copied.
fn budget(corpus: &Corpus, r: u8) -> (HypercubeIndex, Budget) {
    // Owned: every set decoded off its wire form and moved in, as a
    // server's worker does. The index holds each buffer alone.
    let (index, owned, received) = measured(r, |index| {
        for (id, keywords) in corpus.indexable() {
            let (set, _) = KeywordSet::decode_packed(keywords.as_packed()).expect("canonical");
            index.insert(id, set).expect("non-empty set");
        }
    });
    let footprint = index.store_footprint();
    let reported = per_object(footprint.bytes_resident);
    println!(
        "r = {r}, owned: {owned:.1} B/object counted, {reported:.1} B/object reported ({:.1} of them keys), {received:.2} allocations/insert",
        per_object(footprint.key_bytes)
    );
    assert_reports(footprint, owned);
    drop(index);

    // Shared: clones of sets the caller keeps. The index adds no
    // keyword buffer, only its own slab.
    let (index, shared, kept) = measured(r, |index| {
        for (id, keywords) in corpus.indexable() {
            index.insert(id, keywords.clone()).expect("non-empty set");
        }
    });
    let footprint = index.store_footprint();
    let slab_share = per_object(footprint.bytes_resident - footprint.key_bytes);
    println!(
        "r = {r}, shared: {shared:.1} B/object counted, {slab_share:.1} B/object the slab's own, {kept:.2} allocations/insert"
    );
    assert!(
        shared <= slab_share * 1.15,
        "r = {r}: {shared:.1} live heap bytes per object against the slab's own {slab_share:.1}: a keyword buffer was copied"
    );
    // Every store reports the buffers it holds, shared or not.
    assert_reports(footprint, owned);
    let budget = Budget {
        owned,
        reported,
        received,
        slab_share,
        kept,
    };
    (index, budget)
}

#[test]
fn a_stored_entry_is_one_shared_buffer_and_the_footprint_says_so() {
    // Generating a record is building its keyword set, one allocation;
    // the vocabulary and the records vector add a few dozen in all.
    let (corpus, made) =
        counted(|| Corpus::generate(&CorpusConfig::pchome().with_objects(OBJECTS), 14));
    let per_record = made as f64 / OBJECTS as f64;
    println!("generate: {made} allocations over {OBJECTS} records ({per_record:.4} each)");
    assert!(
        per_record <= 1.05,
        "{per_record:.4} allocations per generated record (budget 1.05: four text fields, a rank vector and a string per vocabulary word made it 10.60)"
    );

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

    // About 12 objects a vertex. Almost every set is distinct, so
    // almost every posting list is one id, held in its slot.
    let (mut index, at12) = budget(&corpus, 12);
    assert!(
        at12.received <= 1.50,
        "{:.2} allocations per received insert, its decode included (budget 1.50)",
        at12.received
    );
    assert!(
        at12.owned <= 160.0,
        "{:.1} live heap bytes per indexed object (budget 160)",
        at12.owned
    );
    // The store's own accounting has an absolute budget too (DESIGN
    // §17).
    assert!(
        at12.reported <= 152.0,
        "store_footprint reports {:.1} bytes per object (budget 152)",
        at12.reported
    );
    assert!(
        at12.slab_share <= 57.0,
        "the slab's own {:.1} bytes per object (budget 57: 40 a slot, with growth slack, and the arena)",
        at12.slab_share
    );
    assert!(
        at12.kept <= 0.45,
        "{:.2} allocations per insert of a kept set (budget 0.45: the slab's growth only)",
        at12.kept
    );

    // Removing: a slot's only object swap-removes the slot, any other
    // streams the list to its arena's tail with the id dropped (or puts
    // a lone survivor back in its slot). None needs a buffer, so only
    // an arena's growth allocates — a compaction's rebuild, or the
    // tail room a relocated list takes.
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
    drop(index);

    // About 6 objects a vertex: smaller slot arrays, so growth steps
    // are a larger share of the inserts.
    let (_, at13) = budget(&corpus, 13);
    assert!(
        at13.received <= 1.59,
        "r = 13: {:.2} allocations per received insert (budget 1.59)",
        at13.received
    );
    assert!(
        at13.kept <= 0.54,
        "r = 13: {:.2} allocations per insert of a kept set (budget 0.54)",
        at13.kept
    );
    assert!(
        at13.slab_share <= 68.0,
        "r = 13: the slab's own {:.1} bytes per object (budget 68)",
        at13.slab_share
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
