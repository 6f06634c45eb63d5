//! Quickstart: a durable map that survives a crash.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Shows the typed Basic interface (paper Fig 6a): every update is a
//! failure-atomic section with exactly one ordering point, lookups are
//! read-only (`&heap`), and recovery brings the structure back after a
//! simulated power failure — no slot numbers, no root specs.

use mod_core::{DurableMap, ModHeap};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

fn main() {
    // A simulated persistent-memory pool (would be a DAX mapping on real
    // hardware).
    let pool = Pmem::new(PmemConfig {
        capacity: 1 << 26,
        ..PmemConfig::default()
    });
    let mut heap = ModHeap::create(pool);

    // Create a durable map published as typed root 0 and fill it. Each
    // insert is one FASE: pure shadow update + one sfence + pointer swing.
    let map: DurableMap<u64, String> = DurableMap::create(&mut heap);
    for (k, v) in [(1u64, "alpha"), (2, "beta"), (3, "gamma")] {
        map.insert(&mut heap, &k, &v.to_string());
    }
    println!("inserted {} entries", map.len(&heap));
    println!(
        "fences so far: {} (one per update + setup)",
        heap.nv().pm().stats().fences
    );

    // An update that never commits: the shadow is built and flushed, but
    // the machine dies before the FASE's ordering point retires it.
    heap.quiesce();
    let doomed = heap
        .current(map.root())
        .insert(heap.nv_mut(), 99, b"never-committed");
    let _ = doomed;

    // Power failure. Even if *everything* unfenced happened to hit PM,
    // the uncommitted update is invisible after recovery.
    let crashed = heap.into_pm().crash_image(CrashPolicy::PersistAll);
    println!("-- crash --");

    // Recovery is self-describing: the root directory knows there is a
    // map at index 0 (opening it as another type would panic).
    let (mut heap, report) = ModHeap::open(crashed);
    println!(
        "recovered {} live blocks ({} bytes); leaked shadow reclaimed by GC",
        report.live_blocks, report.live_bytes
    );
    let map: DurableMap<u64, String> = heap.root(0).open().unwrap();
    for k in [1u64, 2, 3, 99] {
        match map.get(&heap, &k) {
            Some(v) => println!("  key {k} -> {v:?}"),
            None => println!("  key {k} -> (absent)"),
        }
    }
    assert_eq!(map.len(&heap), 3);
    assert!(map.get(&heap, &99).is_none());
    println!("committed data survived; uncommitted update did not. QED.");
}
