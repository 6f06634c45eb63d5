//! The paper's automated-testing framework (§5.4) applied to every MOD
//! datastructure through the typed API: record all PM allocations,
//! writes, flushes, commits and fences, then verify that (1) non-commit
//! writes only touch freshly allocated memory and (2) every written line
//! is flushed before the next fence.

use mod_core::{DurableMap, DurableQueue, DurableSet, DurableStack, DurableVector, ModHeap};
use mod_funcds::PmMap;
use mod_pmem::{check_trace, Pmem, PmemConfig};

fn traced_heap() -> ModHeap {
    ModHeap::create(Pmem::new(PmemConfig {
        capacity: 1 << 26,
        trace: true,
        ..PmemConfig::default()
    }))
}

fn assert_clean(heap: &mut ModHeap, what: &str) {
    let trace = heap.nv_mut().pm_mut().take_trace();
    assert!(!trace.is_empty(), "{what}: trace should not be empty");
    if let Err(violations) = check_trace(&trace) {
        panic!(
            "{what}: {} violations, first: {}",
            violations.len(),
            violations[0]
        );
    }
}

#[test]
fn map_ops_satisfy_mod_invariants() {
    let mut heap = traced_heap();
    let map: DurableMap<u64, Vec<u8>> = DurableMap::create(&mut heap);
    heap.nv_mut().pm_mut().take_trace(); // setup not under test
    for i in 0..200u64 {
        map.insert(&mut heap, &(i % 64), &vec![i as u8; 32]);
        if i % 5 == 0 {
            map.remove(&mut heap, &((i + 3) % 64));
        }
    }
    assert_clean(&mut heap, "map insert/remove");
}

#[test]
fn hashed_key_map_ops_satisfy_mod_invariants() {
    // String keys route through the codec's bucket framing: same
    // shadow-discipline requirements apply.
    let mut heap = traced_heap();
    let map: DurableMap<String, String> = DurableMap::create(&mut heap);
    heap.nv_mut().pm_mut().take_trace();
    for i in 0..100u64 {
        let key = format!("user:{}", i % 32);
        map.insert(&mut heap, &key, &format!("profile-{i}"));
        if i % 7 == 0 {
            map.remove(&mut heap, &key);
        }
    }
    assert_clean(&mut heap, "hashed-key map insert/remove");
}

#[test]
fn set_ops_satisfy_mod_invariants() {
    let mut heap = traced_heap();
    let set: DurableSet<u64> = DurableSet::create(&mut heap);
    heap.nv_mut().pm_mut().take_trace();
    for i in 0..200u64 {
        set.insert(&mut heap, &(i % 50));
        if i % 7 == 0 {
            set.remove(&mut heap, &(i % 50));
        }
    }
    assert_clean(&mut heap, "set insert/remove");
}

#[test]
fn vector_ops_satisfy_mod_invariants() {
    let mut heap = traced_heap();
    let elems: Vec<u64> = (0..500).collect();
    let vec = DurableVector::create_from(&mut heap, &elems);
    heap.nv_mut().pm_mut().take_trace();
    for i in 0..100u64 {
        vec.push_back(&mut heap, &i);
        vec.update(&mut heap, i % 500, &i);
        vec.swap(&mut heap, i % 500, (i * 7) % 500);
        if i % 9 == 0 {
            vec.pop_back(&mut heap);
        }
    }
    assert_clean(&mut heap, "vector push/update/swap/pop");
}

#[test]
fn stack_and_queue_ops_satisfy_mod_invariants() {
    let mut heap = traced_heap();
    let stack: DurableStack<u64> = DurableStack::create(&mut heap);
    let queue: DurableQueue<u64> = DurableQueue::create(&mut heap);
    heap.nv_mut().pm_mut().take_trace();
    for i in 0..150u64 {
        stack.push(&mut heap, &i);
        queue.enqueue(&mut heap, &i);
        if i % 3 == 0 {
            stack.pop(&mut heap);
            queue.dequeue(&mut heap); // exercises rear reversal
        }
    }
    assert_clean(&mut heap, "stack/queue ops");
}

#[test]
fn multi_root_fases_satisfy_mod_invariants() {
    let mut heap = traced_heap();
    let m0 = PmMap::empty(heap.nv_mut());
    let a = heap.publish(m0);
    let b: DurableMap<u64, Vec<u8>> = DurableMap::create(&mut heap);
    heap.nv_mut().pm_mut().take_trace();
    for i in 0..100u64 {
        // One FASE spanning a raw funcds root and a typed wrapper.
        heap.fase(|tx| {
            tx.update(a, |nv, m| m.insert(nv, i, b"x"));
            b.insert_in(tx, &i, &vec![i as u8; 8]);
        });
    }
    assert_clean(&mut heap, "multi-root FASEs");
}

#[test]
fn checker_catches_a_buggy_in_place_write() {
    // Sanity-check the checker itself: an in-place overwrite of committed
    // data must be flagged.
    let mut heap = traced_heap();
    let map: DurableMap<u64, Vec<u8>> = DurableMap::create(&mut heap);
    map.insert(&mut heap, &1, &b"v".to_vec());
    heap.nv_mut().pm_mut().take_trace();
    // Simulate a buggy datastructure writing to the live root object.
    let root = heap.current(map.root()).root();
    heap.nv_mut().write_u64(root.addr(), 0xBAD);
    heap.nv_mut().clwb(root.addr());
    heap.nv_mut().sfence();
    let trace = heap.nv_mut().pm_mut().take_trace();
    assert!(
        check_trace(&trace).is_err(),
        "checker must flag in-place writes to live data"
    );
}
