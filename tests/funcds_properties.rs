//! Randomized equivalence of the functional datastructures against
//! std-library models, including version immutability (old handles always
//! observe their original contents) and zero-leak reclamation.
//!
//! Deterministic xorshift streams replace an external property-testing
//! framework: cases are enumerated over seeds, so failures reproduce
//! exactly.

use mod_alloc::NvHeap;
use mod_funcds::{HashKind, PmMap, PmQueue, PmStack, PmVector};
use mod_pmem::{Pmem, PmemConfig};
use mod_workloads::WorkloadRng;
use std::collections::HashMap;

fn heap() -> NvHeap {
    NvHeap::format(Pmem::new(PmemConfig {
        capacity: 1 << 26,
        trace: false,
        ..PmemConfig::default()
    }))
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u8),
    Remove(u8),
}

fn ops_stream(rng: &mut WorkloadRng) -> Vec<Op> {
    let n = 1 + rng.below(79) as usize;
    (0..n)
        .map(|_| {
            if rng.percent(60) {
                Op::Insert(rng.below(256) as u8, rng.below(256) as u8)
            } else {
                Op::Remove(rng.below(256) as u8)
            }
        })
        .collect()
}

#[test]
fn champ_matches_hashmap() {
    for case in 0..48u64 {
        let mut rng = WorkloadRng::new(0xC4A4 + case);
        let ops = ops_stream(&mut rng);
        let weak = case % 2 == 0;
        let mut h = heap();
        let hk = if weak {
            HashKind::WeakLow4
        } else {
            HashKind::SplitMix
        };
        let mut m = PmMap::empty_with_hash(&mut h, hk);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let next = m.insert(&mut h, k as u64, &[v; 4]);
                    m.release(&mut h);
                    m = next;
                    model.insert(k as u64, vec![v; 4]);
                }
                Op::Remove(k) => {
                    let (next, removed) = m.remove(&mut h, k as u64);
                    assert_eq!(removed, model.remove(&(k as u64)).is_some(), "case {case}");
                    if removed {
                        m.release(&mut h);
                        m = next;
                    }
                }
            }
            assert_eq!(m.len(&mut h) as usize, model.len(), "case {case}");
        }
        for (&k, v) in &model {
            // Exercise both the charged and the peek read paths.
            assert_eq!(m.get(&mut h, k).as_ref(), Some(v), "case {case}");
            assert_eq!(m.peek_get(&h, k).as_ref(), Some(v), "case {case}");
        }
        // Releasing the last version reclaims every block.
        m.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "case {case}");
    }
}

#[test]
fn rrb_matches_vec() {
    for case in 0..24u64 {
        let mut rng = WorkloadRng::new(0x44B + case);
        let init: Vec<u64> = (0..rng.below(200)).map(|_| rng.next_u64()).collect();
        let pushes: Vec<u64> = (0..rng.below(64)).map(|_| rng.next_u64()).collect();
        let n_updates = rng.below(32);
        let pops = rng.below(48) as usize;

        let mut h = heap();
        let mut v = PmVector::from_slice(&mut h, &init);
        let mut model = init.clone();
        for &e in &pushes {
            let next = v.push_back(&mut h, e);
            v.release(&mut h);
            v = next;
            model.push(e);
        }
        for _ in 0..n_updates {
            if model.is_empty() {
                continue;
            }
            let idx = rng.below(model.len() as u64);
            let val = rng.next_u64();
            let next = v.update(&mut h, idx, val);
            v.release(&mut h);
            v = next;
            model[idx as usize] = val;
        }
        for _ in 0..pops {
            match v.pop_back(&mut h) {
                Some((next, e)) => {
                    assert_eq!(Some(e), model.pop(), "case {case}");
                    v.release(&mut h);
                    v = next;
                }
                None => assert!(model.is_empty(), "case {case}"),
            }
        }
        assert_eq!(v.to_vec(&mut h), model, "case {case}");
        assert_eq!(v.peek_to_vec(&h), model, "case {case}");
        v.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "case {case}");
    }
}

#[test]
fn rrb_concat_matches_vec_concat() {
    for case in 0..16u64 {
        let mut rng = WorkloadRng::new(0xC0CA + case);
        let a: Vec<u64> = (0..rng.below(120)).map(|_| rng.next_u64()).collect();
        let b: Vec<u64> = (0..rng.below(120)).map(|_| rng.next_u64()).collect();
        let mut h = heap();
        let va = PmVector::from_slice(&mut h, &a);
        let vb = PmVector::from_slice(&mut h, &b);
        let vc = va.concat(&mut h, &vb);
        let mut want = a.clone();
        want.extend(&b);
        assert_eq!(vc.to_vec(&mut h), want, "case {case}");
        // Indexed access through any relaxed nodes, on both read paths.
        for idx in (0..want.len()).step_by(17) {
            assert_eq!(vc.get(&mut h, idx as u64), want[idx], "case {case}");
            assert_eq!(vc.peek_get(&h, idx as u64), want[idx], "case {case}");
        }
        // Originals untouched.
        assert_eq!(va.to_vec(&mut h), a, "case {case}");
        assert_eq!(vb.to_vec(&mut h), b, "case {case}");
    }
}

#[test]
fn old_versions_are_immutable() {
    for case in 0..12u64 {
        let mut rng = WorkloadRng::new(0x01D + case);
        let ops = ops_stream(&mut rng);
        // Keep every version alive and verify each still shows its own
        // snapshot at the end — multi-versioning done right.
        let mut h = heap();
        let mut versions = vec![(PmStack::empty(&mut h), Vec::<u64>::new())];
        for op in ops.iter().take(24) {
            let (cur, model) = versions.last().unwrap().clone();
            match *op {
                Op::Insert(_, v) => {
                    let next = cur.push(&mut h, v as u64);
                    let mut m2 = model.clone();
                    m2.insert(0, v as u64);
                    versions.push((next, m2));
                }
                Op::Remove(_) => {
                    if let Some((next, _)) = cur.pop(&mut h) {
                        let mut m2 = model.clone();
                        m2.remove(0);
                        versions.push((next, m2));
                    }
                }
            }
        }
        for (v, model) in &versions {
            assert_eq!(&v.to_vec(&mut h), model, "case {case}");
            assert_eq!(&v.peek_to_vec(&h), model, "case {case}");
        }
    }
}

#[test]
fn queue_matches_vecdeque() {
    for case in 0..24u64 {
        let mut rng = WorkloadRng::new(0x0DE + case);
        let ops = ops_stream(&mut rng);
        let mut h = heap();
        let mut q = PmQueue::empty(&mut h);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        for op in &ops {
            match *op {
                Op::Insert(_, v) => {
                    let next = q.enqueue(&mut h, v as u64);
                    q.release(&mut h);
                    q = next;
                    model.push_back(v as u64);
                }
                Op::Remove(_) => match q.dequeue(&mut h) {
                    Some((next, e)) => {
                        assert_eq!(Some(e), model.pop_front(), "case {case}");
                        q.release(&mut h);
                        q = next;
                    }
                    None => assert!(model.is_empty(), "case {case}"),
                },
            }
            assert_eq!(q.peek_front(&h), model.front().copied(), "case {case}");
        }
        let want: Vec<u64> = model.into_iter().collect();
        assert_eq!(q.to_vec(&mut h), want, "case {case}");
        q.release(&mut h);
        assert_eq!(h.stats().live_blocks, 0, "case {case}");
    }
}
