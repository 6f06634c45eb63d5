//! Hybrid persistence ("Don't Persist All"): per-root [`PersistPolicy`]
//! selection through the unified `heap.root(index)` builder. A hybrid
//! root keeps its interior nodes in a volatile index (never flushed,
//! never charged) and persists only a compact op spine; recovery rebuilds
//! the index by replaying the spine. These tests pin the API contract
//! (policy recorded durably, mismatches are typed errors), the
//! equivalence contract (a hybrid root is observationally identical to a
//! full one), and the rebuild contract (crash → reopen → same contents).

use mod_core::{
    CommitMode, DurableMap, DurableQueue, DurableSet, DurableStack, DurableVector, ModHeap,
    OpenError, PersistPolicy, SharedModHeap,
};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

fn mh() -> ModHeap {
    ModHeap::create(Pmem::new(PmemConfig::testing()))
}

fn lcg(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
    *rng >> 16
}

#[test]
fn builder_creates_and_reopens_all_five_kinds_hybrid() {
    let mut h = mh();
    let map: DurableMap<u64, Vec<u8>> = h.root(0).policy(PersistPolicy::Hybrid).create();
    let set: DurableSet<u64> = h.root(1).policy(PersistPolicy::Hybrid).create();
    let vec: DurableVector<u64> = h.root(2).policy(PersistPolicy::Hybrid).create();
    let stack: DurableStack<u64> = h.root(3).policy(PersistPolicy::Hybrid).create();
    let queue: DurableQueue<u64> = h.root(4).policy(PersistPolicy::Hybrid).create();

    map.insert(&mut h, &1, &b"one".to_vec());
    map.insert(&mut h, &2, &b"two".to_vec());
    assert!(map.remove(&mut h, &1));
    set.insert(&mut h, &10);
    vec.push_back(&mut h, &7);
    vec.push_back(&mut h, &8);
    vec.update(&mut h, 0, &70);
    stack.push(&mut h, &5);
    stack.push(&mut h, &6);
    queue.enqueue(&mut h, &11);
    queue.enqueue(&mut h, &12);

    assert_eq!(map.get(&h, &2), Some(b"two".to_vec()));
    assert_eq!(map.get(&h, &1), None);
    assert_eq!(map.len(&h), 1);
    assert!(set.contains(&h, &10));
    assert_eq!(vec.to_vec(&h), vec![70, 8]);
    assert_eq!(stack.peek(&h), Some(6));
    assert_eq!(stack.pop(&mut h), Some(6));
    assert_eq!(queue.peek(&h), Some(11));
    assert_eq!(queue.dequeue(&mut h), Some(11));

    // Reopen every handle through the builder without a restart.
    let map2: DurableMap<u64, Vec<u8>> = h.root(0).policy(PersistPolicy::Hybrid).open().unwrap();
    assert_eq!(map2.policy(), PersistPolicy::Hybrid);
    assert_eq!(map2.get(&h, &2), Some(b"two".to_vec()));
    let vec2: DurableVector<u64> = h.root(2).policy(PersistPolicy::Hybrid).open().unwrap();
    assert_eq!(vec2.to_vec(&h), vec![70, 8]);
}

#[test]
fn open_or_create_opens_existing_and_rejects_gaps() {
    let mut h = mh();
    let created: DurableMap<u64, u64> = h
        .root(0)
        .policy(PersistPolicy::Hybrid)
        .open_or_create()
        .unwrap();
    created.insert(&mut h, &1, &100);
    let reopened: DurableMap<u64, u64> = h
        .root(0)
        .policy(PersistPolicy::Hybrid)
        .open_or_create()
        .unwrap();
    assert_eq!(reopened.get(&h, &1), Some(100));
    let gap: Result<DurableMap<u64, u64>, _> = h.root(5).open_or_create();
    assert!(matches!(gap, Err(OpenError::NoSuchRoot { index: 5, .. })));
}

#[test]
fn policy_mismatch_is_a_typed_error_both_ways() {
    let mut h = mh();
    let _hybrid: DurableMap<u64, u64> = h.root(0).policy(PersistPolicy::Hybrid).create();
    let _full: DurableMap<u64, u64> = h.root(1).create();

    let as_full: Result<DurableMap<u64, u64>, _> = h.root(0).open();
    match as_full {
        Err(OpenError::PolicyMismatch {
            index: 0,
            stored: PersistPolicy::Hybrid,
            requested: PersistPolicy::Full,
        }) => {}
        other => panic!("expected hybrid-as-full PolicyMismatch, got {other:?}"),
    }
    let as_hybrid: Result<DurableMap<u64, u64>, _> = h.root(1).policy(PersistPolicy::Hybrid).open();
    match as_hybrid {
        Err(OpenError::PolicyMismatch {
            index: 1,
            stored: PersistPolicy::Full,
            requested: PersistPolicy::Hybrid,
        }) => {}
        other => panic!("expected full-as-hybrid PolicyMismatch, got {other:?}"),
    }
    // The error names both policies for the operator.
    let msg = as_full.unwrap_err().to_string();
    assert!(msg.contains("Hybrid") && msg.contains("Full"), "{msg}");
}

/// Satellite 3: one random op sequence driven against a Full root and a
/// Hybrid root must produce the identical reply stream at every step and
/// identical logical contents at the end.
#[test]
fn full_and_hybrid_replies_and_contents_match_under_random_ops() {
    let mut hf = mh();
    let mut hh = mh();
    let full: DurableMap<u64, Vec<u8>> = hf.root(0).create();
    let hybrid: DurableMap<u64, Vec<u8>> = hh.root(0).policy(PersistPolicy::Hybrid).create();
    let fvec: DurableVector<i64> = hf.root(1).create();
    let hvec: DurableVector<i64> = hh.root(1).policy(PersistPolicy::Hybrid).create();

    let mut rng = 0x5EED_1234u64;
    for step in 0..600 {
        let k = lcg(&mut rng) % 48;
        match lcg(&mut rng) % 5 {
            0 => {
                let v = vec![(step % 251) as u8; (lcg(&mut rng) % 96) as usize];
                full.insert(&mut hf, &k, &v);
                hybrid.insert(&mut hh, &k, &v);
            }
            1 => {
                let rf = full.remove(&mut hf, &k);
                let rh = hybrid.remove(&mut hh, &k);
                assert_eq!(rf, rh, "remove reply diverged at step {step}");
            }
            2 => {
                let e = lcg(&mut rng) as i64 - (1 << 40);
                fvec.push_back(&mut hf, &e);
                hvec.push_back(&mut hh, &e);
            }
            3 => {
                let rf = fvec.pop_back(&mut hf);
                let rh = hvec.pop_back(&mut hh);
                assert_eq!(rf, rh, "pop reply diverged at step {step}");
            }
            _ => {
                let gf = full.get(&hf, &k);
                let gh = hybrid.get(&hh, &k);
                assert_eq!(gf, gh, "get reply diverged at step {step}");
                assert_eq!(full.len(&hf), hybrid.len(&hh));
            }
        }
    }
    assert_eq!(fvec.to_vec(&hf), hvec.to_vec(&hh));
    for k in 0..48 {
        assert_eq!(
            full.get(&hf, &k),
            hybrid.get(&hh, &k),
            "final contents at key {k}"
        );
    }
}

/// The tentpole's point: interior updates on a hybrid root skip the
/// flush pipeline entirely, and the simulator proves it.
#[test]
fn hybrid_interior_updates_avoid_flushes() {
    let run = |policy: PersistPolicy| {
        let mut h = mh();
        let map: DurableMap<u64, Vec<u8>> = h.root(0).policy(policy).create();
        for i in 0..256u64 {
            map.insert(&mut h, &i, &vec![i as u8; 32]);
        }
        let s = h.nv().pm().stats().clone();
        (
            s.effective_flushes,
            s.flushes_avoided,
            s.volatile_node_bytes,
        )
    };
    let (full_flushes, full_avoided, full_vbytes) = run(PersistPolicy::Full);
    let (hyb_flushes, hyb_avoided, hyb_vbytes) = run(PersistPolicy::Hybrid);
    assert_eq!(full_avoided, 0);
    assert_eq!(full_vbytes, 0);
    assert!(hyb_avoided > 0, "hybrid run avoided no flushes");
    assert!(hyb_vbytes > 0, "no bytes were ever volatile");
    assert!(
        hyb_flushes * 2 <= full_flushes,
        "expected >=2x flush reduction: full={full_flushes} hybrid={hyb_flushes}"
    );
}

/// Recovery contract: a crash drops the volatile index wholesale; reopen
/// replays the spine and rebuilds bit-identical logical contents.
#[test]
fn hybrid_roots_rebuild_after_crash() {
    let mut h = mh();
    let map: DurableMap<u64, Vec<u8>> = h.root(0).policy(PersistPolicy::Hybrid).create();
    let vec: DurableVector<u64> = h.root(1).policy(PersistPolicy::Hybrid).create();
    let stack: DurableStack<u64> = h.root(2).policy(PersistPolicy::Hybrid).create();
    let queue: DurableQueue<u64> = h.root(3).policy(PersistPolicy::Hybrid).create();
    let full: DurableMap<u64, u64> = h.root(4).create();

    let mut model = std::collections::BTreeMap::new();
    let mut rng = 0xC0FFEEu64;
    for _ in 0..300 {
        let k = lcg(&mut rng) % 64;
        if lcg(&mut rng) % 4 == 0 {
            map.remove(&mut h, &k);
            model.remove(&k);
        } else {
            let v = vec![(k % 251) as u8; 24];
            map.insert(&mut h, &k, &v);
            model.insert(k, v);
        }
    }
    for i in 0..40 {
        vec.push_back(&mut h, &(i * 3));
        stack.push(&mut h, &i);
        queue.enqueue(&mut h, &(i + 100));
    }
    vec.pop_back(&mut h);
    stack.pop(&mut h);
    queue.dequeue(&mut h);
    full.insert(&mut h, &9, &90);
    h.quiesce();

    let pm = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
    let (mut h2, _report) = ModHeap::open(pm);
    assert!(h2.rebuild_ns() > 0, "rebuild was never timed");

    let map: DurableMap<u64, Vec<u8>> = h2.root(0).policy(PersistPolicy::Hybrid).open().unwrap();
    let vec: DurableVector<u64> = h2.root(1).policy(PersistPolicy::Hybrid).open().unwrap();
    let stack: DurableStack<u64> = h2.root(2).policy(PersistPolicy::Hybrid).open().unwrap();
    let queue: DurableQueue<u64> = h2.root(3).policy(PersistPolicy::Hybrid).open().unwrap();
    let full: DurableMap<u64, u64> = h2.root(4).open().unwrap();

    assert_eq!(map.len(&h2), model.len() as u64);
    for (k, v) in &model {
        assert_eq!(map.get(&h2, k).as_ref(), Some(v), "rebuilt map at key {k}");
    }
    assert_eq!(
        vec.to_vec(&h2),
        (0..39).map(|i| i * 3).collect::<Vec<u64>>()
    );
    assert_eq!(stack.len(&h2), 39);
    assert_eq!(stack.peek(&h2), Some(38));
    assert_eq!(queue.len(&h2), 39);
    assert_eq!(queue.peek(&h2), Some(101));
    assert_eq!(
        full.get(&h2, &9),
        Some(90),
        "full root untouched by rebuild"
    );

    // The rebuilt index keeps absorbing writes and another crash cycle
    // still rebuilds.
    map.insert(&mut h2, &999, &b"post-crash".to_vec());
    h2.quiesce();
    let pm = h2.into_pm().crash_image(CrashPolicy::OnlyFenced);
    let (mut h3, _) = ModHeap::open(pm);
    let map: DurableMap<u64, Vec<u8>> = h3.root(0).policy(PersistPolicy::Hybrid).open().unwrap();
    assert_eq!(map.get(&h3, &999), Some(b"post-crash".to_vec()));
}

/// Spine compaction: a long history over a small live structure folds
/// into snapshot records instead of an unbounded op chain.
#[test]
fn compaction_bounds_spine_growth_and_rebuild_still_matches() {
    let mut h = mh();
    let vec: DurableVector<u64> = h.root(0).policy(PersistPolicy::Hybrid).create();
    // 4000 ops, live length never exceeds 4.
    for round in 0..1000u64 {
        for i in 0..4 {
            vec.push_back(&mut h, &(round * 7 + i));
        }
        for _ in 0..4 {
            vec.pop_back(&mut h);
        }
    }
    vec.push_back(&mut h, &42);
    h.quiesce();
    let live = h.nv().stats().live_bytes;
    assert!(
        live < 64 * 1024,
        "spine chain grew unboundedly: {live} live bytes after 8k ops on a 4-element vector"
    );
    let pm = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
    let (mut h2, _) = ModHeap::open(pm);
    let vec: DurableVector<u64> = h2.root(0).policy(PersistPolicy::Hybrid).open().unwrap();
    assert_eq!(vec.to_vec(&h2), vec![42]);
}

/// Hybrid roots compose with the shared engine: worker FASEs stage
/// spine records through the same lanes, snapshot readers see the
/// committed volatile head, and recovery still rebuilds.
#[test]
fn shared_mode_hybrid_ops_snapshot_reads_and_rebuild() {
    let pm = Pmem::new(PmemConfig::testing());
    let shared = SharedModHeap::create(pm, 2);
    let map: DurableMap<u64, u64> =
        shared.setup(|h| h.root(0).policy(PersistPolicy::Hybrid).create());
    let m0 = map;
    let m1 = map;
    std::thread::scope(|s| {
        let h0 = shared.clone();
        let h1 = shared.clone();
        s.spawn(move || {
            for i in 0..50u64 {
                h0.fase(0, |tx| m0.insert_in(tx, &(2 * i), &i));
            }
        });
        s.spawn(move || {
            for i in 0..50u64 {
                h1.fase(1, |tx| m1.insert_in(tx, &(2 * i + 1), &i));
            }
        });
    });
    shared.flush();
    let view = shared.snapshot();
    assert_eq!(view.map_len(&map), 100);
    assert_eq!(view.map_get(&map, &0), Some(0));
    assert_eq!(view.map_get(&map, &99), Some(49));
    drop(view);
    let (mut h2, _) = ModHeap::open(
        shared
            .into_heap()
            .into_pm()
            .crash_image(CrashPolicy::OnlyFenced),
    );
    let map: DurableMap<u64, u64> = h2.root(0).policy(PersistPolicy::Hybrid).open().unwrap();
    assert_eq!(map.len(&h2), 100);
    for i in 0..50 {
        assert_eq!(map.get(&h2, &(2 * i)), Some(i));
        assert_eq!(map.get(&h2, &(2 * i + 1)), Some(i));
    }
}

/// The journal half of the ablation: the memcached mix (16-byte keys,
/// 512-byte values, 95 % sets) against a *file-backed* pool journals
/// strictly fewer bytes per op under Hybrid — only compact spine records
/// reach the journal, never the rewritten interior nodes — and the run
/// elides real flushes.
#[test]
fn memcached_mix_journal_bytes_per_op_drop_under_hybrid() {
    let run = |policy: PersistPolicy, name: &str| {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "mod_hybrid_journal_{}_{name}.pool",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = PmemConfig {
            capacity: 1 << 26,
            ..PmemConfig::default()
        };
        let mut h = ModHeap::create_file(&path, cfg).unwrap();
        let map: DurableMap<[u8; 16], Vec<u8>> = h.root(0).policy(policy).create();
        let mut rng = 0xCACE_D00Du64;
        const OPS: u64 = 400;
        for op in 0..OPS {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&(lcg(&mut rng) % 64).to_le_bytes());
            if lcg(&mut rng) % 100 < 95 {
                let mut v = vec![0u8; 512];
                v[..8].copy_from_slice(&op.to_le_bytes());
                map.insert(&mut h, &key, &v);
            } else {
                let _ = map.get(&h, &key);
            }
        }
        h.quiesce();
        let journal = h.nv().pm().backend_stats().journal_bytes;
        let avoided = h.nv().pm().stats().flushes_avoided;
        drop(h.close().unwrap());
        let _ = std::fs::remove_file(&path);
        (journal / OPS, avoided)
    };
    let (full_jpo, full_avoided) = run(PersistPolicy::Full, "full");
    let (hyb_jpo, hyb_avoided) = run(PersistPolicy::Hybrid, "hybrid");
    assert_eq!(full_avoided, 0);
    assert!(hyb_avoided > 0, "memcached hybrid run avoided no flushes");
    assert!(
        hyb_jpo < full_jpo,
        "journal bytes/op did not drop: full={full_jpo} hybrid={hyb_jpo}"
    );
}

/// Satellite 6 regression: when `wait_durable` times out and forces the
/// batch itself, the watermark it returns must come from the *resolved*
/// ticket — never a stale poll.
#[test]
fn wait_durable_forced_flush_returns_the_resolved_watermark() {
    let pm = Pmem::new(PmemConfig::testing());
    let shared = SharedModHeap::create_with(
        pm,
        2,
        CommitMode::Group {
            max_batch: 64,
            timeout: std::time::Duration::from_millis(5),
        },
    );
    let map: DurableMap<u64, u64> =
        shared.setup(|h| h.root(0).policy(PersistPolicy::Hybrid).create());
    // One lone worker stages; its peer never does, so only the forced
    // flush inside wait_durable can resolve the ticket.
    let (_, ticket) = shared.fase_ticketed(0, |tx| map.insert_in(tx, &1, &10));
    let ns = shared.wait_durable(&ticket);
    assert!(ticket.is_durable());
    assert_eq!(Some(ns), ticket.fence_ns());
    assert!(ns > 0.0);
}
