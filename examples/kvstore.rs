//! A memcached-style durable key-value store over one recoverable map —
//! the paper's flagship application pattern (§4.3.1): every `set` is a
//! single-FASE map update, `get`s are free of flushes and fences.
//!
//! The store is just a typed `DurableMap<String, Vec<u8>>`: the codec
//! layer hashes the string key onto the 64-bit substrate and frames the
//! key bytes into the stored blob for verification — the FNV hashing and
//! length-prefix framing this example used to implement by hand.
//!
//! ```text
//! cargo run --example kvstore
//! ```

use mod_core::{DurableMap, ModHeap};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

/// A tiny text-keyed KV store.
struct KvStore {
    map: DurableMap<String, Vec<u8>>,
}

impl KvStore {
    fn create(heap: &mut ModHeap) -> KvStore {
        KvStore {
            map: DurableMap::create(heap),
        }
    }

    fn open(heap: &mut ModHeap) -> KvStore {
        KvStore {
            map: heap.root(0).open().unwrap(),
        }
    }

    fn set(&mut self, heap: &mut ModHeap, key: &str, value: &[u8]) {
        self.map.insert(heap, &key.to_string(), &value.to_vec());
    }

    fn get(&self, heap: &ModHeap, key: &str) -> Option<Vec<u8>> {
        self.map.get(heap, &key.to_string())
    }

    fn delete(&mut self, heap: &mut ModHeap, key: &str) -> bool {
        self.map.remove(heap, &key.to_string())
    }
}

fn main() {
    let pool = Pmem::new(PmemConfig {
        capacity: 1 << 26,
        ..PmemConfig::default()
    });
    let mut heap = ModHeap::create(pool);
    let mut kv = KvStore::create(&mut heap);

    kv.set(&mut heap, "user:42:name", b"Ada Lovelace");
    kv.set(&mut heap, "user:42:email", b"ada@analytical.engine");
    kv.set(&mut heap, "session:abc", b"{\"ttl\": 3600}");
    kv.delete(&mut heap, "session:abc");
    kv.set(&mut heap, "user:42:email", b"ada@example.org"); // update

    let fences = heap.nv().pm().stats().fences;
    let sets = 5; // 4 sets + 1 delete committed above (plus setup)
    println!("performed {sets} mutations with {fences} total fences");
    println!(
        "  name  = {:?}",
        kv.get(&heap, "user:42:name").map(String::from_utf8)
    );
    println!(
        "  email = {:?}",
        kv.get(&heap, "user:42:email").map(String::from_utf8)
    );

    // Restart the "process": reopen the pool and find everything intact.
    heap.quiesce();
    let img = heap.into_pm().crash_image(CrashPolicy::OnlyFenced);
    println!("-- restart --");
    let (mut heap, _) = ModHeap::open(img);
    let kv = KvStore::open(&mut heap);
    assert_eq!(
        kv.get(&heap, "user:42:email"),
        Some(b"ada@example.org".to_vec())
    );
    assert!(kv.get(&heap, "session:abc").is_none());
    println!("store intact after restart:");
    println!(
        "  email = {:?}",
        kv.get(&heap, "user:42:email").map(String::from_utf8)
    );
}
