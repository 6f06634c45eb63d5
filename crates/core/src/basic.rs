//! The Basic interface (paper Fig 6a), typed: mutable-looking durable
//! collections whose every update is a self-contained FASE.
//!
//! Each wrapper is a thin, `Copy` view over a typed [`Root`]: updates run
//! one [`ModHeap::fase`] (pure shadow update, one ordering point, old
//! version handed to deferred reclamation) and lookups are **read-only**
//! — they take `&ModHeap`, need no flushes, fences, or exclusive access.
//!
//! Keys and values are application types bridged onto the raw `u64`/bytes
//! substrate by the [`crate::codec`] traits, so callers no longer
//! hand-roll FNV hashing or length-prefix framing:
//!
//! ```
//! use mod_core::{DurableMap, ModHeap};
//! use mod_pmem::{Pmem, PmemConfig};
//!
//! let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
//! let map: DurableMap<String, Vec<u8>> = DurableMap::create(&mut heap);
//! map.insert(&mut heap, &"user:42".to_string(), &b"Ada".to_vec());
//! assert_eq!(map.get(&heap, &"user:42".to_string()), Some(b"Ada".to_vec()));
//! ```
//!
//! Every wrapper also composes into multi-structure FASEs through its
//! `*_in` methods, which stage the update on a [`Fase`] instead of
//! committing immediately.

use crate::codec::{
    codec_compatible, codec_word_elem, codec_word_fields, codec_word_kv, frames, push_frame,
    KeyRepr, PmKey, PmValue, PmWord,
};
use crate::erased::{DurableDs, ErasedDs, RootKind};
use crate::fase::Fase;
use crate::heap::ModHeap;
use crate::root::Root;
use crate::spine::{self, PersistPolicy, SpineOp, SpineState};
use mod_alloc::HeapRead;
use mod_funcds::{PmMap, PmQueue, PmStack, PmVector};
use mod_pmem::PmPtr;
use std::marker::PhantomData;

/// Why reattaching a typed wrapper to a directory index failed.
///
/// Returned by [`RootBuilder::open`] and
/// [`RootBuilder::open_or_create`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpenError {
    /// No root was ever published at this directory index.
    NoSuchRoot {
        /// The requested directory index.
        index: usize,
        /// How many roots the directory holds.
        roots: usize,
    },
    /// The directory records a different datastructure kind (e.g. the
    /// index holds a queue, not a map).
    KindMismatch {
        /// The requested directory index.
        index: usize,
        /// The kind recorded in the directory.
        stored: RootKind,
        /// The kind the wrapper expected.
        expected: RootKind,
    },
    /// The directory records a different key/value codec discipline than
    /// the wrapper's type parameters — e.g. a `DurableMap<u64, Vec<u8>>`
    /// opened as `DurableMap<String, u64>`. Without this check the wrong
    /// decoder would run over well-formed bytes and return garbage.
    CodecMismatch {
        /// The requested directory index.
        index: usize,
        /// The codec tag word recorded in the directory.
        stored: u64,
        /// The codec tag word derived from the wrapper's type parameters.
        expected: u64,
    },
    /// The root was created under a different [`PersistPolicy`] than the
    /// one requested. The policy is recorded durably in the directory
    /// entry: a hybrid root's persistent image is a spine of op records,
    /// not a full structure, so opening it as `Full` would traverse
    /// records as trie nodes (and opening a full root as `Hybrid` would
    /// replay trie nodes as records).
    PolicyMismatch {
        /// The requested directory index.
        index: usize,
        /// The policy the root was created under.
        stored: PersistPolicy,
        /// The policy the open requested.
        requested: PersistPolicy,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::NoSuchRoot { index, roots } => {
                write!(
                    f,
                    "no root published at directory index {index} ({roots} roots exist)"
                )
            }
            OpenError::KindMismatch {
                index,
                stored,
                expected,
            } => write!(f, "root {index} holds a {stored:?}, not a {expected:?}"),
            OpenError::CodecMismatch {
                index,
                stored,
                expected,
            } => {
                let (_, sk, sv) = codec_word_fields(*stored);
                let (_, ek, ev) = codec_word_fields(*expected);
                write!(
                    f,
                    "root {index} was written with codec key/elem={sk} value={sv}, \
                     but was opened expecting key/elem={ek} value={ev}"
                )
            }
            OpenError::PolicyMismatch {
                index,
                stored,
                requested,
            } => write!(
                f,
                "root {index} was created with PersistPolicy::{stored:?}, \
                 but was opened requesting PersistPolicy::{requested:?}"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

/// Shared open path: policy check (the directory entry's kind *is* the
/// durable policy record — hybrid roots are stored as
/// [`RootKind::Spine`]), then kind check, then codec check against the
/// persisted tag word.
fn open_checked<D: DurableDs>(
    heap: &ModHeap,
    index: usize,
    expected_codec: u64,
    policy: PersistPolicy,
) -> Result<Root<D>, OpenError> {
    let entry = crate::root::peek_entry(heap.nv(), index).ok_or(OpenError::NoSuchRoot {
        index,
        roots: heap.root_count(),
    })?;
    let stored_kind = match (policy, entry.kind) {
        (PersistPolicy::Full, RootKind::Spine) => {
            return Err(OpenError::PolicyMismatch {
                index,
                stored: PersistPolicy::Hybrid,
                requested: PersistPolicy::Full,
            });
        }
        (PersistPolicy::Full, k) => k,
        (PersistPolicy::Hybrid, RootKind::Spine) => spine::logical_kind(heap.nv(), entry.root),
        (PersistPolicy::Hybrid, k) if k == D::KIND => {
            return Err(OpenError::PolicyMismatch {
                index,
                stored: PersistPolicy::Full,
                requested: PersistPolicy::Hybrid,
            });
        }
        (PersistPolicy::Hybrid, k) => k,
    };
    if stored_kind != D::KIND {
        return Err(OpenError::KindMismatch {
            index,
            stored: stored_kind,
            expected: D::KIND,
        });
    }
    let stored = heap.root_codec_tag(index);
    if !codec_compatible(stored, expected_codec) {
        return Err(OpenError::CodecMismatch {
            index,
            stored,
            expected: expected_codec,
        });
    }
    Ok(Root::new(index))
}

/// Creates and publishes a hybrid root: an empty volatile index, a
/// durable genesis snapshot record, and a directory entry of kind
/// [`RootKind::Spine`] (the durable policy record). Returns the index.
fn create_hybrid(heap: &mut ModHeap, logical: RootKind, codec: u64) -> usize {
    let nv = heap.nv_mut();
    nv.begin_volatile();
    let v0 = match logical {
        RootKind::Map => PmMap::empty(nv).root().addr(),
        RootKind::Vector => PmVector::empty(nv).root().addr(),
        RootKind::Stack => PmStack::empty(nv).root().addr(),
        RootKind::Queue => PmQueue::empty(nv).root().addr(),
        k => unreachable!("no hybrid form for {k:?}"),
    };
    nv.end_volatile();
    let genesis = match logical {
        RootKind::Map => SpineOp::Snapshot(SpineState::Map(Vec::new())),
        _ => SpineOp::Snapshot(SpineState::Words(Vec::new())),
    };
    let rec = spine::store_record(heap.nv_mut(), PmPtr::NULL, logical, 0, &genesis);
    let index = heap.publish_erased_tagged(
        ErasedDs {
            kind: RootKind::Spine,
            root: rec,
        },
        codec,
    );
    heap.nv().annex().set(index, spine::pack_annex(logical, v0));
    index
}

// ---------------------------------------------------------------------
// Root builder (the unified constructor API)
// ---------------------------------------------------------------------

/// A typed wrapper that can be created and reopened through
/// [`ModHeap::root`]'s builder: the five `Durable*` collections.
pub trait DurableRoot: Sized {
    /// Creates the structure under `policy`, publishing it as a new root
    /// at the directory's next free index.
    fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self;

    /// Reattaches to the root at `index`, checking kind, codec, and
    /// persistence policy against the durable directory entry.
    fn open_with(heap: &ModHeap, index: usize, policy: PersistPolicy) -> Result<Self, OpenError>;
}

/// Builder for opening or creating a typed root at one directory index —
/// the one constructor path for all five `Durable*` wrappers:
///
/// ```
/// use mod_core::{DurableMap, ModHeap, PersistPolicy};
/// use mod_pmem::{Pmem, PmemConfig};
///
/// let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
/// let map: DurableMap<u64, Vec<u8>> = heap
///     .root(0)
///     .policy(PersistPolicy::Hybrid)
///     .open_or_create()
///     .unwrap();
/// map.insert(&mut heap, &7, &b"x".to_vec());
/// ```
#[derive(Debug)]
pub struct RootBuilder<'h, D: DurableRoot> {
    heap: &'h mut ModHeap,
    index: usize,
    policy: PersistPolicy,
    _d: PhantomData<fn() -> D>,
}

impl ModHeap {
    /// Starts opening or creating the typed root at directory `index`.
    /// Defaults to [`PersistPolicy::Full`]; select hybrid persistence
    /// with [`RootBuilder::policy`].
    pub fn root<D: DurableRoot>(&mut self, index: usize) -> RootBuilder<'_, D> {
        RootBuilder {
            heap: self,
            index,
            policy: PersistPolicy::Full,
            _d: PhantomData,
        }
    }
}

impl<D: DurableRoot> RootBuilder<'_, D> {
    /// Selects the persistence policy (checked against the durable
    /// directory entry on open, recorded in it on create).
    pub fn policy(mut self, policy: PersistPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Reattaches to the existing root at this index.
    pub fn open(self) -> Result<D, OpenError> {
        D::open_with(self.heap, self.index, self.policy)
    }

    /// Opens the root if the index exists, creates it if the index is
    /// the directory's next free slot, and fails with
    /// [`OpenError::NoSuchRoot`] on a gap (a create there would land at
    /// a different index than the one named).
    pub fn open_or_create(self) -> Result<D, OpenError> {
        let count = self.heap.root_count();
        match self.index {
            i if i < count => D::open_with(self.heap, i, self.policy),
            i if i == count => Ok(D::create_with(self.heap, self.policy)),
            i => Err(OpenError::NoSuchRoot {
                index: i,
                roots: count,
            }),
        }
    }

    /// Creates the root at this index, which must be the directory's
    /// next free slot.
    ///
    /// # Panics
    ///
    /// Panics if the index is not `heap.root_count()`.
    pub fn create(self) -> D {
        assert_eq!(
            self.index,
            self.heap.root_count(),
            "create must target the directory's next free index"
        );
        D::create_with(self.heap, self.policy)
    }
}

/// One map lookup through either read path (charged or peek).
/// `pub(crate)` so [`crate::snapshot::SnapshotView`] reuses the exact
/// decode logic over its pinned root image.
pub(crate) fn raw_get(cur: PmMap, heap: &mut HeapRead<'_>, key: u64) -> Option<Vec<u8>> {
    match heap {
        HeapRead::Charged(nv) => cur.get(nv, key),
        HeapRead::Peek(nv) => cur.peek_get(nv, key),
    }
}

/// Decodes a typed lookup: exact keys read the value directly; hashed
/// keys scan the bucket's frames for the matching key bytes.
pub(crate) fn lookup<V: PmValue>(cur: PmMap, heap: &mut HeapRead<'_>, repr: &KeyRepr) -> Option<V> {
    match repr {
        KeyRepr::Exact(w) => raw_get(cur, heap, *w).map(|b| V::from_value_bytes(&b)),
        KeyRepr::Hashed { hash, bytes } => {
            let bucket = raw_get(cur, heap, *hash)?;
            let found = frames(&bucket)
                .find(|(k, _)| k == bytes)
                .map(|(_, v)| V::from_value_bytes(v));
            found
        }
    }
}

// ---------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------

/// A durable map with logically in-place updates (Basic interface).
///
/// `K` selects the key encoding (exact integers or hashed-and-verified
/// byte keys) and `V` the value encoding; see [`crate::codec`].
pub struct DurableMap<K: PmKey, V: PmValue> {
    root: Root<PmMap>,
    policy: PersistPolicy,
    _kv: PhantomData<fn() -> (K, V)>,
}

impl<K: PmKey, V: PmValue> Clone for DurableMap<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K: PmKey, V: PmValue> Copy for DurableMap<K, V> {}

impl<K: PmKey, V: PmValue> std::fmt::Debug for DurableMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DurableMap({:?})", self.root)
    }
}

impl<K: PmKey, V: PmValue> DurableMap<K, V> {
    /// The directory codec tag word for this map's `K`/`V` parameters.
    const CODEC_WORD: u64 = codec_word_kv(K::CODEC, V::CODEC);

    /// Creates an empty map and publishes it as a new typed root, with
    /// the `K`/`V` codec discipline recorded in the directory entry.
    pub fn create(heap: &mut ModHeap) -> Self {
        Self::create_with(heap, PersistPolicy::Full)
    }

    /// Wraps an already-opened typed root (full persistence).
    pub fn from_root(root: Root<PmMap>) -> Self {
        DurableMap {
            root,
            policy: PersistPolicy::Full,
            _kv: PhantomData,
        }
    }

    /// The typed root this map is published under.
    pub fn root(&self) -> Root<PmMap> {
        self.root
    }

    /// The persistence policy this handle operates under.
    pub fn policy(&self) -> PersistPolicy {
        self.policy
    }

    /// The current substrate version under either policy: the published
    /// trie root (full) or the committed volatile head (hybrid).
    fn cur(&self, heap: &ModHeap) -> PmMap {
        match self.policy {
            PersistPolicy::Full => heap.current(self.root),
            PersistPolicy::Hybrid => {
                let (kind, addr) = heap
                    .hybrid_head(self.root.index())
                    .expect("hybrid map has no volatile head (pool not opened hybrid-aware?)");
                debug_assert_eq!(kind, RootKind::Map);
                PmMap::from_root(PmPtr::from_addr(addr))
            }
        }
    }

    /// The substrate version as an in-progress FASE sees it.
    fn cur_in(&self, tx: &Fase<'_>) -> PmMap {
        match self.policy {
            PersistPolicy::Full => tx.current(self.root),
            PersistPolicy::Hybrid => {
                PmMap::from_root(PmPtr::from_addr(tx.hybrid_vhead(self.root.index())))
            }
        }
    }

    /// Failure-atomically inserts or updates `key` (one FASE).
    pub fn insert(&self, heap: &mut ModHeap, key: &K, value: &V) {
        heap.fase(|tx| self.insert_in(tx, key, value));
    }

    /// Stages an insert on an in-progress FASE.
    pub fn insert_in(&self, tx: &mut Fase<'_>, key: &K, value: &V) {
        let value = value.value_bytes();
        if self.policy == PersistPolicy::Hybrid {
            let index = self.root.index();
            let vcur = PmMap::from_root(PmPtr::from_addr(tx.hybrid_current(index)));
            let (key, val) = match key.repr() {
                KeyRepr::Exact(w) => (w, value),
                KeyRepr::Hashed { hash, bytes } => {
                    let mut bucket = Vec::with_capacity(8 + bytes.len() + value.len());
                    push_frame(&mut bucket, &bytes, &value);
                    if let Some(old) = vcur.peek_get(tx.nv(), hash) {
                        for (k, v) in frames(&old) {
                            if k != bytes {
                                push_frame(&mut bucket, k, v);
                            }
                        }
                    }
                    (hash, bucket)
                }
            };
            tx.apply_hybrid(index, RootKind::Map, SpineOp::MapInsert { key, val });
            return;
        }
        match key.repr() {
            KeyRepr::Exact(w) => tx.update(self.root, |nv, m| m.insert(nv, w, &value)),
            KeyRepr::Hashed { hash, bytes } => tx.update(self.root, |nv, m| {
                let mut bucket = Vec::with_capacity(8 + bytes.len() + value.len());
                push_frame(&mut bucket, &bytes, &value);
                if let Some(old) = m.get(nv, hash) {
                    // Preserve colliding keys other than ours.
                    for (k, v) in frames(&old) {
                        if k != bytes {
                            push_frame(&mut bucket, k, v);
                        }
                    }
                }
                m.insert(nv, hash, &bucket)
            }),
        }
    }

    /// Failure-atomically removes `key` (one FASE); returns whether it
    /// was present. An absent key is a no-op FASE: no ordering point.
    pub fn remove(&self, heap: &mut ModHeap, key: &K) -> bool {
        heap.fase(|tx| self.remove_in(tx, key))
    }

    /// Stages a removal on an in-progress FASE.
    pub fn remove_in(&self, tx: &mut Fase<'_>, key: &K) -> bool {
        if self.policy == PersistPolicy::Hybrid {
            let index = self.root.index();
            let vcur = PmMap::from_root(PmPtr::from_addr(tx.hybrid_current(index)));
            let op = match key.repr() {
                KeyRepr::Exact(w) => {
                    if !vcur.peek_contains_key(tx.nv(), w) {
                        return false;
                    }
                    SpineOp::MapRemove { key: w }
                }
                KeyRepr::Hashed { hash, bytes } => {
                    let Some(old) = vcur.peek_get(tx.nv(), hash) else {
                        return false;
                    };
                    if !frames(&old).any(|(k, _)| k == bytes) {
                        return false;
                    }
                    let mut bucket = Vec::new();
                    for (k, v) in frames(&old) {
                        if k != bytes {
                            push_frame(&mut bucket, k, v);
                        }
                    }
                    if bucket.is_empty() {
                        SpineOp::MapRemove { key: hash }
                    } else {
                        SpineOp::MapInsert {
                            key: hash,
                            val: bucket,
                        }
                    }
                }
            };
            tx.apply_hybrid(index, RootKind::Map, op);
            return true;
        }
        match key.repr() {
            KeyRepr::Exact(w) => tx.update_with(self.root, |nv, m| m.remove(nv, w)),
            KeyRepr::Hashed { hash, bytes } => tx.update_with(self.root, |nv, m| {
                let Some(old) = m.get(nv, hash) else {
                    return (m, false);
                };
                if !frames(&old).any(|(k, _)| k == bytes) {
                    return (m, false);
                }
                let mut bucket = Vec::new();
                for (k, v) in frames(&old) {
                    if k != bytes {
                        push_frame(&mut bucket, k, v);
                    }
                }
                if bucket.is_empty() {
                    (m.remove(nv, hash).0, true)
                } else {
                    (m.insert(nv, hash, &bucket), true)
                }
            }),
        }
    }

    /// Looks up `key`. Read-only: no flushes, no fences, no `&mut`.
    pub fn get(&self, heap: &ModHeap, key: &K) -> Option<V> {
        lookup(self.cur(heap), &mut heap.nv().into(), &key.repr())
    }

    /// Looks up `key` as this FASE sees it (read-your-writes).
    pub fn get_in(&self, tx: &Fase<'_>, key: &K) -> Option<V> {
        lookup(self.cur_in(tx), &mut tx.nv().into(), &key.repr())
    }

    /// Acquires this map's staging lane without staging an update
    /// (worker FASEs only; a no-op in single-owner FASEs). Read-modify-
    /// write sequences need this *before* their [`DurableMap::get_in`]:
    /// plain reads are lock-free, so without the lane hold a concurrent
    /// same-root FASE could stage between the read and the dependent
    /// `insert_in`, losing its update. Stages nothing — a FASE that only
    /// touches commits nothing and costs no ordering point.
    pub fn touch_in(&self, tx: &mut Fase<'_>) {
        match self.policy {
            PersistPolicy::Full => tx.update(self.root, |_, m| m),
            PersistPolicy::Hybrid => {
                tx.hybrid_current(self.root.index());
            }
        }
    }

    /// Whether `key` is present. Read-only.
    pub fn contains_key(&self, heap: &ModHeap, key: &K) -> bool {
        match key.repr() {
            KeyRepr::Exact(w) => self.cur(heap).peek_contains_key(heap.nv(), w),
            KeyRepr::Hashed { .. } => self.get(heap, key).is_some(),
        }
    }

    /// Number of entries. Read-only. `O(1)` for exact keys; for hashed
    /// keys this scans the buckets (`O(n)`) because a rare 64-bit hash
    /// collision packs two entries into one substrate slot.
    pub fn len(&self, heap: &ModHeap) -> u64 {
        let cur = self.cur(heap);
        if !K::EXACT {
            cur.peek_to_vec(heap.nv())
                .iter()
                .map(|(_, bucket)| frames(bucket).count() as u64)
                .sum()
        } else {
            cur.peek_len(heap.nv())
        }
    }

    /// Whether the map is empty. Read-only, `O(1)`.
    pub fn is_empty(&self, heap: &ModHeap) -> bool {
        self.cur(heap).peek_is_empty(heap.nv())
    }

    /// Looks up `key` through the charged read path: unlike
    /// [`DurableMap::get`], the lookup runs through the simulated cache
    /// and latency model, as a workload's measured probe must.
    pub fn get_charged(&self, heap: &mut ModHeap, key: &K) -> Option<V> {
        let cur = self.cur(heap);
        lookup(cur, &mut heap.nv_mut().into(), &key.repr())
    }
}

impl<K: PmKey, V: PmValue> DurableRoot for DurableMap<K, V> {
    fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self {
        let root = match policy {
            PersistPolicy::Full => {
                let m0 = PmMap::empty(heap.nv_mut());
                heap.publish_tagged(m0, Self::CODEC_WORD)
            }
            PersistPolicy::Hybrid => {
                Root::new(create_hybrid(heap, RootKind::Map, Self::CODEC_WORD))
            }
        };
        DurableMap {
            root,
            policy,
            _kv: PhantomData,
        }
    }

    fn open_with(heap: &ModHeap, index: usize, policy: PersistPolicy) -> Result<Self, OpenError> {
        open_checked::<PmMap>(heap, index, Self::CODEC_WORD, policy).map(|root| DurableMap {
            root,
            policy,
            _kv: PhantomData,
        })
    }
}

// ---------------------------------------------------------------------
// Set
// ---------------------------------------------------------------------

/// A durable set with logically in-place updates (Basic interface).
///
/// Implemented as a [`DurableMap`] with unit values, which makes hashed
/// (byte) keys collision-correct; membership costs no value blobs.
pub struct DurableSet<K: PmKey> {
    map: DurableMap<K, ()>,
}

impl<K: PmKey> Clone for DurableSet<K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K: PmKey> Copy for DurableSet<K> {}

impl<K: PmKey> std::fmt::Debug for DurableSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DurableSet({:?})", self.map.root())
    }
}

impl<K: PmKey> DurableSet<K> {
    /// Creates an empty set and publishes it as a new typed root, with
    /// the `K` codec discipline recorded in the directory entry.
    pub fn create(heap: &mut ModHeap) -> Self {
        Self::create_with(heap, PersistPolicy::Full)
    }

    /// Wraps an already-opened typed root (full persistence).
    pub fn from_root(root: Root<PmMap>) -> Self {
        DurableSet {
            map: DurableMap::from_root(root),
        }
    }

    /// The typed root this set is published under.
    pub fn root(&self) -> Root<PmMap> {
        self.map.root()
    }

    /// The persistence policy this handle operates under.
    pub fn policy(&self) -> PersistPolicy {
        self.map.policy()
    }

    /// Failure-atomically inserts `key`; returns whether it was new. A
    /// duplicate insert is a no-op FASE: no shadow, no ordering point.
    pub fn insert(&self, heap: &mut ModHeap, key: &K) -> bool {
        heap.fase(|tx| self.insert_in(tx, key))
    }

    /// Stages an insert on an in-progress FASE; returns whether new.
    pub fn insert_in(&self, tx: &mut Fase<'_>, key: &K) -> bool {
        if self.map.get_in(tx, key).is_some() {
            return false;
        }
        self.map.insert_in(tx, key, &());
        true
    }

    /// Membership test. Read-only: no flushes, fences, or `&mut`.
    pub fn contains(&self, heap: &ModHeap, key: &K) -> bool {
        self.map.contains_key(heap, key)
    }

    /// Failure-atomically removes `key`; returns whether it was present.
    pub fn remove(&self, heap: &mut ModHeap, key: &K) -> bool {
        self.map.remove(heap, key)
    }

    /// Stages a removal on an in-progress FASE.
    pub fn remove_in(&self, tx: &mut Fase<'_>, key: &K) -> bool {
        self.map.remove_in(tx, key)
    }

    /// Number of elements. Read-only.
    pub fn len(&self, heap: &ModHeap) -> u64 {
        self.map.len(heap)
    }

    /// Whether the set is empty. Read-only.
    pub fn is_empty(&self, heap: &ModHeap) -> bool {
        self.map.is_empty(heap)
    }
}

impl<K: PmKey> DurableRoot for DurableSet<K> {
    fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self {
        DurableSet {
            map: DurableMap::create_with(heap, policy),
        }
    }

    fn open_with(heap: &ModHeap, index: usize, policy: PersistPolicy) -> Result<Self, OpenError> {
        DurableMap::open_with(heap, index, policy).map(|map| DurableSet { map })
    }
}

// ---------------------------------------------------------------------
// Vector
// ---------------------------------------------------------------------

/// A durable vector with logically in-place updates (Basic interface).
pub struct DurableVector<V: PmWord> {
    root: Root<PmVector>,
    policy: PersistPolicy,
    _v: PhantomData<fn() -> V>,
}

impl<V: PmWord> Clone for DurableVector<V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V: PmWord> Copy for DurableVector<V> {}

impl<V: PmWord> std::fmt::Debug for DurableVector<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DurableVector({:?})", self.root)
    }
}

impl<V: PmWord> DurableVector<V> {
    /// The directory codec tag word for this vector's `V` parameter.
    const CODEC_WORD: u64 = codec_word_elem(V::CODEC);

    /// Creates an empty vector and publishes it as a new typed root,
    /// with the `V` codec discipline recorded in the directory entry.
    pub fn create(heap: &mut ModHeap) -> Self {
        Self::create_with(heap, PersistPolicy::Full)
    }

    /// Creates a vector pre-filled from `elems`, published as a new root.
    pub fn create_from(heap: &mut ModHeap, elems: &[V]) -> Self {
        let words: Vec<u64> = elems.iter().map(PmWord::to_word).collect();
        let v0 = PmVector::from_slice(heap.nv_mut(), &words);
        let root = heap.publish_tagged(v0, Self::CODEC_WORD);
        Self::from_root(root)
    }

    /// Wraps an already-opened typed root (full persistence).
    pub fn from_root(root: Root<PmVector>) -> Self {
        DurableVector {
            root,
            policy: PersistPolicy::Full,
            _v: PhantomData,
        }
    }

    /// The typed root this vector is published under.
    pub fn root(&self) -> Root<PmVector> {
        self.root
    }

    /// The persistence policy this handle operates under.
    pub fn policy(&self) -> PersistPolicy {
        self.policy
    }

    fn cur(&self, heap: &ModHeap) -> PmVector {
        match self.policy {
            PersistPolicy::Full => heap.current(self.root),
            PersistPolicy::Hybrid => {
                let (kind, addr) = heap
                    .hybrid_head(self.root.index())
                    .expect("hybrid vector has no volatile head");
                debug_assert_eq!(kind, RootKind::Vector);
                PmVector::from_root(PmPtr::from_addr(addr))
            }
        }
    }

    fn cur_in(&self, tx: &Fase<'_>) -> PmVector {
        match self.policy {
            PersistPolicy::Full => tx.current(self.root),
            PersistPolicy::Hybrid => {
                PmVector::from_root(PmPtr::from_addr(tx.hybrid_vhead(self.root.index())))
            }
        }
    }

    /// Failure-atomically appends `elem` (one FASE).
    pub fn push_back(&self, heap: &mut ModHeap, elem: &V) {
        heap.fase(|tx| self.push_back_in(tx, elem));
    }

    /// Stages an append on an in-progress FASE.
    pub fn push_back_in(&self, tx: &mut Fase<'_>, elem: &V) {
        let w = elem.to_word();
        match self.policy {
            PersistPolicy::Full => tx.update(self.root, |nv, v| v.push_back(nv, w)),
            PersistPolicy::Hybrid => {
                tx.apply_hybrid(self.root.index(), RootKind::Vector, SpineOp::VecPush(w))
            }
        }
    }

    /// Failure-atomically writes `elem` at `index` (one FASE).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn update(&self, heap: &mut ModHeap, index: u64, elem: &V) {
        heap.fase(|tx| self.update_in(tx, index, elem));
    }

    /// Stages a point write on an in-progress FASE.
    pub fn update_in(&self, tx: &mut Fase<'_>, index: u64, elem: &V) {
        let w = elem.to_word();
        match self.policy {
            PersistPolicy::Full => tx.update(self.root, |nv, v| v.update(nv, index, w)),
            PersistPolicy::Hybrid => tx.apply_hybrid(
                self.root.index(),
                RootKind::Vector,
                SpineOp::VecSet { index, elem: w },
            ),
        }
    }

    /// Failure-atomically removes and returns the last element.
    pub fn pop_back(&self, heap: &mut ModHeap) -> Option<V> {
        heap.fase(|tx| match self.policy {
            PersistPolicy::Full => tx.update_with(self.root, |nv, v| match v.pop_back(nv) {
                Some((nv2, e)) => (nv2, Some(V::from_word(e))),
                None => (v, None),
            }),
            PersistPolicy::Hybrid => {
                tx.hybrid_current(self.root.index());
                let cur = self.cur_in(tx);
                let len = cur.peek_len(tx.nv());
                if len == 0 {
                    return None;
                }
                let e = cur.peek_get(tx.nv(), len - 1);
                tx.apply_hybrid(self.root.index(), RootKind::Vector, SpineOp::VecPop);
                Some(V::from_word(e))
            }
        })
    }

    /// Failure-atomically swaps elements `i` and `j` — the vec-swap FASE
    /// of Fig 7b: two chained pure updates, one ordering point.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap(&self, heap: &mut ModHeap, i: u64, j: u64) {
        if i == j {
            return;
        }
        heap.fase(|tx| match self.policy {
            PersistPolicy::Full => {
                let cur = tx.current(self.root);
                let vi = cur.peek_get(tx.nv(), i);
                let vj = cur.peek_get(tx.nv(), j);
                tx.update(self.root, |nv, v| v.update(nv, i, vj));
                tx.update(self.root, |nv, v| v.update(nv, j, vi));
            }
            PersistPolicy::Hybrid => {
                tx.hybrid_current(self.root.index());
                let cur = self.cur_in(tx);
                let vi = cur.peek_get(tx.nv(), i);
                let vj = cur.peek_get(tx.nv(), j);
                let idx = self.root.index();
                tx.apply_hybrid(
                    idx,
                    RootKind::Vector,
                    SpineOp::VecSet { index: i, elem: vj },
                );
                tx.apply_hybrid(
                    idx,
                    RootKind::Vector,
                    SpineOp::VecSet { index: j, elem: vi },
                );
            }
        });
    }

    /// Element at `index`. Read-only: no flushes, fences, or `&mut`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, heap: &ModHeap, index: u64) -> V {
        V::from_word(self.cur(heap).peek_get(heap.nv(), index))
    }

    /// Element at `index` as this FASE sees it (read-your-writes).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get_in(&self, tx: &Fase<'_>, index: u64) -> V {
        V::from_word(self.cur_in(tx).peek_get(tx.nv(), index))
    }

    /// Acquires this vector's staging lane without staging an update —
    /// see [`DurableMap::touch_in`] for when read-modify-write sequences
    /// need it.
    pub fn touch_in(&self, tx: &mut Fase<'_>) {
        match self.policy {
            PersistPolicy::Full => tx.update(self.root, |_, v| v),
            PersistPolicy::Hybrid => {
                tx.hybrid_current(self.root.index());
            }
        }
    }

    /// Number of elements. Read-only.
    pub fn len(&self, heap: &ModHeap) -> u64 {
        self.cur(heap).peek_len(heap.nv())
    }

    /// Whether the vector is empty. Read-only.
    pub fn is_empty(&self, heap: &ModHeap) -> bool {
        self.len(heap) == 0
    }

    /// Collects all elements in order. Read-only.
    pub fn to_vec(&self, heap: &ModHeap) -> Vec<V> {
        self.cur(heap)
            .peek_to_vec(heap.nv())
            .into_iter()
            .map(V::from_word)
            .collect()
    }
}

impl<V: PmWord> DurableRoot for DurableVector<V> {
    fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self {
        let root = match policy {
            PersistPolicy::Full => {
                let v0 = PmVector::empty(heap.nv_mut());
                heap.publish_tagged(v0, Self::CODEC_WORD)
            }
            PersistPolicy::Hybrid => {
                Root::new(create_hybrid(heap, RootKind::Vector, Self::CODEC_WORD))
            }
        };
        DurableVector {
            root,
            policy,
            _v: PhantomData,
        }
    }

    fn open_with(heap: &ModHeap, index: usize, policy: PersistPolicy) -> Result<Self, OpenError> {
        open_checked::<PmVector>(heap, index, Self::CODEC_WORD, policy).map(|root| DurableVector {
            root,
            policy,
            _v: PhantomData,
        })
    }
}

// ---------------------------------------------------------------------
// Stack
// ---------------------------------------------------------------------

/// A durable stack with logically in-place updates (Basic interface).
pub struct DurableStack<V: PmWord> {
    root: Root<PmStack>,
    policy: PersistPolicy,
    _v: PhantomData<fn() -> V>,
}

impl<V: PmWord> Clone for DurableStack<V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V: PmWord> Copy for DurableStack<V> {}

impl<V: PmWord> std::fmt::Debug for DurableStack<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DurableStack({:?})", self.root)
    }
}

impl<V: PmWord> DurableStack<V> {
    /// The directory codec tag word for this stack's `V` parameter.
    const CODEC_WORD: u64 = codec_word_elem(V::CODEC);

    /// Creates an empty stack and publishes it as a new typed root, with
    /// the `V` codec discipline recorded in the directory entry.
    pub fn create(heap: &mut ModHeap) -> Self {
        Self::create_with(heap, PersistPolicy::Full)
    }

    /// Wraps an already-opened typed root (full persistence).
    pub fn from_root(root: Root<PmStack>) -> Self {
        DurableStack {
            root,
            policy: PersistPolicy::Full,
            _v: PhantomData,
        }
    }

    /// The typed root this stack is published under.
    pub fn root(&self) -> Root<PmStack> {
        self.root
    }

    /// The persistence policy this handle operates under.
    pub fn policy(&self) -> PersistPolicy {
        self.policy
    }

    fn cur(&self, heap: &ModHeap) -> PmStack {
        match self.policy {
            PersistPolicy::Full => heap.current(self.root),
            PersistPolicy::Hybrid => {
                let (kind, addr) = heap
                    .hybrid_head(self.root.index())
                    .expect("hybrid stack has no volatile head");
                debug_assert_eq!(kind, RootKind::Stack);
                PmStack::from_root(PmPtr::from_addr(addr))
            }
        }
    }

    fn cur_in(&self, tx: &Fase<'_>) -> PmStack {
        match self.policy {
            PersistPolicy::Full => tx.current(self.root),
            PersistPolicy::Hybrid => {
                PmStack::from_root(PmPtr::from_addr(tx.hybrid_vhead(self.root.index())))
            }
        }
    }

    /// Failure-atomically pushes `elem` (one FASE).
    pub fn push(&self, heap: &mut ModHeap, elem: &V) {
        heap.fase(|tx| self.push_in(tx, elem));
    }

    /// Stages a push on an in-progress FASE.
    pub fn push_in(&self, tx: &mut Fase<'_>, elem: &V) {
        let w = elem.to_word();
        match self.policy {
            PersistPolicy::Full => tx.update(self.root, |nv, s| s.push(nv, w)),
            PersistPolicy::Hybrid => {
                tx.apply_hybrid(self.root.index(), RootKind::Stack, SpineOp::StackPush(w))
            }
        }
    }

    /// Failure-atomically pops the top element (no-op FASE when empty).
    pub fn pop(&self, heap: &mut ModHeap) -> Option<V> {
        heap.fase(|tx| self.pop_in(tx))
    }

    /// Stages a pop on an in-progress FASE.
    pub fn pop_in(&self, tx: &mut Fase<'_>) -> Option<V> {
        match self.policy {
            PersistPolicy::Full => tx.update_with(self.root, |nv, s| match s.pop(nv) {
                Some((ns, e)) => (ns, Some(V::from_word(e))),
                None => (s, None),
            }),
            PersistPolicy::Hybrid => {
                tx.hybrid_current(self.root.index());
                let top = self.cur_in(tx).peek_top(tx.nv())?;
                tx.apply_hybrid(self.root.index(), RootKind::Stack, SpineOp::StackPop);
                Some(V::from_word(top))
            }
        }
    }

    /// Top element. Read-only: no flushes, fences, or `&mut`.
    pub fn peek(&self, heap: &ModHeap) -> Option<V> {
        self.cur(heap).peek_top(heap.nv()).map(V::from_word)
    }

    /// Number of elements. Read-only.
    pub fn len(&self, heap: &ModHeap) -> u64 {
        self.cur(heap).peek_len(heap.nv())
    }

    /// Whether the stack is empty. Read-only.
    pub fn is_empty(&self, heap: &ModHeap) -> bool {
        self.len(heap) == 0
    }
}

impl<V: PmWord> DurableRoot for DurableStack<V> {
    fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self {
        let root = match policy {
            PersistPolicy::Full => {
                let s0 = PmStack::empty(heap.nv_mut());
                heap.publish_tagged(s0, Self::CODEC_WORD)
            }
            PersistPolicy::Hybrid => {
                Root::new(create_hybrid(heap, RootKind::Stack, Self::CODEC_WORD))
            }
        };
        DurableStack {
            root,
            policy,
            _v: PhantomData,
        }
    }

    fn open_with(heap: &ModHeap, index: usize, policy: PersistPolicy) -> Result<Self, OpenError> {
        open_checked::<PmStack>(heap, index, Self::CODEC_WORD, policy).map(|root| DurableStack {
            root,
            policy,
            _v: PhantomData,
        })
    }
}

// ---------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------

/// A durable FIFO queue with logically in-place updates (Basic
/// interface).
pub struct DurableQueue<V: PmWord> {
    root: Root<PmQueue>,
    policy: PersistPolicy,
    _v: PhantomData<fn() -> V>,
}

impl<V: PmWord> Clone for DurableQueue<V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V: PmWord> Copy for DurableQueue<V> {}

impl<V: PmWord> std::fmt::Debug for DurableQueue<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DurableQueue({:?})", self.root)
    }
}

impl<V: PmWord> DurableQueue<V> {
    /// The directory codec tag word for this queue's `V` parameter.
    const CODEC_WORD: u64 = codec_word_elem(V::CODEC);

    /// Creates an empty queue and publishes it as a new typed root, with
    /// the `V` codec discipline recorded in the directory entry.
    pub fn create(heap: &mut ModHeap) -> Self {
        Self::create_with(heap, PersistPolicy::Full)
    }

    /// Wraps an already-opened typed root (full persistence).
    pub fn from_root(root: Root<PmQueue>) -> Self {
        DurableQueue {
            root,
            policy: PersistPolicy::Full,
            _v: PhantomData,
        }
    }

    /// The typed root this queue is published under.
    pub fn root(&self) -> Root<PmQueue> {
        self.root
    }

    /// The persistence policy this handle operates under.
    pub fn policy(&self) -> PersistPolicy {
        self.policy
    }

    fn cur(&self, heap: &ModHeap) -> PmQueue {
        match self.policy {
            PersistPolicy::Full => heap.current(self.root),
            PersistPolicy::Hybrid => {
                let (kind, addr) = heap
                    .hybrid_head(self.root.index())
                    .expect("hybrid queue has no volatile head");
                debug_assert_eq!(kind, RootKind::Queue);
                PmQueue::from_root(PmPtr::from_addr(addr))
            }
        }
    }

    fn cur_in(&self, tx: &Fase<'_>) -> PmQueue {
        match self.policy {
            PersistPolicy::Full => tx.current(self.root),
            PersistPolicy::Hybrid => {
                PmQueue::from_root(PmPtr::from_addr(tx.hybrid_vhead(self.root.index())))
            }
        }
    }

    /// Failure-atomically enqueues `elem` (one FASE).
    pub fn enqueue(&self, heap: &mut ModHeap, elem: &V) {
        heap.fase(|tx| self.enqueue_in(tx, elem));
    }

    /// Stages an enqueue on an in-progress FASE.
    pub fn enqueue_in(&self, tx: &mut Fase<'_>, elem: &V) {
        let w = elem.to_word();
        match self.policy {
            PersistPolicy::Full => tx.update(self.root, |nv, q| q.enqueue(nv, w)),
            PersistPolicy::Hybrid => {
                tx.apply_hybrid(self.root.index(), RootKind::Queue, SpineOp::QueueEnq(w))
            }
        }
    }

    /// Failure-atomically dequeues the head (no-op FASE when empty).
    pub fn dequeue(&self, heap: &mut ModHeap) -> Option<V> {
        heap.fase(|tx| self.dequeue_in(tx))
    }

    /// Stages a dequeue on an in-progress FASE.
    pub fn dequeue_in(&self, tx: &mut Fase<'_>) -> Option<V> {
        match self.policy {
            PersistPolicy::Full => tx.update_with(self.root, |nv, q| match q.dequeue(nv) {
                Some((nq, e)) => (nq, Some(V::from_word(e))),
                None => (q, None),
            }),
            PersistPolicy::Hybrid => {
                tx.hybrid_current(self.root.index());
                let front = self.cur_in(tx).peek_front(tx.nv())?;
                tx.apply_hybrid(self.root.index(), RootKind::Queue, SpineOp::QueueDeq);
                Some(V::from_word(front))
            }
        }
    }

    /// Acquires this queue's staging lane without staging an update
    /// (see [`DurableMap::touch_in`]); a read that must stay consistent
    /// with reads of *other* roots in the same FASE needs it first.
    pub fn touch_in(&self, tx: &mut Fase<'_>) {
        match self.policy {
            PersistPolicy::Full => tx.update(self.root, |_, q| q),
            PersistPolicy::Hybrid => {
                tx.hybrid_current(self.root.index());
            }
        }
    }

    /// Head element as this FASE sees it (read-your-writes).
    pub fn front_in(&self, tx: &Fase<'_>) -> Option<V> {
        self.cur_in(tx).peek_front(tx.nv()).map(V::from_word)
    }

    /// Head element. Read-only: no flushes, fences, or `&mut`.
    pub fn peek(&self, heap: &ModHeap) -> Option<V> {
        self.cur(heap).peek_front(heap.nv()).map(V::from_word)
    }

    /// Number of elements. Read-only.
    pub fn len(&self, heap: &ModHeap) -> u64 {
        self.cur(heap).peek_len(heap.nv())
    }

    /// Whether the queue is empty. Read-only.
    pub fn is_empty(&self, heap: &ModHeap) -> bool {
        self.len(heap) == 0
    }
}

impl<V: PmWord> DurableRoot for DurableQueue<V> {
    fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self {
        let root = match policy {
            PersistPolicy::Full => {
                let q0 = PmQueue::empty(heap.nv_mut());
                heap.publish_tagged(q0, Self::CODEC_WORD)
            }
            PersistPolicy::Hybrid => {
                Root::new(create_hybrid(heap, RootKind::Queue, Self::CODEC_WORD))
            }
        };
        DurableQueue {
            root,
            policy,
            _v: PhantomData,
        }
    }

    fn open_with(heap: &ModHeap, index: usize, policy: PersistPolicy) -> Result<Self, OpenError> {
        open_checked::<PmQueue>(heap, index, Self::CODEC_WORD, policy).map(|root| DurableQueue {
            root,
            policy,
            _v: PhantomData,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

    fn mh() -> ModHeap {
        ModHeap::create(Pmem::new(PmemConfig::testing()))
    }

    /// A key type whose every value hashes to the same bucket, forcing
    /// the collision branches of the bucket framing.
    struct Colliding(&'static str);

    impl PmKey for Colliding {
        const EXACT: bool = false;

        fn repr(&self) -> KeyRepr {
            KeyRepr::Hashed {
                hash: 42,
                bytes: self.0.as_bytes().to_vec(),
            }
        }
    }

    #[test]
    fn colliding_hashed_keys_stay_distinct() {
        let mut h = mh();
        let map: DurableMap<Colliding, String> = DurableMap::create(&mut h);
        map.insert(&mut h, &Colliding("alpha"), &"a1".to_string());
        map.insert(&mut h, &Colliding("beta"), &"b1".to_string());
        map.insert(&mut h, &Colliding("gamma"), &"c1".to_string());
        assert_eq!(map.len(&h), 3, "three frames share one bucket");
        assert_eq!(map.get(&h, &Colliding("alpha")).as_deref(), Some("a1"));
        assert_eq!(map.get(&h, &Colliding("beta")).as_deref(), Some("b1"));
        assert_eq!(map.get(&h, &Colliding("gamma")).as_deref(), Some("c1"));
        assert_eq!(map.get(&h, &Colliding("delta")), None);

        // Overwriting one colliding key must preserve its siblings.
        map.insert(&mut h, &Colliding("beta"), &"b2".to_string());
        assert_eq!(map.len(&h), 3);
        assert_eq!(map.get(&h, &Colliding("alpha")).as_deref(), Some("a1"));
        assert_eq!(map.get(&h, &Colliding("beta")).as_deref(), Some("b2"));
        assert_eq!(map.get(&h, &Colliding("gamma")).as_deref(), Some("c1"));

        // Removing one colliding key re-packs the bucket without the rest.
        assert!(map.remove(&mut h, &Colliding("alpha")));
        assert!(!map.remove(&mut h, &Colliding("alpha")));
        assert_eq!(map.len(&h), 2);
        assert_eq!(map.get(&h, &Colliding("alpha")), None);
        assert_eq!(map.get(&h, &Colliding("beta")).as_deref(), Some("b2"));

        // Draining the bucket removes the substrate entry entirely.
        assert!(map.remove(&mut h, &Colliding("beta")));
        assert!(map.remove(&mut h, &Colliding("gamma")));
        assert_eq!(map.len(&h), 0);
        assert!(map.is_empty(&h));

        // The bucket slot is reusable afterwards.
        map.insert(&mut h, &Colliding("omega"), &"o1".to_string());
        assert_eq!(map.get(&h, &Colliding("omega")).as_deref(), Some("o1"));
    }

    #[test]
    fn colliding_set_members_stay_distinct() {
        let mut h = mh();
        let set: DurableSet<Colliding> = DurableSet::create(&mut h);
        assert!(set.insert(&mut h, &Colliding("x")));
        assert!(set.insert(&mut h, &Colliding("y")));
        assert!(!set.insert(&mut h, &Colliding("x")), "duplicate");
        assert_eq!(set.len(&h), 2);
        assert!(set.contains(&h, &Colliding("x")));
        assert!(set.contains(&h, &Colliding("y")));
        assert!(!set.contains(&h, &Colliding("z")));
        assert!(set.remove(&mut h, &Colliding("x")));
        assert!(!set.contains(&h, &Colliding("x")));
        assert!(set.contains(&h, &Colliding("y")), "sibling survives");
    }

    #[test]
    fn open_rejects_codec_mismatch_with_typed_error() {
        let mut h = mh();
        let map: DurableMap<u64, Vec<u8>> = DurableMap::create(&mut h);
        map.insert(&mut h, &7, &vec![1, 2, 3]);
        h.quiesce();
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        // Correct types reopen fine.
        assert!(h2.root::<DurableMap<u64, Vec<u8>>>(0).open().is_ok());
        // Wrong key AND value codecs: typed error, not garbage.
        let err = h2.root::<DurableMap<String, u64>>(0).open().unwrap_err();
        assert!(matches!(err, OpenError::CodecMismatch { index: 0, .. }));
        assert!(err.to_string().contains("codec"));
        // Wrong value codec alone is also caught.
        assert!(matches!(
            h2.root::<DurableMap<u64, String>>(0).open(),
            Err(OpenError::CodecMismatch { .. })
        ));
        // Wrong kind reports KindMismatch before codec.
        assert!(matches!(
            h2.root::<DurableQueue<u64>>(0).open(),
            Err(OpenError::KindMismatch { .. })
        ));
        // Unpublished index reports NoSuchRoot.
        assert!(matches!(
            h2.root::<DurableMap<u64, Vec<u8>>>(9).open(),
            Err(OpenError::NoSuchRoot { index: 9, roots: 1 })
        ));
    }

    #[test]
    fn untagged_custom_codecs_stay_compatible() {
        // `Colliding` keeps the default CODEC = 0: nothing is recorded
        // for the key field, so reopening with any key type whose codec
        // could plausibly match is accepted (the historical behavior).
        let mut h = mh();
        let map: DurableMap<Colliding, String> = DurableMap::create(&mut h);
        map.insert(&mut h, &Colliding("a"), &"v".to_string());
        assert!(h.root::<DurableMap<Colliding, String>>(0).open().is_ok());
        assert!(h.root::<DurableMap<String, String>>(0).open().is_ok());
        // But a recorded *value* codec still protects against mismatch.
        assert!(matches!(
            h.root::<DurableMap<Colliding, u64>>(0).open(),
            Err(OpenError::CodecMismatch { .. })
        ));
    }

    #[test]
    fn elem_codec_mismatch_rejected_across_restart() {
        let mut h = mh();
        let q: DurableQueue<u64> = DurableQueue::create(&mut h);
        q.enqueue(&mut h, &5);
        h.quiesce();
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        assert!(h2.root::<DurableQueue<u64>>(0).open().is_ok());
        assert!(matches!(
            h2.root::<DurableQueue<i32>>(0).open(),
            Err(OpenError::CodecMismatch { .. })
        ));
    }

    #[test]
    fn typed_wrappers_roundtrip_and_survive_restart() {
        let mut h = mh();
        let map: DurableMap<String, u32> = DurableMap::create(&mut h);
        let vec: DurableVector<i64> = DurableVector::create_from(&mut h, &[-3, 0, 7]);
        let stack: DurableStack<u64> = DurableStack::create(&mut h);
        let queue: DurableQueue<u32> = DurableQueue::create(&mut h);
        map.insert(&mut h, &"k".to_string(), &9);
        stack.push(&mut h, &5);
        queue.enqueue(&mut h, &6);
        vec.update(&mut h, 1, &100);
        h.quiesce();
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        let map: DurableMap<String, u32> = h2.root(0).open().unwrap();
        let vec: DurableVector<i64> = h2.root(1).open().unwrap();
        let stack: DurableStack<u64> = h2.root(2).open().unwrap();
        let queue: DurableQueue<u32> = h2.root(3).open().unwrap();
        assert_eq!(map.get(&h2, &"k".to_string()), Some(9));
        assert_eq!(vec.to_vec(&h2), vec![-3, 100, 7]);
        assert_eq!(stack.peek(&h2), Some(5));
        assert_eq!(queue.peek(&h2), Some(6));
    }
}
