//! The persistent heap: allocation, deallocation, root slots and the
//! volatile reference-count table.

use crate::annex::RootAnnex;
use crate::layout::{
    class_index, class_size, is_volatile_shape, root_slot_offset, volatile_class_size, BLOCK_MAGIC,
    HEADER_BYTES, HEAP_BASE, MIN_BLOCK, POOL_MAGIC, SIZE_CLASSES,
};
use crate::recovery::MarkState;
use crate::worker::{AllocDelta, SplitState, StagedAllocEffects, WorkerMode};
use mod_pmem::{PmPtr, Pmem};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Allocation statistics, the data source of Table 3.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated (payload class sizes, excl. headers).
    pub live_bytes: u64,
    /// Number of live blocks.
    pub live_blocks: u64,
    /// High-water mark of `live_bytes`.
    pub hwm_live_bytes: u64,
    /// Total payload bytes ever allocated (allocation traffic).
    pub cumulative_alloc_bytes: u64,
    /// Number of allocations performed.
    pub allocs: u64,
    /// Number of frees performed.
    pub frees: u64,
}

/// A worker heap's private arena, carved from the pool by
/// [`NvHeap::split_workers`]: its own bump pointer and free lists, so
/// each worker thread allocates without contending on a shared bump
/// pointer or mixing free lists.
#[derive(Debug)]
struct Arena {
    free_by_class: Vec<Vec<u64>>,
    /// Arena bounds: `[start, end)` within the pool.
    start: u64,
    end: u64,
    bump: u64,
}

impl Arena {
    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }
}

/// A persistent heap over a simulated PM pool: an `nvm_malloc` equivalent
/// with segregated free lists, 64 persistent root slots, and a volatile
/// reference-count table (paper §5.3 — counts are *not* stored durably;
/// they are rebuilt from reachability during recovery).
///
/// All heap metadata needed after a crash lives in PM (block headers);
/// everything else (free lists, refcounts, the bump pointer) is volatile
/// and reconstructed by recovery.
///
/// [`NvHeap::split_workers`] checks arenas out as independent worker
/// heaps for lock-free multi-threaded staging (see `mod-core`'s
/// `SharedModHeap` and [`crate::worker`]).
#[derive(Debug)]
pub struct NvHeap {
    pm: Pmem,
    free_by_class: Vec<Vec<u64>>,
    /// Coalesced free space discovered by recovery: start → length.
    regions: BTreeMap<u64, u64>,
    bump: u64,
    rc: HashMap<u64, u32>,
    stats: AllocStats,
    /// The private arena of a worker heap (`None` on every other heap).
    arena: Option<Arena>,
    /// Worker-mode state (this heap is a checked-out shard; see
    /// [`NvHeap::split_workers`]).
    worker: Option<WorkerMode>,
    /// Commit-side view of a worker split (this heap issued
    /// [`NvHeap::split_workers`]).
    split: Option<SplitState>,
    /// Depth of nested [`NvHeap::begin_volatile`] scopes: while > 0,
    /// allocations land in the volatile node cache.
    volatile_depth: u32,
    /// Free lists for volatile-shaped blocks (64-aligned, whole-line
    /// footprint; see [`crate::layout::is_volatile_shape`]), keyed by
    /// exact class size.
    volatile_free: HashMap<u64, Vec<u64>>,
    /// Volatile heads of hybrid roots, shared by every heap handle over
    /// this pool (see [`RootAnnex`]).
    annex: Arc<RootAnnex>,
    pub(crate) mark: Option<MarkState>,
}

impl NvHeap {
    /// The one constructor behind every open-from-image path: fresh
    /// volatile state (free lists, refcounts, bump pointer) over an
    /// existing pool image, in recovery mode or ready to allocate.
    /// [`NvHeap::format`], [`NvHeap::open`] and the worker heaps of
    /// [`NvHeap::split_workers`] all funnel through here, so a pool
    /// image rebuilt from disk ([`mod_pmem::Pmem::open_file`]) gets the
    /// exact same heap object as one opened from a crash image. That
    /// holds for pool *sets* too: a sharded journal is replayed by
    /// parallel scan threads and merged by global batch sequence before
    /// this constructor ever sees the image, so the heap (and the typed
    /// recovery that follows) is bit-identical to a single-journal open.
    fn from_pool(pm: Pmem, recovering: bool) -> NvHeap {
        NvHeap {
            pm,
            free_by_class: vec![Vec::new(); SIZE_CLASSES.len()],
            regions: BTreeMap::new(),
            bump: HEAP_BASE,
            rc: HashMap::new(),
            stats: AllocStats::default(),
            arena: None,
            worker: None,
            split: None,
            volatile_depth: 0,
            volatile_free: HashMap::new(),
            annex: Arc::new(RootAnnex::new()),
            mark: recovering.then(MarkState::default),
        }
    }

    /// A read-only view over the same storage: a fresh heap object whose
    /// `Pmem` handle shares this heap's pool (word-atomic shared arena)
    /// but owns private volatile sim state. The view carries no free
    /// lists, refcounts, or bump authority — it exists solely so
    /// `peek_*` traversals can run on other threads without touching
    /// this heap's allocator state. Callers must only invoke `&self`
    /// peek methods on it.
    pub fn read_view(&self) -> NvHeap {
        let mut view = NvHeap::from_pool(self.pm.fork_handle(), false);
        view.annex = Arc::clone(&self.annex);
        view
    }

    /// Formats a fresh pool: writes the pool header, zeroes the root
    /// slots, and makes both durable.
    pub fn format(mut pm: Pmem) -> NvHeap {
        pm.trace_alloc(0, HEAP_BASE); // metadata region is "allocated"
        pm.write_u64(0, POOL_MAGIC);
        pm.write_u64(8, pm.capacity());
        for i in 0..crate::layout::N_ROOTS {
            pm.write_u64(root_slot_offset(i), 0);
        }
        pm.flush_range(0, HEAP_BASE);
        pm.sfence();
        NvHeap::from_pool(pm, false)
    }

    /// Opens an existing pool after a (simulated) restart or crash. The
    /// heap starts in *recovery mode*: callers must mark every reachable
    /// block via [`NvHeap::mark_block`] and then call
    /// [`NvHeap::finish_recovery`] before allocating.
    ///
    /// # Panics
    ///
    /// Panics if the pool header magic is invalid (not a formatted pool).
    pub fn open(mut pm: Pmem) -> NvHeap {
        let magic = pm.read_u64(0);
        assert_eq!(magic, POOL_MAGIC, "not a formatted MOD pool");
        NvHeap::from_pool(pm, true)
    }

    /// Whether the heap is still in recovery mode.
    pub fn in_recovery(&self) -> bool {
        self.mark.is_some()
    }

    fn assert_ready(&self) {
        assert!(
            self.mark.is_none(),
            "heap is in recovery mode; finish_recovery() first"
        );
    }

    // ------------------------------------------------------------------
    // Worker split (lock-free staging)
    // ------------------------------------------------------------------

    /// Checks one allocation shard out to each of `n` worker threads and
    /// returns the worker heaps. Each worker heap owns
    ///
    /// * a 64-byte-aligned arena carved from the pool's largest free
    ///   span (private bump pointer + free lists: allocation never
    ///   contends), and
    /// * a [`Pmem`] shard handle sharing this pool's storage with a
    ///   private simulated timeline (clock, caches, line table, WPQ).
    ///
    /// This heap keeps the last slice of the span for commit-side
    /// allocation (root directories) and becomes the *commit-side* heap:
    /// its [`NvHeap::free`] routes blocks inside a worker arena to that
    /// shard's return bin, where the owner drains them on its next
    /// arena miss. Worker heaps defer all cross-shard effects to
    /// [`NvHeap::take_staged_effects`] /
    /// [`NvHeap::apply_staged_effects`] (see [`crate::worker`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, in recovery mode, if a previous split is
    /// outstanding, or if the largest free span is too small to give
    /// every worker a useful arena.
    pub fn split_workers(&mut self, n: usize) -> Vec<NvHeap> {
        self.assert_ready();
        assert!(n > 0, "need at least one worker");
        assert!(self.split.is_none(), "workers already split");
        assert!(self.worker.is_none(), "cannot split a worker heap");
        // The span is the unallocated tail *or* a coalesced free region
        // left by recovery, whichever is larger: after a crash/reopen the
        // bump pointer sits above the highest live block and most free
        // space lives in the region list, so carving only the tail would
        // shrink the arenas on every reopen cycle until the split failed.
        let tail = (self.bump, self.pm.capacity() - self.bump);
        let (base, len) = self
            .regions
            .iter()
            .map(|(&s, &l)| (s, l))
            .chain(std::iter::once(tail))
            .max_by_key(|&(_, l)| l)
            .unwrap();
        // Word-disjointness across concurrent writers requires 64-byte
        // aligned arena bounds (cacheline handoffs stay per-shard too).
        let abase = (base + 63) & !63;
        let alen = len - (abase - base);
        let per = (alen / (n as u64 + 1)) & !63;
        assert!(
            per >= 64 * MIN_BLOCK,
            "pool too fragmented to split: largest free span gives {per} bytes per worker"
        );
        if base == self.bump {
            // The span was the tail: workers own the first n slices, the
            // commit side keeps bumping in the remainder.
            self.bump = abase + n as u64 * per;
        } else {
            self.regions.remove(&base);
            self.regions.insert(
                abase + n as u64 * per,
                len - (abase - base) - n as u64 * per,
            );
        }
        let bins: Arc<Vec<Mutex<Vec<u64>>>> =
            Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
        let mut arenas = Vec::with_capacity(n);
        let workers = (0..n as u64)
            .map(|i| {
                let start = abase + i * per;
                let end = start + per;
                arenas.push(Some((start, end)));
                let mut w = NvHeap::from_pool(self.pm.fork_handle(), false);
                // The global-bump fallback must never fire on a worker:
                // point it at the capacity so exhaustion panics loudly
                // instead of clobbering the pool.
                w.bump = self.pm.capacity();
                w.annex = Arc::clone(&self.annex);
                w.arena = Some(Arena {
                    free_by_class: vec![Vec::new(); SIZE_CLASSES.len()],
                    start,
                    end,
                    bump: start,
                });
                w.worker = Some(WorkerMode {
                    home: i as usize,
                    bins: Arc::clone(&bins),
                    rc_deltas: HashMap::new(),
                    fase_allocs: Vec::new(),
                    foreign_frees: Vec::new(),
                    stats_mark: AllocStats::default(),
                });
                w
            })
            .collect();
        self.split = Some(SplitState { arenas, bins });
        workers
    }

    /// Whether this heap is a checked-out worker shard.
    pub fn is_worker(&self) -> bool {
        self.worker.is_some()
    }

    /// The worker's shard index.
    ///
    /// # Panics
    ///
    /// Panics unless this is a worker heap.
    pub fn worker_home(&self) -> usize {
        self.worker.as_ref().expect("not a worker heap").home
    }

    /// Number of worker arenas still checked out.
    pub fn split_workers_outstanding(&self) -> usize {
        self.split
            .as_ref()
            .map_or(0, |s| s.arenas.iter().flatten().count())
    }

    /// Drains a worker's accumulated cross-shard side effects — fresh
    /// blocks' authoritative refcounts, foreign-block increments,
    /// deferred foreign frees and the stats delta since the previous
    /// handoff — for transfer to the commit stage. The worker's FASE log
    /// resets.
    ///
    /// # Panics
    ///
    /// Panics unless this is a worker heap.
    pub fn take_staged_effects(&mut self) -> StagedAllocEffects {
        assert!(self.worker.is_some(), "take_staged_effects on non-worker");
        let rc_transfer: Vec<(u64, u32)> = self.rc.drain().collect();
        let stats_now = self.stats.clone();
        let w = self.worker.as_mut().unwrap();
        let fx = StagedAllocEffects {
            rc_transfer,
            rc_deltas: w.rc_deltas.drain().collect(),
            foreign_frees: std::mem::take(&mut w.foreign_frees),
            stats: AllocDelta::between(&w.stats_mark, &stats_now),
        };
        w.fase_allocs.clear();
        w.stats_mark = stats_now;
        fx
    }

    /// Rolls back the current FASE on a worker heap: frees every block
    /// it allocated and discards its deferred refcount/free effects.
    /// Used when staging aborts (root-lane conflict) before a retry.
    ///
    /// # Panics
    ///
    /// Panics unless this is a worker heap.
    pub fn abort_fase(&mut self) {
        assert!(self.worker.is_some(), "abort_fase on non-worker");
        let allocs = std::mem::take(&mut self.worker.as_mut().unwrap().fase_allocs);
        for addr in allocs {
            self.rc.remove(&addr);
            self.free_untracked(PmPtr::from_addr(addr));
        }
        let w = self.worker.as_mut().unwrap();
        w.rc_deltas.clear();
        w.foreign_frees.clear();
    }

    /// Applies a worker's [`StagedAllocEffects`] to this (commit-side)
    /// heap, in batch order: refcount authority transfers, foreign
    /// increments land, deferred frees execute.
    ///
    /// # Panics
    ///
    /// Panics on refcount underflow (a release was staged against state
    /// that never transferred).
    pub fn apply_staged_effects(&mut self, fx: StagedAllocEffects) {
        for (addr, count) in fx.rc_transfer {
            let prev = self.rc.insert(addr, count);
            debug_assert!(
                prev.is_none(),
                "rc authority for {addr:#x} transferred twice"
            );
        }
        for (addr, delta) in fx.rc_deltas {
            let e = self.rc.entry(addr).or_insert(0);
            let next = *e as i64 + delta;
            assert!(
                next >= 0,
                "refcount underflow at {addr:#x} applying staged delta"
            );
            *e = next as u32;
        }
        for addr in fx.foreign_frees {
            self.free(PmPtr::from_addr(addr));
        }
        fx.stats.apply_to(&mut self.stats);
    }

    /// Absorbs a finished worker heap back into this commit-side heap:
    /// outstanding side effects apply, the arena's remaining space and
    /// free lists (and its return bin) rejoin the global pools, and the
    /// worker's PM handle merges its leftover line states and trace.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a worker of this heap's split.
    pub fn absorb_worker(&mut self, mut w: NvHeap) {
        let home = w.worker_home();
        let fx = w.take_staged_effects();
        self.apply_staged_effects(fx);
        self.pm.absorb_lines(w.pm.take_lines());
        self.pm.append_trace(w.pm.take_trace());
        let arena = w.arena.take().expect("worker heap owns an arena");
        let split = self.split.as_mut().expect("absorb_worker without a split");
        assert!(
            split.arenas.get(home).is_some_and(|a| a.is_some()),
            "worker {home} already absorbed"
        );
        split.arenas[home] = None;
        let bin = std::mem::take(&mut *split.bins[home].lock().unwrap());
        for (idx, list) in arena.free_by_class.into_iter().enumerate() {
            self.free_by_class[idx].extend(list);
        }
        for (class, list) in w.volatile_free.drain() {
            self.volatile_free.entry(class).or_default().extend(list);
        }
        for hdr in bin {
            let class = self.pm.peek_u64(hdr);
            self.stash_free_block(hdr, class);
        }
        if arena.end - arena.bump >= MIN_BLOCK {
            self.regions.insert(arena.bump, arena.end - arena.bump);
        }
        if self.split_workers_outstanding() == 0 {
            self.split = None;
        }
    }

    /// Frees a block without stats/rc bookkeeping (rollback of a block
    /// this FASE allocated: the alloc-side counters are unwound too, so
    /// the aborted attempt leaves no trace in Table 3).
    fn free_untracked(&mut self, ptr: PmPtr) {
        let class = self.block_len(ptr);
        let hdr = ptr.addr() - HEADER_BYTES;
        let volatile = self.pm.is_volatile(hdr);
        if volatile {
            self.pm.clear_volatile(hdr, HEADER_BYTES + class);
        } else {
            self.pm.trace_free(hdr, HEADER_BYTES + class);
        }
        self.stats.allocs -= 1;
        self.stats.live_blocks -= 1;
        self.stats.live_bytes -= class;
        self.stats.cumulative_alloc_bytes -= class;
        if volatile {
            self.volatile_free.entry(class).or_default().push(hdr);
        } else if let Some(idx) = class_index(class) {
            let arena = self.arena.as_mut().expect("worker heap owns an arena");
            arena.free_by_class[idx].push(hdr);
        } else {
            self.regions.insert(hdr, HEADER_BYTES + class);
        }
    }

    // ------------------------------------------------------------------
    // Volatile node cache ("Don't Persist All" hybrid roots)
    // ------------------------------------------------------------------

    /// Enters a volatile allocation scope: until the matching
    /// [`NvHeap::end_volatile`], every [`NvHeap::alloc`] produces a
    /// *volatile node-cache block* — 64-byte aligned with a whole-line
    /// footprint, its lines marked volatile on the pool so stores,
    /// flushes and journaling are all elided (see
    /// [`mod_pmem::Pmem::mark_volatile`]). Scopes nest.
    pub fn begin_volatile(&mut self) {
        self.volatile_depth += 1;
    }

    /// Leaves a volatile allocation scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn end_volatile(&mut self) {
        assert!(
            self.volatile_depth > 0,
            "end_volatile without begin_volatile"
        );
        self.volatile_depth -= 1;
    }

    /// Whether a volatile allocation scope is open.
    pub fn in_volatile(&self) -> bool {
        self.volatile_depth > 0
    }

    /// The pool's shared volatile root annex (committed volatile heads
    /// of hybrid roots; one instance per pool, cloned into every worker
    /// heap and read view).
    pub fn annex(&self) -> &Arc<RootAnnex> {
        &self.annex
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `len` payload bytes, returning the payload pointer. The
    /// block header is written (but not flushed — a subsequent
    /// [`NvHeap::flush_block`] covers it). The new block starts with a
    /// volatile reference count of 1.
    ///
    /// # Panics
    ///
    /// Panics on pool exhaustion, zero-size requests, or in recovery mode.
    pub fn alloc(&mut self, len: u64) -> PmPtr {
        self.assert_ready();
        let volatile = self.volatile_depth > 0;
        let class = if volatile {
            volatile_class_size(len)
        } else {
            class_size(len)
        };
        let hdr = if volatile {
            self.take_block_volatile(class)
        } else {
            self.take_block(class)
        };
        let payload = hdr + HEADER_BYTES;
        if volatile {
            // Mark before the header store so nothing below charges the
            // model: a volatile node block is DRAM state, not simulated
            // PM traffic (and not §5.4 trace material either).
            self.pm.mark_volatile(hdr, HEADER_BYTES + class);
        } else {
            self.pm.trace_alloc(hdr, HEADER_BYTES + class);
            // 15 ns models nvm_malloc's bin bookkeeping.
            self.pm.charge_ns(15.0);
        }
        // Header: [class size][magic ^ class] — integrity-checkable at
        // recovery.
        self.pm.write_u64(hdr, class);
        self.pm.write_u64(hdr + 8, BLOCK_MAGIC ^ class);
        self.rc.insert(payload, 1);
        self.stats.allocs += 1;
        self.stats.live_blocks += 1;
        self.stats.live_bytes += class;
        self.stats.cumulative_alloc_bytes += class;
        self.stats.hwm_live_bytes = self.stats.hwm_live_bytes.max(self.stats.live_bytes);
        if let Some(w) = self.worker.as_mut() {
            w.fase_allocs.push(payload);
        }
        PmPtr::from_addr(payload)
    }

    fn take_block(&mut self, class: u64) -> u64 {
        let need = HEADER_BYTES + class;
        if let Some(arena) = self.arena.as_mut() {
            if let Some(idx) = class_index(class) {
                if let Some(hdr) = arena.free_by_class[idx].pop() {
                    return hdr;
                }
            }
            if arena.bump + need <= arena.end {
                let hdr = arena.bump;
                arena.bump += need;
                return hdr;
            }
            // Arena exhausted: fall through to the return bin, the
            // shared free lists and recovered regions before giving up.
        }
        if let Some((bins, home)) = self.worker.as_ref().map(|w| (Arc::clone(&w.bins), w.home)) {
            // Drain the return bin — blocks of ours the commit stage
            // freed — into the local free lists, then retry.
            let returned = std::mem::take(&mut *bins[home].lock().unwrap());
            if !returned.is_empty() {
                for hdr in returned {
                    let c = self.pm.peek_u64(hdr);
                    self.stash_free_block(hdr, c);
                }
                let arena = self.arena.as_mut().expect("worker heap owns an arena");
                let recycled = class_index(class).and_then(|idx| arena.free_by_class[idx].pop());
                if let Some(hdr) = recycled {
                    return hdr;
                }
            }
        }
        if let Some(idx) = class_index(class) {
            if let Some(hdr) = self.free_by_class[idx].pop() {
                return hdr;
            }
        }
        // A volatile-shaped block serves a persistent request of the same
        // class fine (its alignment is harmless; its marks were cleared
        // at free time).
        if let Some(hdr) = self.volatile_free.get_mut(&class).and_then(|l| l.pop()) {
            return hdr;
        }
        // First-fit from recovered regions.
        if let Some((&start, &rlen)) = self.regions.iter().find(|&(_, &rlen)| rlen >= need) {
            self.regions.remove(&start);
            let rest = rlen - need;
            if rest >= MIN_BLOCK {
                self.regions.insert(start + need, rest);
            }
            return start;
        }
        // Bump allocation.
        assert!(
            self.worker.is_none(),
            "worker shard arena exhausted ({} bytes requested): grow the pool \
             or reduce per-worker churn",
            need
        );
        let hdr = self.bump;
        assert!(
            hdr + need <= self.pm.capacity(),
            "persistent pool exhausted: bump {hdr:#x} + {need} > capacity {:#x}",
            self.pm.capacity()
        );
        self.bump += need;
        hdr
    }

    /// Takes a volatile-shaped block: 64-byte aligned header, whole-line
    /// footprint. Recycles from the volatile free lists first, then bump
    /// allocates with the alignment gap (if any) returned to the region
    /// list.
    fn take_block_volatile(&mut self, class: u64) -> u64 {
        let need = HEADER_BYTES + class;
        debug_assert_eq!(need % 64, 0);
        if let Some(hdr) = self.volatile_free.get_mut(&class).and_then(|l| l.pop()) {
            return hdr;
        }
        if let Some(arena) = self.arena.as_mut() {
            let aligned = (arena.bump + 63) & !63;
            if aligned + need <= arena.end {
                let (old_bump, gap) = (arena.bump, aligned - arena.bump);
                arena.bump = aligned + need;
                if gap >= MIN_BLOCK {
                    self.regions.insert(old_bump, gap);
                }
                return aligned;
            }
        }
        if let Some((bins, home)) = self.worker.as_ref().map(|w| (Arc::clone(&w.bins), w.home)) {
            // Drain the return bin (blocks of ours the commit stage
            // freed) and retry: recycled node blocks come back this way.
            let returned = std::mem::take(&mut *bins[home].lock().unwrap());
            if !returned.is_empty() {
                for hdr in returned {
                    let c = self.pm.peek_u64(hdr);
                    self.stash_free_block(hdr, c);
                }
                if let Some(hdr) = self.volatile_free.get_mut(&class).and_then(|l| l.pop()) {
                    return hdr;
                }
            }
        }
        assert!(
            self.worker.is_none(),
            "worker shard arena exhausted ({need} bytes requested, volatile): \
             grow the pool or reduce per-worker churn"
        );
        let aligned = (self.bump + 63) & !63;
        assert!(
            aligned + need <= self.pm.capacity(),
            "persistent pool exhausted: bump {aligned:#x} + {need} > capacity {:#x}",
            self.pm.capacity()
        );
        let gap = aligned - self.bump;
        if gap >= MIN_BLOCK {
            self.regions.insert(self.bump, gap);
        }
        self.bump = aligned + need;
        aligned
    }

    /// Routes a freed (or recycled-from-bin) block into the right free
    /// pool: volatile-shaped blocks into the volatile lists, exact
    /// classes into the segregated lists (a worker's own arena lists, the
    /// shared lists elsewhere), everything else into the region map.
    fn stash_free_block(&mut self, hdr: u64, class: u64) {
        if is_volatile_shape(hdr, class) {
            self.volatile_free.entry(class).or_default().push(hdr);
            return;
        }
        match (class_index(class), self.arena.as_mut()) {
            (Some(idx), Some(arena)) => arena.free_by_class[idx].push(hdr),
            (Some(idx), None) => self.free_by_class[idx].push(hdr),
            (None, _) => {
                self.regions.insert(hdr, HEADER_BYTES + class);
            }
        }
    }

    /// Frees the block at `ptr` (payload pointer), returning its payload
    /// to the free lists. Removes any refcount entry.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is null or its header fails the integrity check.
    pub fn free(&mut self, ptr: PmPtr) {
        self.assert_ready();
        assert!(!ptr.is_null(), "freeing null PmPtr");
        if self.worker.is_some() {
            let hdr = ptr.addr() - HEADER_BYTES;
            let own_arena = self.arena.as_ref().is_some_and(|a| a.contains(hdr));
            if let Some(w) = self.worker.as_mut() {
                if !own_arena {
                    // Foreign block: the authoritative free (rc removal,
                    // list routing, stats) runs commit-side, in batch
                    // order.
                    w.foreign_frees.push(ptr.addr());
                    return;
                }
                // Own arena: unwind the FASE rollback log.
                if let Some(i) = w.fase_allocs.iter().position(|&a| a == ptr.addr()) {
                    w.fase_allocs.swap_remove(i);
                }
            }
        }
        let class = self.block_len(ptr);
        let hdr = ptr.addr() - HEADER_BYTES;
        // A volatile node-cache block frees silently: clear its marks
        // (the space must not inherit volatility when recycled) and skip
        // the charge/trace a persistent free pays.
        let volatile = self.pm.is_volatile(hdr);
        if let Some(s) = self.split.as_ref().and_then(|sp| sp.arena_of(hdr)) {
            // Commit-side free of a block inside a checked-out worker
            // arena: bookkeeping here, the space returns via the owner's
            // bin (the owner re-routes it by shape when draining).
            if volatile {
                self.pm.clear_volatile(hdr, HEADER_BYTES + class);
            } else {
                self.pm.trace_free(hdr, HEADER_BYTES + class);
                self.pm.charge_ns(10.0);
            }
            self.rc.remove(&ptr.addr());
            self.stats.frees += 1;
            self.stats.live_blocks -= 1;
            self.stats.live_bytes -= class;
            let split = self.split.as_ref().unwrap();
            split.bins[s].lock().unwrap().push(hdr);
            return;
        }
        if volatile {
            self.pm.clear_volatile(hdr, HEADER_BYTES + class);
        } else {
            self.pm.trace_free(hdr, HEADER_BYTES + class);
            self.pm.charge_ns(10.0);
        }
        self.rc.remove(&ptr.addr());
        if volatile {
            self.volatile_free.entry(class).or_default().push(hdr);
        } else {
            // A worker's own blocks return to its arena lists (locality:
            // its next allocations reuse them); every other block goes
            // back to the shared lists.
            let arena = self.arena.as_mut().filter(|a| a.contains(hdr));
            match (class_index(class), arena) {
                (Some(idx), Some(a)) => a.free_by_class[idx].push(hdr),
                (Some(idx), None) => self.free_by_class[idx].push(hdr),
                (None, _) => {
                    self.regions.insert(hdr, HEADER_BYTES + class);
                }
            }
        }
        self.stats.frees += 1;
        self.stats.live_blocks -= 1;
        self.stats.live_bytes -= class;
    }

    /// Payload class size of the block at `ptr`, read from its header.
    ///
    /// # Panics
    ///
    /// Panics if the header magic does not match (corruption or a stray
    /// pointer).
    pub fn block_len(&mut self, ptr: PmPtr) -> u64 {
        let hdr = ptr.addr() - HEADER_BYTES;
        let class = self.pm.read_u64(hdr);
        let magic = self.pm.read_u64(hdr + 8);
        assert_eq!(
            magic,
            BLOCK_MAGIC ^ class,
            "corrupt block header at {hdr:#x}"
        );
        class
    }

    /// Flushes the whole block (header + payload) with unordered `clwb`s.
    pub fn flush_block(&mut self, ptr: PmPtr) {
        let hdr = ptr.addr() - HEADER_BYTES;
        let class = self.pm.read_u64(hdr);
        self.pm.flush_range(hdr, HEADER_BYTES + class);
    }

    // ------------------------------------------------------------------
    // Volatile reference counts (§5.3)
    // ------------------------------------------------------------------

    /// Increments the volatile refcount of the block at `ptr`. On a
    /// worker heap, increments on foreign (already-published) blocks
    /// accumulate as deltas and apply commit-side in batch order.
    pub fn rc_inc(&mut self, ptr: PmPtr) {
        if !self.rc.contains_key(&ptr.addr()) {
            if let Some(w) = self.worker.as_mut() {
                *w.rc_deltas.entry(ptr.addr()).or_insert(0) += 1;
                return;
            }
        }
        *self.rc.entry(ptr.addr()).or_insert(0) += 1;
    }

    /// Decrements the volatile refcount; returns the new count.
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero/absent (double release), or —
    /// on a worker heap — if the block is foreign: a worker cannot know
    /// a published block's true count, so version releases are deferred
    /// to the commit stage instead of decrementing during staging.
    pub fn rc_dec(&mut self, ptr: PmPtr) -> u32 {
        if self.worker.is_some() && !self.rc.contains_key(&ptr.addr()) {
            panic!(
                "rc_dec on foreign block {ptr} during lock-free staging; \
                 defer the release to the commit stage"
            );
        }
        let c = self
            .rc
            .get_mut(&ptr.addr())
            .unwrap_or_else(|| panic!("rc_dec on untracked block {ptr}"));
        assert!(*c > 0, "refcount underflow at {ptr}");
        *c -= 1;
        *c
    }

    /// Current refcount of a block (0 if untracked).
    pub fn rc_get(&self, ptr: PmPtr) -> u32 {
        self.rc.get(&ptr.addr()).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Root slots
    // ------------------------------------------------------------------

    /// PM address of root slot `i` (for commit-time pointer writes).
    pub fn root_slot_addr(&self, i: usize) -> u64 {
        root_slot_offset(i)
    }

    /// Reads root slot `i`.
    pub fn read_root(&mut self, i: usize) -> PmPtr {
        let a = root_slot_offset(i);
        PmPtr::from_addr(self.pm.read_u64(a))
    }

    /// Reads root slot `i` without touching the cache/time model (see
    /// [`NvHeap::peek_u64`]).
    pub fn peek_root(&self, i: usize) -> PmPtr {
        PmPtr::from_addr(self.pm.peek_u64(root_slot_offset(i)))
    }

    // ------------------------------------------------------------------
    // Pass-throughs to the PM device
    // ------------------------------------------------------------------

    /// The underlying simulated PM pool.
    pub fn pm(&self) -> &Pmem {
        &self.pm
    }

    /// Mutable access to the underlying simulated PM pool.
    pub fn pm_mut(&mut self) -> &mut Pmem {
        &mut self.pm
    }

    /// Consumes the heap, returning the pool (e.g. to build crash images).
    pub fn into_pm(self) -> Pmem {
        self.pm
    }

    /// Reads a `u64` through the cache model.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.pm.read_u64(addr)
    }

    /// Writes a `u64` through the cache model.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.pm.write_u64(addr, v)
    }

    /// Reads a `u32` through the cache model.
    pub fn read_u32(&mut self, addr: u64) -> u32 {
        self.pm.read_u32(addr)
    }

    /// Writes a `u32` through the cache model.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.pm.write_u32(addr, v)
    }

    /// Reads bytes through the cache model.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.pm.read_bytes(addr, buf)
    }

    /// Writes bytes through the cache model.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        self.pm.write_bytes(addr, buf)
    }

    /// Reads `len` bytes into a fresh vector through the cache model.
    pub fn read_vec(&mut self, addr: u64, len: u64) -> Vec<u8> {
        self.pm.read_vec(addr, len)
    }

    /// Reads a `u64` *without* charging the cache/time model.
    ///
    /// Peek reads back the read-only access path of the typed API
    /// (`&ModHeap` lookups): they need no exclusive access and no
    /// instrumentation, exactly like a load from a mapped PM pool.
    pub fn peek_u64(&self, addr: u64) -> u64 {
        self.pm.peek_u64(addr)
    }

    /// Reads a `u32` without charging the cache/time model.
    pub fn peek_u32(&self, addr: u64) -> u32 {
        let mut buf = [0u8; 4];
        self.pm.peek_bytes(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Reads bytes without charging the cache/time model.
    pub fn peek_bytes(&self, addr: u64, buf: &mut [u8]) {
        self.pm.peek_bytes(addr, buf)
    }

    /// Reads `len` bytes into a fresh vector without charging the
    /// cache/time model.
    pub fn peek_vec(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len as usize];
        self.pm.peek_bytes(addr, &mut buf);
        buf
    }

    /// Issues a `clwb` for the line containing `addr`.
    pub fn clwb(&mut self, addr: u64) {
        self.pm.clwb(addr)
    }

    /// Flushes every line covering the range.
    pub fn flush_range(&mut self, addr: u64, len: u64) {
        self.pm.flush_range(addr, len)
    }

    /// Executes the ordering point.
    pub fn sfence(&mut self) {
        self.pm.sfence()
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut AllocStats {
        &mut self.stats
    }

    pub(crate) fn rebuild_volatile(
        &mut self,
        free_by_class: Vec<Vec<u64>>,
        regions: BTreeMap<u64, u64>,
        bump: u64,
        rc: HashMap<u64, u32>,
    ) {
        self.free_by_class = free_by_class;
        self.regions = regions;
        self.bump = bump;
        self.rc = rc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::PmemConfig;

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn format_writes_magic_durably() {
        let h = heap();
        assert_eq!(h.pm().peek_u64(0), POOL_MAGIC);
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(0), POOL_MAGIC);
    }

    #[test]
    fn alloc_returns_distinct_aligned_blocks() {
        let mut h = heap();
        let a = h.alloc(24);
        let b = h.alloc(24);
        assert_ne!(a, b);
        assert_eq!(a.addr() % 16, 0);
        assert_eq!(b.addr() % 16, 0);
        assert!(a.addr() >= HEAP_BASE + HEADER_BYTES);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let mut h = heap();
        let a = h.alloc(100);
        h.free(a);
        let b = h.alloc(100);
        assert_eq!(a, b, "same class should reuse the freed block");
    }

    #[test]
    fn volatile_alloc_owns_whole_lines_and_is_uncharged() {
        let mut h = heap();
        let t0 = h.pm().clock().now_ns();
        let flushes0 = h.pm().stats().effective_flushes;
        h.begin_volatile();
        let a = h.alloc(24);
        h.end_volatile();
        let hdr = a.addr() - HEADER_BYTES;
        assert_eq!(hdr % 64, 0, "volatile blocks are line-aligned");
        assert_eq!((HEADER_BYTES + h.block_len(a)) % 64, 0);
        assert!(h.pm().is_volatile(hdr));
        assert!(h.pm().is_volatile(a.addr()));
        assert_eq!(
            h.pm().clock().now_ns(),
            t0,
            "volatile alloc charges nothing"
        );
        h.write_u64(a.addr(), 9);
        h.flush_block(a);
        h.sfence();
        assert_eq!(
            h.pm().stats().effective_flushes,
            flushes0,
            "no new real flushes"
        );
        assert!(h.pm().stats().flushes_avoided > 0);
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::PersistAll);
        assert_eq!(
            img.peek_u64(a.addr()),
            0,
            "node cache dies with the process"
        );
    }

    #[test]
    fn volatile_free_recycles_and_clears_marks() {
        let mut h = heap();
        h.begin_volatile();
        let a = h.alloc(24);
        h.end_volatile();
        let hdr = a.addr() - HEADER_BYTES;
        h.free(a);
        assert!(!h.pm().is_volatile(hdr), "marks cleared on free");
        h.begin_volatile();
        let b = h.alloc(30); // same volatile class (48)
        h.end_volatile();
        assert_eq!(a, b, "volatile free list recycles the block");
        assert!(h.pm().is_volatile(hdr), "re-marked on reuse");
        h.free(b);
        // And a persistent alloc of the same class may also take it.
        let c = h.alloc(48);
        assert_eq!(c, a);
        assert!(!h.pm().is_volatile(hdr), "persistent reuse is not volatile");
    }

    #[test]
    fn volatile_and_persistent_blocks_never_share_a_line() {
        let mut h = heap();
        h.begin_volatile();
        let v = h.alloc(10);
        h.end_volatile();
        let p = h.alloc(16);
        h.write_u64(p.addr(), 7);
        h.flush_block(p);
        h.sfence();
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(p.addr()), 7, "neighbor persists normally");
        let vh = v.addr() - HEADER_BYTES;
        let ph = p.addr() - HEADER_BYTES;
        assert_ne!(vh / 64, (ph + HEADER_BYTES + 15) / 64, "disjoint lines");
    }

    #[test]
    #[should_panic(expected = "end_volatile without begin_volatile")]
    fn unbalanced_end_volatile_panics() {
        let mut h = heap();
        h.end_volatile();
    }

    #[test]
    fn worker_volatile_blocks_round_trip_through_commit_free() {
        let mut owner = heap();
        let mut workers = owner.split_workers(2);
        let mut w0 = workers.remove(0);
        w0.begin_volatile();
        let v = w0.alloc(24);
        w0.end_volatile();
        assert!(
            owner.pm().is_volatile(v.addr()),
            "marks shared with the pool"
        );
        let fx = w0.take_staged_effects();
        owner.apply_staged_effects(fx);
        // Commit stage frees the published-then-superseded volatile node.
        owner.free(v);
        assert!(!owner.pm().is_volatile(v.addr()));
        // The space returns via the owner's bin on its next drain.
        w0.begin_volatile();
        let v2 = w0.alloc(24);
        let mut found = v2 == v;
        // The bin drain only fires on arena exhaustion; loop until the
        // recycled block resurfaces or the arena provides fresh space.
        for _ in 0..4096 {
            if found {
                break;
            }
            let n = w0.alloc(24);
            found = n == v;
        }
        w0.end_volatile();
        assert!(found || w0.pm().is_volatile(v2.addr()));
        for w in workers {
            owner.absorb_worker(w);
        }
        owner.absorb_worker(w0);
    }

    #[test]
    fn block_len_reads_class() {
        let mut h = heap();
        let a = h.alloc(100);
        assert_eq!(h.block_len(a), 128);
    }

    #[test]
    fn stats_track_live_and_cumulative() {
        let mut h = heap();
        let a = h.alloc(16);
        let b = h.alloc(16);
        assert_eq!(h.stats().live_bytes, 32);
        assert_eq!(h.stats().cumulative_alloc_bytes, 32);
        h.free(a);
        assert_eq!(h.stats().live_bytes, 16);
        assert_eq!(h.stats().cumulative_alloc_bytes, 32);
        h.free(b);
        assert_eq!(h.stats().live_blocks, 0);
        assert_eq!(h.stats().hwm_live_bytes, 32);
    }

    #[test]
    fn refcounts_start_at_one() {
        let mut h = heap();
        let a = h.alloc(16);
        assert_eq!(h.rc_get(a), 1);
        h.rc_inc(a);
        assert_eq!(h.rc_get(a), 2);
        assert_eq!(h.rc_dec(a), 1);
        assert_eq!(h.rc_dec(a), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn rc_underflow_panics() {
        let mut h = heap();
        let a = h.alloc(16);
        h.rc_dec(a);
        h.rc_dec(a);
    }

    #[test]
    fn flush_block_covers_header_and_payload() {
        let mut h = heap();
        let a = h.alloc(128);
        h.write_bytes(a.addr(), &[7u8; 128]);
        h.flush_block(a);
        h.sfence();
        assert_eq!(h.pm().dirty_lines(), 0, "everything flushed");
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        let mut buf = [0u8; 128];
        img.peek_bytes(a.addr(), &mut buf);
        assert_eq!(buf, [7u8; 128]);
    }

    #[test]
    fn root_slots_default_null() {
        let mut h = heap();
        for i in 0..crate::layout::N_ROOTS {
            assert!(h.read_root(i).is_null());
        }
    }

    #[test]
    #[should_panic(expected = "corrupt block header")]
    fn stray_pointer_detected() {
        let mut h = heap();
        let _ = h.alloc(64);
        h.block_len(PmPtr::from_addr(HEAP_BASE + HEADER_BYTES + 8));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn pool_exhaustion_panics() {
        let pm = Pmem::new(PmemConfig {
            capacity: 1 << 16,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        for _ in 0..1000 {
            let _ = h.alloc(4096);
        }
    }

    #[test]
    #[should_panic(expected = "recovery mode")]
    fn alloc_during_recovery_panics() {
        let h = heap();
        let pm = h.into_pm();
        let mut reopened = NvHeap::open(pm);
        let _ = reopened.alloc(16);
    }

    #[test]
    fn split_workers_survive_crash_reopen_cycles() {
        // After a crash, most free space is in the recovered region
        // list, not above the bump pointer; split_workers must carve
        // from the largest free span or reopening a nearly empty pool
        // would fail after a handful of cycles.
        let pm = Pmem::new(PmemConfig {
            capacity: 1 << 22,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        for cycle in 0..10 {
            let mut workers = h.split_workers(4);
            // One small live block, written by the *last* worker (the
            // worst case: its arena sits near the top of the span, so the
            // recovered bump lands near the pool's end).
            let w = &mut workers[3];
            let live = w.alloc(1024);
            w.write_u64(live.addr(), cycle);
            w.flush_block(live);
            for w in workers {
                h.absorb_worker(w);
            }
            let slot = h.root_slot_addr(0);
            h.write_u64(slot, live.addr());
            h.clwb(slot);
            h.sfence();
            let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
            h = NvHeap::open(img);
            let root = h.read_root(0);
            assert!(h.mark_block(root), "cycle {cycle}");
            assert_eq!(h.finish_recovery().live_blocks, 1);
            assert_eq!(h.read_u64(root.addr()), cycle);
        }
    }

    #[test]
    fn worker_frees_reuse_within_own_arena() {
        let mut h = heap();
        let mut workers = h.split_workers(2);
        let w = &mut workers[1];
        let a = w.alloc(100);
        w.free(a);
        assert_eq!(w.alloc(100), a, "worker reuses its own freed block");
    }

    #[test]
    fn split_workers_allocate_in_parallel_arenas() {
        let mut h = heap();
        let mut workers = h.split_workers(4);
        assert_eq!(workers.len(), 4);
        assert_eq!(h.split_workers_outstanding(), 4);
        // Genuinely parallel host-side allocation: each worker heap is
        // moved into its own thread, no lock anywhere.
        let handles: Vec<_> = workers
            .drain(..)
            .map(|mut w| {
                std::thread::spawn(move || {
                    let ptrs: Vec<u64> = (0..64).map(|_| w.alloc(48).addr()).collect();
                    (w, ptrs)
                })
            })
            .collect();
        let mut all = Vec::new();
        for t in handles {
            let (w, ptrs) = t.join().unwrap();
            assert!(w.is_worker());
            all.extend(ptrs);
            h.absorb_worker(w);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 256, "worker arenas never alias");
        assert_eq!(h.split_workers_outstanding(), 0);
        // Commit-side roll-up saw every alloc via absorb.
        assert_eq!(h.stats().allocs, 256);
        assert_eq!(h.stats().live_blocks, 256);
    }

    #[test]
    fn worker_rc_deltas_and_transfer() {
        let mut h = heap();
        let published = h.alloc(32); // foreign to every worker
        let mut workers = h.split_workers(2);
        let mut w0 = workers.remove(0);
        let fresh = w0.alloc(32);
        assert_eq!(w0.rc_get(fresh), 1, "fresh blocks tracked locally");
        w0.rc_inc(fresh);
        w0.rc_inc(published); // foreign: becomes a delta
        assert_eq!(w0.rc_get(published), 0, "foreign counts invisible locally");
        let fx = w0.take_staged_effects();
        assert!(!fx.is_empty());
        h.apply_staged_effects(fx);
        assert_eq!(h.rc_get(fresh), 2, "authority transferred");
        assert_eq!(h.rc_get(published), 2, "delta applied");
        // After handoff the fresh block is foreign to its own creator.
        w0.rc_inc(fresh);
        let fx2 = w0.take_staged_effects();
        h.apply_staged_effects(fx2);
        assert_eq!(h.rc_get(fresh), 3);
    }

    #[test]
    #[should_panic(expected = "foreign block")]
    fn worker_foreign_rc_dec_panics() {
        let mut h = heap();
        let published = h.alloc(32);
        let mut workers = h.split_workers(2);
        workers[0].rc_dec(published);
    }

    #[test]
    fn commit_side_frees_return_through_bins() {
        // Small pool: the worker arena exhausts quickly, forcing the
        // bin-drain fallback.
        let pm = Pmem::new(PmemConfig {
            capacity: 1 << 20,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        let mut workers = h.split_workers(2);
        let mut w1 = workers.remove(1);
        let a = w1.alloc(100);
        h.apply_staged_effects(w1.take_staged_effects());
        // The commit stage reclaims the block (e.g. a superseded
        // version): it lands in shard 1's bin, not a global list.
        h.free(a);
        assert_eq!(h.rc_get(a), 0);
        // Exhaust the arena path far enough that the worker drains its
        // bin: alloc until the freed block comes back.
        let mut reused = false;
        for _ in 0..100_000 {
            if w1.alloc(100) == a {
                reused = true;
                break;
            }
        }
        assert!(reused, "bin drain must recycle commit-side frees");
    }

    #[test]
    fn worker_abort_fase_rolls_back_allocations() {
        let mut h = heap();
        let mut workers = h.split_workers(1);
        let mut w = workers.remove(0);
        let base = w.stats().clone();
        let a = w.alloc(64);
        let b = w.alloc(64);
        w.rc_inc(b);
        w.abort_fase();
        assert_eq!(w.rc_get(a), 0);
        assert_eq!(w.rc_get(b), 0);
        assert_eq!(w.stats().live_blocks, base.live_blocks, "alloc unwound");
        assert_eq!(
            w.stats().cumulative_alloc_bytes,
            base.cumulative_alloc_bytes
        );
        // The space is reusable.
        let c = w.alloc(64);
        let d = w.alloc(64);
        assert!([a, b].contains(&c) && [a, b].contains(&d));
        // And the next handoff carries no trace of the aborted FASE.
        let fx = w.take_staged_effects();
        h.apply_staged_effects(fx);
        assert_eq!(h.rc_get(a), 1);
    }

    #[test]
    fn worker_foreign_free_is_deferred() {
        let mut h = heap();
        let published = h.alloc(32);
        let frees_before = h.stats().frees;
        let mut workers = h.split_workers(1);
        let mut w = workers.remove(0);
        w.free(published);
        assert_eq!(w.stats().frees, 0, "worker did not free it");
        h.apply_staged_effects(w.take_staged_effects());
        assert_eq!(h.stats().frees, frees_before + 1, "commit stage did");
        assert_eq!(h.rc_get(published), 0);
    }

    #[test]
    #[should_panic(expected = "worker shard arena exhausted")]
    fn worker_arena_exhaustion_panics_loudly() {
        let pm = Pmem::new(PmemConfig {
            capacity: 1 << 20,
            ..PmemConfig::testing()
        });
        let mut h = NvHeap::format(pm);
        let mut workers = h.split_workers(4);
        let w = &mut workers[0];
        for _ in 0..100_000 {
            let _ = w.alloc(4096);
        }
    }

    #[test]
    fn large_alloc_beyond_classes() {
        let mut h = heap();
        let a = h.alloc(10_000);
        assert_eq!(h.block_len(a), 12288);
        h.free(a);
        let b = h.alloc(12_000);
        assert_eq!(a, b, "large free block should be reused via regions");
    }
}
