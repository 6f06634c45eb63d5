//! Pluggable persistence backends: where a pool's durable bytes live.
//!
//! The simulator decides *what* is durable (the line-state machine in
//! [`crate::Pmem`]: dirty → in-flight → fenced); a [`PoolBackend`]
//! decides *where* that durable state lives:
//!
//! * [`MemBackend`] — volatile host memory (the original behavior): the
//!   durable image is the pool's durable arena, and the pool dies with the
//!   process. Every hook is a no-op, so pools built through
//!   [`crate::Pmem::new`] behave byte-for-byte as before.
//! * [`FileBackend`] — a real file: at each `sfence`, exactly the lines
//!   the latency/crash model says became durable are appended as one
//!   checksummed batch record (see [`crate::journal`]); the journal
//!   periodically compacts into a full arena snapshot (written to a temp
//!   file and atomically renamed). A pool written this way is
//!   re-openable by a *different process* after a kill: replay is the
//!   snapshot plus every complete batch, with any torn tail discarded at
//!   the last complete fence.
//!
//! ## Pool sets
//!
//! A pool created with more than one journal shard
//! ([`FileBackend::create_set`]) is a **pool set**: the base file holds
//! the snapshot, and each shard journal `pool.s<i>` receives the slice
//! of every fence that falls in its contiguous address range. Records
//! carry the global batch sequence plus the mask of shards the fence
//! touched, so recovery scans the journals **in parallel threads** and
//! merges them back into the single global order — bit-identical to what
//! a one-journal pool would have recorded (fences slice their
//! already-address-sorted lines across ascending shard ranges, so
//! concatenating slices in shard order restores the original record).
//! A fence is recovered only if *every* shard it touched holds its
//! slice; recovery truncates each journal back to that durable frontier.
//!
//! ## What a process kill preserves
//!
//! Each fence's batch is appended with a single `write(2)` per touched
//! journal: once the call returns, the record survives the death of the
//! process (the page cache outlives it). A kill *during* the write
//! leaves a torn record that replay discards — recovery lands on the
//! previous fence, which is a legal crash outcome (the fence that died
//! was never acknowledged). *Drained-but-unfenced* lines
//! (`Inflight { done_ns }` whose background drain completed) are
//! journaled when the model observes them — a store racing an in-flight
//! writeback, or an orderly [`crate::Pmem::checkpoint`] — as
//! [`BatchKind::Drained`] records; at an uncooperative kill they are
//! lost, which realizes the [`crate::CrashPolicy::OnlyFenced`] choice on
//! a medium whose WPQ dies with the machine.
//!
//! ## Durability grades
//!
//! [`Durability::Buffered`] (the default) stops there: appends are
//! process-kill-grade — the page cache survives the process but not the
//! machine — and the backend fsyncs only at compaction and checkpoint.
//! [`Durability::Fsync`] upgrades every fence to power-loss-grade: each
//! touched shard journal is fdatasync'd before the append returns, so an
//! acknowledged fence is on the medium. Group commit amortizes the cost:
//! batching N FASEs into one fence costs one fsync round (one fsync per
//! touched shard journal) for all N.
//!
//! ## Journal format versions
//!
//! New pools are created with v3 headers and append **compact** batch
//! records (sorted, deduplicated line sets with varint delta-encoded
//! addresses — see [`crate::journal`]). Opening negotiates the version
//! from the pool header: v1 single-file pools and v2 pool sets replay
//! bit-identically and then accumulate v3 records in place, since the
//! record tag (not the header) names each record's codec.

use crate::arena::SharedArena;
use crate::journal::{
    self, BatchKind, LineImage, Replay, ReplayError, ShardReplay, SnapshotExtent, HEADER_BYTES,
    MAX_SHARDS, SHARD_BASE,
};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which backend family a pool uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Volatile host memory ([`MemBackend`]).
    Mem,
    /// File-backed journal + snapshot ([`FileBackend`]).
    File,
}

/// How hard a [`FileBackend`] pushes each fence toward the medium.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Append with `write(2)` only: the record survives a process kill
    /// (page cache), not a power loss. Fsync happens at compaction and
    /// checkpoint. The default, and the only mode prior formats had.
    #[default]
    Buffered,
    /// fdatasync every dirty shard journal before a **fence** append
    /// returns: an acknowledged fence survives power loss. Drained-line
    /// records stay buffered until the next fence's sync round covers
    /// them (they carry earlier sequence numbers, so recovery's
    /// contiguous frontier would otherwise recede past an acked fence),
    /// and group commit amortizes the whole thing to one fsync round
    /// per batch of FASEs.
    Fsync,
}

/// Observability counters for a backend.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Batch records appended so far (all kinds).
    pub batches_appended: u64,
    /// [`BatchKind::Fence`] records: exactly one per `sfence` that had
    /// in-flight lines — one per FASE batch on the MOD commit path.
    pub fence_batches: u64,
    /// [`BatchKind::Drained`] records: in-flight writebacks the model
    /// observed completing without a fence (store races, checkpoints).
    pub drained_batches: u64,
    /// Total journal bytes appended (excluding snapshots).
    pub journal_bytes: u64,
    /// Snapshot compactions performed.
    pub compactions: u64,
    /// Journal shards (1 = classic single-file pool; 0 = no journal).
    /// Also the scan parallelism a recovery of this pool uses.
    pub journal_shards: u64,
    /// Journal bytes appended per shard (len = `journal_shards`).
    pub journal_bytes_by_shard: Vec<u64>,
    /// Individual fsync calls issued on the per-fence append path
    /// ([`Durability::Fsync`] only; compaction/checkpoint syncs are not
    /// counted here).
    pub fsyncs: u64,
    /// Fsync *rounds*: append events that fsync'd (each round syncs
    /// every touched shard journal once). Under group commit this is one
    /// per batch, so rounds/FASE ≤ 1/N for batch size N.
    pub fsync_rounds: u64,
}

/// The storage layer behind a [`crate::Pmem`] pool.
///
/// Implementations receive *durability events* from the simulator: one
/// [`PoolBackend::append_batch`] per fence (or per drained-line
/// observation), plus compaction/sync hooks at orderly points. All
/// methods take `&self` — a backend is shared by every forked shard
/// handle of its pool and must synchronize internally.
pub trait PoolBackend: fmt::Debug + Send + Sync {
    /// Which backend family this is.
    fn kind(&self) -> BackendKind;

    /// Whether the pool should collect line images and deliver
    /// durability batches at all. `false` lets the volatile backend keep
    /// the fence path byte-for-byte identical to the pre-backend code
    /// (no content reads, no allocation).
    fn wants_batches(&self) -> bool {
        false
    }

    /// One durability event: `lines` became durable at simulated time
    /// `fence_ns` (see [`BatchKind`] for why). Called with the lines in
    /// ascending address order.
    fn append_batch(&self, _kind: BatchKind, _lines: &[LineImage], _fence_ns: f64) {}

    /// Whether enough journal has accumulated that the caller should
    /// offer a compaction ([`PoolBackend::compact`]) at the next orderly
    /// point.
    fn should_compact(&self) -> bool {
        false
    }

    /// Compacts the journal into a full snapshot of `durable` (the
    /// pool's durable image). Crash-safe: the snapshot is written to a
    /// sibling temp file, synced, and atomically renamed over the pool.
    fn compact(&self, _durable: &SharedArena) -> io::Result<()> {
        Ok(())
    }

    /// Forces written data to stable storage (fsync).
    fn sync(&self) -> io::Result<()> {
        Ok(())
    }

    /// Total on-disk bytes of the pool's files. A backend with no files
    /// reports 0. Errors (e.g. a pool member deleted out from under the
    /// process) surface as typed io errors, never a panic.
    fn durable_file_bytes(&self) -> io::Result<u64> {
        Ok(0)
    }

    /// Observability counters.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// The volatile backend: durable state lives in the durable arena and
/// dies with the process. All hooks are no-ops.
#[derive(Debug, Default)]
pub struct MemBackend;

impl PoolBackend for MemBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mem
    }
}

/// Journal bytes since the last snapshot that trigger a compaction offer.
const DEFAULT_COMPACT_BYTES: u64 = 1 << 20;

#[derive(Debug)]
struct SetState {
    /// The base pool file. For a single-file (v1) pool this is also the
    /// journal; for a pool set it holds only the snapshot + seq mark.
    base: File,
    /// Per-shard journal files (empty for a single-file pool).
    journals: Vec<File>,
    /// Journal bytes appended since the last snapshot (set-wide).
    since_snapshot: u64,
    /// Next global batch sequence number.
    seq: u64,
    /// Bitmask of journal members with appended-but-unsynced bytes
    /// (bit 0 = the base file for a single-file pool). A fence's fsync
    /// round must cover every dirty member, not just the shards the
    /// fence touched: a buffered drained-line record holds an earlier
    /// sequence number, and losing it to power-off would recede the
    /// recovery frontier below an already-acknowledged fence.
    dirty: u64,
}

/// The file-backed backend: a pool file (or pool set) holding a snapshot
/// plus an append-only, checksummed fence journal — one journal file per
/// address shard when created with [`FileBackend::create_set`] (see the
/// module docs and [`crate::journal`] for formats and crash semantics).
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    durability: Durability,
    /// Journal shard count (1 = classic single-file pool).
    shards: u16,
    /// Bytes of pool address space per shard (64-aligned; the last shard
    /// absorbs the remainder).
    span: u64,
    state: Mutex<SetState>,
    compact_bytes: u64,
    batches: AtomicU64,
    fence_batches: AtomicU64,
    drained_batches: AtomicU64,
    journal_bytes: AtomicU64,
    compactions: AtomicU64,
    fsyncs: AtomicU64,
    fsync_rounds: AtomicU64,
    per_shard_bytes: Vec<AtomicU64>,
}

/// The fixed address partition of a pool set: contiguous equal 64-byte-
/// aligned ranges. Deterministic in (capacity, shards) alone, so every
/// open of the set — and every writer generation — agrees on it.
fn shard_span(capacity: u64, shards: u16) -> u64 {
    let raw = capacity.div_ceil(shards as u64);
    ((raw + 63) & !63).max(64)
}

fn shard_path(path: &Path, shard: u16) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".s{shard}"));
    PathBuf::from(os)
}

impl FileBackend {
    /// Creates a fresh single-file pool (truncating any existing file):
    /// header plus an empty snapshot, synced to disk.
    pub fn create(path: &Path, capacity: u64) -> io::Result<FileBackend> {
        FileBackend::create_set(path, capacity, 1, Durability::Buffered)
    }

    /// Creates a fresh pool with `shards` journal files (1 = a classic
    /// single-file pool, bit-identical to [`FileBackend::create`]) and
    /// the given per-fence durability grade. `shards` is clamped to
    /// `1..=64` (the touched-shard mask is a `u64`). New pools carry v3
    /// headers and compact (varint/delta) batch records; pools with v1
    /// or v2 headers still open and replay bit-identically.
    pub fn create_set(
        path: &Path,
        capacity: u64,
        shards: u16,
        durability: Durability,
    ) -> io::Result<FileBackend> {
        let shards = shards.clamp(1, MAX_SHARDS);
        let mut base = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut journals = Vec::new();
        if shards == 1 {
            base.write_all(&journal::encode_header_v3(capacity))?;
            base.write_all(&journal::encode_snapshot(&[]))?;
        } else {
            base.write_all(&journal::encode_set_header_v3(capacity, shards, SHARD_BASE))?;
            base.write_all(&journal::encode_snapshot(&[]))?;
            base.write_all(&journal::encode_seq_mark(0))?;
            for i in 0..shards {
                let mut j = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(shard_path(path, i))?;
                j.write_all(&journal::encode_set_header_v3(capacity, shards, i))?;
                j.sync_all()?;
                journals.push(j);
            }
        }
        base.sync_all()?;
        Ok(FileBackend::assemble(
            path, durability, shards, capacity, base, journals, 0, 0,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        path: &Path,
        durability: Durability,
        shards: u16,
        capacity: u64,
        base: File,
        journals: Vec<File>,
        since_snapshot: u64,
        seq: u64,
    ) -> FileBackend {
        FileBackend {
            path: path.to_path_buf(),
            durability,
            shards,
            span: shard_span(capacity, shards),
            state: Mutex::new(SetState {
                base,
                journals,
                since_snapshot,
                seq,
                dirty: 0,
            }),
            compact_bytes: DEFAULT_COMPACT_BYTES,
            batches: AtomicU64::new(0),
            fence_batches: AtomicU64::new(0),
            drained_batches: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fsync_rounds: AtomicU64::new(0),
            per_shard_bytes: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Opens an existing pool (single-file or set; the header says
    /// which) with [`Durability::Buffered`] appends.
    pub fn open(path: &Path) -> io::Result<(FileBackend, Replay)> {
        FileBackend::open_with(path, Durability::Buffered)
    }

    /// Opens an existing pool file or pool set, replaying snapshot +
    /// journal(s): every complete batch is applied; torn tails — and,
    /// for a set, complete records whose fence lost a slice in a sibling
    /// journal — are truncated away so appends resume at the durable
    /// frontier. A set's shard journals are scanned in parallel, one
    /// thread per journal, then merged by global sequence; the merged
    /// batch order is bit-identical to a single-journal replay. Returns
    /// the backend plus the replay for the caller to rebuild the arena.
    pub fn open_with(path: &Path, durability: Durability) -> io::Result<(FileBackend, Replay)> {
        // A kill mid-compaction can leave a stale temp file; it was never
        // renamed, so it is garbage.
        let _ = std::fs::remove_file(tmp_path(path));
        let mut base = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        base.read_to_end(&mut bytes)?;
        if !journal::is_set_member(&bytes).map_err(replay_io_err)? {
            // Single-file pool (v1, or v3 with a zero geometry word).
            let replay = journal::replay(&bytes).map_err(replay_io_err)?;
            if replay.torn_bytes > 0 {
                base.set_len(replay.valid_len as u64)?;
            }
            base.seek(SeekFrom::End(0))?;
            let since_snapshot = (replay.valid_len - HEADER_BYTES) as u64
                - journal::encode_snapshot(&replay.extents).len() as u64;
            let seq = replay.batches.last().map_or(0, |b| b.seq + 1);
            let capacity = replay.capacity;
            return Ok((
                FileBackend::assemble(
                    path,
                    durability,
                    1,
                    capacity,
                    base,
                    Vec::new(),
                    since_snapshot,
                    seq,
                ),
                replay,
            ));
        }
        let set = journal::replay_set_base(&bytes).map_err(replay_io_err)?;
        // Scan every shard journal in parallel: the scans are
        // independent (checksums, framing, decode), and the merge below
        // is a pure function of their results — so the recovered image
        // cannot depend on thread interleaving.
        let scans: Vec<(File, ShardReplay, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..set.shards)
                .map(|i| {
                    let p = shard_path(path, i);
                    scope.spawn(move || -> io::Result<(File, ShardReplay, u64)> {
                        let mut f = OpenOptions::new()
                            .read(true)
                            .write(true)
                            .open(&p)
                            .map_err(|e| member_err(&p, &e))?;
                        let mut jbytes = Vec::new();
                        f.read_to_end(&mut jbytes)?;
                        let scan = journal::replay_shard_journal(&jbytes).map_err(replay_io_err)?;
                        if scan.header.capacity != set.capacity
                            || scan.header.shards != set.shards
                            || scan.header.shard_index != i
                        {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("pool-set member {} does not match its base", p.display()),
                            ));
                        }
                        Ok((f, scan, jbytes.len() as u64))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard scan thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        let per_shard: Vec<Vec<journal::ShardBatchRecord>> =
            scans.iter().map(|(_, s, _)| s.records.clone()).collect();
        let merged = journal::merge_shard_records(&per_shard, set.snap_seq);
        // Truncate each journal back to the durable frontier: both torn
        // tails and complete records of fences that lost a slice
        // elsewhere. Journal order is sequence order, so the cut is the
        // end of the last record below the frontier.
        let mut journals = Vec::with_capacity(scans.len());
        let mut since_snapshot = 0u64;
        let mut torn = 0u64;
        let mut valid = bytes.len();
        for (mut f, scan, len) in scans {
            let keep = scan
                .records
                .iter()
                .position(|r| r.batch.seq >= merged.frontier)
                .unwrap_or(scan.records.len());
            let cut = if keep == 0 {
                HEADER_BYTES
            } else {
                scan.ends[keep - 1]
            };
            if (cut as u64) < len {
                f.set_len(cut as u64)?;
            }
            f.seek(SeekFrom::End(0))?;
            since_snapshot += (cut - HEADER_BYTES) as u64;
            torn += len - cut as u64;
            valid += cut;
            journals.push(f);
        }
        let replay = Replay {
            capacity: set.capacity,
            extents: set.extents,
            batches: merged.batches,
            valid_len: valid,
            torn_bytes: torn as usize,
        };
        Ok((
            FileBackend::assemble(
                path,
                durability,
                set.shards,
                set.capacity,
                base,
                journals,
                since_snapshot,
                merged.frontier,
            ),
            replay,
        ))
    }

    /// Path of the pool's base file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Journal shard count (1 = classic single-file pool). Recovery
    /// scans a set's journals with this many parallel threads.
    pub fn shard_count(&self) -> u16 {
        self.shards
    }

    /// The per-fence durability grade appends use.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Which journal shard owns a pool address.
    fn shard_of(&self, addr: u64) -> usize {
        ((addr / self.span) as usize).min(self.shards as usize - 1)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

fn replay_io_err(e: ReplayError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn member_err(path: &Path, e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("pool member {}: {e}", path.display()))
}

/// Collects the durable arena's resident bytes as snapshot extents.
/// Trailing zero bytes of each segment are trimmed (freshly formatted
/// pools are almost entirely zero).
fn extents_of(durable: &SharedArena) -> Vec<SnapshotExtent> {
    let seg = crate::arena::SEGMENT_BYTES;
    let mut extents = Vec::new();
    let mut addr = 0u64;
    while addr < durable.capacity() {
        let len = seg.min(durable.capacity() - addr);
        if durable.is_resident(addr) {
            let mut data = vec![0u8; len as usize];
            durable.read(addr, &mut data);
            let used = data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            data.truncate(used);
            if !data.is_empty() {
                extents.push(SnapshotExtent { addr, data });
            }
        }
        addr += len;
    }
    extents
}

impl PoolBackend for FileBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::File
    }

    fn wants_batches(&self) -> bool {
        true
    }

    fn append_batch(&self, kind: BatchKind, lines: &[LineImage], fence_ns: f64) {
        if lines.is_empty() {
            return;
        }
        let mut st = self.state.lock().unwrap();
        let seq = st.seq;
        st.seq += 1;
        let mut appended = 0u64;
        if self.shards == 1 {
            // Appends always use the compact v3 record codec, whatever
            // the file's header version: replay keys record decoding off
            // the tag, so a pre-upgrade pool legally mixes generations.
            let record = journal::encode_batch_v3(seq, kind, fence_ns, lines);
            // One write(2) per fence: complete once it returns, torn
            // (and discarded at replay) if the process dies inside it.
            st.base
                .write_all(&record)
                .expect("pool journal append failed");
            appended = record.len() as u64;
            self.per_shard_bytes[0].fetch_add(appended, Ordering::Relaxed);
            st.dirty |= 1;
            if self.durability == Durability::Fsync && kind == BatchKind::Fence {
                st.base.sync_data().expect("pool journal fsync failed");
                st.dirty = 0;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                self.fsync_rounds.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            // Slice the (address-sorted) fence across the contiguous
            // shard ranges; every slice carries the global sequence and
            // the full touched mask so recovery can tell a complete
            // fence from one that lost a slice.
            let mut runs: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
            let mut start = 0usize;
            while start < lines.len() {
                let shard = self.shard_of(lines[start].addr);
                let mut end = start + 1;
                while end < lines.len() && self.shard_of(lines[end].addr) == shard {
                    end += 1;
                }
                runs.push((shard, start..end));
                start = end;
            }
            let mask: u64 = runs.iter().map(|(s, _)| 1u64 << s).sum();
            for (shard, range) in &runs {
                let record = journal::encode_shard_batch_v3(
                    seq,
                    kind,
                    fence_ns,
                    mask,
                    &lines[range.clone()],
                );
                st.journals[*shard]
                    .write_all(&record)
                    .expect("pool journal append failed");
                appended += record.len() as u64;
                self.per_shard_bytes[*shard].fetch_add(record.len() as u64, Ordering::Relaxed);
            }
            st.dirty |= mask;
            if self.durability == Durability::Fsync && kind == BatchKind::Fence {
                // The round covers every dirty member, not just this
                // fence's shards: buffered drained-line records hold
                // earlier sequence numbers, and an acked fence must
                // never outlive them on disk (frontier contiguity).
                let mut synced = 0u64;
                for shard in 0..self.shards as usize {
                    if st.dirty & (1u64 << shard) != 0 {
                        st.journals[shard]
                            .sync_data()
                            .expect("pool journal fsync failed");
                        synced += 1;
                    }
                }
                st.dirty = 0;
                self.fsyncs.fetch_add(synced, Ordering::Relaxed);
                self.fsync_rounds.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.since_snapshot += appended;
        self.batches.fetch_add(1, Ordering::Relaxed);
        match kind {
            BatchKind::Fence => &self.fence_batches,
            BatchKind::Drained => &self.drained_batches,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.journal_bytes.fetch_add(appended, Ordering::Relaxed);
    }

    fn should_compact(&self) -> bool {
        self.state.lock().unwrap().since_snapshot >= self.compact_bytes
    }

    fn compact(&self, durable: &SharedArena) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        let tmp = tmp_path(&self.path);
        {
            let mut f = File::create(&tmp)?;
            if self.shards == 1 {
                f.write_all(&journal::encode_header_v3(durable.capacity()))?;
                f.write_all(&journal::encode_snapshot(&extents_of(durable)))?;
            } else {
                f.write_all(&journal::encode_set_header_v3(
                    durable.capacity(),
                    self.shards,
                    SHARD_BASE,
                ))?;
                f.write_all(&journal::encode_snapshot(&extents_of(durable)))?;
                f.write_all(&journal::encode_seq_mark(st.seq))?;
            }
            f.sync_all()?;
        }
        // Atomic cut-over: a kill before the rename leaves the old pool
        // (plus a stale .tmp that open() removes); after it, the new one.
        std::fs::rename(&tmp, &self.path)?;
        let mut base = OpenOptions::new().read(true).write(true).open(&self.path)?;
        base.seek(SeekFrom::End(0))?;
        st.base = base;
        // Only after the base holds the new snapshot + seq mark may the
        // shard journals shrink: a kill mid-truncation leaves records
        // below the mark, which recovery ignores as stale. The reverse
        // order would lose the un-snapshotted records.
        for j in &mut st.journals {
            j.set_len(HEADER_BYTES as u64)?;
            j.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
            j.sync_all()?;
        }
        st.since_snapshot = 0;
        st.dirty = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.base.sync_all()?;
        for j in &st.journals {
            j.sync_all()?;
        }
        st.dirty = 0;
        Ok(())
    }

    fn durable_file_bytes(&self) -> io::Result<u64> {
        let len = |p: &Path| -> io::Result<u64> {
            std::fs::metadata(p)
                .map(|m| m.len())
                .map_err(|e| member_err(p, &e))
        };
        let mut total = len(&self.path)?;
        if self.shards > 1 {
            for i in 0..self.shards {
                total += len(&shard_path(&self.path, i))?;
            }
        }
        Ok(total)
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            batches_appended: self.batches.load(Ordering::Relaxed),
            fence_batches: self.fence_batches.load(Ordering::Relaxed),
            drained_batches: self.drained_batches.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            journal_shards: self.shards as u64,
            journal_bytes_by_shard: self
                .per_shard_bytes
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsync_rounds: self.fsync_rounds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mod_backend_{}_{}", std::process::id(), name));
        p
    }

    fn line(addr: u64, fill: u8) -> LineImage {
        LineImage {
            addr,
            data: [fill; 64],
        }
    }

    fn remove_set(path: &Path, shards: u16) {
        let _ = std::fs::remove_file(path);
        for i in 0..shards {
            let _ = std::fs::remove_file(shard_path(path, i));
        }
    }

    #[test]
    fn create_append_reopen_replays_batches() {
        let path = tmp_file("roundtrip");
        let be = FileBackend::create(&path, 1 << 20).unwrap();
        be.append_batch(BatchKind::Fence, &[line(0, 1), line(64, 2)], 100.0);
        be.append_batch(BatchKind::Drained, &[line(128, 3)], 150.0);
        drop(be);
        let (be2, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.capacity, 1 << 20);
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.batches[0].lines.len(), 2);
        assert_eq!(replay.batches[1].kind, BatchKind::Drained);
        assert_eq!(replay.torn_bytes, 0);
        // Appends resume with a later sequence number.
        be2.append_batch(BatchKind::Fence, &[line(192, 4)], 200.0);
        drop(be2);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 3);
        assert_eq!(replay.batches[2].seq, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp_file("torn");
        let be = FileBackend::create(&path, 1 << 20).unwrap();
        be.append_batch(BatchKind::Fence, &[line(0, 7)], 1.0);
        be.append_batch(BatchKind::Fence, &[line(64, 8)], 2.0);
        drop(be);
        // Tear the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let (be2, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 1, "partial batch discarded");
        // The file was truncated to the valid prefix, so a new append
        // followed by a reopen yields exactly [batch0, new batch].
        be2.append_batch(BatchKind::Fence, &[line(128, 9)], 3.0);
        drop(be2);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.batches[1].lines[0].data[0], 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_resets_journal_and_survives_reopen() {
        let path = tmp_file("compact");
        let be = FileBackend::create(&path, 1 << 22).unwrap();
        let durable = SharedArena::new(1 << 22);
        durable.write(0, b"durable-state");
        durable.write_u64(4096, 42);
        be.append_batch(BatchKind::Fence, &[line(0, 1)], 1.0);
        be.compact(&durable).unwrap();
        assert_eq!(be.stats().compactions, 1);
        // Journal restarts empty after the snapshot.
        be.append_batch(BatchKind::Fence, &[line(64, 5)], 2.0);
        drop(be);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 1, "pre-compaction batches folded in");
        let ext = &replay.extents;
        assert!(!ext.is_empty());
        assert_eq!(&ext[0].data[..13], b"durable-state");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_tmp_file_is_ignored_on_open() {
        let path = tmp_file("staletmp");
        let be = FileBackend::create(&path, 1 << 20).unwrap();
        be.append_batch(BatchKind::Fence, &[line(0, 1)], 1.0);
        drop(be);
        std::fs::write(tmp_path(&path), b"half-written snapshot garbage").unwrap();
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert!(!tmp_path(&path).exists(), "stale tmp cleaned up");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_backend_is_inert() {
        let be = MemBackend;
        assert_eq!(be.kind(), BackendKind::Mem);
        assert!(!be.wants_batches());
        assert!(!be.should_compact());
        be.append_batch(BatchKind::Fence, &[line(0, 1)], 1.0);
        assert_eq!(be.stats(), BackendStats::default());
        assert_eq!(be.durable_file_bytes().unwrap(), 0);
    }

    #[test]
    fn open_missing_or_garbage_file_errors() {
        let path = tmp_file("missing");
        assert!(FileBackend::open(&path).is_err());
        std::fs::write(&path, b"not a pool").unwrap();
        let err = FileBackend::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    /// The fence sequence the pool-set tests replay: address-sorted
    /// lines spread across the 4-shard partition of a 1 MiB pool, plus
    /// fences confined to a single shard.
    fn set_workload(be: &FileBackend) {
        let span = shard_span(1 << 20, 4);
        be.append_batch(
            BatchKind::Fence,
            &[line(0, 1), line(span, 2), line(3 * span, 3)],
            1.0,
        );
        be.append_batch(BatchKind::Fence, &[line(64, 4)], 2.0);
        be.append_batch(
            BatchKind::Drained,
            &[line(span + 64, 5), line(2 * span, 6)],
            3.0,
        );
        be.append_batch(
            BatchKind::Fence,
            &[
                line(128, 7),
                line(span + 128, 8),
                line(2 * span + 64, 9),
                line(3 * span + 64, 10),
            ],
            4.0,
        );
    }

    #[test]
    fn pool_set_reopen_is_bit_identical_to_a_single_file_pool() {
        // The same fence sequence through a single-file pool and a
        // 4-shard set must replay to identical batch streams — same
        // sequences, same kinds, same line order, same bytes.
        let single = tmp_file("seteq_single");
        let set = tmp_file("seteq_set");
        let b1 = FileBackend::create(&single, 1 << 20).unwrap();
        let b4 = FileBackend::create_set(&set, 1 << 20, 4, Durability::Buffered).unwrap();
        set_workload(&b1);
        set_workload(&b4);
        drop(b1);
        drop(b4);
        let (_, r1) = FileBackend::open(&single).unwrap();
        let (be4, r4) = FileBackend::open(&set).unwrap();
        assert_eq!(r1.batches, r4.batches, "merged replay == serial replay");
        assert_eq!(r1.extents, r4.extents);
        assert_eq!(be4.shard_count(), 4);
        assert_eq!(r4.torn_bytes, 0);
        std::fs::remove_file(&single).unwrap();
        remove_set(&set, 4);
    }

    #[test]
    fn pool_set_append_reopen_resumes_the_global_sequence() {
        let path = tmp_file("setresume");
        let be = FileBackend::create_set(&path, 1 << 20, 4, Durability::Buffered).unwrap();
        set_workload(&be);
        drop(be);
        let (be2, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 4);
        be2.append_batch(BatchKind::Fence, &[line(0, 11)], 5.0);
        drop(be2);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 5);
        assert_eq!(replay.batches[4].seq, 4, "global sequence resumes");
        remove_set(&path, 4);
    }

    #[test]
    fn pool_set_torn_shard_tail_truncates_every_member_to_the_frontier() {
        // Tear the tail of ONE shard journal: the whole set must recover
        // to the last fence every shard holds completely, and the
        // sibling journals must be truncated back to that frontier so
        // appends resume consistently.
        let path = tmp_file("settorn");
        let be = FileBackend::create_set(&path, 1 << 20, 4, Durability::Buffered).unwrap();
        set_workload(&be);
        drop(be);
        // Shard 0 saw fences 0, 1 and 3: tearing its last record drops
        // fence 3 set-wide even though shards 1..3 hold their slices.
        let s0 = shard_path(&path, 0);
        let len = std::fs::metadata(&s0).unwrap().len();
        let f = OpenOptions::new().write(true).open(&s0).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let (be2, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 3, "fence 3 lost its shard-0 slice");
        assert_eq!(replay.batches.last().unwrap().seq, 2);
        assert!(replay.torn_bytes > 0);
        // Appends resume at the frontier; a reopen sees 4 batches again
        // with the new fence in slot 3.
        be2.append_batch(BatchKind::Fence, &[line(0, 12), line(1 << 19, 13)], 9.0);
        drop(be2);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 4);
        assert_eq!(replay.batches[3].seq, 3);
        assert_eq!(replay.batches[3].lines[0].data[0], 12);
        assert_eq!(replay.torn_bytes, 0, "members were truncated consistently");
        remove_set(&path, 4);
    }

    #[test]
    fn pool_set_compaction_folds_journals_and_keeps_members_consistent() {
        let path = tmp_file("setcompact");
        let be = FileBackend::create_set(&path, 1 << 20, 4, Durability::Buffered).unwrap();
        let durable = SharedArena::new(1 << 20);
        durable.write(0, b"set-durable-state");
        set_workload(&be);
        be.compact(&durable).unwrap();
        be.append_batch(BatchKind::Fence, &[line(0, 21)], 10.0);
        drop(be);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 1, "pre-compaction fences folded in");
        assert_eq!(replay.batches[0].seq, 4, "sequence survives compaction");
        assert_eq!(&replay.extents[0].data[..17], b"set-durable-state");
        remove_set(&path, 4);
    }

    #[test]
    fn pool_set_stale_records_after_interrupted_truncation_are_ignored() {
        // Crash window: compaction renamed the new base (snapshot +
        // seq mark) but died before truncating the shard journals. The
        // stale records sit below the mark and must neither resurface
        // nor cap the frontier.
        let path = tmp_file("setstale");
        let be = FileBackend::create_set(&path, 1 << 20, 4, Durability::Buffered).unwrap();
        let durable = SharedArena::new(1 << 20);
        durable.write(0, b"post-compaction");
        set_workload(&be);
        // Snapshot the journal files, compact, then restore the old
        // journals over the truncated ones — the on-disk state of a kill
        // between the rename and the truncations.
        let saved: Vec<Vec<u8>> = (0..4)
            .map(|i| std::fs::read(shard_path(&path, i)).unwrap())
            .collect();
        be.compact(&durable).unwrap();
        drop(be);
        for (i, bytes) in saved.iter().enumerate() {
            std::fs::write(shard_path(&path, i as u16), bytes).unwrap();
        }
        let (be2, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 0, "stale records not resurrected");
        assert_eq!(&replay.extents[0].data[..15], b"post-compaction");
        be2.append_batch(BatchKind::Fence, &[line(64, 30)], 20.0);
        drop(be2);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0].seq, 4, "resumes past the seq mark");
        remove_set(&path, 4);
    }

    #[test]
    fn pool_set_missing_member_is_a_typed_error() {
        let path = tmp_file("setmissing");
        let be = FileBackend::create_set(&path, 1 << 20, 3, Durability::Buffered).unwrap();
        drop(be);
        std::fs::remove_file(shard_path(&path, 1)).unwrap();
        let err = FileBackend::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains(".s1"), "names the member: {err}");
        remove_set(&path, 3);
    }

    #[test]
    fn fsync_mode_counts_one_round_per_fence() {
        let path = tmp_file("fsynccount");
        let be = FileBackend::create_set(&path, 1 << 20, 4, Durability::Fsync).unwrap();
        assert_eq!(be.durability(), Durability::Fsync);
        set_workload(&be);
        let s = be.stats();
        assert_eq!(
            s.fsync_rounds, 3,
            "one round per FENCE append; the drained append stays buffered"
        );
        // Each round syncs the dirty members: fence 1 dirtied {0,1,3},
        // fence 2 {0}, then the drained append leaves {1,2} buffered so
        // fence 3 (touching all four shards) syncs {0,1,2,3}: 3 + 1 + 4.
        assert_eq!(s.fsyncs, 8);
        assert_eq!(s.journal_shards, 4);
        assert_eq!(s.journal_bytes_by_shard.len(), 4);
        assert!(s.journal_bytes_by_shard.iter().all(|&b| b > 0));
        assert_eq!(
            s.journal_bytes_by_shard.iter().sum::<u64>(),
            s.journal_bytes
        );
        drop(be);
        let be = FileBackend::create(&path, 1 << 20).unwrap();
        be.append_batch(BatchKind::Fence, &[line(0, 1)], 1.0);
        assert_eq!(be.stats().fsync_rounds, 0, "buffered mode never fsyncs");
        drop(be);
        remove_set(&path, 4);
    }

    #[test]
    fn new_pools_carry_v3_headers_and_compact_records() {
        let path = tmp_file("v3fresh");
        let be = FileBackend::create(&path, 1 << 20).unwrap();
        be.append_batch(BatchKind::Fence, &[line(0, 1), line(64, 2)], 1.0);
        let compact_bytes = be.stats().journal_bytes;
        let v1_bytes = journal::encode_batch(0, BatchKind::Fence, 1.0, &[line(0, 1), line(64, 2)])
            .len() as u64;
        assert!(
            compact_bytes < v1_bytes,
            "v3 appends must be smaller: {compact_bytes} vs {v1_bytes}"
        );
        drop(be);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            journal::V3_FORMAT_VERSION
        );
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0].lines.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_upgrade_v1_pool_replays_and_accumulates_v3_appends() {
        // Handcraft a pool exactly as a v1-era build laid it down:
        // v1 header, empty snapshot, v1 batch records. The new build
        // must replay it bit-identically, then append v3 records into
        // the same (still v1-headered) journal.
        let path = tmp_file("v1upgrade");
        let mut f = journal::encode_header(1 << 20).to_vec();
        f.extend_from_slice(&journal::encode_snapshot(&[]));
        let old = [
            (0u64, vec![line(0, 1), line(64, 2)], 10.0),
            (1u64, vec![line(128, 3)], 20.0),
        ];
        for (seq, lines, ns) in &old {
            f.extend_from_slice(&journal::encode_batch(*seq, BatchKind::Fence, *ns, lines));
        }
        std::fs::write(&path, &f).unwrap();
        let (be, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.batches[0].lines, old[0].1);
        assert_eq!(replay.batches[1].lines, old[1].1);
        assert_eq!(replay.torn_bytes, 0);
        be.append_batch(BatchKind::Fence, &[line(192, 4)], 30.0);
        drop(be);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            journal::FORMAT_VERSION,
            "the header stays v1; only the records upgrade"
        );
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 3, "v1 records + the v3 append");
        assert_eq!(replay.batches[2].seq, 2);
        assert_eq!(replay.batches[2].lines, vec![line(192, 4)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_upgrade_v2_set_replays_and_accumulates_v3_appends() {
        // A v2-era pool set: v2 member headers, v2 shard-batch records.
        // The new build opens it, merges bit-identically, and appends
        // compact records to the same journals.
        let path = tmp_file("v2upgrade");
        let span = shard_span(1 << 20, 2);
        let mut base = journal::encode_set_header(1 << 20, 2, SHARD_BASE).to_vec();
        base.extend_from_slice(&journal::encode_snapshot(&[]));
        base.extend_from_slice(&journal::encode_seq_mark(0));
        std::fs::write(&path, &base).unwrap();
        let mut j0 = journal::encode_set_header(1 << 20, 2, 0).to_vec();
        j0.extend_from_slice(&journal::encode_shard_batch(
            0,
            BatchKind::Fence,
            1.0,
            0b11,
            &[line(0, 1)],
        ));
        std::fs::write(shard_path(&path, 0), &j0).unwrap();
        let mut j1 = journal::encode_set_header(1 << 20, 2, 1).to_vec();
        j1.extend_from_slice(&journal::encode_shard_batch(
            0,
            BatchKind::Fence,
            1.0,
            0b11,
            &[line(span, 2)],
        ));
        std::fs::write(shard_path(&path, 1), &j1).unwrap();
        let (be, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0].lines, vec![line(0, 1), line(span, 2)]);
        be.append_batch(BatchKind::Fence, &[line(64, 3), line(span + 64, 4)], 2.0);
        drop(be);
        let (_, replay) = FileBackend::open(&path).unwrap();
        assert_eq!(replay.batches.len(), 2, "v2 base + v3 append merged");
        assert_eq!(replay.batches[1].seq, 1);
        assert_eq!(
            replay.batches[1].lines,
            vec![line(64, 3), line(span + 64, 4)]
        );
        assert_eq!(replay.torn_bytes, 0);
        remove_set(&path, 2);
    }

    #[test]
    fn durable_file_bytes_is_typed_not_a_panic() {
        // Satellite: the stats path must report a missing pool member as
        // a typed io error, never a panic.
        let path = tmp_file("statbytes");
        let be = FileBackend::create_set(&path, 1 << 20, 2, Durability::Buffered).unwrap();
        be.append_batch(BatchKind::Fence, &[line(0, 1)], 1.0);
        let on_disk = be.durable_file_bytes().unwrap();
        assert!(on_disk > 3 * HEADER_BYTES as u64);
        std::fs::remove_file(shard_path(&path, 1)).unwrap();
        let err = be.durable_file_bytes().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains(".s1"), "names the member: {err}");
        remove_set(&path, 2);
    }
}
