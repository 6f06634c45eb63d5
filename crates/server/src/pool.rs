//! File-backed pool lifecycle for the server: atomic creation, recovery
//! on reopen, and sharding onto worker slots.

use crate::engine::ServerRoots;
use mod_core::{CommitMode, ModHeap, PersistPolicy, SharedModHeap};
use mod_pmem::{Durability, PmemConfig};
use std::io;
use std::path::Path;

/// The server's pool configuration: a real file journal, no tracing
/// (crashes here are real process kills).
pub fn pool_config() -> PmemConfig {
    PmemConfig {
        capacity: 1 << 26,
        trace: false,
        ..PmemConfig::default()
    }
}

/// Opens (recovering) or creates the server pool at `path` and shards
/// it for `workers` connection slots in the given commit mode, with
/// kill-grade (buffered, single-journal) durability. See
/// [`open_or_create_with`] for power-loss-grade pool sets.
///
/// Initialization is atomic against kills: a fresh pool is built and
/// closed under a temporary `.init` name and renamed into place, so a
/// recovery only ever sees "no pool yet" or a fully formed one.
///
/// # Errors
///
/// Returns file I/O or recovery errors; an existing pool whose roots
/// are not the server's five panics (it is some other application's).
pub fn open_or_create(
    path: &Path,
    workers: usize,
    mode: CommitMode,
) -> io::Result<(SharedModHeap, ServerRoots)> {
    open_or_create_with(
        path,
        workers,
        mode,
        Durability::Buffered,
        1,
        PersistPolicy::Full,
    )
}

/// [`open_or_create`] with an explicit durability grade and journal
/// shard count. `Durability::Fsync` makes an acked `SESSION` op durable
/// across power loss, not just SIGKILL — the group-commit fence
/// amortizes the fsync round over the whole batch — and
/// `journal_shards > 1` splits the journal into a pool set replayed by
/// parallel threads at recovery.
///
/// The shard count is a property of the *file set*: it applies when
/// this call creates the pool, while reopening an existing pool keeps
/// the on-disk layout (the header is authoritative). Durability applies
/// either way.
///
/// `policy` selects the persistence mode the roots are created under —
/// [`PersistPolicy::Hybrid`] keeps interior index nodes volatile and
/// journals only compact op records, rebuilding the index at recovery.
/// The policy is recorded durably in the root directory, so reopening
/// an existing pool under the other policy fails rather than corrupt.
///
/// # Errors
///
/// Same contract as [`open_or_create`].
pub fn open_or_create_with(
    path: &Path,
    workers: usize,
    mode: CommitMode,
    durability: Durability,
    journal_shards: u16,
    policy: PersistPolicy,
) -> io::Result<(SharedModHeap, ServerRoots)> {
    let cfg = PmemConfig {
        durability,
        journal_shards,
        ..pool_config()
    };
    if !path.exists() {
        let init = path.with_extension("init");
        let _ = std::fs::remove_file(&init); // stale half-init from a kill
                                             // Stale shard journals from a killed init: the rename below
                                             // only moves the base file, so sweep the set members too.
        for s in 0..journal_shards {
            let mut sp = init.as_os_str().to_os_string();
            sp.push(format!(".s{s}"));
            let _ = std::fs::remove_file(sp);
        }
        let mut heap = ModHeap::create_file(&init, cfg.clone())?;
        let _ = ServerRoots::create(&mut heap, policy);
        drop(heap.close()?);
        // Move the shard journals first, the base last: recovery keys
        // off the base file, so a kill mid-rename still reads as
        // "no pool yet" until the base lands.
        for s in 0..journal_shards {
            let mut from = init.as_os_str().to_os_string();
            from.push(format!(".s{s}"));
            let mut to = path.as_os_str().to_os_string();
            to.push(format!(".s{s}"));
            if std::path::Path::new(&from).exists() {
                std::fs::rename(&from, &to)?;
            }
        }
        std::fs::rename(&init, path)?;
    }
    let (mut heap, _report) = ModHeap::open_file(path, cfg)?;
    let roots = ServerRoots::open(&mut heap, policy).map_err(io::Error::other)?;
    Ok((SharedModHeap::from_heap_with(heap, workers, mode), roots))
}
