//! Readings taken from outside the server: library counters read only
//! at phase boundaries, plus out-of-band operating-system and file-size
//! readings.

use mod_core::{PipelineStats, SharedModHeap};
use mod_pmem::{BackendStats, PmStats};
use std::path::{Path, PathBuf};

/// Every counter the benchmark reads, taken between two phases (no
/// request in flight). These calls take the commit lock, so they never
/// run inside a measured phase.
pub struct Boundary {
    pub pipeline: PipelineStats,
    pub pm: PmStats,
    pub backend: BackendStats,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub live_bytes: u64,
    pub sim_ns: f64,
    pub io_write_bytes: u64,
    /// Pool base file (the compaction snapshot).
    pub base_bytes: u64,
    /// Base file plus journals.
    pub pool_bytes: u64,
}

pub fn boundary(heap: &SharedModHeap, pool: &Path) -> Boundary {
    let (backend, alloc) = heap.with(|h| (h.nv().pm().backend_stats(), h.nv().stats().clone()));
    Boundary {
        pipeline: heap.stats(),
        pm: heap.lane_stats(),
        backend,
        allocs: alloc.allocs,
        alloc_bytes: alloc.cumulative_alloc_bytes,
        live_bytes: alloc.live_bytes,
        sim_ns: heap.sim_wall_ns(),
        io_write_bytes: io_write_bytes(),
        base_bytes: file_len(pool),
        pool_bytes: pool_files(pool).iter().map(|p| file_len(p)).sum(),
    }
}

/// The pool's files: the base file and any shard journals.
fn pool_files(pool: &Path) -> Vec<PathBuf> {
    let mut files = vec![pool.to_path_buf()];
    for s in 0.. {
        let mut p = pool.as_os_str().to_os_string();
        p.push(format!(".s{s}"));
        let p = PathBuf::from(p);
        if !p.exists() {
            break;
        }
        files.push(p);
    }
    files
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Inode of the pool base file. Compaction writes a new snapshot file
/// and renames it over the base, so the inode changes once per
/// compaction.
pub fn base_inode(pool: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(pool).map_or(0, |m| m.ino())
}

/// Bytes this process caused to be sent to the storage layer
/// (`write_bytes` of `/proc/self/io`).
fn io_write_bytes() -> u64 {
    proc_field("/proc/self/io", "write_bytes:").unwrap_or(0)
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn proc_field(file: &str, name: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}
