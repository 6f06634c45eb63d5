//! Steady-state benchmark of `mod-server` on a file-backed pool.
//!
//! ```text
//! perfbench --workload <kv-write|kv-fsync|kv-read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON line last: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for the workloads, the
//! metrics and the steady-state rule.

mod client;
mod mirror;
mod probe;
mod workload;

use client::{ConnState, Gen, PhaseStats, Stop};
use mirror::Name;
use mod_core::{ModHeap, PersistPolicy, SharedModHeap};
use mod_pmem::PmemConfig;
use mod_server::{pool, serve_with, ServerConfig, ServerHandle, ServerRoots};
use probe::Boundary;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Spec, WINDOW, WORKERS};

/// Reopens per run; `recovery_s` is their median.
const REOPENS: usize = 5;
/// How far the two halves of the measured phase may disagree on the
/// base-file size and on compactions per 1000 writes before the run is
/// declared not at steady state (the benchmark's largest bound).
const STEADY_TOLERANCE: f64 = 0.25;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let spec = workload::spec(name).ok_or(format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        spec,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <kv-write|kv-fsync|kv-read> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let work = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        run_traced(&args, &work)
    } else {
        run_untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A server running on an aged pool, plus the client state that knows
/// what the pool must hold.
struct Live {
    heap: SharedModHeap,
    roots: ServerRoots,
    server: ServerHandle,
    pool: PathBuf,
    conns: Vec<ConnState>,
}

fn pool_config(spec: &Spec) -> PmemConfig {
    PmemConfig {
        durability: spec.durability,
        journal_shards: spec.journal_shards,
        ..pool::pool_config()
    }
}

/// Creates a pool, serves it and preloads it to steady state: every key
/// once, then the aging requests. The preload runs under the workload's
/// own durability: reopening an aged pool would hand the worker slots
/// arenas carved from its largest free span, which the measured phase
/// then exhausts (see `README.md`).
fn setup(spec: &'static Spec, seed: u64, dir: &Path) -> Result<Live, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let pool = dir.join("pool");
    let (heap, roots) = pool::open_or_create_with(
        &pool,
        WORKERS,
        workload::COMMIT_MODE,
        spec.durability,
        spec.journal_shards,
        PersistPolicy::Full,
    )
    .map_err(|e| format!("cannot open pool {}: {e}", pool.display()))?;
    let server = serve_real(&heap, roots)?;
    let mut conns = ConnState::all(spec, seed);
    let preload = [
        (Gen::Fill, spec.fill_len()),
        (Gen::Age, spec.age_requests_per_conn),
    ];
    for (gen, requests) in preload {
        let st = client::run_phase(server.addr(), &mut conns, gen, Stop::Requests(requests));
        if st.failed() > 0 {
            return Err(format!(
                "preload ({gen:?}) had {} failed requests",
                st.failed()
            ));
        }
    }
    Ok(Live {
        heap,
        roots,
        server,
        pool,
        conns,
    })
}

fn serve_real(heap: &SharedModHeap, roots: ServerRoots) -> Result<ServerHandle, String> {
    serve_with(
        heap.clone(),
        roots,
        "127.0.0.1:0",
        ServerConfig { window: WINDOW },
    )
    .map_err(|e| format!("cannot bind: {e}"))
}

/// Runs the set-up on a fresh pool and times it.
fn timed_setup(args: &Args, work: &Path) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let live = setup(args.spec, args.seed, work)?;
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("perfbench: set-up {secs:.2} s");
    Ok((live, secs))
}

/// The measured phase: two halves of `seconds / 2` each, with a counter
/// boundary before, between and after them.
struct Measured {
    halves: [PhaseStats; 2],
    at: [Boundary; 3],
}

impl Measured {
    fn total(&mut self) -> PhaseStats {
        let mut t = PhaseStats::default();
        for h in &mut self.halves {
            t.merge(std::mem::take(h));
        }
        t
    }
}

fn measure(live: &mut Live, seconds: u64) -> Measured {
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let b0 = probe::boundary(&live.heap, &live.pool);
    let run = |live: &mut Live| {
        let until = Instant::now() + half;
        client::run_phase(
            live.server.addr(),
            &mut live.conns,
            Gen::Mix,
            Stop::Until(until),
        )
    };
    let h1 = run(live);
    let b1 = probe::boundary(&live.heap, &live.pool);
    let h2 = run(live);
    let b2 = probe::boundary(&live.heap, &live.pool);
    Measured {
        halves: [h1, h2],
        at: [b0, b1, b2],
    }
}

/// The steady-state rule: both halves must agree on the base-file size
/// and on compactions per 1000 writes. One compaction of slack covers
/// the counter's granularity.
fn steady_state(m: &Measured) -> Result<(), String> {
    let [b0, b1, b2] = &m.at;
    let size_drift = rel_diff(b1.base_bytes as f64, b2.base_bytes as f64);
    if size_drift > STEADY_TOLERANCE {
        return Err(format!(
            "base file grew from {} to {} bytes between the halves",
            b1.base_bytes, b2.base_bytes
        ));
    }
    let c1 = (b1.backend.compactions - b0.backend.compactions) as f64;
    let c2 = (b2.backend.compactions - b1.backend.compactions) as f64;
    let w1 = m.halves[0].writes_ok.max(1) as f64;
    let w2 = m.halves[1].writes_ok.max(1) as f64;
    let slack = 1000.0 / w1.min(w2);
    let (k1, k2) = (1000.0 * c1 / w1, 1000.0 * c2 / w2);
    if (k1 - k2).abs() > STEADY_TOLERANCE * k1.max(k2) + slack {
        return Err(format!(
            "compactions per 1000 writes differ between the halves: {k1:.3} vs {k2:.3}"
        ));
    }
    Ok(())
}

/// Timings of one reopen after a kill-style stop.
struct Reopen {
    total_s: f64,
    open_ns: u64,
    replay_ns: u64,
    rebuild_ns: u64,
    lines: u64,
}

/// Stops the server and drops the heap with no checkpoint, as a kill
/// would, then reopens the pool `REOPENS` times. The last reopen is
/// checked against the client's model.
fn kill_and_recover(
    live: Live,
    spec: &Spec,
    list: &HashSet<Vec<u8>>,
) -> Result<Vec<Reopen>, String> {
    let Live {
        heap,
        server,
        pool,
        conns,
        ..
    } = live;
    server.stop();
    drop(heap);
    let cfg = pool_config(spec);
    let mut out = Vec::new();
    for i in 0..REOPENS {
        let t0 = Instant::now();
        let (mut heap, _) =
            ModHeap::open_file(&pool, cfg.clone()).map_err(|e| format!("recovery failed: {e}"))?;
        let open_ns = t0.elapsed().as_nanos() as u64;
        let roots = ServerRoots::open(&mut heap, PersistPolicy::Full)
            .map_err(|e| format!("recovered pool lost its roots: {e}"))?;
        let total_s = t0.elapsed().as_secs_f64();
        let replay = heap
            .nv()
            .pm()
            .replay_stats()
            .cloned()
            .ok_or("reopened pool has no replay statistics")?;
        out.push(Reopen {
            total_s,
            open_ns,
            replay_ns: replay.host_ns,
            rebuild_ns: heap.rebuild_ns(),
            lines: replay.lines,
        });
        if i + 1 == REOPENS {
            client::verify_recovered(&mut heap, &roots, &conns, list)
                .map_err(|e| format!("durability check failed: {e}"))?;
        }
    }
    Ok(out)
}

/// User key + value bytes the store must hold.
fn live_user_bytes(conns: &[ConnState], list: &HashSet<Vec<u8>>) -> u64 {
    conns.iter().map(ConnState::live_bytes).sum::<u64>()
        + list.iter().map(|p| p.len() as u64).sum::<u64>()
}

fn run_untraced(args: &Args, work: &Path) -> Result<String, String> {
    let spec = args.spec;
    let (mut live, setup_s) = timed_setup(args, work)?;
    let mut m = measure(&mut live, args.seconds);
    let steady = steady_state(&m);
    let [b0, _, b2] = &m.at;
    let sim_ns = b2.sim_ns - b0.sim_ns;
    let pool_bytes = b2.pool_bytes;
    let peak_rss_mb = probe::peak_rss_mb();
    let t = m.total();
    let list = client::expected_list(&live.conns);
    let list_set = list.clone().unwrap_or_default();
    let user_bytes = live_user_bytes(&live.conns, &list_set);
    let reopens = kill_and_recover(live, spec, &list_set)?;
    let mut lat = t.latencies_ns.clone();
    lat.sort_unstable();
    let metrics = vec![
        ("ops_per_s", ops_per_s(&t), "1/s"),
        ("p50_us", quantile(&lat, 0.50) / 1e3, "us"),
        ("p999_us", quantile(&lat, 0.999) / 1e3, "us"),
        (
            "goodput_per_s",
            t.within_limit as f64 / t.elapsed.as_secs_f64(),
            "1/s",
        ),
        ("setup_s", setup_s, "s"),
        (
            "recovery_s",
            median(reopens.iter().map(|r| r.total_s).collect()),
            "s",
        ),
        ("sim_ns_per_op", sim_ns / t.ok.max(1) as f64, "ns"),
        (
            "space_amp",
            pool_bytes as f64 / user_bytes.max(1) as f64,
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    Ok(report(&[&t], &[steady, list.map(|_| ())], &metrics))
}

fn run_traced(args: &Args, work: &Path) -> Result<String, String> {
    let spec = args.spec;
    let (mut live, _) = timed_setup(args, work)?;
    let mut m = measure(&mut live, args.seconds);
    let steady = steady_state(&m);
    let [b0, _, b2] = &m.at;
    let d = Deltas::between(b0, b2);
    let snapshot_mb = b2.base_bytes as f64 / 1e6;
    let live_alloc = b2.live_bytes as f64;
    let untraced = m.total();

    // The same mix against the traced mirror, on the same heap. The real
    // server stays up but idle: its connections are gone and its worker
    // slots left the quorum with them.
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (traced, traces) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let pool = &live.pool;
            mirror::serve(
                &live.heap,
                live.roots,
                &listener,
                workload::CONNS,
                WINDOW,
                pool,
            )
        });
        let st = client::run_phase(addr, &mut live.conns, Gen::Mix, Stop::Until(deadline));
        (st, server.join().expect("traced server panicked"))
    });
    let traces = traces.map_err(|e| format!("traced server: {e}"))?;
    std::fs::create_dir_all(".perfbench_out").map_err(|e| e.to_string())?;
    let spans_file = PathBuf::from(".perfbench_out").join(format!("spans-{}.tsv", spec.name));
    mirror::write_spans(&traces, &spans_file).map_err(|e| format!("cannot write spans: {e}"))?;
    let r = mirror::reduce(&traces);

    let (mut snap_ns, mut snap_reads, mut snap_wrong) = (0, 0, 0);
    for c in &live.conns {
        let (ns, reads, wrong) = c.time_snapshot_reads(&live.heap, &live.roots);
        (snap_ns, snap_reads, snap_wrong) = (snap_ns + ns, snap_reads + reads, snap_wrong + wrong);
    }
    let snapshot_check = match snap_wrong {
        0 => Ok(()),
        n => Err(format!("{n} snapshot reads disagreed with the model")),
    };
    let list = client::expected_list(&live.conns);
    let list_set = list.clone().unwrap_or_default();
    let reopens = kill_and_recover(live, spec, &list_set)?;

    let sum = |f: &dyn Fn(&mirror::ConnTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    let requests = sum(&|t| t.requests);
    let fases = sum(&|t| t.fases);
    let snap_gets = sum(&|t| t.snapshot_gets);
    let all_gets = snap_gets + sum(&|t| t.pipeline_gets);
    let mut waits: Vec<u64> = traces
        .iter()
        .flat_map(|t| t.waits.iter().map(|w| w.0))
        .collect();
    waits.sort_unstable();
    let wait_total = waits.iter().sum::<u64>() as f64;
    let wait_compacting = sum(&|t| t.waits.iter().filter(|w| w.1).map(|w| w.0).sum());
    let rmed = |f: &dyn Fn(&Reopen) -> u64| median(reopens.iter().map(|r| f(r) as f64).collect());
    let writes = untraced.writes_ok as f64;
    let attempted = (untraced.attempted + traced.attempted) as f64;
    let busy = (untraced.busy + traced.busy) as f64;
    let failed = (untraced.failed() + traced.failed()) as f64;
    let mut lat = untraced.latencies_ns.clone();
    lat.sort_unstable();
    let metrics = vec![
        ("p99_us", quantile(&lat, 0.99) / 1e3, "us"),
        (
            "conn.read_ns_per_req",
            per(r.total(Name::Read), requests),
            "ns",
        ),
        (
            "conn.write_ns_per_req",
            per(r.total(Name::Write), requests),
            "ns",
        ),
        (
            "proto.decode_ns",
            per(r.total(Name::Decode), requests),
            "ns",
        ),
        (
            "proto.encode_ns",
            per(r.total(Name::Encode), requests),
            "ns",
        ),
        (
            "read.snapshot_ns",
            per(snap_ns as f64, snap_reads as f64),
            "ns",
        ),
        ("read.snapshot_share", per(snap_gets, all_gets), "ratio"),
        (
            "stage.fase_self_ns",
            per(r.self_time(Name::Fase), fases),
            "ns",
        ),
        (
            "stage.lane_conflicts_per_kop",
            1e3 * per(d.lane_conflicts, untraced.ok as f64),
            "1/kop",
        ),
        ("stage.busy_ratio", per(busy, attempted), "ratio"),
        (
            "engine.execute_ns",
            per(r.total(Name::Execute), fases),
            "ns",
        ),
        ("alloc.allocs_per_write", per(d.allocs, writes), "count"),
        ("alloc.bytes_per_write", per(d.alloc_bytes, writes), "B"),
        ("alloc.live_bytes", live_alloc, "B"),
        ("commit.wait_ns.p50", quantile(&waits, 0.50), "ns"),
        ("commit.wait_ns.p99", quantile(&waits, 0.99), "ns"),
        (
            "commit.fases_per_batch",
            per(d.batched_fases, d.batches),
            "count",
        ),
        (
            "commit.noop_share",
            per(d.fases - d.batched_fases, d.fases),
            "ratio",
        ),
        ("pmem.fences_per_batch", per(d.fences, d.batches), "count"),
        (
            "pmem.flushes_per_write",
            per(d.flushes_issued, writes),
            "count",
        ),
        (
            "pmem.dedup_ratio",
            per(d.flushes_deduped, d.flushes_issued),
            "ratio",
        ),
        ("pmem.stall_ns_per_write", per(d.stall_ns, writes), "ns"),
        ("journal.bytes_per_write", per(d.journal_bytes, writes), "B"),
        (
            "journal.fsync_rounds_per_write",
            per(d.fsync_rounds, writes),
            "count",
        ),
        (
            "journal.fsyncs_per_round",
            per(d.fsyncs, d.fsync_rounds),
            "count",
        ),
        (
            "compaction.per_kwrite",
            1e3 * per(d.compactions, writes),
            "1/kwrite",
        ),
        ("compaction.snapshot_mb", snapshot_mb, "MB"),
        (
            "compaction.write_amp",
            per(d.io_write_bytes, untraced.user_bytes as f64),
            "ratio",
        ),
        (
            "compaction.stall_share",
            per(wait_compacting, wait_total),
            "ratio",
        ),
        ("recovery.replay_ms", rmed(&|r| r.replay_ns) / 1e6, "ms"),
        (
            "recovery.sweep_ms",
            rmed(&|r| r.open_ns.saturating_sub(r.replay_ns + r.rebuild_ns)) / 1e6,
            "ms",
        ),
        ("recovery.replayed_lines", rmed(&|r| r.lines), "count"),
        ("error_ratio", per(failed, attempted), "ratio"),
        (
            "trace.ops_ratio",
            per(ops_per_s(&traced), ops_per_s(&untraced)),
            "ratio",
        ),
        (
            "trace.unattributed_share",
            per(r.self_time(Name::Window), r.total(Name::Window)),
            "ratio",
        ),
    ];
    let checks = [steady, list.map(|_| ()), snapshot_check];
    Ok(report(&[&untraced, &traced], &checks, &metrics))
}

fn ops_per_s(p: &PhaseStats) -> f64 {
    p.ok as f64 / p.elapsed.as_secs_f64()
}

/// `a / b`, or 0 when nothing was counted.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Counter deltas across the measured phase, as floats.
struct Deltas {
    lane_conflicts: f64,
    allocs: f64,
    alloc_bytes: f64,
    fases: f64,
    batched_fases: f64,
    batches: f64,
    fences: f64,
    flushes_issued: f64,
    flushes_deduped: f64,
    stall_ns: f64,
    journal_bytes: f64,
    fsyncs: f64,
    fsync_rounds: f64,
    compactions: f64,
    io_write_bytes: f64,
}

impl Deltas {
    fn between(a: &Boundary, b: &Boundary) -> Deltas {
        let d = |x: u64, y: u64| (y - x) as f64;
        Deltas {
            lane_conflicts: d(a.pipeline.lane_conflicts, b.pipeline.lane_conflicts),
            allocs: d(a.allocs, b.allocs),
            alloc_bytes: d(a.alloc_bytes, b.alloc_bytes),
            fases: d(a.pipeline.fases, b.pipeline.fases),
            batched_fases: d(a.pipeline.batched_fases, b.pipeline.batched_fases),
            batches: d(a.pipeline.batches, b.pipeline.batches),
            fences: d(a.pm.fences, b.pm.fences),
            flushes_issued: d(a.pm.flushes_issued, b.pm.flushes_issued),
            flushes_deduped: d(a.pm.flushes_deduped, b.pm.flushes_deduped),
            stall_ns: b.pm.residual_stall_ns - a.pm.residual_stall_ns,
            journal_bytes: d(a.backend.journal_bytes, b.backend.journal_bytes),
            fsyncs: d(a.backend.fsyncs, b.backend.fsyncs),
            fsync_rounds: d(a.backend.fsync_rounds, b.backend.fsync_rounds),
            compactions: d(a.backend.compactions, b.backend.compactions),
            io_write_bytes: d(a.io_write_bytes, b.io_write_bytes),
        }
    }
}

/// The result line. The run is correct when no reply disagreed with the
/// model, no connection dropped, no `-ERR` other than `-BUSY`
/// backpressure came back, and every extra check passed.
fn report(
    phases: &[&PhaseStats],
    checks: &[Result<(), String>],
    metrics: &[(&str, f64, &str)],
) -> String {
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed()).sum();
    let wrong: u64 = phases
        .iter()
        .map(|p| p.mismatches + p.dropped + (p.errors - p.busy))
        .sum();
    let mut correct = wrong == 0;
    if wrong > 0 {
        eprintln!("perfbench: {wrong} replies were wrong, errors or lost");
    }
    for c in checks {
        if let Err(e) = c {
            eprintln!("perfbench: {e}");
            correct = false;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let m = a.max(b);
    if m == 0.0 {
        0.0
    } else {
        (a - b).abs() / m
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}
