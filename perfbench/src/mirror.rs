//! The traced run's server: a mirror of `mod-server`'s per-connection
//! loop (`crates/server/src/conn.rs`) built only from the public calls
//! that loop makes, with a span around each call. Spans stay in memory
//! per connection thread and are reduced to self times (and written
//! out) after the phase.

use mod_core::{CommitTicket, EngineError, SharedModHeap};
use mod_server::{Command, FrameDecoder, Reply, ServerRoots};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// The span names, one per layer boundary the loop crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `TcpStream::read` (includes waiting for the client's next window).
    Read,
    /// One reply window: decode through reply write.
    Window,
    /// `FrameDecoder::next_frame` + `Command::parse`.
    Decode,
    /// `SharedModHeap::snapshot` + `ServerRoots::get_from_snapshot`.
    Snapshot,
    /// `SharedModHeap::try_fase_ticketed`.
    Fase,
    /// `ServerRoots::execute_in`, inside the FASE closure.
    Execute,
    /// `Reply::encode_into`.
    Encode,
    /// `SharedModHeap::try_wait_durable`.
    Wait,
    /// `TcpStream::write_all` + `flush`.
    Write,
    /// The benchmark's own compaction probe (a `stat` of the pool file).
    Probe,
}

const KINDS: usize = Name::Probe as usize + 1;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Request id: connection in the top 16 bits, request number below.
    /// Window-level spans carry the window's first request.
    pub req: u64,
}

/// One connection thread's spans and counts.
pub struct ConnTrace {
    t0: Instant,
    pub spans: Vec<Span>,
    pub requests: u64,
    pub snapshot_gets: u64,
    pub pipeline_gets: u64,
    pub fases: u64,
    /// Per window with a durability wait: (wait ns, whether the pool
    /// compacted between the window's start and the wait's end).
    pub waits: Vec<(u64, bool)>,
}

impl ConnTrace {
    fn begin(&mut self, name: Name, parent: u32, req: u64) -> u32 {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, span: u32) -> u64 {
        let now = self.t0.elapsed().as_nanos() as u64;
        let s = &mut self.spans[span as usize];
        s.end_ns = now;
        now - s.start_ns
    }
}

/// Accepts `conns` connections on `listener` and serves each on its own
/// worker slot until the client hangs up, exactly as the real listener
/// and connection loop would, recording spans.
pub fn serve(
    heap: &SharedModHeap,
    roots: ServerRoots,
    listener: &TcpListener,
    conns: usize,
    window: usize,
    pool: &Path,
) -> std::io::Result<Vec<ConnTrace>> {
    let t0 = Instant::now();
    for w in 0..heap.workers() {
        heap.deregister(w);
    }
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        while handles.len() < conns {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let worker = handles.len() % heap.workers();
                    heap.register(worker);
                    handles.push(s.spawn(move || {
                        let mut tr = ConnTrace {
                            t0,
                            spans: Vec::with_capacity(1 << 20),
                            requests: 0,
                            snapshot_gets: 0,
                            pipeline_gets: 0,
                            fases: 0,
                            waits: Vec::new(),
                        };
                        serve_conn(heap, roots, worker, window, stream, pool, &mut tr);
                        heap.deregister(worker);
                        tr
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("traced connection thread panicked"))
            .collect())
    })
}

fn serve_conn(
    heap: &SharedModHeap,
    roots: ServerRoots,
    worker: usize,
    window: usize,
    mut stream: TcpStream,
    pool: &Path,
    tr: &mut ConnTrace,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut out = Vec::new();
    let conn_bits = (worker as u64) << 48;
    let mut req = conn_bits;
    'conn: loop {
        let r = tr.begin(Name::Read, NO_PARENT, req);
        let n = stream.read(&mut chunk);
        tr.end(r);
        match n {
            Ok(0) => break,
            Ok(n) => dec.feed(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
        while !dec.is_empty() {
            out.clear();
            let mut batch = 0usize;
            let mut last_ticket: Option<CommitTicket> = None;
            let w = tr.begin(Name::Window, NO_PARENT, req);
            let p = tr.begin(Name::Probe, w, req);
            let inode = crate::probe::base_inode(pool);
            tr.end(p);
            while batch < window {
                let d = tr.begin(Name::Decode, w, req);
                let tokens = match dec.next_frame() {
                    Ok(Some(t)) => t,
                    Ok(None) => {
                        tr.end(d);
                        break;
                    }
                    Err(e) => {
                        let _ = stream.write_all(&Reply::Err(format!("ERR {e}")).encode());
                        break 'conn;
                    }
                };
                let cmd = Command::parse(&tokens);
                tr.end(d);
                batch += 1;
                let reply = match cmd {
                    Err(msg) => Reply::Err(msg),
                    Ok(Command::Ping) => Reply::Pong,
                    Ok(Command::Get { ref key }) if last_ticket.is_none() => {
                        tr.snapshot_gets += 1;
                        let s = tr.begin(Name::Snapshot, w, req);
                        let reply = roots.get_from_snapshot(&heap.snapshot(), key);
                        tr.end(s);
                        reply
                    }
                    Ok(Command::RPeek) if last_ticket.is_none() => {
                        let s = tr.begin(Name::Snapshot, w, req);
                        let reply = roots.rpeek_from_snapshot(&heap.snapshot());
                        tr.end(s);
                        reply
                    }
                    Ok(cmd) => {
                        if matches!(cmd, Command::Get { .. }) {
                            tr.pipeline_gets += 1;
                        }
                        tr.fases += 1;
                        let f = tr.begin(Name::Fase, w, req);
                        let staged = heap.try_fase_ticketed(worker, |tx| {
                            let e = tr.begin(Name::Execute, f, req);
                            let reply = roots.execute_in(tx, &cmd);
                            tr.end(e);
                            reply
                        });
                        tr.end(f);
                        match staged {
                            Ok((reply, ticket)) => {
                                last_ticket = Some(ticket);
                                reply
                            }
                            Err(EngineError::Contention(_)) => {
                                Reply::Err("BUSY staging lanes contended; retry the request".into())
                            }
                            Err(EngineError::Poisoned(e)) => {
                                let _ = stream.write_all(&Reply::Err(format!("ERR {e}")).encode());
                                break 'conn;
                            }
                        }
                    }
                };
                let e = tr.begin(Name::Encode, w, req);
                reply.encode_into(&mut out);
                tr.end(e);
                req += 1;
            }
            if batch == 0 {
                // Nothing decodable: not a window.
                tr.spans.truncate(w as usize);
                break;
            }
            tr.requests += batch as u64;
            if let Some(t) = &last_ticket {
                let s = tr.begin(Name::Wait, w, req - 1);
                let waited = heap.try_wait_durable(t);
                let ns = tr.end(s);
                let p = tr.begin(Name::Probe, w, req - 1);
                let compacted = crate::probe::base_inode(pool) != inode;
                tr.end(p);
                tr.waits.push((ns, compacted));
                if let Err(e) = waited {
                    let _ = stream.write_all(&Reply::Err(format!("ERR {e}")).encode());
                    break 'conn;
                }
            }
            let s = tr.begin(Name::Write, w, req - 1);
            let sent = stream.write_all(&out).and_then(|()| stream.flush());
            tr.end(s);
            tr.end(w);
            if sent.is_err() {
                break 'conn;
            }
        }
    }
}

/// Per-name totals over all connections: summed duration and summed
/// self time (duration minus the children's durations), in ns.
pub struct Reduced {
    total_ns: [u64; KINDS],
    self_ns: [u64; KINDS],
}

impl Reduced {
    pub fn total(&self, name: Name) -> f64 {
        self.total_ns[name as usize] as f64
    }

    pub fn self_time(&self, name: Name) -> f64 {
        self.self_ns[name as usize] as f64
    }
}

pub fn reduce(traces: &[ConnTrace]) -> Reduced {
    let mut r = Reduced {
        total_ns: [0; KINDS],
        self_ns: [0; KINDS],
    };
    for t in traces {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in t.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            r.total_ns[s.name as usize] += dur;
            r.self_ns[s.name as usize] += dur - child.min(dur);
        }
    }
    r
}

/// Writes every span as one tab-separated line.
pub fn write_spans(traces: &[ConnTrace], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "conn\tspan\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (c, t) in traces.iter().enumerate() {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{c}\t{i}\t{:?}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    w.flush()
}
