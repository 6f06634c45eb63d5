//! The checking client: one thread per connection, closed loop. Each
//! connection writes a window of requests with one `write`, then reads
//! until every reply of the window is decoded and checked against the
//! connection's own model of the keys it owns.

use crate::workload::{self, Op, Rng, Spec, WINDOW};
use mod_core::{ModHeap, SharedModHeap};
use mod_server::{Command, Reply, ReplyDecoder, ServerRoots};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Which requests a phase sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gen {
    /// Every key of the connection once, in order (SETs, then INCRs).
    Fill,
    /// Random requests from the write-only part of the mix.
    Age,
    /// Random requests from the full mix.
    Mix,
}

/// When a connection stops sending windows.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    Requests(u64),
    Until(Instant),
}

/// What one phase observed (summed over connections).
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub attempted: u64,
    /// Replies that were correct (and not errors).
    pub ok: u64,
    /// `-ERR`/`-BUSY` replies.
    pub errors: u64,
    pub busy: u64,
    /// Replies that disagree with the connection's model.
    pub mismatches: u64,
    /// Requests whose reply never came because the connection died.
    pub dropped: u64,
    /// Correct replies within the workload's latency limit.
    pub within_limit: u64,
    pub writes_ok: u64,
    /// Key + value bytes of the correct write replies.
    pub user_bytes: u64,
    /// Write → decoded reply, every reply (ns).
    pub latencies_ns: Vec<u64>,
    pub elapsed: Duration,
}

impl PhaseStats {
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches + self.dropped
    }

    pub fn merge(&mut self, o: PhaseStats) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.errors += o.errors;
        self.busy += o.busy;
        self.mismatches += o.mismatches;
        self.dropped += o.dropped;
        self.within_limit += o.within_limit;
        self.writes_ok += o.writes_ok;
        self.user_bytes += o.user_bytes;
        self.latencies_ns.extend(o.latencies_ns);
        self.elapsed += o.elapsed;
    }
}

struct Pending {
    op: Op,
    key: Vec<u8>,
    value: Vec<u8>,
    seq: u64,
}

/// One connection's generator and model. The model holds, for every key
/// the connection owns, the value of its last acked write; since no
/// other connection touches those keys, every reply is predictable.
pub struct ConnState {
    conn: usize,
    spec: &'static Spec,
    rng: Rng,
    model: HashMap<Vec<u8>, Vec<u8>>,
    fill_next: u64,
    values: u64,
    /// Session id (sessioned workloads).
    client: u64,
    /// Last session seq the server acked, and its reply.
    acked_seq: u64,
    acked_reply: Option<Reply>,
    next_seq: u64,
    last_list_id: i64,
    /// Whether the next list op is a pop.
    pop_next: bool,
    /// Payloads of acked LPUSHes / RPOPs.
    pushed: Vec<Vec<u8>>,
    popped: Vec<Vec<u8>>,
    /// Requests sent on a connection that died before replying: each may
    /// or may not have been applied.
    in_doubt: Vec<Pending>,
}

impl ConnState {
    pub fn all(spec: &'static Spec, seed: u64) -> Vec<ConnState> {
        (0..workload::CONNS)
            .map(|conn| ConnState {
                conn,
                spec,
                rng: Rng::new(seed, conn as u64 + 1),
                model: HashMap::new(),
                fill_next: 0,
                values: 0,
                client: conn as u64 + 1,
                acked_seq: 0,
                acked_reply: None,
                next_seq: 1,
                last_list_id: -1,
                pop_next: false,
                pushed: Vec::new(),
                popped: Vec::new(),
                in_doubt: Vec::new(),
            })
            .collect()
    }

    fn next_request(&mut self, gen: Gen) -> Pending {
        let spec = self.spec;
        let counters_end = spec.keys_per_conn + spec.counters_per_conn;
        let op = match gen {
            Gen::Fill if self.fill_next < spec.keys_per_conn => Op::Set,
            Gen::Fill if self.fill_next < counters_end => Op::Incr,
            Gen::Fill => Op::LPush,
            Gen::Age => spec.draw(&mut self.rng, true),
            Gen::Mix => spec.draw(&mut self.rng, false),
        };
        // List ops alternate per connection, so the list keeps the
        // length the fill pass gave it instead of random-walking.
        let op = match op {
            Op::LPush | Op::RPop if gen != Gen::Fill => {
                let op = if self.pop_next { Op::RPop } else { Op::LPush };
                self.pop_next = !self.pop_next;
                op
            }
            op => op,
        };
        let key = match (gen, op) {
            (Gen::Fill, Op::Set) => workload::data_key(self.conn, self.fill_next),
            (Gen::Fill, Op::Incr) => {
                workload::counter_key(self.conn, self.fill_next - spec.keys_per_conn)
            }
            (_, Op::Get | Op::Set | Op::Del) => {
                workload::data_key(self.conn, self.rng.below(spec.keys_per_conn))
            }
            (_, Op::Incr) => {
                workload::counter_key(self.conn, self.rng.below(spec.counters_per_conn))
            }
            (_, Op::LPush | Op::RPop) => Vec::new(),
        };
        if gen == Gen::Fill {
            self.fill_next += 1;
        }
        let value = match op {
            Op::Set | Op::LPush => {
                self.values += 1;
                let tag = format!(
                    "{}{}.{}.",
                    if op == Op::Set { 'v' } else { 'p' },
                    self.conn,
                    self.values
                );
                workload::unique_value(&tag, spec.value_bytes, &mut self.rng)
            }
            _ => Vec::new(),
        };
        let seq = if spec.sessions {
            self.next_seq += 1;
            self.next_seq - 1
        } else {
            0
        };
        Pending {
            op,
            key,
            value,
            seq,
        }
    }

    fn encode(&self, p: &Pending, wire: &mut Vec<u8>) {
        let cmd = match p.op {
            Op::Get => Command::Get { key: p.key.clone() },
            Op::Set => Command::Set {
                key: p.key.clone(),
                value: p.value.clone(),
            },
            Op::Del => Command::Del { key: p.key.clone() },
            Op::Incr => Command::Incr { key: p.key.clone() },
            Op::LPush => Command::LPush {
                value: p.value.clone(),
            },
            Op::RPop => Command::RPop,
        };
        let cmd = if self.spec.sessions {
            Command::Session {
                client: self.client,
                seq: p.seq,
                inner: Box::new(cmd),
            }
        } else {
            cmd
        };
        wire.extend_from_slice(&cmd.encode());
    }

    /// Checks one reply against the model and, if it is correct,
    /// applies the request to the model.
    fn check(&mut self, p: &Pending, reply: Reply, latency: Duration, st: &mut PhaseStats) {
        st.latencies_ns.push(latency.as_nanos() as u64);
        if let Reply::Err(msg) = &reply {
            st.errors += 1;
            st.busy += u64::from(msg.starts_with("BUSY"));
            return;
        }
        let ok = match p.op {
            Op::Get => reply == Reply::Value(self.model.get(&p.key).cloned()),
            Op::Set => reply == Reply::Ok,
            Op::Del => reply == Reply::Int(i64::from(self.model.contains_key(&p.key))),
            Op::Incr => reply == Reply::Int(self.counter(&p.key) + 1),
            Op::LPush => matches!(reply, Reply::Int(id) if id > self.last_list_id),
            Op::RPop => matches!(reply, Reply::Value(_)),
        };
        if self.spec.sessions {
            // Any non-error reply advanced the server's session.
            self.acked_seq = p.seq;
            self.acked_reply = Some(reply.clone());
        }
        if !ok {
            st.mismatches += 1;
            return;
        }
        match (p.op, reply) {
            (Op::Set, _) => {
                self.model.insert(p.key.clone(), p.value.clone());
            }
            (Op::Del, _) => {
                self.model.remove(&p.key);
            }
            (Op::Incr, _) => {
                let next = self.counter(&p.key) + 1;
                self.model
                    .insert(p.key.clone(), next.to_string().into_bytes());
            }
            (Op::LPush, Reply::Int(id)) => {
                self.last_list_id = id;
                self.pushed.push(p.value.clone());
            }
            (Op::RPop, Reply::Value(Some(v))) => self.popped.push(v),
            _ => {}
        }
        st.ok += 1;
        if p.op != Op::Get {
            st.writes_ok += 1;
            st.user_bytes += (p.key.len() + p.value.len()) as u64;
        }
        st.within_limit += u64::from(latency <= self.spec.latency_limit);
    }

    fn counter(&self, key: &[u8]) -> i64 {
        self.model
            .get(key)
            .and_then(|v| std::str::from_utf8(v).ok()?.parse().ok())
            .unwrap_or(0)
    }

    fn drive(&mut self, addr: SocketAddr, gen: Gen, stop: Stop) -> PhaseStats {
        let mut st = PhaseStats::default();
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                st.attempted = 1;
                st.dropped = 1;
                return st;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let mut dec = ReplyDecoder::new();
        let mut wire = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut pending: Vec<Pending> = Vec::with_capacity(WINDOW);
        let mut sent = 0u64;
        'conn: loop {
            let n = match stop {
                Stop::Requests(total) => (total - sent).min(WINDOW as u64) as usize,
                Stop::Until(t) if Instant::now() < t => WINDOW,
                Stop::Until(_) => 0,
            };
            if n == 0 {
                break;
            }
            wire.clear();
            pending.clear();
            for _ in 0..n {
                let p = self.next_request(gen);
                self.encode(&p, &mut wire);
                pending.push(p);
            }
            st.attempted += n as u64;
            sent += n as u64;
            let t_send = Instant::now();
            if stream.write_all(&wire).is_err() {
                st.dropped += n as u64;
                self.in_doubt.append(&mut pending);
                break;
            }
            let mut got = 0;
            while got < n {
                match stream.read(&mut chunk) {
                    Ok(k) if k > 0 => dec.feed(&chunk[..k]),
                    _ => {
                        st.dropped += (n - got) as u64;
                        self.in_doubt.extend(pending.drain(got..));
                        break 'conn;
                    }
                }
                while got < n {
                    match dec.next_reply() {
                        Ok(Some(reply)) => {
                            let latency = t_send.elapsed();
                            self.check(&pending[got], reply, latency, &mut st);
                            got += 1;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            st.dropped += (n - got) as u64;
                            self.in_doubt.extend(pending.drain(got..));
                            break 'conn;
                        }
                    }
                }
            }
            // A refused session request leaves the server's seq behind
            // ours: resume right after the last acked one.
            self.next_seq = self.acked_seq + 1;
        }
        st
    }

    /// Times a snapshot read (`SharedModHeap::snapshot` +
    /// `ServerRoots::get_from_snapshot`) of every key this connection
    /// owns, checking each against the model. Returns the summed ns, the
    /// reads and the wrong replies.
    pub fn time_snapshot_reads(
        &self,
        heap: &SharedModHeap,
        roots: &ServerRoots,
    ) -> (u64, u64, u64) {
        let (mut ns, mut wrong) = (0u64, 0u64);
        for i in 0..self.spec.keys_per_conn {
            let key = workload::data_key(self.conn, i);
            let t = Instant::now();
            let got = roots.get_from_snapshot(&heap.snapshot(), &key);
            ns += t.elapsed().as_nanos() as u64;
            wrong += u64::from(got != Reply::Value(self.model.get(&key).cloned()));
        }
        (ns, self.spec.keys_per_conn, wrong)
    }

    /// Live user bytes this connection owns in the store (keys + values).
    pub fn live_bytes(&self) -> u64 {
        self.model
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }
}

/// Runs one phase on every connection at once and sums what they saw.
/// `elapsed` is the phase's wall time (slowest connection).
pub fn run_phase(addr: SocketAddr, conns: &mut [ConnState], gen: Gen, stop: Stop) -> PhaseStats {
    let t0 = Instant::now();
    let parts: Vec<PhaseStats> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || c.drive(addr, gen, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect()
    });
    let mut total = PhaseStats::default();
    for p in parts {
        total.merge(p);
    }
    total.elapsed = t0.elapsed();
    total
}

/// The list payloads that must still be queued: every acked push minus
/// every acked pop. Fails if a pop returned a payload nobody pushed, or
/// one payload twice. (A push in doubt may have been popped.)
pub fn expected_list(conns: &[ConnState]) -> Result<HashSet<Vec<u8>>, String> {
    let mut live: HashSet<Vec<u8>> = conns
        .iter()
        .flat_map(|c| c.pushed.iter().cloned())
        .collect();
    let mut doubtful: HashSet<&[u8]> = conns
        .iter()
        .flat_map(|c| &c.in_doubt)
        .filter(|p| p.op == Op::LPush)
        .map(|p| p.value.as_slice())
        .collect();
    for p in conns.iter().flat_map(|c| &c.popped) {
        if !live.remove(p) && !doubtful.remove(p.as_slice()) {
            return Err(format!(
                "RPOP returned {:?}, which was never pushed or was already popped",
                String::from_utf8_lossy(p)
            ));
        }
    }
    Ok(live)
}

/// The durability check on a recovered pool: every acked write, every
/// session's last reply and every queued list payload must be there.
/// The client waited for every reply before the stop, so the recovered
/// state must equal the model exactly, except where a connection died
/// with requests in flight: those may or may not have been applied.
pub fn verify_recovered(
    heap: &mut ModHeap,
    roots: &ServerRoots,
    conns: &[ConnState],
    list: &HashSet<Vec<u8>>,
) -> Result<(), String> {
    let mut keys = 0u64;
    for c in conns {
        let spec = c.spec;
        let doubtful: HashSet<&[u8]> = c.in_doubt.iter().map(|p| p.key.as_slice()).collect();
        let all_keys = (0..spec.keys_per_conn)
            .map(|i| workload::data_key(c.conn, i))
            .chain((0..spec.counters_per_conn).map(|i| workload::counter_key(c.conn, i)));
        for key in all_keys.filter(|k| !doubtful.contains(k.as_slice())) {
            let got = roots.kv.get(heap, &key);
            if got.as_ref() != c.model.get(&key) {
                return Err(format!(
                    "key {} recovered as {:?}, last acked write was {:?}",
                    String::from_utf8_lossy(&key),
                    got.map(|v| String::from_utf8_lossy(&v).into_owned()),
                    c.model
                        .get(&key)
                        .map(|v| String::from_utf8_lossy(v).into_owned()),
                ));
            }
        }
        keys += c.model.len() as u64;
        if spec.sessions && c.acked_seq > 0 {
            let rec = roots.sessions.get(heap, &c.client).unwrap_or_default();
            let seq = rec
                .get(..8)
                .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
            let mut want = c.acked_seq.to_le_bytes().to_vec();
            if let Some(r) = &c.acked_reply {
                r.encode_into(&mut want);
            }
            let lost = if c.in_doubt.is_empty() {
                rec != want
            } else {
                seq < c.acked_seq
            };
            if lost {
                return Err(format!(
                    "session {} lost its acked seq {} or its reply",
                    c.client, c.acked_seq
                ));
            }
        }
    }
    let any_doubt = conns.iter().any(|c| !c.in_doubt.is_empty());
    let stored = roots.kv.len(heap);
    if !any_doubt && stored != keys {
        return Err(format!("store holds {stored} keys, the model {keys}"));
    }
    let mut queued = HashSet::new();
    while let Some(id) = roots.list_ids.dequeue(heap) {
        let blob = roots
            .list_blobs
            .get(heap, &id)
            .ok_or_else(|| format!("list id {id} has no payload"))?;
        queued.insert(blob);
    }
    let doubt = |op: Op| -> Vec<&Pending> {
        conns
            .iter()
            .flat_map(|c| &c.in_doubt)
            .filter(|p| p.op == op)
            .collect()
    };
    let (pushes, pops) = (doubt(Op::LPush), doubt(Op::RPop));
    let missing = list.difference(&queued).count();
    let extra = queued
        .iter()
        .filter(|q| !list.contains(*q) && !pushes.iter().any(|p| &p.value == *q))
        .count();
    if missing > pops.len() || extra > 0 {
        return Err(format!(
            "list lost {missing} acked payloads (with {} pops in doubt) and holds {extra} never pushed",
            pops.len()
        ));
    }
    Ok(())
}
