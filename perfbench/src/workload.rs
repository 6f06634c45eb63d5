//! The three traffic mixes, the shared server shape they run against,
//! and the seeded generator that turns a seed into requests.

use mod_core::CommitMode;
use mod_pmem::Durability;
use std::time::Duration;

/// Client connections; each owns a disjoint key range.
pub const CONNS: usize = 2;
/// Requests a connection pipelines before it waits for their replies.
pub const WINDOW: usize = 16;
/// Worker slots of the shared heap (one per connection).
pub const WORKERS: usize = 2;

/// The `mod_server serve` default for two workers.
pub const COMMIT_MODE: CommitMode = CommitMode::Group {
    max_batch: 4,
    timeout: Duration::from_millis(2),
};

/// One request kind of a mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get,
    Set,
    Del,
    Incr,
    LPush,
    RPop,
}

impl Op {
    pub fn is_write(self) -> bool {
        self != Op::Get
    }
}

/// A workload: the traffic mix plus the pool shape it is measured on.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub durability: Durability,
    pub journal_shards: u16,
    /// Wrap every request in `SESSION <client> <seq>`.
    pub sessions: bool,
    /// `(op, percent)`; the percents sum to 100.
    pub mix: &'static [(Op, u32)],
    pub value_bytes: usize,
    /// SET/GET/DEL keys per connection.
    pub keys_per_conn: u64,
    /// INCR keys per connection (disjoint from the SET keys, so an INCR
    /// never meets a non-integer value).
    pub counters_per_conn: u64,
    /// List payloads each connection pushes in the fill pass.
    pub list_fill_per_conn: u64,
    /// Requests per connection after the fill pass, drawn from the
    /// write-only part of the mix, that age the pool to steady state.
    pub age_requests_per_conn: u64,
    /// A reply slower than this misses the goodput count.
    pub latency_limit: Duration,
}

const WRITE_MIX: &[(Op, u32)] = &[(Op::Set, 90), (Op::Get, 10)];
const FSYNC_MIX: &[(Op, u32)] = &[
    (Op::Set, 60),
    (Op::Incr, 10),
    (Op::Del, 10),
    (Op::LPush, 10),
    (Op::RPop, 10),
];
const READ_MIX: &[(Op, u32)] = &[(Op::Get, 95), (Op::Set, 5)];

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "kv-write",
        durability: Durability::Buffered,
        journal_shards: 1,
        sessions: false,
        mix: WRITE_MIX,
        value_bytes: 64,
        keys_per_conn: 1024,
        counters_per_conn: 0,
        list_fill_per_conn: 0,
        age_requests_per_conn: 26_000,
        latency_limit: Duration::from_millis(10),
    },
    Spec {
        name: "kv-fsync",
        durability: Durability::Fsync,
        journal_shards: 2,
        sessions: true,
        mix: FSYNC_MIX,
        value_bytes: 64,
        keys_per_conn: 1024,
        counters_per_conn: 64,
        list_fill_per_conn: 256,
        age_requests_per_conn: 24_000,
        latency_limit: Duration::from_millis(20),
    },
    Spec {
        name: "kv-read",
        durability: Durability::Buffered,
        journal_shards: 1,
        sessions: false,
        mix: READ_MIX,
        value_bytes: 256,
        keys_per_conn: 16_384,
        counters_per_conn: 0,
        list_fill_per_conn: 0,
        age_requests_per_conn: 2_048,
        latency_limit: Duration::from_millis(2),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Requests per connection of the fill pass.
    pub fn fill_len(&self) -> u64 {
        self.keys_per_conn + self.counters_per_conn + self.list_fill_per_conn
    }

    /// Draws an op from the full mix, or from its write-only part.
    pub fn draw(&self, rng: &mut Rng, writes_only: bool) -> Op {
        let total: u32 = self
            .mix
            .iter()
            .filter(|(op, _)| !writes_only || op.is_write())
            .map(|&(_, w)| w)
            .sum();
        let mut pick = (rng.next() % u64::from(total)) as u32;
        for &(op, w) in self.mix {
            if writes_only && !op.is_write() {
                continue;
            }
            if pick < w {
                return op;
            }
            pick -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same requests.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub fn data_key(conn: usize, idx: u64) -> Vec<u8> {
    format!("c{conn}:k{idx:05}").into_bytes()
}

pub fn counter_key(conn: usize, idx: u64) -> Vec<u8> {
    format!("c{conn}:n{idx:03}").into_bytes()
}

/// A value (or list payload) no other write produces: a unique tag
/// padded with seeded letters to `len` bytes, so a stale or foreign
/// value can never pass a check.
pub fn unique_value(tag: &str, len: usize, rng: &mut Rng) -> Vec<u8> {
    let mut v = tag.as_bytes().to_vec();
    while v.len() < len {
        v.push(b'a' + (rng.next() % 26) as u8);
    }
    v
}
