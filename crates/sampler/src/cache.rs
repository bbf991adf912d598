//! Process-wide memoization of sampler and regular-graph construction.
//!
//! Every graph this crate builds is a pure function of its dimensions
//! and of the RNG stream it consumes — callers derive that stream from a
//! `(seed, label)` pair and consume it exclusively. Sweeps therefore
//! rebuild byte-identical structures over and over: every trial of a
//! bench case reconstructs the same gossip graph over all processors,
//! and every adversary case of an experiment re-runs the same seeds. The
//! registry here returns the `Arc` built the first time instead. (A
//! committee's election graph is not registered: one election uses it,
//! and keeping it only keeps it alive.)
//!
//! Correctness contract for callers: the `(seed, label)` stream key plus
//! the dimension arguments MUST uniquely determine the builder's output.
//! Hand the cache a key that two different builders share and it will
//! happily serve one builder's graph to the other.
//!
//! Determinism: a cache hit returns exactly the value a miss would have
//! built (pure function of the key), so caching can never perturb a
//! run's outcome — only its wall clock. The hit/miss counters are
//! deterministic for a cold process regardless of thread interleaving:
//! concurrent builders of the same key race to insert, but the loser
//! counts its request as a hit, so misses always equal the number of
//! distinct keys constructed.

use crate::{RegularGraph, Sampler};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bounds on what the registry retains: entries, and bytes of edge/cell
/// payload as the keys' dimensions give them. Reaching either clears the
/// whole map (values are pure functions of their keys, so eviction is
/// always safe). The entry bound caps sweeps of many small graphs; the
/// byte bound caps the few big ones (a root graph at n = 2¹⁷ alone is
/// tens of MiB).
const CAPACITY: usize = 512;
const CAPACITY_BYTES: u64 = 64 << 20;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    /// Value discriminant: 0 = regular graph, 1 = sampler.
    kind: u8,
    /// Dimensions: (n, degree, 0) for graphs, (r, s, d) for samplers.
    dims: [u64; 3],
    /// The RNG stream identity the builder consumes, as the caller's
    /// `(seed, label)` derivation pair.
    stream: (u64, u64),
}

impl Key {
    /// Bytes of `u32` payload the value holds: both directions of
    /// `n·degree` edges, or `r·d` sampler cells.
    fn payload_bytes(&self) -> u64 {
        let [a, b, c] = self.dims;
        match self.kind {
            0 => 8 * a * b,
            _ => 4 * a * c,
        }
    }
}

#[derive(Clone)]
enum Value {
    Graph(Arc<RegularGraph>),
    Sampler(Arc<Sampler>),
}

/// The retained values and the sum of their keys' payload bytes.
#[derive(Default)]
struct Registry {
    map: HashMap<Key, Value>,
    bytes: u64,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the registry's hit/miss counters (process-cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the registry.
    pub hits: u64,
    /// Requests that had to build (== distinct keys constructed).
    pub misses: u64,
}

impl CacheStats {
    /// Total requests seen.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Counter movement since an earlier snapshot.
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// Current hit/miss counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

fn lookup(key: Key, build: impl FnOnce() -> Value) -> Value {
    let registry = REGISTRY.get_or_init(Mutex::default);
    let unpoisoned = |r: &'static Mutex<Registry>| r.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(v) = unpoisoned(registry).map.get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return v.clone();
    }
    // Build outside the lock so concurrent misses on *different* keys
    // construct in parallel; a same-key race resolves below.
    let built = build();
    let mut reg = unpoisoned(registry);
    if let Some(v) = reg.map.get(&key) {
        // Another thread built it first: count ourselves as a hit so
        // misses stay equal to the number of distinct keys.
        HITS.fetch_add(1, Ordering::Relaxed);
        return v.clone();
    }
    if reg.map.len() >= CAPACITY || reg.bytes + key.payload_bytes() > CAPACITY_BYTES {
        reg.map.clear();
        reg.bytes = 0;
    }
    reg.bytes += key.payload_bytes();
    reg.map.insert(key, built.clone());
    MISSES.fetch_add(1, Ordering::Relaxed);
    built
}

/// Memoized [`RegularGraph`] construction. `stream` is the `(seed,
/// label)` pair of the derived RNG stream `build` consumes; together
/// with `(n, degree)` it must uniquely determine the graph.
pub fn regular_graph(
    n: usize,
    degree: usize,
    stream: (u64, u64),
    build: impl FnOnce() -> RegularGraph,
) -> Arc<RegularGraph> {
    let key = Key {
        kind: 0,
        dims: [n as u64, degree as u64, 0],
        stream,
    };
    match lookup(key, || Value::Graph(Arc::new(build()))) {
        Value::Graph(g) => g,
        Value::Sampler(_) => unreachable!("kind 0 only stores graphs"),
    }
}

/// Memoized [`Sampler`] construction. `stream` is the `(seed, label)`
/// pair of the derived RNG stream `build` consumes; together with
/// `(r, s, d)` it must uniquely determine the assignment.
pub fn sampler(
    r: usize,
    s: usize,
    d: usize,
    stream: (u64, u64),
    build: impl FnOnce() -> Sampler,
) -> Arc<Sampler> {
    let key = Key {
        kind: 1,
        dims: [r as u64, s as u64, d as u64],
        stream,
    };
    match lookup(key, || Value::Sampler(Arc::new(build()))) {
        Value::Sampler(h) => h,
        Value::Graph(_) => unreachable!("kind 1 only stores samplers"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The registry and its counters are process-wide; the tests below
    /// take turns so each reads its own traffic.
    static TURN: Mutex<()> = Mutex::new(());

    fn turn() -> std::sync::MutexGuard<'static, ()> {
        TURN.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn graph_for(seed: u64) -> Arc<RegularGraph> {
        regular_graph(64, 6, (seed, 0xBEEF), || {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            RegularGraph::random_out_degree(64, 6, &mut rng)
        })
    }

    #[test]
    fn repeat_requests_hit_and_share_the_allocation() {
        let _turn = turn();
        let before = stats();
        let a = graph_for(0x1111_2222);
        let b = graph_for(0x1111_2222);
        assert!(Arc::ptr_eq(&a, &b), "second request must reuse the Arc");
        assert_eq!(stats().since(before), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_streams_get_distinct_values() {
        let _turn = turn();
        let a = graph_for(0x3333_4444);
        let b = graph_for(0x5555_6666);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn samplers_cache_too() {
        let _turn = turn();
        let build = || {
            sampler(16, 64, 8, (0x7777, 0xF00D), || {
                let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0x7777);
                Sampler::random(16, 64, 8, &mut rng)
            })
        };
        let a = build();
        let b = build();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.sample(3), b.sample(3));
    }

    #[test]
    fn crossing_the_byte_bound_clears_and_misses_count_distinct_builds() {
        let _turn = turn();
        let before = stats();
        let builds = AtomicU64::new(0);
        let small = |seed: u64| {
            regular_graph(64, 6, (seed, 0xB17E), || {
                builds.fetch_add(1, Ordering::Relaxed);
                let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
                RegularGraph::random_out_degree(64, 6, &mut rng)
            })
        };
        let first = small(1);
        assert!(Arc::ptr_eq(&first, &small(1)), "retained below the bound");
        // 2 × 32 MiB of edges on top of `first`: whatever else the
        // registry held, the byte bound trips by the second insert —
        // long before 512 entries.
        let (n, degree) = (4096, 1024);
        assert!(2 * 8 * (n * degree) as u64 >= CAPACITY_BYTES);
        for seed in 2..4u64 {
            regular_graph(n, degree, (seed, 0xB17E), || {
                builds.fetch_add(1, Ordering::Relaxed);
                let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
                RegularGraph::random_out_degree(n, degree, &mut rng)
            });
        }
        assert!(!Arc::ptr_eq(&first, &small(1)), "cleared with the rest");
        let delta = stats().since(before);
        assert_eq!(delta.misses, builds.load(Ordering::Relaxed));
        assert_eq!(delta, CacheStats { hits: 1, misses: 4 });
    }
}
