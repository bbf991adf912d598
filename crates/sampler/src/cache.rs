//! Counted construction of gossip graphs.
//!
//! Nothing here outlives its caller. A graph is a pure function of its
//! dimensions and of the RNG stream its builder consumes, and every
//! caller keys that stream by its own trial's seed — so no later trial
//! could ask for a graph an earlier one built, and keeping it would only
//! keep memory (1.5 MiB a trial at n = 4096, degree 48). Within a trial
//! the tournament builds each committee shape `(k, degree)` once and
//! shares the `Arc` with every committee of that size and the root (4
//! graphs at `scale_profile(4096)`). [`regular_graph`] therefore runs its
//! builder every time, counts one build, and hands the `Arc` back to the
//! caller, who drops the graph with its trial.
//!
//! The cache-shaped names stay because `benchmark/` compiles against
//! them: its probe builds through [`regular_graph`], and its per-layer
//! `sampler.cache_misses` / `sampler.cache_hits` read [`stats`] — graphs
//! built, and 0. A change to `benchmark/` alone retires them (ROADMAP.md
//! item 6(d)).

use crate::RegularGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the build counter (process-cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served without a build: always 0.
    pub hits: u64,
    /// Requests that built, i.e. graphs built.
    pub misses: u64,
}

impl CacheStats {
    /// Counter movement since an earlier snapshot.
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// Current counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: 0,
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Builds a [`RegularGraph`] with `build` and counts the build. `n`,
/// `degree` and `stream` (the `(seed, label)` pair of the RNG stream
/// `build` consumes) name the graph; they are not retained.
pub fn regular_graph(
    n: usize,
    degree: usize,
    stream: (u64, u64),
    build: impl FnOnce() -> RegularGraph,
) -> Arc<RegularGraph> {
    let _ = (n, degree, stream);
    MISSES.fetch_add(1, Ordering::Relaxed);
    Arc::new(build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_request_builds_and_nothing_is_kept() {
        let graph = || {
            regular_graph(64, 6, (0x1111_2222, 0xBEEF), || {
                let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0x1111_2222);
                RegularGraph::random_out_degree(64, 6, &mut rng)
            })
        };
        let before = stats();
        let a = graph();
        let b = graph();
        assert!(!Arc::ptr_eq(&a, &b), "the second request built its own");
        assert_eq!(a.neighbors(5), b.neighbors(5), "from the same stream");
        assert_eq!(stats().since(before), CacheStats { hits: 0, misses: 2 });
        let first = Arc::downgrade(&a);
        drop(a);
        assert!(first.upgrade().is_none(), "nothing else held the graph");
    }
}
