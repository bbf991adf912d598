//! Random regular graphs for the AEBA gossip layer.
//!
//! Theorem 5 runs Algorithm 5 on "a random k·log n regular graph". Its
//! proof explicitly compares the regular graph to the out-degree model
//! where each vertex draws `k·log n` endpoints uniformly at random ("Y is
//! the number of edges if G were generated by having k log n edges from
//! each vertex with endpoint selected uniformly at random"); that
//! out-degree model is the construction this module builds.

use rand::Rng;

/// An undirected multigraph in which every vertex has (at least) the
/// requested degree, stored as one flat edge array (CSR).
///
/// Rows are symmetric with multiplicity — `u` occurs in row `v` exactly
/// as often as `v` in row `u` — and `ba_core::aeba`'s committee kernel
/// relies on it (it counts a member's neighbourhood from the other end
/// of each edge); a constructor that lists an edge in one row only needs
/// another type.
#[derive(Clone, Debug)]
pub struct RegularGraph {
    /// Row `v` is `edges[offsets[v]..offsets[v + 1]]`; `n + 1` entries.
    offsets: Vec<usize>,
    edges: Vec<u32>,
}

impl RegularGraph {
    /// Lays out the undirected edges `(v, u)` given in the order they
    /// were drawn. Each row lists its endpoints in that same order (row
    /// order is observable: gossip sends follow it), `v`'s entry before
    /// `u`'s for one edge.
    fn from_draws(n: usize, draws: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(v, u) in draws {
            offsets[v as usize + 1] += 1;
            offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut edges = vec![0u32; 2 * draws.len()];
        for &(v, u) in draws {
            edges[next[v as usize]] = u;
            next[v as usize] += 1;
            edges[next[u as usize]] = v;
            next[u as usize] += 1;
        }
        RegularGraph { offsets, edges }
    }

    /// The out-degree model of Theorem 5's proof: each vertex draws
    /// `degree` endpoints uniformly at random; edges are used in both
    /// directions (so realized degrees are `degree` plus a Binomial
    /// in-degree, concentrated around `2·degree`).
    ///
    /// An edge is one `next_u32()` and nothing else, vertices ascending,
    /// `degree` draws each: the word is widened against the `n − 1` other
    /// vertices (`word · (n − 1) >> 32`, off uniform by at most
    /// `(n − 1)/2³²`), so a 16-word generator block is 16 edges.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `n > 2³²` or `degree == 0`.
    pub fn random_out_degree<R: Rng + ?Sized>(n: usize, degree: usize, rng: &mut R) -> Self {
        assert!(n >= 2, "graph needs at least two vertices");
        assert!(n as u64 <= 1 << 32, "one 32-bit word must cover a vertex");
        assert!(degree > 0, "degree must be positive");
        let others = (n - 1) as u64;
        let mut draws = Vec::with_capacity(n * degree);
        for v in 0..n as u32 {
            for _ in 0..degree {
                // Uniform endpoint, excluding self-loops.
                let mut u = ((u64::from(rng.next_u32()) * others) >> 32) as u32;
                if u >= v {
                    u += 1;
                }
                draws.push((v, u));
            }
        }
        Self::from_draws(n, &draws)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no vertices (never true for constructed
    /// graphs; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbor list of `v` (with multiplicity).
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ n`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Realized degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Minimum realized degree over all vertices.
    pub fn min_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Maximum realized degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether the graph is connected (BFS).
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                let u = u as usize;
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn out_degree_model_basic() {
        let g = RegularGraph::random_out_degree(50, 6, &mut rng(1));
        assert_eq!(g.len(), 50);
        assert!(!g.is_empty());
        // Every vertex initiated 6 edges, so degree ≥ 6.
        assert!(g.min_degree() >= 6);
        // Total degree = 2 × edges = 2 × 50 × 6.
        let total: usize = (0..50).map(|v| g.degree(v)).sum();
        assert_eq!(total, 2 * 50 * 6);
    }

    #[test]
    fn no_self_loops() {
        let g = RegularGraph::random_out_degree(20, 8, &mut rng(2));
        for v in 0..20 {
            assert!(g.neighbors(v).iter().all(|&u| u as usize != v));
        }
    }

    #[test]
    fn adequate_degree_gives_connectivity() {
        // log2(200) ≈ 7.6; degree 8 random graphs are connected w.h.p.
        let g = RegularGraph::random_out_degree(200, 8, &mut rng(5));
        assert!(g.is_connected());
    }

    #[test]
    fn symmetry_of_edge_lists() {
        let g = RegularGraph::random_out_degree(30, 4, &mut rng(7));
        // Count (v,u) incidences both ways: must match as multisets.
        let mut fwd = std::collections::HashMap::new();
        for v in 0..30 {
            for &u in g.neighbors(v) {
                *fwd.entry((v.min(u as usize), v.max(u as usize)))
                    .or_insert(0i64) += 1;
            }
        }
        // Every undirected edge is listed exactly twice (once per side).
        assert!(fwd.values().all(|&c| c % 2 == 0));
    }

    #[test]
    fn rows_are_symmetric_with_multiplicity() {
        let occurrences = |g: &RegularGraph, v: usize, u: usize| {
            g.neighbors(v).iter().filter(|&&w| w as usize == u).count()
        };
        // Dense enough on few vertices that most pairs repeat.
        let g = RegularGraph::random_out_degree(24, 9, &mut rng(13));
        let mut repeated = 0;
        for v in 0..g.len() {
            assert_eq!(occurrences(&g, v, v), 0, "self-loop at {v}");
            for u in 0..g.len() {
                assert_eq!(occurrences(&g, v, u), occurrences(&g, u, v), "({v}, {u})");
                repeated += (occurrences(&g, v, u) > 1) as usize;
            }
        }
        assert!(repeated > 0, "no multi-edge: multiplicity went unchecked");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_graph_rejected() {
        let _ = RegularGraph::random_out_degree(1, 3, &mut rng(0));
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_rejected() {
        let _ = RegularGraph::random_out_degree(5, 0, &mut rng(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RegularGraph::random_out_degree(40, 5, &mut rng(9));
        let b = RegularGraph::random_out_degree(40, 5, &mut rng(9));
        for v in 0..40 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    /// Counts the words a build takes, by width.
    struct Counting {
        inner: ChaCha12Rng,
        words32: usize,
        words64: usize,
    }

    impl rand::RngCore for Counting {
        fn next_u32(&mut self) -> u32 {
            self.words32 += 1;
            self.inner.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.words64 += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn out_degree_build_spends_one_32_bit_word_an_edge() {
        // The election's committee shape under the scale profile.
        let (k, d) = (4096usize, 48usize);
        let mut counting = Counting {
            inner: rng(21),
            words32: 0,
            words64: 0,
        };
        let g = RegularGraph::random_out_degree(k, d, &mut counting);
        assert_eq!((counting.words32, counting.words64), (k * d, 0));
        // Replaying the words through an adjacency-list build gives the
        // same rows: vertex-major draws, `v`'s entry pushed before `u`'s.
        let mut twin = rng(21);
        let mut rows = vec![Vec::new(); k];
        let mut drawn = vec![0u64; k];
        for v in 0..k {
            for _ in 0..d {
                let word = u64::from(rand::RngCore::next_u32(&mut twin));
                let mut u = ((word * (k as u64 - 1)) >> 32) as usize;
                u += usize::from(u >= v);
                assert_ne!(u, v, "self-loop");
                rows[v].push(u as u32);
                rows[u].push(v as u32);
                drawn[u] += 1;
            }
        }
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(g.neighbors(v), row.as_slice(), "row {v}");
        }
        // Endpoints are uniform over the other vertices: Pearson's χ² on
        // how often each vertex was drawn has k − 1 degrees of freedom
        // (mean k − 1, deviation √(2(k − 1)) ≈ 90); six deviations is a
        // loose bound that a skewed widening (a dropped high half, a
        // modulo of a short word) misses by thousands.
        let expected = (k * d) as f64 / k as f64;
        let chi2: f64 = drawn
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        let dof = (k - 1) as f64;
        assert!(
            (chi2 - dof).abs() < 6.0 * (2.0 * dof).sqrt(),
            "endpoint counts are off uniform: chi2 {chi2} on {dof} degrees of freedom"
        );
    }
}
