//! The q-ary communication tree (paper §3.2.2).
//!
//! Nodes are committees of processors. Level 1 has `n` nodes (one
//! *assigned* to each processor — the node that initially receives its
//! secret-shared array); counts shrink by `q` per level up to a single
//! root committee containing every processor. The tree holds
//! **membership** only: which processors sit in which committee, drawn
//! uniformly per committee. The paper also wires uplinks (`sendSecretUp`,
//! `sendDown`) and ℓ-links (`sendOpen`); the tournament prices their
//! traffic through its cost model without drawing them, so their degrees
//! live in [`Params`] and no link is kept here.
//!
//! The tree is common knowledge: every processor derives the identical
//! structure from the public seed, mirroring the paper's assumption that
//! "each processor has a copy of the required samplers".

use crate::params::Params;
use ba_sim::derive_rng;
use rand::Rng;

/// Label space (within the master seed) for topology generation streams.
const TOPOLOGY_LABEL: u64 = 1 << 41;

/// Address of a committee: level (1-based, root = `params.levels`) and
/// node index within the level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeAddr {
    /// Tree level in `1..=levels`.
    pub level: usize,
    /// Node index within the level.
    pub index: usize,
}

impl NodeAddr {
    /// Creates a node address.
    pub fn new(level: usize, index: usize) -> Self {
        NodeAddr { level, index }
    }
}

/// The communication tree: every committee's members, generated up front.
#[derive(Clone, Debug)]
pub struct Tree {
    params: Params,
    /// `members[l-1][node]` = processor ids in that committee.
    members: Vec<Vec<Vec<u32>>>,
}

impl Tree {
    /// Generates the tree for `params` from a public seed.
    ///
    /// # Panics
    ///
    /// Panics if `params.validate()` fails.
    pub fn generate(params: &Params, seed: u64) -> Self {
        params.validate().expect("invalid parameters");
        let levels = params.levels;
        let n = params.n;
        let mut members = Vec::with_capacity(levels);
        let mut seen = Vec::new();

        for level in 1..=levels {
            let count = params.node_count(level);
            let size = params.node_size(level);
            let mut rng = derive_rng(seed, TOPOLOGY_LABEL | ((level as u64) << 20));

            // Membership: the root holds everyone; other committees are
            // sampler-populated (uniform multiset — see ba-sampler docs).
            let lvl_members: Vec<Vec<u32>> = (0..count)
                .map(|_| {
                    if size >= n {
                        (0..n as u32).collect()
                    } else {
                        let mut ms = Vec::with_capacity(size);
                        sample_distinct(n, size, &mut rng, &mut seen, &mut ms);
                        ms
                    }
                })
                .collect();

            members.push(lvl_members);
        }

        Tree {
            params: params.clone(),
            members,
        }
    }

    /// The parameters this tree was generated from.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Committee membership (processor ids).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn members(&self, at: NodeAddr) -> &[u32] {
        &self.members[at.level - 1][at.index]
    }

    /// Parent node address.
    ///
    /// # Panics
    ///
    /// Panics for the root.
    pub fn parent(&self, at: NodeAddr) -> NodeAddr {
        assert!(at.level < self.params.levels, "root has no parent");
        if at.level + 1 == self.params.levels {
            NodeAddr::new(at.level + 1, 0)
        } else {
            NodeAddr::new(at.level + 1, at.index / self.params.q)
        }
    }

    /// Child node addresses (may be fewer than `q` at the ragged edge; the
    /// root's children are every node of the level below).
    #[cfg(test)]
    fn children(&self, at: NodeAddr) -> Vec<NodeAddr> {
        assert!(at.level >= 2, "leaves have no children");
        let child_level = at.level - 1;
        let child_count = self.params.node_count(child_level);
        if at.level == self.params.levels {
            return (0..child_count)
                .map(|i| NodeAddr::new(child_level, i))
                .collect();
        }
        let q = self.params.q;
        (at.index * q..((at.index + 1) * q).min(child_count))
            .map(|i| NodeAddr::new(child_level, i))
            .collect()
    }

    /// The contiguous range of level-1 node ids in `at`'s subtree.
    pub fn leaf_range(&self, at: NodeAddr) -> std::ops::Range<usize> {
        let params = &self.params;
        if at.level == params.levels {
            return 0..params.n;
        }
        let mut span = 1usize;
        for _ in 1..at.level {
            span = span.saturating_mul(params.q);
        }
        let start = at.index * span;
        start..((at.index + 1) * span).min(params.n)
    }

    /// The level-`level` node whose subtree contains leaf node `leaf`.
    pub(crate) fn ancestor_of_leaf(&self, leaf: usize, level: usize) -> NodeAddr {
        assert!(leaf < self.params.n, "leaf out of range");
        if level == self.params.levels {
            return NodeAddr::new(level, 0);
        }
        let mut idx = leaf;
        for _ in 1..level {
            idx /= self.params.q;
        }
        NodeAddr::new(level, idx)
    }

    /// Total number of committees across all levels.
    pub fn total_nodes(&self) -> usize {
        (1..=self.params.levels)
            .map(|l| self.params.node_count(l))
            .sum()
    }
}

/// Appends a uniform `k`-subset of `0..m` (Floyd's algorithm) to `out`,
/// as a committee draw: a committee's members are distinct. Sorted for
/// determinism of iteration order. `seen` is an
/// all-zero scratch bitset, grown on demand and handed back all-zero.
fn sample_distinct<R: Rng + ?Sized>(
    m: usize,
    k: usize,
    rng: &mut R,
    seen: &mut Vec<u64>,
    out: &mut Vec<u32>,
) {
    debug_assert!(k <= m);
    if seen.len() * 64 < m {
        seen.resize(m.div_ceil(64), 0);
    }
    let from = out.len();
    for j in m - k..m {
        let t = rng.gen_range(0..=j);
        let pick = if seen[t / 64] >> (t % 64) & 1 == 1 {
            j
        } else {
            t
        };
        seen[pick / 64] |= 1 << (pick % 64);
        out.push(pick as u32);
    }
    for &p in &out[from..] {
        seen[p as usize / 64] = 0;
    }
    out[from..].sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> Tree {
        let p = Params::practical(64);
        Tree::generate(&p, 42)
    }

    #[test]
    fn structure_counts() {
        let t = small_tree();
        let p = t.params().clone();
        // 64 → 16 → 4 → 1 with q = 4: four levels.
        assert_eq!(p.levels, 4);
        let mut want = 64;
        for l in 1..=p.levels {
            assert_eq!(p.node_count(l), if l == p.levels { 1 } else { want });
            want = want.div_ceil(p.q);
        }
    }

    #[test]
    fn membership_sizes_match_params() {
        let t = small_tree();
        let p = t.params();
        for l in 1..=p.levels {
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                assert_eq!(t.members(at).len(), p.node_size(l), "level {l} node {i}");
                // All member ids valid and distinct.
                let mut ids: Vec<u32> = t.members(at).to_vec();
                ids.dedup();
                assert_eq!(ids.len(), p.node_size(l));
                assert!(ids.iter().all(|&x| (x as usize) < p.n));
            }
        }
    }

    #[test]
    fn root_contains_everyone() {
        let t = small_tree();
        let root = NodeAddr::new(t.params().levels, 0);
        let ms = t.members(root);
        assert_eq!(ms.len(), 64);
        assert!((0..64u32).all(|i| ms.contains(&i)));
    }

    #[test]
    fn parent_child_consistency() {
        let t = small_tree();
        let p = t.params();
        for l in 2..=p.levels {
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                for c in t.children(at) {
                    assert_eq!(t.parent(c), at, "child {c:?} of {at:?}");
                }
            }
        }
    }

    #[test]
    fn every_non_root_has_children_covering_level() {
        let t = small_tree();
        let p = t.params();
        for l in 2..=p.levels {
            let covered: usize = (0..p.node_count(l))
                .map(|i| t.children(NodeAddr::new(l, i)).len())
                .sum();
            assert_eq!(covered, p.node_count(l - 1), "level {l}");
        }
    }

    #[test]
    fn leaf_ranges_partition() {
        let t = small_tree();
        let p = t.params();
        for l in 1..=p.levels {
            let mut seen = vec![false; p.n];
            for i in 0..p.node_count(l) {
                for leaf in t.leaf_range(NodeAddr::new(l, i)) {
                    assert!(!seen[leaf], "leaf {leaf} covered twice at level {l}");
                    seen[leaf] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "level {l} leaves not covered");
        }
    }

    #[test]
    fn ancestor_of_leaf_matches_ranges() {
        let t = small_tree();
        let p = t.params();
        for leaf in [0usize, 13, 37, 63] {
            for l in 1..=p.levels {
                let anc = t.ancestor_of_leaf(leaf, l);
                assert!(t.leaf_range(anc).contains(&leaf));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Params::practical(64);
        let a = Tree::generate(&p, 7);
        let b = Tree::generate(&p, 7);
        let c = Tree::generate(&p, 8);
        let at = NodeAddr::new(2, 3);
        assert_eq!(a.members(at), b.members(at));
        assert_ne!(a.members(at), c.members(at));
    }

    #[test]
    fn total_nodes_counts_all_levels() {
        let t = small_tree();
        let p = t.params();
        let expect: usize = (1..=p.levels).map(|l| p.node_count(l)).sum();
        assert_eq!(t.total_nodes(), expect);
    }

    #[test]
    #[should_panic(expected = "root has no parent")]
    fn root_parent_panics() {
        let t = small_tree();
        let _ = t.parent(NodeAddr::new(t.params().levels, 0));
    }
}
