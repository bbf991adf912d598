//! The q-ary communication tree (paper §3.2.2).
//!
//! Nodes are committees of processors. Level 1 has `n` nodes (one
//! *assigned* to each processor — the node that initially receives its
//! secret-shared array); counts shrink by `q` per level up to a single
//! root committee containing every processor. Three sampler-generated
//! link families wire the tree:
//!
//! * **membership** — which processors sit in which committee;
//! * **uplinks** — which parent-committee members a child-committee member
//!   sends shares to (`sendSecretUp`) and receives them back from
//!   (`sendDown`);
//! * **ℓ-links** — which level-1 descendant nodes a committee member
//!   exchanges opened values with (`sendOpen`).
//!
//! The tree is common knowledge: every processor derives the identical
//! structure from the public seed, mirroring the paper's assumption that
//! "each processor has a copy of the required samplers".

use crate::params::Params;
use ba_sim::{derive_rng, ProcId, SimRng};
use rand::Rng;
use std::sync::OnceLock;

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

/// The communication tree. Membership is generated up front; each
/// level's uplink and ℓ-link families are drawn on the first query that
/// reads them, from the level's stream exactly where membership left it
/// — a tree nobody asks for links (the tournament executor prices them
/// through its cost model) never pays for them.
#[derive(Clone, Debug)]
pub struct Tree {
    params: Params,
    /// `members[l-1][node]` = processor ids in that committee.
    members: Vec<Vec<Vec<u32>>>,
    /// `links[l-1]` = the level's stream after its membership draws, and
    /// the link families drawn from it on first use.
    links: Vec<(SimRng, OnceLock<LevelLinks>)>,
    /// `member_of[p]` = list of (level, node, member index) where
    /// processor `p` serves.
    member_of: Vec<Vec<(u32, u32, u32)>>,
}

/// One level's link families, flat and row-major by (node, member).
#[derive(Clone, Debug)]
struct LevelLinks {
    /// Uplink rows of `up_degree` parent-committee member indices each
    /// (empty for the root level).
    up: Vec<u32>,
    up_degree: usize,
    /// ℓ-link rows of level-1 node ids; node `i`'s rows fill
    /// `ll[ll_start[i]..ll_start[i + 1]]`, equally long within a node
    /// (empty for level 1).
    ll: Vec<u32>,
    ll_start: Vec<usize>,
}

impl LevelLinks {
    /// Draws uplinks for every (node, member), then ℓ-links likewise.
    fn draw(params: &Params, level: usize, mut rng: SimRng) -> Self {
        let count = params.node_count(level);
        let size = params.node_size(level);
        let mut seen = Vec::new();
        let (mut up, mut up_degree) = (Vec::new(), 0);
        if level < params.levels {
            let parent_size = params.node_size(level + 1);
            up_degree = params.uplink_degree.min(parent_size);
            up.reserve(count * size * up_degree);
            for _ in 0..count * size {
                sample_distinct(parent_size, up_degree, &mut rng, &mut seen, &mut up);
            }
        }
        let (mut ll, mut ll_start) = (Vec::new(), vec![0]);
        if level >= 2 {
            for node in 0..count {
                let leaves = leaf_range_for(params, level, node);
                let d = params.llink_degree.min(leaves.len());
                for _ in 0..size {
                    sample_distinct(leaves.len(), d, &mut rng, &mut seen, &mut ll);
                }
                for e in &mut ll[ll_start[node]..] {
                    *e += leaves.start as u32;
                }
                ll_start.push(ll.len());
            }
        }
        LevelLinks {
            up,
            up_degree,
            ll,
            ll_start,
        }
    }
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
        let mut links = Vec::with_capacity(levels);
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
            links.push((rng, OnceLock::new()));
        }

        // Reverse index: which committees each processor serves in.
        let mut member_of: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); n];
        for (li, lvl) in members.iter().enumerate() {
            for (node, ms) in lvl.iter().enumerate() {
                for (mi, &p) in ms.iter().enumerate() {
                    member_of[p as usize].push(((li + 1) as u32, node as u32, mi as u32));
                }
            }
        }

        Tree {
            params: params.clone(),
            members,
            links,
            member_of,
        }
    }

    /// The link families of seat `(at, member)`'s level, drawn now if
    /// never read.
    fn links(&self, at: NodeAddr, member: usize) -> &LevelLinks {
        let size = self.members(at).len();
        assert!(member < size, "member {member} out of range at {at:?}");
        let (rng, drawn) = &self.links[at.level - 1];
        drawn.get_or_init(|| LevelLinks::draw(&self.params, at.level, rng.clone()))
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

    /// The parent-committee member indices a member's uplinks point to.
    ///
    /// # Panics
    ///
    /// Panics for root-level addresses or out-of-range members.
    pub fn uplinks(&self, at: NodeAddr, member: usize) -> &[u32] {
        assert!(at.level < self.params.levels, "root has no uplinks");
        let links = self.links(at, member);
        let row = at.index * self.members(at).len() + member;
        &links.up[row * links.up_degree..][..links.up_degree]
    }

    /// The level-1 descendant node ids a member's ℓ-links point to.
    ///
    /// # Panics
    ///
    /// Panics for level-1 addresses or out-of-range members.
    pub fn llinks(&self, at: NodeAddr, member: usize) -> &[u32] {
        assert!(at.level >= 2, "leaves have no ℓ-links");
        let links = self.links(at, member);
        let node = &links.ll[links.ll_start[at.index]..links.ll_start[at.index + 1]];
        let d = node.len() / self.members(at).len();
        &node[member * d..][..d]
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
    pub fn children(&self, at: NodeAddr) -> Vec<NodeAddr> {
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
        leaf_range_for(&self.params, at.level, at.index)
    }

    /// The level-`level` node whose subtree contains leaf node `leaf`.
    pub fn ancestor_of_leaf(&self, leaf: usize, level: usize) -> NodeAddr {
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

    /// All committees (level, node, member-index) processor `p` serves in.
    pub fn memberships(&self, p: ProcId) -> impl Iterator<Item = (NodeAddr, usize)> + '_ {
        self.member_of[p.index()]
            .iter()
            .map(|&(l, node, mi)| (NodeAddr::new(l as usize, node as usize), mi as usize))
    }

    /// Total number of committees across all levels.
    pub fn total_nodes(&self) -> usize {
        (1..=self.params.levels)
            .map(|l| self.params.node_count(l))
            .sum()
    }

    /// Reverse uplink query: which members of child committee `child`
    /// uplink to member `parent_member` of its parent. This is the
    /// `sendDown` fan — "sends its i-shares down the uplinks it came
    /// from" (§3.2.3). O(k·d) scan; called on demo-scale trees.
    pub fn downlink_sources(&self, child: NodeAddr, parent_member: usize) -> Vec<usize> {
        (0..self.members(child).len())
            .filter(|&m| {
                self.uplinks(child, m)
                    .iter()
                    .any(|&u| u as usize == parent_member)
            })
            .collect()
    }

    /// Reverse ℓ-link query: which members of committee `at` hold an
    /// ℓ-link to level-1 node `leaf` — the recipients of that leaf
    /// committee's `sendOpen` reports. O(k·d) scan.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is outside `at`'s subtree.
    pub fn llink_members_for_leaf(&self, at: NodeAddr, leaf: usize) -> Vec<usize> {
        assert!(
            self.leaf_range(at).contains(&leaf),
            "leaf {leaf} outside subtree of {at:?}"
        );
        (0..self.members(at).len())
            .filter(|&m| self.llinks(at, m).iter().any(|&x| x as usize == leaf))
            .collect()
    }
}

/// Leaf range of node `index` at `level` (free function so generation can
/// use it before the `Tree` exists).
fn leaf_range_for(params: &Params, level: usize, index: usize) -> std::ops::Range<usize> {
    if level == params.levels {
        return 0..params.n;
    }
    let mut span = 1usize;
    for _ in 1..level {
        span = span.saturating_mul(params.q);
    }
    let start = index * span;
    start..((index + 1) * span).min(params.n)
}

/// Appends a uniform `k`-subset of `0..m` (Floyd's algorithm) to `out`,
/// as committee and link draws; distinct elements keep per-member link
/// sets simple. Sorted for determinism of iteration order. `seen` is an
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
    fn uplinks_point_into_parent() {
        let t = small_tree();
        let p = t.params();
        for l in 1..p.levels {
            let parent_size = p.node_size(l + 1);
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                for m in 0..p.node_size(l) {
                    let ups = t.uplinks(at, m);
                    assert!(!ups.is_empty());
                    assert!(ups.iter().all(|&u| (u as usize) < parent_size));
                    // Distinct.
                    let mut v = ups.to_vec();
                    v.dedup();
                    assert_eq!(v.len(), ups.len());
                }
            }
        }
    }

    #[test]
    fn llinks_point_into_subtree() {
        let t = small_tree();
        let p = t.params();
        for l in 2..=p.levels {
            for i in 0..p.node_count(l) {
                let at = NodeAddr::new(l, i);
                let range = t.leaf_range(at);
                for m in 0..p.node_size(l) {
                    let lls = t.llinks(at, m);
                    assert!(!lls.is_empty());
                    assert!(lls.iter().all(|&x| range.contains(&(x as usize))));
                }
            }
        }
    }

    #[test]
    fn memberships_reverse_index_consistent() {
        let t = small_tree();
        for pid in 0..64 {
            for (at, mi) in t.memberships(ba_sim::ProcId::new(pid)) {
                assert_eq!(t.members(at)[mi] as usize, pid);
            }
        }
        // Every committee seat appears in exactly one processor's list.
        let total_seats: usize = (1..=t.params().levels)
            .map(|l| t.params().node_count(l) * t.params().node_size(l))
            .sum();
        let listed: usize = (0..64)
            .map(|p| t.memberships(ba_sim::ProcId::new(p)).count())
            .sum();
        assert_eq!(total_seats, listed);
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

    #[test]
    fn downlink_sources_invert_uplinks() {
        let t = small_tree();
        let child = NodeAddr::new(1, 5);
        let parent_size = t.params().node_size(2);
        for pm in 0..parent_size {
            for m in t.downlink_sources(child, pm) {
                assert!(t.uplinks(child, m).contains(&(pm as u32)));
            }
        }
        // Every uplink appears in exactly one reverse list.
        let total_up: usize = (0..t.params().node_size(1))
            .map(|m| t.uplinks(child, m).len())
            .sum();
        let total_down: usize = (0..parent_size)
            .map(|pm| t.downlink_sources(child, pm).len())
            .sum();
        assert_eq!(total_up, total_down);
    }

    #[test]
    fn llink_reverse_matches_forward() {
        let t = small_tree();
        let at = NodeAddr::new(2, 3);
        for leaf in t.leaf_range(at) {
            for m in t.llink_members_for_leaf(at, leaf) {
                assert!(t.llinks(at, m).contains(&(leaf as u32)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside subtree")]
    fn llink_reverse_rejects_foreign_leaf() {
        let t = small_tree();
        let at = NodeAddr::new(2, 0);
        let outside = t.leaf_range(at).end; // first leaf of the next node
        let _ = t.llink_members_for_leaf(at, outside);
    }

    /// FNV-1a over every uplink and ℓ-link row (length, then entries),
    /// levels visited in `order`, ℓ-links read before uplinks.
    fn link_digests(t: &Tree, order: &[usize]) -> (u64, u64) {
        fn fnv(h: &mut u64, row: &[u32]) {
            for x in std::iter::once(row.len() as u32).chain(row.iter().copied()) {
                for b in x.to_le_bytes() {
                    *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let p = t.params();
        let mut per_level = vec![(0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64); p.levels];
        for &l in order {
            let (up, ll) = &mut per_level[l - 1];
            for i in 0..p.node_count(l) {
                for m in 0..p.node_size(l) {
                    if l >= 2 {
                        fnv(ll, t.llinks(NodeAddr::new(l, i), m));
                    }
                    if l < p.levels {
                        fnv(up, t.uplinks(NodeAddr::new(l, i), m));
                    }
                }
            }
        }
        // Chain the per-level digests in level order so the visit order
        // cannot show in the result.
        per_level.iter().fold((0, 0), |(u, l), &(lu, ll)| {
            (
                (u ^ lu).wrapping_mul(0x0000_0100_0000_01b3),
                (l ^ ll).wrapping_mul(0x0000_0100_0000_01b3),
            )
        })
    }

    #[test]
    fn lazy_links_match_the_eager_draw_of_the_parent_commit() {
        // Digests recorded from the eager `Tree::generate` this lazy one
        // replaced (commit 2e922df), levels visited 1..=levels there.
        for (n, seed, want) in [
            (64, 42, (0xa4e2_6b54_0efa_d890, 0x5dd9_9757_0510_bea3)),
            // Ragged: 100 → 25 → 7 → 2 → 1 nodes.
            (100, 7, (0xd81e_61ff_52fb_f258, 0x9dac_8adc_ca29_beaf)),
        ] {
            let p = Params::practical(n);
            let fresh = Tree::generate(&p, seed);
            let cloned_cold = fresh.clone();
            let reverse: Vec<usize> = (1..=p.levels).rev().collect();
            let forward: Vec<usize> = (1..=p.levels).collect();
            assert_eq!(link_digests(&fresh, &reverse), want, "n={n} reverse order");
            assert_eq!(
                link_digests(&cloned_cold, &forward),
                want,
                "n={n} cold clone"
            );
            assert_eq!(
                link_digests(&fresh.clone(), &forward),
                want,
                "n={n} warm clone"
            );
        }
    }
}
