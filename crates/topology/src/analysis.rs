//! Good/bad node classification and good-path analysis (paper §3.2.4).
//!
//! Definition 3: a *good node* holds at least a `2/3 + ε/2` fraction of
//! good processors; a *good path* from leaf to root passes through no bad
//! node. The correctness argument (Lemma 3, Lemma 6) is phrased entirely
//! in these terms, so experiments E6/E9 measure them directly against the
//! simulator's corrupt set.

use crate::tree::{NodeAddr, Tree};

/// Snapshot classification of every tree node against a corrupt set.
#[derive(Clone, Debug)]
pub struct Goodness {
    /// `good[l-1][node]`.
    good: Vec<Vec<bool>>,
}

impl Goodness {
    /// Classifies every node of `tree` given per-processor corruption
    /// flags. `threshold` is the good-fraction cutoff — the paper's
    /// Definition 3 uses `2/3 + ε/2`, available as
    /// [`Goodness::paper_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if `corrupt.len() != n`.
    pub fn classify(tree: &Tree, corrupt: &[bool], threshold: f64) -> Self {
        let p = tree.params();
        assert_eq!(
            corrupt.len(),
            p.n,
            "corrupt flags must cover all processors"
        );
        let good = (1..=p.levels)
            .map(|level| {
                (0..p.node_count(level))
                    .map(|node| {
                        let ms = tree.members(NodeAddr::new(level, node));
                        let good_members = ms.iter().filter(|&&m| !corrupt[m as usize]).count();
                        good_members as f64 / ms.len() as f64 >= threshold
                    })
                    .collect()
            })
            .collect();
        Goodness { good }
    }

    /// The paper's Definition 3 threshold `2/3 + ε/2`.
    pub fn paper_threshold(eps: f64) -> f64 {
        2.0 / 3.0 + eps / 2.0
    }

    /// Whether a node is good.
    pub fn is_good(&self, at: NodeAddr) -> bool {
        self.good[at.level - 1][at.index]
    }

    /// Fraction of bad nodes on a level (the quantity §3.2.2 property (1)
    /// bounds by `1/log n`).
    pub fn bad_node_fraction(&self, level: usize) -> f64 {
        let lvl = &self.good[level - 1];
        lvl.iter().filter(|&&g| !g).count() as f64 / lvl.len() as f64
    }

    /// Fraction of leaves with a fully good path to `at` — a *good path*
    /// per Definition 3 passes through no bad node (the quantity Lemma
    /// 3(2) needs to exceed `1/2 + ε`).
    pub fn good_path_fraction(&self, tree: &Tree, at: NodeAddr) -> f64 {
        let range = tree.leaf_range(at);
        let total = range.len();
        if total == 0 {
            return 0.0;
        }
        let good = range
            .filter(|&leaf| (1..=at.level).all(|l| self.is_good(tree.ancestor_of_leaf(leaf, l))))
            .count();
        good as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn tree64() -> Tree {
        Tree::generate(&Params::practical(64), 11)
    }

    /// Whether the whole path from leaf node `leaf` to the root consists
    /// of good nodes.
    fn path_good(g: &Goodness, tree: &Tree, leaf: usize) -> bool {
        (1..=tree.params().levels).all(|l| g.is_good(tree.ancestor_of_leaf(leaf, l)))
    }

    #[test]
    fn no_corruption_everything_good() {
        let t = tree64();
        let corrupt = vec![false; 64];
        let g = Goodness::classify(&t, &corrupt, Goodness::paper_threshold(0.05));
        for l in 1..=t.params().levels {
            assert_eq!(g.bad_node_fraction(l), 0.0, "level {l}");
            for i in 0..t.params().node_count(l) {
                let at = NodeAddr::new(l, i);
                assert!(g.is_good(at));
            }
        }
        for leaf in 0..64 {
            assert!(path_good(&g, &t, leaf));
        }
        assert_eq!(
            g.good_path_fraction(&t, NodeAddr::new(t.params().levels, 0)),
            1.0
        );
    }

    #[test]
    fn full_corruption_everything_bad() {
        let t = tree64();
        let corrupt = vec![true; 64];
        let g = Goodness::classify(&t, &corrupt, Goodness::paper_threshold(0.05));
        for l in 1..=t.params().levels {
            assert_eq!(g.bad_node_fraction(l), 1.0);
        }
        assert!(!path_good(&g, &t, 0));
    }

    #[test]
    fn root_fraction_matches_global() {
        let t = tree64();
        // Corrupt processors 0..16 (25%).
        let corrupt: Vec<bool> = (0..64).map(|i| i < 16).collect();
        let root = NodeAddr::new(t.params().levels, 0);
        let good_at = |threshold| Goodness::classify(&t, &corrupt, threshold).is_good(root);
        assert!(good_at(Goodness::paper_threshold(0.05)));
        // The root holds everyone, so its good fraction is exactly 3/4.
        assert!(good_at(0.75));
        assert!(!good_at(0.75 + 1e-12));
    }

    #[test]
    fn threshold_boundary() {
        let t = tree64();
        let corrupt = vec![false; 64];
        // Threshold of exactly 1.0 still passes fully good nodes (>=).
        let g = Goodness::classify(&t, &corrupt, 1.0);
        assert!(g.is_good(NodeAddr::new(1, 0)));
    }

    #[test]
    fn moderate_corruption_keeps_most_nodes_good() {
        // §3.2.2 property (1): with < 1/3 − ε corrupt, few committees go
        // bad. With log-sized committees, "few" is a constant-probability
        // tail per committee; check it is clearly a minority.
        let t = Tree::generate(&Params::practical(512), 3);
        let corrupt: Vec<bool> = (0..512).map(|i| i % 4 == 0).collect(); // 25%
        let g = Goodness::classify(&t, &corrupt, Goodness::paper_threshold(0.05));
        for l in 1..=t.params().levels {
            let frac = g.bad_node_fraction(l);
            assert!(
                frac < 0.5,
                "level {l}: bad node fraction {frac} unexpectedly large"
            );
        }
    }

    #[test]
    fn path_goodness_is_and_of_levels() {
        let t = tree64();
        // Corrupt everything in leaf committee 0's membership to make that
        // node bad, then check the path through it is bad.
        let leaf0 = NodeAddr::new(1, 0);
        let mut corrupt = vec![false; 64];
        for &m in t.members(leaf0) {
            corrupt[m as usize] = true;
        }
        let g = Goodness::classify(&t, &corrupt, Goodness::paper_threshold(0.05));
        assert!(!g.is_good(leaf0));
        assert!(!path_good(&g, &t, 0));
        // A leaf whose entire path avoids bad committees stays good (find
        // one; with only k1 corrupt processors most paths are fine).
        let good_leaf = (1..64).find(|&leaf| path_good(&g, &t, leaf));
        assert!(good_leaf.is_some(), "some path should remain good");
    }

    #[test]
    #[should_panic(expected = "corrupt flags")]
    fn wrong_corrupt_len_panics() {
        let t = tree64();
        let _ = Goodness::classify(&t, &[false; 3], 0.5);
    }
}
