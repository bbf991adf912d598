//! Iterated secret sharing: shares of shares of … of a secret.
//!
//! The paper's Definition 1 (§3.1): a *1-share* is an ordinary share of a
//! secret; an *i-share* is a share of an (i−1)-share, produced when the
//! holder of the (i−1)-share re-shares it with a fresh committee and
//! **erases the original from memory**. Lemma 1 proves that an adversary
//! holding at most `t_i` of the i-shares of every (i−1)-share learns
//! nothing about the secret.
//!
//! Two things live here:
//!
//! * `reshare` — the primitive the protocol's `sendSecretUp` performs
//!   on the wire: treat a share value as a secret and split it further
//!   (`sendDown` combines child shares back with
//!   [`shamir::reconstruct`]).
//! * [`ShareTree`] — an in-memory reference model of a full iterated
//!   dealing, used by tests and the E8 secrecy experiment to check exactly
//!   which coalitions of leaf holders can reconstruct (recoverability) and
//!   which provably cannot (Lemma 1).

use crate::error::CryptoError;
use crate::gf::Gf16;
use crate::shamir::{self, Share};
use rand::Rng;

/// Committee parameters for one sharing layer: `n` holders, polynomial
/// degree `t` (so `t+1` shares reconstruct).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layer {
    /// Number of holders at this layer.
    pub n: usize,
    /// Sharing threshold (degree); `t+1` shares reconstruct.
    pub t: usize,
}

impl Layer {
    /// A layer with the paper's default threshold `t = n/2`.
    pub fn majority(n: usize) -> Self {
        Layer {
            n,
            t: shamir::threshold_for(n),
        }
    }
}

/// Re-shares an existing share's value as a new secret among `layer.n`
/// holders: the `sendSecretUp` primitive. The caller must then erase the
/// input share (the protocol deletes it from memory; Lemma 1 depends on
/// that erasure).
///
/// # Errors
///
/// Propagates [`CryptoError::InvalidParams`] from the underlying scheme.
pub(crate) fn reshare<R: Rng + ?Sized>(
    share: Share,
    layer: Layer,
    rng: &mut R,
) -> Result<Vec<Share>, CryptoError> {
    shamir::share(share.y, layer.n, layer.t, rng)
}

/// A complete iterated dealing of one secret through a stack of committees,
/// kept in memory for analysis.
///
/// Layer 1 holders receive 1-shares of the secret; each re-shares to layer
/// 2, and so on. Only the **deepest** layer's shares still "exist" (every
/// inner layer erased its value after re-sharing), so recoverability
/// questions are asked about coalitions of leaf holders.
///
/// ```rust
/// use ba_crypto::iterated::{Layer, ShareTree};
/// use ba_crypto::Gf16;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
///
/// let tree = ShareTree::deal(
///     Gf16::new(0xD00D),
///     &[Layer::majority(4), Layer::majority(4)],
///     &mut rng,
/// )?;
/// // Everyone cooperates: reconstructs.
/// assert_eq!(tree.recover(|_| true), Some(Gf16::new(0xD00D)));
/// // Nobody cooperates: nothing.
/// assert_eq!(tree.recover(|_| false), None);
/// # Ok::<(), ba_crypto::CryptoError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShareTree {
    layers: Vec<Layer>,
    /// Flat node arena: the roots (layer-1 holders) occupy indices
    /// `0..layers[0].n` and every node's children form one contiguous
    /// run, so dealing is one growing `Vec` and traversal is index
    /// arithmetic instead of per-node boxed-`Vec` pointer chasing. The
    /// boxed layout survives as [`reference::ShareTree`], the oracle the
    /// equivalence proptests compare against.
    arena: Vec<ArenaNode>,
}

/// One node of the flat dealing: 12 bytes, `Copy`, no owned children.
#[derive(Clone, Copy, Debug)]
struct ArenaNode {
    /// This node's share (evaluation point in the parent's sharing and
    /// value). For inner nodes the value has conceptually been erased; it
    /// is retained here only so tests can cross-check reconstruction.
    share: Share,
    /// Arena index of the first child; children are contiguous.
    children_start: u32,
    /// Number of children (0 for leaves).
    children_len: u32,
}

impl ArenaNode {
    fn leaf(share: Share) -> Self {
        ArenaNode {
            share,
            children_start: 0,
            children_len: 0,
        }
    }
}

impl ShareTree {
    /// Deals `secret` through the given committee stack. `layers[0]` is the
    /// first sharing (producing 1-shares), `layers[1]` the re-sharing of
    /// each 1-share (producing 2-shares), and so on.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParams`] if `layers` is empty or any layer has
    /// unusable parameters.
    pub fn deal<R: Rng + ?Sized>(
        secret: Gf16,
        layers: &[Layer],
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        if layers.is_empty() {
            return Err(CryptoError::InvalidParams { n: 0, t: 0 });
        }
        let first = layers[0];
        let top = shamir::share(secret, first.n, first.t, rng)?;
        let mut arena: Vec<ArenaNode> = top.into_iter().map(ArenaNode::leaf).collect();
        for i in 0..first.n {
            Self::grow(&mut arena, i, &layers[1..], rng)?;
        }
        Ok(ShareTree {
            layers: layers.to_vec(),
            arena,
        })
    }

    /// Expands `node` in place. RNG draw order is the reference model's
    /// preorder — this node's reshare first, then each child subtree in
    /// index order — so arena and boxed dealings of the same stream are
    /// share-for-share identical.
    fn grow<R: Rng + ?Sized>(
        arena: &mut Vec<ArenaNode>,
        node: usize,
        rest: &[Layer],
        rng: &mut R,
    ) -> Result<(), CryptoError> {
        let Some(&layer) = rest.first() else {
            return Ok(());
        };
        let subshares = reshare(arena[node].share, layer, rng)?;
        let start = arena.len();
        arena[node].children_start = start as u32;
        arena[node].children_len = layer.n as u32;
        arena.extend(subshares.into_iter().map(ArenaNode::leaf));
        for i in 0..layer.n {
            Self::grow(arena, start + i, &rest[1..], rng)?;
        }
        Ok(())
    }

    /// Total number of leaf shares in existence.
    pub(crate) fn leaf_count(&self) -> usize {
        self.layers.iter().map(|l| l.n).product()
    }

    /// Leaf shares in path order (the traversal order of
    /// [`ShareTree::leaf_paths`]), for share-for-share comparison with
    /// [`reference::ShareTree::leaf_shares`].
    pub fn leaf_shares(&self) -> Vec<Share> {
        fn walk(arena: &[ArenaNode], node: usize, out: &mut Vec<Share>) {
            let nd = arena[node];
            if nd.children_len == 0 {
                out.push(nd.share);
                return;
            }
            for i in 0..nd.children_len as usize {
                walk(arena, nd.children_start as usize + i, out);
            }
        }
        let mut out = Vec::with_capacity(self.leaf_count());
        for i in 0..self.layers[0].n {
            walk(&self.arena, i, &mut out);
        }
        out
    }

    /// All leaf paths; a path `[i0, i1, …]` names holder `i1` of the
    /// re-sharing done by holder `i0`, etc. Its length is the number of
    /// layers dealt.
    pub fn leaf_paths(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(self.leaf_count());
        let mut path = Vec::new();
        for i in 0..self.layers[0].n {
            path.push(i);
            self.collect_paths(i, &mut path, &mut out);
            path.pop();
        }
        out
    }

    fn collect_paths(&self, node: usize, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let nd = self.arena[node];
        if nd.children_len == 0 {
            out.push(path.clone());
            return;
        }
        for i in 0..nd.children_len as usize {
            path.push(i);
            self.collect_paths(nd.children_start as usize + i, path, out);
            path.pop();
        }
    }

    /// Attempts reconstruction using exactly the leaf shares for which
    /// `holds(path)` returns true, reassembling layer by layer as
    /// `sendDown` would. Returns the secret iff every required threshold is
    /// met along the way.
    ///
    /// Every per-committee reassembly on the way up is a batched Lagrange
    /// reconstruction (one field inversion per committee, not one per
    /// share), so a full recovery over an `n`-ary depth-`d` tree performs
    /// O(n^(d-1)) inversions instead of O(n^d).
    pub fn recover<F: Fn(&[usize]) -> bool>(&self, holds: F) -> Option<Gf16> {
        let mut path = Vec::new();
        let mut avail: Vec<Share> = Vec::new();
        for i in 0..self.layers[0].n {
            path.push(i);
            if let Some(y) = self.recover_node(i, &mut path, &holds) {
                avail.push(Share::new(self.arena[i].share.x, y));
            }
            path.pop();
        }
        if avail.len() > self.layers[0].t {
            shamir::reconstruct(&avail).ok()
        } else {
            None
        }
    }

    /// Recovers the value of the share at `path` (a node at layer
    /// `path.len()`), from the held leaves beneath it.
    fn recover_node<F: Fn(&[usize]) -> bool>(
        &self,
        node: usize,
        path: &mut Vec<usize>,
        holds: &F,
    ) -> Option<Gf16> {
        let nd = self.arena[node];
        if nd.children_len == 0 {
            return holds(path).then_some(nd.share.y);
        }
        // `node` sits at layer `path.len()`; its children were produced by
        // `layers[path.len()]` (0-indexed), whose threshold gates assembly.
        let t = self.layers[path.len()].t;
        let mut avail: Vec<Share> = Vec::new();
        let start = nd.children_start as usize;
        for i in 0..nd.children_len as usize {
            path.push(i);
            if let Some(y) = self.recover_node(start + i, path, holds) {
                avail.push(Share::new(self.arena[start + i].share.x, y));
            }
            path.pop();
        }
        if avail.len() > t {
            shamir::reconstruct(&avail).ok()
        } else {
            None
        }
    }
}

/// The original boxed-children dealing, retained verbatim as the
/// reference oracle (the `mul_ref` pattern): property tests deal the
/// arena and this model from identical RNG streams and require
/// share-for-share and recovery agreement. Nothing outside tests should
/// prefer it — it allocates one `Vec` per node.
pub mod reference {
    use super::{reshare, Layer};
    use crate::error::CryptoError;
    use crate::gf::Gf16;
    use crate::shamir::{self, Share};
    use rand::Rng;

    /// Boxed-children iterated dealing; see [`super::ShareTree`] for the
    /// production arena layout and the API contract both satisfy.
    #[derive(Clone, Debug)]
    pub struct ShareTree {
        layers: Vec<Layer>,
        children: Vec<Node>,
    }

    #[derive(Clone, Debug)]
    struct Node {
        share: Share,
        children: Vec<Node>,
    }

    impl ShareTree {
        /// Deals `secret` through `layers`; identical RNG consumption to
        /// [`super::ShareTree::deal`].
        ///
        /// # Errors
        ///
        /// [`CryptoError::InvalidParams`] if `layers` is empty or any
        /// layer has unusable parameters.
        pub fn deal<R: Rng + ?Sized>(
            secret: Gf16,
            layers: &[Layer],
            rng: &mut R,
        ) -> Result<Self, CryptoError> {
            if layers.is_empty() {
                return Err(CryptoError::InvalidParams { n: 0, t: 0 });
            }
            let first = layers[0];
            let top = shamir::share(secret, first.n, first.t, rng)?;
            let children = top
                .into_iter()
                .map(|s| Self::grow(s, &layers[1..], rng))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ShareTree {
                layers: layers.to_vec(),
                children,
            })
        }

        fn grow<R: Rng + ?Sized>(
            share: Share,
            rest: &[Layer],
            rng: &mut R,
        ) -> Result<Node, CryptoError> {
            let Some(&layer) = rest.first() else {
                return Ok(Node {
                    share,
                    children: Vec::new(),
                });
            };
            let subshares = reshare(share, layer, rng)?;
            let children = subshares
                .into_iter()
                .map(|s| Self::grow(s, &rest[1..], rng))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Node { share, children })
        }

        /// Leaf shares in path order, for share-level comparison with the
        /// arena dealing.
        pub fn leaf_shares(&self) -> Vec<Share> {
            let mut out = Vec::new();
            fn walk(node: &Node, out: &mut Vec<Share>) {
                if node.children.is_empty() {
                    out.push(node.share);
                    return;
                }
                for c in &node.children {
                    walk(c, out);
                }
            }
            for c in &self.children {
                walk(c, &mut out);
            }
            out
        }

        /// Reference recovery; same contract as
        /// [`super::ShareTree::recover`].
        pub fn recover<F: Fn(&[usize]) -> bool>(&self, holds: F) -> Option<Gf16> {
            let mut path = Vec::new();
            let mut avail: Vec<Share> = Vec::new();
            for (i, c) in self.children.iter().enumerate() {
                path.push(i);
                if let Some(y) = self.recover_node(c, &mut path, &holds) {
                    avail.push(Share::new(c.share.x, y));
                }
                path.pop();
            }
            if avail.len() > self.layers[0].t {
                shamir::reconstruct(&avail).ok()
            } else {
                None
            }
        }

        fn recover_node<F: Fn(&[usize]) -> bool>(
            &self,
            node: &Node,
            path: &mut Vec<usize>,
            holds: &F,
        ) -> Option<Gf16> {
            if node.children.is_empty() {
                return holds(path).then_some(node.share.y);
            }
            let t = self.layers[path.len()].t;
            let mut avail: Vec<Share> = Vec::new();
            for (i, c) in node.children.iter().enumerate() {
                path.push(i);
                if let Some(y) = self.recover_node(c, path, holds) {
                    avail.push(Share::new(c.share.x, y));
                }
                path.pop();
            }
            if avail.len() > t {
                shamir::reconstruct(&avail).ok()
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn single_layer_behaves_like_plain_shamir() {
        let mut rng = rng(1);
        let tree = ShareTree::deal(Gf16::new(0xCAFE), &[Layer::majority(5)], &mut rng).unwrap();
        assert_eq!(tree.layers.len(), 1);
        assert_eq!(tree.leaf_count(), 5);
        // Majority threshold t=2: 3 holders suffice.
        assert_eq!(
            tree.recover(|p| p[0] < 3),
            Some(Gf16::new(0xCAFE)),
            "t+1 = 3 leaves should reconstruct"
        );
        assert_eq!(tree.recover(|p| p[0] < 2), None, "2 leaves must fail");
    }

    #[test]
    fn two_layers_roundtrip_and_thresholds() {
        let mut rng = rng(2);
        let secret = Gf16::new(0x0FF1);
        let tree =
            ShareTree::deal(secret, &[Layer::majority(4), Layer::majority(6)], &mut rng).unwrap();
        assert_eq!(tree.layers.len(), 2);
        assert_eq!(tree.leaf_count(), 24);
        assert_eq!(tree.leaf_paths().len(), 24);
        assert_eq!(tree.recover(|_| true), Some(secret));

        // Enough children (4 > t=3) of enough parents (3 > t=2).
        assert_eq!(
            tree.recover(|p| p[0] < 3 && p[1] < 4),
            Some(secret),
            "3 of 4 parents with 4 of 6 children each should reconstruct"
        );
        // Each parent short one child share: nothing reconstructs.
        assert_eq!(tree.recover(|p| p[1] < 3), None);
        // Only 2 parents fully available: below the layer-0 threshold.
        assert_eq!(tree.recover(|p| p[0] < 2), None);
    }

    #[test]
    fn lemma1_threshold_coalition_learns_nothing() {
        // Adversary holds exactly t_i shares of every i-share: Lemma 1 says
        // no information; operationally, recovery must fail.
        let mut rng = rng(3);
        let layers = [Layer::majority(6), Layer::majority(6), Layer::majority(6)];
        let tree = ShareTree::deal(Gf16::new(0x5EED), &layers, &mut rng).unwrap();
        // Hold the first t=3 children everywhere (thresholds are t+1=4).
        assert_eq!(tree.recover(|p| p.iter().all(|&i| i < 3)), None);
        // One extra share at the deepest layer alone is still not enough:
        // parents above remain below threshold.
        assert_eq!(tree.recover(|p| p[0] < 3 && p[1] < 3 && p[2] < 4), None);
    }

    #[test]
    fn mixed_layer_sizes() {
        let mut rng = rng(4);
        let secret = Gf16::new(0x7777);
        let layers = [Layer { n: 3, t: 1 }, Layer { n: 5, t: 2 }];
        let tree = ShareTree::deal(secret, &layers, &mut rng).unwrap();
        assert_eq!(tree.leaf_count(), 15);
        // 2 parents (t0+1) each with 3 children (t1+1) reconstruct.
        assert_eq!(tree.recover(|p| p[0] < 2 && p[1] < 3), Some(secret));
        assert_eq!(tree.recover(|p| p[0] < 1 && p[1] < 5), None);
    }

    #[test]
    fn empty_layers_rejected() {
        let mut rng = rng(5);
        assert!(ShareTree::deal(Gf16::ZERO, &[], &mut rng).is_err());
    }

    #[test]
    fn reshare_then_reassemble_roundtrip() {
        let mut rng = rng(6);
        let parent = Share::new(Gf16::new(3), Gf16::new(0x1A2B));
        let layer = Layer::majority(7); // t = 3
        let children = reshare(parent, layer, &mut rng).unwrap();
        assert_eq!(children.len(), 7);
        let back = shamir::reconstruct(&children[..4]).unwrap();
        assert_eq!(back, parent.y);
    }

    #[test]
    fn reassemble_with_too_few_children_fails() {
        let mut rng = rng(7);
        let parent = Share::new(Gf16::new(1), Gf16::new(0x9999));
        let children = reshare(parent, Layer::majority(5), &mut rng).unwrap();
        // t = 2, so 2 shares under-determine the polynomial: the call
        // "succeeds" arithmetically but yields the wrong value with
        // overwhelming probability (non-verifiable scheme). Check both the
        // hard failure (0 shares) and the wrong-value case.
        assert!(shamir::reconstruct(&[]).is_err());
        let under = shamir::reconstruct(&children[..2]).unwrap();
        assert_ne!(
            under, parent.y,
            "2-of-5 majority sharing cannot determine value"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any coalition that holds a full (t+1)-subtree everywhere
            /// recovers; any coalition capped at t per committee never does.
            #[test]
            fn threshold_dichotomy(
                secret in any::<u16>(),
                n1 in 3usize..8,
                n2 in 3usize..8,
                seed in any::<u64>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let layers = [Layer::majority(n1), Layer::majority(n2)];
                let secret = Gf16::new(secret);
                let tree = ShareTree::deal(secret, &layers, &mut rng).unwrap();
                let (t1, t2) = (layers[0].t, layers[1].t);
                prop_assert_eq!(
                    tree.recover(|p| p[0] <= t1 && p[1] <= t2),
                    Some(secret)
                );
                prop_assert_eq!(tree.recover(|p| p[1] < t2), None);
                prop_assert_eq!(tree.recover(|p| p[0] < t1), None);
            }

            /// Arena and boxed-reference dealings of identical RNG
            /// streams are the same object: same leaf shares in the
            /// same order, same recovery outcome for arbitrary
            /// coalitions.
            #[test]
            fn arena_equals_boxed_reference(
                secret in any::<u16>(),
                n1 in 2usize..6,
                n2 in 2usize..6,
                n3 in 2usize..5,
                seed in any::<u64>(),
                mask in any::<u64>(),
            ) {
                let layers = [Layer::majority(n1), Layer::majority(n2), Layer::majority(n3)];
                let secret = Gf16::new(secret);
                let arena = ShareTree::deal(
                    secret, &layers, &mut StdRng::seed_from_u64(seed),
                ).unwrap();
                let boxed = reference::ShareTree::deal(
                    secret, &layers, &mut StdRng::seed_from_u64(seed),
                ).unwrap();
                prop_assert_eq!(arena.leaf_shares(), boxed.leaf_shares());
                // A pseudo-random coalition from the mask bits.
                let holds = |p: &[usize]| {
                    let h = p.iter().fold(0x9E37u64, |a, &i| {
                        a.wrapping_mul(31).wrapping_add(i as u64 + 1)
                    });
                    mask.rotate_left((h % 64) as u32) & 1 == 1
                };
                prop_assert_eq!(arena.recover(holds), boxed.recover(holds));
                prop_assert_eq!(arena.recover(|_| true), Some(secret));
                prop_assert_eq!(arena.recover(|_| true), boxed.recover(|_| true));
            }

            /// Recovery is monotone: adding leaves never destroys it.
            #[test]
            fn recovery_monotone(
                secret in any::<u16>(),
                seed in any::<u64>(),
                k in 0usize..25,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let layers = [Layer::majority(5), Layer::majority(5)];
                let tree = ShareTree::deal(Gf16::new(secret), &layers, &mut rng).unwrap();
                let paths = tree.leaf_paths();
                let k = k.min(paths.len());
                let small: std::collections::HashSet<_> =
                    paths[..k].iter().cloned().collect();
                let holds_small = |p: &[usize]| small.contains(p);
                if let Some(v) = tree.recover(holds_small) {
                    // superset (everything) must also recover, to the same value
                    prop_assert_eq!(tree.recover(|_| true), Some(v));
                    prop_assert_eq!(v, Gf16::new(secret));
                }
            }
        }
    }
}
