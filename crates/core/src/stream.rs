//! The tournament's keyed RNG streams: one label type, one packing.
//!
//! An election draws from streams named by up to seven coordinates —
//! what the stream is for, the committee `(level, node)`, the candidate,
//! the bit of its bin choice, the agreement round and the member. They
//! do not fit one 64-bit label, and hand-XORed shifts of them ran into
//! each other (members into the bit field from `k > 256`). [`Label`]
//! gives every coordinate a field of its own width over the *two* words
//! [`ba_sim::derive_keyed_rng`] takes; a value too wide for its field
//! panics instead of folding into a neighbour. The kind tag sits in the
//! key word and is never zero, so no label meets a plain
//! [`ba_sim::derive_rng`] stream (whose key word is zero) either.

use ba_sim::{derive_keyed_rng, SimRng};

/// What a stream is drawn for, and (in the comments) which coordinates
/// its label carries; the others stay zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A committee's gossip graph: `(level, node)`.
    Graph = 1,
    /// The draws a committee's agreements make themselves (the `Split`
    /// attack's fair votes): `(level, node)`, one stream an election.
    Votes,
    /// The members' views of one candidate's declared bin choice:
    /// `(level, node, candidate)`, drawn bit-major then member-minor.
    InputViews,
    /// One member's view of one agreement round's coin, for one bit of
    /// one candidate's choice: all six coordinates.
    CoinView,
    /// One processor's view of a root-agreement round's coin:
    /// `(round, member)`.
    RootCoinView,
}

/// A stream's name. Build with [`Label::new`] and the coordinate
/// setters; [`Label::rng`] derives the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Label {
    kind: Kind,
    level: u8,
    node: u32,
    candidate: u16,
    bit: u8,
    round: u16,
    member: u32,
}

/// Narrows a coordinate to its field, refusing what does not fit: a
/// truncated coordinate is an aliased stream.
fn field<T: TryFrom<usize>>(value: usize, what: &str) -> T {
    T::try_from(value)
        .unwrap_or_else(|_| panic!("stream label: {what} {value} is wider than its field"))
}

impl Label {
    pub(crate) fn new(kind: Kind) -> Self {
        Label {
            kind,
            level: 0,
            node: 0,
            candidate: 0,
            bit: 0,
            round: 0,
            member: 0,
        }
    }

    /// The committee: tree level (8 bits) and node index (32).
    pub(crate) fn at(mut self, level: usize, node: usize) -> Self {
        self.level = field(level, "level");
        self.node = field(node, "node");
        self
    }

    /// Candidate position within the node's holdings (16 bits).
    pub(crate) fn candidate(mut self, candidate: usize) -> Self {
        self.candidate = field(candidate, "candidate");
        self
    }

    /// Bit of the bin choice (8 bits).
    pub(crate) fn bit(mut self, bit: usize) -> Self {
        self.bit = field(bit, "bit");
        self
    }

    /// Agreement round (16 bits).
    pub(crate) fn round(mut self, round: usize) -> Self {
        self.round = field(round, "round");
        self
    }

    /// Member position, or processor index at the root (32 bits).
    pub(crate) fn member(mut self, member: usize) -> Self {
        self.member = field(member, "member");
        self
    }

    /// The `(label, key)` words: `node | member ≪ 32` and
    /// `kind ≪ 48 | level ≪ 40 | bit ≪ 32 | candidate ≪ 16 | round`.
    /// Every field is as wide as its type, so the packing is injective.
    pub(crate) fn words(self) -> (u64, u64) {
        let label = u64::from(self.node) | u64::from(self.member) << 32;
        let key = (self.kind as u64) << 48
            | u64::from(self.level) << 40
            | u64::from(self.bit) << 32
            | u64::from(self.candidate) << 16
            | u64::from(self.round);
        (label, key)
    }

    /// The stream itself.
    pub(crate) fn rng(self, seed: u64) -> SimRng {
        let (label, key) = self.words();
        derive_keyed_rng(seed, label, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::keyed_seed;
    use proptest::prelude::*;

    const KINDS: [Kind; 5] = [
        Kind::Graph,
        Kind::Votes,
        Kind::InputViews,
        Kind::CoinView,
        Kind::RootCoinView,
    ];

    /// `(kind, level, node, candidate, bit, round, member)`.
    type Coords = (usize, usize, usize, usize, usize, usize, usize);

    fn label(c: Coords) -> Label {
        Label::new(KINDS[c.0])
            .at(c.1, c.2)
            .candidate(c.3)
            .bit(c.4)
            .round(c.5)
            .member(c.6)
    }

    fn seed_of(seed: u64, c: Coords) -> [u8; 32] {
        let (l, k) = label(c).words();
        keyed_seed(seed, l, k)
    }

    /// Every coordinate an election can reach for any `Params` shape up
    /// to n = 2²⁰: nodes and members below 2²⁰, candidates and rounds
    /// below 2¹², bits below 16, levels below 32.
    fn coords() -> impl Strategy<Value = Coords> {
        (
            (0usize..5, 0usize..32, 0usize..1 << 20),
            (0usize..1 << 12, 0usize..16, 0usize..1 << 12),
            0usize..1 << 20,
        )
            .prop_map(|((kind, level, node), (ci, bit, j), m)| (kind, level, node, ci, bit, j, m))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Distinct coordinates, distinct 32-byte ChaCha keys — for two
        /// unrelated tuples and for every tuple one XOR away in a single
        /// coordinate, which is how the shifted-XOR labels aliased
        /// (member `m ^ 0x100` on bit 0 was member `m` on bit 1).
        #[test]
        fn distinct_coordinates_get_distinct_seeds(
            a in coords(),
            b in coords(),
            flip in (0usize..7, 1usize..1 << 20),
            seed in any::<u64>(),
        ) {
            if a != b {
                prop_assert_ne!(seed_of(seed, a), seed_of(seed, b));
            }
            let mut near = [a.0, a.1, a.2, a.3, a.4, a.5, a.6];
            let (which, mask) = flip;
            let width = [5, 32, 1 << 20, 1 << 12, 16, 1 << 12, 1 << 20][which];
            near[which] = (near[which] ^ mask) % width;
            let near = (near[0], near[1], near[2], near[3], near[4], near[5], near[6]);
            if near != a {
                prop_assert_ne!(seed_of(seed, a), seed_of(seed, near));
            }
            // And none is a plain `derive_rng` stream of any label.
            let (l, k) = label(a).words();
            prop_assert_ne!(k, 0);
            prop_assert_ne!(keyed_seed(seed, l, k), keyed_seed(seed, l, 0));
        }
    }

    #[test]
    fn every_field_keeps_its_own_bits() {
        // The widest value of each coordinate alone sets exactly its
        // field, so no two fields share a bit.
        let all = Label::new(Kind::RootCoinView)
            .at(usize::from(u8::MAX), u32::MAX as usize)
            .candidate(usize::from(u16::MAX))
            .bit(usize::from(u8::MAX))
            .round(usize::from(u16::MAX))
            .member(u32::MAX as usize);
        assert_eq!(all.words(), (u64::MAX, 5 << 48 | (u64::MAX >> 16)));
        let one = |l: Label| {
            let (label, key) = l.words();
            (label, key & !(0xFFFF << 48))
        };
        let base = Label::new(Kind::Graph);
        assert_eq!(one(base.at(0xFF, 0)), (0, 0xFF << 40));
        assert_eq!(one(base.at(0, u32::MAX as usize)), (0xFFFF_FFFF, 0));
        assert_eq!(one(base.candidate(0xFFFF)), (0, 0xFFFF << 16));
        assert_eq!(one(base.bit(0xFF)), (0, 0xFF << 32));
        assert_eq!(one(base.round(0xFFFF)), (0, 0xFFFF));
        assert_eq!(one(base.member(u32::MAX as usize)), (0xFFFF_FFFF << 32, 0));
    }

    #[test]
    #[should_panic(expected = "candidate 65536 is wider than its field")]
    fn a_coordinate_too_wide_for_its_field_panics_instead_of_aliasing() {
        let _ = Label::new(Kind::InputViews).candidate(1 << 16);
    }
}
