//! Candidate arrays of secret random words (paper §3, Definition 4).
//!
//! Instead of electing *processors* (which an adaptive adversary would
//! immediately corrupt), the tournament elects *arrays of random numbers*,
//! "each generated initially by a processor" and kept secret-shared until
//! the moment each word is needed. An array holds one [`Block`] per tree
//! level; a block carries the bin choice for that level's election plus
//! the coin words used to run Byzantine agreement on every candidate's
//! bin choice (Def. 4), and an extra block feeds the global coin
//! subsequence of §3.5.

use ba_crypto::Gf16;
use ba_topology::Params;
use rand::Rng;

/// One block of a candidate array (Definition 4): an initial *bin choice*
/// word `B(0)` followed by coin words `B(1..=r)` for the `r` candidates
/// whose bin choices must be agreed on at this level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Block {
    /// `B(0)`: the bin this array selects in Feige's election, in
    /// `[0, numBins)`.
    pub bin_choice: Gf16,
    /// `B(1..)`: coin words consumed by the per-candidate agreement runs.
    pub coins: Vec<Gf16>,
}

impl Block {
    /// Generates a block with a uniform bin choice in `[0, num_bins)` and
    /// `coin_count` uniform coin words.
    pub(crate) fn generate<R: Rng + ?Sized>(
        num_bins: usize,
        coin_count: usize,
        rng: &mut R,
    ) -> Self {
        Block {
            bin_choice: Gf16::new(rng.gen_range(0..num_bins as u16)),
            coins: (0..coin_count).map(|_| Gf16::new(rng.gen())).collect(),
        }
    }

    /// Number of 16-bit words in the block.
    pub(crate) fn word_count(&self) -> usize {
        1 + self.coins.len()
    }
}

/// A full candidate array: one block per election level (levels
/// `2..=levels`), plus the extra block for the global coin subsequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CandidateArray {
    /// The processor that generated the array.
    pub owner: usize,
    /// `blocks[i]` serves the election at tree level `i + 2`; the last
    /// entry serves the root agreement.
    pub blocks: Vec<Block>,
    /// Extra words opened at the root for the global coin subsequence
    /// (§3.5 "add one more block of the desired length").
    pub extra: Vec<Gf16>,
}

impl CandidateArray {
    /// Generates the array a processor deals at protocol start: for each
    /// level `ℓ ∈ 2..=levels` a block with `candidates_at(ℓ)` coin words,
    /// plus `extra_words` for the coin subsequence.
    pub(crate) fn generate<R: Rng + ?Sized>(
        owner: usize,
        params: &Params,
        extra_words: usize,
        rng: &mut R,
    ) -> Self {
        let blocks = (2..=params.levels)
            .map(|level| {
                Block::generate(params.num_bins_at(level), params.candidates_at(level), rng)
            })
            .collect();
        CandidateArray {
            owner,
            blocks,
            extra: (0..extra_words).map(|_| Gf16::new(rng.gen())).collect(),
        }
    }

    /// The block used by the election at tree `level` (2-based).
    ///
    /// # Panics
    ///
    /// Panics if `level < 2` or past the root.
    pub(crate) fn block_for_level(&self, level: usize) -> &Block {
        assert!(level >= 2, "level-1 nodes hold no elections");
        &self.blocks[level - 2]
    }

    /// Total number of 16-bit words in the array (what `secretShare`
    /// splits and `sendSecretUp` forwards).
    pub(crate) fn word_count(&self) -> usize {
        self.blocks.iter().map(Block::word_count).sum::<usize>() + self.extra.len()
    }

    /// Words remaining from `level` upward — the subsequence `S′` that
    /// winners forward to the parent (Alg. 2 step 2(c) sends only the
    /// not-yet-consumed blocks).
    pub(crate) fn words_from_level(&self, level: usize) -> usize {
        let skip = level.saturating_sub(2).min(self.blocks.len());
        self.blocks[skip..]
            .iter()
            .map(Block::word_count)
            .sum::<usize>()
            + self.extra.len()
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
    fn block_shape() {
        let mut rng = rng(1);
        let b = Block::generate(4, 10, &mut rng);
        assert!(b.bin_choice.raw() < 4);
        assert_eq!(b.coins.len(), 10);
        assert_eq!(b.word_count(), 11);
    }

    #[test]
    fn array_matches_params() {
        let params = ba_topology::Params::practical(256);
        let mut rng = rng(2);
        let a = CandidateArray::generate(17, &params, 8, &mut rng);
        assert_eq!(a.owner, 17);
        assert_eq!(a.blocks.len(), params.levels - 1);
        for level in 2..=params.levels {
            let b = a.block_for_level(level);
            assert_eq!(b.coins.len(), params.candidates_at(level));
            assert!((b.bin_choice.raw() as usize) < params.num_bins);
        }
        assert_eq!(a.extra.len(), 8);
        let words: usize = (2..=params.levels)
            .map(|l| 1 + params.candidates_at(l))
            .sum::<usize>()
            + 8;
        assert_eq!(a.word_count(), words);
    }

    #[test]
    fn words_from_level_shrinks() {
        let params = ba_topology::Params::practical(256);
        let mut rng = rng(3);
        let a = CandidateArray::generate(0, &params, 4, &mut rng);
        assert_eq!(a.words_from_level(2), a.word_count());
        let mut prev = a.word_count() + 1;
        for level in 2..=params.levels {
            let now = a.words_from_level(level);
            assert!(now < prev, "level {level}: {now} !< {prev}");
            prev = now;
        }
        // Past the last block only the extra words remain.
        assert_eq!(a.words_from_level(params.levels + 1), 4);
    }

    #[test]
    fn bin_choices_roughly_uniform() {
        let mut rng = rng(4);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let b = Block::generate(4, 0, &mut rng);
            counts[b.bin_choice.raw() as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bin counts skewed: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "no elections")]
    fn level_one_block_panics() {
        let params = ba_topology::Params::practical(64);
        let a = CandidateArray::generate(0, &params, 0, &mut rng(5));
        let _ = a.block_for_level(1);
    }
}
