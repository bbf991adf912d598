//! Deterministic randomness infrastructure.
//!
//! Every processor owns a private coin (paper §1.1). The simulator derives
//! one independent ChaCha stream per processor from a single master seed so
//! whole executions replay bit-for-bit from `(seed, n, protocol)`.
//!
//! Two kinds of stream, one label scheme:
//!
//! * **ChaCha12 ([`SimRng`])** for every draw the paper's model gives to
//!   a party: processors' private coins, the adversary's streams and the
//!   tournament's deal and election `Label` streams. These stand in for
//!   real coins an adversary must not predict, so they keep a cipher.
//! * **Environment streams ([`EnvRng`], xoshiro256++)** for what no party
//!   owns or needs to hide: the lossy, jittered test network's drops,
//!   latencies and same-instant shuffles (`ba_net`'s `NET_LABEL` and
//!   `ORDER_LABEL`), which the paper does not model at all, and sampler
//!   construction — the tournament's gossip graphs, one per committee
//!   shape — which it makes public setup: Lemma 2 and Theorem 5 obtain
//!   the samplers and the gossip graph by the probabilistic method, one
//!   fixed object every party and the adversary know, whose guarantee
//!   holds for *any* set of bad vertices in it. They need statistical
//!   quality and speed — one `u64` a draw at ≈ 1 ns, where a ChaCha12
//!   `u64` is two cipher words — and replay per seed.
//!   [`derive_env_rng`] keys one from the first 32 bytes of the ChaCha
//!   stream of the same `(seed, label)`.

use rand::rngs::Xoshiro256PlusPlus;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The RNG of every party in the simulation — processors' coins,
/// adversaries, the deal, elections (cryptographic-quality, seedable,
/// portable across platforms). The test network and the public gossip
/// graphs draw from [`EnvRng`] instead.
pub type SimRng = ChaCha12Rng;

/// The RNG of the simulated environment: the faulty network's drops,
/// latencies and delivery shuffles and the public gossip graphs, never a
/// party's coin. xoshiro256++ by
/// name, not `rand`'s default generator, so swapping `rand` cannot change
/// the stream unseen.
pub type EnvRng = Xoshiro256PlusPlus;

/// Derives an independent RNG stream from a master seed and a stream label.
///
/// Streams with distinct `(seed, label)` pairs are computationally
/// independent. Labels 0..n are used for processor private coins; higher
/// label spaces are reserved for adversaries (`1 << 40 | i`), the
/// topology tree (`1 << 41 | i`), the `ba-net` network transport
/// (`1 << 42` and `1 << 43`) and the tournament's gossip graphs
/// (`1 << 60 | degree << 32 | k`), the last three keyed through
/// [`derive_env_rng`].
///
/// ```rust
/// use ba_sim::derive_rng;
/// use rand::RngCore;
/// let mut a = derive_rng(7, 0);
/// let mut b = derive_rng(7, 1);
/// assert_ne!(a.next_u64(), b.next_u64());
/// // Re-deriving replays the stream.
/// let mut a2 = derive_rng(7, 0);
/// assert_eq!(derive_rng(7, 0).next_u64(), a2.next_u64());
/// ```
pub fn derive_rng(master_seed: u64, label: u64) -> SimRng {
    derive_keyed_rng(master_seed, label, 0)
}

/// [`derive_rng`] with a second 64-bit label word beside the first.
///
/// `derive_rng` leaves the last eight bytes of the ChaCha key zero; the
/// `key` word goes there, so a structured label too wide for one word
/// (the tournament's `(kind, level, node, candidate, bit, round,
/// member)`) splits over the two and reaches the key without folding.
/// `key = 0` *is* `derive_rng(master_seed, label)`: a keyed caller keeps
/// a non-zero tag in `key`, and then no choice of its fields meets any
/// plain stream.
///
/// ```rust
/// use ba_sim::{derive_keyed_rng, derive_rng};
/// use rand::RngCore;
/// let plain = derive_rng(7, 3).next_u64();
/// assert_eq!(derive_keyed_rng(7, 3, 0).next_u64(), plain);
/// assert_ne!(derive_keyed_rng(7, 3, 1).next_u64(), plain);
/// ```
pub fn derive_keyed_rng(master_seed: u64, label: u64, key: u64) -> SimRng {
    SimRng::from_seed(keyed_seed(master_seed, label, key))
}

/// The 32-byte ChaCha key behind [`derive_keyed_rng`]: `master_seed`,
/// `label`, a mix of the two, and `key`, eight little-endian bytes each.
/// Distinct `(label, key)` pairs differ in it under any one seed.
pub fn keyed_seed(master_seed: u64, label: u64, key: u64) -> [u8; 32] {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&master_seed.to_le_bytes());
    seed[8..16].copy_from_slice(&label.to_le_bytes());
    // Mix so nearby labels do not share word prefixes in the seed.
    let mixed = master_seed
        .rotate_left(17)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ label.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    seed[16..24].copy_from_slice(&mixed.to_le_bytes());
    seed[24..32].copy_from_slice(&key.to_le_bytes());
    seed
}

/// Derives an environment stream ([`EnvRng`]) for `(master_seed, label)`:
/// its state is the first 32 bytes of `derive_rng(master_seed, label)`,
/// so a transport spends one ChaCha block to key it and none after.
///
/// ```rust
/// use ba_sim::derive_env_rng;
/// use rand::RngCore;
/// assert_eq!(derive_env_rng(7, 1).next_u64(), derive_env_rng(7, 1).next_u64());
/// assert_ne!(derive_env_rng(7, 1).next_u64(), derive_env_rng(7, 2).next_u64());
/// ```
pub fn derive_env_rng(master_seed: u64, label: u64) -> EnvRng {
    let mut seed = [0u8; 32];
    derive_rng(master_seed, label).fill_bytes(&mut seed);
    EnvRng::from_seed(seed)
}

/// Label space for adversary RNG streams.
pub(crate) const ADVERSARY_LABEL: u64 = 1 << 40;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let xs: Vec<u64> = (0..4).map(|_| derive_rng(42, 3).next_u64()).collect();
        assert!(xs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn distinct_labels_distinct_streams() {
        let a = derive_rng(42, 0).next_u64();
        let b = derive_rng(42, 1).next_u64();
        let c = derive_rng(43, 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_key_word_is_the_tail_of_the_seed_and_nothing_else_moves() {
        let plain = keyed_seed(42, 3, 0);
        assert_eq!(plain[24..], [0u8; 8], "derive_rng's own seeds end in zeros");
        let keyed = keyed_seed(42, 3, 0x0102_0304_0506_0708);
        assert_eq!(keyed[..24], plain[..24]);
        assert_eq!(keyed[24..], 0x0102_0304_0506_0708u64.to_le_bytes());
        assert_ne!(
            derive_keyed_rng(42, 3, 1).next_u64(),
            derive_rng(42, 3).next_u64()
        );
    }

    #[test]
    fn streams_look_uniform() {
        // Crude sanity check: mean of 10k uniform u8s is near 127.5.
        let mut rng = derive_rng(1, 9);
        let mut sum = 0u64;
        for _ in 0..10_000 {
            sum += u64::from(rng.next_u32() & 0xff);
        }
        let mean = sum as f64 / 10_000.0;
        assert!((mean - 127.5).abs() < 5.0, "mean {mean}");
    }
}
