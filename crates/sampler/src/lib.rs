//! # ba-sampler — averaging samplers and random regular graphs
//!
//! Two graph families underpin the King–Saia construction:
//!
//! * **Averaging (oblivious) samplers** (paper Def. 2, Lemma 2): functions
//!   `H : [r] → [s]^d` assigning a size-`d` multiset of elements to every
//!   input, such that for *every* adversarial subset `S ⊆ [s]`, at most a
//!   `δ` fraction of inputs over-sample `S` by more than `θ`. The paper
//!   uses them to populate tree nodes with processors — guaranteeing that
//!   almost every committee inherits the global fraction of good
//!   processors — and to wire the links between committees, whose
//!   traffic the tournament prices without drawing them.
//! * **Random regular graphs** (Theorem 5): the gossip graph `G` for
//!   almost-everywhere Byzantine agreement with unreliable coins is a
//!   random `k·log n`-regular graph. Like the samplers it is public setup
//!   whose guarantee holds for any set of bad vertices, so a tournament
//!   trial builds one graph per committee shape `(k, degree)` and every
//!   committee of that size gossips over it ([`cache`] counts the builds).
//!
//! Lemma 2 establishes sampler existence by the probabilistic method — a
//! random assignment works w.h.p. — so [`Sampler::random`] *is* the
//! construction; [`Sampler::check`] Monte-Carlo-verifies the `(θ, δ)`
//! property so experiments can re-seed in the (never observed) event of a
//! bad draw.
//!
//! ```rust
//! use ba_sampler::Sampler;
//! use rand::SeedableRng;
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(5);
//!
//! // Assign each of 64 committees a multiset of 24 of 256 processors.
//! let h = Sampler::random(64, 256, 24, &mut rng);
//! assert_eq!(h.sample(0).len(), 24);
//! // With 1/4 of processors bad, almost every committee is ≈1/4 bad.
//! let bad: Vec<bool> = (0..256).map(|i| i % 4 == 0).collect();
//! let report = h.check(&bad, 0.15);
//! assert!(report.violating_fraction < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod regular;
mod sampler;

pub use cache::CacheStats;
pub use regular::RegularGraph;
pub use sampler::{CheckReport, Sampler};
