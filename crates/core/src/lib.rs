//! # ba-core — the King–Saia scalable Byzantine agreement protocol
//!
//! A from-scratch implementation of *"Breaking the O(n²) Bit Barrier:
//! Scalable Byzantine agreement with an Adaptive Adversary"* (King & Saia,
//! PODC 2010): Byzantine agreement in which every processor sends only
//! `Õ(√n)` bits, tolerating an adaptive, rushing adversary that corrupts
//! up to a `1/3 − ε` fraction of processors mid-protocol, assuming private
//! channels and nothing else.
//!
//! ## Layers (bottom-up, matching the paper)
//!
//! * [`aeba`] — Algorithm 5: almost-everywhere binary agreement on a
//!   sparse random-regular gossip graph, driven by *unreliable global
//!   coins* (Theorem 3/5, Lemmas 11–13). Runs at full message level on
//!   the `ba-sim` engine.
//! * [`election`] — Algorithm 1: Feige's lightest-bin election over
//!   candidate *arrays* of secret random words (Lemma 4).
//! * `block` — the candidate arrays themselves: one block per tree
//!   level, each block holding a bin choice plus coin words (Def. 4).
//! * [`tournament`] — Algorithm 2: the election tournament up the
//!   communication tree, with iterated secret sharing protecting arrays
//!   from the adaptive adversary until their scheduled opening. Produces
//!   almost-everywhere agreement plus a global coin subsequence
//!   (Theorem 2, §3.5).
//! * [`ae_to_e`] — Algorithm 3: almost-everywhere → everywhere via
//!   `Õ(√n)` random request labels in `[√n]` gated by a global random
//!   label (Lemmas 7–10). Full message level.
//! * [`everywhere`] — Algorithm 4: the composed `Õ(√n)`-bit everywhere
//!   Byzantine agreement (Theorem 1).
//! * [`attacks`] — a library of adversary strategies exercising the
//!   adaptive/rushing/flooding threat model.
//!
//! ## Fidelity note
//!
//! The leaf protocols (Algorithms 3 and 5, and all baselines) execute as
//! per-processor state machines exchanging real messages through
//! `ba-sim`. The tournament (Algorithm 2) executes as a *structured
//! executor*: every protocol value (share routes, bin choices, election
//! outcomes, committee agreement dynamics, adversarial corruption and
//! equivocation) is computed faithfully step by step, while transport
//! bits and rounds are charged to processors via the exact per-operation
//! cost formulas of §3.6/Lemma 5 rather than by materializing every
//! share-replica message. [`tournament`]'s *Execution model* section
//! records this substitution; the E8 experiment cross-validates the
//! share-secrecy bookkeeping against the exact
//! [`ba_crypto::iterated::ShareTree`] model.
//!
//! Some legs are priced and never sent: intra-committee gossip, the
//! deal of each candidate array to its level-1 committee, `sendDown` and
//! `sendOpen` ([`tournament::CostModel`] lists each price and its
//! formula). The only tournament traffic on the transport is the
//! exposure exchange, the winners' `sendSecretUp` shares and the root
//! coins ([`TourMsg`]). Network faults and the hunt therefore reach
//! those three exchanges and never the priced legs: a deal, a `sendDown`
//! or a `sendOpen` is charged in full whatever the net drops, delays or
//! partitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ae_to_e;
pub mod aeba;
pub mod attacks;
mod block;
pub mod coin;
pub mod election;
pub mod everywhere;
mod scale;
mod stream;
pub mod tournament;
pub mod universe;

pub use ae_to_e::{AeToEConfig, AeToEOutcome};
pub use aeba::{AebaConfig, UnreliableCoin};
pub use everywhere::{EverywhereConfig, EverywhereOutcome, StackMsg};
pub use tournament::{TourMsg, TournamentConfig, TournamentOutcome};
