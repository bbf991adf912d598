//! # ba-sim — synchronous message-passing simulator with a Byzantine adversary
//!
//! This crate is the substrate on which the King–Saia PODC 2010 protocol
//! stack (and its baselines) run. It models exactly the communication model
//! of the paper's §1.1:
//!
//! * **Synchronous rounds.** Communication proceeds in lock-step rounds.
//!   In each round every good processor consumes the messages delivered to
//!   it at the start of the round and emits messages that arrive at the
//!   start of the next round.
//! * **Rushing adversary.** The adversary observes every message addressed
//!   to a corrupted processor *in the current round, before* it decides on
//!   its own messages for that round.
//! * **Adaptive adversary.** At any point the adversary may take over
//!   additional processors, up to a configurable budget (the paper allows
//!   any fraction below `1/3 − ε`). Taking over a processor exposes its
//!   current internal state and silences its honest logic from then on.
//! * **Private channels.** Messages between two good processors are never
//!   shown to the adversary; only traffic touching corrupted processors is
//!   visible.
//! * **Flooding.** Corrupted processors may inject any number of messages;
//!   good processors must defend themselves at the protocol level. A
//!   configurable cap merely protects the simulator's memory, not the
//!   protocols.
//! * **Bit accounting.** Every envelope is charged to its sender with an
//!   exact bit size (see [`Payload`]), so "bits sent per processor" — the
//!   headline metric of the paper — is measured, not estimated.
//!
//! ## Quick example
//!
//! ```rust
//! use ba_sim::{Envelope, NullAdversary, Process, ProcId, RoundCtx, SimBuilder};
//!
//! /// Every processor broadcasts its input bit once, then outputs the
//! /// majority of the bits it received.
//! struct MajorityOnce {
//!     input: bool,
//!     decided: Option<bool>,
//! }
//!
//! impl Process for MajorityOnce {
//!     type Msg = bool;
//!     type Output = bool;
//!
//!     fn on_round(&mut self, ctx: &mut RoundCtx<'_, bool>, inbox: &[Envelope<bool>]) {
//!         match ctx.round() {
//!             0 => {
//!                 for p in ctx.all_procs() {
//!                     ctx.send(p, self.input);
//!                 }
//!             }
//!             1 => {
//!                 let ones = inbox.iter().filter(|e| e.payload).count();
//!                 self.decided = Some(2 * ones >= inbox.len());
//!             }
//!             _ => {}
//!         }
//!     }
//!
//!     fn output(&self) -> Option<bool> {
//!         self.decided
//!     }
//! }
//!
//! let outcome = SimBuilder::new(8)
//!     .seed(7)
//!     .build(|_, _| MajorityOnce { input: true, decided: None }, NullAdversary)
//!     .run(10);
//! assert!(outcome.all_good_agree_on(&true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod engine;
mod ids;
mod message;
mod metrics;
mod payload;
mod process;
mod rng;
mod schedule;
mod transport;
pub mod wire;

pub use adversary::{AdvAction, AdvView, Adversary, NullAdversary, StaticAdversary};
pub use engine::{RunOutcome, Sim, SimBuilder};
pub use ids::ProcId;
pub use message::{Carrier, Envelope};
pub use metrics::{BitStats, Metrics};
pub use payload::Payload;
pub use process::{Process, RoundCtx};
pub use rng::{derive_env_rng, derive_keyed_rng, derive_rng, keyed_seed, EnvRng, SimRng};
pub use schedule::{Phase, PhaseId, Schedule};
pub use transport::{Lockstep, Multicast, Transport};
pub use wire::{WireError, WireMsg};
