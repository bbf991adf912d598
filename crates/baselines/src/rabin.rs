//! Rabin's randomized Byzantine agreement with a trusted common coin
//! (1983).
//!
//! Identical skeleton to Ben-Or, but the fallback coin is *global*: a
//! trusted beacon (Rabin used pre-dealt signed coin shares) hands every
//! processor the same uniform bit each phase. One lucky phase — the
//! beacon matching the leading value — collapses all good processors
//! onto one vote, so agreement takes expected O(1) phases instead of
//! exponential. The King–Saia paper's Algorithm 5 is exactly this
//! protocol transplanted onto a sparse gossip graph with the beacon
//! replaced by tournament-manufactured coins; this full-information,
//! complete-graph version isolates what that machinery buys.

use ba_sim::{derive_rng, Envelope, Payload, Process, RoundCtx};
use rand::Rng;

/// Configuration for Rabin's protocol.
#[derive(Clone, Copy, Debug)]
pub struct RabinConfig {
    /// Designed fault tolerance `t` (this variant wants `t < n/5`, as
    /// Ben-Or).
    pub t: usize,
    /// Maximum phases (expected O(1) suffice; the budget is for w.h.p.
    /// termination).
    pub max_phases: usize,
    /// Seed of the trusted beacon.
    pub beacon_seed: u64,
}

impl RabinConfig {
    /// `t = ⌈n/5⌉ − 1` and a logarithmic phase budget.
    pub fn for_n(n: usize) -> Self {
        RabinConfig {
            t: (n / 5).saturating_sub(1),
            max_phases: 2 * ((n as f64).log2().ceil() as usize).max(4),
            beacon_seed: 0x000B_EAC0,
        }
    }

    /// The trusted beacon's coin for a phase (common knowledge among the
    /// good — the modeled trusted dealer).
    pub(crate) fn beacon(&self, phase: usize) -> bool {
        derive_rng(self.beacon_seed, phase as u64).gen_bool(0.5)
    }

    /// Rounds: two per phase.
    pub fn total_rounds(&self) -> usize {
        2 * self.max_phases + 1
    }
}

/// Messages (same wire shapes as Ben-Or).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RbMsg {
    /// Report of the current vote.
    Report(bool),
    /// Proposal, ⊥ encoded as `None`.
    Propose(Option<bool>),
}

impl Payload for RbMsg {
    fn bit_len(&self) -> u64 {
        2
    }
}

impl ba_sim::WireMsg for RbMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use ba_sim::wire::{put_bool, put_u8};
        match self {
            RbMsg::Report(v) => {
                put_u8(out, 0);
                put_bool(out, *v);
            }
            RbMsg::Propose(p) => {
                put_u8(out, 1);
                p.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ba_sim::WireError> {
        use ba_sim::wire::{take_bool, take_u8, WireMsg};
        match take_u8(buf)? {
            0 => Ok(RbMsg::Report(take_bool(buf)?)),
            1 => Ok(RbMsg::Propose(WireMsg::decode(buf)?)),
            t => Err(ba_sim::WireError::BadTag(t)),
        }
    }
}

/// Per-processor state machine for Rabin's protocol.
#[derive(Debug)]
pub struct RabinProcess {
    config: RabinConfig,
    vote: bool,
    decided: Option<bool>,
    done: bool,
}

impl RabinProcess {
    /// Creates the processor with its input bit.
    pub fn new(config: RabinConfig, input: bool) -> Self {
        RabinProcess {
            config,
            vote: input,
            decided: None,
            done: false,
        }
    }
}

impl Process for RabinProcess {
    type Msg = RbMsg;
    type Output = bool;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, RbMsg>, inbox: &[Envelope<RbMsg>]) {
        let r = ctx.round();
        if r >= self.config.total_rounds() {
            self.done = true;
            return;
        }
        let n = ctx.n();
        let t = self.config.t;
        if r % 2 == 0 {
            if r > 0 {
                let phase = r / 2 - 1;
                let mut count = [0usize; 2];
                let mut seen = vec![false; n];
                for e in inbox {
                    if let RbMsg::Propose(Some(v)) = e.payload {
                        if !seen[e.from.index()] {
                            seen[e.from.index()] = true;
                            count[v as usize] += 1;
                        }
                    }
                }
                let leader = count[1] >= count[0];
                let c = count[leader as usize];
                if c > (n + t) / 2 {
                    self.decided = Some(leader);
                    self.vote = leader;
                } else if c > t {
                    self.vote = leader;
                } else if self.decided.is_none() {
                    // The one difference from Ben-Or: a *common* coin.
                    self.vote = self.config.beacon(phase);
                }
            }
            if self.decided.is_some() {
                self.done = true;
            }
            for p in ctx.all_procs() {
                ctx.send(p, RbMsg::Report(self.vote));
            }
        } else {
            let mut count = [0usize; 2];
            let mut seen = vec![false; n];
            for e in inbox {
                if let RbMsg::Report(v) = e.payload {
                    if !seen[e.from.index()] {
                        seen[e.from.index()] = true;
                        count[v as usize] += 1;
                    }
                }
            }
            let leader = count[1] >= count[0];
            let proposal = (count[leader as usize] > (n + t) / 2).then_some(leader);
            for p in ctx.all_procs() {
                ctx.send(p, RbMsg::Propose(proposal));
            }
        }
    }

    fn output(&self) -> Option<bool> {
        if self.done {
            self.decided.or(Some(self.vote))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{NullAdversary, SimBuilder, StaticAdversary};

    fn run_clean(n: usize, seed: u64, inputs: impl Fn(usize) -> bool) -> ba_sim::RunOutcome<bool> {
        let cfg = RabinConfig::for_n(n);
        SimBuilder::new(n)
            .seed(seed)
            .build(
                |p, _| RabinProcess::new(cfg, inputs(p.index())),
                NullAdversary,
            )
            .run(cfg.total_rounds() + 2)
    }

    #[test]
    fn unanimous_decides_fast() {
        let out = run_clean(20, 1, |_| true);
        assert!(out.all_good_agree_on(&true));
        assert!(out.rounds <= 8);
    }

    #[test]
    fn split_inputs_converge_quickly() {
        // The common coin ends splits in expected ≤ 2 lucky phases.
        let out = run_clean(25, 2, |i| i % 2 == 0);
        assert!(out.all_good_agree());
        assert!(out.rounds <= 20, "took {} rounds", out.rounds);
    }

    #[test]
    fn crash_faults_tolerated() {
        let n = 25;
        let cfg = RabinConfig::for_n(n);
        let out = SimBuilder::new(n)
            .seed(3)
            .max_corruptions(cfg.t)
            .build(
                |p, _| RabinProcess::new(cfg, p.index() >= cfg.t),
                StaticAdversary::first_k(cfg.t),
            )
            .run(cfg.total_rounds() + 2);
        assert!(out.all_good_agree_on(&true));
    }

    #[test]
    fn beacon_is_common_and_deterministic() {
        let cfg = RabinConfig::for_n(16);
        for phase in 0..10 {
            assert_eq!(cfg.beacon(phase), cfg.beacon(phase));
        }
        // Not constant.
        let coins: Vec<bool> = (0..32).map(|p| cfg.beacon(p)).collect();
        assert!(coins.iter().any(|&c| c) && coins.iter().any(|&c| !c));
    }

    #[test]
    fn faster_than_ben_or_on_splits() {
        // Statistical: over several seeds, Rabin's rounds-to-agreement on
        // a split never exceeds Ben-Or's worst and usually beats it.
        let mut rabin_total = 0usize;
        let mut benor_total = 0usize;
        for seed in 0..5 {
            let out = run_clean(20, 10 + seed, |i| i % 2 == 0);
            rabin_total += out.rounds;
            let cfg = crate::BenOrConfig::for_n(20);
            let out = SimBuilder::new(20)
                .seed(10 + seed)
                .build(
                    |p, _| crate::BenOrProcess::new(cfg, p.index() % 2 == 0),
                    NullAdversary,
                )
                .run(cfg.total_rounds() + 2);
            benor_total += out.rounds;
        }
        assert!(
            rabin_total <= benor_total,
            "rabin {rabin_total} vs ben-or {benor_total}"
        );
    }
}
