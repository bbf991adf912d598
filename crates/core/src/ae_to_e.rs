//! Algorithm 3: almost-everywhere → everywhere agreement (paper §4).
//!
//! After the tournament, `(1/2 + ε)n` *knowledgeable* processors agree on
//! a message `M` and share a global coin sequence; the rest are
//! *confused*. Each processor sends `a·log n` requests carrying each
//! label `i ∈ [√n]` to uniformly random processors. A global random label
//! `k ∈ [√n]` (from the coin sequence, hidden from the adversary until it
//! acts) selects which requests knowledgeable processors answer — and
//! they answer only if not *overloaded* (> √n·log n requests with label
//! `k`), which caps the bits any adversary can force them to send.
//! A requester decides `M` when enough answers for its most-answered
//! label agree (Lemmas 7–9); `Θ(log n)` independent loops drive the
//! failure probability to `n^{-c}` (Lemma 10).
//!
//! Private channels are load-bearing here: the adversary cannot see which
//! labels good processors sent where, so it cannot pre-corrupt the
//! responders of the winning label — this is how the protocol escapes the
//! `Ω(n^{1/3})` lower bound for pre-specified listening sets (§2).

use ba_sim::{derive_rng, Envelope, Payload, ProcId, Process, RoundCtx};
use rand::Rng;
use std::collections::HashMap;

/// Messages of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AeMsg {
    /// "Please answer if the global label selects `label`."
    Request {
        /// The request label in `[0, labels)`.
        label: u16,
    },
    /// A knowledgeable processor's answer.
    Response {
        /// The label being answered.
        label: u16,
        /// The carried message `M`.
        value: u64,
    },
}

// Algorithm 3 is `n·√n·a·log n` request envelopes a loop: their size is
// the engine's memory (plus a 4-byte index entry each).
const _: () = assert!(std::mem::size_of::<Envelope<AeMsg>>() <= 24);

impl Payload for AeMsg {
    fn bit_len(&self) -> u64 {
        match self {
            // A label is log₂√n ≤ 16 bits; charge the full word.
            AeMsg::Request { .. } => 16,
            AeMsg::Response { .. } => 16 + 64,
        }
    }
}

impl ba_sim::WireMsg for AeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use ba_sim::wire::{put_u16, put_u64, put_u8};
        match self {
            AeMsg::Request { label } => {
                put_u8(out, 0);
                put_u16(out, *label);
            }
            AeMsg::Response { label, value } => {
                put_u8(out, 1);
                put_u16(out, *label);
                put_u64(out, *value);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ba_sim::WireError> {
        use ba_sim::wire::{take_u16, take_u64, take_u8};
        match take_u8(buf)? {
            0 => Ok(AeMsg::Request {
                label: take_u16(buf)?,
            }),
            1 => Ok(AeMsg::Response {
                label: take_u16(buf)?,
                value: take_u64(buf)?,
            }),
            t => Err(ba_sim::WireError::BadTag(t)),
        }
    }
}

/// Configuration for Algorithm 3.
#[derive(Clone, Debug)]
pub struct AeToEConfig {
    /// Label space size (paper: `√n`).
    pub labels: usize,
    /// Requests per label: `⌈a·log₂ n⌉` with the paper's constant `a`.
    pub per_label: usize,
    /// Loop repetitions `X` (paper: `Θ(log n)`).
    pub loops: usize,
    /// Overload cap (paper: `√n·log n` requests for the active label).
    pub overload_cap: usize,
    /// Decision threshold numerator: decide on `m` when
    /// `≥ threshold_frac · per_label` consistent answers arrive for the
    /// best label (paper: `1/2 + 3ε/8`).
    pub threshold_frac: f64,
    /// Seed from which the per-loop global labels `k` are derived (stands
    /// in for `GenerateSecretNumber`; knowledgeable processors know it).
    pub coin_seed: u64,
    /// When present, the actual opened coin words drive the per-loop
    /// labels (`k_lp = schedule[lp] mod labels`) instead of the seed —
    /// the composition Algorithm 4 uses, where bad words hand the
    /// adversary advance knowledge of some loops' labels.
    pub label_schedule: Option<Vec<u16>>,
}

impl AeToEConfig {
    /// Paper-shaped defaults for `n` processors with slack `eps`.
    pub fn for_n(n: usize, eps: f64) -> Self {
        let log_n = (n as f64).log2().max(1.0);
        let sqrt_n = (n as f64).sqrt();
        AeToEConfig {
            labels: sqrt_n.ceil() as usize,
            per_label: (2.0 * log_n).ceil() as usize,
            loops: (2.0 * log_n).ceil() as usize,
            overload_cap: (sqrt_n * log_n).ceil() as usize,
            threshold_frac: 0.5 + 3.0 * eps / 8.0,
            coin_seed: 0xC0DE,
            label_schedule: None,
        }
    }

    /// Drives per-loop labels from opened coin words (see
    /// [`AeToEConfig::label_schedule`]).
    pub fn with_label_schedule(mut self, words: Vec<u16>) -> Self {
        self.label_schedule = Some(words);
        self
    }

    /// The global label for a loop (what `GenerateSecretNumber(loop)`
    /// returns; knowledgeable processors compute this, the adversary
    /// learns it only by corrupting one of them — after requests are out).
    pub fn global_label(&self, lp: usize) -> u16 {
        if let Some(schedule) = &self.label_schedule {
            if !schedule.is_empty() {
                return schedule[lp % schedule.len()] % self.labels as u16;
            }
        }
        let mut rng = derive_rng(self.coin_seed, 0x5EC2E7 ^ lp as u64);
        rng.gen_range(0..self.labels as u16)
    }

    /// Rounds one full execution takes: two rounds per loop (requests,
    /// responses) plus a final tally round.
    pub fn total_rounds(&self) -> usize {
        2 * self.loops + 1
    }
}

/// What a target slot holds once its answer is tallied: the index no
/// processor has for any `n < 2³²`, so no later response matches the
/// slot again.
const ANSWERED: usize = u32::MAX as usize;

/// Per-processor state machine for Algorithm 3.
#[derive(Debug)]
pub struct AeToEProcess {
    cfg: AeToEConfig,
    /// `Some(M)` = knowledgeable; `None` = confused.
    knowledge: Option<u64>,
    decided: Option<u64>,
    /// Whom this processor sent each label to in the current loop,
    /// label-major: label `l`'s target slots are
    /// `sent[l·per_label..(l + 1)·per_label]`. A slot whose answer has
    /// been counted holds [`ANSWERED`].
    sent: Vec<ProcId>,
    /// Responses received this loop as `(label, value, count)`, sorted by
    /// `(label, value)`, counting one response per target slot of the
    /// label.
    tally: Vec<(u16, u64, usize)>,
    /// Set once the full X-loop schedule has run; processors do not
    /// reveal their decision early (everyone participates in every loop —
    /// a processor cannot tell whether *others* have decided).
    finished: bool,
}

impl AeToEProcess {
    /// Creates a processor; `knowledge` is `Some(M)` for knowledgeable
    /// processors and `None` for confused ones.
    pub fn new(cfg: AeToEConfig, knowledge: Option<u64>) -> Self {
        AeToEProcess {
            cfg,
            knowledge,
            decided: knowledge,
            sent: Vec::new(),
            tally: Vec::new(),
            finished: false,
        }
    }

    /// Whether this processor started knowledgeable.
    pub fn is_knowledgeable(&self) -> bool {
        self.knowledge.is_some()
    }

    fn send_requests(&mut self, ctx: &mut RoundCtx<'_, AeMsg>) {
        self.sent.clear();
        self.tally.clear();
        let n = ctx.n();
        for label in 0..self.cfg.labels as u16 {
            for _ in 0..self.cfg.per_label {
                let to = ProcId::new(ctx.rng().gen_range(0..n));
                self.sent.push(to);
                ctx.send(to, AeMsg::Request { label });
            }
        }
    }

    fn answer_requests(
        &mut self,
        ctx: &mut RoundCtx<'_, AeMsg>,
        inbox: &[Envelope<AeMsg>],
        lp: usize,
    ) {
        // Confused processors cannot compute k and stay silent; that is
        // precisely why the adversary cannot learn k from them.
        let Some(m) = self.knowledge else { return };
        let k = self.cfg.global_label(lp);
        // Flood defence: a sender issuing more than n−1 requests total is
        // evidently corrupt (paper §4) and is ignored wholesale. Nobody
        // can have sent n requests into an inbox shorter than n.
        let n = ctx.n();
        let mut per_sender: HashMap<ProcId, usize> = HashMap::new();
        if inbox.len() >= n {
            for e in inbox {
                if matches!(e.payload, AeMsg::Request { .. }) {
                    *per_sender.entry(e.from).or_insert(0) += 1;
                }
            }
        }
        let hot = |e: &&Envelope<AeMsg>| {
            matches!(e.payload, AeMsg::Request { label } if label == k)
                && per_sender.get(&e.from).copied().unwrap_or(0) < n
        };
        if inbox.iter().filter(hot).count() > self.cfg.overload_cap {
            return; // overloaded: answer nobody (Alg. 3 step 3)
        }
        for e in inbox.iter().filter(hot) {
            ctx.send(e.from, AeMsg::Response { label: k, value: m });
        }
    }

    fn collect_responses(&mut self, inbox: &[Envelope<AeMsg>]) {
        let per_label = self.cfg.per_label;
        for e in inbox {
            let AeMsg::Response { label, value } = e.payload else {
                continue;
            };
            // Count one answer per sampled target slot of this label
            // (Alg. 3 step 4 tallies the sample, not the mail): a
            // processor sampled twice may answer twice, and nobody
            // answers more often than it was asked.
            let at = usize::from(label) * per_label;
            let Some(slots) = self.sent.get_mut(at..at + per_label) else {
                continue;
            };
            let Some(slot) = slots.iter_mut().find(|t| **t == e.from) else {
                continue;
            };
            *slot = ProcId::new(ANSWERED);
            match self
                .tally
                .binary_search_by_key(&(label, value), |&(l, v, _)| (l, v))
            {
                Ok(i) => self.tally[i].2 += 1,
                Err(i) => self.tally.insert(i, (label, value, 1)),
            }
        }
        // Decide per Alg. 3 step 4: the most-answered label, then its
        // most-given value. The tally is sorted and only a strictly
        // larger count displaces the best so far, so ties go to the
        // smallest label and the smallest value.
        if self.decided.is_some() {
            return;
        }
        let mut best: Option<(usize, u64, usize)> = None; // (label's total, value, count)
        for answers in self.tally.chunk_by(|a, b| a.0 == b.0) {
            let total: usize = answers.iter().map(|a| a.2).sum();
            if best.is_none_or(|(most, ..)| total > most) {
                // `max_by_key` keeps the last of equal maxima: reversed,
                // that is the first.
                let top = answers.iter().rev().max_by_key(|a| a.2);
                let &(_, value, count) = top.expect("a chunk is never empty");
                best = Some((total, value, count));
            }
        }
        let need = (self.cfg.threshold_frac * per_label as f64).ceil() as usize;
        if let Some((_, value, count)) = best {
            if count >= need {
                self.decided = Some(value);
            }
        }
    }
}

impl Process for AeToEProcess {
    type Msg = AeMsg;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, AeMsg>, inbox: &[Envelope<AeMsg>]) {
        let r = ctx.round();
        let total = self.cfg.total_rounds();
        if r >= total {
            self.finished = true;
            return;
        }
        if r % 2 == 0 {
            // Tally the previous loop's responses, then (if loops remain)
            // fire the next loop's requests. Every processor requests in
            // every loop — nobody can tell whether the others decided.
            if r > 0 {
                self.collect_responses(inbox);
            }
            if r < 2 * self.cfg.loops {
                self.send_requests(ctx);
            }
            if r == total - 1 {
                self.finished = true;
            }
        } else {
            let lp = r / 2;
            self.answer_requests(ctx, inbox, lp);
        }
    }

    fn output(&self) -> Option<u64> {
        // Decisions are revealed only after the full X-loop schedule;
        // `None` afterwards means "undecided" (Lemma 7(2) permits this
        // with vanishing probability).
        if self.finished {
            self.decided
        } else {
            None
        }
    }
}

/// Aggregate result of one Algorithm 3 execution (built by experiments
/// from a `RunOutcome<u64>`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AeToEOutcome {
    /// Good processors that ended agreeing on the knowledgeable message.
    pub agreed: usize,
    /// Good processors still undecided.
    pub undecided: usize,
    /// Good processors deciding a *wrong* value (must be 0 w.h.p. —
    /// Lemma 7(2)).
    pub wrong: usize,
}

impl AeToEOutcome {
    /// Tallies a run against the true message `m`.
    pub fn from_outputs(outputs: &[Option<u64>], corrupt: &[bool], m: u64) -> Self {
        let mut agreed = 0;
        let mut undecided = 0;
        let mut wrong = 0;
        for (o, &c) in outputs.iter().zip(corrupt) {
            if c {
                continue;
            }
            match o {
                Some(v) if *v == m => agreed += 1,
                Some(_) => wrong += 1,
                None => undecided += 1,
            }
        }
        AeToEOutcome {
            agreed,
            undecided,
            wrong,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::ResponseForger;
    use ba_sim::{NullAdversary, SimBuilder};

    const M: u64 = 0xFACE_FEED;

    fn run_basic(
        n: usize,
        knowledgeable_frac: f64,
        seed: u64,
    ) -> (AeToEOutcome, ba_sim::Metrics, usize) {
        let cfg = AeToEConfig::for_n(n, 0.1);
        let rounds = cfg.total_rounds();
        let cutoff = (n as f64 * knowledgeable_frac) as usize;
        let outcome = SimBuilder::new(n)
            .seed(seed)
            .build(
                |p, _| {
                    let k = (p.index() < cutoff).then_some(M);
                    AeToEProcess::new(cfg.clone(), k)
                },
                NullAdversary,
            )
            .run(rounds + 1);
        let o = AeToEOutcome::from_outputs(&outcome.outputs, &outcome.corrupt, M);
        (o, outcome.metrics, outcome.rounds)
    }

    #[test]
    fn everyone_knowledgeable_trivially_agrees() {
        let (o, _, _) = run_basic(100, 1.0, 1);
        assert_eq!(o.agreed, 100);
        assert_eq!(o.wrong, 0);
        assert_eq!(o.undecided, 0);
    }

    #[test]
    fn majority_knowledgeable_spreads_to_all() {
        let (o, _, _) = run_basic(144, 0.7, 2);
        assert_eq!(o.wrong, 0, "no good processor may decide wrongly");
        assert_eq!(
            o.undecided, 0,
            "with 70% knowledgeable and Θ(log n) loops everyone decides"
        );
        assert_eq!(o.agreed, 144);
    }

    #[test]
    fn bare_majority_still_spreads() {
        let (o, _, _) = run_basic(196, 0.60, 3);
        assert_eq!(o.wrong, 0);
        assert!(
            o.agreed >= 190,
            "agreed {} of 196 with 60% knowledgeable",
            o.agreed
        );
    }

    #[test]
    fn bits_scale_like_sqrt_n() {
        // Per-processor request bits ≈ √n · 2log n · 16; responses add a
        // similar order. Check the measured max is within a small factor
        // of the formula, and that it is sublinear in n.
        let mut per_n = Vec::new();
        for (n, seed) in [(64usize, 4u64), (256, 5)] {
            let (_, metrics, _) = run_basic(n, 0.7, seed);
            let max_bits = (0..n)
                .map(|i| metrics.bits_sent_by(ProcId::new(i)))
                .max()
                .unwrap();
            per_n.push((n, max_bits));
        }
        let (n0, b0) = per_n[0];
        let (n1, b1) = per_n[1];
        // Quadrupling n should much-less-than-quadruple bits (√n·polylog).
        let growth = b1 as f64 / b0 as f64;
        assert!(
            growth < (n1 as f64 / n0 as f64),
            "bit growth {growth} not sublinear"
        );
    }

    #[test]
    fn rounds_match_schedule() {
        let cfg = AeToEConfig::for_n(64, 0.1);
        assert_eq!(cfg.total_rounds(), 2 * cfg.loops + 1);
        let (_, _, rounds) = run_basic(64, 0.7, 6);
        assert!(rounds <= cfg.total_rounds() + 1);
    }

    #[test]
    fn global_label_is_deterministic_and_in_range() {
        let cfg = AeToEConfig::for_n(100, 0.1);
        for lp in 0..20 {
            let k = cfg.global_label(lp);
            assert_eq!(k, cfg.global_label(lp));
            assert!((k as usize) < cfg.labels);
        }
        // Different loops mostly get different labels.
        let distinct: std::collections::HashSet<u16> =
            (0..10).map(|lp| cfg.global_label(lp)).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn message_sizes() {
        assert_eq!(AeMsg::Request { label: 3 }.bit_len(), 16);
        assert_eq!(AeMsg::Response { label: 3, value: 9 }.bit_len(), 80);
    }

    #[test]
    fn a_target_is_tallied_once_per_slot_it_holds() {
        // Four slots a label, three consistent answers decide.
        let cfg = AeToEConfig {
            labels: 2,
            per_label: 4,
            threshold_frac: 0.6,
            ..AeToEConfig::for_n(16, 0.1)
        };
        let me = ProcId::new(0);
        let tallied = |answers: &[(usize, u64)]| {
            let mut p = AeToEProcess::new(cfg.clone(), None);
            // Label 1 went to p7, p3, p7 again and p9.
            p.sent = [1, 2, 4, 5, 7, 3, 7, 9].map(ProcId::new).to_vec();
            let inbox: Vec<Envelope<AeMsg>> = answers
                .iter()
                .map(|&(from, value)| {
                    Envelope::new(ProcId::new(from), me, AeMsg::Response { label: 1, value })
                })
                .collect();
            p.collect_responses(&inbox);
            (p.tally.clone(), p.decided)
        };
        // One corrupt target answering `need` times holds one slot: it
        // is counted once and decides nothing alone.
        assert_eq!(
            tallied(&[(3, 666), (3, 666), (3, 666)]),
            (vec![(1, 666, 1)], None)
        );
        // A processor sampled twice may answer twice, not three times.
        assert_eq!(tallied(&[(7, M), (7, M), (7, M)]), (vec![(1, M, 2)], None));
        // Three slots' worth of consistent answers decide as before, and
        // a processor that was never sent the label still counts nowhere.
        assert_eq!(
            tallied(&[(7, M), (3, M), (7, M), (8, 666), (1, 666)]),
            (vec![(1, M, 3)], Some(M))
        );
    }

    #[test]
    fn tied_tallies_decide_the_same_value_in_every_run() {
        // Small constants make ties common: with two requests per label
        // and half the processors corrupt, the true label's two honest
        // answers often meet a label whose two targets both forge. The
        // rule is smallest label, then smallest value — not whichever a
        // hash map happens to iterate last.
        let n = 12;
        let cfg = AeToEConfig {
            labels: 4,
            per_label: 2,
            loops: 3,
            ..AeToEConfig::for_n(n, 0.1)
        };
        let run = |seed: u64| {
            SimBuilder::new(n)
                .seed(seed)
                .max_corruptions(6)
                .build(
                    |p, _| AeToEProcess::new(cfg.clone(), (p.index() % 2 == 0).then_some(M)),
                    ResponseForger::new(6, 666),
                )
                .run(cfg.total_rounds() + 1)
                .outputs
        };
        let mut forged = 0;
        for seed in 0..50 {
            let first = run(seed);
            forged += first.iter().filter(|o| **o == Some(666)).count();
            for rep in 1..32 {
                assert_eq!(run(seed), first, "seed {seed}, repetition {rep}");
            }
        }
        // The forger arrives on time: at these constants it does flip
        // confused processors (so the ties above are real).
        assert!(forged > 0);
    }

    #[test]
    fn confused_processors_never_respond() {
        // With 0% knowledgeable, nobody can answer: all good processors
        // stay undecided (and send only requests).
        let (o, _, _) = run_basic(64, 0.0, 7);
        assert_eq!(o.agreed, 0);
        assert_eq!(o.wrong, 0);
        assert_eq!(o.undecided, 64);
    }
}
