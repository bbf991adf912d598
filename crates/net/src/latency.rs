//! Per-link latency models.
//!
//! Latencies are measured in abstract ticks (the synchrony adapter maps
//! `delta` ticks to one protocol round). Every sample is drawn from the
//! transport's single derived environment stream (`ba_sim::EnvRng`,
//! xoshiro256++: one `u64` a `Uniform` or `HeavyTail` sample), consumed in
//! global emission order — which is what keeps a run byte-identical per
//! seed at any worker-thread count: parallelism in this workspace is
//! across *trials*, and each trial owns its own transport and stream.

use rand::Rng;

/// How long a message spends on the wire, in ticks.
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks (0 = the paper's
    /// instantaneous synchronous links). Consumes no randomness.
    Constant(u64),
    /// Uniform in `[lo, hi]` ticks.
    Uniform {
        /// Minimum latency (inclusive).
        lo: u64,
        /// Maximum latency (inclusive).
        hi: u64,
    },
    /// A truncated Pareto (Lomax) tail: mostly fast, occasionally very
    /// slow — the classic long-tail WAN profile.
    ///
    /// `floor + scale · ((1 − u)^(−1/alpha) − 1)`, capped at `cap`.
    /// Smaller `alpha` means a heavier tail (`alpha ≤ 1` has infinite
    /// mean before truncation).
    HeavyTail {
        /// Minimum latency: every message takes at least this long.
        floor: u64,
        /// Tail scale in ticks.
        scale: f64,
        /// Tail index; smaller = heavier.
        alpha: f64,
        /// Hard upper truncation in ticks.
        cap: u64,
    },
}

impl LatencyModel {
    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                if lo >= hi {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
            LatencyModel::HeavyTail {
                floor,
                scale,
                alpha,
                cap,
            } => {
                let u: f64 = rng.gen(); // uniform in [0, 1)
                let tail = scale * ((1.0 - u).powf(-1.0 / alpha.max(1e-9)) - 1.0);
                let raw = floor as f64 + tail.max(0.0);
                (raw.min(cap as f64)) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::derive_env_rng;

    #[test]
    fn constant_is_constant_and_draw_free() {
        let mut rng = derive_env_rng(1, 0);
        let before = rng.clone();
        assert_eq!(LatencyModel::Constant(7).sample(&mut rng), 7);
        // The stream was not consumed.
        let mut b = before;
        use rand::RngCore;
        assert_eq!(rng.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = derive_env_rng(2, 0);
        let m = LatencyModel::Uniform { lo: 10, hi: 20 };
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!((10..=20).contains(&s), "sample {s}");
        }
        // Degenerate range returns lo without panicking.
        assert_eq!(LatencyModel::Uniform { lo: 5, hi: 5 }.sample(&mut rng), 5);
    }

    #[test]
    fn heavy_tail_respects_floor_and_cap() {
        let mut rng = derive_env_rng(3, 0);
        let m = LatencyModel::HeavyTail {
            floor: 50,
            scale: 100.0,
            alpha: 1.2,
            cap: 5_000,
        };
        let samples: Vec<u64> = (0..5_000).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (50..=5_000).contains(&s)));
        // The tail actually produces outliers well beyond the floor.
        assert!(samples.iter().any(|&s| s > 500));
        // ... but the bulk stays near the floor.
        let near = samples.iter().filter(|&&s| s < 300).count();
        assert!(near > samples.len() / 2);
    }

    #[test]
    fn sampling_is_deterministic_per_stream() {
        let m = LatencyModel::Uniform { lo: 0, hi: 999 };
        let a: Vec<u64> = {
            let mut rng = derive_env_rng(9, 4);
            (0..32).map(|_| m.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = derive_env_rng(9, 4);
            (0..32).map(|_| m.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
