//! Shared scale + seeding for the stack's phase configurations.
//!
//! Every phase config used to carry its own copy-pasted `for_n`/
//! `with_seed` builder pair, each re-deriving the same seed split for the
//! engine phase. [`StackParams`] is the one place those live now: the
//! per-phase configs implement `from_params` +
//! `apply_seed` and get the public builder pair from the crate-private
//! `impl_scale_builders!` macro.

/// Salt separating the engine-phase (Algorithm 3) randomness stream from
/// the tournament stream when both derive from one master seed.
const ENGINE_SEED_SALT: u64 = 0x5151_5151;

/// The scale and seeding shared by every protocol-stack configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StackParams {
    /// Number of processors.
    pub n: usize,
    /// Master seed; phases derive their streams from it.
    pub seed: u64,
}

impl StackParams {
    /// Defaults for `n` processors (seed 0).
    pub(crate) fn for_n(n: usize) -> Self {
        StackParams { n, seed: 0 }
    }

    /// The tournament phase's seed (tree generation, dealing, committees).
    pub(crate) fn tournament_seed(&self) -> u64 {
        self.seed
    }

    /// The engine phase's seed (Algorithm-3 simulation), split from the
    /// master so the two phases never share a stream.
    pub(crate) fn engine_seed(&self) -> u64 {
        self.seed ^ ENGINE_SEED_SALT
    }
}

/// Generates the public `for_n`/`with_seed` builder pair for a config
/// type that implements `from_params(&StackParams)` and
/// `apply_seed(u64)`.
macro_rules! impl_scale_builders {
    ($ty:ty) => {
        impl $ty {
            /// Paper-shaped defaults for `n` processors.
            pub fn for_n(n: usize) -> Self {
                Self::from_params(&$crate::scale::StackParams::for_n(n))
            }

            /// Overrides the run's master seed.
            pub fn with_seed(mut self, seed: u64) -> Self {
                self.apply_seed(seed);
                self
            }
        }
    };
}

pub(crate) use impl_scale_builders;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_split_is_stable() {
        let sp = StackParams { n: 64, seed: 7 };
        assert_eq!(sp.tournament_seed(), 7);
        assert_eq!(sp.engine_seed(), 7 ^ ENGINE_SEED_SALT);
        assert_ne!(sp.tournament_seed(), sp.engine_seed());
    }
}
