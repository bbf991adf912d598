//! # ba-topology — the King–Saia communication tree
//!
//! The protocol (paper §3.2.2) arranges the `n` processors into committees
//! ("nodes") forming a complete q-ary tree: `n` level-1 nodes of `k₁`
//! processors each, shrinking in count and growing in committee size up to
//! a root committee containing every processor. In the paper, sampled
//! **uplinks** connect child-committee members to parent-committee members
//! (carrying shares up in `sendSecretUp` and back down in `sendDown`), and
//! **ℓ-links** connect committee members directly to their level-1
//! descendants (carrying opened values in `sendOpen`). The tournament
//! prices that traffic through its cost model and never sends it, so the
//! tree draws no links: their degrees live in [`Params`] for the cost
//! model to read.
//!
//! * [`Params`] — every tunable constant, in both the paper's asymptotic
//!   form and a structure-preserving practical scaling (see DESIGN.md §3).
//! * [`Tree`] — the generated structure: committee membership only,
//!   common knowledge derived from a public seed.
//! * [`Goodness`] — Definition 3 analysis: good nodes, good paths, bad
//!   node fractions per level.
//!
//! ```rust
//! use ba_topology::{Goodness, NodeAddr, Params, Tree};
//!
//! let params = Params::practical(256);
//! let tree = Tree::generate(&params, 0xFEED);
//! let root = NodeAddr::new(params.levels, 0);
//! assert_eq!(tree.members(root).len(), 256);
//!
//! let corrupt = vec![false; 256];
//! let g = Goodness::classify(&tree, &corrupt, Goodness::paper_threshold(0.05));
//! assert!(g.is_good(root));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod params;
mod tree;

pub use analysis::Goodness;
pub use params::{Params, ParamsError};
pub use tree::{NodeAddr, Tree};
