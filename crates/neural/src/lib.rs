//! # fairem-neural
//!
//! Neural-network substrate for FairEM360's four neural matchers
//! (paper §2.2: DeepMatcher, Ditto, HierMatcher, MCAN).
//!
//! The original systems are PyTorch models over pretrained language
//! models; this crate substitutes from-scratch *Lite* architectures that
//! mirror each design's structure — attribute summarize-and-compare
//! (DeepMatcher), serialized-sequence encoding with attention pooling
//! (Ditto), hierarchical token→attribute alignment (HierMatcher), and
//! multi-context attention with gated fusion (MCAN) — trained end-to-end
//! with a reverse-mode tape autograd implemented here.
//!
//! Components:
//! - [`tensor::Tensor`] — dense 2-D `f32` tensors.
//! - [`graph::Graph`] — define-by-run autograd tape with the op set the
//!   Lite models need (matmul, attention softmax, embedding lookup, ...).
//! - [`params::ParamStore`] / [`params::Adam`] — parameter storage and
//!   the Adam optimizer.
//! - [`token`] — deterministic hashing vocabulary for token ids.
//! - [`models`] — the four Lite matcher architectures, each a
//!   [`models::Arch`] trained and scored by the one generic
//!   [`models::Lite`] behind the [`models::NeuralMatcher`] trait.

pub mod graph;
pub mod models;
pub mod params;
pub mod tensor;
pub mod token;

pub use graph::Graph;
pub use models::{
    DeepMatcherLite, DittoLite, HierMatcherLite, McanLite, NeuralMatcher, TokenPair, TrainConfig,
};
pub use params::{Adam, ParamStore};
pub use tensor::Tensor;
pub use token::HashVocab;
