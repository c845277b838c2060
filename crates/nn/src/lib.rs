#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

//! A small, pure-Rust neural-network library.
//!
//! The OTIF paper trains two kinds of models per dataset:
//!
//! 1. a **segmentation proxy model** — a convolutional encoder/decoder that
//!    scores every 32×32 cell of a low-resolution frame with the likelihood
//!    that it intersects an object detection (§3.3); and
//! 2. a **recurrent tracking model** — per-detection features fed through a
//!    GRU over the track prefix plus an MLP matching head (§3.4).
//!
//! No GPU or external ML runtime is available in this reproduction, so this
//! crate provides the minimum viable training stack from scratch: parameter
//! buffers with Adam/SGD updates, dense layers, strided 2-D convolutions,
//! a GRU cell with backpropagation through time, the usual activations, and
//! binary-cross-entropy / MSE losses. Everything is deterministic given a
//! seed.
//!
//! Layers follow a simple explicit-backprop convention instead of a tape:
//! `forward` caches whatever it needs, `backward` consumes the output
//! gradient and accumulates parameter gradients, returning the input
//! gradient. An optimizer step then walks the layer's [`Param`]s.

pub mod conv;
pub mod dense;
pub mod gru;
pub mod init;
pub mod kernels;
pub mod loss;
pub mod param;
pub mod tensor;

pub use conv::Conv2d;
pub use dense::{Activation, Dense, Mlp};
pub use gru::GruCell;
pub use init::XavierInit;
pub use kernels::{ConvShape, KernelPath};
pub use loss::{bce_with_logits, bce_with_logits_grad, mse, mse_grad, sigmoid};
pub use param::{OptimKind, Param};
pub use tensor::{BatchTensor3, Tensor3};
