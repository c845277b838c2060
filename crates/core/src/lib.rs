#![warn(missing_docs)]

//! OTIF core: the paper's primary contribution.
//!
//! OTIF is a video pre-processor that extracts *all* object tracks from a
//! video dataset so that downstream queries run in milliseconds by
//! post-processing tracks, with no further decoding or ML inference. The
//! execution pipeline (§3.2) composes three modules, each exposing tunable
//! parameters:
//!
//! 1. a **segmentation proxy model** ([`proxy`]) that scores each 32×32
//!    frame cell for object presence at a low input resolution, so the
//!    detector only runs in small windows ([`grouping`], [`windows`]);
//! 2. a **detection module** (the simulated detectors from `otif-cv`),
//!    parameterized by architecture, input resolution and confidence
//!    threshold;
//! 3. a **recurrent reduced-rate tracking module** (from `otif-track`),
//!    parameterized by the sampling gap `g`, plus cluster-based track
//!    **refinement** ([`refine`]) that replaces Miris's extra decoding.
//!
//! The [`tuner`] ties the modules together: starting from the
//! best-accuracy configuration θ_best ([`theta`]), it greedily asks each
//! module for a ~C-faster candidate and keeps the most accurate one,
//! producing a speed–accuracy curve close to the Pareto frontier (§3.5).
//!
//! [`workflow::Otif`] packages the whole §3.1 workflow: train proxies and
//! the tracker on the training split, tune on the validation split, then
//! execute a chosen configuration over unseen video.

pub mod config;
pub mod detnet;
pub mod durable;
pub mod evalpool;
pub mod grouping;
pub mod pipeline;
pub mod proxy;
pub mod refine;
pub mod stages;
pub mod theta;
pub mod tuner;
pub mod windows;
pub mod workflow;

pub use config::{OtifConfig, ProxyParams, TrackerKind};
pub use detnet::{digest_tensor, fnv1a, fold_digest, WindowNet, DIGEST_SEED};
pub use evalpool::par_map;
pub use grouping::group_cells;
pub use pipeline::{ExecutionContext, Pipeline};
pub use proxy::{CellGrid, SegProxyModel, PROXY_SCALES};
pub use refine::RefineIndex;
pub use stages::FrameTracker;
pub use theta::select_theta_best;
pub use tuner::{CurvePoint, Tuner, TunerOptions};
pub use windows::{select_window_sizes, WindowSet};
pub use workflow::{Otif, OtifOptions};
