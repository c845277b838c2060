#![warn(missing_docs)]

//! Synthetic video-scene simulator.
//!
//! The OTIF paper evaluates on seven real video datasets (California DOT
//! highway cameras, Tokyo/Warsaw city junctions, an aerial drone, an
//! Amsterdam riverside plaza and the Jackson Hole town square). None of
//! that video is available here, so this crate provides the closest
//! synthetic equivalent that exercises the same code paths:
//!
//! - objects (cars, buses, trucks, pedestrians) spawn on **path graphs**
//!   with Poisson arrivals, follow the path with smoothly varying speed,
//!   occasionally stop (junction signal phases) or brake hard, and shrink
//!   toward the horizon (perspective scale profiles);
//! - every clip carries exact **ground-truth tracks** — the "hand labels"
//!   the paper's accuracy metrics are computed against;
//! - a **renderer** produces real grayscale pixel frames at any requested
//!   resolution, used to train and run the segmentation proxy model on
//!   actual pixels;
//! - the seven [`dataset::DatasetKind`]s are configured to reproduce the
//!   qualitative properties the paper's results depend on (busy vs sparse
//!   scenes, small vs large objects, fixed vs moving camera).
//!
//! Sizes are configurable through [`dataset::DatasetScale`] so unit tests
//! run on seconds of video while experiment harnesses use larger profiles;
//! measured *simulated* costs are scaled to a one-hour dataset when
//! reporting paper-comparable numbers.

pub mod clip;
pub mod dataset;
pub mod path;
pub mod render;
pub mod scene;

pub use clip::{Clip, FrameState, GtTrack, ObjState};
pub use dataset::{Dataset, DatasetConfig, DatasetKind, DatasetScale};
pub use path::{PathSpec, ScaleProfile, StopZone};
pub use render::{GrayImage, NoiseTier, Renderer};
pub use scene::{CameraMotion, ObjectClass, SceneSpec};
