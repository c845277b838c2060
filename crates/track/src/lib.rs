#![warn(missing_docs)]

//! Multi-object tracking: SORT and OTIF's recurrent reduced-rate tracker.
//!
//! Two trackers are provided:
//!
//! - [`SortTracker`] — the heuristic SORT baseline \[Bewley et al. 2016\]:
//!   a constant-velocity Kalman filter per track, IoU cost matrix, and
//!   Hungarian assignment. The paper uses SORT inside the best-accuracy
//!   configuration θ_best (§3.3) and in the "+ Sampling Rate" ablation
//!   (Table 4).
//! - [`RecurrentTracker`] — the paper's contribution (§3.4): detection
//!   features (normalized box, elapsed frames, appearance embedding) are
//!   summarized per track by a GRU; an MLP matching head scores
//!   (track-prefix, detection) pairs; Hungarian assignment on the scores.
//!   The model is trained with the paper's **gap-sampling** scheme
//!   ([`train::TrainConfig`]): track prefixes are sub-sampled at random
//!   power-of-two gaps so the model stays robust at any reduced sampling
//!   rate the tuner later picks.

pub mod kalman;
pub mod recurrent;
pub mod sort;
pub mod stitch;
pub mod train;
pub mod types;

pub use kalman::KalmanBox;
pub use recurrent::{
    PackedTracker, PairBatch, RecurrentTracker, StepBatch, TrackerModel, DET_FEAT_DIM,
};
pub use sort::SortTracker;
pub use stitch::{stitch_tracks, StitchConfig};
pub use train::{train_tracker_model, TrainConfig};
pub use types::{Track, TrackId};
