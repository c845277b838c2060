#![warn(missing_docs)]

//! Geometric primitives and spatial algorithms used throughout the OTIF
//! reproduction.
//!
//! This crate is a dependency-light substrate providing:
//!
//! - [`Point`] / [`Rect`] primitives with the usual measures (IoU,
//!   intersection, union, containment) used by detectors and trackers;
//! - [`Polygon`] point-in-polygon tests for region queries;
//! - [`Polyline`] resampling and the average-corresponding-point distance
//!   the paper uses for track clustering (§3.4);
//! - [`dbscan`] — DBSCAN over an arbitrary distance function, used to
//!   cluster training-set tracks for refinement;
//! - [`GridIndex`] — a uniform-grid spatial index over 2D points used to
//!   look up track clusters near a query endpoint;
//! - [`hungarian`] — the Hungarian algorithm for minimum-cost assignment,
//!   used by both the SORT baseline and the recurrent tracker to match
//!   detections to tracks.

pub mod dbscan;
pub mod grid_index;
pub mod hungarian;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod rect;

pub use dbscan::{dbscan, DbscanParams};
pub use grid_index::GridIndex;
pub use hungarian::{hungarian, Hungarian};
pub use point::Point;
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use rect::Rect;
