#![warn(missing_docs)]

//! The post-processing query engine over extracted tracks.
//!
//! OTIF's value proposition (§1) is that after tracks are extracted once,
//! *any* query over detections or tracks executes in milliseconds by
//! post-processing the tracks — no further video decoding or ML
//! inference. This crate implements the query families from the paper's
//! evaluation:
//!
//! - **object track queries** (§4.1): track counts per clip (Amsterdam,
//!   Jackson) and path breakdowns — counts of tracks per spatial path
//!   pattern (Caldot1/2, Tokyo, UAV, Warsaw); plus the hard-braking
//!   example query from §3;
//! - **frame-level limit queries** (§4.2): count queries (≥ N objects),
//!   region queries (≥ N objects inside a polygon) and hot-spot queries
//!   (≥ N objects within a circle of radius R), each returning up to
//!   `limit` matching frames at least 5 seconds apart;
//! - the paper's **accuracy metrics**: `1 − |x̂ − x*| / x*` for counts
//!   (averaged over clips and path types) and the fraction of output
//!   frames that truly satisfy the predicate for limit queries.

pub mod aggregate;
pub mod frame_queries;
pub mod metrics;
pub mod track_queries;

pub use aggregate::AggregateQuery;
pub use frame_queries::{ClipMatches, FrameLimitQuery, FrameQueryKind, FrameRef, FrameTable};
pub use metrics::{count_accuracy, mean};
pub use track_queries::{PathPattern, TrackQuery};

use otif_sim::ObjectClass;

/// Whether a track counts as a "car" for the paper's queries. Trucks and
/// buses are included: the simulated detector (like COCO models on
/// distant traffic) cannot reliably separate cars from small trucks, and
/// the paper's hand-counts face the same ambiguity.
pub fn is_car(class: ObjectClass) -> bool {
    matches!(
        class,
        ObjectClass::Car | ObjectClass::Truck | ObjectClass::Bus
    )
}
