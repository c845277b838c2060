//! Table 3: frame-level limit queries — OTIF vs BlazeIt vs TASTI.
//!
//! Six queries (§4.2): count queries on UAV and Tokyo, region queries on
//! Jackson and Caldot1, hot-spot queries on Warsaw and Amsterdam.
//! Reports average pre-processing / query / total time and accuracy, for
//! 1 query and for 5 queries (estimated): BlazeIt's proxy pass and both
//! methods' query phases are per-query; OTIF's and TASTI's pre-processing
//! are query-agnostic.
//!
//! Usage: `cargo run --release -p otif-bench --bin table3 [tiny|small|experiment]`.
//! `tiny` trains a single proxy, so the bin refuses it: TASTI's
//! extractor would be BlazeIt's own proxy.

use otif_baselines::{BlazeItBaseline, TastiBaseline};
use otif_bench::harness::{make_dataset, otif_options, prepare_otif, scale_from_args, SEED};
use otif_bench::report::{pct, print_table, secs, write_json};
use otif_cv::CostModel;
use otif_geom::{Point, Polygon};
use otif_query::{FrameLimitQuery, FrameQueryKind};
use otif_sim::{Dataset, DatasetKind};
use serde::Serialize;
use std::time::Instant;

/// Build the six frame-level queries, with N calibrated per dataset so
/// matches exist but are not ubiquitous (the paper sizes parameters for
/// < 250 matching segments).
fn queries(dataset: &Dataset) -> Option<FrameLimitQuery> {
    let (w, h) = (dataset.scene.width as f32, dataset.scene.height as f32);
    let mk = |kind: FrameQueryKind, n: usize| FrameLimitQuery {
        kind,
        n,
        limit: 25,
        min_separation_s: 5.0,
    };
    let q = match dataset.kind {
        DatasetKind::Uav => mk(FrameQueryKind::Count, 4),
        DatasetKind::Tokyo => mk(FrameQueryKind::Count, 5),
        DatasetKind::Jackson => mk(
            FrameQueryKind::Region(Polygon::new(vec![
                Point::new(w * 0.3, h * 0.3),
                Point::new(w * 0.7, h * 0.3),
                Point::new(w * 0.7, h * 0.7),
                Point::new(w * 0.3, h * 0.7),
            ])),
            2,
        ),
        DatasetKind::Caldot1 => mk(
            FrameQueryKind::Region(Polygon::new(vec![
                Point::new(0.0, h * 0.4),
                Point::new(w * 0.5, h * 0.4),
                Point::new(w * 0.5, h * 0.85),
                Point::new(0.0, h * 0.85),
            ])),
            3,
        ),
        DatasetKind::Warsaw => mk(FrameQueryKind::HotSpot { radius: 80.0 }, 4),
        DatasetKind::Amsterdam => mk(FrameQueryKind::HotSpot { radius: 90.0 }, 2),
        _ => return None,
    };
    Some(q)
}

#[derive(Serialize)]
struct QueryResult {
    dataset: String,
    method: String,
    preprocess_seconds_hour: f64,
    query_seconds: f64,
    accuracy: f32,
    outputs: usize,
    detector_invocations: usize,
}

fn main() {
    let scale = scale_from_args();
    let cost = CostModel::default();
    let kinds = [
        DatasetKind::Uav,
        DatasetKind::Tokyo,
        DatasetKind::Jackson,
        DatasetKind::Caldot1,
        DatasetKind::Warsaw,
        DatasetKind::Amsterdam,
    ];

    let mut results: Vec<QueryResult> = Vec::new();
    for kind in kinds {
        eprintln!("[table3] running {}", kind.name());
        let dataset = make_dataset(kind, scale);
        let hour = dataset.scale.hour_scale();
        let query = queries(&dataset).unwrap();

        // ---- OTIF: pre-process all tracks once, post-process per query.
        let otif = prepare_otif(&dataset, otif_options(scale));
        // BlazeIt's low-resolution proxy and TASTI's mid-resolution
        // extractor
        let low_proxy = otif.proxies.last().expect("trained proxies");
        let extractor = otif
            .proxies
            .iter()
            .find(|p| p.in_w * 2 >= otif.proxies[0].in_w)
            .unwrap_or(&otif.proxies[0]);
        if std::ptr::eq(extractor, low_proxy) {
            // TASTI's index would be BlazeIt's own proxy pass, and its
            // row a copy of BlazeIt's
            eprintln!(
                "error: on {}, TASTI's extractor is BlazeIt's proxy ({} proxy model(s) \
                 trained); table3 needs two distinct proxies, so run it at `small` or larger",
                kind.name(),
                otif.proxies.len()
            );
            std::process::exit(1);
        }
        let point = otif.pick_config(0.05);
        let (tracks, ledger) = otif.execute(&point.config, &dataset.test);
        let t0 = Instant::now();
        let outputs = query.execute_on_tracks(&tracks, &dataset.test);
        let otif_query_secs = t0.elapsed().as_secs_f64();
        results.push(QueryResult {
            dataset: kind.name().to_string(),
            method: "otif".into(),
            preprocess_seconds_hour: ledger.execution_total() * hour,
            query_seconds: otif_query_secs,
            accuracy: query.accuracy(&outputs, &dataset.test),
            outputs: outputs.len(),
            detector_invocations: 0,
        });

        // ---- BlazeIt: per-query proxy pass + detector at query time.
        let blazeit = BlazeItBaseline::new(otif.theta_best.detector, SEED, cost, low_proxy);
        let run = blazeit.execute(&query, &dataset.test);
        results.push(QueryResult {
            dataset: kind.name().to_string(),
            method: "blazeit".into(),
            preprocess_seconds_hour: run.preprocess_seconds * hour,
            query_seconds: run.query_seconds,
            accuracy: query.accuracy(&run.outputs, &dataset.test),
            outputs: run.outputs.len(),
            detector_invocations: run.detector_invocations,
        });

        // ---- TASTI: query-agnostic index (mid-res extractor) + detector
        // at query time.
        let tasti = TastiBaseline::new(otif.theta_best.detector, SEED, cost, extractor);
        let index = tasti.build_index(&dataset.test);
        let (outs, qsecs, inv) = tasti.execute(&query, &index, &dataset.test);
        results.push(QueryResult {
            dataset: kind.name().to_string(),
            method: "tasti".into(),
            preprocess_seconds_hour: index.build_seconds * hour,
            query_seconds: qsecs,
            accuracy: query.accuracy(&outs, &dataset.test),
            outputs: outs.len(),
            detector_invocations: inv,
        });
    }

    // ---- aggregate into the paper's Table 3 shape
    let avg = |method: &str, f: &dyn Fn(&QueryResult) -> f64| -> f64 {
        let vals: Vec<f64> = results
            .iter()
            .filter(|r| r.method == method)
            .map(f)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };

    let mut rows = Vec::new();
    for (label, five) in [("1 query", false), ("5 queries (estimated)", true)] {
        for method in ["otif", "blazeit", "tasti"] {
            let pre = avg(method, &|r| r.preprocess_seconds_hour);
            let q = avg(method, &|r| r.query_seconds);
            let acc = avg(method, &|r| r.accuracy as f64);
            // per-query components scale ×5: BlazeIt's proxy pass is
            // query-specific; all query phases are per-query.
            let (pre5, q5) = if five {
                (if method == "blazeit" { pre * 5.0 } else { pre }, q * 5.0)
            } else {
                (pre, q)
            };
            rows.push(vec![
                label.to_string(),
                method.to_string(),
                secs(pre5),
                secs(q5),
                secs(pre5 + q5),
                pct(acc as f32),
            ]);
        }
    }
    print_table(
        "Table 3 — frame-level limit queries (averages over 6 queries)",
        &[
            "queries",
            "method",
            "pre-processing (s)",
            "query (s)",
            "total (s)",
            "accuracy",
        ],
        &rows,
    );
    println!(
        "\nNote: OTIF query time is real wall-clock post-processing of tracks;\n\
         BlazeIt/TASTI query times are simulated detector seconds (the paper\n\
         likewise excludes decode from their query times)."
    );

    write_json("table3", &results);
}
