//! End-to-end and per-layer benchmark of the otif workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-proxy|ingest-fanout|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs the
//! timed phase for `--seconds`, checks every output and prints the
//! end-to-end metrics. With `--trace 1` it prints the per-layer metrics
//! of the traced run instead. The last line of standard output is the
//! result object. See `perfbench/README.md`.

mod host;
mod setup;
mod summary;
mod timed;
mod trace;
mod verify;

use setup::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use summary::{median, trimmed_mean, Metric};
use timed::{Ops, Serving, Timed};

/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: --workload <ingest-proxy|ingest-fanout|serve-mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let steal0 = host::CpuTicks::now();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut setup: Option<setup::Setup> = None;
    for rep in 0..reps {
        if let Some(old) = setup.take() {
            let _ = std::fs::remove_dir_all(&old.template);
        }
        let s = setup::set_up(
            args.workload,
            args.seed,
            &work.join(format!("template-{rep}")),
        )?;
        setup_s.push(s.cpu_s);
        setup_wall_s.push(s.wall_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    for src in &setup.sources {
        eprintln!(
            "{}: {} ingest clips, config {:?}, threshold {:.4}, prepare {:.2}s",
            src.spec.kind.name(),
            src.ingest.len(),
            src.config,
            src.threshold,
            src.prepare_s
        );
    }
    let mut ops = Ops::default();
    let (metrics, title) = if args.trace {
        let m = trace::run(&setup, work, args.seed, args.seconds, &mut ops);
        (m, "per-layer metrics (traced run)")
    } else {
        let mut serving = Serving::new(work);
        let timed = timed::run(&setup, &mut serving, args.seed, args.seconds, &mut ops);
        verify::check_engine(&setup, &mut ops);
        if setup.workload.serves() {
            timed::check_answers(&serving, &mut ops);
        }
        (
            end_to_end(&timed, &setup_s, &setup_wall_s),
            "end-to-end metrics",
        )
    };
    let meta = host::metadata(
        args.workload.name(),
        args.seed,
        args.trace,
        host::CpuTicks::now().steal_pct_since(&steal0),
    );
    summary::print_result(
        &format!("{} — {title}", args.workload.name()),
        &metrics,
        ops.attempted,
        ops.failed,
        &meta,
    );
    Ok(())
}

fn end_to_end(t: &Timed, setup_s: &[f64], setup_wall_s: &[f64]) -> Vec<Metric> {
    let setup = Metric::new(
        "setup_s",
        median(setup_s),
        "s",
        format!(
            "process CPU, median of {} set-ups (wall {:.2} s)",
            setup_s.len(),
            median(setup_wall_s)
        ),
    );
    let mut metrics = vec![setup];
    if t.rounds.is_empty() {
        let frames: u64 = t.passes.iter().map(|p| p.video_frames).sum();
        let cpu: f64 = t.passes.iter().map(|p| p.cpu_s).sum();
        let pass_ms: Vec<f64> = t.passes.iter().map(|p| p.cpu_s * 1e3).collect();
        let n = t.passes.len();
        metrics.extend([
            Metric::new(
                "cpu_us_per_op",
                cpu / frames as f64 * 1e6,
                "us",
                format!("process CPU per video frame, {cpu:.2} s over {n} passes"),
            ),
            Metric::new(
                "p50_cpu_ms",
                median(&pass_ms),
                "ms",
                format!("process CPU of one ingest pass, median over {n}"),
            ),
        ]);
    } else {
        // Per-round figures, then their trimmed mean over rounds: the
        // host's speed switches between two levels every few seconds,
        // which moves a median over a handful of rounds by whole steps.
        let per_round = |f: &dyn Fn(&timed::RoundSample) -> f64| -> Vec<f64> {
            t.rounds.iter().map(f).collect()
        };
        let mix_us = per_round(&|r| {
            r.mixed.iter().map(|q| q.cpu_ms).sum::<f64>() * 1e3 / r.mixed.len() as f64
        });
        let scans: usize = t.rounds.iter().map(|r| r.scan_cpu_ms().len()).sum();
        let n = t.rounds.len();
        metrics.extend([
            Metric::new(
                "cpu_us_per_op",
                trimmed_mean(&mix_us),
                "us",
                format!("client CPU per serving-mix query, trimmed mean over {n} rounds"),
            ),
            Metric::new(
                "p50_cpu_ms",
                trimmed_mean(&per_round(&|r| median(&r.scan_cpu_ms()))),
                "ms",
                format!(
                    "client CPU of a warm cache-miss count scan: each round's median, trimmed mean over {n} rounds of {scans} scans"
                ),
            ),
        ]);
    }
    metrics
}
