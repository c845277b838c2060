//! Detector execution modes and the shared wall-clock harness.
//!
//! The engine's detector *accounting* is simulated (virtual seconds in
//! the [`otif_cv::CostLedger`]); detector *execution* is the surrogate
//! [`WindowNet`] forward pass, which can run three ways:
//!
//! - [`DetectorExec::Off`] — no surrogate at all (the historical
//!   behaviour; zero overhead).
//! - [`DetectorExec::Looped`] — each detect stage runs one forward per
//!   window before submitting its batcher ticket. This is the wall-clock
//!   baseline: same work, one kernel invocation per window.
//! - [`DetectorExec::Batched`] — window input tensors ride on the
//!   batcher ticket, and the submit or finish that forms a round runs
//!   **one** batched forward per (size, chunk) of the round and
//!   scatters the outputs back to the submitting streams. This is the
//!   only mode in which a stream parks on the batcher.
//!
//! Both executing modes run bitwise-identical arithmetic per window
//! (the batched kernels accumulate in exactly the looped order — see
//! `otif_nn::kernels`), and neither touches the simulated detections or
//! any ledger charge, so enabling them cannot perturb the virtual-time
//! determinism contract. What differs is *wall-clock*, which this
//! harness accumulates (total forward seconds, forward count, window
//! count) for `EngineStats::detector_wall_seconds`.

use otif_core::WindowNet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How the engine executes the surrogate detector forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorExec {
    /// No surrogate execution (accounting only).
    #[default]
    Off,
    /// One forward per window, run by each stream's detect stage.
    Looped,
    /// One batched forward per (size, chunk) of each batcher round.
    Batched,
}

impl DetectorExec {
    /// Stable lowercase name (CLI flag values, stats JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            DetectorExec::Off => "off",
            DetectorExec::Looped => "looped",
            DetectorExec::Batched => "batched",
        }
    }

    /// Parse a lowercase name back into a mode.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(DetectorExec::Off),
            "looped" => Some(DetectorExec::Looped),
            "batched" => Some(DetectorExec::Batched),
            _ => None,
        }
    }
}

/// Shared state of one engine run's detector execution: the surrogate
/// network (identical weights for every stream and both paths) plus
/// wall-clock counters fed by whichever threads run forwards.
pub struct DetectorExecHarness {
    net: WindowNet,
    mode: DetectorExec,
    wall_nanos: AtomicU64,
    forwards: AtomicU64,
    windows: AtomicU64,
}

impl DetectorExecHarness {
    /// Harness for one run.
    pub fn new(net: WindowNet, mode: DetectorExec) -> Self {
        DetectorExecHarness {
            net,
            mode,
            wall_nanos: AtomicU64::new(0),
            forwards: AtomicU64::new(0),
            windows: AtomicU64::new(0),
        }
    }

    /// The configured execution mode.
    pub fn mode(&self) -> DetectorExec {
        self.mode
    }

    /// The surrogate network.
    pub fn net(&self) -> &WindowNet {
        &self.net
    }

    /// Accumulate wall-clock spent in `forwards` forward passes covering
    /// `windows` windows.
    pub fn record(&self, elapsed: Duration, forwards: u64, windows: u64) {
        self.wall_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.forwards.fetch_add(forwards, Ordering::Relaxed);
        self.windows.fetch_add(windows, Ordering::Relaxed);
    }

    /// Total wall-clock seconds spent in surrogate forwards.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Number of forward passes run (batched passes count once).
    pub fn forwards(&self) -> u64 {
        self.forwards.load(Ordering::Relaxed)
    }

    /// Number of windows executed across all forwards.
    pub fn windows(&self) -> u64 {
        self.windows.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for m in [
            DetectorExec::Off,
            DetectorExec::Looped,
            DetectorExec::Batched,
        ] {
            assert_eq!(DetectorExec::parse(m.as_str()), Some(m));
        }
        assert_eq!(DetectorExec::parse("nope"), None);
    }

    #[test]
    fn harness_accumulates_counters() {
        use otif_cv::{DetectorArch, DetectorConfig};
        let h = DetectorExecHarness::new(
            WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 1),
            DetectorExec::Batched,
        );
        h.record(Duration::from_millis(2), 1, 4);
        h.record(Duration::from_millis(3), 2, 5);
        assert_eq!(h.forwards(), 3);
        assert_eq!(h.windows(), 9);
        assert!((h.wall_seconds() - 0.005).abs() < 1e-9);
        assert_eq!(h.mode(), DetectorExec::Batched);
    }
}
