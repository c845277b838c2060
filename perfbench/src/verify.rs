//! Untimed output checks run after the timed phase.

use crate::setup::{engine_options, Setup, COMPONENTS};
use crate::timed::Ops;
use otif_core::Pipeline;
use otif_cv::CostLedger;
use otif_engine::{DetectorExec, Engine, EngineOptions};

/// Clips per source the sequential and looped references re-run.
const SAMPLE: usize = 4;

/// On a sample of each source's clips: a single-stream engine run
/// yields the sequential `Pipeline`'s tracks and ledger sums, and a
/// batched detector run the looped run's digest.
pub fn check_engine(setup: &Setup, ops: &mut Ops) {
    for src in &setup.sources {
        let name = src.spec.kind.name();
        let ctx = src.otif.context();
        let sample = &src.ingest[..SAMPLE.min(src.ingest.len())];
        let seq_ledger = CostLedger::new();
        let seq = Pipeline::run_split(&src.config, &ctx, sample, &seq_ledger);
        let eng_ledger = CostLedger::new();
        // One stream charges one launch per distinct window size per
        // frame, as the sequential detector does, while no frame holds
        // more same-size windows than a batch takes.
        let single = EngineOptions {
            max_batch: usize::MAX,
            ..engine_options(1, DetectorExec::Off)
        };
        let eng = Engine::run(&src.config, &ctx, sample, &single, &eng_ledger);
        ops.check((|| {
            for (i, (outcome, want)) in eng.tracks.iter().zip(&seq).enumerate() {
                let got = outcome
                    .tracks()
                    .ok_or(format!("{name}: engine failed sample clip {i}"))?;
                let same = serde_json::to_string(got).expect("tracks serialize")
                    == serde_json::to_string(want).expect("tracks serialize");
                if !same {
                    return Err(format!(
                        "{name}: engine tracks of clip {i} differ from Pipeline"
                    ));
                }
            }
            Ok(())
        })());
        // The engine charges each batch's launch on its own, so its sums
        // add the same charges in another order: equal to the last few
        // bits, as the workspace's own single-stream test states it.
        // Bit-for-bit identity holds between engine passes, checked on
        // every timed pass.
        ops.check((|| {
            for c in COMPONENTS {
                let (e, s) = (eng_ledger.get(c), seq_ledger.get(c));
                if (e - s).abs() > 1e-9 * s.abs().max(1.0) {
                    return Err(format!(
                        "{name}: {c:?} charged {e} by the engine, {s} by Pipeline"
                    ));
                }
            }
            Ok(())
        })());
        if src.spec.exec == DetectorExec::Batched {
            let digest = |exec| {
                Engine::run(
                    &src.config,
                    &ctx,
                    sample,
                    &engine_options(sample.len(), exec),
                    &CostLedger::new(),
                )
                .stats
                .detector_digest
            };
            let (batched, looped) = (digest(DetectorExec::Batched), digest(DetectorExec::Looped));
            ops.check(if batched == looped && batched != 0 {
                Ok(())
            } else {
                Err(format!(
                    "{name}: batched detector digest {batched:016x} != looped {looped:016x}"
                ))
            });
        }
    }
}
