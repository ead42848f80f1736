//! Crash-stop failure and recovery, end to end: Jacobi runs on the
//! Table 1 **DC** preset, rank 2 dies at iteration 40 of 60, and the
//! survivors detect the failure, roll back to the last checkpoint,
//! redistribute the dead rank's rows by CPU power, re-predict with
//! MHETA on the shrunken cluster, and finish the run.
//!
//! The interesting claim is the last one: the *re-prediction* made on
//! the 7 survivors should track the simulated post-failure makespan as
//! closely as the original prediction tracked the healthy cluster —
//! the model doesn't care that the cluster shrank mid-run.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! Set `MHETA_SEED` to vary the noise seed (CI's chaos leg runs three),
//! and find the recovery-annotated Perfetto trace afterwards at
//! `target/crash_recovery.perfetto.json` (open in ui.perfetto.dev; the
//! per-rank "recovery" track carries the checkpoint/rollback/
//! redistribution/reprediction slices).

use mheta::apps::{recovery_report, repredict_after_crash};
use mheta::obs::perfetto_json_with_recovery;
use mheta::prelude::*;

fn main() {
    let app = Jacobi::default();
    let iters: u32 = 60;
    let mut healthy = presets::dc();
    if let Some(seed) = std::env::var("MHETA_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        healthy.seed = seed;
    }
    let spec = presets::with_crash(healthy.clone(), 2, 40, 8);
    let dist = GenBlock::block(app.rows, spec.len());

    // Pre-failure: the model's forecast for the healthy 8-node run.
    let bench = Benchmark::Jacobi(app.clone());
    let model = build_model(&bench, &healthy, false).expect("model assembly");
    let pre_pred = model.predict(dist.rows()).expect("prediction");
    println!(
        "pre-failure  predicted {:.3}s for {iters} iterations on {} ({} nodes)",
        pre_pred.app_secs(iters),
        healthy.name,
        spec.len()
    );

    // The failure run: the adaptive driver with the detector off
    // checkpoints every 8 iterations; rank 2 dies when it begins
    // iteration 40.
    let cfg = AdaptiveConfig {
        detector: None,
        checkpoint_interval: spec.faults.checkpoint_interval,
        ..AdaptiveConfig::default()
    };
    let run = run_adaptive(&app, &spec, dist.rows(), iters, cfg).expect("crash-recovery run");
    let report = recovery_report(&run, iters).expect("a recovery happened");
    println!(
        "crash        rank {:?} died; survivors detected it, rolled back to \
         iteration {} and re-ran {} iterations",
        report.dead, report.rollback_iteration, report.remaining_iters
    );
    println!(
        "actual       whole run took {:.3}s (healthy forecast was {:.3}s)",
        run.measured.secs,
        pre_pred.app_secs(iters)
    );

    // Recovery overhead, by phase (max over survivors).
    println!("recovery breakdown (max over survivors):");
    for (name, ns) in ["checkpoint", "rollback", "redistribution", "reprediction"]
        .iter()
        .zip(report.recovery_ns)
    {
        println!("  {name:<16} {:>9.3} ms", ns / 1e6);
    }

    // Post-failure: MHETA re-predicts on the 7 survivors with the
    // redistributed rows, and we compare against the simulated
    // post-failure timeline (resume to finish, checkpoint tax excluded).
    let survivor = run
        .outcomes
        .iter()
        .find(|o| o.alive)
        .expect("survivors exist");
    let post_pred = repredict_after_crash(&app, &spec, &report.dead, &survivor.final_rows)
        .expect("re-prediction");
    let predicted_post_ns = post_pred.iteration_ns * f64::from(report.remaining_iters);
    let pct = percent_difference(predicted_post_ns, report.actual_post_ns);
    println!(
        "post-failure predicted {:.3}s for the remaining {} iterations, \
         simulated {:.3}s ({pct:+.2}%)",
        predicted_post_ns / 1e9,
        report.remaining_iters,
        report.actual_post_ns / 1e9,
    );

    // The full timeline, recovery track included, for ui.perfetto.dev.
    let spans: Vec<Vec<RecoverySpan>> = run.outcomes.iter().map(|o| o.spans.clone()).collect();
    let path = "target/crash_recovery.perfetto.json";
    std::fs::write(
        path,
        perfetto_json_with_recovery(&run.traces, &run.hooks, &spans),
    )
    .expect("write perfetto trace");
    println!("wrote {path}");

    // CI's chaos leg runs this across seeds: hold the re-prediction to
    // the same standard the paper holds the healthy prediction to.
    assert!(
        pct.abs() < 5.0,
        "post-failure re-prediction off by {pct:+.2}% (acceptance: 5%)"
    );
}
