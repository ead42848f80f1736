//! Bit-for-bit pin of the crash-recovery path.
//!
//! Each scenario runs the checkpoint/rollback/redistribute/re-predict
//! driver (the adaptive Jacobi driver with the detector off) and hashes
//! everything the run exposes with FNV-1a-64: every rank's trace events
//! and finish time, the hook streams, each rank's recovery outcome, and
//! the makespan. The digests live in `tests/golden/crash_recovery.digests`,
//! one `name hex` line per scenario.
//!
//! ```text
//! cargo test --test crash_recovery_golden
//! BLESS=1 cargo test --test crash_recovery_golden   # regenerate
//! ```
//!
//! The file pins behaviour; regenerate it only for a change that is
//! meant to alter crash recovery.

use std::fmt::Write as _;

use mheta::apps::{run_adaptive, AdaptiveConfig, AdaptiveRun};
use mheta::mpi::TAG_COLLECTIVE_BASE;
use mheta::prelude::*;
use mheta::serve::fnv1a64;
use mheta::sim::EventKind;

fn quiet(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.noise.amplitude = 0.0;
    spec.seed = seed;
    spec
}

fn crashy(seed: u64, crashes: Vec<CrashSpec>, interval: u32) -> ClusterSpec {
    let mut spec = quiet(seed);
    spec.faults.crashes = crashes;
    spec.faults.checkpoint_interval = interval;
    spec
}

/// CPU-heterogeneous, noisy four-node cluster (node 0 at 0.6 power).
fn hybrid(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(4);
    spec.nodes[0].cpu_power = 0.6;
    spec.nodes[3].memory_bytes = 512 * 1024;
    spec.noise.amplitude = 0.03;
    spec.seed = seed;
    spec
}

/// The crash-only driver under the block distribution, checkpointing
/// every `spec.faults.checkpoint_interval` iterations.
fn run(app: &Jacobi, spec: &ClusterSpec, iters: u32) -> AdaptiveRun {
    let dist = GenBlock::block(app.rows, spec.len());
    let cfg = AdaptiveConfig {
        detector: None,
        checkpoint_interval: spec.faults.checkpoint_interval,
        ..AdaptiveConfig::default()
    };
    run_adaptive(app, spec, dist.rows(), iters, cfg).unwrap()
}

/// FNV-1a-64 over the `Debug` text of the run's observable fields,
/// listed one by one so that adding a field to an outcome type does not
/// move the digest.
fn digest(run: &AdaptiveRun) -> u64 {
    let mut text = String::new();
    for t in &run.traces {
        write!(text, "{:?}", (&t.events, t.finish)).unwrap();
    }
    write!(text, "{:?}", run.hooks).unwrap();
    for o in &run.outcomes {
        let r = &o.result;
        write!(
            text,
            "{:?}",
            (
                o.alive,
                &o.spans,
                &o.dead,
                &o.final_rows,
                r.check.to_bits(),
                r.t0_ns,
                r.t1_ns,
                o.rollback_iteration,
                o.resume_ns,
            )
        )
        .unwrap();
    }
    write!(text, "{}", run.measured.secs.to_bits()).unwrap();
    fnv1a64(text.as_bytes())
}

fn scenarios() -> Vec<(String, u64)> {
    let small = Jacobi::small();
    let mut out = Vec::new();
    let mut pin = |name: String, app: &Jacobi, spec: &ClusterSpec, iters: u32| {
        let r = run(app, spec, iters);
        out.push((name, digest(&r)));
        r
    };

    // The crash_stop scenarios of tests/fault_injection.rs.
    pin(
        "crash_stop/after_first_checkpoint".into(),
        &small,
        &crashy(11, vec![CrashSpec::at_iteration(2, 5)], 3),
        10,
    );
    pin(
        "crash_stop/before_first_checkpoint".into(),
        &small,
        &crashy(13, vec![CrashSpec::at_iteration(1, 0)], 4),
        6,
    );
    let clean = crashy(17, vec![], 3);
    let probe = pin("crash_stop/collective_probe".into(), &small, &clean, 10);
    let collective_start = probe.traces[2]
        .events
        .iter()
        .filter(|e| {
            matches!(&e.kind, EventKind::Recv { tag, .. } | EventKind::Send { tag, .. }
                     if *tag >= TAG_COLLECTIVE_BASE)
        })
        .nth(8)
        .expect("victim participates in collectives")
        .start
        .as_nanos();
    let mut spec = clean;
    spec.faults.crashes = vec![CrashSpec {
        rank: 2,
        at_iteration: None,
        at_time_ns: Some(collective_start + 1),
    }];
    pin("crash_stop/during_collective".into(), &small, &spec, 10);
    pin(
        "crash_stop/two_staggered".into(),
        &small,
        &crashy(
            19,
            vec![CrashSpec::at_iteration(1, 3), CrashSpec::at_iteration(3, 7)],
            2,
        ),
        10,
    );
    let mut spec = crashy(23, vec![CrashSpec::at_iteration(2, 5)], 3);
    for node in &mut spec.nodes {
        node.memory_bytes = 8 * 1024 * 1024;
    }
    pin(
        "crash_stop/paper_size_reprediction".into(),
        &Jacobi::default(),
        &spec,
        12,
    );
    // Noise is off, so this runs exactly as seed 11 above and shares
    // its digest.
    pin(
        "crash_stop/audit_and_perfetto".into(),
        &small,
        &crashy(29, vec![CrashSpec::at_iteration(2, 5)], 3),
        10,
    );

    // examples/crash_recovery.rs at the seeds CI runs.
    for seed in 1..=3 {
        let mut healthy = presets::dc();
        healthy.seed = seed;
        let spec = presets::with_crash(healthy, 2, 40, 8);
        pin(
            format!("example/dc_seed{seed}"),
            &Jacobi::default(),
            &spec,
            60,
        );
    }

    // Heterogeneous, noisy crashes: victims, crash points and
    // checkpoint intervals around the rollback edge cases.
    for seed in [1, 7, 99, 12345] {
        for victim in 1..4 {
            for (at_iteration, interval) in [(0, 1), (3, 2), (6, 3), (9, 3)] {
                let mut spec = hybrid(seed);
                spec.faults.crashes = vec![CrashSpec::at_iteration(victim, at_iteration)];
                spec.faults.checkpoint_interval = interval;
                pin(
                    format!("hybrid/seed{seed}_v{victim}_it{at_iteration}_k{interval}"),
                    &small,
                    &spec,
                    10,
                );
            }
        }
    }
    out
}

#[test]
fn crash_recovery_matches_golden_digests() {
    let lines: String = scenarios()
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}\n"))
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/crash_recovery.digests"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &lines).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect("golden file (rerun with BLESS=1)");
    assert_eq!(
        lines, golden,
        "crash-recovery run drifted; rerun with BLESS=1 only if intended"
    );
}
