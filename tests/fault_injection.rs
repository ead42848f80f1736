//! End-to-end behaviour of the deterministic fault-injection layer:
//! seeded fault schedules, retry/backoff convergence in the MPI layer,
//! typed errors when resilience is exhausted, fault visibility in
//! traces and hooks, degradation-aware search, and the controlled decay
//! of MHETA's accuracy as fault rates rise.

use std::cell::Cell;

use mheta::dist::{
    gbs_search, genetic_search, random_search, simulated_annealing, AnnealingConfig, EvalError,
    Evaluator, FallibleFn, GbsConfig, GeneticConfig, RandomConfig,
};
use mheta::mpi::{
    run_app, ExecMode, HookEvent, NullRecorder, RetryPolicy, RunOptions, VecRecorder,
};
use mheta::prelude::*;
use mheta::sim::{FaultKind, FaultSpec, SimError};

fn quiet(n: usize, seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(n);
    spec.noise.amplitude = 0.0;
    spec.seed = seed;
    spec
}

/// Moderate rates: every class fires in a typical run, yet the default
/// retry policy always converges.
fn moderate_faults() -> FaultSpec {
    FaultSpec {
        disk_read_fault_rate: 0.10,
        disk_write_fault_rate: 0.05,
        msg_resend_rate: 0.05,
        slowdown_rate: 0.20,
        slowdown_factor: 1.5,
        slowdown_period_ns: 1.0e5,
        mem_pressure_rate: 0.10,
        mem_pressure_bytes: 64 * 1024,
        ..FaultSpec::default()
    }
}

#[test]
fn fault_schedules_are_seed_deterministic() {
    let bench = Benchmark::Jacobi(Jacobi::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let mut spec = quiet(4, 9);
    spec.faults = moderate_faults();

    let a = run_measured(&bench, &spec, &dist, 3, false).unwrap();
    let b = run_measured(&bench, &spec, &dist, 3, false).unwrap();
    assert_eq!(a.secs, b.secs, "same seed must give identical timelines");
    assert_eq!(a.per_rank_secs, b.per_rank_secs);
    assert_eq!(a.check, b.check);

    spec.seed = 10;
    let c = run_measured(&bench, &spec, &dist, 3, false).unwrap();
    assert_ne!(a.secs, c.secs, "a different seed must reshuffle faults");
    assert_eq!(a.check, c.check, "numerics are seed-independent");
}

#[test]
fn retries_converge_to_fault_free_numerics_at_a_time_cost() {
    let bench = Benchmark::Cg(Cg::small());
    let dist = GenBlock::block(bench.total_rows(), 4);
    let clean = quiet(4, 17);
    let mut faulty = clean.clone();
    faulty.faults = moderate_faults();

    let a = run_measured(&bench, &clean, &dist, 3, false).unwrap();
    let b = run_measured(&bench, &faulty, &dist, 3, false).unwrap();
    assert_eq!(
        a.check, b.check,
        "retried faults must not perturb the computed result"
    );
    assert!(
        b.secs > a.secs,
        "faults only add virtual time: {} !> {}",
        b.secs,
        a.secs
    );
}

#[test]
fn faults_are_visible_in_traces_and_retry_hooks() {
    let mut spec = quiet(4, 3);
    spec.faults = FaultSpec {
        disk_read_fault_rate: 0.30,
        disk_write_fault_rate: 0.20,
        msg_resend_rate: 0.30,
        slowdown_rate: 0.50,
        slowdown_factor: 1.5,
        slowdown_period_ns: 1.0e4,
        mem_pressure_rate: 0.0,
        mem_pressure_bytes: 0,
        ..FaultSpec::default()
    };

    let run = run_app(
        &spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| VecRecorder::default(),
        |comm| {
            // Rates this aggressive can exhaust the default 3-attempt
            // policy; give the test a deep retry budget so every disk
            // fault is absorbed.
            comm.set_retry_policy(RetryPolicy {
                max_attempts: 16,
                ..RetryPolicy::default()
            });
            let data: Vec<f64> = (0..256).map(|i| i as f64).collect();
            comm.ctx().disk.create(1, data.len());
            comm.begin_section(0);
            comm.begin_stage(0);
            for round in 0..16u32 {
                comm.file_write(1, 0, &data)?;
                let mut out = vec![0.0; 256];
                comm.file_read(1, 0, &mut out)?;
                assert_eq!(out, data, "retries must deliver the real bytes");
                comm.compute(2_000.0, u64::MAX);
                let to = (comm.rank() + 1) % comm.size();
                let from = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send_f64s(to, round, &data[..32])?;
                let _ = comm.recv_f64s(from, round)?;
            }
            comm.end_stage(0);
            comm.end_section(0);
            Ok(())
        },
    )
    .unwrap();

    // Every injected fault is a first-class trace event...
    let faults: Vec<FaultKind> = run.traces.iter().flat_map(|t| t.faults()).collect();
    assert!(!faults.is_empty(), "no faults recorded in any trace");
    let has = |p: fn(&FaultKind) -> bool| faults.iter().any(p);
    assert!(has(|f| matches!(f, FaultKind::ReadFault { .. })));
    assert!(has(|f| matches!(f, FaultKind::WriteFault { .. })));
    assert!(has(|f| matches!(f, FaultKind::MessageResend { .. })));
    assert!(has(|f| matches!(f, FaultKind::Slowdown { .. })));
    for t in &run.traces {
        assert!(t.is_monotone(), "rank {} trace not monotone", t.rank);
    }

    // ...and every absorbed disk fault surfaces as a Retry hook event.
    let retries: usize = run
        .recorders
        .iter()
        .map(|r| {
            r.events
                .iter()
                .filter(|e| matches!(e, HookEvent::Retry { .. }))
                .count()
        })
        .sum();
    let disk_faults = faults
        .iter()
        .filter(|f| {
            matches!(
                f,
                FaultKind::ReadFault { .. } | FaultKind::WriteFault { .. }
            )
        })
        .count();
    assert_eq!(
        retries, disk_faults,
        "each transient disk fault must be mirrored by one Retry hook"
    );
}

#[test]
fn exhausted_retries_surface_a_typed_error() {
    let mut spec = quiet(2, 3);
    spec.faults.disk_read_fault_rate = 0.97;

    let err = run_app(
        &spec,
        RunOptions::default(),
        |_| NullRecorder,
        |comm| {
            comm.set_retry_policy(RetryPolicy::none());
            comm.ctx().disk.create(5, 8);
            comm.file_write(5, 0, &[1.0; 8])?;
            let mut out = [0.0; 8];
            comm.file_read(5, 0, &mut out)?;
            Ok(())
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, SimError::TransientIo { var: 5, .. }),
        "expected TransientIo on var 5, got {err}"
    );
}

#[test]
fn blocking_waits_time_out_with_a_typed_error() {
    let mut spec = quiet(2, 1);
    spec.wait_timeout_ms = 50;

    let err = run_app(
        &spec,
        RunOptions::default(),
        |_| NullRecorder,
        |comm| {
            if comm.rank() == 0 {
                // Stay busy on the host past the backstop without ever
                // blocking in the simulator, so the deadlock detector
                // cannot fire before rank 1's wall-clock timeout.
                std::thread::sleep(std::time::Duration::from_millis(400));
                comm.send_scalar(1, 9, 1.0)?;
            } else {
                let _ = comm.recv_scalar(0, 9)?;
            }
            Ok(())
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            SimError::Timeout {
                rank: 1,
                waited_ms: 50,
                ..
            }
        ),
        "expected a 50 ms timeout on rank 1, got {err}"
    );
}

#[test]
fn all_searches_finish_under_eval_failures_and_report_counts() {
    let spec = quiet(4, 29);
    let bench = Benchmark::Cg(Cg::small());
    let model = build_model(&bench, &spec, false).unwrap();
    let total = bench.total_rows();
    let n = spec.len();
    let blk = GenBlock::block(total, n);
    let path = SpectrumPath::new(&anchor_inputs(&model));

    // Every fifth model evaluation fails: a 20% injected failure rate.
    let calls = Cell::new(0usize);
    let flaky = FallibleFn(|rows: &[usize]| {
        calls.set(calls.get() + 1);
        if calls.get().is_multiple_of(5) {
            Err(EvalError("injected model failure".into()))
        } else {
            model.try_eval_ns(rows)
        }
    });

    let outcomes = vec![
        (
            "random",
            random_search(
                total,
                n,
                &flaky,
                RandomConfig {
                    max_evals: 60,
                    ..Default::default()
                },
            ),
        ),
        (
            "annealing",
            simulated_annealing(
                &blk,
                &flaky,
                AnnealingConfig {
                    max_evals: 60,
                    ..Default::default()
                },
            ),
        ),
        (
            "genetic",
            genetic_search(
                total,
                n,
                std::slice::from_ref(&blk),
                &flaky,
                GeneticConfig {
                    max_evals: 60,
                    ..Default::default()
                },
            ),
        ),
        (
            "gbs",
            gbs_search(
                &path,
                &flaky,
                GbsConfig {
                    max_evals: 60,
                    ..Default::default()
                },
            ),
        ),
    ];
    for (name, out) in outcomes {
        assert!(
            out.failed_evals * 10 >= out.evaluations,
            "{name}: {} failed of {} is under 10%",
            out.failed_evals,
            out.evaluations
        );
        assert!(
            out.score_ns.is_finite(),
            "{name}: search never recovered a finite score"
        );
        assert_eq!(out.best.total(), total, "{name}: invalid best distribution");
        assert!(out.last_failure.is_some(), "{name}: failure not reported");
    }

    // With retries enabled the same once-per-five pattern is always
    // absorbed on the second attempt: nothing fails outright.
    calls.set(0);
    let out = random_search(
        total,
        n,
        &flaky,
        RandomConfig {
            max_evals: 60,
            eval_retries: 2,
            ..Default::default()
        },
    );
    assert_eq!(out.failed_evals, 0, "retries should absorb every failure");
    assert!(out.retried_evals > 0);
}

mod crash_stop {
    //! End-to-end crash-stop scenarios: a rank dies mid-run, survivors
    //! detect it (no hang), roll back to the last checkpoint,
    //! redistribute the dead rank's rows, re-predict, and complete.
    use super::*;
    use mheta::apps::{recovery_report, repredict_after_crash, run_adaptive, AdaptiveRun};
    use mheta::mpi::TAG_COLLECTIVE_BASE;
    use mheta::obs::{perfetto_trace_with_recovery, AuditReport};
    use mheta::sim::{CrashSpec, EventKind};

    fn crashy(seed: u64, crashes: Vec<CrashSpec>, interval: u32) -> ClusterSpec {
        let mut spec = quiet(4, seed);
        spec.faults.crashes = crashes;
        spec.faults.checkpoint_interval = interval;
        spec
    }

    /// The crash-only driver: adaptive Jacobi with the detector off.
    fn run_crash_only(
        app: &Jacobi,
        spec: &ClusterSpec,
        dist: &GenBlock,
        iters: u32,
    ) -> AdaptiveRun {
        let cfg = AdaptiveConfig {
            detector: None,
            checkpoint_interval: spec.faults.checkpoint_interval,
            ..AdaptiveConfig::default()
        };
        run_adaptive(app, spec, dist.rows(), iters, cfg).unwrap()
    }

    /// The crash-free residual of the same app/distribution, for
    /// comparison. Recovery replays identical values; only the
    /// shrunken survivor reduction tree reassociates the final sum.
    fn crash_free_check(app: &Jacobi, spec: &ClusterSpec, dist: &GenBlock, iters: u32) -> f64 {
        let mut clean = spec.clone();
        clean.faults = mheta::sim::FaultSpec::default();
        run_measured(&Benchmark::Jacobi(app.clone()), &clean, dist, iters, false)
            .unwrap()
            .check
    }

    #[test]
    fn crash_after_first_checkpoint_rolls_back_and_completes() {
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, 4);
        let spec = crashy(11, vec![CrashSpec::at_iteration(2, 5)], 3);
        let run = run_crash_only(&app, &spec, &dist, 10);
        let report = recovery_report(&run, 10).expect("a recovery happened");
        assert_eq!(report.dead, vec![2]);
        assert_eq!(report.rollback_iteration, 3, "last checkpoint before it 5");
        assert!(report.recovery_ns.iter().all(|&ns| ns > 0.0));
        // Survivors finished the full run with the right answer.
        let expect = crash_free_check(&app, &spec, &dist, 10);
        let rel = (run.measured.check - expect).abs() / expect.abs();
        assert!(rel < 1e-12, "residual off by {rel:e}");
        // The dead rank's rows were re-spread over the survivors.
        let survivor = run.outcomes.iter().find(|o| o.alive).unwrap();
        assert_eq!(survivor.final_rows.iter().sum::<usize>(), app.rows);
        assert_eq!(survivor.final_rows[2], 0, "dead rank holds no rows");
    }

    #[test]
    fn crash_before_first_checkpoint_restarts_from_initial_state() {
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, 4);
        let spec = crashy(13, vec![CrashSpec::at_iteration(1, 0)], 4);
        let run = run_crash_only(&app, &spec, &dist, 6);
        let report = recovery_report(&run, 6).expect("a recovery happened");
        assert_eq!(report.dead, vec![1]);
        assert_eq!(report.rollback_iteration, 0, "nothing checkpointed yet");
        let expect = crash_free_check(&app, &spec, &dist, 6);
        let rel = (run.measured.check - expect).abs() / expect.abs();
        assert!(rel < 1e-12, "residual off by {rel:e}");
    }

    #[test]
    fn crash_during_a_collective_is_detected_without_hanging() {
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, 4);
        // Find, on a crash-free run, when the victim enters the
        // residual reduction of iteration ~4, and kill it right there.
        let clean = crashy(17, vec![], 3);
        let probe = run_crash_only(&app, &clean, &dist, 10);
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
        let run = run_crash_only(&app, &spec, &dist, 10);
        let report = recovery_report(&run, 10).expect("a recovery happened");
        assert_eq!(report.dead, vec![2]);
        assert!(!run.outcomes[2].alive);
        let expect = crash_free_check(&app, &spec, &dist, 10);
        let rel = (run.measured.check - expect).abs() / expect.abs();
        assert!(rel < 1e-12, "residual off by {rel:e}");
    }

    #[test]
    fn two_staggered_crashes_both_recover() {
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, 4);
        let spec = crashy(
            19,
            vec![CrashSpec::at_iteration(1, 3), CrashSpec::at_iteration(3, 7)],
            2,
        );
        let run = run_crash_only(&app, &spec, &dist, 10);
        let report = recovery_report(&run, 10).expect("recoveries happened");
        assert_eq!(report.dead, vec![1, 3]);
        let expect = crash_free_check(&app, &spec, &dist, 10);
        let rel = (run.measured.check - expect).abs() / expect.abs();
        assert!(rel < 1e-12, "residual off by {rel:e}");
        let survivor = run.outcomes.iter().find(|o| o.alive).unwrap();
        assert_eq!(survivor.final_rows[1] + survivor.final_rows[3], 0);
        assert_eq!(survivor.final_rows.iter().sum::<usize>(), app.rows);
    }

    #[test]
    fn post_failure_reprediction_tracks_the_simulated_post_failure_makespan() {
        // The paper-default grid: at toy sizes the fixed per-iteration
        // agreement collective (absent from the model) dominates.
        let app = Jacobi::default();
        let dist = GenBlock::block(app.rows, 4);
        let iters = 12;
        let mut spec = crashy(23, vec![CrashSpec::at_iteration(2, 5)], 3);
        for node in &mut spec.nodes {
            node.memory_bytes = 8 * 1024 * 1024; // in-core driver: shares must fit
        }
        let run = run_crash_only(&app, &spec, &dist, iters);
        let report = recovery_report(&run, iters).expect("a recovery happened");
        let survivor = run.outcomes.iter().find(|o| o.alive).unwrap();
        let pred = repredict_after_crash(&app, &spec, &report.dead, &survivor.final_rows).unwrap();
        let predicted_post_ns = pred.iteration_ns * f64::from(report.remaining_iters);
        let err = percent_difference(predicted_post_ns, report.actual_post_ns);
        assert!(
            err < 5.0,
            "post-failure re-prediction off by {err:.2}%: predicted {predicted_post_ns} vs actual {}",
            report.actual_post_ns
        );
    }

    #[test]
    fn recovery_time_is_distinct_audit_terms_and_a_perfetto_track() {
        let app = Jacobi::small();
        let dist = GenBlock::block(app.rows, 4);
        let iters = 10;
        let mut clean = quiet(4, 29);
        clean.noise.amplitude = 0.0;
        let model = build_model(&Benchmark::Jacobi(app.clone()), &clean, false).unwrap();
        let pred = model.predict(dist.rows()).unwrap();
        let spec = crashy(29, vec![CrashSpec::at_iteration(2, 5)], 3);
        let run = run_crash_only(&app, &spec, &dist, iters);
        let spans: Vec<_> = run.outcomes.iter().map(|o| o.spans.clone()).collect();

        // Audit: the recovery terms carry exactly the span time, and
        // the twelve actual terms still partition each window exactly.
        let report =
            AuditReport::audit_with_recovery(&pred, iters, &run.traces, &run.windows, &spans);
        for (rank, audit) in report.ranks.iter().enumerate() {
            assert_eq!(audit.actual_total_ns(), audit.window_ns);
            let (t0, t1) = run.windows[rank];
            for kind in [
                RecoveryKind::Checkpoint,
                RecoveryKind::Rollback,
                RecoveryKind::Redistribution,
                RecoveryKind::Reprediction,
            ] {
                let span_ns: u64 = spans[rank]
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.end_ns.min(t1).saturating_sub(s.start_ns.max(t0)))
                    .sum();
                let line = audit
                    .lines
                    .iter()
                    .find(|l| l.term == kind.name())
                    .expect("recovery term present");
                assert_eq!(line.actual_ns, span_ns, "rank {rank} {} term", kind.name());
                assert_eq!(line.predicted_ns, 0.0, "recovery is never predicted");
            }
        }
        let survivor_rank = run.outcomes.iter().position(|o| o.alive).unwrap();
        assert!(
            report.ranks[survivor_rank]
                .lines
                .iter()
                .filter(|l| matches!(l.term, "rollback" | "redistribution" | "reprediction"))
                .all(|l| l.actual_ns > 0),
            "survivors must show all three recovery phases"
        );

        // Perfetto: a dedicated tid-2 track whose slices are exactly
        // the recovery spans.
        let doc = perfetto_trace_with_recovery(&run.traces, &run.hooks, &spans);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let recovery_slices = events
            .iter()
            .filter(|e| e.get("cat").and_then(serde::Value::as_str) == Some("recovery"))
            .count();
        let total_spans: usize = spans.iter().map(Vec::len).sum();
        assert_eq!(recovery_slices, total_spans);
    }
}

#[test]
fn prediction_error_degrades_smoothly_with_fault_rate() {
    let bench = Benchmark::Jacobi(Jacobi::small());
    let clean = quiet(4, 21);
    let model = build_model(&bench, &clean, false).unwrap();
    let blk = GenBlock::block(bench.total_rows(), 4);
    let iters = 4;
    let predicted = model.predict(blk.rows()).unwrap().app_secs(iters);

    let mut actuals = Vec::new();
    let mut errors = Vec::new();
    for rate in [0.0, 0.15, 0.30, 0.45] {
        let mut spec = clean.clone();
        spec.faults.slowdown_rate = rate;
        spec.faults.slowdown_factor = 1.6;
        spec.faults.slowdown_period_ns = 1.0e5;
        let actual = run_measured(&bench, &spec, &blk, iters, false)
            .unwrap()
            .secs;
        actuals.push(actual);
        errors.push(percent_difference(predicted, actual));
    }

    // The slowdown windows at a lower rate are a subset of those at a
    // higher rate (stateless hash thresholding), so degradation is
    // monotone: more background load, longer runs, larger model error.
    assert!(errors[0] < 10.0, "clean-run error too large: {errors:?}");
    for w in actuals.windows(2) {
        assert!(
            w[1] >= w[0] * 0.999,
            "actual time decreased with fault rate: {actuals:?}"
        );
    }
    assert!(
        actuals[3] > actuals[0],
        "heaviest fault rate did not slow the run: {actuals:?}"
    );
    for w in errors.windows(2) {
        assert!(
            w[1] >= w[0] - 1.0,
            "error fell sharply as faults rose: {errors:?}"
        );
    }
    assert!(
        errors[3] > errors[0],
        "error did not grow with fault rate: {errors:?}"
    );
}
