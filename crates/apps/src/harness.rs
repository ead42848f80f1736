//! The experiment harness: everything needed to compare MHETA's
//! predictions with the simulator's "actual" execution times.
//!
//! The workflow mirrors the paper's §5.1:
//!
//! 1. microbenchmark the architecture ([`mheta_core::measure_arch`]),
//! 2. run **one instrumented iteration** under the Block distribution
//!    with the MPI-Jack hooks attached and the §4.1.1 transformations
//!    (forced I/O, prefetch-to-blocking),
//! 3. build the profile and assemble the [`Mheta`] model,
//! 4. for each candidate distribution: ask the model for a prediction
//!    and run the application for its full iteration count to get the
//!    actual time.

use mheta_core::{build_profile, measure_arch, Mheta, Prediction, ProgramStructure};
use mheta_dist::{AnchorInputs, GenBlock};
use mheta_mpi::{run_app, ExecMode, HookEvent, NullRecorder, RunOptions, Scope, VecRecorder};
use mheta_sim::{ClusterSpec, FaultSpec, RankTrace, RecoveryKind, SimError, SimResult};

use crate::adaptive::{new_checkpoint_store, AdaptiveConfig, AdaptiveJacobi, AdaptiveOutcome};
use crate::app::RankResult;
use crate::cg::Cg;
use crate::jacobi::Jacobi;
use crate::lanczos::Lanczos;
use crate::multigrid::Multigrid;
use crate::rna::Rna;

/// One of the benchmark applications, dispatchable without generics.
#[derive(Debug, Clone)]
pub enum Benchmark {
    /// Jacobi iteration (optionally with prefetching).
    Jacobi(Jacobi),
    /// Conjugate Gradient.
    Cg(Cg),
    /// The pipelined RNA dynamic program.
    Rna(Rna),
    /// The Lanczos full-scale application.
    Lanczos(Lanczos),
    /// Multigrid (the paper's future-work application).
    Multigrid(Multigrid),
}

impl Benchmark {
    /// The paper's four evaluation programs, default sizes.
    #[must_use]
    pub fn paper_four() -> Vec<Benchmark> {
        vec![
            Benchmark::Jacobi(Jacobi::default()),
            Benchmark::Cg(Cg::default()),
            Benchmark::Lanczos(Lanczos::default()),
            Benchmark::Rna(Rna::default()),
        ]
    }

    /// Reduced-size instances for tests.
    #[must_use]
    pub fn small_four() -> Vec<Benchmark> {
        vec![
            Benchmark::Jacobi(Jacobi::small()),
            Benchmark::Cg(Cg::small()),
            Benchmark::Lanczos(Lanczos::small()),
            Benchmark::Rna(Rna::small()),
        ]
    }

    /// Application name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Jacobi(_) => "Jacobi",
            Benchmark::Cg(_) => "CG",
            Benchmark::Rna(_) => "RNA",
            Benchmark::Lanczos(_) => "Lanczos",
            Benchmark::Multigrid(_) => "Multigrid",
        }
    }

    /// The MHETA program structure. `prefetch` only affects Jacobi
    /// (the paper's prefetching experiment subject).
    #[must_use]
    pub fn structure(&self, prefetch: bool) -> ProgramStructure {
        match self {
            Benchmark::Jacobi(a) => a.structure(prefetch),
            Benchmark::Cg(a) => a.structure(),
            Benchmark::Rna(a) => a.structure(),
            Benchmark::Lanczos(a) => a.structure(),
            Benchmark::Multigrid(a) => a.structure(),
        }
    }

    /// Rows of the distribution axis.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.structure(false).distribution_rows()
    }

    /// Iteration counts used in the paper's accuracy experiments
    /// (§5.1: 100, 10, 5, and 10 for Jacobi, CG, Lanczos, RNA — chosen
    /// for comparable execution times).
    #[must_use]
    pub fn paper_iters(&self) -> u32 {
        match self {
            Benchmark::Jacobi(_) => 100,
            Benchmark::Cg(_) => 10,
            Benchmark::Lanczos(_) => 5,
            Benchmark::Rna(_) => 10,
            Benchmark::Multigrid(_) => 10,
        }
    }

    /// True when this application supports the prefetching variant.
    #[must_use]
    pub fn supports_prefetch(&self) -> bool {
        matches!(self, Benchmark::Jacobi(_))
    }

    fn dispatch<R: mheta_mpi::Recorder>(
        &self,
        comm: &mut mheta_mpi::Comm<'_, R>,
        dist: &GenBlock,
        iters: u32,
        prefetch: bool,
    ) -> SimResult<RankResult> {
        match self {
            Benchmark::Jacobi(a) => a.run(comm, dist, iters, prefetch),
            Benchmark::Cg(a) => a.run(comm, dist, iters),
            Benchmark::Rna(a) => a.run(comm, dist, iters),
            Benchmark::Lanczos(a) => a.run(comm, dist, iters),
            Benchmark::Multigrid(a) => a.run(comm, dist, iters),
        }
    }
}

/// Result of a measured (production) run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Makespan of the iteration loop (max over ranks), seconds.
    pub secs: f64,
    /// Per-rank loop durations, seconds.
    pub per_rank_secs: Vec<f64>,
    /// The application's check value.
    pub check: f64,
}

fn measured_from(results: &[RankResult]) -> Measured {
    let t0 = results
        .iter()
        .map(|r| r.t0_ns)
        .max()
        .expect("nonempty cluster");
    let t1 = results
        .iter()
        .map(|r| r.t1_ns)
        .max()
        .expect("nonempty cluster");
    Measured {
        secs: (t1 - t0) as f64 / 1e9,
        per_rank_secs: results.iter().map(RankResult::secs).collect(),
        check: results[0].check,
    }
}

/// Run a benchmark for real and time its iteration loop.
pub fn run_measured(
    bench: &Benchmark,
    spec: &ClusterSpec,
    dist: &GenBlock,
    iters: u32,
    prefetch: bool,
) -> SimResult<Measured> {
    let run = run_app(
        spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Normal,
        },
        |_| NullRecorder,
        |comm| bench.dispatch(comm, dist, iters, prefetch),
    )?;
    Ok(measured_from(&run.results))
}

/// Result of an observed run: the timing plus the raw artifacts the
/// observability layer (`mheta-obs`) consumes — per-rank operational
/// traces and MPI-Jack hook-event streams.
#[derive(Debug)]
pub struct Observed {
    /// The run's timing and check value, as [`run_measured`] reports.
    pub measured: Measured,
    /// Per-rank operational traces (tracing enabled).
    pub traces: Vec<RankTrace>,
    /// Per-rank hook-event streams (scopes, operations, retries).
    pub hooks: Vec<Vec<HookEvent>>,
    /// Per-rank iteration-loop windows `(t0_ns, t1_ns)` on each rank's
    /// virtual clock — the span the application timed, which is what
    /// the model predicts. Audit tooling partitions the traces over
    /// exactly these windows.
    pub windows: Vec<(u64, u64)>,
}

/// Run a benchmark for real with full observability: operational
/// tracing *and* MPI-Jack hooks enabled, execution otherwise identical
/// to [`run_measured`] (normal mode — no forced I/O, prefetches stay
/// asynchronous). Costs the recording overhead, so use [`run_measured`]
/// when only the timing matters.
pub fn run_observed(
    bench: &Benchmark,
    spec: &ClusterSpec,
    dist: &GenBlock,
    iters: u32,
    prefetch: bool,
) -> SimResult<Observed> {
    let run = run_app(
        spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| VecRecorder::default(),
        |comm| bench.dispatch(comm, dist, iters, prefetch),
    )?;
    Ok(Observed {
        measured: measured_from(&run.results),
        windows: run.results.iter().map(|r| (r.t0_ns, r.t1_ns)).collect(),
        traces: run.traces,
        hooks: run.recorders.into_iter().map(|r| r.events).collect(),
    })
}

/// Run the single instrumented iteration (§4.1.1): hooks attached,
/// forced I/O, prefetch issues made blocking.
pub fn run_instrumented(
    bench: &Benchmark,
    spec: &ClusterSpec,
    dist: &GenBlock,
    prefetch: bool,
) -> SimResult<Vec<VecRecorder>> {
    let run = run_app(
        spec,
        RunOptions {
            tracing: false,
            mode: ExecMode::Instrument { force_ooc: true },
        },
        |_| VecRecorder::default(),
        |comm| bench.dispatch(comm, dist, 1, prefetch),
    )?;
    Ok(run.recorders)
}

/// Assemble the full MHETA model for `bench` on `spec`: microbenchmarks
/// plus one instrumented iteration under the Block distribution.
pub fn build_model(bench: &Benchmark, spec: &ClusterSpec, prefetch: bool) -> SimResult<Mheta> {
    let arch = measure_arch(spec)?;
    let blk = GenBlock::block(bench.total_rows(), spec.len());
    let recorders = run_instrumented(bench, spec, &blk, prefetch)?;
    let profile = build_profile(&arch, &recorders, blk.rows());
    Mheta::new(bench.structure(prefetch), arch, profile)
        .map_err(|e| mheta_sim::SimError::InvalidConfig(e.to_string()))
}

/// Derive the anchor-distribution inputs from an assembled model: the
/// per-node compute rates (summed over all stages) and in-core
/// capacities the Figure 8 distributions need.
#[must_use]
pub fn anchor_inputs(model: &Mheta) -> AnchorInputs {
    let structure = model.structure();
    let n = model.arch().len();
    let total_row_bytes: f64 = structure.footprint_row_bytes().iter().map(|(_, b)| b).sum();
    // Sum per-row compute across every (section, tile, stage).
    let mut ns_per_row = vec![0.0f64; n];
    for section in &structure.sections {
        for tile in 0..section.tiles {
            for stage in &section.stages {
                let scope = Scope {
                    section: section.id,
                    tile,
                    stage: stage.id,
                };
                for (rank, slot) in ns_per_row.iter_mut().enumerate() {
                    *slot += model.profile().compute_ns_per_row(rank, scope);
                }
            }
        }
    }
    // In-core capacity: rows r such that replicated + r·(streamed
    // footprint + resident row bytes) fits the node's memory.
    let per_row = total_row_bytes + structure.resident_row_bytes();
    let capacity_rows = (0..n)
        .map(|i| {
            let avail =
                (model.arch().memory_bytes[i] as f64 - structure.replicated_bytes()).max(0.0);
            ((avail / per_row) as usize).max(1)
        })
        .collect();
    AnchorInputs {
        total_rows: structure.distribution_rows(),
        ns_per_row,
        capacity_rows,
    }
}

// ---- crash recovery and adaptive rebalancing ----------------------------

/// Everything an adaptive (crash recovery, and with the detector on,
/// mid-run rebalancing) run produces.
#[derive(Debug)]
pub struct AdaptiveRun {
    /// Per-rank outcomes (crashed ranks included, marked `alive:
    /// false`).
    pub outcomes: Vec<AdaptiveOutcome>,
    /// Per-rank operational traces (tracing is always on: adaptive
    /// runs exist to be audited).
    pub traces: Vec<RankTrace>,
    /// Per-rank hook-event streams.
    pub hooks: Vec<Vec<HookEvent>>,
    /// Makespan over the surviving ranks' loop windows.
    pub measured: Measured,
    /// Per-rank `(t0_ns, t1_ns)` loop windows.
    pub windows: Vec<(u64, u64)>,
}

/// Run the adaptive Jacobi driver cluster-wide: checkpoint/restart
/// crash recovery every `cfg.checkpoint_interval` iterations and, when
/// `cfg.detector` is set, phi-accrual detection, slowdown-vs-crash
/// disambiguation, and mid-run GEN_BLOCK rebalancing. With the detector
/// off this is the crash-only driver. `layout0` may contain zero-row
/// hot spares; redistribution weights come from the nodes' CPU powers.
pub fn run_adaptive(
    app: &Jacobi,
    spec: &ClusterSpec,
    layout0: &[usize],
    iters: u32,
    cfg: AdaptiveConfig,
) -> SimResult<AdaptiveRun> {
    let weights: Vec<f64> = spec.nodes.iter().map(|n| n.cpu_power).collect();
    let store = new_checkpoint_store();
    let driver = AdaptiveJacobi {
        app: app.clone(),
        cfg,
    };
    let run = run_app(
        spec,
        RunOptions {
            tracing: true,
            mode: ExecMode::Normal,
        },
        |_| VecRecorder::default(),
        |comm| driver.run(comm, layout0, iters, &weights, &store),
    )?;
    let survivors: Vec<&AdaptiveOutcome> = run.results.iter().filter(|o| o.alive).collect();
    if survivors.is_empty() {
        return Err(SimError::InvalidConfig(
            "adaptive run left no survivors".into(),
        ));
    }
    let t0 = survivors.iter().map(|o| o.result.t0_ns).max().unwrap_or(0);
    let t1 = survivors.iter().map(|o| o.result.t1_ns).max().unwrap_or(0);
    let measured = Measured {
        secs: (t1 - t0) as f64 / 1e9,
        per_rank_secs: run.results.iter().map(|o| o.result.secs()).collect(),
        check: survivors[0].result.check,
    };
    Ok(AdaptiveRun {
        windows: run
            .results
            .iter()
            .map(|o| (o.result.t0_ns, o.result.t1_ns))
            .collect(),
        outcomes: run.results,
        traces: run.traces,
        hooks: run.recorders.into_iter().map(|r| r.events).collect(),
        measured,
    })
}

/// Summary of a crash recovery, for comparing against the
/// model's post-failure forecast. `None` when no crash happened.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Ranks that died, sorted.
    pub dead: Vec<usize>,
    /// Iteration the survivors rolled back to.
    pub rollback_iteration: u32,
    /// Iterations re-run or still to run after recovery.
    pub remaining_iters: u32,
    /// Latest virtual time a survivor resumed computing.
    pub resume_ns: u64,
    /// Simulated post-failure makespan: max over survivors of
    /// resume-to-finish time minus post-resume checkpoint time (the
    /// model predicts the iteration loop, not the checkpoint tax).
    pub actual_post_ns: f64,
    /// Max-over-survivors total span time per recovery kind, ns,
    /// indexed `[checkpoint, rollback, redistribution, reprediction]`.
    pub recovery_ns: [f64; 4],
}

/// Extract a [`RecoveryReport`] from an adaptive run, or `None` if no
/// crash recovery happened.
#[must_use]
pub fn recovery_report(run: &AdaptiveRun, iters: u32) -> Option<RecoveryReport> {
    let survivors: Vec<&AdaptiveOutcome> = run.outcomes.iter().filter(|o| o.alive).collect();
    let rollback_iteration = survivors
        .iter()
        .filter_map(|o| o.rollback_iteration)
        .max()?;
    let dead = survivors
        .iter()
        .map(|o| o.dead.clone())
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let resume_ns = survivors.iter().map(|o| o.resume_ns).max().unwrap_or(0);
    // Post-resume makespan with the checkpoint tax taken out. The
    // per-iteration agreement collective synchronizes the survivors, so
    // the whole cluster pays the *slowest* checkpointer each epoch —
    // subtract the max per-rank checkpoint time from the global
    // makespan rather than each rank's own spans (a fast writer's wait
    // on a slow one shows up as blocking, not as its own span).
    let makespan_ns = survivors
        .iter()
        .map(|o| o.result.t1_ns.saturating_sub(o.resume_ns))
        .max()
        .unwrap_or(0);
    let post_ckpt_ns = survivors
        .iter()
        .map(|o| {
            o.spans
                .iter()
                .filter(|s| s.kind == RecoveryKind::Checkpoint && s.start_ns >= o.resume_ns)
                .map(|s| s.len_ns())
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let actual_post_ns = makespan_ns.saturating_sub(post_ckpt_ns) as f64;
    let mut recovery_ns = [0.0f64; 4];
    for (slot, kind) in recovery_ns.iter_mut().zip([
        RecoveryKind::Checkpoint,
        RecoveryKind::Rollback,
        RecoveryKind::Redistribution,
        RecoveryKind::Reprediction,
    ]) {
        *slot = survivors
            .iter()
            .map(|o| {
                o.spans
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.len_ns())
                    .sum::<u64>() as f64
            })
            .fold(0.0, f64::max);
    }
    Some(RecoveryReport {
        dead,
        rollback_iteration,
        remaining_iters: iters - rollback_iteration,
        resume_ns,
        actual_post_ns,
        recovery_ns,
    })
}

/// Post-failure re-prediction: rebuild the MHETA model for the
/// surviving sub-cluster (microbenchmarks plus a fresh instrumented
/// iteration, exactly the normal §5.1 workflow on the smaller machine)
/// and predict the post-recovery layout. `final_rows` is the full
/// per-rank layout with zeros at dead ranks, as
/// [`AdaptiveOutcome::final_rows`] reports it.
pub fn repredict_after_crash(
    app: &Jacobi,
    spec: &ClusterSpec,
    dead: &[usize],
    final_rows: &[usize],
) -> SimResult<Prediction> {
    let survivors: Vec<usize> = (0..spec.len()).filter(|r| !dead.contains(r)).collect();
    if survivors.is_empty() {
        return Err(SimError::InvalidConfig(
            "cannot re-predict with no survivors".into(),
        ));
    }
    let mut sub = spec.clone();
    sub.name = format!("{}-survivors", spec.name);
    sub.nodes = survivors.iter().map(|&r| spec.nodes[r].clone()).collect();
    // The model-building microbenchmarks run on the healthy remainder:
    // no crash schedule carries over.
    sub.faults = FaultSpec::default();
    let bench = Benchmark::Jacobi(app.clone());
    let model = build_model(&bench, &sub, false)?;
    let rows: Vec<usize> = survivors.iter().map(|&r| final_rows[r]).collect();
    model
        .predict(&rows)
        .map_err(|e| SimError::InvalidConfig(e.to_string()))
}

/// Percentage difference as the paper computes it (§5.2.1): absolute
/// difference divided by the *minimum* of predicted and actual.
#[must_use]
pub fn percent_difference(predicted: f64, actual: f64) -> f64 {
    let denom = predicted.min(actual);
    if denom <= 0.0 {
        return 0.0;
    }
    100.0 * (predicted - actual).abs() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_sim::ClusterSpec;

    fn quiet(n: usize) -> ClusterSpec {
        let mut s = ClusterSpec::homogeneous(n);
        s.noise.amplitude = 0.0;
        s
    }

    #[test]
    fn percent_difference_uses_min_denominator() {
        assert!((percent_difference(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert!((percent_difference(100.0, 110.0) - 10.0).abs() < 1e-12);
        assert_eq!(percent_difference(0.0, 0.0), 0.0);
    }

    #[test]
    fn model_predicts_small_jacobi_accurately() {
        let spec = quiet(4);
        let bench = Benchmark::Jacobi(Jacobi::small());
        let model = build_model(&bench, &spec, false).unwrap();
        let blk = GenBlock::block(bench.total_rows(), 4);
        let iters = 6;
        let predicted = model.predict(blk.rows()).unwrap().app_secs(iters);
        let actual = run_measured(&bench, &spec, &blk, iters, false)
            .unwrap()
            .secs;
        let diff = percent_difference(predicted, actual);
        assert!(
            diff < 5.0,
            "jacobi blk: predicted {predicted}s actual {actual}s diff {diff}%"
        );
    }

    #[test]
    fn model_predicts_all_small_benchmarks() {
        let spec = quiet(4);
        for bench in Benchmark::small_four() {
            let model = build_model(&bench, &spec, false).unwrap();
            let blk = GenBlock::block(bench.total_rows(), 4);
            let iters = 4;
            let predicted = model.predict(blk.rows()).unwrap().app_secs(iters);
            let actual = run_measured(&bench, &spec, &blk, iters, false)
                .unwrap()
                .secs;
            let diff = percent_difference(predicted, actual);
            assert!(
                diff < 10.0,
                "{}: predicted {predicted}s actual {actual}s diff {diff:.2}%",
                bench.name()
            );
        }
    }

    #[test]
    fn anchor_inputs_are_sane() {
        let spec = quiet(3);
        let bench = Benchmark::Cg(Cg::small());
        let model = build_model(&bench, &spec, false).unwrap();
        let inp = anchor_inputs(&model);
        assert_eq!(inp.total_rows, bench.total_rows());
        assert_eq!(inp.ns_per_row.len(), 3);
        assert!(inp.ns_per_row.iter().all(|&v| v > 0.0));
        assert!(inp.capacity_rows.iter().all(|&c| c >= 1));
    }
}
