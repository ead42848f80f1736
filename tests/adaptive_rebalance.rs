//! Acceptance criteria for the adaptive resilience layer.
//!
//! Under a persistent 4× single-node slowdown on the DC preset
//! (8 nodes, CPU powers `[0.5, 0.5, 1, 1, 1, 1, 1.75, 1.75]`), the
//! adaptive driver — phi-accrual detection plus mid-run GEN_BLOCK
//! rebalancing — must recover at least 60% of the makespan gap between
//! the **static** CPU-power distribution (which keeps overloading the
//! degraded node) and the **oracle** distribution (apportioned with the
//! degraded weight from iteration 0). The result must be deterministic
//! across seeds, and the detector must stay silent on fault-free runs.

use mheta_apps::{run_adaptive, AdaptiveConfig, AdaptiveRun, Jacobi};
use mheta_dist::GenBlock;
use mheta_mpi::DetectorConfig;
use mheta_sim::presets::{dc, with_degrade};
use mheta_sim::ClusterSpec;

/// A baseline-power node: slow enough that overloading it hurts, and
/// not one of the 0.5× nodes (whose degradation the static GEN_BLOCK
/// already partially shields by assigning them fewer rows).
const DEGRADED_RANK: usize = 3;
const DEGRADE_FACTOR: f64 = 4.0;
/// Past the detector's warmup (3 samples), so the healthy baseline is
/// learned before the fault begins.
const DEGRADE_AT: u32 = 6;
const ITERS: u32 = 40;

fn app(seed: u64) -> Jacobi {
    Jacobi {
        rows: 128,
        cols: 16,
        seed,
    }
}

fn cpu_powers(spec: &ClusterSpec) -> Vec<f64> {
    spec.nodes.iter().map(|n| n.cpu_power).collect()
}

/// The adaptive driver with a detector that never suspects: identical
/// per-iteration overheads (heartbeat exchange, checkpoints) but no
/// suspicion and no rebalancing — the fair static baseline. (`detector:
/// None` would also drop the heartbeat exchange.)
fn static_cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        detector: Some(DetectorConfig {
            phi_threshold: f64::INFINITY,
            ..DetectorConfig::default()
        }),
        ..AdaptiveConfig::default()
    }
}

fn degraded_spec() -> ClusterSpec {
    with_degrade(dc(), DEGRADED_RANK, DEGRADE_AT, DEGRADE_FACTOR)
}

fn run(spec: &ClusterSpec, layout0: &[usize], seed: u64, cfg: AdaptiveConfig) -> AdaptiveRun {
    run_adaptive(&app(seed), spec, layout0, ITERS, cfg).expect("adaptive run failed")
}

#[test]
fn adaptive_recovers_sixty_percent_of_makespan_gap_on_dc() {
    for seed in [1u64, 2, 3] {
        let spec = degraded_spec();
        let powers = cpu_powers(&spec);
        let layout0 = GenBlock::apportion(app(seed).rows, &powers).rows().to_vec();

        let static_run = run(&spec, &layout0, seed, static_cfg());
        let adaptive_run = run(&spec, &layout0, seed, AdaptiveConfig::default());

        let mut oracle_w = powers.clone();
        oracle_w[DEGRADED_RANK] /= DEGRADE_FACTOR;
        let oracle_layout = GenBlock::apportion(app(seed).rows, &oracle_w)
            .rows()
            .to_vec();
        let oracle_run = run(&spec, &oracle_layout, seed, static_cfg());

        let s = static_run.measured.secs;
        let a = adaptive_run.measured.secs;
        let o = oracle_run.measured.secs;
        assert!(
            o < s,
            "seed {seed}: oracle ({o:.4}s) must beat static ({s:.4}s)"
        );
        let recovered = (s - a) / (s - o);
        assert!(
            recovered >= 0.6,
            "seed {seed}: adaptive recovered only {:.1}% of the \
             static-to-oracle gap (static {s:.4}s, adaptive {a:.4}s, \
             oracle {o:.4}s)",
            100.0 * recovered,
        );

        // The gain must come from an actual mid-run rebalance that
        // shed rows from the degraded node...
        let out0 = &adaptive_run.outcomes[0];
        assert!(
            !out0.rebalances.is_empty(),
            "seed {seed}: adaptive run never rebalanced"
        );
        assert!(
            out0.final_rows[DEGRADED_RANK] < layout0[DEGRADED_RANK],
            "seed {seed}: degraded rank kept its rows"
        );
        // ...without changing the computed answer: the residual is
        // distribution-independent.
        let rel = (adaptive_run.measured.check - static_run.measured.check).abs()
            / static_run.measured.check.abs().max(1e-300);
        assert!(
            rel < 1e-9,
            "seed {seed}: rebalancing changed the residual (rel {rel:e})"
        );
    }
}

#[test]
fn adaptive_gap_recovery_is_deterministic() {
    let spec = degraded_spec();
    let powers = cpu_powers(&spec);
    let layout0 = GenBlock::apportion(app(1).rows, &powers).rows().to_vec();
    let one = run(&spec, &layout0, 1, AdaptiveConfig::default());
    let two = run(&spec, &layout0, 1, AdaptiveConfig::default());
    assert_eq!(one.measured.secs, two.measured.secs);
    assert_eq!(one.windows, two.windows);
    let (a, b) = (&one.outcomes[0], &two.outcomes[0]);
    assert_eq!(a.rebalances, b.rebalances);
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.final_rows, b.final_rows);
}

#[test]
fn detector_stays_silent_on_fault_free_dc() {
    let spec = dc();
    let powers = cpu_powers(&spec);
    let layout0 = GenBlock::apportion(app(7).rows, &powers).rows().to_vec();
    let fault_free = run(&spec, &layout0, 7, AdaptiveConfig::default());
    for out in &fault_free.outcomes {
        assert!(out.rebalances.is_empty(), "false-positive rebalance");
        assert!(out.transitions.is_empty(), "false-positive transition");
        assert_eq!(out.final_rows, layout0);
    }
    // And its makespan matches the detection-disabled baseline exactly:
    // the detector's bookkeeping is free on the virtual clock.
    let quiet = run(&spec, &layout0, 7, static_cfg());
    assert_eq!(fault_free.measured.secs, quiet.measured.secs);
}
