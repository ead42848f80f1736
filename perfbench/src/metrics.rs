//! The benchmark's metric names, units, and what each should move.
//!
//! These tables are the contract later changes name their claims with;
//! `BENCHMARK.json` lists the same names and units (a test checks it).

/// End-to-end metrics: `(name, unit, better)`. Printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("ok_frac", "ratio", "higher"),
    ("plan_predicted_ms_gmean", "ms", "lower"),
    ("daemon_cpu_ms_per_req", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

const COLD_P50: &str = "latency_p50_ms on cold_unique";
const COLD_TAIL: &str = "latency_tail_ms on cold_unique";
const COLD_BOTH: &str = "latency_p50_ms and latency_tail_ms on cold_unique; not warm_hits";
const DEEP_P50: &str = "latency_p50_ms on replan_deep";
const DEEP_SEARCH: &str =
    "latency_p50_ms on replan_deep; plan_predicted_ms_gmean must stay bit-identical";
const WARM: &str = "latency_p50_ms and throughput_rps on warm_hits";
const ZIPF: &str = "latency_p50_ms and throughput_rps on mixed_zipf";
const TRACE: &str = "none: describes the traced run itself";

/// Per-layer metrics: `(name, unit, the end-to-end metric and workload
/// it should move)`. Printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "sim.pingpong_handoff_us",
        "us",
        "latency_p50_ms on cold_unique; predicted unchanged (the OS wake-up floor)",
    ),
    ("sim.allreduce8_us", "us", COLD_TAIL),
    ("sim.spawn8_us", "us", COLD_TAIL),
    (
        "core.measure_arch_ms",
        "ms",
        "latency_p50_ms on cold_unique; also replan_deep once models are memoized",
    ),
    ("core.model_assemble_ms", "ms", COLD_TAIL),
    ("apps.instrumented_iter_ms", "ms", COLD_BOTH),
    ("apps.instrumented_ops", "count", COLD_BOTH),
    ("apps.instrumented_ns_per_op", "ns", COLD_BOTH),
    ("dist.eval.full_us", "us", DEEP_P50),
    ("dist.eval.delta_hit_rate", "ratio", DEEP_P50),
    ("dist.portfolio.ms", "ms", DEEP_P50),
    ("dist.portfolio.evals", "count", DEEP_P50),
    ("dist.portfolio.straggler_ratio", "ratio", DEEP_P50),
    (
        "dist.portfolio.wasted_eval_frac",
        "ratio",
        "daemon_cpu_ms_per_req on replan_deep",
    ),
    ("dist.search.gbs.ms", "ms", DEEP_SEARCH),
    ("dist.search.genetic.ms", "ms", DEEP_SEARCH),
    ("dist.search.annealing.ms", "ms", DEEP_SEARCH),
    ("dist.search.random.ms", "ms", DEEP_SEARCH),
    ("dist.search.gbs.wins", "count", DEEP_SEARCH),
    ("dist.search.genetic.wins", "count", DEEP_SEARCH),
    ("dist.search.annealing.wins", "count", DEEP_SEARCH),
    ("dist.search.random.wins", "count", DEEP_SEARCH),
    ("serve.request.key_us", "us", WARM),
    ("serve.request.canon_bytes", "bytes", WARM),
    ("serve.cache.get_us", "us", WARM),
    ("serve.planner.hit_us", "us", WARM),
    ("serve.wire.parse_us", "us", WARM),
    ("serve.wire.render_us", "us", WARM),
    (
        "serve.wire.overhead_ms",
        "ms",
        "latency_p50_ms on warm_hits (wire p50 minus in-process p50)",
    ),
    ("serve.cache.hit_ratio", "ratio", ZIPF),
    ("serve.cache.evictions", "count", ZIPF),
    ("serve.singleflight.coalesced", "count", ZIPF),
    ("serve.executor.searches", "count", ZIPF),
    ("serve.executor.shed", "count", ZIPF),
    ("obs.recorder.event_ns", "ns", "throughput_rps on warm_hits"),
    (
        "loadgen.gap_us",
        "us",
        "none: the load generator's own time between a reply and the next send",
    ),
    ("trace.unattributed_frac", "ratio", TRACE),
    ("trace.overhead_frac", "ratio", TRACE),
    ("trace.request_p50_ms", "ms", TRACE),
    ("inproc.request_p50_ms", "ms", TRACE),
    ("self.serve_ms", "ms", WARM),
    ("self.obs_ms", "ms", "throughput_rps on warm_hits"),
    ("self.core_ms", "ms", COLD_P50),
    ("self.apps_ms", "ms", COLD_P50),
    ("self.dist_ms", "ms", DEEP_P50),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = mheta_obs::json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|x| x.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|x| x.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let ours = |t: &[(&str, &str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}
