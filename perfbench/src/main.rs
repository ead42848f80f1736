//! `perfbench`: the repository benchmark.
//!
//! Starts the release `pland` with its default flags on `127.0.0.1:0`
//! and drives one or all of four closed-loop workloads over the
//! JSON-lines wire, checking every reply. With `--trace 1` it also
//! replays the same request stream in process, once through a default
//! `Planner` and once calling each layer's entry point under a span,
//! and reports the per-layer ledger.
//!
//! ```text
//! perfbench --pland PATH [--workload NAME|all] [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (the end-to-end metrics, or the
//! per-layer ones under `--trace 1`). Any failed check makes the exit
//! code nonzero. `run.py` next to this package builds `pland` and this
//! binary and runs it; see `WORKLOADS.md` for what each workload is for.

mod check;
mod daemon;
mod load;
mod metrics;
mod micro;
mod replay;
mod stats;
mod stream;

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;

use mheta_obs::json::Value;

use check::{check_stats, Checker, PlanOut, Tally};
use metrics::{unit_of, END_TO_END, PER_LAYER};
use replay::Item;
use stats::{gmean, highest_percentile, median, tail, TAIL_PCT};
use stream::Workload;

struct Args {
    pland: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        pland: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--pland" => args.pland = PathBuf::from(value),
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.pland.as_os_str().is_empty() {
        return Err("--pland PATH is required".into());
    }
    Ok(args)
}

/// One workload's outcome.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The metrics for the JSON line, in table order.
    metrics: Vec<(&'static str, f64)>,
}

/// Per strategy, in `Strategy::ALL` order: span name, time metric, wins
/// metric.
const STRATEGY_METRICS: [(&str, &str, &str); 4] = [
    (
        "dist.search.gbs",
        "dist.search.gbs.ms",
        "dist.search.gbs.wins",
    ),
    (
        "dist.search.genetic",
        "dist.search.genetic.ms",
        "dist.search.genetic.wins",
    ),
    (
        "dist.search.annealing",
        "dist.search.annealing.ms",
        "dist.search.annealing.wins",
    ),
    (
        "dist.search.random",
        "dist.search.random.ms",
        "dist.search.random.wins",
    ),
];

/// Layer of the traced spans → its self-time metric.
const SELF_METRICS: [(&str, &str); 5] = [
    ("serve", "self.serve_ms"),
    ("obs", "self.obs_ms"),
    ("core", "self.core_ms"),
    ("apps", "self.apps_ms"),
    ("dist", "self.dist_ms"),
];

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn print_metric(name: &str, value: f64, note: &str) {
    println!("  {name:<34} {value:>14.4} {:<6} {note}", unit_of(name));
}

fn run_workload(args: &Args, w: Workload) -> Result<Outcome, String> {
    let wire = load::run(&args.pland, w, args.seed, args.seconds)
        .map_err(|e| format!("{}: wire run failed: {e}", w.name()))?;
    let mut errors = Vec::new();
    let mut checker = Checker::default();

    // Priming replies come first: they are the reference every later
    // reply for the same key must equal bit for bit.
    for (q, reply) in &wire.extra_primes {
        if let Err(e) = checker.check(&q.line(), reply, Some("fresh")) {
            errors.push(format!("set-up priming: {e}"));
        }
    }
    let mut tallies = vec![Tally::default(); wire.segments.len()];
    let mut keys: Vec<HashSet<String>> = vec![HashSet::new(); wire.segments.len()];
    let mut prime_plans: Vec<Vec<Option<PlanOut>>> = Vec::new();
    for (d, seg) in wire.segments.iter().enumerate() {
        let mut plans = Vec::new();
        for (q, reply) in &seg.primes {
            tallies[d].sent += 1;
            match checker.check(&q.line(), reply, Some("fresh")) {
                Ok(good) => {
                    tallies[d].fresh += 1;
                    keys[d].insert(good.key);
                    plans.push(Some(good.plan));
                }
                Err(e) => {
                    errors.push(format!("priming: {e}"));
                    plans.push(None);
                }
            }
        }
        prime_plans.push(plans);
    }
    let mut sample_plans = Vec::with_capacity(wire.samples.len());
    let mut failed = 0u64;
    for s in &wire.samples {
        let t = &mut tallies[s.daemon];
        t.sent += 1;
        match checker.check(&s.line, &s.reply, w.expected_source()) {
            Ok(good) => {
                match good.source.as_str() {
                    "fresh" => t.fresh += 1,
                    "cache" => t.cache += 1,
                    _ => t.coalesced += 1,
                }
                keys[s.daemon].insert(good.key);
                sample_plans.push(Some(good.plan));
            }
            Err(e) => {
                failed += 1;
                if errors.len() < 20 {
                    errors.push(format!("request on connection {}: {e}", s.conn));
                }
                sample_plans.push(None);
            }
        }
    }
    let every_key_distinct = matches!(w, Workload::ColdUnique | Workload::ReplanDeep);
    for (d, seg) in wire.segments.iter().enumerate() {
        let distinct = every_key_distinct.then_some(keys[d].len() as u64);
        if every_key_distinct && keys[d].len() as u64 != tallies[d].sent {
            errors.push(format!(
                "daemon {d}: a key repeated within the daemon's lifetime"
            ));
        }
        for e in check_stats(&seg.stats, tallies[d], distinct) {
            errors.push(format!("daemon {d}: {e}"));
        }
    }

    // End-to-end metrics (the untraced wire run).
    let attempted = wire.samples.len() as u64;
    let lat_ms: Vec<f64> = wire
        .samples
        .iter()
        .zip(&sample_plans)
        .map(|(s, p)| match p {
            Some(_) => ms(s.received - s.sent),
            None => f64::INFINITY,
        })
        .collect();
    let ok = attempted - failed;
    let window_s: f64 = wire.segments.iter().map(|s| s.window.as_secs_f64()).sum();
    let p50 = median(&lat_ms).unwrap_or(f64::INFINITY);
    let (tail_ms, tail_k, tail_n) = tail(&lat_ms).unwrap_or((f64::INFINITY, 0, lat_ms.len()));
    let (top_ms, top_pct, top_n) =
        highest_percentile(&lat_ms).unwrap_or((f64::INFINITY, 0.0, lat_ms.len()));
    // The first round of the first daemon is the same request set on
    // every run of a seed, so its plans make a deterministic figure.
    let prefix: Vec<&PlanOut> = wire
        .samples
        .iter()
        .zip(&sample_plans)
        .filter(|(s, _)| s.daemon == 0 && s.round == 0)
        .filter_map(|(_, p)| p.as_ref())
        .collect();
    // Sorted, so the sum is taken in one order whatever the interleaving.
    let mut prefix_pred: Vec<f64> = prefix.iter().map(|p| p.predicted_ns / 1e6).collect();
    prefix_pred.sort_by(f64::total_cmp);
    let cpu_ns: u64 = wire.segments.iter().map(|s| s.cpu_ns).sum();
    let gaps: Vec<f64> = wire
        .samples
        .iter()
        .filter_map(|s| s.gap)
        .map(|g| g.as_secs_f64() * 1e6)
        .collect();
    let e2e = [
        ("setup_s", median(&wire.setup_s).unwrap_or(f64::INFINITY)),
        ("latency_p50_ms", p50),
        ("latency_tail_ms", tail_ms),
        ("throughput_rps", ok as f64 / window_s.max(1e-9)),
        ("ok_frac", ok as f64 / attempted.max(1) as f64),
        (
            "plan_predicted_ms_gmean",
            gmean(&prefix_pred).unwrap_or(f64::INFINITY),
        ),
        (
            "daemon_cpu_ms_per_req",
            cpu_ns as f64 / 1e6 / attempted.max(1) as f64,
        ),
        (
            "peak_rss_mb",
            wire.segments
                .iter()
                .map(|s| s.peak_rss_mb)
                .fold(0.0, f64::max),
        ),
    ];
    let gap_us = median(&gaps).unwrap_or(0.0);

    println!(
        "== {} (seed {}, {} s window in {} daemon(s), {} closed-loop connection(s)) ==",
        w.name(),
        args.seed,
        args.seconds,
        wire.segments.len(),
        w.connections()
    );
    for (name, value) in e2e {
        let note = match name {
            "setup_s" => format!("median of {} spawns", wire.setup_s.len()),
            "latency_tail_ms" => format!("mean of p{TAIL_PCT}..11th-largest: {tail_k} of {tail_n}"),
            "latency_p50_ms" => format!("{attempted} requests"),
            "throughput_rps" => format!("{ok} ok in {window_s:.3} s"),
            "plan_predicted_ms_gmean" => format!("first round, {} plans", prefix_pred.len()),
            _ => String::new(),
        };
        print_metric(name, value, &note);
        if name == "latency_tail_ms" {
            // The highest percentile with ten samples beyond it, for
            // reading only: it is too noisy to gate (see `stats::tail`).
            println!(
                "  {:<34} {top_ms:>14.4} {:<6} p{top_pct:.2} of {top_n} samples, 11th-largest",
                "latency_top_ms", "ms"
            );
        }
    }
    println!(
        "  {:<34} {:>14.4} {:<6} {failed} of {attempted}",
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    print_metric("loadgen.gap_us", gap_us, "median load-generator gap");

    if !args.trace {
        return Ok(Outcome {
            attempted,
            failed,
            errors,
            metrics: e2e.to_vec(),
        });
    }

    let prefix_evals =
        prefix.iter().map(|p| p.total_evals as f64).sum::<f64>() / prefix.len().max(1) as f64;
    let layer = ledger(
        args,
        w,
        &wire,
        &prime_plans,
        &sample_plans,
        p50,
        gap_us,
        prefix_evals,
        &mut errors,
    )?;
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics: layer,
    })
}

/// The traced run: replay what each measured daemon received, in
/// process, and compute the per-layer ledger. Replay mismatches go to
/// `errors`.
#[allow(clippy::too_many_arguments)]
fn ledger(
    args: &Args,
    w: Workload,
    wire: &load::WireRun,
    prime_plans: &[Vec<Option<PlanOut>>],
    sample_plans: &[Option<PlanOut>],
    p50: f64,
    gap_us: f64,
    prefix_evals: f64,
    errors: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut items = Vec::new();
    for (d, seg) in wire.segments.iter().enumerate() {
        for ((q, _), plan) in seg.primes.iter().zip(&prime_plans[d]) {
            items.push(Item {
                segment: d,
                line: q.line(),
                measured: false,
                daemon_plan: plan.clone(),
            });
        }
        for (s, plan) in wire.samples.iter().zip(sample_plans) {
            if s.daemon == d {
                items.push(Item {
                    segment: d,
                    line: s.line.clone(),
                    measured: true,
                    daemon_plan: plan.clone(),
                });
            }
        }
    }
    let untraced = replay::untraced(&items);
    let traced = replay::traced(&items);
    let micro = micro::measure();
    errors.extend(untraced.errors.iter().take(20).cloned());
    errors.extend(traced.errors.iter().take(20).cloned());

    let spans = &traced.tracer.spans;
    let med =
        |name: &str, scale: f64| median(&replay::durations(spans, name)).unwrap_or(0.0) / scale;
    let measured_roots: Vec<usize> = items
        .iter()
        .zip(&traced.roots)
        .filter(|(it, _)| it.measured)
        .filter_map(|(_, r)| *r)
        .collect();
    let self_ns = replay::self_times(spans);
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let measured_reqs: HashSet<usize> = measured_roots.iter().map(|&r| spans[r].req).collect();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none()
            || !measured_reqs.contains(&s.req)
            || s.name.starts_with("dist.search.")
        {
            continue;
        }
        // Strategies run concurrently inside the portfolio: its whole
        // wall time counts for the dist layer, once.
        let own = if s.name == "dist.portfolio" {
            s.dur_ns()
        } else {
            self_ns[i]
        };
        *layer_ns.entry(s.layer()).or_default() += own;
    }
    let root_ns: u64 = measured_roots.iter().map(|&r| spans[r].dur_ns()).sum();
    let unattributed_ns: u64 = measured_roots.iter().map(|&r| self_ns[r]).sum();
    let n_measured = measured_roots.len().max(1) as f64;
    let traced_p50_ms = median(
        &measured_roots
            .iter()
            .map(|&r| spans[r].dur_ns() as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let inproc_p50_ms = median(&untraced.latency_ns).unwrap_or(0.0) / 1e6;
    let c = &traced.counts;
    let sum_counter = |name: &str| -> f64 {
        wire.segments
            .iter()
            .map(|s| check::counter(&s.stats, name) as f64)
            .sum()
    };
    let cache_stat = |name: &str| -> f64 {
        wire.segments
            .iter()
            .filter_map(|s| {
                s.stats
                    .get("cache")
                    .and_then(|c| c.get(name))
                    .and_then(Value::as_u64)
            })
            .map(|v| v as f64)
            .sum()
    };
    let mut layer: Vec<(&'static str, f64)> = vec![
        ("sim.pingpong_handoff_us", micro.pingpong_handoff_ns / 1e3),
        ("sim.allreduce8_us", micro.allreduce8_ns / 1e3),
        ("sim.spawn8_us", micro.spawn8_ns / 1e3),
        ("core.measure_arch_ms", med("core.measure_arch", 1e6)),
        ("core.model_assemble_ms", med("core.model_assemble", 1e6)),
        (
            "apps.instrumented_iter_ms",
            med("apps.instrumented_iter", 1e6),
        ),
        (
            "apps.instrumented_ops",
            median(&c.instrumented_ops).unwrap_or(0.0),
        ),
        (
            "apps.instrumented_ns_per_op",
            median(
                &replay::durations(spans, "apps.instrumented_iter")
                    .iter()
                    .zip(&c.instrumented_ops)
                    .map(|(d, ops)| d / ops.max(1.0))
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
        ),
        (
            "dist.eval.full_us",
            median(&c.predict_ns).unwrap_or(0.0) / 1e3,
        ),
        (
            "dist.eval.delta_hit_rate",
            c.delta_hits as f64 / (c.delta_hits + c.delta_full).max(1) as f64,
        ),
        ("dist.portfolio.ms", med("dist.portfolio", 1e6)),
        ("dist.portfolio.evals", prefix_evals),
        (
            "dist.portfolio.straggler_ratio",
            median(&c.straggler).unwrap_or(0.0),
        ),
        (
            "dist.portfolio.wasted_eval_frac",
            c.evals_wasted as f64 / c.evals_all.max(1) as f64,
        ),
    ];
    for (i, (span, ms_name, wins_name)) in STRATEGY_METRICS.into_iter().enumerate() {
        layer.push((ms_name, med(span, 1e6)));
        layer.push((wins_name, c.wins[i] as f64));
    }
    let requests = sum_counter("requests");
    layer.extend([
        ("serve.request.key_us", med("serve.request.key", 1e3)),
        (
            "serve.request.canon_bytes",
            median(&c.canon_bytes).unwrap_or(0.0),
        ),
        ("serve.cache.get_us", med("serve.cache.get", 1e3)),
        (
            "serve.planner.hit_us",
            median(&untraced.hit_ns).unwrap_or(0.0) / 1e3,
        ),
        ("serve.wire.parse_us", med("serve.wire.parse", 1e3)),
        ("serve.wire.render_us", med("serve.wire.render", 1e3)),
        ("serve.wire.overhead_ms", p50 - inproc_p50_ms),
        (
            "serve.cache.hit_ratio",
            sum_counter("cache_hits") / requests.max(1.0),
        ),
        ("serve.cache.evictions", cache_stat("evictions")),
        ("serve.singleflight.coalesced", sum_counter("coalesced")),
        ("serve.executor.searches", sum_counter("searches")),
        ("serve.executor.shed", sum_counter("shed")),
        ("obs.recorder.event_ns", micro.recorder_event_ns),
        ("loadgen.gap_us", gap_us),
        (
            "trace.unattributed_frac",
            unattributed_ns as f64 / root_ns.max(1) as f64,
        ),
        (
            "trace.overhead_frac",
            if inproc_p50_ms > 0.0 {
                traced_p50_ms / inproc_p50_ms - 1.0
            } else {
                0.0
            },
        ),
        ("trace.request_p50_ms", traced_p50_ms),
        ("inproc.request_p50_ms", inproc_p50_ms),
    ]);
    for (l, name) in SELF_METRICS {
        let ns = layer_ns.get(l).copied().unwrap_or(0);
        layer.push((name, ns as f64 / 1e6 / n_measured));
    }

    println!(
        "-- per-layer ledger ({}; value, unit, what it should move) --",
        w.name()
    );
    for (name, _, moves) in PER_LAYER {
        let value = layer
            .iter()
            .find(|m| m.0 == *name)
            .map_or(f64::NAN, |m| m.1);
        print_metric(name, value, &format!("-> {moves}"));
    }
    println!(
        "-- attribution: {} measured requests, {} spans; self time per request --",
        measured_roots.len(),
        spans.len()
    );
    for (l, ns) in &layer_ns {
        println!(
            "  {l:<8} {:>10.4} ms  {:>6.2} %",
            *ns as f64 / 1e6 / n_measured,
            100.0 * *ns as f64 / root_ns.max(1) as f64
        );
    }
    println!(
        "  unattributed {:.2} % of traced request time; tracing overhead {:+.2} % \
         (traced p50 {traced_p50_ms:.4} ms vs untraced in-process p50 {inproc_p50_ms:.4} ms; \
         untraced wire p50 {p50:.4} ms)",
        100.0 * unattributed_ns as f64 / root_ns.max(1) as f64,
        100.0 * (traced_p50_ms / inproc_p50_ms.max(1e-12) - 1.0)
    );
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args
        .out
        .join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
    std::fs::write(&path, replay::spans_jsonl(spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());

    Ok(layer)
}

/// A finite JSON number: a failed metric reads as the largest float.
fn number(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { f64::MAX })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> String {
    let m = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name.rsplit_once(':').map_or(name, |(_, n)| n));
            Value::object(vec![
                ("value", number(*value)),
                ("unit", Value::Str(unit.to_string())),
            ])
        })
        .collect::<Vec<_>>();
    let pairs: Vec<(&str, Value)> = metrics.iter().map(|(n, _)| n.as_str()).zip(m).collect();
    Value::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", Value::object(pairs)),
    ])
    .to_json()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for &w in &workloads {
        let out = match run_workload(&args, w) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        for e in &out.errors {
            println!("  CHECK FAILED: {e}");
        }
        correct &= out.errors.is_empty() && out.failed == 0;
        attempted += out.attempted;
        failed += out.failed;
        for name in &wanted {
            let v = out
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .map_or(f64::INFINITY, |m| m.1);
            // One workload: plain names. All of them: `workload:name`.
            let key = if workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{}:{name}", w.name())
            };
            metrics.push((key, v));
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
