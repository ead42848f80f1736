//! In-process replays of the request stream the daemon served.
//!
//! The untraced replay sends every request through a default
//! [`Planner`], the way `pland` does minus the wire. The traced replay
//! calls each layer's public entry point itself, in the order
//! `Planner::plan_opts` → `run_search` calls them, and records a span
//! around every call; nothing inside the program is instrumented.
//! Strategy spans come from the `runs` the portfolio already returns.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use mheta_apps::{anchor_inputs, run_instrumented};
use mheta_core::{build_profile, measure_arch, Mheta};
use mheta_dist::{portfolio_search, GenBlock, SpectrumPath, Strategy};
use mheta_obs::json::Value;
use mheta_obs::trace::id_hex;
use mheta_obs::{FlightRecorder, RequestSource, TraceContext};
use mheta_serve::wire::plan_response;
use mheta_serve::{
    fnv1a64, parse_request, Plan, PlanCache, PlanReply, PlanRequest, Planner, PlannerConfig, WireOp,
};

use crate::check::PlanOut;

/// One request to replay, in the order the daemon received it.
pub struct Item {
    /// Which daemon served it; each gets a fresh planner or cache.
    pub segment: usize,
    pub line: String,
    /// Part of the measured window (not priming).
    pub measured: bool,
    /// The daemon's plan, when its reply passed the checks.
    pub daemon_plan: Option<PlanOut>,
}

fn parse(line: &str) -> Result<PlanRequest, String> {
    match parse_request(line.trim_end()) {
        Ok(WireOp::Plan(req, _, _)) => Ok(*req),
        Ok(_) => Err("not a plan request".into()),
        Err(e) => Err(e),
    }
}

fn compare(i: usize, it: &Item, got: &PlanOut, what: &str, errors: &mut Vec<String>) {
    if let Some(want) = &it.daemon_plan {
        if !got.same_bits(want) {
            errors.push(format!(
                "request {i}: {what} plan {got:?} differs from the daemon's {want:?}"
            ));
        }
    }
}

/// Results of the untraced in-process replay.
pub struct Untraced {
    /// `Planner::plan` latency of each measured request, ns.
    pub latency_ns: Vec<f64>,
    /// `Planner::plan` latency of cache hits on requests already
    /// replayed, ns.
    pub hit_ns: Vec<f64>,
    pub errors: Vec<String>,
}

/// Distinct requests re-planned to time the in-process hit path.
const HIT_PROBE_KEYS: usize = 16;
const HIT_PROBE_ROUNDS: usize = 8;

pub fn untraced(items: &[Item]) -> Untraced {
    let mut out = Untraced {
        latency_ns: Vec::new(),
        hit_ns: Vec::new(),
        errors: Vec::new(),
    };
    let mut planner: Option<(usize, Planner)> = None;
    for (i, it) in items.iter().enumerate() {
        if planner.as_ref().map(|p| p.0) != Some(it.segment) {
            planner = Some((it.segment, Planner::new(PlannerConfig::default())));
        }
        let p = &planner.as_ref().expect("set above").1;
        let req = match parse(&it.line) {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(format!("request {i}: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let reply = p.plan(&req);
        let ns = t0.elapsed().as_nanos() as f64;
        match reply {
            Ok(reply) => {
                compare(
                    i,
                    it,
                    &PlanOut::from_plan(&reply.plan),
                    "in-process",
                    &mut out.errors,
                );
                if it.measured {
                    out.latency_ns.push(ns);
                }
            }
            Err(e) => out
                .errors
                .push(format!("request {i}: in-process plan failed: {e}")),
        }
    }
    // Re-plan the last distinct measured requests of the last planner:
    // these are cache hits.
    let Some((seg, planner)) = planner else {
        return out;
    };
    let mut seen = HashSet::new();
    let probe: Vec<PlanRequest> = items
        .iter()
        .rev()
        .filter(|it| it.segment == seg && it.measured && seen.insert(it.line.as_str()))
        .take(HIT_PROBE_KEYS)
        .filter_map(|it| parse(&it.line).ok())
        .collect();
    for _ in 0..HIT_PROBE_ROUNDS {
        for req in &probe {
            let t0 = Instant::now();
            let reply = planner.plan(req);
            let ns = t0.elapsed().as_nanos() as f64;
            if matches!(reply, Ok(ref r) if r.source == RequestSource::Cache) {
                out.hit_ns.push(ns);
            }
        }
    }
    out
}

/// One traced call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the request in the replay.
    pub req: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the span name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span log; written out once the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, req: usize, parent: Option<usize>) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }
}

fn strategy_span(s: Strategy) -> &'static str {
    match s {
        Strategy::Gbs => "dist.search.gbs",
        Strategy::Genetic => "dist.search.genetic",
        Strategy::Annealing => "dist.search.annealing",
        Strategy::Random => "dist.search.random",
    }
}

/// Per-miss counts that spans cannot carry.
#[derive(Debug, Default)]
pub struct Counts {
    /// Hook events of each instrumented iteration.
    pub instrumented_ops: Vec<f64>,
    /// `Mheta::predict` time per candidate, ns.
    pub predict_ns: Vec<f64>,
    pub delta_hits: u64,
    pub delta_full: u64,
    /// Portfolio wall time over the winner's own elapsed time.
    pub straggler: Vec<f64>,
    pub evals_all: u64,
    pub evals_wasted: u64,
    pub wins: [u64; 4],
    pub canon_bytes: Vec<f64>,
}

pub struct Traced {
    pub tracer: Tracer,
    /// Root span of each replayed request, by replay index.
    pub roots: Vec<Option<usize>>,
    pub counts: Counts,
    pub errors: Vec<String>,
}

/// `run_search`, one span per layer call. Returns the plan and the
/// model and path (for the per-candidate evaluation probe).
fn search(
    t: &mut Tracer,
    i: usize,
    root: usize,
    req: &PlanRequest,
    c: &mut Counts,
) -> Result<(Plan, Mheta, SpectrumPath), String> {
    let s = t.begin("core.measure_arch", i, Some(root));
    let arch = measure_arch(&req.spec).map_err(|e| e.to_string())?;
    t.end(s);

    let s = t.begin("apps.instrumented_iter", i, Some(root));
    let blk = GenBlock::block(req.bench.total_rows(), req.spec.len());
    let recorders =
        run_instrumented(&req.bench, &req.spec, &blk, req.prefetch).map_err(|e| e.to_string())?;
    t.end(s);
    c.instrumented_ops
        .push(recorders.iter().map(|r| r.events.len()).sum::<usize>() as f64);

    let s = t.begin("core.model_assemble", i, Some(root));
    let profile = build_profile(&arch, &recorders, blk.rows());
    let model =
        Mheta::new(req.bench.structure(req.prefetch), arch, profile).map_err(|e| e.to_string())?;
    t.end(s);

    let s = t.begin("apps.anchor_inputs", i, Some(root));
    let inputs = anchor_inputs(&model);
    t.end(s);
    let s = t.begin("dist.spectrum_path", i, Some(root));
    let path = SpectrumPath::new(&inputs);
    t.end(s);

    let p = t.begin("dist.portfolio", i, Some(root));
    let out = portfolio_search(&path, &model, req.search.to_portfolio());
    t.end(p);
    let (p_start, p_dur) = (t.spans[p].start_ns, t.spans[p].dur_ns());
    for run in &out.runs {
        let s = t.begin(strategy_span(run.strategy), i, Some(p));
        t.spans[s].start_ns = p_start + run.started_ns;
        t.spans[s].end_ns = (p_start + run.started_ns + run.elapsed_ns).min(p_start + p_dur);
        c.evals_all += run.outcome.evaluations as u64;
        if run.strategy == out.winner {
            if run.elapsed_ns > 0 {
                c.straggler.push(p_dur as f64 / run.elapsed_ns as f64);
            }
        } else {
            c.evals_wasted += run.outcome.evaluations as u64;
        }
    }
    c.wins[Strategy::ALL
        .iter()
        .position(|&s| s == out.winner)
        .expect("winner is a strategy")] += 1;
    c.delta_hits += out.delta.delta_hits;
    c.delta_full += out.delta.full_evals;
    if !out.best.score_ns.is_finite() {
        return Err("no candidate evaluated to a finite score".into());
    }
    let plan = Plan {
        rows: out.best.best.rows().to_vec(),
        predicted_ns: out.best.score_ns,
        winner: out.winner,
        total_evals: out.total_evals,
    };
    Ok((plan, model, path))
}

pub fn traced(items: &[Item]) -> Traced {
    let cfg = PlannerConfig::default();
    let mut t = Tracer::new();
    let mut c = Counts::default();
    let mut roots = Vec::with_capacity(items.len());
    let mut errors = Vec::new();
    let mut state: Option<(usize, PlanCache, FlightRecorder)> = None;
    for (i, it) in items.iter().enumerate() {
        if state.as_ref().map(|s| s.0) != Some(it.segment) {
            state = Some((
                it.segment,
                PlanCache::new(cfg.cache_shards, cfg.cache_capacity),
                FlightRecorder::new(cfg.recorder_capacity, cfg.recorder_stripes),
            ));
        }
        let (_, cache, recorder) = state.as_ref().expect("set above");

        let root = t.begin("request", i, None);
        let s = t.begin("serve.wire.parse", i, Some(root));
        let parsed = parse(&it.line);
        t.end(s);
        let req = match parsed {
            Ok(r) => r,
            Err(e) => {
                t.end(root);
                roots.push(None);
                errors.push(format!("request {i}: {e}"));
                continue;
            }
        };

        let s = t.begin("serve.request.key", i, Some(root));
        let canon = req.canonical_json();
        let key = fnv1a64(canon.as_bytes());
        t.end(s);
        c.canon_bytes.push(canon.len() as f64);
        let ctx = TraceContext::root();
        let label = req.label();

        let s = t.begin("serve.cache.get", i, Some(root));
        let hit = cache.get(key, &canon);
        t.end(s);

        let mut probe = None;
        let (plan, source) = match hit {
            Some(plan) => {
                let s = t.begin("obs.recorder.record", i, Some(root));
                recorder.record_kv(
                    Some(&ctx),
                    "cache.hit",
                    vec![
                        ("label", Value::Str(label.clone())),
                        ("key", Value::Str(id_hex(key))),
                    ],
                );
                t.end(s);
                (plan, RequestSource::Cache)
            }
            None => {
                let s = t.begin("obs.recorder.record", i, Some(root));
                recorder.record_kv(
                    Some(&ctx),
                    "request.received",
                    vec![
                        ("label", Value::Str(label.clone())),
                        ("key", Value::Str(id_hex(key))),
                    ],
                );
                recorder.record_kv(
                    Some(&ctx),
                    "cache.miss",
                    vec![("key", Value::Str(id_hex(key)))],
                );
                t.end(s);
                match search(&mut t, i, root, &req, &mut c) {
                    Ok((plan, model, path)) => {
                        let s = t.begin("serve.cache.insert", i, Some(root));
                        cache.insert(key, &canon, plan.clone());
                        t.end(s);
                        probe = Some((model, path, plan.rows.clone()));
                        (plan, RequestSource::Fresh)
                    }
                    Err(e) => {
                        t.end(root);
                        roots.push(None);
                        errors.push(format!("request {i}: traced search failed: {e}"));
                        continue;
                    }
                }
            }
        };

        let s = t.begin("serve.wire.render", i, Some(root));
        let reply = PlanReply {
            plan,
            source,
            key,
            trace: ctx,
            degraded: false,
        };
        black_box(plan_response(&reply).to_json());
        t.end(s);
        t.end(root);
        roots.push(Some(root));
        compare(
            i,
            it,
            &PlanOut::from_plan(&reply.plan),
            "traced",
            &mut errors,
        );

        // Off the request path: the full-evaluation cost per candidate.
        if let Some((model, path, winner_rows)) = probe {
            let candidates = path
                .anchors()
                .iter()
                .map(|(_, g)| g.rows().to_vec())
                .chain(std::iter::once(winner_rows));
            for rows in candidates {
                let t0 = Instant::now();
                let p = model.predict(black_box(&rows));
                c.predict_ns.push(t0.elapsed().as_nanos() as f64);
                black_box(p.ok());
            }
        }
    }
    Traced {
        tracer: t,
        roots,
        counts: c,
        errors,
    }
}

/// Durations of the spans called `name`, ns.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Length of the union of `intervals`, ns.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Self time of every span: its duration minus the part its children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, ch)| s.dur_ns().saturating_sub(union_ns(ch)))
        .collect()
}

/// Spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let v = Value::object(vec![
            ("id", Value::UInt(id as u64)),
            ("name", Value::Str(s.name.to_string())),
            ("req", Value::UInt(s.req as u64)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
            ),
            ("start_ns", Value::UInt(s.start_ns)),
            ("end_ns", Value::UInt(s.end_ns)),
        ]);
        out.push_str(&v.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 10), (10, 12)]), 22);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("dist.portfolio", Some(0), 10, 90),
            span("dist.search.gbs", Some(1), 10, 50),
            span("dist.search.random", Some(1), 20, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 60]);
        assert_eq!(spans[2].layer(), "dist");
        assert_eq!(spans[0].layer(), "request");
    }
}
