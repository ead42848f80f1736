//! The in-process planning front end.
//!
//! [`Planner::plan`] takes a request through the full lifecycle:
//!
//! ```text
//! request ── cache probe ──hit──────────────────────────▶ reply (cache)
//!               │ miss
//!               ▼
//!          single-flight ──follower── wait ─────────────▶ reply (coalesced)
//!               │ leader
//!               ▼
//!          circuit breaker ──open── fast-fail ──────────▶ Err(CircuitOpen)
//!               │ admitted
//!               ▼
//!          executor.try_submit ──queue full── shed ─────▶ Err(Overloaded)
//!               │ admitted
//!               ▼
//!          model memo ── portfolio search ── cache insert ── publish ─▶ reply (fresh)
//! ```
//!
//! The request's canonical rendering is computed once, on arrival: the
//! plan-cache key, the single-flight key, and (sliced with
//! [`crate::request::model_canon`]) the model-memo key all come from
//! it.
//!
//! ## Model memo
//!
//! Virtual time is deterministic, so the assembled model is a pure
//! function of (cluster, program): requests that differ only in their
//! search parameters can share one build. The [`ModelMemo`] holds up to
//! `cache_capacity` models (LRU), keyed by FNV-1a of the canonical
//! cluster + program rendering and verified against those bytes. Only
//! successful builds are memoized, and no lock is held while building.
//! Each build runs the simulator on one thread per rank and leaves the
//! allocator's per-thread arenas at their high-water mark, so without
//! the memo resident memory ratchets with the number of builds, not
//! the number of distinct models. `cache_enabled = false` bypasses the
//! memo along with the plan cache (every search builds its own model),
//! and [`Planner::invalidate_cache`] clears both.
//!
//! Every path publishes to the flight before returning, so followers
//! can never hang — a shed or failed leader sheds/fails its followers
//! too. Every path records a [`RequestSpan`] so the request track and
//! stage histograms cover shed and failed requests as well.
//!
//! ## Deadlines
//!
//! [`Planner::plan_opts`] accepts an optional end-to-end budget. The
//! deadline is computed once at arrival and threaded through every
//! stage: a coalesced follower gives up its wait when it expires
//! ([`crate::singleflight::Flight::wait_until`]), a queued job that
//! dequeues past it never starts searching, and a running search
//! converts it into `SearchCtl` cooperative cancellation. A search the
//! deadline interrupts still returns its best incumbent, flagged
//! [`PlanReply::degraded`]; [`PlanError::DeadlineExceeded`] is reserved
//! for the case where no incumbent exists at all. Degraded plans are
//! never cached — they are partial-budget answers and would poison the
//! key for future full-budget requests. They are also never silently
//! handed to a caller that did not opt in: a deadline-free follower
//! coalesced onto a flight whose leader degraded re-enters the
//! pipeline (cache probe, then a fresh flight) instead of inheriting
//! the partial answer.
//!
//! ## Circuit breaker
//!
//! Consecutive search failures on one cache-key shard trip a
//! [`CircuitBreaker`]: further requests there shed fast with
//! [`PlanError::CircuitOpen`] until a half-open probe succeeds. Only
//! genuine search failures count — sheds and deadline expiries say
//! nothing about the shard's health.
//!
//! ## Telemetry
//!
//! Every request carries a [`TraceContext`] ([`Planner::plan`] mints a
//! root; [`Planner::plan_traced`] accepts one propagated over the
//! wire). The context is stamped on the request's [`RequestSpan`]
//! (including per-strategy sub-spans from the portfolio threads), on
//! every [`FlightRecorder`] event the request emits, and on the wire
//! reply — so one `trace_id` connects the client call, the span track,
//! the flight-recorder dump, and the Perfetto flame. Coalesced
//! followers keep their own trace but **link** to the leader's
//! (`RequestSpan::link_trace_id`), so a coalition is navigable from
//! any member.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mheta_apps::{anchor_inputs, build_model};
use mheta_core::Mheta;
use mheta_dist::{portfolio_search, DeltaStats, SpectrumPath, Strategy};
use mheta_obs::json::Value;
use mheta_obs::trace::id_hex;
use mheta_obs::{
    FlightRecorder, RequestSource, RequestSpan, ServiceMetrics, StrategySpan, TraceContext,
};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::{ModelMemo, PlanCache};
use crate::executor::Executor;
use crate::request::{fnv1a64, model_canon, PlanRequest};
use crate::singleflight::{Entry, SingleFlight};

/// A finished distribution plan: the service's product.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The best `GEN_BLOCK` layout found (rows per node).
    pub rows: Vec<usize>,
    /// Its predicted iteration time, ns.
    pub predicted_ns: f64,
    /// Which portfolio strategy produced it.
    pub winner: Strategy,
    /// Combined evaluator calls the portfolio spent.
    pub total_evals: usize,
}

/// Why a request did not produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Admission control shed the request: the executor queue was
    /// full. Retry after the suggested backoff.
    Overloaded {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// Model construction or the search itself failed.
    Search(String),
    /// The request's end-to-end deadline expired before any usable
    /// incumbent plan existed. (A deadline that expires *mid-search*
    /// returns the incumbent flagged [`PlanReply::degraded`] instead.)
    DeadlineExceeded {
        /// The budget the request arrived with, milliseconds.
        budget_ms: u64,
    },
    /// The circuit breaker for this request's cache-key shard is open
    /// after consecutive search failures there; the request was shed
    /// fast without queueing. Retry after the suggested backoff.
    CircuitOpen {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded; retry after {retry_after_ms} ms")
            }
            PlanError::Search(msg) => write!(f, "search failed: {msg}"),
            PlanError::DeadlineExceeded { budget_ms } => {
                write!(
                    f,
                    "deadline exceeded: {budget_ms} ms budget, no incumbent plan"
                )
            }
            PlanError::CircuitOpen { retry_after_ms } => {
                write!(f, "circuit open; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A successful reply: the plan plus provenance.
#[derive(Debug, Clone)]
pub struct PlanReply {
    /// The plan.
    pub plan: Plan,
    /// How it was produced (`Fresh`, `Cache`, or `Coalesced`).
    pub source: RequestSource,
    /// The request's canonical content hash (the cache key).
    pub key: u64,
    /// The trace this request was served under.
    pub trace: TraceContext,
    /// The deadline expired mid-search: this is the best incumbent at
    /// expiry, not the full-budget answer. Degraded plans are valid
    /// (every incumbent passed the evaluator) but never cached.
    pub degraded: bool,
}

/// Planner tuning.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Search worker threads.
    pub workers: usize,
    /// Bounded executor queue depth; 0 sheds every admission (useful
    /// for deterministic overload tests).
    pub queue_capacity: usize,
    /// Plan-cache lock stripes.
    pub cache_shards: usize,
    /// Plan-cache total capacity (entries); also bounds the model memo.
    pub cache_capacity: usize,
    /// Serve repeat requests from the cache, and reuse assembled models
    /// from the model memo.
    pub cache_enabled: bool,
    /// Coalesce concurrent identical requests onto one search.
    pub coalesce_enabled: bool,
    /// Backoff suggested to shed clients, milliseconds.
    pub retry_after_ms: u64,
    /// Flight-recorder ring capacity (events); 0 disables the recorder
    /// entirely (used by the bench overhead A/B — production keeps the
    /// default, always-on).
    pub recorder_capacity: usize,
    /// Flight-recorder lock stripes.
    pub recorder_stripes: usize,
    /// Consecutive search failures (per cache-key shard) that trip the
    /// circuit breaker; 0 disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker shard stays open before admitting a
    /// probe, milliseconds.
    pub breaker_open_ms: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_shards: 8,
            cache_capacity: 256,
            cache_enabled: true,
            coalesce_enabled: true,
            retry_after_ms: 50,
            recorder_capacity: 1024,
            recorder_stripes: 8,
            breaker_threshold: 5,
            breaker_open_ms: 1000,
        }
    }
}

/// What a leader publishes to its flight: the outcome every coalesced
/// follower inherits, plus the leader's trace so followers can link to
/// it (on the error paths too).
#[derive(Clone)]
struct FlightOutput {
    /// The plan, the search-stage duration, and the degraded flag —
    /// or the error. Deadlined followers inherit degradation (bounded
    /// latency is what they asked for); deadline-free followers of a
    /// degraded flight retry instead of accepting the partial answer.
    result: Result<(Plan, u64, bool), PlanError>,
    /// The leader's trace ID (never 0).
    leader_trace_id: u64,
}

/// What the search worker reports back to the leader thread.
struct SearchReport {
    result: Result<(Plan, SearchAux), PlanError>,
    /// When the search stage started, on the metrics clock.
    started_ns: u64,
    /// How long the search stage ran.
    search_ns: u64,
}

/// Observability side-channel of one portfolio run.
struct SearchAux {
    /// Per-strategy thread spans, offsets relative to the portfolio
    /// launch.
    strategies: Vec<StrategySpan>,
    /// Whether a cancellation criterion tripped.
    cancelled: bool,
    /// Whether the deadline criterion specifically tripped (the plan
    /// is the incumbent at expiry, not the full-budget answer).
    degraded: bool,
    /// Incremental-evaluation tallies merged across the portfolio's
    /// strategies.
    delta: DeltaStats,
}

/// The resident planning service (in-process front end).
pub struct Planner {
    cfg: PlannerConfig,
    cache: PlanCache,
    memo: Arc<ModelMemo>,
    flights: SingleFlight<FlightOutput>,
    executor: Executor,
    breaker: CircuitBreaker,
    metrics: Arc<ServiceMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Planner {
    /// Build a planner (spawns the worker pool immediately).
    #[must_use]
    pub fn new(cfg: PlannerConfig) -> Self {
        Planner {
            cache: PlanCache::new(cfg.cache_shards, cfg.cache_capacity),
            memo: Arc::new(ModelMemo::new(cfg.cache_shards, cfg.cache_capacity)),
            flights: SingleFlight::new(),
            executor: Executor::new(cfg.workers, cfg.queue_capacity),
            breaker: CircuitBreaker::new(
                cfg.cache_shards,
                BreakerConfig {
                    failure_threshold: cfg.breaker_threshold,
                    open_ms: cfg.breaker_open_ms,
                },
            ),
            metrics: Arc::new(ServiceMetrics::new()),
            recorder: (cfg.recorder_capacity > 0).then(|| {
                Arc::new(FlightRecorder::new(
                    cfg.recorder_capacity,
                    cfg.recorder_stripes,
                ))
            }),
            cfg,
        }
    }

    /// Record one flight-recorder event (no-op when the recorder is
    /// disabled).
    fn rec(&self, ctx: &TraceContext, kind: &'static str, detail: Vec<(&str, Value)>) {
        if let Some(r) = &self.recorder {
            r.record_kv(Some(ctx), kind, detail);
        }
    }

    /// Plan `req` under a freshly minted root trace, with no deadline.
    /// See [`Planner::plan_opts`].
    pub fn plan(&self, req: &PlanRequest) -> Result<PlanReply, PlanError> {
        self.plan_opts(req, TraceContext::root(), None)
    }

    /// Plan `req` under `ctx`, with no deadline. See
    /// [`Planner::plan_opts`].
    pub fn plan_traced(
        &self,
        req: &PlanRequest,
        ctx: TraceContext,
    ) -> Result<PlanReply, PlanError> {
        self.plan_opts(req, ctx, None)
    }

    /// Plan `req` under `ctx` with an optional end-to-end `deadline`
    /// budget, going through cache → single-flight → breaker →
    /// admission → portfolio search. Never blocks on a full queue:
    /// overload is a structured [`PlanError::Overloaded`]. The deadline
    /// is operational state, not request content — it does not affect
    /// the cache key, and two requests differing only in deadline still
    /// coalesce.
    pub fn plan_opts(
        &self,
        req: &PlanRequest,
        ctx: TraceContext,
        deadline: Option<Duration>,
    ) -> Result<PlanReply, PlanError> {
        let t0 = self.metrics.now_ns();
        let deadline_at = deadline.map(|d| Instant::now() + d);
        let budget_ms = deadline.map_or(0, |d| d.as_millis() as u64);
        let canon = req.canonical_json();
        let key = fnv1a64(canon.as_bytes());
        let label = req.label();

        if self.cfg.cache_enabled {
            if let Some(plan) = self.cache.get(key, &canon) {
                // One event on the serving fast path: `cache.hit`
                // doubles as the arrival record for cache-served
                // requests (same trace, timestamp, and key a separate
                // received event would carry).
                self.rec(
                    &ctx,
                    "cache.hit",
                    vec![
                        ("label", Value::Str(label.clone())),
                        ("key", Value::Str(id_hex(key))),
                    ],
                );
                self.record(&label, RequestSource::Cache, &ctx, 0, t0, 0, Vec::new());
                return Ok(PlanReply {
                    plan,
                    source: RequestSource::Cache,
                    key,
                    trace: ctx,
                    degraded: false,
                });
            }
        }

        self.rec(
            &ctx,
            "request.received",
            vec![
                ("label", Value::Str(label.clone())),
                ("key", Value::Str(id_hex(key))),
            ],
        );
        if self.cfg.cache_enabled {
            self.rec(&ctx, "cache.miss", vec![("key", Value::Str(id_hex(key)))]);
        }

        if self.cfg.coalesce_enabled {
            loop {
                match self.flights.enter(&canon) {
                    Entry::Follower(flight) => {
                        let Some(out) = flight.wait_until(deadline_at) else {
                            // Our own deadline expired while the leader was
                            // still searching. Give up quietly; the leader
                            // keeps working for the rest of the coalition.
                            self.metrics.on_deadline_exceeded();
                            self.rec(
                                &ctx,
                                "deadline.exceeded",
                                vec![
                                    ("key", Value::Str(id_hex(key))),
                                    ("budget_ms", Value::UInt(budget_ms)),
                                    ("stage", Value::Str("coalesced".into())),
                                ],
                            );
                            self.record(&label, RequestSource::Failed, &ctx, 0, t0, 0, Vec::new());
                            return Err(PlanError::DeadlineExceeded { budget_ms });
                        };
                        self.rec(
                            &ctx,
                            "coalesce.follow",
                            vec![
                                ("key", Value::Str(id_hex(key))),
                                ("leader_trace_id", Value::Str(id_hex(out.leader_trace_id))),
                            ],
                        );
                        match out.result {
                            Ok((plan, _, degraded)) => {
                                if degraded && deadline_at.is_none() {
                                    // This caller asked for the full-budget
                                    // answer; the leader's own deadline cut
                                    // the search short. Inheriting the
                                    // incumbent would silently hand a
                                    // partial-budget plan to a request that
                                    // never opted into one — go around
                                    // again instead (cache first: a
                                    // full-budget leader may have finished
                                    // while we waited; otherwise re-enter
                                    // the flight, leading it ourselves if
                                    // nobody else is searching).
                                    self.rec(
                                        &ctx,
                                        "coalesce.degraded_retry",
                                        vec![
                                            ("key", Value::Str(id_hex(key))),
                                            (
                                                "leader_trace_id",
                                                Value::Str(id_hex(out.leader_trace_id)),
                                            ),
                                        ],
                                    );
                                    if self.cfg.cache_enabled {
                                        if let Some(plan) = self.cache.get(key, &canon) {
                                            self.record(
                                                &label,
                                                RequestSource::Cache,
                                                &ctx,
                                                out.leader_trace_id,
                                                t0,
                                                0,
                                                Vec::new(),
                                            );
                                            return Ok(PlanReply {
                                                plan,
                                                source: RequestSource::Cache,
                                                key,
                                                trace: ctx,
                                                degraded: false,
                                            });
                                        }
                                    }
                                    continue;
                                }
                                if degraded {
                                    self.metrics.on_degraded();
                                }
                                self.record(
                                    &label,
                                    RequestSource::Coalesced,
                                    &ctx,
                                    out.leader_trace_id,
                                    t0,
                                    0,
                                    Vec::new(),
                                );
                                return Ok(PlanReply {
                                    plan,
                                    source: RequestSource::Coalesced,
                                    key,
                                    trace: ctx,
                                    degraded,
                                });
                            }
                            Err(e) => {
                                let source = match e {
                                    PlanError::Overloaded { .. }
                                    | PlanError::CircuitOpen { .. } => RequestSource::Shed,
                                    PlanError::Search(_) | PlanError::DeadlineExceeded { .. } => {
                                        RequestSource::Failed
                                    }
                                };
                                self.record(
                                    &label,
                                    source,
                                    &ctx,
                                    out.leader_trace_id,
                                    t0,
                                    0,
                                    Vec::new(),
                                );
                                return Err(e);
                            }
                        }
                    }
                    Entry::Leader(flight) => {
                        return self.lead(
                            req,
                            key,
                            &canon,
                            Some(flight),
                            t0,
                            &label,
                            ctx,
                            deadline_at,
                            budget_ms,
                        )
                    }
                }
            }
        } else {
            self.lead(
                req,
                key,
                &canon,
                None,
                t0,
                &label,
                ctx,
                deadline_at,
                budget_ms,
            )
        }
    }

    /// Leader path: breaker, admit, search, cache, publish.
    #[allow(clippy::too_many_arguments)]
    fn lead(
        &self,
        req: &PlanRequest,
        key: u64,
        canon: &str,
        flight: Option<Arc<crate::singleflight::Flight<FlightOutput>>>,
        t0: u64,
        label: &str,
        ctx: TraceContext,
        deadline_at: Option<Instant>,
        budget_ms: u64,
    ) -> Result<PlanReply, PlanError> {
        if let Err(retry_after_ms) = self.breaker.admit(key, self.metrics.now_ns()) {
            let err = PlanError::CircuitOpen { retry_after_ms };
            self.rec(
                &ctx,
                "breaker.fastfail",
                vec![
                    ("key", Value::Str(id_hex(key))),
                    ("retry_after_ms", Value::UInt(retry_after_ms)),
                ],
            );
            // Publish the fast-fail to followers FIRST: they must
            // never hang on a flight whose leader was never admitted.
            if let Some(f) = &flight {
                self.flights.complete(
                    canon,
                    f,
                    FlightOutput {
                        result: Err(err.clone()),
                        leader_trace_id: ctx.trace_id,
                    },
                );
            }
            self.record(label, RequestSource::Shed, &ctx, 0, t0, 0, Vec::new());
            return Err(err);
        }

        let (tx, rx) = mpsc::channel::<SearchReport>();
        let job_req = req.clone();
        let job_memo = self
            .cfg
            .cache_enabled
            .then(|| (Arc::clone(&self.memo), model_canon(canon)));
        let job_metrics = Arc::clone(&self.metrics);
        let job = move || {
            let started_ns = job_metrics.now_ns();
            // Expired while queued: don't burn a worker on a search
            // whose client already gave up. No incumbent exists yet,
            // so this is a true DeadlineExceeded, not a degraded plan.
            if deadline_at.is_some_and(|d| Instant::now() >= d) {
                let _ = tx.send(SearchReport {
                    result: Err(PlanError::DeadlineExceeded { budget_ms }),
                    started_ns,
                    search_ns: 0,
                });
                return;
            }
            job_metrics.on_search_started();
            let memo = job_memo.as_ref().map(|(m, c)| (m.as_ref(), c.as_str()));
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_search(&job_req, memo, deadline_at, budget_ms)
            }))
            .unwrap_or_else(|_| Err(PlanError::Search("search worker panicked".into())));
            let search_ns = job_metrics.now_ns().saturating_sub(started_ns);
            let _ = tx.send(SearchReport {
                result,
                started_ns,
                search_ns,
            });
        };

        if self.executor.try_submit(job).is_err() {
            // The breaker admitted us but no search will run: if we
            // held the half-open probe slot, give it back so the next
            // request can probe instead of fast-failing forever.
            self.breaker.on_abandoned(key);
            let err = PlanError::Overloaded {
                retry_after_ms: self.cfg.retry_after_ms,
            };
            self.rec(
                &ctx,
                "request.shed",
                vec![
                    ("key", Value::Str(id_hex(key))),
                    (
                        "queue_depth",
                        Value::UInt(self.executor.queue_depth() as u64),
                    ),
                    ("retry_after_ms", Value::UInt(self.cfg.retry_after_ms)),
                ],
            );
            // Publish the shed to followers FIRST: they must never
            // hang on a flight whose leader was never admitted.
            if let Some(f) = &flight {
                self.flights.complete(
                    canon,
                    f,
                    FlightOutput {
                        result: Err(err.clone()),
                        leader_trace_id: ctx.trace_id,
                    },
                );
            }
            self.record(label, RequestSource::Shed, &ctx, 0, t0, 0, Vec::new());
            return Err(err);
        }

        let report = rx.recv().expect("worker always replies");
        let flight_result = match &report.result {
            Ok((plan, aux)) => Ok((plan.clone(), report.search_ns, aux.degraded)),
            Err(e) => Err(e.clone()),
        };
        if let Ok((plan, aux)) = &report.result {
            self.metrics.on_delta(&aux.delta);
            // Degraded plans are partial-budget incumbents; caching
            // them would poison the key for future full-budget
            // requests.
            if self.cfg.cache_enabled && !aux.degraded {
                self.cache.insert(key, canon, plan.clone());
            }
        }
        if let Some(f) = &flight {
            self.flights.complete(
                canon,
                f,
                FlightOutput {
                    result: flight_result,
                    leader_trace_id: ctx.trace_id,
                },
            );
        }

        // Breaker health: only genuine search outcomes count. A
        // deadline expiry says nothing about whether the shard's
        // requests can succeed.
        match &report.result {
            Ok(_) => {
                let closes_before = self.breaker.closes();
                self.breaker.on_success(key);
                if self.breaker.closes() > closes_before {
                    self.rec(
                        &ctx,
                        "breaker.close",
                        vec![("key", Value::Str(id_hex(key)))],
                    );
                }
            }
            Err(PlanError::Search(_)) => {
                let trips_before = self.breaker.trips();
                self.breaker.on_failure(key, self.metrics.now_ns());
                if self.breaker.trips() > trips_before {
                    self.rec(
                        &ctx,
                        "breaker.open",
                        vec![
                            ("key", Value::Str(id_hex(key))),
                            ("open_ms", Value::UInt(self.cfg.breaker_open_ms)),
                        ],
                    );
                }
            }
            Err(_) => {
                // Neither a success nor a search failure (deadline
                // expired before or during the search): no verdict on
                // shard health, but the probe slot — if this request
                // held it — must be released.
                self.breaker.on_abandoned(key);
            }
        }

        match report.result {
            Ok((plan, aux)) => {
                if aux.cancelled {
                    self.rec(
                        &ctx,
                        "search.cancelled",
                        vec![("key", Value::Str(id_hex(key)))],
                    );
                }
                if aux.degraded {
                    self.metrics.on_degraded();
                    self.rec(
                        &ctx,
                        "deadline.degraded",
                        vec![
                            ("key", Value::Str(id_hex(key))),
                            ("budget_ms", Value::UInt(budget_ms)),
                            ("total_evals", Value::UInt(plan.total_evals as u64)),
                        ],
                    );
                }
                self.rec(
                    &ctx,
                    "search.done",
                    vec![
                        ("key", Value::Str(id_hex(key))),
                        ("winner", Value::Str(plan.winner.name().to_string())),
                        ("total_evals", Value::UInt(plan.total_evals as u64)),
                    ],
                );
                // Strategy offsets are relative to the portfolio
                // launch; rebase them onto the metrics clock.
                let strategies = aux
                    .strategies
                    .into_iter()
                    .map(|s| StrategySpan {
                        name: s.name,
                        start_ns: report.started_ns + s.start_ns,
                        dur_ns: s.dur_ns,
                    })
                    .collect();
                let span = RequestSpan {
                    label: label.to_string(),
                    source: RequestSource::Fresh,
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    parent_span_id: ctx.parent_span_id,
                    link_trace_id: 0,
                    start_ns: t0,
                    queued_ns: report.started_ns.saturating_sub(t0),
                    search_ns: report.search_ns,
                    total_ns: self.metrics.now_ns().saturating_sub(t0),
                    strategies,
                };
                self.metrics.record_request(span);
                Ok(PlanReply {
                    plan,
                    source: RequestSource::Fresh,
                    key,
                    trace: ctx,
                    degraded: aux.degraded,
                })
            }
            Err(e) => {
                if matches!(e, PlanError::DeadlineExceeded { .. }) {
                    self.metrics.on_deadline_exceeded();
                    self.rec(
                        &ctx,
                        "deadline.exceeded",
                        vec![
                            ("key", Value::Str(id_hex(key))),
                            ("budget_ms", Value::UInt(budget_ms)),
                            ("stage", Value::Str("search".into())),
                        ],
                    );
                } else {
                    self.rec(
                        &ctx,
                        "search.fail",
                        vec![
                            ("key", Value::Str(id_hex(key))),
                            ("error", Value::Str(e.to_string())),
                        ],
                    );
                }
                self.record(
                    label,
                    RequestSource::Failed,
                    &ctx,
                    0,
                    t0,
                    report.search_ns,
                    Vec::new(),
                );
                Err(e)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        label: &str,
        source: RequestSource,
        ctx: &TraceContext,
        link_trace_id: u64,
        t0: u64,
        search_ns: u64,
        strategies: Vec<StrategySpan>,
    ) {
        let total_ns = self.metrics.now_ns().saturating_sub(t0);
        self.metrics.record_request(RequestSpan {
            label: label.to_string(),
            source,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            link_trace_id,
            start_ns: t0,
            queued_ns: total_ns.saturating_sub(search_ns),
            search_ns,
            total_ns,
            strategies,
        });
    }

    /// Drop every cached plan and memoized model; returns how many
    /// plans were invalidated.
    pub fn invalidate_cache(&self) -> usize {
        let n = self.cache.invalidate_all();
        self.memo.invalidate_all();
        self.metrics.on_cache_invalidations(n as u64);
        if let Some(r) = &self.recorder {
            r.record_kv(
                None,
                "cache.invalidate",
                vec![("entries", Value::UInt(n as u64))],
            );
        }
        n
    }

    /// Snapshot the plan cache to `path` (`mheta-plancache/v1`,
    /// atomic tmp + rename). Returns how many entries were saved.
    pub fn save_snapshot(&self, path: &Path) -> std::io::Result<usize> {
        let n = crate::snapshot::save(&self.cache, path)?;
        if let Some(r) = &self.recorder {
            r.record_kv(
                None,
                "snapshot.save",
                vec![
                    ("entries", Value::UInt(n as u64)),
                    ("path", Value::Str(path.display().to_string())),
                ],
            );
        }
        Ok(n)
    }

    /// Warm-start the plan cache from the snapshot at `path`. Returns
    /// how many entries were restored; any rejection (missing file,
    /// truncation, checksum mismatch, schema mismatch) comes back as a
    /// value — the caller cold-starts, never crashes.
    pub fn load_snapshot(&self, path: &Path) -> Result<usize, crate::snapshot::SnapshotError> {
        let entries = crate::snapshot::load(path)?;
        let n = crate::snapshot::restore(&self.cache, entries);
        if let Some(r) = &self.recorder {
            r.record_kv(
                None,
                "snapshot.load",
                vec![
                    ("entries", Value::UInt(n as u64)),
                    ("path", Value::Str(path.display().to_string())),
                ],
            );
        }
        Ok(n)
    }

    /// The service metrics registry (counters, stage histograms, and
    /// the Perfetto request track).
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The plan cache (counters and explicit invalidation).
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The model memo (counters and occupancy).
    #[must_use]
    pub fn model_memo(&self) -> &ModelMemo {
        &self.memo
    }

    /// The circuit breaker (state inspection and counters).
    #[must_use]
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The always-on flight recorder (`None` only when configured off).
    #[must_use]
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Jobs currently waiting in the executor queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.executor.queue_depth()
    }

    /// The flight-recorder dump document (`mheta-flight/v1`); an empty
    /// zero-capacity dump when the recorder is disabled.
    #[must_use]
    pub fn flight_dump(&self) -> Value {
        match &self.recorder {
            Some(r) => r.dump_value(),
            None => Value::object(vec![
                ("schema", Value::Str("mheta-flight/v1".into())),
                ("capacity", Value::UInt(0)),
                ("written", Value::UInt(0)),
                ("dropped", Value::UInt(0)),
                ("retained", Value::UInt(0)),
                ("events", Value::Array(Vec::new())),
            ]),
        }
    }

    /// The full Prometheus text-format exposition for this planner:
    /// the service registry (request/stage series) plus cache,
    /// executor, breaker, and flight-recorder series. See DESIGN.md
    /// §12 for the naming scheme.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut out = mheta_obs::service_text(&self.metrics);
        let mut p = mheta_obs::PromText::new();
        p.counter(
            "mheta_serve_cache_hits_total",
            "Plan-cache hits.",
            &[],
            self.cache.hits(),
        );
        p.counter(
            "mheta_serve_cache_misses_total",
            "Plan-cache misses.",
            &[],
            self.cache.misses(),
        );
        p.counter(
            "mheta_serve_cache_evictions_total",
            "Plan-cache capacity evictions.",
            &[],
            self.cache.evictions(),
        );
        p.gauge(
            "mheta_serve_cache_entries",
            "Plans currently cached.",
            &[],
            self.cache.len() as f64,
        );
        p.counter(
            "mheta_serve_model_memo_hits_total",
            "Searches that reused a memoized model.",
            &[],
            self.memo.hits(),
        );
        p.counter(
            "mheta_serve_model_memo_misses_total",
            "Searches that built their model.",
            &[],
            self.memo.misses(),
        );
        p.gauge(
            "mheta_serve_model_memo_entries",
            "Models currently memoized.",
            &[],
            self.memo.len() as f64,
        );
        p.counter(
            "mheta_serve_executor_executed_total",
            "Search jobs fully executed.",
            &[],
            self.executor.executed(),
        );
        p.counter(
            "mheta_serve_executor_rejected_total",
            "Search jobs shed at admission.",
            &[],
            self.executor.rejected(),
        );
        p.gauge(
            "mheta_serve_executor_queue_depth",
            "Jobs currently queued.",
            &[],
            self.executor.queue_depth() as f64,
        );
        p.counter(
            "mheta_serve_breaker_trips_total",
            "Circuit-breaker shard trips (closed to open).",
            &[],
            self.breaker.trips(),
        );
        p.counter(
            "mheta_serve_breaker_closes_total",
            "Circuit-breaker shard recoveries (back to closed).",
            &[],
            self.breaker.closes(),
        );
        p.counter(
            "mheta_serve_breaker_fast_fails_total",
            "Requests shed fast by an open breaker shard.",
            &[],
            self.breaker.fast_fails(),
        );
        p.gauge(
            "mheta_serve_breaker_tripped_shards",
            "Breaker shards currently shedding (open window running) or mid-probe.",
            &[],
            self.breaker.tripped_shards(self.metrics.now_ns()) as f64,
        );
        if let Some(r) = &self.recorder {
            p.counter(
                "mheta_serve_flight_written_total",
                "Flight-recorder events written.",
                &[],
                r.written(),
            );
            p.counter(
                "mheta_serve_flight_dropped_total",
                "Flight-recorder events dropped from the ring.",
                &[],
                r.dropped(),
            );
            p.gauge(
                "mheta_serve_flight_retained",
                "Flight-recorder events currently retained.",
                &[],
                r.retained() as f64,
            );
        }
        out.push_str(&p.finish());
        out
    }

    /// Full service statistics: request counters and stage latencies,
    /// cache and model-memo counters, executor admission tallies,
    /// breaker state, and flight-recorder occupancy.
    #[must_use]
    pub fn stats(&self) -> Value {
        let recorder = match &self.recorder {
            Some(r) => Value::object(vec![
                ("capacity", Value::UInt(r.capacity() as u64)),
                ("written", Value::UInt(r.written())),
                ("dropped", Value::UInt(r.dropped())),
                ("retained", Value::UInt(r.retained())),
            ]),
            None => Value::Null,
        };
        Value::object(vec![
            ("service", self.metrics.snapshot()),
            ("cache", self.cache.stats()),
            ("model_memo", self.memo.stats()),
            (
                "executor",
                Value::object(vec![
                    ("executed", Value::UInt(self.executor.executed())),
                    ("rejected", Value::UInt(self.executor.rejected())),
                    (
                        "queue_depth",
                        Value::UInt(self.executor.queue_depth() as u64),
                    ),
                ]),
            ),
            ("breaker", self.breaker.stats(self.metrics.now_ns())),
            ("recorder", recorder),
        ])
    }
}

/// The request's MHETA model: from `memo` (the memo and the request's
/// [`model_canon`]) when it holds one, else built — and memoized only
/// if the build succeeds. No lock is held during the build.
fn model_for(req: &PlanRequest, memo: Option<(&ModelMemo, &str)>) -> Result<Arc<Mheta>, PlanError> {
    let build = || {
        build_model(&req.bench, &req.spec, req.prefetch)
            .map(Arc::new)
            .map_err(|e| PlanError::Search(e.to_string()))
    };
    let Some((memo, canon)) = memo else {
        return build();
    };
    let key = fnv1a64(canon.as_bytes());
    if let Some(model) = memo.get(key, canon) {
        return Ok(model);
    }
    let model = build()?;
    memo.insert(key, canon, Arc::clone(&model));
    Ok(model)
}

/// Get the MHETA model for the request and run the portfolio search,
/// with the request deadline (if any) as a cooperative cancellation
/// criterion.
fn run_search(
    req: &PlanRequest,
    memo: Option<(&ModelMemo, &str)>,
    deadline: Option<Instant>,
    budget_ms: u64,
) -> Result<(Plan, SearchAux), PlanError> {
    let model = model_for(req, memo)?;
    let inputs = anchor_inputs(&model);
    let path = SpectrumPath::new(&inputs);
    let mut cfg = req.search.to_portfolio();
    cfg.deadline = deadline;
    let out = portfolio_search(&path, model.as_ref(), cfg);
    if !out.best.score_ns.is_finite() {
        // The deadline fired before ANY candidate finished evaluating:
        // nothing to degrade to.
        if out.deadline_hit {
            return Err(PlanError::DeadlineExceeded { budget_ms });
        }
        return Err(PlanError::Search(
            "no candidate evaluated to a finite score".into(),
        ));
    }
    let strategies = out
        .runs
        .iter()
        .map(|r| StrategySpan {
            name: r.strategy.name(),
            start_ns: r.started_ns,
            dur_ns: r.elapsed_ns,
        })
        .collect();
    Ok((
        Plan {
            rows: out.best.best.rows().to_vec(),
            predicted_ns: out.best.score_ns,
            winner: out.winner,
            total_evals: out.total_evals,
        },
        SearchAux {
            strategies,
            cancelled: out.cancelled,
            degraded: out.deadline_hit,
            delta: out.delta,
        },
    ))
}
