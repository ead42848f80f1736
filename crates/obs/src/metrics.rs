//! Per-rank virtual-time metrics.
//!
//! A [`Metrics`] registry digests the raw [`RankTrace`]s of one run
//! into the decomposition the MHETA model reasons about: where each
//! rank's virtual time went (compute, disk, communication, blocked
//! waits, injected faults, idle gaps), event/byte counters, and
//! latency histograms. The per-rank breakdown is an **exact
//! partition**: the six duration buckets sum to the rank's finish time
//! to the nanosecond, so utilization fractions always total 1.
//!
//! Prefetch overlap — the time a prefetch's disk transfer ran
//! concurrently with other work — is reported separately
//! ([`RankBreakdown::prefetch_overlap_ns`]): it is an *attribute* of
//! time already accounted to other buckets, not a seventh bucket.

use std::collections::BTreeMap;

use crate::json::Serialize;
use mheta_dist::LatencyHistogram;
use mheta_mpi::Transition;
use mheta_sim::{EventKind, RankTrace, RecoverySpan};

/// Where one rank's virtual time went, in integer nanoseconds.
///
/// `compute + disk + comm + blocked + fault + idle == finish`, exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RankBreakdown {
    /// Rank index.
    pub rank: usize,
    /// The rank's virtual clock when it finished.
    pub finish_ns: u64,
    /// Local computation.
    pub compute_ns: u64,
    /// Synchronous disk reads/writes plus prefetch issue overhead.
    pub disk_ns: u64,
    /// Send/receive endpoint overheads (excluding time blocked waiting
    /// for a message to arrive).
    pub comm_ns: u64,
    /// Time stalled in receives and prefetch waits.
    pub blocked_ns: u64,
    /// Time consumed by injected faults (failed disk attempts, …).
    pub fault_ns: u64,
    /// Gaps between traced events — e.g. retry backoff charged by the
    /// I/O retry policy, which advances the clock without an event.
    pub idle_ns: u64,
    /// Of each prefetch's disk-transfer latency, the portion that ran
    /// concurrently with other work instead of stalling the wait.
    /// Informational: this time is already accounted to the buckets
    /// above on this rank's timeline.
    pub prefetch_overlap_ns: u64,
    /// Peak memory-in-use observed on this rank (the largest
    /// high-water mark among `MemLevel` gauge samples; 0 when memory
    /// tracking produced no samples). Informational: a level, not a
    /// duration, so it is not part of the time partition.
    pub peak_mem_bytes: u64,
}

impl RankBreakdown {
    /// The six exclusive buckets in a fixed order, with labels.
    #[must_use]
    pub fn buckets(&self) -> [(&'static str, u64); 6] {
        [
            ("compute", self.compute_ns),
            ("disk", self.disk_ns),
            ("comm", self.comm_ns),
            ("blocked", self.blocked_ns),
            ("fault", self.fault_ns),
            ("idle", self.idle_ns),
        ]
    }

    /// Utilization fractions of `finish_ns` per bucket, same order as
    /// [`RankBreakdown::buckets`]. Sums to 1 (within float rounding)
    /// because the buckets partition the timeline; all zeros for an
    /// empty (zero-length) timeline.
    #[must_use]
    pub fn fractions(&self) -> [(&'static str, f64); 6] {
        let total = self.finish_ns as f64;
        self.buckets().map(|(k, v)| {
            let f = if total > 0.0 { v as f64 / total } else { 0.0 };
            (k, f)
        })
    }

    /// The bucket holding the most time.
    #[must_use]
    pub fn dominant(&self) -> (&'static str, u64) {
        // max_by_key takes the *last* maximum; prefer the first so ties
        // resolve toward compute, the most meaningful dominant kind.
        let mut best = ("compute", 0);
        for (k, v) in self.buckets() {
            if v > best.1 {
                best = (k, v);
            }
        }
        best
    }
}

/// The metrics registry for one run: per-rank breakdowns, named
/// counters, and named latency histograms. Keys are sorted (`BTreeMap`)
/// so the JSON rendering is deterministic.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Metrics {
    /// One breakdown per rank, in rank order.
    pub breakdowns: Vec<RankBreakdown>,
    /// Monotonic counters: event counts, byte totals, fault tallies.
    pub counters: BTreeMap<String, u64>,
    /// Latency histograms: operation durations and stall times.
    pub histograms: BTreeMap<String, LatencyHistogram>,
}

impl Metrics {
    /// Digest the per-rank traces of one run.
    #[must_use]
    pub fn from_traces(traces: &[RankTrace]) -> Metrics {
        let mut m = Metrics::default();
        for trace in traces {
            m.breakdowns
                .push(digest_rank(trace, &mut m.counters, &mut m.histograms));
        }
        m
    }

    /// Bump a counter by `delta`, creating it at zero if absent.
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Record a sample into a named histogram, creating it if absent.
    pub fn observe(&mut self, name: &str, ns: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    /// Fold a fault-tolerant run's recovery record into the registry:
    /// bumps `events.crash` by the number of dead ranks, accumulates a
    /// `recovery.<kind>_ns` counter per recovery-span kind (checkpoint /
    /// rollback / redistribution / reprediction) across all ranks, and
    /// records each span's length into a `recovery.<kind>` histogram.
    pub fn record_recovery(&mut self, dead: &[usize], spans: &[Vec<RecoverySpan>]) {
        self.incr("events.crash", dead.len() as u64);
        for rank_spans in spans {
            for sp in rank_spans {
                self.incr(&format!("recovery.{}_ns", sp.kind.name()), sp.len_ns());
                self.observe(&format!("recovery.{}", sp.kind.name()), sp.len_ns());
            }
        }
    }

    /// Fold an adaptive run's failure-detector record into the
    /// registry: bumps a `detector.to_<state>` counter per health-state
    /// transition (e.g. `detector.to_suspected`, `detector.to_degraded`)
    /// plus a `detector.transitions` total, and records every
    /// degradation's detection latency — fault onset to confirmed
    /// `Degraded` — into the `detector.detection_latency` histogram.
    ///
    /// Detector decisions are deterministic replicas across ranks, so
    /// pass ONE rank's view (e.g. the first survivor's
    /// `AdaptiveOutcome`), not every rank's.
    pub fn record_detector(&mut self, transitions: &[Transition], detection_latencies_ns: &[u64]) {
        self.incr("detector.transitions", transitions.len() as u64);
        for t in transitions {
            self.incr(&format!("detector.to_{}", t.to.name()), 1);
        }
        for &ns in detection_latencies_ns {
            self.observe("detector.detection_latency", ns);
        }
    }

    /// Fold one committed mid-run rebalance into the registry: bumps
    /// `rebalance.events`, and accumulates the rows transferred and the
    /// search evaluations spent into `rebalance.rows_moved` /
    /// `rebalance.evals`. Like [`Metrics::record_detector`], call this
    /// once per event from one rank's view.
    pub fn record_rebalance(&mut self, rows_moved: u64, evals: u64) {
        self.incr("rebalance.events", 1);
        self.incr("rebalance.rows_moved", rows_moved);
        self.incr("rebalance.evals", evals);
    }

    /// The run's makespan: the latest rank finish, ns.
    #[must_use]
    pub fn makespan_ns(&self) -> u64 {
        self.breakdowns
            .iter()
            .map(|b| b.finish_ns)
            .max()
            .unwrap_or(0)
    }

    /// Render the whole registry as pretty JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        crate::json::to_string_pretty(self)
    }

    /// A compact human-readable table of per-rank utilization.
    #[must_use]
    pub fn utilization_table(&self) -> String {
        let mut out = String::from(
            "rank     finish_ms  compute   disk     comm  blocked    fault     idle\n",
        );
        for b in &self.breakdowns {
            out.push_str(&format!("{:>4} {:>13.3}", b.rank, b.finish_ns as f64 / 1e6));
            for (_, f) in b.fractions() {
                out.push_str(&format!("  {:>6.1}%", 100.0 * f));
            }
            out.push('\n');
        }
        out
    }
}

/// Partition one rank's timeline and feed the shared counters and
/// histograms.
fn digest_rank(
    trace: &RankTrace,
    counters: &mut BTreeMap<String, u64>,
    histograms: &mut BTreeMap<String, LatencyHistogram>,
) -> RankBreakdown {
    let mut b = RankBreakdown {
        rank: trace.rank,
        finish_ns: trace.finish.as_nanos(),
        ..RankBreakdown::default()
    };
    let mut incr = |name: &str, delta: u64| {
        *counters.entry(name.to_string()).or_insert(0) += delta;
    };
    let mut covered = 0u64;
    // Pending prefetch issues per var (FIFO), for overlap attribution:
    // (completion time on this rank's clock, transfer latency).
    let mut pending: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for ev in &trace.events {
        let len = (ev.end - ev.start).as_nanos();
        covered += len;
        match &ev.kind {
            EventKind::Compute { .. } => {
                b.compute_ns += len;
                incr("events.compute", 1);
                histograms
                    .entry("latency.compute".into())
                    .or_default()
                    .record(len);
            }
            EventKind::DiskRead { bytes, .. } => {
                b.disk_ns += len;
                incr("events.disk_read", 1);
                incr("bytes.disk_read", *bytes);
                histograms
                    .entry("latency.disk_read".into())
                    .or_default()
                    .record(len);
            }
            EventKind::DiskWrite { bytes, .. } => {
                b.disk_ns += len;
                incr("events.disk_write", 1);
                incr("bytes.disk_write", *bytes);
                histograms
                    .entry("latency.disk_write".into())
                    .or_default()
                    .record(len);
            }
            EventKind::PrefetchIssue {
                var,
                bytes,
                latency_ns,
            } => {
                b.disk_ns += len;
                incr("events.prefetch_issue", 1);
                incr("bytes.prefetch", *bytes);
                pending
                    .entry(*var)
                    .or_default()
                    .push((ev.end.as_nanos() + latency_ns, *latency_ns));
            }
            EventKind::PrefetchWait { var, blocked_ns } => {
                b.blocked_ns += blocked_ns;
                b.disk_ns += len.saturating_sub(*blocked_ns);
                incr("events.prefetch_wait", 1);
                histograms
                    .entry("stall.prefetch_wait".into())
                    .or_default()
                    .record(*blocked_ns);
                // The matching issue is the oldest pending one for this
                // var; whatever part of its transfer latency did not
                // stall this wait was overlapped with useful work.
                if let Some(queue) = pending.get_mut(var) {
                    if !queue.is_empty() {
                        let (_completion, latency) = queue.remove(0);
                        b.prefetch_overlap_ns += latency.saturating_sub(*blocked_ns);
                    }
                }
            }
            EventKind::Send { bytes, .. } => {
                b.comm_ns += len;
                incr("events.send", 1);
                incr("bytes.sent", *bytes);
                histograms
                    .entry("latency.send".into())
                    .or_default()
                    .record(len);
            }
            EventKind::Recv {
                bytes, blocked_ns, ..
            } => {
                b.blocked_ns += blocked_ns;
                b.comm_ns += len.saturating_sub(*blocked_ns);
                incr("events.recv", 1);
                incr("bytes.received", *bytes);
                histograms
                    .entry("stall.recv".into())
                    .or_default()
                    .record(*blocked_ns);
            }
            EventKind::Fault { .. } => {
                b.fault_ns += len;
                incr("events.fault", 1);
            }
            EventKind::MemLevel { high_water, .. } => {
                // Zero-length gauge sample: contributes no time, only
                // the memory level.
                b.peak_mem_bytes = b.peak_mem_bytes.max(*high_water);
                incr("events.mem_level", 1);
            }
        }
    }
    b.idle_ns = b.finish_ns.saturating_sub(covered);
    b
}

/// Serialize any `Serialize` value to a compact JSON string —
/// convenience re-export so callers don't need `serde` in scope.
#[must_use]
pub fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    crate::json::to_string(value)
}

/// Serialize any `Serialize` value to an indented JSON string.
#[must_use]
pub fn to_json_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    crate::json::to_string_pretty(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheta_sim::{Event, SimTime};

    fn ev(s: u64, e: u64, kind: EventKind) -> Event {
        Event {
            start: SimTime(s),
            end: SimTime(e),
            kind,
        }
    }

    fn trace(events: Vec<Event>, finish: u64) -> RankTrace {
        RankTrace {
            rank: 0,
            events,
            finish: SimTime(finish),
        }
    }

    #[test]
    fn breakdown_partitions_timeline_exactly() {
        let t = trace(
            vec![
                ev(0, 10, EventKind::Compute { work_units: 1.0 }),
                ev(10, 14, EventKind::DiskRead { var: 1, bytes: 32 }),
                // Gap [14, 16): retry backoff — becomes idle.
                ev(
                    16,
                    22,
                    EventKind::Recv {
                        from: 1,
                        tag: 0,
                        bytes: 8,
                        blocked_ns: 4,
                    },
                ),
                ev(
                    22,
                    23,
                    EventKind::Send {
                        to: 1,
                        tag: 1,
                        bytes: 8,
                    },
                ),
            ],
            25,
        );
        let m = Metrics::from_traces(std::slice::from_ref(&t));
        let b = &m.breakdowns[0];
        assert_eq!(b.compute_ns, 10);
        assert_eq!(b.disk_ns, 4);
        assert_eq!(b.comm_ns, 2 + 1); // recv overhead + send
        assert_eq!(b.blocked_ns, 4);
        assert_eq!(b.idle_ns, 2 + 2); // backoff gap + tail after send
        assert_eq!(
            b.compute_ns + b.disk_ns + b.comm_ns + b.blocked_ns + b.fault_ns + b.idle_ns,
            b.finish_ns,
            "buckets must partition the timeline"
        );
        let frac_sum: f64 = b.fractions().iter().map(|(_, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_overlap_is_latency_minus_stall() {
        let t = trace(
            vec![
                ev(
                    0,
                    5,
                    EventKind::PrefetchIssue {
                        var: 3,
                        bytes: 64,
                        latency_ns: 100,
                    },
                ),
                ev(5, 65, EventKind::Compute { work_units: 1.0 }),
                // Completion at 105: blocked 40 of the 100 ns latency.
                ev(
                    65,
                    105,
                    EventKind::PrefetchWait {
                        var: 3,
                        blocked_ns: 40,
                    },
                ),
            ],
            105,
        );
        let m = Metrics::from_traces(std::slice::from_ref(&t));
        let b = &m.breakdowns[0];
        assert_eq!(b.prefetch_overlap_ns, 60);
        assert_eq!(b.blocked_ns, 40);
        assert_eq!(b.disk_ns, 5);
        assert_eq!(b.compute_ns, 60);
        assert_eq!(b.idle_ns, 0);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let t = trace(
            vec![
                ev(0, 4, EventKind::DiskRead { var: 1, bytes: 10 }),
                ev(4, 9, EventKind::DiskRead { var: 1, bytes: 20 }),
            ],
            9,
        );
        let m = Metrics::from_traces(std::slice::from_ref(&t));
        assert_eq!(m.counters["events.disk_read"], 2);
        assert_eq!(m.counters["bytes.disk_read"], 30);
        let h = &m.histograms["latency.disk_read"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 9);
        assert_eq!(h.min_ns, 4);
        assert_eq!(h.max_ns, 5);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.quantile_ns(0.0), 0);
        assert!(h.quantile_ns(0.5) >= 2);
        assert!(h.quantile_ns(1.0) >= 1000);
        assert!(h.mean_ns() > 0.0);
    }

    #[test]
    fn dominant_bucket_reported() {
        let t = trace(vec![ev(0, 90, EventKind::Compute { work_units: 1.0 })], 100);
        let m = Metrics::from_traces(std::slice::from_ref(&t));
        assert_eq!(m.breakdowns[0].dominant(), ("compute", 90));
        assert_eq!(m.makespan_ns(), 100);
    }

    #[test]
    fn recovery_record_feeds_counters_and_histograms() {
        use mheta_sim::RecoveryKind;
        let mut m = Metrics::default();
        m.record_recovery(
            &[2],
            &[
                vec![
                    RecoverySpan {
                        start_ns: 0,
                        end_ns: 100,
                        kind: RecoveryKind::Checkpoint,
                    },
                    RecoverySpan {
                        start_ns: 200,
                        end_ns: 250,
                        kind: RecoveryKind::Rollback,
                    },
                ],
                vec![RecoverySpan {
                    start_ns: 0,
                    end_ns: 40,
                    kind: RecoveryKind::Checkpoint,
                }],
            ],
        );
        assert_eq!(m.counters["events.crash"], 1);
        assert_eq!(m.counters["recovery.checkpoint_ns"], 140);
        assert_eq!(m.counters["recovery.rollback_ns"], 50);
        assert_eq!(m.histograms["recovery.checkpoint"].count, 2);
        assert_eq!(m.histograms["recovery.rollback"].sum_ns, 50);
    }

    #[test]
    fn detector_and_rebalance_records_feed_registry() {
        use mheta_mpi::{HealthState, Transition};
        let mut m = Metrics::default();
        m.record_detector(
            &[
                Transition {
                    member: 1,
                    from: HealthState::Healthy,
                    to: HealthState::Suspected,
                    at_iteration: 5,
                    at_ns: 1000,
                },
                Transition {
                    member: 1,
                    from: HealthState::Suspected,
                    to: HealthState::Degraded,
                    at_iteration: 7,
                    at_ns: 2400,
                },
            ],
            &[1400],
        );
        m.record_rebalance(12, 33);
        m.record_rebalance(4, 10);
        assert_eq!(m.counters["detector.transitions"], 2);
        assert_eq!(m.counters["detector.to_suspected"], 1);
        assert_eq!(m.counters["detector.to_degraded"], 1);
        assert_eq!(m.histograms["detector.detection_latency"].count, 1);
        assert_eq!(m.histograms["detector.detection_latency"].sum_ns, 1400);
        assert_eq!(m.counters["rebalance.events"], 2);
        assert_eq!(m.counters["rebalance.rows_moved"], 16);
        assert_eq!(m.counters["rebalance.evals"], 43);
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let t = trace(vec![ev(0, 5, EventKind::Compute { work_units: 2.0 })], 5);
        let a = Metrics::from_traces(std::slice::from_ref(&t)).to_json_pretty();
        let b = Metrics::from_traces(std::slice::from_ref(&t)).to_json_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"compute_ns\": 5"));
    }
}
