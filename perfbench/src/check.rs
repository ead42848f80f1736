//! Correctness checks on the daemon's replies.

use std::collections::HashMap;

use mheta_obs::json::{from_str, Value};
use mheta_serve::{parse_request, WireOp};

/// The plan part of a reply, as the checks compare it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOut {
    pub rows: Vec<usize>,
    pub predicted_ns: f64,
    pub winner: String,
    pub total_evals: u64,
}

impl PlanOut {
    /// Bitwise equality: rows, winner and the bits of `predicted_ns`.
    pub fn same_bits(&self, other: &PlanOut) -> bool {
        self.rows == other.rows
            && self.winner == other.winner
            && self.predicted_ns.to_bits() == other.predicted_ns.to_bits()
    }

    pub fn from_plan(p: &mheta_serve::Plan) -> PlanOut {
        PlanOut {
            rows: p.rows.clone(),
            predicted_ns: p.predicted_ns,
            winner: p.winner.name().to_string(),
            total_evals: p.total_evals as u64,
        }
    }
}

/// A reply that passed every per-reply check.
#[derive(Debug, Clone)]
pub struct GoodReply {
    pub source: String,
    pub key: String,
    pub plan: PlanOut,
}

struct Expect {
    key: String,
    nodes: usize,
    rows: usize,
}

/// Checks replies one at a time and remembers the first plan seen for
/// every key, so that every later reply for that key must match it bit
/// for bit (cache hit == fresh search, across daemons too).
#[derive(Default)]
pub struct Checker {
    expect: HashMap<String, Expect>,
    first_plan: HashMap<String, String>,
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get(name).ok_or_else(|| format!("reply has no `{name}`"))
}

impl Checker {
    fn expect(&mut self, line: &str) -> Result<&Expect, String> {
        if !self.expect.contains_key(line) {
            let op = parse_request(line.trim_end()).map_err(|e| format!("request: {e}"))?;
            let WireOp::Plan(req, _, _) = op else {
                return Err("request is not a plan".into());
            };
            let e = Expect {
                key: format!("{:016x}", req.key()),
                nodes: req.spec.len(),
                rows: req.bench.total_rows(),
            };
            self.expect.insert(line.to_string(), e);
        }
        Ok(&self.expect[line])
    }

    /// Check one reply to the request `line`. `source`, when given, is
    /// the provenance every reply of the workload must carry.
    pub fn check(
        &mut self,
        line: &str,
        reply: &str,
        source: Option<&str>,
    ) -> Result<GoodReply, String> {
        let v = from_str(reply.trim_end()).map_err(|e| format!("reply is not JSON: {e:?}"))?;
        if v.get("ok") != Some(&Value::Bool(true)) {
            return Err(format!("reply not ok: {}", reply.trim_end()));
        }
        let got_source = field(&v, "source")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        if let Some(want) = source {
            if got_source != want {
                return Err(format!("source {got_source:?}, want {want:?}"));
            }
        }
        if !matches!(got_source.as_str(), "fresh" | "cache" | "coalesced") {
            return Err(format!("unknown source {got_source:?}"));
        }
        if v.get("degraded") != Some(&Value::Bool(false)) {
            return Err("reply is degraded".into());
        }
        let key = field(&v, "key")?.as_str().unwrap_or_default().to_string();
        let plan_v = field(&v, "plan")?;
        let rows: Vec<usize> = field(plan_v, "rows")?
            .as_array()
            .ok_or("plan.rows is not an array")?
            .iter()
            .map(|r| r.as_u64().map(|x| x as usize))
            .collect::<Option<_>>()
            .ok_or("plan.rows holds a non-integer")?;
        let plan = PlanOut {
            rows,
            predicted_ns: field(plan_v, "predicted_ns")?
                .as_f64()
                .ok_or("predicted_ns")?,
            winner: field(plan_v, "winner")?
                .as_str()
                .unwrap_or_default()
                .to_string(),
            total_evals: field(plan_v, "total_evals")?
                .as_u64()
                .ok_or("total_evals")?,
        };
        let e = self.expect(line)?;
        if key != e.key {
            return Err(format!("key {key}, want {}", e.key));
        }
        if plan.rows.len() != e.nodes {
            return Err(format!(
                "{} row counts for {} nodes",
                plan.rows.len(),
                e.nodes
            ));
        }
        if plan.rows.iter().sum::<usize>() != e.rows {
            return Err(format!(
                "rows sum to {}, want {}",
                plan.rows.iter().sum::<usize>(),
                e.rows
            ));
        }
        if !(plan.predicted_ns.is_finite() && plan.predicted_ns > 0.0) {
            return Err(format!("predicted_ns {}", plan.predicted_ns));
        }
        if mheta_serve::strategy_by_name(&plan.winner).is_none() {
            return Err(format!("unknown winner {:?}", plan.winner));
        }
        let rendered = plan_v.to_json();
        match self.first_plan.get(&key) {
            Some(first) if *first != rendered => {
                return Err(format!(
                    "plan for key {key} changed: {first} then {rendered}"
                ));
            }
            Some(_) => {}
            None => {
                self.first_plan.insert(key.clone(), rendered);
            }
        }
        Ok(GoodReply {
            source: got_source,
            key,
            plan,
        })
    }
}

/// What the load generator saw one daemon do.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub fresh: u64,
    pub cache: u64,
    pub coalesced: u64,
}

/// The `service.counters` object of a `stats` reply.
pub fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("service")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX)
}

/// Cross-check one daemon's `stats` against what the load generator saw:
/// no sheds, one search per fresh reply (and, when every key was
/// distinct, one per request), and every request accounted for.
pub fn check_stats(stats: &Value, t: Tally, distinct_keys: Option<u64>) -> Vec<String> {
    let mut errs = Vec::new();
    let mut want = |name: &str, want: u64| {
        let got = counter(stats, name);
        if got != want {
            errs.push(format!("stats {name} = {got}, load generator saw {want}"));
        }
    };
    want("shed", 0);
    want("searches", t.fresh);
    want("cache_hits", t.cache);
    want("coalesced", t.coalesced);
    want("requests", t.sent);
    if let Some(d) = distinct_keys {
        want("searches", d);
    }
    if t.fresh + t.cache + t.coalesced != t.sent {
        errs.push(format!(
            "fresh {} + cache {} + coalesced {} != sent {}",
            t.fresh, t.cache, t.coalesced, t.sent
        ));
    }
    errs
}
