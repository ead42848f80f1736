//! Request streams: the four workloads, generated from the workload
//! seed and nothing else.
//!
//! A stream is a sequence of *rounds*. Every round of a workload holds
//! the same population of request shapes; the seed only picks the order
//! and the search seeds. That keeps runs on different seeds comparable
//! (same work, different order) while the daemon still sees fresh keys.

/// SplitMix64: a tiny, fast, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for one labelled sub-stream of `seed`.
    pub fn derive(seed: u64, label: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let _ = r.next_u64();
        r.0 ^= index.wrapping_mul(0xd1b5_4a32_d192_ed03);
        let _ = r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A search seed that survives any JSON number parser (< 2^53).
    pub fn search_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

const APPS: [&str; 5] = ["jacobi", "cg", "rna", "lanczos", "multigrid"];
const SIZES: [&str; 2] = ["small", "default"];
const ARCHS: [&str; 11] = [
    "DC", "IO", "HY1", "HY2", "HOM2", "HOM3", "HOM4", "HOM6", "HOM8", "HOM12", "HOM16",
];
/// The `replan_deep` / `warm_hits` model pool: four apps at paper size
/// on the four Table 1 clusters.
const DEEP_APPS: [&str; 4] = ["jacobi", "rna", "lanczos", "multigrid"];
const DEEP_ARCHS: [&str; 4] = ["DC", "IO", "HY1", "HY2"];
const DEEP_BUDGETS: [u64; 2] = [256, 512];
/// Budget used to prime the `warm_hits` working set.
const WARM_BUDGET: u64 = 256;
/// Search seeds per combination in the `mixed_zipf` key space.
const ZIPF_SLOTS: usize = 4;
/// Requests per `mixed_zipf` round.
const ZIPF_ROUND: usize = 128;
/// Zipf exponent of `mixed_zipf`.
const ZIPF_S: f64 = 1.0;
/// Fixed seed of the key → popularity-rank map, so the hot keys are
/// the same shapes on every run.
const ZIPF_RANK_SEED: u64 = 0x5eed_2a9f;

/// One planning request as the load generator sends it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    pub app: &'static str,
    pub size: &'static str,
    pub arch: &'static str,
    pub prefetch: bool,
    /// Per-strategy budget; `None` sends no budget (the daemon default).
    pub evals: Option<u64>,
    pub seed: u64,
}

impl Req {
    /// The request's shape: everything but the search seed.
    #[cfg(test)]
    pub fn shape(&self) -> (&'static str, &'static str, &'static str, bool, Option<u64>) {
        (self.app, self.size, self.arch, self.prefetch, self.evals)
    }

    /// The JSON line sent over the wire (with its newline).
    pub fn line(&self) -> String {
        let evals = match self.evals {
            Some(e) => format!("\"evals\":{e},"),
            None => String::new(),
        };
        format!(
            "{{\"op\":\"plan\",\"app\":{{\"name\":\"{}\",\"size\":\"{}\"}},\"arch\":\"{}\",\
             \"prefetch\":{},\"search\":{{{evals}\"seed\":{}}}}}\n",
            self.app, self.size, self.arch, self.prefetch, self.seed
        )
    }
}

/// The 132 (app, size, arch, prefetch) wire combinations: 5 apps × 2
/// sizes × 11 clusters, plus the prefetching variant for Jacobi.
pub fn combinations() -> Vec<(&'static str, &'static str, &'static str, bool)> {
    let mut out = Vec::new();
    for app in APPS {
        for size in SIZES {
            for arch in ARCHS {
                out.push((app, size, arch, false));
                if app == "jacobi" {
                    out.push((app, size, arch, true));
                }
            }
        }
    }
    out
}

fn deep_pool() -> Vec<(&'static str, &'static str)> {
    DEEP_APPS
        .iter()
        .flat_map(|&a| DEEP_ARCHS.iter().map(move |&h| (a, h)))
        .collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdUnique,
    ReplanDeep,
    WarmHits,
    MixedZipf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdUnique,
        Workload::ReplanDeep,
        Workload::WarmHits,
        Workload::MixedZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdUnique => "cold_unique",
            Workload::ReplanDeep => "replan_deep",
            Workload::WarmHits => "warm_hits",
            Workload::MixedZipf => "mixed_zipf",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop connections the load generator holds.
    pub fn connections(self) -> usize {
        match self {
            Workload::ColdUnique | Workload::ReplanDeep => 1,
            Workload::WarmHits | Workload::MixedZipf => 2,
        }
    }

    /// Whether every round runs on a daemon of its own (so that no
    /// combination repeats within one daemon's lifetime).
    pub fn daemon_per_round(self) -> bool {
        self == Workload::ColdUnique
    }

    /// The reply `source` every measured request must carry, if fixed.
    pub fn expected_source(self) -> Option<&'static str> {
        match self {
            Workload::ColdUnique | Workload::ReplanDeep => Some("fresh"),
            Workload::WarmHits => Some("cache"),
            Workload::MixedZipf => None,
        }
    }

    /// Requests sent to each daemon before its measured window.
    pub fn prime(self, seed: u64) -> Vec<Req> {
        if self != Workload::WarmHits {
            return Vec::new();
        }
        let mut rng = Rng::derive(seed, 0x7072_696d, 0);
        deep_pool()
            .into_iter()
            .map(|(app, arch)| Req {
                app,
                size: "default",
                arch,
                prefetch: false,
                evals: Some(WARM_BUDGET),
                seed: rng.search_seed(),
            })
            .collect()
    }

    /// Round `r` of the stream, before it is dealt to connections.
    pub fn round(self, seed: u64, r: usize) -> Vec<Req> {
        let mut rng = Rng::derive(seed, 0x726f_756e, r as u64);
        let mut reqs = match self {
            Workload::ColdUnique => combinations()
                .into_iter()
                .map(|(app, size, arch, prefetch)| Req {
                    app,
                    size,
                    arch,
                    prefetch,
                    evals: None,
                    seed: rng.search_seed(),
                })
                .collect::<Vec<_>>(),
            Workload::ReplanDeep => deep_pool()
                .into_iter()
                .flat_map(|(app, arch)| DEEP_BUDGETS.iter().map(move |&b| (app, arch, b)))
                .map(|(app, arch, budget)| Req {
                    app,
                    size: "default",
                    arch,
                    prefetch: false,
                    evals: Some(budget),
                    seed: rng.search_seed(),
                })
                .collect(),
            Workload::WarmHits => self.prime(seed),
            Workload::MixedZipf => {
                let keys = zipf_keys(seed);
                zipf_round(keys.len(), ZIPF_S, ZIPF_ROUND, r)
                    .into_iter()
                    .map(|rank| keys[rank].clone())
                    .collect()
            }
        };
        rng.shuffle(&mut reqs);
        reqs
    }

    /// Round `r` as connection `conn` sees it: the round is dealt to
    /// the connections in turn.
    pub fn conn_round(self, seed: u64, conn: usize, r: usize) -> Vec<Req> {
        let n = self.connections();
        self.round(seed, r)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % n == conn)
            .map(|(_, q)| q)
            .collect()
    }
}

/// The `mixed_zipf` key space in popularity order: index 0 is the
/// hottest key. The 132 combinations × 4 search seeds (seeds drawn from
/// the workload seed) are ranked by a fixed permutation.
pub fn zipf_keys(seed: u64) -> Vec<Req> {
    let mut rng = Rng::derive(seed, 0x7a69_7066, 0);
    let slot_seeds: Vec<u64> = (0..ZIPF_SLOTS).map(|_| rng.search_seed()).collect();
    let mut keys: Vec<Req> = combinations()
        .into_iter()
        .flat_map(|c| slot_seeds.iter().map(move |&s| (c, s)))
        .map(|((app, size, arch, prefetch), seed)| Req {
            app,
            size,
            arch,
            prefetch,
            evals: None,
            seed,
        })
        .collect();
    Rng::new(ZIPF_RANK_SEED).shuffle(&mut keys);
    keys
}

/// Stratified Zipf sampler: `len` draws of ranks in `[0, n)` with
/// P(rank k) ∝ 1/(k+1)^s. Draw `i` inverts the CDF at `(i + u)/len`,
/// where the offset `u` moves along the golden-ratio sequence with the
/// round index. Each round thus holds a population fixed by `(n, s,
/// len, round)`: the head keys appear in proportion to their mass in
/// every round, and successive rounds reach different tail keys.
pub fn zipf_round(n: usize, s: f64, len: usize, round: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    let golden = 0.618_033_988_749_894_9;
    let u = ((round + 1) as f64 * golden).fract();
    (0..len)
        .map(|i| {
            let target = (i as f64 + u) / len as f64 * total;
            cdf.partition_point(|&c| c < target).min(n - 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn there_are_132_distinct_combinations() {
        let c = combinations();
        assert_eq!(c.len(), 132);
        assert_eq!(c.iter().collect::<HashSet<_>>().len(), 132);
        assert_eq!(c.iter().filter(|x| x.3).count(), 22);
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        for w in Workload::ALL {
            for r in 0..3 {
                assert_eq!(w.round(7, r), w.round(7, r), "{}", w.name());
            }
            assert_eq!(w.prime(7), w.prime(7));
        }
    }

    #[test]
    fn other_seed_gives_the_same_population_in_another_order() {
        for w in Workload::ALL {
            let a = w.round(1, 0);
            let b = w.round(2, 0);
            let shapes = |v: &[Req]| {
                let mut s: Vec<_> = v.iter().map(Req::shape).collect();
                s.sort();
                s
            };
            assert_eq!(shapes(&a), shapes(&b), "{}", w.name());
            let order_a: Vec<_> = a.iter().map(Req::shape).collect();
            let order_b: Vec<_> = b.iter().map(Req::shape).collect();
            assert_ne!(order_a, order_b, "{}", w.name());
            assert_ne!(
                a.iter().map(|q| q.seed).collect::<Vec<_>>(),
                b.iter().map(|q| q.seed).collect::<Vec<_>>(),
                "{}: search seeds come from the workload seed",
                w.name()
            );
        }
    }

    #[test]
    fn cold_and_deep_rounds_never_repeat_a_key() {
        for w in [Workload::ColdUnique, Workload::ReplanDeep] {
            let round = w.round(3, 0);
            assert_eq!(round.iter().collect::<HashSet<_>>().len(), round.len());
        }
        assert_eq!(Workload::ColdUnique.round(3, 0).len(), 132);
        assert_eq!(Workload::ReplanDeep.round(3, 0).len(), 32);
    }

    #[test]
    fn connections_split_a_round_without_loss() {
        for w in Workload::ALL {
            let mut dealt: Vec<Req> = (0..w.connections())
                .flat_map(|c| w.conn_round(5, c, 1))
                .collect();
            let mut round = w.round(5, 1);
            let key = |q: &Req| (q.shape(), q.seed);
            dealt.sort_by_key(key);
            round.sort_by_key(key);
            assert_eq!(dealt, round);
        }
    }

    #[test]
    fn warm_rounds_only_touch_the_primed_keys() {
        let primed: HashSet<Req> = Workload::WarmHits.prime(9).into_iter().collect();
        assert_eq!(primed.len(), 16);
        for r in 0..4 {
            assert!(Workload::WarmHits
                .round(9, r)
                .iter()
                .all(|q| primed.contains(q)));
        }
    }

    #[test]
    fn zipf_sampler_follows_one_over_rank() {
        let n = 528;
        let rounds = 400;
        let mut counts = vec![0usize; n];
        for r in 0..rounds {
            for k in zipf_round(n, 1.0, 128, r) {
                counts[k] += 1;
            }
        }
        let draws = (rounds * 128) as f64;
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        // The head is exact up to stratification rounding.
        for (k, &count) in counts.iter().enumerate().take(8) {
            let expect = draws / ((k + 1) as f64 * h);
            let got = count as f64;
            assert!(
                (got - expect).abs() / expect < 0.02,
                "rank {k}: {got} vs {expect}"
            );
        }
        // Total variation distance from the Zipf law stays small.
        let tv: f64 = (0..n)
            .map(|k| (counts[k] as f64 / draws - 1.0 / ((k + 1) as f64 * h)).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.02, "total variation {tv}");
        // Popularity falls with rank.
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[63]);
    }

    #[test]
    fn zipf_rounds_reach_more_keys_than_the_plan_cache_holds() {
        // The default cache holds 256 plans in 8 LRU shards of 32, so
        // shards start evicting well before 256 distinct keys.
        let mut seen = HashSet::new();
        for r in 0..8 {
            seen.extend(zipf_round(528, 1.0, 128, r));
        }
        assert!(seen.len() > 256, "{} distinct keys", seen.len());
        let keys = zipf_keys(1);
        assert_eq!(keys.len(), 528);
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 528);
    }

    #[test]
    fn zipf_round_population_is_fixed_per_round() {
        let pop = |seed| {
            let mut m: HashMap<_, usize> = HashMap::new();
            for q in Workload::MixedZipf.round(seed, 2) {
                *m.entry(q.shape()).or_default() += 1;
            }
            let mut v: Vec<_> = m.into_iter().collect();
            v.sort();
            v
        };
        assert_eq!(pop(11), pop(12));
    }

    #[test]
    fn request_lines_are_single_json_lines() {
        let q = Workload::ReplanDeep.round(1, 0)[0].clone();
        let line = q.line();
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        let v = mheta_obs::json::from_str(line.trim_end()).expect("valid JSON");
        assert_eq!(v.get("op").and_then(|o| o.as_str()), Some("plan"));
        let op = mheta_serve::parse_request(line.trim_end()).expect("the daemon parses it");
        assert!(matches!(op, mheta_serve::WireOp::Plan(..)));
    }
}
