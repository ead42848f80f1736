//! The untraced run: closed-loop load over the JSON-lines wire.
//!
//! Each connection sends its next request only after reading the reply
//! to the previous one. Request lines are rendered before they are
//! timed, and replies are checked only after the window closes, so the
//! load generator's own work between a reply and the next send stays small; it
//! is reported as `loadgen.gap_us`.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use mheta_obs::json::Value;

use crate::daemon::{Conn, Daemon};
use crate::stream::{Req, Workload};

/// Set-ups per run (spawn, plus priming where the workload primes):
/// at least `MIN`, and more while they took less than `SPEND` in all,
/// up to `MAX`. `setup_s` is their median. A bare spawn takes a few
/// milliseconds and its accept loop polls every 5 ms, so cheap set-ups
/// need many samples for a steady median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 31;
const SETUP_SPEND: Duration = Duration::from_millis(500);

/// Rounds a daemon-per-round workload always measures. A whole round
/// takes 7–11 s on a contended 2-core host, so without a floor the
/// round count (and with it the mix of samples) would flip between
/// runs with the host's load.
const MIN_DAEMON_ROUNDS: usize = 3;

/// One measured request.
pub struct Sample {
    pub daemon: usize,
    pub conn: usize,
    pub round: usize,
    pub line: String,
    pub reply: String,
    pub sent: Instant,
    pub received: Instant,
    /// Load-generator time from the previous reply on this connection
    /// to this send.
    pub gap: Option<Duration>,
}

/// One daemon that served measured requests.
pub struct Segment {
    /// Priming requests and their replies, in order.
    pub primes: Primes,
    pub cpu_ns: u64,
    pub peak_rss_mb: f64,
    pub stats: Value,
    /// From the first send to the last reply.
    pub window: Duration,
}

pub struct WireRun {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    pub segments: Vec<Segment>,
    /// Priming replies from the set-up-only daemons, for the
    /// cross-daemon determinism check.
    pub extra_primes: Primes,
}

/// Requests sent before a window, with their replies.
type Primes = Vec<(Req, String)>;

/// Start a daemon and prime it; the set-up time covers both.
fn set_up(pland: &Path, w: Workload, seed: u64) -> io::Result<(Daemon, f64, Primes)> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(pland)?;
    let mut primes = Vec::new();
    let prime = w.prime(seed);
    if !prime.is_empty() {
        let mut conn = Conn::open(daemon.addr)?;
        let mut buf = String::new();
        for q in prime {
            conn.send(&q.line())?;
            conn.recv(&mut buf)?;
            primes.push((q, buf.clone()));
        }
    }
    Ok((daemon, t0.elapsed().as_secs_f64(), primes))
}

/// Drive one connection through rounds `rounds` until the window is
/// spent. Round `first` always completes; later ones stop at the first
/// request due after `budget`.
#[allow(clippy::too_many_arguments)]
fn drive_conn(
    daemon_ix: usize,
    conn_ix: usize,
    addr: std::net::SocketAddr,
    w: Workload,
    seed: u64,
    rounds: std::ops::Range<usize>,
    start: Instant,
    budget: Duration,
) -> io::Result<Vec<Sample>> {
    let mut conn = Conn::open(addr)?;
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut last_reply: Option<Instant> = None;
    let first = rounds.start;
    for r in rounds {
        let lines: Vec<String> = w
            .conn_round(seed, conn_ix, r)
            .iter()
            .map(Req::line)
            .collect();
        for line in lines {
            if r > first && start.elapsed() >= budget {
                return Ok(out);
            }
            let sent = Instant::now();
            conn.send(&line)?;
            conn.recv(&mut buf)?;
            let received = Instant::now();
            out.push(Sample {
                daemon: daemon_ix,
                conn: conn_ix,
                round: r,
                line,
                reply: buf.clone(),
                sent,
                received,
                gap: last_reply.map(|t| sent - t),
            });
            last_reply = Some(received);
        }
    }
    Ok(out)
}

/// Run workload `w` for about `seconds` of measured window time.
pub fn run(pland: &Path, w: Workload, seed: u64, seconds: f64) -> io::Result<WireRun> {
    let mut run = WireRun {
        setup_s: Vec::new(),
        samples: Vec::new(),
        segments: Vec::new(),
        extra_primes: Vec::new(),
    };
    // The measured daemon's own set-up is one more sample.
    let t0 = Instant::now();
    while run.setup_s.len() + 1 < SETUP_MIN
        || (run.setup_s.len() + 1 < SETUP_MAX && t0.elapsed() < SETUP_SPEND)
    {
        let (daemon, s, primes) = set_up(pland, w, seed)?;
        run.setup_s.push(s);
        run.extra_primes.extend(primes);
        daemon.shutdown()?;
    }
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut round = 0;
    loop {
        let (daemon, s, primes) = set_up(pland, w, seed)?;
        run.setup_s.push(s);
        let daemon_ix = run.segments.len();
        // A daemon per round runs exactly that round; otherwise one
        // daemon runs rounds until the window is spent.
        let rounds = if w.daemon_per_round() {
            round..round + 1
        } else {
            0..usize::MAX
        };
        let remaining = budget.saturating_sub(spent);
        let cpu0 = daemon.cpu_ns()?;
        let start = Instant::now();
        let addr = daemon.addr;
        let mut samples = std::thread::scope(|s| -> io::Result<Vec<Sample>> {
            let others: Vec<_> = (1..w.connections())
                .map(|c| {
                    let rounds = rounds.clone();
                    s.spawn(move || {
                        drive_conn(daemon_ix, c, addr, w, seed, rounds, start, remaining)
                    })
                })
                .collect();
            let mut all = drive_conn(
                daemon_ix,
                0,
                addr,
                w,
                seed,
                rounds.clone(),
                start,
                remaining,
            )?;
            for h in others {
                all.extend(h.join().expect("connection thread panicked")?);
            }
            Ok(all)
        })?;
        let cpu1 = daemon.cpu_ns()?;
        let first = samples.iter().map(|x| x.sent).min().unwrap_or(start);
        let last = samples.iter().map(|x| x.received).max().unwrap_or(start);
        let window = last.saturating_duration_since(first);
        run.segments.push(Segment {
            primes,
            cpu_ns: cpu1.saturating_sub(cpu0),
            peak_rss_mb: daemon.peak_rss_mb()?,
            stats: daemon.stats()?,
            window,
        });
        daemon.shutdown()?;
        samples.sort_by_key(|x| x.sent);
        run.samples.extend(samples);
        spent += window;
        round += 1;
        if !w.daemon_per_round() || (round >= MIN_DAEMON_ROUNDS && spent >= budget) {
            break;
        }
    }
    Ok(run)
}
