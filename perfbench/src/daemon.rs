//! The daemon under test and the load generator's connections to it.
//!
//! `pland` is started with its default flags on `127.0.0.1:0`; the
//! port is read from its `listening on` line. Every daemon is shut
//! down with the `shutdown` op and waited for; a daemon still running
//! when its handle drops (an error path) is killed and reaped.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mheta_obs::json::{from_str, Value};

/// How long any single reply may take before the load generator gives
/// up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a shut-down daemon may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// One client connection: `TCP_NODELAY`, one `write_all` per request
/// line, buffered line reads.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Write one request line (which must end in `\n`).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())
    }

    /// Read one reply line into `buf` (cleared first).
    pub fn recv(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        Ok(())
    }

    /// One request/reply round trip, parsed.
    pub fn call(&mut self, line: &str) -> io::Result<Value> {
        self.send(line)?;
        let mut buf = String::new();
        self.recv(&mut buf)?;
        from_str(buf.trim_end()).map_err(|e| io::Error::other(format!("bad reply {buf:?}: {e:?}")))
    }
}

/// A running `pland`.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `pland` and wait for its first `ping` reply. The daemon is
    /// killed if the load generator dies first, so no run leaves one behind.
    pub fn spawn(pland: &Path) -> io::Result<Daemon> {
        let mut cmd = Command::new(pland);
        cmd.args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the hook runs in the forked child before `exec` and
        // makes one async-signal-safe system call, touching no memory
        // of the parent.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        daemon.addr = line
            .trim()
            .strip_prefix("pland: listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::other(format!("unexpected first line from pland: {line:?}"))
            })?;
        let pong = Conn::open(daemon.addr)?.call("{\"op\":\"ping\"}\n")?;
        if pong.get("pong") != Some(&Value::Bool(true)) {
            return Err(io::Error::other(format!(
                "bad ping reply {}",
                pong.to_json()
            )));
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// The daemon's CPU time so far (all threads, user + system), ns.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        process_cpu_ns(self.pid())
    }

    /// The daemon's peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// The `stats` op's `stats` object.
    pub fn stats(&self) -> io::Result<Value> {
        let reply = Conn::open(self.addr)?.call("{\"op\":\"stats\"}\n")?;
        reply
            .get("stats")
            .cloned()
            .ok_or_else(|| io::Error::other(format!("bad stats reply {}", reply.to_json())))
    }

    /// Send `shutdown` and wait for the process to exit cleanly.
    pub fn shutdown(mut self) -> io::Result<()> {
        Conn::open(self.addr)?.call("{\"op\":\"shutdown\"}\n")?;
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let mut child = self.child.take().expect("daemon is running");
        let t0 = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("pland exited with {status}")))
                };
            }
            if t0.elapsed() > EXIT_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("pland did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of process `pid`, summed over all its threads (including
/// threads that have exited), at nanosecond resolution. `/proc` only
/// reports clock ticks, too coarse for a window of cache hits.
fn process_cpu_ns(pid: u32) -> io::Result<u64> {
    let pid =
        i32::try_from(pid).map_err(|_| io::Error::other(format!("pid {pid} out of range")))?;
    let mut clock: i32 = 0;
    // SAFETY: `clock` is a valid, writable clockid_t (i32 on Linux)
    // that outlives the call.
    let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if rc != 0 {
        return Err(io::Error::from_raw_os_error(rc));
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` matches the 64-bit Linux `struct timespec` layout and
    // is valid for writes for the duration of the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}
