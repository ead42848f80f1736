//! The wire must answer at the speed of the planner. A reply written
//! in two pieces (JSON, then its newline) without `TCP_NODELAY` stalls
//! each round trip on Nagle × delayed ACK, about 40 ms; a cache hit
//! takes microseconds in process.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mheta_obs::json::{from_str, Value};
use mheta_serve::{wire, Lifecycle, Planner, PlannerConfig, ServeConfig};

const PLAN: &str = r#"{"op":"plan","app":{"name":"jacobi","size":"small"},"arch":"DC","search":{"evals":24,"seed":5}}"#;

/// Send one request line in a single write and read exactly one reply
/// line, asserting nothing follows it.
fn round_trip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Value {
    writer.write_all(format!("{req}\n").as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.ends_with('\n'),
        "reply is newline-terminated: {line:?}"
    );
    assert_eq!(line.matches('\n').count(), 1);
    assert!(reader.buffer().is_empty(), "one line per reply");
    from_str(line.trim_end()).expect("daemon speaks JSON")
}

#[test]
fn cache_hits_over_the_wire_do_not_stall_on_delayed_acks() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let planner = Arc::new(Planner::new(PlannerConfig::default()));
    let server = std::thread::spawn(move || {
        wire::serve_with(
            listener,
            planner,
            Arc::new(Lifecycle::new()),
            ServeConfig::default(),
        )
    });

    // A stock client socket: default options, Nagle on.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let primed = round_trip(&mut writer, &mut reader, PLAN);
    assert_eq!(primed.get("source").unwrap().as_str(), Some("fresh"));

    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let reply = round_trip(&mut writer, &mut reader, PLAN);
            let rtt = t0.elapsed();
            assert_eq!(reply.get("source").unwrap().as_str(), Some("cache"));
            rtt
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median cache-hit round trip {median:?} (the delayed-ACK floor is 40 ms)"
    );

    let bye = round_trip(&mut writer, &mut reader, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));
    server.join().unwrap().unwrap();
}
