//! Fixed micro-measurements of the layers the request stream reaches
//! only through other calls: simulator rank handoffs and the flight
//! recorder's per-event cost. Each is repeated and reported as the
//! median per operation.

use std::hint::black_box;
use std::time::Instant;

use mheta_mpi::{allreduce, Comm, ExecMode, NullRecorder, ReduceOp};
use mheta_obs::json::Value;
use mheta_obs::trace::id_hex;
use mheta_obs::{FlightRecorder, TraceContext};
use mheta_serve::PlannerConfig;
use mheta_sim::{run_cluster, ClusterSpec};

use crate::stats::median;

const REPS: usize = 9;

/// Median over [`REPS`] repetitions of `f`'s time divided by `ops`, ns.
fn per_op_ns(ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

pub struct Micro {
    pub pingpong_handoff_ns: f64,
    pub allreduce8_ns: f64,
    pub spawn8_ns: f64,
    pub recorder_event_ns: f64,
}

const PINGPONGS: u32 = 200;
const ALLREDUCES: usize = 50;
const RECORDER_EVENTS: usize = 4_000;

pub fn measure() -> Micro {
    let two = ClusterSpec::homogeneous(2);
    // Each round trip is two rank handoffs.
    let pingpong_handoff_ns = per_op_ns(2 * PINGPONGS as usize, || {
        run_cluster(&two, false, |ctx| {
            for i in 0..PINGPONGS {
                if ctx.rank() == 0 {
                    ctx.send(1, i, vec![0u8; 64])?;
                    ctx.recv(1, i)?;
                } else {
                    ctx.recv(0, i)?;
                    ctx.send(0, i, vec![0u8; 64])?;
                }
            }
            Ok(())
        })
        .expect("pingpong runs");
    });

    let eight = ClusterSpec::homogeneous(8);
    let allreduce8_ns = per_op_ns(ALLREDUCES, || {
        run_cluster(&eight, false, |ctx| {
            let mut rec = NullRecorder;
            let mut comm = Comm::new(ctx, &mut rec, ExecMode::Normal);
            let mut v = vec![1.0; 16];
            for _ in 0..ALLREDUCES {
                allreduce(&mut comm, ReduceOp::Sum, &mut v)?;
            }
            Ok(black_box(v[0]))
        })
        .expect("allreduce runs");
    });

    let spawn8_ns = per_op_ns(1, || {
        run_cluster(&eight, false, |ctx| Ok(black_box(ctx.rank()))).expect("spawn runs");
    });

    // The payload the planner records on every cache hit.
    let cfg = PlannerConfig::default();
    let recorder = FlightRecorder::new(cfg.recorder_capacity, cfg.recorder_stripes);
    let ctx = TraceContext::root();
    let label = "Lanczos@HY2".to_string();
    let key = 0x1234_5678_9abc_def0_u64;
    let recorder_event_ns = per_op_ns(RECORDER_EVENTS, || {
        for _ in 0..RECORDER_EVENTS {
            recorder.record_kv(
                Some(&ctx),
                "cache.hit",
                vec![
                    ("label", Value::Str(label.clone())),
                    ("key", Value::Str(id_hex(black_box(key)))),
                ],
            );
        }
    });

    Micro {
        pingpong_handoff_ns,
        allreduce8_ns,
        spawn8_ns,
        recorder_event_ns,
    }
}
