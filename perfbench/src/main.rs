//! End-to-end and per-layer benchmark of the ParADE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cg|helmholtz|serve|omp_c> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Single-threaded: the only threads are the simulated cluster's
//! own. It prints every metric by name and unit, then one JSON line with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). See `README.md` for what each metric measures.

mod probes;
mod workloads;

use std::time::Instant;

use parade_trace::{EventKind, TraceConfig};

use probes::TraceFigures;
use workloads::{Counts, Unit, Workload};

/// Launches whose median is `setup_s` (and `cluster.setup_wall_s`).
const SETUP_REPS: usize = 21;
/// Fewest timed units, so `wall_tail_s` has ten samples beyond it.
const MIN_SAMPLES: usize = 11;
/// Traced units per traced run.
const TRACED_UNITS: usize = 3;
/// Runs of the sequential kernel whose median is `kernels.seq_s`.
const SEQ_REPS: usize = 3;
/// Events per thread ring: large enough that a CG class W master keeps
/// every event of its solve.
const TRACE_CAPACITY: usize = 1 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(args)
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The highest sample with at least ten samples above it (the largest
/// one when there are fewer than eleven).
fn tail(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let i = xs.len().saturating_sub(11);
    xs.get(i).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // The run is configured here, not by the environment.
    for var in ["PARADE_TRACE", "PARADE_STATS_JSON", "PARADE_CHAOS"] {
        std::env::remove_var(var);
    }
    let mut w = Workload::new(&args.workload, args.seed)?;
    let shape = w.shape();

    probes::setup(&shape);
    let setups: Vec<_> = (0..SETUP_REPS).map(|_| probes::setup(&shape)).collect();

    // A checked warm-up unit, counted as attempted but not timed.
    let mut next = 0usize;
    let mut all: Vec<Unit> = vec![w.unit(next)];
    next += 1;
    let mut timed: Vec<Unit> = Vec::new();
    let start = Instant::now();
    while timed.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        timed.push(w.unit(next));
        next += 1;
    }

    // `omp_c` needs the traced run for its modelled time: `Interp::run`
    // returns no report, and tracing never charges the virtual clock.
    let need_trace = args.trace || matches!(w, Workload::OmpC { .. });
    let mut traced: Vec<(Unit, TraceFigures)> = Vec::new();
    if need_trace {
        for _ in 0..TRACED_UNITS {
            let session = parade_trace::start(TraceConfig {
                capacity: TRACE_CAPACITY,
            })
            .ok_or("a trace session is already active")?;
            let u = w.unit(next);
            next += 1;
            let data = session.finish();
            let fig = probes::trace_figures(&data, u.launches);
            traced.push((u, fig));
        }
    }
    all.extend(timed.iter().cloned());
    all.extend(traced.iter().map(|(u, _)| u.clone()));
    let attempted = all.len();
    let failed = all.iter().filter(|u| !u.ok).count();

    // Exact-count self-check.
    let keys: Vec<[u64; 5]> = all
        .iter()
        .filter_map(|u| u.counts.map(|c| c.exact_key()))
        .collect();
    let counts_repeat = keys.windows(2).all(|p| p[0] == p[1]);
    if w.counts_repeat() && !counts_repeat {
        let msg = format!(
            "COUNT MISMATCH: [msgs, bytes, page_fetches, diffs_sent, home_migrations] \
             differ between runs of {}: {keys:?}",
            args.workload
        );
        eprintln!("perfbench: {msg}");
        println!("{msg}");
    }

    let wall: Vec<f64> = timed.iter().map(|u| u.host.wall_s).collect();
    let model_s = match w {
        Workload::OmpC { .. } => median(traced.iter().map(|(_, f)| f.master_vt_s).collect()),
        // A soak's makespan is the finish of its last job, which lands in
        // one of two clusters (about 1.7 and 2.1 virtual s on the default
        // machine) depending on whether that job lost a node; the median
        // flips between them from seed to seed, the mean does not.
        Workload::Serve { .. } => {
            let m: Vec<f64> = timed.iter().filter_map(|u| u.model_s).collect();
            m.iter().sum::<f64>() / m.len().max(1) as f64
        }
        _ => median(timed.iter().filter_map(|u| u.model_s).collect()),
    };

    let mut e2e = Metrics(Vec::new());
    // Set-up and unit costs are CPU seconds of the whole process: while
    // the host preempts this machine's CPUs, every cross-thread hand-off
    // of the simulated cluster stalls and wall time grows several-fold.
    e2e.put(
        "setup_s",
        median(setups.iter().map(|h| h.cpu_s).collect()),
        "s",
    );
    e2e.put(
        "cpu_s",
        median(timed.iter().map(|u| u.host.cpu_s).collect()),
        "s",
    );
    e2e.put("model_s", model_s, "vsec");
    e2e.put("peak_rss_mb", probes::peak_rss_mb()?, "MB");

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "  samples={} attempted={attempted} failed={failed} failed_frac={} (frac)",
        timed.len(),
        ratio(failed as f64, attempted as f64)
    );
    if w.counts_repeat() {
        println!(
            "  exact counts: {}",
            if counts_repeat { "repeat" } else { "MISMATCH" }
        );
    }
    // Wall-clock host time: printed on every run, in the JSON line only
    // with the per-layer metrics, and not gated.
    let wall_s = median(wall.clone());
    let mut walls = Metrics(Vec::new());
    walls.put("wall_s", wall_s, "s");
    walls.put("wall_tail_s", tail(wall), "s");
    walls.put(
        "cluster.setup_wall_s",
        median(setups.iter().map(|h| h.wall_s).collect()),
        "s",
    );
    for (name, v, unit) in e2e.0.iter().chain(&walls.0) {
        println!("  {name} = {v} {unit}");
    }

    let metrics = if args.trace {
        let layers = per_layer(&w, &shape, &timed, &traced, wall_s);
        for (name, v, unit) in &layers.0 {
            println!("  {name} = {v} {unit}");
        }
        let reconciled = traced.iter().all(|(_, f)| f.reconciled);
        println!(
            "  traced run: {}",
            if reconciled {
                "valid (every node within 5%, nothing dropped)"
            } else {
                "INVALID (a node's attributed vtime is off by more than 5%, or events were dropped)"
            }
        );
        walls.0.extend(layers.0);
        walls
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    Ok(())
}

fn per_layer(
    w: &Workload,
    shape: &parade_cluster::ClusterConfig,
    timed: &[Unit],
    traced: &[(Unit, TraceFigures)],
    wall_s: f64,
) -> Metrics {
    let mut m = Metrics(Vec::new());
    let counts: Vec<Counts> = timed.iter().filter_map(|u| u.counts).collect();
    let med = |f: &dyn Fn(&Counts) -> f64| median(counts.iter().map(f).collect());
    let tr = |f: &dyn Fn(&TraceFigures) -> f64| median(traced.iter().map(|(_, t)| f(t)).collect());
    let vt = |k: EventKind| tr(&|t| t.vt_s[&k]);

    let msgs = med(&|c| c.msgs as f64);
    m.put("net.msgs", msgs, "count");
    m.put("net.bytes", med(&|c| c.bytes as f64), "B");
    m.put("net.retransmits", med(&|c| c.retransmits as f64), "count");
    m.put("net.host_ns_per_msg", ratio(wall_s * 1e9, msgs), "ns");

    m.put(
        "dsm.page_fetches",
        med(&|c| c.dsm.page_fetches as f64),
        "count",
    );
    m.put("dsm.fetch_bytes", med(&|c| c.dsm.fetch_bytes as f64), "B");
    m.put(
        "dsm.range_fetches",
        med(&|c| c.dsm.range_fetches as f64),
        "count",
    );
    m.put(
        "dsm.update_pushes",
        med(&|c| c.dsm.update_pushes as f64),
        "count",
    );
    m.put(
        "dsm.prefetch_hit_frac",
        med(&|c| ratio(c.dsm.prefetch_hits as f64, c.dsm.prefetch_pages as f64)),
        "frac",
    );
    m.put(
        "dsm.serviced_requests",
        med(&|c| c.dsm.serviced_requests as f64),
        "count",
    );
    m.put("vt.dsm.fetch_s", vt(EventKind::DsmFetch), "vsec");
    m.put("vt.comm.service_s", vt(EventKind::CommService), "vsec");

    let diffs = med(&|c| c.dsm.diffs_sent as f64);
    m.put("dsm.diffs_sent", diffs, "count");
    m.put("dsm.diff_bytes", med(&|c| c.dsm.diff_bytes as f64), "B");
    m.put(
        "dsm.diff_payload_frac",
        med(&|c| ratio(c.dsm.diff_payload_bytes as f64, c.dsm.diff_bytes as f64)),
        "frac",
    );
    m.put(
        "dsm.home_migrations",
        med(&|c| c.dsm.home_migrations as f64),
        "count",
    );
    m.put(
        "dsm.invalidations",
        med(&|c| c.dsm.invalidations as f64),
        "count",
    );
    m.put("vt.dsm.flush_s", vt(EventKind::DsmFlush), "vsec");
    let dirty = ratio(med(&|c| c.dsm.diff_payload_bytes as f64), diffs);
    let (create_ns, apply_ns) = probes::diff_cost(dirty as usize);
    m.put("dsm.diff_create_ns", create_ns, "ns");
    m.put("dsm.diff_apply_ns", apply_ns, "ns");

    m.put("dsm.barriers", med(&|c| c.dsm.barriers as f64), "count");
    m.put("vt.dsm.barrier_s", vt(EventKind::DsmBarrier), "vsec");
    m.put("vt.omp.barrier_s", vt(EventKind::OmpBarrier), "vsec");
    m.put("vt.mpi.allreduce_s", vt(EventKind::MpiAllreduce), "vsec");
    m.put("vt.omp.reduction_s", vt(EventKind::OmpReduction), "vsec");

    let core = probes::core_cost(shape);
    m.put("core.get_ns", core.get_ns, "ns");
    m.put("core.set_ns", core.set_ns, "ns");
    m.put("core.barrier_us", core.barrier_us, "us");

    m.put(
        "cluster.launches",
        median(timed.iter().map(|u| u.launches as f64).collect()),
        "count",
    );

    m.put("vt.task.exec_s", vt(EventKind::TaskExec), "vsec");
    m.put("task.spawns", tr(&|t| t.spawns as f64), "count");
    m.put("task.steals", tr(&|t| t.steals as f64), "count");

    let serve: Vec<_> = timed.iter().filter_map(|u| u.serve).collect();
    let sv = |f: &dyn Fn(&workloads::ServeFigures) -> f64| median(serve.iter().map(f).collect());
    m.put("serve.attempts", sv(&|s| s.attempts as f64), "count");
    m.put("serve.rehomes", sv(&|s| s.rehomes as f64), "count");
    m.put("vt.serve.latency_p50_s", sv(&|s| s.latency_p50_s), "vsec");
    m.put("vt.serve.wait_p50_s", sv(&|s| s.wait_p50_s), "vsec");
    m.put(
        "dsm.checkpoint_bytes",
        med(&|c| c.dsm.checkpoint_bytes as f64),
        "B",
    );

    let front: Vec<_> = timed.iter().filter_map(|u| u.front).collect();
    let fe = |f: &dyn Fn(&workloads::FrontEnd) -> f64| median(front.iter().map(f).collect());
    m.put("translator.parse_s", fe(&|f| f.parse_s), "s");
    m.put("check.analyze_s", fe(&|f| f.check_s), "s");
    m.put("interp.run_s", fe(&|f| f.run_s), "s");

    let seq_s = median((0..SEQ_REPS).filter_map(|_| w.sequential_s()).collect());
    m.put("kernels.seq_s", seq_s, "s");
    m.put("kernels.sim_overhead_x", ratio(wall_s, seq_s), "x");

    m.put("trace.attributed_frac", tr(&|t| t.attributed_frac), "frac");
    let traced_wall = median(traced.iter().map(|(u, _)| u.host.wall_s).collect());
    m.put(
        "trace.overhead_frac",
        ratio(traced_wall, wall_s) - 1.0,
        "frac",
    );
    m.put(
        "trace.dropped",
        traced.iter().map(|(_, t)| t.dropped as f64).sum(),
        "count",
    );
    m
}
