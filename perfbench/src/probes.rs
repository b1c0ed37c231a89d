//! Measurements taken around the workload units: host time, cluster
//! set-up, the per-element access and barrier fast paths, the diff
//! primitives, the traced run's per-construct report, and process memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::time::Instant;

use parade_cluster::ClusterConfig;
use parade_core::Cluster;
use parade_dsm::{Diff, PAGE_SIZE};
use parade_trace::{aggregate, EventKind, TraceData};

/// Host time of one timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTime {
    pub wall_s: f64,
    /// CPU time of every thread of the process, the simulated cluster's
    /// threads included. Unlike wall time it does not grow while the
    /// host preempts this machine's CPUs.
    pub cpu_s: f64,
}

pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn read(&self) -> HostTime {
        HostTime {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU seconds consumed so far by all threads of this process, exited
/// ones included. std has no such clock; libc is linked by std already.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host time from `Cluster::from_config` until an empty `parallel`
/// region returns on the master (teardown excluded).
pub fn setup(cfg: &ClusterConfig) -> HostTime {
    let t = Stopwatch::start();
    let cluster = Cluster::from_config(cfg.clone());
    cluster.run(move |g| {
        g.parallel(|_| {});
        t.read()
    })
}

/// Host cost of the `ThreadCtx` fast paths, timed by global thread 0 in a
/// region the benchmark owns.
pub struct CoreCost {
    pub get_ns: f64,
    pub set_ns: f64,
    pub barrier_us: f64,
}

const ACCESSES: usize = 1 << 21;
const BARRIERS: usize = 200;

pub fn core_cost(cfg: &ClusterConfig) -> CoreCost {
    let cluster = Cluster::from_config(cfg.clone());
    cluster.run(|g| {
        // One page: every index below stays on it.
        let v = g.alloc_f64(PAGE_SIZE / 8);
        let n = PAGE_SIZE / 8;
        g.parallel(move |tc| {
            let mut cost = CoreCost {
                get_ns: 0.0,
                set_ns: 0.0,
                barrier_us: 0.0,
            };
            if tc.thread_num() == 0 {
                // Fault the page in (and twin it) before timing.
                tc.set(&v, 0, tc.get(&v, 0) + 1.0);
                let t = Instant::now();
                let mut acc = 0.0;
                for i in 0..ACCESSES {
                    acc += tc.get(&v, black_box(i % n));
                }
                black_box(acc);
                cost.get_ns = t.elapsed().as_nanos() as f64 / ACCESSES as f64;
                let t = Instant::now();
                for i in 0..ACCESSES {
                    tc.set(&v, black_box(i % n), i as f64);
                }
                cost.set_ns = t.elapsed().as_nanos() as f64 / ACCESSES as f64;
            }
            // The first barrier also ships the diff of the writes above.
            tc.barrier();
            let t = Instant::now();
            for _ in 0..BARRIERS {
                tc.barrier();
            }
            cost.barrier_us = t.elapsed().as_nanos() as f64 / 1e3 / BARRIERS as f64;
            cost
        })
    })
}

/// Host ns per `Diff::create` and per `Diff::apply` on one page whose
/// first `dirty` bytes (rounded up to whole words) differ from its twin.
pub fn diff_cost(dirty: usize) -> (f64, f64) {
    const REPS: u32 = 20_000;
    let dirty = dirty.div_ceil(8).saturating_mul(8).min(PAGE_SIZE);
    let twin = vec![0u8; PAGE_SIZE];
    let mut page = twin.clone();
    page[..dirty].fill(0xA5);
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(Diff::create(black_box(&twin), black_box(&page)));
    }
    let create = t.elapsed().as_nanos() as f64 / REPS as f64;
    let diff = Diff::create(&twin, &page);
    let mut home = twin.clone();
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(&diff).apply(black_box(&mut home));
    }
    let apply = t.elapsed().as_nanos() as f64 / REPS as f64;
    (create, apply)
}

/// Host memory high-water mark of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Constructs whose self vtime the traced run reports, as `vt.<name>_s`.
pub const VT_KINDS: [EventKind; 8] = [
    EventKind::DsmFetch,
    EventKind::CommService,
    EventKind::DsmFlush,
    EventKind::DsmBarrier,
    EventKind::OmpBarrier,
    EventKind::MpiAllreduce,
    EventKind::OmpReduction,
    EventKind::TaskExec,
];

/// What one traced unit's session shows.
pub struct TraceFigures {
    /// Self vtime per construct in modelled seconds, divided by the mean
    /// cluster width: the mean over nodes, summed over the unit's launches.
    pub vt_s: BTreeMap<EventKind, f64>,
    pub spawns: u64,
    pub steals: u64,
    pub dropped: u64,
    /// Lowest ratio, over the nodes of every launch, of the node main
    /// thread's attributed self vtime to its final virtual time.
    pub attributed_frac: f64,
    /// Every node reconciled within 5% and nothing was dropped.
    pub reconciled: bool,
    /// Final virtual time of node 0 summed over launches: the master's
    /// modelled time of each run.
    pub master_vt_s: f64,
}

/// Read a traced unit's session. A node main thread's last event is the
/// end of the shutdown broadcast, so its timestamp is the node's final
/// virtual time.
pub fn trace_figures(data: &TraceData, launches: u64) -> TraceFigures {
    let report = data.report();
    let mut mains = 0u64;
    let mut attributed_frac = f64::INFINITY;
    let mut master_ns = 0u64;
    for t in data.threads.iter().filter(|t| t.identity.name == "main") {
        mains += 1;
        let last = t
            .events
            .iter()
            .map(|e| e.vtime.as_nanos())
            .max()
            .unwrap_or(0);
        if t.identity.node == 0 {
            master_ns += last;
        }
        if last == 0 {
            continue; // nothing to attribute on a node that never waited
        }
        let own = aggregate(std::slice::from_ref(t)).attributed_ns(t.identity.node);
        attributed_frac = attributed_frac.min(own as f64 / last as f64);
    }
    if !attributed_frac.is_finite() {
        attributed_frac = 0.0;
    }
    let width = (mains as f64 / launches.max(1) as f64).max(1.0);
    let vt_s = VT_KINDS
        .iter()
        .map(|&k| {
            let ns: u64 = report
                .spans
                .iter()
                .filter(|r| r.kind == k)
                .map(|r| r.self_ns)
                .sum();
            (k, ns as f64 / 1e9 / width)
        })
        .collect();
    let instants = |k: EventKind| -> u64 {
        report
            .instants
            .iter()
            .filter(|r| r.kind == k)
            .map(|r| r.count)
            .sum()
    };
    let dropped = data.dropped();
    TraceFigures {
        vt_s,
        spawns: instants(EventKind::TaskSpawn),
        steals: instants(EventKind::TaskSteal),
        dropped,
        attributed_frac,
        reconciled: dropped == 0 && (0.95..=1.05).contains(&attributed_frac),
        master_vt_s: master_ns as f64 / 1e9,
    }
}
