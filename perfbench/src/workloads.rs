//! The four workloads. Each calls public entry points of the crates it
//! measures, times the call from outside, and checks the result.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::probes::{HostTime, Stopwatch};

use parade_check::check_program;
use parade_cluster::{ClusterConfig, ExecConfig, ProtocolMode};
use parade_core::{Cluster, RunReport, StatsReport};
use parade_dsm::DsmStatsSnapshot;
use parade_kernels::cg::{cg_parade, cg_sequential, CgClass};
use parade_kernels::helmholtz::{
    helmholtz_parade, helmholtz_sequential, HelmholtzParams, HelmholtzResult,
};
use parade_net::{ChaosProfile, NetProfile, TimeSource};
use parade_serve::{job_mix, serve, JobKind, ServeConfig, ServeReport, SoakConfig};
use parade_translator::{ast, parse, Interp};

/// Counters a run returns, summed over the cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub msgs: u64,
    pub bytes: u64,
    pub retransmits: u64,
    pub dsm: DsmStatsSnapshot,
}

impl Counts {
    fn from_run(r: &RunReport) -> Counts {
        Counts {
            msgs: r.cluster.traffic.msgs,
            bytes: r.cluster.traffic.bytes,
            retransmits: r.cluster.link_health_totals().retransmits,
            dsm: r.cluster.dsm_totals(),
        }
    }

    fn add_stats(&mut self, s: &StatsReport) {
        for n in &s.net {
            self.msgs += n.sent.msgs;
            self.bytes += n.sent.bytes;
        }
        self.retransmits += s.link_health.iter().map(|h| h.retransmits).sum::<u64>();
        self.dsm.merge(&s.dsm);
    }

    /// The counts that must repeat exactly on one-thread-per-node kernels.
    pub fn exact_key(&self) -> [u64; 5] {
        [
            self.msgs,
            self.bytes,
            self.dsm.page_fetches,
            self.dsm.diffs_sent,
            self.dsm.home_migrations,
        ]
    }
}

/// Serving-layer figures of one soak, in modelled seconds.
#[derive(Debug, Clone, Copy)]
pub struct ServeFigures {
    pub attempts: u64,
    pub rehomes: u64,
    pub latency_p50_s: f64,
    pub wait_p50_s: f64,
}

/// Host seconds of the three front-end stages of one `omp_c` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontEnd {
    pub parse_s: f64,
    pub check_s: f64,
    pub run_s: f64,
}

/// One workload unit: a solve, a soak, or a pass over the program set.
#[derive(Debug, Clone)]
pub struct Unit {
    pub ok: bool,
    pub host: HostTime,
    /// Modelled seconds; `None` when the entry point returns no report.
    pub model_s: Option<f64>,
    pub counts: Option<Counts>,
    pub launches: u64,
    pub serve: Option<ServeFigures>,
    pub front: Option<FrontEnd>,
}

impl Unit {
    fn failed(host: HostTime, launches: u64) -> Unit {
        Unit {
            ok: false,
            host,
            model_s: None,
            counts: None,
            launches,
            serve: None,
            front: None,
        }
    }

    fn from_run(ok: bool, host: HostTime, r: &RunReport) -> Unit {
        Unit {
            ok: ok && r.cluster.fabric_errors.is_empty(),
            host,
            model_s: Some(r.exec_secs()),
            counts: Some(Counts::from_run(r)),
            launches: 1,
            serve: None,
            front: None,
        }
    }
}

pub enum Workload {
    Cg,
    Helmholtz(HelmholtzResult),
    Serve {
        seed: u64,
        refs: BTreeMap<JobKind, u64>,
    },
    OmpC {
        seed: u64,
        programs: Vec<Source>,
        reference: BTreeMap<String, usize>,
    },
}

pub struct Source {
    name: String,
    src: String,
    /// Lives in a directory of analyzer-clean programs.
    clean: bool,
}

pub const NAMES: [&str; 4] = ["cg", "helmholtz", "serve", "omp_c"];

/// NAS CG class W: the read-heavy DSM case.
const CG_CLASS: CgClass = CgClass::W;

/// Widest gang the soak's job mix asks for (`job_mix` caps widths at 4).
const SERVE_MAX_WIDTH: usize = 4;

fn helmholtz_params() -> HelmholtzParams {
    // A tolerance no residual reaches: always exactly 100 iterations.
    HelmholtzParams {
        tol: 1e-30,
        ..HelmholtzParams::sized(400, 400, 100)
    }
}

/// Protocol and synchronisation cost only: under the manual clock no
/// host CPU time is charged as modelled compute.
fn manual(nodes: usize, exec: ExecConfig) -> ClusterConfig {
    ClusterConfig {
        nodes,
        exec,
        protocol: ProtocolMode::Parade,
        net: NetProfile::clan_via(),
        time: TimeSource::Manual,
        chaos: ChaosProfile::off(),
        ..ClusterConfig::default()
    }
}

fn omp_shape() -> ClusterConfig {
    manual(2, ExecConfig::TwoThreadTwoCpu)
}

/// Per-unit seed, so the units of one run cover many job mixes and
/// program orders while the run as a whole stays a function of `seed`.
fn unit_seed(seed: u64, unit: usize) -> u64 {
    let mut z = seed ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn load_dir(dir: &str, clean: bool) -> Result<Vec<Source>, String> {
    let path = repo_root().join(dir);
    let entries = std::fs::read_dir(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok(Source {
                name: format!(
                    "{dir}/{}",
                    p.file_name().unwrap_or_default().to_string_lossy()
                ),
                src,
                clean,
            })
        })
        .collect()
}

impl Workload {
    /// Build the workload and everything its checks compare against.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        match name {
            "cg" => Ok(Workload::Cg),
            "helmholtz" => Ok(Workload::Helmholtz(
                helmholtz_sequential(helmholtz_params()),
            )),
            "serve" => Ok(Workload::Serve {
                seed,
                refs: BTreeMap::new(),
            }),
            "omp_c" => {
                let mut programs = Vec::new();
                for (dir, clean) in [
                    ("examples/openmp", true),
                    ("tests/corpus/clean", true),
                    ("tests/corpus/racy", false),
                    ("tests/corpus/conform", false),
                ] {
                    programs.extend(load_dir(dir, clean)?);
                }
                let reference = omp_reference(&programs, &omp_shape())?;
                Ok(Workload::OmpC {
                    seed,
                    programs,
                    reference,
                })
            }
            _ => Err(format!("unknown workload `{name}` (one of {NAMES:?})")),
        }
    }

    /// The cluster shape whose launch `setup_s` measures.
    pub fn shape(&self) -> ClusterConfig {
        match self {
            Workload::Cg | Workload::Helmholtz(_) => manual(4, ExecConfig::OneThreadTwoCpu),
            // The serving layer's gangs: one compute thread per node.
            Workload::Serve { .. } => manual(
                SERVE_MAX_WIDTH,
                ExecConfig::Custom {
                    threads_per_node: 1,
                    comm: ExecConfig::OneThreadTwoCpu.comm_costs(),
                },
            ),
            Workload::OmpC { .. } => omp_shape(),
        }
    }

    /// One thread per node and no injected deaths: counts must repeat.
    pub fn counts_repeat(&self) -> bool {
        matches!(self, Workload::Cg | Workload::Helmholtz(_))
    }

    /// Run unit number `idx` and check its result.
    pub fn unit(&mut self, idx: usize) -> Unit {
        let shape = self.shape();
        match self {
            Workload::Cg => {
                let cluster = Cluster::from_config(shape);
                let t = Stopwatch::start();
                let out = catch_unwind(AssertUnwindSafe(|| cg_parade(&cluster, CG_CLASS)));
                let host = t.read();
                match out {
                    Ok((res, rep)) => Unit::from_run(res.verify(CG_CLASS), host, &rep),
                    Err(_) => Unit::failed(host, 1),
                }
            }
            Workload::Helmholtz(seq) => {
                let cluster = Cluster::from_config(shape);
                let t = Stopwatch::start();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    helmholtz_parade(&cluster, helmholtz_params())
                }));
                let host = t.read();
                match out {
                    Ok((res, rep)) => Unit::from_run(helmholtz_matches(&res, seq), host, &rep),
                    Err(_) => Unit::failed(host, 1),
                }
            }
            Workload::Serve { seed, refs } => serve_unit(unit_seed(*seed, idx), refs),
            Workload::OmpC {
                seed,
                programs,
                reference,
            } => omp_unit(unit_seed(*seed, idx), programs, reference, &shape),
        }
    }

    /// Host seconds of the plain single-threaded kernels behind one unit:
    /// the sequential solver, or for `serve` the sequential reference of
    /// every job of the first unit's mix. `omp_c` has none.
    pub fn sequential_s(&self) -> Option<f64> {
        let jobs = match self {
            Workload::Serve { seed, .. } => job_mix(&soak_config(unit_seed(*seed, 0))).0,
            _ => Vec::new(),
        };
        let t = Instant::now();
        match self {
            Workload::Cg => {
                std::hint::black_box(cg_sequential(CG_CLASS));
            }
            Workload::Helmholtz(_) => {
                std::hint::black_box(helmholtz_sequential(helmholtz_params()));
            }
            Workload::Serve { .. } => {
                for j in &jobs {
                    std::hint::black_box(j.kind.reference_digest());
                }
            }
            Workload::OmpC { .. } => return None,
        }
        Some(t.elapsed().as_secs_f64())
    }
}

/// The 1e-12 relative tolerance `tests/kernels_verify.rs` uses.
fn helmholtz_matches(par: &HelmholtzResult, seq: &HelmholtzResult) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);
    par.iters == seq.iters
        && close(par.error, seq.error)
        && close(par.solution_error, seq.solution_error)
}

/// One 100-job soak on a 12-node machine, one job in seven losing a node.
fn soak_config(mix_seed: u64) -> SoakConfig {
    SoakConfig {
        seed: mix_seed,
        chaos: ChaosProfile::off(),
        ..SoakConfig::default()
    }
}

fn serve_unit(mix_seed: u64, refs: &mut BTreeMap<JobKind, u64>) -> Unit {
    let soak = soak_config(mix_seed);
    let (jobs, deaths) = job_mix(&soak);
    let cfg = ServeConfig {
        machine_nodes: soak.machine_nodes,
        base_chaos: ChaosProfile::off(),
        deaths,
        ..ServeConfig::default()
    };
    let specs = jobs.clone();
    let t = Stopwatch::start();
    let out = catch_unwind(AssertUnwindSafe(|| serve(&cfg, jobs)));
    let host = t.read();
    let Ok(report) = out else {
        return Unit::failed(host, 0);
    };
    // Sequential references are computed outside the timed call.
    let ok = specs.len() == report.outcomes.len()
        && specs.iter().all(|s| {
            let want = *refs
                .entry(s.kind)
                .or_insert_with(|| s.kind.reference_digest());
            report
                .outcome(s.id)
                .is_some_and(|o| o.completions == 1 && o.digest == want)
        });
    serve_figures(ok, host, &report)
}

fn serve_figures(ok: bool, host: HostTime, report: &ServeReport) -> Unit {
    let mut counts = Counts::default();
    for o in &report.outcomes {
        counts.add_stats(&o.stats);
    }
    let attempts: u64 = report.outcomes.iter().map(|o| o.attempts as u64).sum();
    let latency = report
        .outcomes
        .iter()
        .map(|o| (o.finish_at.as_nanos() - o.submit_at.as_nanos()) as f64 / 1e9)
        .collect();
    let wait = report
        .outcomes
        .iter()
        .map(|o| o.waited().as_secs_f64())
        .collect();
    Unit {
        ok,
        host,
        model_s: Some(report.makespan.as_secs_f64()),
        counts: Some(counts),
        launches: attempts,
        serve: Some(ServeFigures {
            attempts,
            rehomes: report.rehomes() as u64,
            latency_p50_s: crate::median(latency),
            wait_p50_s: crate::median(wait),
        }),
        front: None,
    }
}

/// Run a parsed clean program on `shape` and count the lines it prints;
/// `None` on a runtime error, a non-zero exit, or a node panic.
fn run_clean(name: &str, prog: ast::Program, shape: &ClusterConfig) -> Option<usize> {
    let cluster = Cluster::from_config(shape.clone());
    match catch_unwind(AssertUnwindSafe(|| Interp::new(prog).run(&cluster))) {
        Ok(Ok(o)) if o.exit == 0 => Some(o.stdout.lines().count()),
        Ok(Ok(o)) => {
            eprintln!("omp_c: {name} exited with {}", o.exit);
            None
        }
        Ok(Err(e)) => {
            eprintln!("omp_c: {name}: {e}");
            None
        }
        Err(_) => None,
    }
}

/// How many lines each clean program prints on the workload's cluster,
/// taken once before timing. Only the line count is compared: programs
/// whose tasks from different threads meet under per-variable locks
/// (`task_dep_chain.c`, `nbody_task.c`) print values that depend on the
/// order the tasks ran in.
fn omp_reference(
    programs: &[Source],
    shape: &ClusterConfig,
) -> Result<BTreeMap<String, usize>, String> {
    programs
        .iter()
        .filter(|p| p.clean)
        .map(|p| {
            parse(&p.src)
                .ok()
                .and_then(|prog| run_clean(&p.name, prog, shape))
                .map(|lines| (p.name.clone(), lines))
                .ok_or_else(|| format!("{}: reference run failed", p.name))
        })
        .collect()
}

/// One pass over the program set in a seed-shuffled order: parse and
/// check every program, run the clean ones. A diagnostic on a clean
/// program, none on a racy/conform one, or a run whose output differs
/// in line count from the reference fails the pass.
fn omp_unit(
    order_seed: u64,
    programs: &[Source],
    reference: &BTreeMap<String, usize>,
    shape: &ClusterConfig,
) -> Unit {
    let mut order: Vec<usize> = (0..programs.len()).collect();
    let mut s = order_seed | 1;
    for i in (1..order.len()).rev() {
        // xorshift64 Fisher-Yates.
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    let mut front = FrontEnd::default();
    let mut ok = true;
    let mut launches = 0;
    let pass = Stopwatch::start();
    for &i in &order {
        let p = &programs[i];
        let t = Instant::now();
        let parsed = parse(&p.src);
        front.parse_s += t.elapsed().as_secs_f64();
        let Ok(prog) = parsed else {
            eprintln!("omp_c: {} does not parse", p.name);
            ok = false;
            continue;
        };
        let t = Instant::now();
        let flagged = !check_program(&prog).is_empty();
        front.check_s += t.elapsed().as_secs_f64();
        if flagged == p.clean {
            eprintln!(
                "omp_c: analyzer verdict on {} does not match its directory",
                p.name
            );
            ok = false;
            continue;
        }
        if !p.clean {
            continue;
        }
        let t = Instant::now();
        let lines = run_clean(&p.name, prog, shape);
        front.run_s += t.elapsed().as_secs_f64();
        launches += 1;
        if lines.is_none() || reference.get(&p.name) != lines.as_ref() {
            eprintln!("omp_c: {} failed or printed unexpected output", p.name);
            ok = false;
        }
    }
    Unit {
        ok,
        host: pass.read(),
        model_s: None,
        counts: None,
        launches,
        serve: None,
        front: Some(front),
    }
}
