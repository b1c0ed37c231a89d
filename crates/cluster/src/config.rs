//! Cluster configuration: the paper's execution configurations (§6.2),
//! the protocol mode (§6.1) and the per-node DSM configuration.

use parade_dsm::{CommCosts, DsmConfig, HomePolicy};
use parade_net::{ChaosProfile, NetProfile, TimeSource};
use parade_tasks::SchedConfig;

/// The three measurement configurations of the paper's §6.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecConfig {
    /// Uniprocessor kernel: one CPU handles both computation and
    /// communication — remote requests wait out scheduling delays.
    OneThreadOneCpu,
    /// SMP kernel, one computational thread: the second CPU is dedicated to
    /// the communication thread.
    OneThreadTwoCpu,
    /// SMP kernel, two computational threads: the communication thread
    /// shares the two CPUs with computation.
    TwoThreadTwoCpu,
    /// Free-form: explicit thread count and communication-thread costs.
    Custom {
        threads_per_node: usize,
        comm: CommCosts,
    },
}

impl ExecConfig {
    pub fn threads_per_node(&self) -> usize {
        match self {
            ExecConfig::OneThreadOneCpu | ExecConfig::OneThreadTwoCpu => 1,
            ExecConfig::TwoThreadTwoCpu => 2,
            ExecConfig::Custom {
                threads_per_node, ..
            } => *threads_per_node,
        }
    }

    pub fn comm_costs(&self) -> CommCosts {
        match self {
            ExecConfig::OneThreadOneCpu => CommCosts::shared_cpu_busy(),
            ExecConfig::OneThreadTwoCpu => CommCosts::dedicated_cpu(),
            ExecConfig::TwoThreadTwoCpu => CommCosts::shared_cpu_light(),
            ExecConfig::Custom { comm, .. } => *comm,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ExecConfig::OneThreadOneCpu => "1Thread-1CPU",
            ExecConfig::OneThreadTwoCpu => "1Thread-2CPU",
            ExecConfig::TwoThreadTwoCpu => "2Thread-2CPU",
            ExecConfig::Custom { .. } => "custom",
        }
    }

    pub const PAPER_CONFIGS: [ExecConfig; 3] = [
        ExecConfig::OneThreadOneCpu,
        ExecConfig::OneThreadTwoCpu,
        ExecConfig::TwoThreadTwoCpu,
    ];
}

/// Which runtime the OpenMP directives target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMode {
    /// ParADE: hybrid execution — collectives for small-data
    /// synchronization/work-sharing directives, HLRC with migratory home
    /// for the rest.
    Parade,
    /// Conventional SDSM (the KDSM-style baseline of §6.1): lock-based
    /// synchronization, fixed homes, no message-passing shortcut.
    SdsmOnly,
}

/// Full configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of SMP nodes.
    pub nodes: usize,
    pub exec: ExecConfig,
    pub protocol: ProtocolMode,
    pub net: NetProfile,
    /// Compute-time accounting for application threads. The default scale
    /// maps host CPU time onto the paper's ~550 MHz Pentium III nodes
    /// (a modern superscalar/SIMD core is roughly 60x one on numeric
    /// kernels).
    pub time: TimeSource,
    /// Optional per-node CPU scale multipliers (the paper's cluster mixes
    /// 550 and 600 MHz nodes). Multiplied on top of `time`'s scale.
    pub node_speed: Option<Vec<f64>>,
    /// Fault injection for the fabric. The default honours the
    /// `PARADE_CHAOS` environment variable (off when unset), so any run
    /// can be soaked under chaos without code changes.
    pub chaos: ChaosProfile,
    /// Fabric nodes per physical SMP chassis, for collective-topology
    /// purposes: consecutive runs of `smp_width` nodes are treated as
    /// co-located. 1 (the default) makes every node its own chassis, so
    /// MPI collectives stay flat even when `dsm.hierarchical_barrier` is
    /// on (the DSM tree barrier is node-level and unaffected).
    pub smp_width: usize,
    /// Task scheduler knobs (steal strategy, victim fanout, batch grain,
    /// victim-selection seed) for `parade-tasks` phases.
    pub task_scheduler: SchedConfig,
    /// Per-node DSM configuration. `comm` is ignored: it comes from
    /// `exec` (see [`ExecConfig::comm_costs`]). `home_policy` applies
    /// under `ProtocolMode::Parade`; `SdsmOnly` always uses fixed homes.
    /// `hierarchical_barrier` also selects the two-level MPI collectives
    /// (see `smp_width`); off reverts both to the flat algorithms.
    pub dsm: DsmConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            exec: ExecConfig::TwoThreadTwoCpu,
            protocol: ProtocolMode::Parade,
            net: NetProfile::clan_via(),
            time: TimeSource::ThreadCpu { scale: 60.0 },
            node_speed: None,
            chaos: ChaosProfile::from_env(),
            smp_width: 1,
            task_scheduler: SchedConfig::default(),
            dsm: DsmConfig::default(),
        }
    }
}

impl ClusterConfig {
    pub fn threads_per_node(&self) -> usize {
        self.exec.threads_per_node()
    }

    /// Total computational threads in the cluster.
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node()
    }

    /// The per-node DSM configuration this cluster config implies.
    pub fn dsm_config(&self) -> DsmConfig {
        DsmConfig {
            comm: self.exec.comm_costs(),
            home_policy: match self.protocol {
                ProtocolMode::Parade => self.dsm.home_policy,
                ProtocolMode::SdsmOnly => HomePolicy::Fixed,
            },
            ..self.dsm
        }
    }

    /// SMP placement of the cluster's MPI ranks: consecutive blocks of
    /// `smp_width` fabric nodes per chassis.
    pub fn collective_topology(&self) -> parade_mpi::CollectiveTopology {
        parade_mpi::CollectiveTopology::uniform(self.nodes, self.smp_width.max(1))
    }

    /// Time source for an application thread on `node`.
    pub fn time_source(&self, node: usize) -> TimeSource {
        match (self.time, &self.node_speed) {
            (TimeSource::ThreadCpu { scale }, Some(speeds)) => TimeSource::ThreadCpu {
                scale: scale * speeds.get(node).copied().unwrap_or(1.0),
            },
            (t, _) => t,
        }
    }

    /// The paper's testbed speed mix: four 550 MHz then four 600 MHz nodes
    /// (expressed as multipliers relative to the 550 MHz baseline).
    pub fn paper_node_speeds(nodes: usize) -> Vec<f64> {
        (0..nodes)
            .map(|i| if i < 4 { 1.0 } else { 550.0 / 600.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_dsm::ProtoSelect;

    #[test]
    fn exec_presets() {
        assert_eq!(ExecConfig::OneThreadOneCpu.threads_per_node(), 1);
        assert_eq!(ExecConfig::TwoThreadTwoCpu.threads_per_node(), 2);
        assert!(
            ExecConfig::OneThreadOneCpu.comm_costs().service_penalty
                > ExecConfig::OneThreadTwoCpu.comm_costs().service_penalty
        );
        assert_eq!(ExecConfig::OneThreadTwoCpu.label(), "1Thread-2CPU");
    }

    #[test]
    fn dsm_config_derives_from_cluster_config() {
        let dsm = DsmConfig {
            pool_bytes: 1 << 20,
            page_shards: 4,
            batch_diffs: false,
            proto_select: ProtoSelect::AllUpdate,
            stride_prefetch: false,
            hierarchical_barrier: false,
            ..DsmConfig::default()
        };
        let custom = ExecConfig::Custom {
            threads_per_node: 3,
            comm: CommCosts::shared_cpu_light(),
        };
        for exec in ExecConfig::PAPER_CONFIGS.into_iter().chain([custom]) {
            let c = ClusterConfig {
                exec,
                dsm,
                ..ClusterConfig::default()
            };
            // Every DSM field but `comm` passes through unchanged.
            assert_eq!(
                c.dsm_config(),
                DsmConfig {
                    comm: exec.comm_costs(),
                    ..dsm
                }
            );
        }

        let mut c = ClusterConfig::default();
        assert_eq!(c.dsm_config().home_policy, HomePolicy::Migratory);
        c.dsm.home_policy = HomePolicy::Fixed;
        assert_eq!(c.dsm_config().home_policy, HomePolicy::Fixed);
        c.protocol = ProtocolMode::SdsmOnly;
        for policy in [HomePolicy::Migratory, HomePolicy::Fixed] {
            c.dsm.home_policy = policy;
            assert_eq!(c.dsm_config().home_policy, HomePolicy::Fixed);
        }
    }

    #[test]
    fn node_speed_scales_time_source() {
        let c = ClusterConfig {
            time: TimeSource::ThreadCpu { scale: 10.0 },
            node_speed: Some(vec![1.0, 0.5]),
            ..ClusterConfig::default()
        };
        match c.time_source(1) {
            TimeSource::ThreadCpu { scale } => assert_eq!(scale, 5.0),
            _ => panic!("wrong source"),
        }
    }

    #[test]
    fn chaos_defaults_to_env_or_off() {
        // The test environment does not set PARADE_CHAOS, so the default
        // config must leave the fabric clean.
        if std::env::var("PARADE_CHAOS").is_err() {
            assert!(!ClusterConfig::default().chaos.is_active());
        }
    }

    #[test]
    fn paper_speed_mix() {
        let s = ClusterConfig::paper_node_speeds(8);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[3], 1.0);
        assert!((s[4] - 550.0 / 600.0).abs() < 1e-12);
    }
}
