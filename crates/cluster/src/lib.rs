//! # parade-cluster — the simulated SMP cluster engine
//!
//! Builds the pieces of one simulated cluster run: the message fabric, one
//! DSM instance and communication thread per node, and an SPMD launch of a
//! node program. [`ClusterConfig`] holds the paper's two experimental
//! axes: the three execution configurations (`1Thread-1CPU` /
//! `1Thread-2CPU` / `2Thread-2CPU`, §6.2), expressed as compute-thread
//! counts plus communication-thread service costs, and ParADE vs a
//! conventional SDSM ([`ProtocolMode`], §6.1). The per-node DSM settings
//! sit in one embedded `parade_dsm::DsmConfig`.

mod config;
mod launch;

pub use config::{ClusterConfig, ExecConfig, ProtocolMode};
pub use launch::{launch, launch_result, ClusterReport, LaunchFailure, NodeEnv, NodePanic};
