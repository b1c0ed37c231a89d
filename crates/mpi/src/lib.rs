//! # parade-mpi — a thread-safe mini-MPI
//!
//! The ParADE runtime needs a high-performance, **thread-safe** message
//! passing library: application threads and the per-node communication
//! thread issue requests concurrently (paper §5.3). The authors implemented
//! a minimal MPI subset directly on VIA and fell back to MPI/Pro on TCP/IP;
//! this crate is that subset over the simulated fabric of [`parade_net`]:
//!
//! * typed point-to-point send/receive with tag matching,
//! * `barrier` (dissemination), `bcast` and `reduce` (binomial tree),
//! * `allreduce` (recursive doubling) with built-in and user-defined
//!   combiners, `gather`/`allgather`,
//! * two-level SMP-aware collective algorithms over a
//!   [`CollectiveTopology`]: ranks co-located on an SMP node combine
//!   through shared memory and only elected group leaders cross the wire,
//! * little-endian wire-format helpers shared with the SDSM protocol.

mod collective;
mod comm;
pub mod datatype;
mod topology;

pub use collective::ReduceOp;
pub use comm::Communicator;
pub use topology::CollectiveTopology;
