//! Collective operations.
//!
//! ParADE only strictly needs `MPI_Bcast` and `MPI_Allreduce` (§5.3), plus
//! barrier for the runtime; `reduce`, `gather` and `allgather` are provided
//! for the MPI baseline versions of the benchmarks. Algorithms are the
//! classic tree/dissemination/recursive-doubling schemes so message counts
//! grow as `O(P log P)` — the property that makes collectives cheaper than
//! lock-based SDSM synchronization as the node count grows.

use parade_net::Bytes;

use parade_net::VClock;
use parade_trace::{self as trace, EventKind};

use crate::comm::Communicator;
use crate::datatype;
use crate::topology::CollectiveTopology;

/// Reduction operators for typed allreduce/reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Prod,
    Min,
    Max,
}

impl ReduceOp {
    pub fn fold_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    pub fn fold_i64(self, a: i64, b: i64) -> i64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

// Phase labels inside one collective sequence number.
const PH_BARRIER_BASE: u8 = 0; // rounds 0..15 (phase = round)
const PH_ALLREDUCE_BASE: u8 = 0; // rounds 0..15 (phase = round)
const PH_BCAST: u8 = 0;
const PH_REDUCE: u8 = 1;
const PH_GATHER: u8 = 3;

impl Communicator {
    /// The topology to run two-level algorithms over, when one is attached
    /// and actually groups ranks (an all-singleton topology degenerates to
    /// the flat algorithms exactly, so it takes the flat path directly).
    fn hier(&self) -> Option<&CollectiveTopology> {
        self.topo.as_deref().filter(|t| !t.is_flat())
    }

    /// Barrier. Flat: dissemination over all ranks — ⌈log₂ P⌉ rounds,
    /// every node sends and receives one small message per round. With an
    /// SMP topology attached: ranks arrive through their group's
    /// shared-memory barrier, the elected leaders run the dissemination
    /// rounds among themselves (`O(L log L)` fabric messages for `L`
    /// leaders), and the release fans back out through shared memory.
    pub fn barrier(&self, clock: &mut VClock) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        let size = self.size();
        if size == 1 {
            return;
        }
        let rank = self.rank();
        trace::begin(EventKind::MpiBarrier, clock.now());
        if let Some(t) = self.hier() {
            t.deposit_and_sync(rank, seq, None, clock);
            if t.is_leader(rank) {
                self.leaders_barrier(t, seq, clock);
                t.publish(rank, seq, Bytes::new(), clock);
            } else {
                let _ = t.collect(rank, seq, clock);
            }
            trace::end(EventKind::MpiBarrier, clock.now());
            return;
        }
        let mut round: u8 = 0;
        let mut dist = 1usize;
        while dist < size {
            let dst = (rank + dist) % size;
            let src = (rank + size - dist) % size;
            self.coll_send(dst, seq, PH_BARRIER_BASE + round, Bytes::new(), clock);
            let _ = self.coll_recv(src, seq, PH_BARRIER_BASE + round, clock);
            trace::instant(EventKind::CollRound, round as u64, clock.now());
            dist <<= 1;
            round += 1;
        }
        trace::end(EventKind::MpiBarrier, clock.now());
    }

    /// Broadcast of raw bytes from `root`: binomial tree over all ranks,
    /// or — with an SMP topology — binomial tree over the group leaders
    /// with shared-memory distribution inside each group. Non-root
    /// callers' `buf` is replaced with the received payload.
    pub fn bcast_bytes(&self, root: usize, buf: &mut Bytes, clock: &mut VClock) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        trace::begin_arg(EventKind::MpiBcast, buf.len() as u64, clock.now());
        if let Some(t) = self.hier() {
            self.hier_bcast(t, root, buf, seq, clock);
        } else {
            self.bcast_inner(root, buf, seq, clock);
        }
        trace::end(EventKind::MpiBcast, clock.now());
    }

    fn hier_bcast(
        &self,
        t: &CollectiveTopology,
        root: usize,
        buf: &mut Bytes,
        seq: u64,
        clock: &mut VClock,
    ) {
        let rank = self.rank();
        // Only the root deposits data; everyone joins the group barrier.
        let contrib = (rank == root).then(|| buf.to_vec());
        let folded = t.deposit_and_sync(rank, seq, contrib, clock);
        if t.is_leader(rank) {
            let mut folded = folded.expect("leader sees group contributions");
            let mut b = if t.group_of(rank) == t.group_of(root) {
                Bytes::from(folded[t.member_index(root)].take().expect("root deposited"))
            } else {
                Bytes::new()
            };
            let root_pos = t.leader_position(t.leader_of(root));
            self.leaders_bcast(t, root_pos, &mut b, seq, clock);
            *buf = t.publish(rank, seq, b, clock);
        } else {
            *buf = t.collect(rank, seq, clock);
        }
    }

    fn bcast_inner(&self, root: usize, buf: &mut Bytes, seq: u64, clock: &mut VClock) {
        let size = self.size();
        if size == 1 {
            return;
        }
        let rank = self.rank();
        let relrank = (rank + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if relrank & mask != 0 {
                let src = (relrank - mask + root) % size;
                *buf = self.coll_recv(src, seq, PH_BCAST, clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if relrank + mask < size {
                let dst = (relrank + mask + root) % size;
                self.coll_send(dst, seq, PH_BCAST, buf.clone(), clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
            }
            mask >>= 1;
        }
    }

    /// Broadcast a `f64` slice in place.
    pub fn bcast_f64s(&self, root: usize, xs: &mut [f64], clock: &mut VClock) {
        let mut buf = if self.rank() == root {
            datatype::f64s_to_bytes(xs)
        } else {
            Bytes::new()
        };
        self.bcast_bytes(root, &mut buf, clock);
        if self.rank() != root {
            datatype::read_f64s_into(&buf, xs);
        }
    }

    /// Binomial-tree reduction to `root` with a user combiner.
    ///
    /// `buf` holds this rank's contribution on entry; on exit at the root it
    /// holds the combined value, elsewhere it is unspecified. `combine`
    /// folds a peer's encoded contribution into `buf`.
    pub fn reduce_with(
        &self,
        root: usize,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        clock: &mut VClock,
    ) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        trace::begin(EventKind::MpiReduce, clock.now());
        self.reduce_inner(root, buf, combine, seq, clock);
        trace::end(EventKind::MpiReduce, clock.now());
    }

    fn reduce_inner(
        &self,
        root: usize,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        seq: u64,
        clock: &mut VClock,
    ) {
        let size = self.size();
        if size == 1 {
            return;
        }
        let rank = self.rank();
        let relrank = (rank + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if relrank & mask == 0 {
                let peer = relrank | mask;
                if peer < size {
                    let src = (peer + root) % size;
                    let contrib = self.coll_recv(src, seq, PH_REDUCE, clock);
                    combine(buf, &contrib);
                    trace::instant(EventKind::CollRound, mask as u64, clock.now());
                }
            } else {
                let dst = ((relrank & !mask) + root) % size;
                self.coll_send(dst, seq, PH_REDUCE, Bytes::copy_from_slice(buf), clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
                break;
            }
            mask <<= 1;
        }
    }

    /// Allreduce with a user combiner: recursive doubling over all ranks
    /// (⌈log₂ P⌉ rounds), or — with an SMP topology — a shared-memory fold
    /// inside each group and recursive doubling among the group leaders.
    /// Every rank returns the same bits, associated exactly like a
    /// binomial reduce to rank 0: `combine` need be neither commutative nor
    /// associative. The paper merges multiple `reduction` clause variables
    /// into one structure and reduces them with a user-defined operation —
    /// this is that hook.
    pub fn allreduce_with(
        &self,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        clock: &mut VClock,
    ) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        if self.size() == 1 {
            return;
        }
        trace::begin(EventKind::MpiAllreduce, clock.now());
        if let Some(t) = self.hier() {
            self.hier_allreduce(t, buf, combine, seq, clock);
        } else {
            let ranks: Vec<usize> = (0..self.size()).collect();
            self.allreduce_among(&ranks, buf, combine, seq, clock);
        }
        trace::end(EventKind::MpiAllreduce, clock.now());
    }

    /// Recursive-doubling allreduce among `ranks` (which must contain this
    /// rank), addressed by position in the list.
    ///
    /// In the round with `mask`, each aligned block of `2·mask` positions
    /// combines its lower half ⊕ its upper half — lower first, the
    /// association a binomial reduce to position 0 uses — so after the
    /// last round every position holds the bits the binomial fold would.
    /// A lower position whose partner `pos + mask` lies past the end
    /// receives the upper half's value from the stand-in
    /// `upper_start + (pos − lo) % upper_len` instead; it sends nothing,
    /// since the upper half already hears from its real partners.
    fn allreduce_among(
        &self,
        ranks: &[usize],
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        seq: u64,
        clock: &mut VClock,
    ) {
        let l = ranks.len();
        let pos = ranks
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller is in the rank list");
        let mut round: u8 = 0;
        let mut mask = 1usize;
        while mask < l {
            let phase = PH_ALLREDUCE_BASE + round;
            let lo = pos & !(2 * mask - 1);
            let upper = lo + mask;
            if upper < l {
                let upper_len = (upper + mask).min(l) - upper;
                if pos < upper {
                    let partner = pos + mask;
                    let src = if partner < l {
                        self.coll_send(
                            ranks[partner],
                            seq,
                            phase,
                            Bytes::copy_from_slice(buf),
                            clock,
                        );
                        partner
                    } else {
                        upper + (pos - lo) % upper_len
                    };
                    let other = self.coll_recv(ranks[src], seq, phase, clock);
                    combine(buf, &other);
                } else {
                    // Serve the partner, then every lower position this one
                    // stands in for.
                    let mine = Bytes::copy_from_slice(buf);
                    for dst in (pos - mask..upper).step_by(upper_len) {
                        self.coll_send(ranks[dst], seq, phase, mine.clone(), clock);
                    }
                    let mut acc = self
                        .coll_recv(ranks[pos - mask], seq, phase, clock)
                        .to_vec();
                    combine(&mut acc, buf);
                    *buf = acc;
                }
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
            }
            mask <<= 1;
            round += 1;
        }
    }

    fn hier_allreduce(
        &self,
        t: &CollectiveTopology,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        seq: u64,
        clock: &mut VClock,
    ) {
        let rank = self.rank();
        let folded = t.deposit_and_sync(rank, seq, Some(std::mem::take(buf)), clock);
        let result = if t.is_leader(rank) {
            // Fold the group's contributions in member order (the leader is
            // member 0), then allreduce across the leaders.
            let mut contribs = folded.expect("leader sees group contributions").into_iter();
            let mut acc = contribs
                .next()
                .expect("group is non-empty")
                .expect("every member deposits");
            for c in contribs {
                combine(&mut acc, &c.expect("every member deposits"));
            }
            self.allreduce_among(t.leaders(), &mut acc, combine, seq, clock);
            t.publish(rank, seq, Bytes::from(acc), clock)
        } else {
            t.collect(rank, seq, clock)
        };
        buf.extend_from_slice(&result);
    }

    // ---- leader-phase algorithms ---------------------------------------
    //
    // The inter-node halves of the two-level barrier and broadcast: the
    // same dissemination/binomial schemes as the flat algorithms, but run
    // over the topology's leader ranks, addressed by *position* in the
    // sorted leader list. Only leaders ever call these. (The allreduce's
    // leader phase is `allreduce_among` over `t.leaders()`.)

    /// Dissemination barrier among the group leaders.
    fn leaders_barrier(&self, t: &CollectiveTopology, seq: u64, clock: &mut VClock) {
        let leaders = t.leaders();
        let l = leaders.len();
        let pos = t.leader_position(self.rank());
        let mut round: u8 = 0;
        let mut dist = 1usize;
        while dist < l {
            let dst = leaders[(pos + dist) % l];
            let src = leaders[(pos + l - dist) % l];
            self.coll_send(dst, seq, PH_BARRIER_BASE + round, Bytes::new(), clock);
            let _ = self.coll_recv(src, seq, PH_BARRIER_BASE + round, clock);
            trace::instant(EventKind::CollRound, round as u64, clock.now());
            dist <<= 1;
            round += 1;
        }
    }

    /// Binomial-tree broadcast among the group leaders from leader
    /// position `root_pos`.
    fn leaders_bcast(
        &self,
        t: &CollectiveTopology,
        root_pos: usize,
        buf: &mut Bytes,
        seq: u64,
        clock: &mut VClock,
    ) {
        let leaders = t.leaders();
        let l = leaders.len();
        let pos = t.leader_position(self.rank());
        let rel = (pos + l - root_pos) % l;
        let mut mask = 1usize;
        while mask < l {
            if rel & mask != 0 {
                let src = leaders[(rel - mask + root_pos) % l];
                *buf = self.coll_recv(src, seq, PH_BCAST, clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < l {
                let dst = leaders[(rel + mask + root_pos) % l];
                self.coll_send(dst, seq, PH_BCAST, buf.clone(), clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
            }
            mask >>= 1;
        }
    }

    /// Elementwise allreduce on an `f64` slice.
    pub fn allreduce_f64s(&self, xs: &mut [f64], op: ReduceOp, clock: &mut VClock) {
        let mut buf = datatype::f64s_to_bytes(xs).to_vec();
        let combine = move |acc: &mut Vec<u8>, other: &[u8]| {
            let mut a = datatype::bytes_to_f64s(acc);
            let b = datatype::bytes_to_f64s(other);
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.fold_f64(*x, y);
            }
            acc.clear();
            acc.extend_from_slice(&datatype::f64s_to_bytes(&a));
        };
        self.allreduce_with(&mut buf, &combine, clock);
        datatype::read_f64s_into(&buf, xs);
    }

    /// Allreduce a single `f64`.
    pub fn allreduce_f64(&self, x: f64, op: ReduceOp, clock: &mut VClock) -> f64 {
        let mut xs = [x];
        self.allreduce_f64s(&mut xs, op, clock);
        xs[0]
    }

    /// Elementwise allreduce on an `i64` slice.
    pub fn allreduce_i64s(&self, xs: &mut [i64], op: ReduceOp, clock: &mut VClock) {
        let mut buf = datatype::i64s_to_bytes(xs).to_vec();
        let combine = move |acc: &mut Vec<u8>, other: &[u8]| {
            let mut a = datatype::bytes_to_i64s(acc);
            let b = datatype::bytes_to_i64s(other);
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.fold_i64(*x, y);
            }
            acc.clear();
            acc.extend_from_slice(&datatype::i64s_to_bytes(&a));
        };
        self.allreduce_with(&mut buf, &combine, clock);
        let out = datatype::bytes_to_i64s(&buf);
        xs.copy_from_slice(&out);
    }

    /// Allreduce a single `i64`.
    pub fn allreduce_i64(&self, x: i64, op: ReduceOp, clock: &mut VClock) -> i64 {
        let mut xs = [x];
        self.allreduce_i64s(&mut xs, op, clock);
        xs[0]
    }

    /// Gather byte strings at `root` (linear). Returns `Some(parts)` indexed
    /// by rank at the root, `None` elsewhere.
    pub fn gather_bytes(&self, root: usize, data: Bytes, clock: &mut VClock) -> Option<Vec<Bytes>> {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        let size = self.size();
        let rank = self.rank();
        trace::begin_arg(EventKind::MpiGather, data.len() as u64, clock.now());
        let out = if rank == root {
            let mut parts: Vec<Bytes> = vec![Bytes::new(); size];
            parts[root] = data;
            for (r, part) in parts.iter_mut().enumerate() {
                if r != root {
                    *part = self.coll_recv(r, seq, PH_GATHER, clock);
                }
            }
            Some(parts)
        } else {
            self.coll_send(root, seq, PH_GATHER, data, clock);
            None
        };
        trace::end(EventKind::MpiGather, clock.now());
        out
    }

    /// Allgather byte strings: gather at rank 0, then broadcast the
    /// concatenation (with a tiny length header per rank).
    pub fn allgather_bytes(&self, data: Bytes, clock: &mut VClock) -> Vec<Bytes> {
        let parts = self.gather_bytes(0, data, clock);
        let mut blob = Bytes::new();
        if self.rank() == 0 {
            let parts = parts.expect("root gathers");
            let mut w = crate::datatype::Writer::new();
            w.u32(parts.len() as u32);
            for p in &parts {
                w.lp_bytes(p);
            }
            blob = w.finish();
        }
        self.bcast_bytes(0, &mut blob, clock);
        let mut r = crate::datatype::Reader::new(&blob);
        let n = r.u32() as usize;
        (0..n)
            .map(|_| Bytes::copy_from_slice(r.lp_bytes()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_net::{Fabric, MsgClass, NetProfile};
    use std::sync::Arc;

    fn run_all<R: Send + 'static>(
        n: usize,
        f: impl Fn(Arc<Communicator>, &mut VClock) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        run_on(Fabric::new(n, NetProfile::clan_via()), None, f)
    }

    fn run_on<R: Send + 'static>(
        fabric: Arc<Fabric>,
        topo: Option<Arc<CollectiveTopology>>,
        f: impl Fn(Arc<Communicator>, &mut VClock) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..fabric.nodes())
            .map(|i| {
                let comm = Arc::new(match &topo {
                    Some(t) => Communicator::with_topology(fabric.endpoint(i), Arc::clone(t)),
                    None => Communicator::new(fabric.endpoint(i)),
                });
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    let mut clk = VClock::manual();
                    f(comm, &mut clk)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn barrier_completes_at_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8] {
            run_all(n, |c, clk| {
                for _ in 0..3 {
                    c.barrier(clk);
                }
            });
        }
    }

    #[test]
    fn collectives_survive_a_lossy_fabric() {
        use parade_net::{ChaosKnobs, ChaosProfile, VTime};
        let chaos = ChaosProfile {
            base: ChaosKnobs {
                drop: 0.10,
                duplicate: 0.05,
                reorder: 0.10,
                delay: 0.20,
                delay_jitter: VTime::from_micros(30),
            },
            ..ChaosProfile::lossy(0x5EED)
        };
        let fabric = Fabric::with_chaos(4, NetProfile::clan_via(), chaos);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let comm = Arc::new(Communicator::new(fabric.endpoint(i)));
                std::thread::spawn(move || {
                    let mut clk = VClock::manual();
                    let mut out = Vec::new();
                    for round in 0..10 {
                        comm.barrier(&mut clk);
                        let mut xs = vec![(comm.rank() + round) as f64; 4];
                        comm.bcast_f64s(round % comm.size(), &mut xs, &mut clk);
                        let s = comm.allreduce_f64(xs[0], ReduceOp::Sum, &mut clk);
                        out.push(s);
                    }
                    out
                })
            })
            .collect();
        let results: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every rank agrees, and the values match the chaos-free formula:
        // rank (round % 4) broadcasts (root + round), summed over 4 ranks.
        for (rank, r) in results.iter().enumerate() {
            for (round, v) in r.iter().enumerate() {
                let expect = 4.0 * ((round % 4) + round) as f64;
                assert_eq!(*v, expect, "rank {rank} round {round}");
            }
        }
        let h = fabric.stats().link_health_totals();
        assert!(
            h.retransmits + h.dup_drops + h.reseq_holds > 0,
            "a 10%-loss fabric must exercise the reliable channel: {h:?}"
        );
    }

    #[test]
    fn bcast_delivers_root_data() {
        for n in [1, 2, 3, 4, 7, 8] {
            let out = run_all(n, |c, clk| {
                let mut xs = if c.rank() == 2 % c.size() {
                    vec![1.0, 2.0, 3.0]
                } else {
                    vec![0.0; 3]
                };
                c.bcast_f64s(2 % c.size(), &mut xs, clk);
                xs
            });
            for xs in out {
                assert_eq!(xs, vec![1.0, 2.0, 3.0], "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_sum_matches_sequential() {
        for n in [1, 2, 3, 4, 5, 8] {
            let out = run_all(n, |c, clk| {
                let mine = vec![c.rank() as f64, 1.0, -(c.rank() as f64)];
                let mut xs = mine;
                c.allreduce_f64s(&mut xs, ReduceOp::Sum, clk);
                xs
            });
            let expect = vec![
                (0..n).sum::<usize>() as f64,
                n as f64,
                -((0..n).sum::<usize>() as f64),
            ];
            for xs in out {
                assert_eq!(xs, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = run_all(5, |c, clk| {
            let lo = c.allreduce_i64(c.rank() as i64 * 3, ReduceOp::Min, clk);
            let hi = c.allreduce_i64(c.rank() as i64 * 3, ReduceOp::Max, clk);
            (lo, hi)
        });
        for (lo, hi) in out {
            assert_eq!((lo, hi), (0, 12));
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_all(4, |c, clk| {
            c.gather_bytes(1, Bytes::from(vec![c.rank() as u8; 2]), clk)
        });
        for (r, parts) in out.into_iter().enumerate() {
            if r == 1 {
                let parts = parts.unwrap();
                for (i, p) in parts.iter().enumerate() {
                    assert_eq!(&p[..], &[i as u8; 2]);
                }
            } else {
                assert!(parts.is_none());
            }
        }
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let out = run_all(3, |c, clk| {
            c.allgather_bytes(Bytes::from(vec![c.rank() as u8 + 10]), clk)
        });
        for parts in out {
            assert_eq!(parts.len(), 3);
            for (i, p) in parts.iter().enumerate() {
                assert_eq!(&p[..], &[i as u8 + 10]);
            }
        }
    }

    #[test]
    fn collectives_advance_virtual_time_with_cluster_size() {
        // A barrier on more nodes must take at least as long (same profile).
        let t2 = run_all(2, |c, clk| {
            c.barrier(clk);
            clk.now()
        });
        let t8 = run_all(8, |c, clk| {
            c.barrier(clk);
            clk.now()
        });
        let m2 = t2.into_iter().max().unwrap();
        let m8 = t8.into_iter().max().unwrap();
        assert!(m8 > m2, "8-node barrier {m8} should exceed 2-node {m2}");
    }

    /// One deterministic workload of mixed collectives; values are exact in
    /// f64 so any fold order yields bit-identical results.
    fn mixed_workload(c: &Communicator, clk: &mut VClock) -> Vec<u64> {
        let p = c.size();
        let mut seen = Vec::new();
        for round in 0..3 {
            c.barrier(clk);
            let s = c.allreduce_f64((c.rank() * 2 + round) as f64, ReduceOp::Sum, clk);
            seen.push(s.to_bits());
            let root = (round * 3) % p;
            let mut xs: Vec<f64> = if c.rank() == root {
                (0..p).map(|i| (round * 31 + i) as f64 * 0.5).collect()
            } else {
                vec![0.0; p]
            };
            c.bcast_f64s(root, &mut xs, clk);
            seen.extend(xs.iter().map(|x| x.to_bits()));
            let hi = c.allreduce_i64((c.rank() as i64) - round as i64, ReduceOp::Max, clk);
            seen.push(hi as u64);
        }
        seen
    }

    #[test]
    fn hierarchical_collectives_match_flat_results() {
        for (n, groups) in [
            (4, vec![vec![0, 1], vec![2, 3]]),
            (5, vec![vec![0, 1, 2], vec![3, 4]]),
            (6, vec![vec![0, 3], vec![1, 4, 5], vec![2]]),
            (7, vec![vec![0, 1, 2, 3, 4, 5, 6]]),
            (8, vec![vec![0, 1], vec![2], vec![3, 4, 5], vec![6, 7]]),
        ] {
            let flat = run_all(n, |c, clk| mixed_workload(&c, clk));
            let topo = Arc::new(CollectiveTopology::from_groups(n, groups.clone()));
            let fabric = Fabric::new(n, NetProfile::clan_via());
            let hier = run_on(fabric, Some(topo), |c, clk| mixed_workload(&c, clk));
            assert_eq!(hier, flat, "n={n} groups={groups:?}");
        }
    }

    #[test]
    fn hierarchical_barrier_sends_only_leader_messages() {
        // 8 ranks in two groups of 4: exactly L·⌈log₂L⌉ = 2 fabric
        // messages per barrier, all from the leaders; a fallback to the
        // flat path would send 8·3 = 24.
        let topo = Arc::new(CollectiveTopology::uniform(8, 4));
        let fabric = Fabric::new(8, NetProfile::clan_via());
        let stats = Arc::clone(&fabric);
        run_on(fabric, Some(topo), |c, clk| {
            for _ in 0..5 {
                c.barrier(clk);
            }
        });
        let coll = |i: usize| stats.stats().node(i).class_totals(MsgClass::Coll).msgs;
        assert_eq!(coll(0), 5, "leader 0 sends one message per barrier");
        assert_eq!(coll(4), 5, "leader 4 sends one message per barrier");
        for i in [1, 2, 3, 5, 6, 7] {
            assert_eq!(coll(i), 0, "non-leader {i} must stay off the fabric");
        }
    }

    #[test]
    fn singleton_topology_degenerates_to_flat() {
        // All-singleton groups: the communicator must take the flat path
        // (same messages, no shared-memory combine overhead).
        let topo = Arc::new(CollectiveTopology::flat(4));
        let fabric = Fabric::new(4, NetProfile::clan_via());
        let stats = Arc::clone(&fabric);
        let out = run_on(fabric, Some(topo), |c, clk| {
            c.barrier(clk);
            c.allreduce_i64(c.rank() as i64, ReduceOp::Sum, clk)
        });
        assert!(out.iter().all(|&s| s == 6));
        // Flat dissemination barrier: every rank sends ⌈log₂4⌉ = 2.
        let total: u64 = (0..4)
            .map(|i| stats.stats().node(i).class_totals(MsgClass::Coll).msgs)
            .sum();
        assert!(total >= 8, "flat barrier alone sends 8 messages: {total}");
    }

    #[test]
    fn hierarchical_collectives_agree_on_closed_forms() {
        // Non-power-of-two world, non-uniform groups; check against the
        // sequential formulas rather than another run.
        let topo = Arc::new(CollectiveTopology::from_groups(
            6,
            vec![vec![0, 1, 2, 3], vec![4, 5]],
        ));
        let fabric = Fabric::new(6, NetProfile::clan_via());
        let out = run_on(fabric, Some(topo), |c, clk| {
            let sum = c.allreduce_f64(c.rank() as f64, ReduceOp::Sum, clk);
            let min = c.allreduce_i64(10 - c.rank() as i64, ReduceOp::Min, clk);
            let mut xs = if c.rank() == 5 {
                vec![2.5, -1.0]
            } else {
                vec![0.0; 2]
            };
            c.bcast_f64s(5, &mut xs, clk);
            c.barrier(clk);
            (sum, min, xs)
        });
        for (sum, min, xs) in out {
            assert_eq!(sum, 15.0);
            assert_eq!(min, 5);
            assert_eq!(xs, vec![2.5, -1.0]);
        }
    }

    /// Sequential fold in the order a binomial reduce to position 0
    /// associates: in the round with `mask`, block `[lo, lo + 2·mask)`
    /// becomes lower half ⊕ upper half.
    fn binomial_fold<T: Clone>(xs: &[T], f: impl Fn(&T, &T) -> T) -> T {
        let mut vals = xs.to_vec();
        let mut mask = 1;
        while mask < vals.len() {
            for lo in (0..vals.len()).step_by(2 * mask) {
                if lo + mask < vals.len() {
                    vals[lo] = f(&vals[lo], &vals[lo + mask]);
                }
            }
            mask <<= 1;
        }
        vals[0].clone()
    }

    /// The reference a topology's allreduce must reproduce: each group
    /// folded left in member order, then the groups binomially in leader
    /// order (all-singleton groups make this the flat reference).
    fn grouped_fold<T: Clone>(t: &CollectiveTopology, xs: &[T], f: impl Fn(&T, &T) -> T) -> T {
        let per_group: Vec<T> = t
            .leaders()
            .iter()
            .map(|&l| {
                let members = t.group_members(l);
                let first = xs[members[0]].clone();
                members[1..].iter().fold(first, |acc, &m| f(&acc, &xs[m]))
            })
            .collect();
        binomial_fold(&per_group, f)
    }

    /// A ragged placement of `p` ranks: ranks in a scrambled order, cut
    /// into groups of 2, 1, 3, 2, 1, 3, … members.
    fn ragged_topology(p: usize) -> CollectiveTopology {
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by_key(|&r| (r * 7 + 3) % 13);
        let mut groups = Vec::new();
        let mut rest = &order[..];
        for width in [2, 1, 3].into_iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (g, tail) = rest.split_at(width.min(rest.len()));
            groups.push(g.to_vec());
            rest = tail;
        }
        CollectiveTopology::from_groups(p, groups)
    }

    /// Operands whose sum depends on the association: `1e16 + 1.1` loses
    /// the fraction, `1e16 - 1e16` does not.
    fn operand(rank: usize) -> [f64; 3] {
        let v = [1e16, 1.1, -1e16];
        [v[rank % 3], v[(rank + 1) % 3], v[(rank + 2) % 3] * 0.5]
    }

    /// A non-commutative, non-associative combiner: the contribution is a
    /// byte string and combining writes the bracketed pair, so the result
    /// spells out the exact fold tree.
    fn bracket(acc: &mut Vec<u8>, other: &[u8]) {
        acc.insert(0, b'(');
        acc.push(b',');
        acc.extend_from_slice(other);
        acc.push(b')');
    }

    fn label(rank: usize) -> Vec<u8> {
        format!("r{rank}").into_bytes()
    }

    #[test]
    fn allreduce_is_bitwise_the_binomial_fold_for_every_size() {
        let add = |a: &[f64; 3], b: &[f64; 3]| [a[0] + b[0], a[1] + b[1], a[2] + b[2]];
        let pair = |a: &Vec<u8>, b: &Vec<u8>| {
            let mut acc = a.clone();
            bracket(&mut acc, b);
            acc
        };
        for p in 1..=13 {
            let xs: Vec<[f64; 3]> = (0..p).map(operand).collect();
            let labels: Vec<Vec<u8>> = (0..p).map(label).collect();
            for topo in [CollectiveTopology::flat(p), ragged_topology(p)] {
                let want_sum = grouped_fold(&topo, &xs, add).map(f64::to_bits);
                let want_tree = grouped_fold(&topo, &labels, pair);
                let topo = Arc::new(topo);
                let fabric = Fabric::new(p, NetProfile::clan_via());
                let out = run_on(fabric, Some(Arc::clone(&topo)), |c, clk| {
                    let mut xs = operand(c.rank());
                    c.allreduce_f64s(&mut xs, ReduceOp::Sum, clk);
                    let mut tree = label(c.rank());
                    c.allreduce_with(&mut tree, &bracket, clk);
                    (xs.map(f64::to_bits), tree)
                });
                for (rank, (sum, tree)) in out.into_iter().enumerate() {
                    let groups = topo.num_groups();
                    assert_eq!(sum, want_sum, "p={p} groups={groups} rank {rank}");
                    assert_eq!(
                        String::from_utf8(tree).unwrap(),
                        String::from_utf8(want_tree.clone()).unwrap(),
                        "p={p} groups={groups} rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn allreduce_sends_p_log_p_messages() {
        // Recursive doubling: every rank sends one message per round when
        // P is a power of two — P·⌈log₂P⌉ in total, against 2(P−1) for
        // reduce-then-broadcast, in ⌈log₂P⌉ hops instead of 2⌈log₂P⌉.
        for (p, want) in [(2, 2), (4, 8), (8, 24), (3, 3 + 2), (6, 6 + 4 + 6)] {
            let fabric = Fabric::new(p, NetProfile::clan_via());
            let stats = Arc::clone(&fabric);
            run_on(fabric, None, |c, clk| {
                c.allreduce_i64(1, ReduceOp::Sum, clk)
            });
            let sent: u64 = (0..p)
                .map(|i| stats.stats().node(i).class_totals(MsgClass::Coll).msgs)
                .sum();
            assert_eq!(sent, want, "p={p}");
        }
    }

    #[test]
    fn struct_reduce_user_op() {
        // Paper §4.2: several reduction variables merged into one struct and
        // reduced with a user-defined operation. Emulate (sum, max) pairs.
        let out = run_all(4, |c, clk| {
            let mut buf =
                crate::datatype::f64s_to_bytes(&[c.rank() as f64, c.rank() as f64]).to_vec();
            let combine = |acc: &mut Vec<u8>, other: &[u8]| {
                let a = crate::datatype::bytes_to_f64s(acc);
                let b = crate::datatype::bytes_to_f64s(other);
                let merged = [a[0] + b[0], a[1].max(b[1])];
                acc.clear();
                acc.extend_from_slice(&crate::datatype::f64s_to_bytes(&merged));
            };
            c.allreduce_with(&mut buf, &combine, clk);
            crate::datatype::bytes_to_f64s(&buf)
        });
        for xs in out {
            assert_eq!(xs, vec![6.0, 3.0]);
        }
    }
}
