//! Wire format of the SDSM protocol messages.
//!
//! Requests travel on `MsgClass::Dsm` and are serviced by the destination
//! node's communication thread; replies travel on `MsgClass::Ctl` tagged
//! with a requester-chosen reply tag (tags ≥ [`REPLY_TAG_BASE`] so they
//! never collide with cluster control tags).
//!
//! Release-path traffic is batched: a flush groups the diffs of all dirty
//! pages homed on one node into a single [`DsmMsg::DiffBatch`] answered by
//! one [`DsmReply::DiffBatchAck`] — the HLRC amortization argument (§5.2)
//! applied to the wire. [`DsmMsg::ReqPageRange`] likewise coalesces fetches
//! of contiguous pages with a common home into one round trip.
//!
//! Synchronisation metadata is run-length encoded: the page lists of
//! [`DsmMsg::BarrierArrive`], [`DsmMsg::BarrierUp`], [`DsmMsg::LockRel`],
//! [`DsmReply::LockGrant`] and [`DsmReply::BarrierDepart`] travel as
//! maximal runs of consecutive pages carrying identical attached data, so a
//! barrier over a contiguous written block costs a few bytes instead of
//! ~20 per page. Only the wire changes; decoding restores the exact list.

use parade_net::Bytes;

use parade_mpi::datatype::{Reader, Writer};

use crate::diff::{need, DecodeError, Diff};
use crate::page::{PageId, PAGE_SIZE};

/// Reply tags live above this base; cluster control uses tags below it.
pub const REPLY_TAG_BASE: u64 = 1 << 32;

const K_REQ_PAGE: u8 = 1;
const K_DIFF: u8 = 2;
const K_PAGE_PUSH: u8 = 3;
const K_BARRIER_ARRIVE: u8 = 4;
const K_LOCK_ACQ: u8 = 5;
const K_LOCK_REL: u8 = 6;
const K_NUDGE: u8 = 7;
const K_DIFF_BATCH: u8 = 8;
const K_REQ_PAGE_RANGE: u8 = 9;
const K_BARRIER_UP: u8 = 10;
const K_PUSH_REQ: u8 = 11;

/// A request handled by a communication thread.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmMsg {
    /// Fetch the up-to-date copy of `page` from its home.
    ReqPage {
        page: PageId,
        requester: usize,
        reply_tag: u64,
    },
    /// Fetch `count` contiguous pages starting at `first`, all homed on the
    /// destination (fault-storm coalescing; one round trip per run).
    ReqPageRange {
        first: PageId,
        count: u32,
        requester: usize,
        reply_tag: u64,
    },
    /// Merge a diff into the home copy of `page`.
    Diff {
        page: PageId,
        requester: usize,
        reply_tag: u64,
        diff: Diff,
    },
    /// Merge diffs for several pages homed here, acknowledged as one unit
    /// (`pages[i]` pairs with `diffs[i]`; one ack per batch, not per page).
    DiffBatch {
        requester: usize,
        reply_tag: u64,
        pages: Vec<PageId>,
        diffs: Vec<Diff>,
    },
    /// Full-page content pushed to a migrated home (multi-writer case).
    PagePush {
        page: PageId,
        barrier_seq: u64,
        data: Bytes,
    },
    /// A migrated-to home discovered its own copy was invalid at the
    /// departure (a lock-grant write notice can invalidate even the single
    /// writer's copy under false sharing) and asks the old home — which
    /// still holds the merged bytes — to [`DsmMsg::PagePush`] them over.
    PushReq {
        page: PageId,
        barrier_seq: u64,
        requester: usize,
    },
    /// Barrier arrival at the master, write notices piggybacked (§5.2.2).
    /// `reads` carries the pages this node fetched since its previous
    /// arrival — the sharer observations feeding the root's per-page
    /// protocol table (adaptive update/invalidate selection).
    BarrierArrive {
        seq: u64,
        node: usize,
        reply_tag: u64,
        notices: Vec<PageId>,
        reads: Vec<PageId>,
    },
    /// Hierarchical barrier: a subtree's aggregated arrivals, sent by a
    /// communication thread to its parent in the binomial tree. `members`
    /// lists every (node, reply tag) in the subtree awaiting the departure;
    /// `writers` carries the merged write notices as (page, writer nodes)
    /// and `readers` the merged read observations in the same shape.
    BarrierUp {
        seq: u64,
        members: Vec<(usize, u64)>,
        writers: Vec<(PageId, Vec<usize>)>,
        readers: Vec<(PageId, Vec<usize>)>,
    },
    /// Acquire a distributed lock (baseline SDSM path); the manager
    /// queues the request until the lock is free.
    LockAcq {
        lock: u64,
        node: usize,
        reply_tag: u64,
        last_seen: u64,
    },
    /// Release a distributed lock, carrying write notices for the pages
    /// modified in the critical section.
    LockRel {
        lock: u64,
        node: usize,
        notices: Vec<PageId>,
    },
    /// Local self-message: retry deferred requests after a barrier depart.
    Nudge,
}

/// Upper bound on what one run-encoded list may expand to on decode,
/// counted as one entry per page plus one per node id attached to it (the
/// default 64 MiB pool has 16384 pages). Guards the allocation a few bytes
/// of run headers could otherwise request.
const MAX_LIST_ENTRIES: usize = 1 << 20;

/// Encode a page-keyed list as maximal runs of consecutive pages that carry
/// identical attached data. A run merges `items[i + 1]` into `items[i]`'s
/// run only when its page is exactly one higher and `same` holds, so any
/// list order round-trips unchanged. Wire shape: a `u32` run count, then
/// per run the first page (`u64`), the attached data, and the run length
/// (`u32`).
fn encode_runs<T>(
    w: &mut Writer,
    items: &[T],
    page: impl Fn(&T) -> PageId,
    same: impl Fn(&T, &T) -> bool,
    mut data: impl FnMut(&mut Writer, &T),
) {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=items.len() {
        let (prev, next) = (&items[i - 1], items.get(i));
        let extends =
            next.is_some_and(|n| page(prev).checked_add(1) == Some(page(n)) && same(prev, n));
        if !extends {
            runs.push((start, i - start));
            start = i;
        }
    }
    w.u32(runs.len() as u32);
    for (start, len) in runs {
        w.u64(page(&items[start]) as u64);
        data(w, &items[start]);
        w.u32(len as u32);
    }
}

/// Decode a list written by [`encode_runs`], handing every expanded page
/// and its run's data to `emit`. `min_run` is the smallest encoded run, so
/// the run count is checked against the bytes that must back it; `weight`
/// is the number of entries one page with that data expands to. Empty or
/// overflowing runs and lists past [`MAX_LIST_ENTRIES`] are rejected.
fn decode_runs<T>(
    r: &mut Reader<'_>,
    min_run: usize,
    mut read_data: impl FnMut(&mut Reader<'_>) -> Result<T, DecodeError>,
    weight: impl Fn(&T) -> usize,
    mut emit: impl FnMut(PageId, &T),
) -> Result<(), DecodeError> {
    need(r, 4, "run count")?;
    let n = r.u32();
    if (n as usize).saturating_mul(min_run) > r.remaining() {
        return Err(DecodeError::RunCount {
            count: n,
            have: r.remaining(),
        });
    }
    let mut entries = 0usize;
    for _ in 0..n {
        need(r, 8, "run first page")?;
        let first = r.u64();
        let data = read_data(r)?;
        need(r, 4, "run length")?;
        let count = r.u32();
        let end = first
            .checked_add(count as u64)
            .filter(|_| count > 0)
            .ok_or(DecodeError::BadPageRun { first, count })?;
        entries = entries.saturating_add((count as usize).saturating_mul(weight(&data)));
        if entries > MAX_LIST_ENTRIES {
            return Err(DecodeError::ListTooLong { entries });
        }
        for p in first..end {
            emit(p as PageId, &data);
        }
    }
    Ok(())
}

/// A plain page list (write notices, read observations) as runs.
fn encode_pages(w: &mut Writer, pages: &[PageId]) {
    encode_runs(w, pages, |p| *p, |_, _| true, |_, _| {});
}

fn decode_pages(r: &mut Reader<'_>) -> Result<Vec<PageId>, DecodeError> {
    let mut out = Vec::new();
    decode_runs(r, 12, |_| Ok(()), |_| 1, |p, _| out.push(p))?;
    Ok(out)
}

fn encode_nodes(w: &mut Writer, nodes: &[usize]) {
    w.u32(nodes.len() as u32);
    for n in nodes {
        w.u32(*n as u32);
    }
}

fn decode_nodes(r: &mut Reader<'_>) -> Result<Vec<usize>, DecodeError> {
    need(r, 4, "node count")?;
    let count = r.u32();
    if (count as usize).saturating_mul(4) > r.remaining() {
        return Err(DecodeError::RunCount {
            count,
            have: r.remaining(),
        });
    }
    Ok((0..count).map(|_| r.u32() as usize).collect())
}

/// Encode a `(page, nodes)` list — the shared shape of `BarrierUp`
/// writers and readers — as runs carrying one node list each.
fn encode_page_nodes(w: &mut Writer, list: &[(PageId, Vec<usize>)]) {
    encode_runs(
        w,
        list,
        |e| e.0,
        |a, b| a.1 == b.1,
        |w, e| encode_nodes(w, &e.1),
    );
}

fn decode_page_nodes(r: &mut Reader<'_>) -> Result<Vec<(PageId, Vec<usize>)>, DecodeError> {
    let mut out = Vec::new();
    decode_runs(
        r,
        16,
        decode_nodes,
        |nodes| 1 + nodes.len(),
        |p, nodes| out.push((p, nodes.clone())),
    )?;
    Ok(out)
}

impl DsmMsg {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            DsmMsg::ReqPage {
                page,
                requester,
                reply_tag,
            } => {
                w.u8(K_REQ_PAGE)
                    .u64(*page as u64)
                    .u32(*requester as u32)
                    .u64(*reply_tag);
            }
            DsmMsg::ReqPageRange {
                first,
                count,
                requester,
                reply_tag,
            } => {
                w.u8(K_REQ_PAGE_RANGE)
                    .u64(*first as u64)
                    .u32(*count)
                    .u32(*requester as u32)
                    .u64(*reply_tag);
            }
            DsmMsg::Diff {
                page,
                requester,
                reply_tag,
                diff,
            } => {
                w.u8(K_DIFF)
                    .u64(*page as u64)
                    .u32(*requester as u32)
                    .u64(*reply_tag);
                diff.encode(&mut w);
            }
            DsmMsg::DiffBatch {
                requester,
                reply_tag,
                pages,
                diffs,
            } => {
                debug_assert_eq!(pages.len(), diffs.len());
                w.u8(K_DIFF_BATCH)
                    .u32(*requester as u32)
                    .u64(*reply_tag)
                    .u32(pages.len() as u32);
                for (page, diff) in pages.iter().zip(diffs) {
                    w.u64(*page as u64);
                    diff.encode(&mut w);
                }
            }
            DsmMsg::PagePush {
                page,
                barrier_seq,
                data,
            } => {
                w.u8(K_PAGE_PUSH)
                    .u64(*page as u64)
                    .u64(*barrier_seq)
                    .lp_bytes(data);
            }
            DsmMsg::PushReq {
                page,
                barrier_seq,
                requester,
            } => {
                w.u8(K_PUSH_REQ)
                    .u64(*page as u64)
                    .u64(*barrier_seq)
                    .u32(*requester as u32);
            }
            DsmMsg::BarrierArrive {
                seq,
                node,
                reply_tag,
                notices,
                reads,
            } => {
                w.u8(K_BARRIER_ARRIVE)
                    .u64(*seq)
                    .u32(*node as u32)
                    .u64(*reply_tag);
                encode_pages(&mut w, notices);
                encode_pages(&mut w, reads);
            }
            DsmMsg::BarrierUp {
                seq,
                members,
                writers,
                readers,
            } => {
                w.u8(K_BARRIER_UP).u64(*seq).u32(members.len() as u32);
                for (node, tag) in members {
                    w.u32(*node as u32).u64(*tag);
                }
                encode_page_nodes(&mut w, writers);
                encode_page_nodes(&mut w, readers);
            }
            DsmMsg::LockAcq {
                lock,
                node,
                reply_tag,
                last_seen,
            } => {
                w.u8(K_LOCK_ACQ)
                    .u64(*lock)
                    .u32(*node as u32)
                    .u64(*reply_tag)
                    .u64(*last_seen);
            }
            DsmMsg::LockRel {
                lock,
                node,
                notices,
            } => {
                w.u8(K_LOCK_REL).u64(*lock).u32(*node as u32);
                encode_pages(&mut w, notices);
            }
            DsmMsg::Nudge => {
                w.u8(K_NUDGE);
            }
        }
        w.finish()
    }

    /// Decode a trusted (in-process) payload; panics with the structured
    /// error on corruption — the fabric delivers messages intact, so this
    /// indicates a local protocol bug, not a remote peer's bytes.
    pub fn decode(b: &[u8]) -> DsmMsg {
        match DsmMsg::try_decode(b) {
            Ok(m) => m,
            Err(e) => panic!("bad dsm message: {e}"),
        }
    }

    /// Decode an untrusted payload. Every length, count, and run is
    /// validated; malformed bytes yield a [`DecodeError`], never a panic
    /// or an unbounded allocation.
    pub fn try_decode(b: &[u8]) -> Result<DsmMsg, DecodeError> {
        let mut r = Reader::new(b);
        need(&r, 1, "message kind")?;
        match r.u8() {
            K_REQ_PAGE => {
                need(&r, 20, "ReqPage body")?;
                Ok(DsmMsg::ReqPage {
                    page: r.u64() as PageId,
                    requester: r.u32() as usize,
                    reply_tag: r.u64(),
                })
            }
            K_REQ_PAGE_RANGE => {
                need(&r, 24, "ReqPageRange body")?;
                Ok(DsmMsg::ReqPageRange {
                    first: r.u64() as PageId,
                    count: r.u32(),
                    requester: r.u32() as usize,
                    reply_tag: r.u64(),
                })
            }
            K_DIFF => {
                need(&r, 20, "Diff header")?;
                Ok(DsmMsg::Diff {
                    page: r.u64() as PageId,
                    requester: r.u32() as usize,
                    reply_tag: r.u64(),
                    diff: Diff::decode(&mut r)?,
                })
            }
            K_DIFF_BATCH => {
                need(&r, 16, "DiffBatch header")?;
                let requester = r.u32() as usize;
                let reply_tag = r.u64();
                let n = r.u32() as usize;
                // Each entry is at least a page id plus an empty diff.
                if n.saturating_mul(12) > r.remaining() {
                    return Err(DecodeError::RunCount {
                        count: n as u32,
                        have: r.remaining(),
                    });
                }
                let mut pages = Vec::with_capacity(n);
                let mut diffs = Vec::with_capacity(n);
                for _ in 0..n {
                    need(&r, 8, "DiffBatch page id")?;
                    pages.push(r.u64() as PageId);
                    diffs.push(Diff::decode(&mut r)?);
                }
                Ok(DsmMsg::DiffBatch {
                    requester,
                    reply_tag,
                    pages,
                    diffs,
                })
            }
            K_PAGE_PUSH => {
                need(&r, 20, "PagePush header")?;
                let page = r.u64() as PageId;
                let barrier_seq = r.u64();
                let len = r.u32() as usize;
                need(&r, len, "PagePush data")?;
                Ok(DsmMsg::PagePush {
                    page,
                    barrier_seq,
                    data: Bytes::copy_from_slice(r.bytes(len)),
                })
            }
            K_BARRIER_ARRIVE => {
                need(&r, 20, "BarrierArrive header")?;
                let seq = r.u64();
                let node = r.u32() as usize;
                let reply_tag = r.u64();
                let notices = decode_pages(&mut r)?;
                let reads = decode_pages(&mut r)?;
                Ok(DsmMsg::BarrierArrive {
                    seq,
                    node,
                    reply_tag,
                    notices,
                    reads,
                })
            }
            K_BARRIER_UP => {
                need(&r, 12, "BarrierUp header")?;
                let seq = r.u64();
                let nm = r.u32() as usize;
                if nm.saturating_mul(12) > r.remaining() {
                    return Err(DecodeError::RunCount {
                        count: nm as u32,
                        have: r.remaining(),
                    });
                }
                let members = (0..nm)
                    .map(|_| need(&r, 12, "BarrierUp member").map(|_| (r.u32() as usize, r.u64())))
                    .collect::<Result<Vec<_>, _>>()?;
                let writers = decode_page_nodes(&mut r)?;
                let readers = decode_page_nodes(&mut r)?;
                Ok(DsmMsg::BarrierUp {
                    seq,
                    members,
                    writers,
                    readers,
                })
            }
            K_LOCK_ACQ => {
                need(&r, 28, "LockAcq body")?;
                Ok(DsmMsg::LockAcq {
                    lock: r.u64(),
                    node: r.u32() as usize,
                    reply_tag: r.u64(),
                    last_seen: r.u64(),
                })
            }
            K_LOCK_REL => {
                need(&r, 12, "LockRel header")?;
                let lock = r.u64();
                let node = r.u32() as usize;
                let notices = decode_pages(&mut r)?;
                Ok(DsmMsg::LockRel {
                    lock,
                    node,
                    notices,
                })
            }
            K_PUSH_REQ => {
                need(&r, 20, "PushReq body")?;
                Ok(DsmMsg::PushReq {
                    page: r.u64() as PageId,
                    barrier_seq: r.u64(),
                    requester: r.u32() as usize,
                })
            }
            K_NUDGE => Ok(DsmMsg::Nudge),
            k => Err(DecodeError::BadKind(k)),
        }
    }
}

const R_PAGE_DATA: u8 = 1;
const R_DIFF_ACK: u8 = 2;
const R_BARRIER_DEPART: u8 = 3;
const R_LOCK_GRANT: u8 = 4;
const R_DIFF_BATCH_ACK: u8 = 6;
const R_PAGE_RANGE_DATA: u8 = 7;

/// One per-page record in a barrier departure message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepartEntry {
    pub page: PageId,
    pub old_home: usize,
    pub new_home: usize,
    /// More than one node wrote the page this interval.
    pub multi_writer: bool,
    /// Update protocol: the home pushes the merged page to `sharers`
    /// (which park on `BLOCKED` awaiting it); every other cached copy
    /// invalidates as usual. `false` → classic invalidate write notice.
    pub update: bool,
    /// Sorted push set for `update` entries (never contains the home).
    pub sharers: Vec<usize>,
}

impl DepartEntry {
    /// An invalidate-protocol entry (the pre-adaptive shape).
    pub fn invalidate(
        page: PageId,
        old_home: usize,
        new_home: usize,
        multi_writer: bool,
    ) -> DepartEntry {
        DepartEntry {
            page,
            old_home,
            new_home,
            multi_writer,
            update: false,
            sharers: Vec::new(),
        }
    }

    /// Same decision for a (different) page: the fields a run of
    /// departure entries shares on the wire.
    fn same_decision(&self, other: &DepartEntry) -> bool {
        self.old_home == other.old_home
            && self.new_home == other.new_home
            && self.multi_writer == other.multi_writer
            && self.update == other.update
            && self.sharers == other.sharers
    }
}

/// A reply sent back to a waiting application thread.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmReply {
    PageData {
        page: PageId,
        data: Bytes,
    },
    /// `count` contiguous pages starting at `first`, concatenated.
    PageRangeData {
        first: PageId,
        data: Bytes,
    },
    DiffAck {
        page: PageId,
    },
    /// Acknowledges a whole [`DsmMsg::DiffBatch`] — the one-ack-per-home
    /// invariant of the batched release path.
    DiffBatchAck {
        pages: u32,
    },
    /// Global write-notice/migration summary; every node derives its own
    /// invalidations, home updates, and push duties from it (§5.2.2).
    BarrierDepart {
        seq: u64,
        entries: Vec<DepartEntry>,
    },
    LockGrant {
        cur_seq: u64,
        notices: Vec<PageId>,
    },
}

impl DsmReply {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            DsmReply::PageData { page, data } => {
                w.u8(R_PAGE_DATA).u64(*page as u64).lp_bytes(data);
            }
            DsmReply::PageRangeData { first, data } => {
                debug_assert_eq!(data.len() % PAGE_SIZE, 0);
                w.u8(R_PAGE_RANGE_DATA).u64(*first as u64).lp_bytes(data);
            }
            DsmReply::DiffAck { page } => {
                w.u8(R_DIFF_ACK).u64(*page as u64);
            }
            DsmReply::DiffBatchAck { pages } => {
                w.u8(R_DIFF_BATCH_ACK).u32(*pages);
            }
            DsmReply::BarrierDepart { seq, entries } => {
                w.u8(R_BARRIER_DEPART).u64(*seq);
                encode_runs(
                    &mut w,
                    entries,
                    |e| e.page,
                    DepartEntry::same_decision,
                    |w, e| {
                        let flags = e.multi_writer as u8 | (e.update as u8) << 1;
                        w.u32(e.old_home as u32).u32(e.new_home as u32).u8(flags);
                        encode_nodes(w, &e.sharers);
                    },
                );
            }
            DsmReply::LockGrant { cur_seq, notices } => {
                w.u8(R_LOCK_GRANT).u64(*cur_seq);
                encode_pages(&mut w, notices);
            }
        }
        w.finish()
    }

    pub fn decode(b: &[u8]) -> DsmReply {
        let mut r = Reader::new(b);
        match r.u8() {
            R_PAGE_DATA => DsmReply::PageData {
                page: r.u64() as PageId,
                data: Bytes::copy_from_slice(r.lp_bytes()),
            },
            R_PAGE_RANGE_DATA => DsmReply::PageRangeData {
                first: r.u64() as PageId,
                data: Bytes::copy_from_slice(r.lp_bytes()),
            },
            R_DIFF_ACK => DsmReply::DiffAck {
                page: r.u64() as PageId,
            },
            R_DIFF_BATCH_ACK => DsmReply::DiffBatchAck { pages: r.u32() },
            R_BARRIER_DEPART => {
                let seq = r.u64();
                let mut entries = Vec::new();
                // A run's decision, read into an entry whose page the
                // expansion fills in.
                let read_decision = |r: &mut Reader<'_>| {
                    need(r, 9, "depart entry")?;
                    let old_home = r.u32() as usize;
                    let new_home = r.u32() as usize;
                    let flags = r.u8();
                    Ok(DepartEntry {
                        page: 0,
                        old_home,
                        new_home,
                        multi_writer: flags & 1 != 0,
                        update: flags & 2 != 0,
                        sharers: decode_nodes(r)?,
                    })
                };
                decode_runs(
                    &mut r,
                    25,
                    read_decision,
                    |d| 1 + d.sharers.len(),
                    |page, d| entries.push(DepartEntry { page, ..d.clone() }),
                )
                .unwrap_or_else(|e| panic!("bad dsm reply: {e}"));
                DsmReply::BarrierDepart { seq, entries }
            }
            R_LOCK_GRANT => {
                let cur_seq = r.u64();
                let notices = decode_pages(&mut r).unwrap_or_else(|e| panic!("bad dsm reply: {e}"));
                DsmReply::LockGrant { cur_seq, notices }
            }
            k => unreachable!("bad dsm reply kind {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use parade_testkit::rng::TestRng;

    fn page_diff(touch: &[usize]) -> Diff {
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        for &i in touch {
            cur[i] = 3;
        }
        Diff::create(&twin, &cur)
    }

    #[test]
    fn msg_roundtrips() {
        let msgs = vec![
            DsmMsg::ReqPage {
                page: 42,
                requester: 3,
                reply_tag: REPLY_TAG_BASE + 7,
            },
            DsmMsg::ReqPageRange {
                first: 40,
                count: 6,
                requester: 2,
                reply_tag: REPLY_TAG_BASE + 9,
            },
            DsmMsg::Diff {
                page: 9,
                requester: 1,
                reply_tag: REPLY_TAG_BASE,
                diff: page_diff(&[8]),
            },
            DsmMsg::DiffBatch {
                requester: 2,
                reply_tag: REPLY_TAG_BASE + 3,
                pages: vec![4, 9, 11],
                diffs: vec![page_diff(&[8]), page_diff(&[0, 4088]), page_diff(&[16])],
            },
            DsmMsg::PagePush {
                page: 5,
                barrier_seq: 12,
                data: Bytes::from(vec![7u8; PAGE_SIZE]),
            },
            DsmMsg::BarrierArrive {
                seq: 4,
                node: 2,
                reply_tag: REPLY_TAG_BASE + 1,
                notices: vec![1, 2, 30],
                reads: vec![5, 6],
            },
            DsmMsg::BarrierUp {
                seq: 9,
                members: vec![(2, REPLY_TAG_BASE + 4), (3, REPLY_TAG_BASE + 5)],
                writers: vec![(7, vec![2]), (8, vec![2, 3])],
                readers: vec![(7, vec![3])],
            },
            DsmMsg::BarrierUp {
                seq: 10,
                members: vec![(1, REPLY_TAG_BASE)],
                writers: vec![],
                readers: vec![],
            },
            DsmMsg::LockAcq {
                lock: 6,
                node: 0,
                reply_tag: REPLY_TAG_BASE + 2,
                last_seen: 11,
            },
            DsmMsg::LockRel {
                lock: 6,
                node: 0,
                notices: vec![99],
            },
            DsmMsg::Nudge,
        ];
        for m in msgs {
            assert_eq!(DsmMsg::decode(&m.encode()), m);
        }
    }

    #[test]
    fn try_decode_rejects_bad_kind_and_truncation() {
        assert_eq!(DsmMsg::try_decode(&[0xEE]), Err(DecodeError::BadKind(0xEE)));
        assert!(matches!(
            DsmMsg::try_decode(&[]),
            Err(DecodeError::Truncated { .. })
        ));
        let full = DsmMsg::DiffBatch {
            requester: 1,
            reply_tag: REPLY_TAG_BASE,
            pages: vec![3, 7],
            diffs: vec![page_diff(&[8]), page_diff(&[24, 32])],
        }
        .encode();
        for cut in 0..full.len() {
            // No prefix may panic; (decoding a shorter valid message is
            // impossible here because the batch count is pinned early).
            let _ = DsmMsg::try_decode(&full[..cut]);
        }
    }

    #[test]
    fn try_decode_rejects_oversized_barrier_up_counts() {
        // Member count not backed by bytes.
        let mut w = Writer::new();
        w.u8(10).u64(3).u32(u32::MAX);
        assert!(matches!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::RunCount { .. })
        ));
        // Writer-node count not backed by bytes.
        let mut w = Writer::new();
        w.u8(10).u64(3).u32(0).u32(1).u64(5).u32(u32::MAX);
        assert!(matches!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::RunCount { .. })
        ));
        // Reader-list count not backed by bytes (after an empty writer
        // list).
        let mut w = Writer::new();
        w.u8(10).u64(3).u32(0).u32(0).u32(u32::MAX);
        assert!(matches!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::RunCount { .. })
        ));
        // No truncation of a valid message may panic.
        let full = DsmMsg::BarrierUp {
            seq: 2,
            members: vec![(0, REPLY_TAG_BASE), (1, REPLY_TAG_BASE + 1)],
            writers: vec![(4, vec![0, 1]), (6, vec![1])],
            readers: vec![(5, vec![0])],
        }
        .encode();
        for cut in 0..full.len() {
            let _ = DsmMsg::try_decode(&full[..cut]);
        }
    }

    #[test]
    fn try_decode_rejects_unbacked_batch_count() {
        let mut w = Writer::new();
        w.u8(8).u32(0).u64(REPLY_TAG_BASE).u32(u32::MAX);
        let b = w.finish();
        assert!(matches!(
            DsmMsg::try_decode(&b),
            Err(DecodeError::RunCount { .. })
        ));
    }

    /// A random page list of one of three shapes: sorted with occasional
    /// gaps, the same shuffled, or arbitrary (duplicates allowed).
    fn random_pages(rng: &mut TestRng) -> Vec<PageId> {
        let len = rng.range_usize(0, 40);
        let mut page = rng.range_usize(0, 1000);
        let mut pages: Vec<PageId> = (0..len)
            .map(|_| {
                page += if rng.below(4) == 0 {
                    rng.range_usize(2, 6)
                } else {
                    1
                };
                page
            })
            .collect();
        match rng.below(3) {
            0 => {}
            1 => {
                for i in (1..pages.len()).rev() {
                    pages.swap(i, rng.range_usize(0, i + 1));
                }
            }
            _ => pages.iter_mut().for_each(|p| *p = rng.range_usize(0, 64)),
        }
        pages
    }

    /// Few distinct node lists, so neighbouring pages often share one.
    fn random_nodes(rng: &mut TestRng) -> Vec<usize> {
        rng.choose(&[vec![0], vec![1], vec![0, 2], vec![]]).clone()
    }

    #[test]
    fn run_encoded_lists_roundtrip_in_any_order() {
        for case in 0..300 {
            let mut rng = TestRng::derive(0x5EED_0414, case);
            let page_nodes = |rng: &mut TestRng| -> Vec<(PageId, Vec<usize>)> {
                let pages = random_pages(rng);
                pages.into_iter().map(|p| (p, random_nodes(rng))).collect()
            };
            let msgs = vec![
                DsmMsg::BarrierArrive {
                    seq: case,
                    node: 1,
                    reply_tag: REPLY_TAG_BASE + case,
                    notices: random_pages(&mut rng),
                    reads: random_pages(&mut rng),
                },
                DsmMsg::BarrierUp {
                    seq: case,
                    members: vec![(1, REPLY_TAG_BASE)],
                    writers: page_nodes(&mut rng),
                    readers: page_nodes(&mut rng),
                },
                DsmMsg::LockRel {
                    lock: 3,
                    node: 2,
                    notices: random_pages(&mut rng),
                },
            ];
            for m in msgs {
                assert_eq!(DsmMsg::try_decode(&m.encode()), Ok(m), "case {case}");
            }
            let entries = random_pages(&mut rng)
                .into_iter()
                .map(|page| {
                    let old_home = rng.range_usize(0, 2);
                    let update = rng.below(3) == 0;
                    DepartEntry {
                        page,
                        old_home,
                        new_home: if rng.below(4) == 0 { 2 } else { old_home },
                        multi_writer: !update && rng.below(5) == 0,
                        update,
                        sharers: if update {
                            random_nodes(&mut rng)
                        } else {
                            vec![]
                        },
                    }
                })
                .collect();
            let replies = vec![
                DsmReply::BarrierDepart { seq: case, entries },
                DsmReply::LockGrant {
                    cur_seq: case,
                    notices: random_pages(&mut rng),
                },
            ];
            for r in replies {
                assert_eq!(DsmReply::decode(&r.encode()), r, "case {case}");
            }
        }
    }

    #[test]
    fn contiguous_departure_is_one_run_on_the_wire() {
        // A helmholtz-sized interval: 313 consecutive written pages that
        // all migrate from node 0 to node 1 cost one run, not 313 entries.
        let depart = DsmReply::BarrierDepart {
            seq: 7,
            entries: (100..413)
                .map(|p| DepartEntry::invalidate(p, 0, 1, false))
                .collect(),
        };
        let wire = depart.encode();
        assert!(wire.len() < 64, "{} bytes", wire.len());
        assert_eq!(DsmReply::decode(&wire), depart);
        // The arrival and tree-aggregation lists of the same interval.
        let arrive = DsmMsg::BarrierArrive {
            seq: 7,
            node: 1,
            reply_tag: REPLY_TAG_BASE,
            notices: (100..413).collect(),
            reads: vec![],
        };
        let up = DsmMsg::BarrierUp {
            seq: 7,
            members: vec![(1, REPLY_TAG_BASE)],
            writers: (100..413).map(|p| (p, vec![1])).collect(),
            readers: vec![],
        };
        for m in [arrive, up] {
            assert!(m.encode().len() < 64, "{m:?}");
        }
    }

    #[test]
    fn try_decode_rejects_bad_page_runs() {
        let arrive = |first: u64, count: u32| {
            let mut w = Writer::new();
            w.u8(K_BARRIER_ARRIVE).u64(1).u32(0).u64(REPLY_TAG_BASE);
            w.u32(1).u64(first).u32(count).u32(0);
            DsmMsg::try_decode(&w.finish())
        };
        assert_eq!(
            arrive(5, 0),
            Err(DecodeError::BadPageRun { first: 5, count: 0 })
        );
        assert_eq!(
            arrive(u64::MAX, 2),
            Err(DecodeError::BadPageRun {
                first: u64::MAX,
                count: 2
            })
        );
        assert_eq!(
            arrive(0, MAX_LIST_ENTRIES as u32 + 1),
            Err(DecodeError::ListTooLong {
                entries: MAX_LIST_ENTRIES + 1
            })
        );
        // Runs that each fit the cap but together pass it.
        let mut w = Writer::new();
        w.u8(K_LOCK_REL).u64(0).u32(0).u32(2);
        w.u64(0).u32(MAX_LIST_ENTRIES as u32);
        w.u64(1 << 40).u32(1);
        assert_eq!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::ListTooLong {
                entries: MAX_LIST_ENTRIES + 1
            })
        );
        // Attached node ids count against the cap: a short run carrying a
        // long node list must not expand into one clone per page.
        let mut w = Writer::new();
        w.u8(K_BARRIER_UP).u64(0).u32(0).u32(1).u64(0).u32(1024);
        for n in 0..1024 {
            w.u32(n);
        }
        w.u32(1024);
        assert_eq!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::ListTooLong {
                entries: 1024 * 1025
            })
        );
        // A run count not backed by run headers.
        let mut w = Writer::new();
        w.u8(K_LOCK_REL).u64(0).u32(0).u32(2).u64(0).u32(1);
        assert!(matches!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::RunCount { count: 2, .. })
        ));
        // No truncation of a valid run-encoded message may panic.
        let full = DsmMsg::BarrierArrive {
            seq: 2,
            node: 1,
            reply_tag: REPLY_TAG_BASE,
            notices: vec![3, 4, 5, 9],
            reads: vec![1],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(DsmMsg::try_decode(&full[..cut]).is_err());
        }
    }

    #[test]
    fn reply_roundtrips() {
        let replies = vec![
            DsmReply::PageData {
                page: 1,
                data: Bytes::from(vec![1u8, 2, 3]),
            },
            DsmReply::PageRangeData {
                first: 12,
                data: Bytes::from(vec![9u8; 2 * PAGE_SIZE]),
            },
            DsmReply::DiffAck { page: 8 },
            DsmReply::DiffBatchAck { pages: 17 },
            DsmReply::BarrierDepart {
                seq: 3,
                entries: vec![
                    DepartEntry::invalidate(10, 0, 2, false),
                    DepartEntry::invalidate(11, 1, 1, true),
                    DepartEntry {
                        page: 12,
                        old_home: 2,
                        new_home: 2,
                        multi_writer: false,
                        update: true,
                        sharers: vec![0, 1, 3],
                    },
                ],
            },
            DsmReply::LockGrant {
                cur_seq: 5,
                notices: vec![4, 5],
            },
        ];
        for r in replies {
            assert_eq!(DsmReply::decode(&r.encode()), r);
        }
    }
}
