//! The rank runtime: MPI-flavoured non-blocking point-to-point messaging
//! and collectives over threads and lock-free channels.
//!
//! Semantics mirror the MPI subset Algorithms 1–2 of the paper need:
//!
//! * [`RankCtx::isend`] is non-blocking (the payload is handed to an
//!   unbounded channel and the sender continues immediately — the "overlap
//!   communication with local computation" behaviour of Algorithm 1 line 6);
//! * [`RankCtx::recv`] blocks until a message with matching `(source, tag)`
//!   arrives, buffering non-matching arrivals (MPI tag matching);
//!   [`RankCtx::recv_any`] and [`RankCtx::try_recv_any`] match the tag
//!   from any source, so a receive set drains in completion order
//!   (Algorithm 1 lines 7–9);
//! * channel FIFO order per sender gives MPI's non-overtaking guarantee;
//! * [`RankCtx::allreduce_sum`], [`RankCtx::broadcast`] and
//!   [`RankCtx::barrier`] run over one binomial tree — O(log p) rounds —
//!   with a *fixed* combine order (children folded in ascending rank
//!   order), so results are bitwise deterministic run to run.
//!
//! Every receive, point-to-point or collective hop, goes through one
//! matcher, so every blocking wait on a rank thread is a mailbox receive.
//! That is what makes failure loud: a rank whose step panics posts a
//! poison message to every peer, and a peer's matcher that meets it
//! unwinds instead of waiting forever (see [`CommSession`]).
//!
//! # Buffer recycling
//!
//! Message payloads are pooled like MPI persistent requests: a sender
//! [`acquire`](RankCtx::acquire)s a buffer keyed by destination, and the
//! receiver hands the payload back over a dedicated *return channel* with
//! [`release`](RankCtx::release), where it rejoins the sender's free
//! list. After the pools are warm, no message round-trip — p2p or
//! collective — touches the heap; `CommCounters::comm_path_allocs`
//! measures exactly that (see `pargcn_util::allocmeter`) and the
//! steady-state tests assert it is zero.

use crate::bufpool::{BufPool, BufPoolStats};
use crate::counters::CommCounters;
use pargcn_util::allocmeter;
use pargcn_util::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Reserved tag space for collectives; user tags must stay below this.
pub const RESERVED_TAG_BASE: u32 = u32::MAX - 16;
const TAG_ALLREDUCE: u32 = RESERVED_TAG_BASE;
const TAG_BROADCAST: u32 = RESERVED_TAG_BASE + 1;
/// Posted by a rank whose step panicked; matches every receive.
const TAG_POISON: u32 = RESERVED_TAG_BASE + 2;

struct Message {
    from: u32,
    tag: u32,
    payload: Vec<f32>,
}

/// A payload travelling back to the rank that sent it, so its buffer can
/// rejoin that rank's free list. `from` is the rank doing the returning —
/// i.e. the *destination* the buffer was originally acquired for.
struct ReturnMsg {
    from: u32,
    buf: Vec<f32>,
}

/// Unwind payload of a rank stopped by a failed peer (named here): it met
/// the peer's poison message, or sent to the peer after it exited.
/// [`CommSession::collect_step`] rethrows the peer's own panic instead.
struct PeerFailed(usize);

fn peer_failed(rank: usize) -> ! {
    resume_unwind(Box::new(PeerFailed(rank)))
}

/// Spawns `p` rank threads and runs `f` on each.
pub struct Communicator;

impl Communicator {
    /// Runs `f(rank_ctx)` on `p` threads, returning per-rank results in rank
    /// order. A panic in any rank fails the whole run: peers blocked on
    /// the failed rank unwind instead of hanging, and the original panic
    /// is rethrown here.
    ///
    /// This is the one-shot convenience wrapper around [`CommSession`]:
    /// spawn the ranks, run a single step, join. Callers issuing many
    /// steps against the same ranks (the mini-batch engine) keep the
    /// session alive instead, so channels, buffer pools, and counters
    /// persist across steps.
    pub fn run<F, R>(p: usize, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
    {
        let mut session = CommSession::new(p);
        session.run_step(&f)
    }
}

/// The closure one step runs on every rank, with its borrow lifetime
/// erased so it can cross into the long-lived rank threads. Soundness is
/// the scoped-pool argument (`pargcn_util::pool::Shared`): the submitter
/// keeps the closure alive until every rank has acknowledged the step.
struct ErasedStep(*const (dyn Fn(&mut RankCtx) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and `CommSession` blocks in `collect_step` before the pointee can die.
unsafe impl Send for ErasedStep {}

/// One rank's acknowledgement that it finished (or panicked in) a step.
struct StepDone {
    rank: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// A long-lived rank runtime: `p` rank threads spawned **once**, each
/// owning its [`RankCtx`] — message channels, payload pools, pending
/// queue, counters — for the whole session. Work arrives as *steps*
/// (closures run on every rank); state persists across steps, so a
/// stream of mini-batch steps pays the thread-spawn, channel-build and
/// pool-warmup cost once instead of per batch.
///
/// A failing rank fails the step, it never hangs it: a rank whose step
/// panics posts a poison message to every peer, acknowledges the step
/// with its panic payload and exits. A peer that meets the poison in any
/// receive or collective — or sends to the exited rank — unwinds too.
/// [`collect_step`](Self::collect_step) rethrows the original panic once
/// every rank has acknowledged, and the session is poisoned: further
/// steps are refused.
pub struct CommSession {
    p: usize,
    jobs: Vec<Sender<ErasedStep>>,
    done_rx: Receiver<StepDone>,
    handles: Vec<JoinHandle<()>>,
    in_flight: bool,
    /// The rank whose panic poisoned the session, if one did.
    failed_rank: Option<usize>,
}

impl CommSession {
    /// Spawns the `p` rank threads and their channel mesh.
    pub fn new(p: usize) -> CommSession {
        assert!(p >= 1, "need at least one rank");
        let mut senders: Vec<Sender<Message>> = Vec::with_capacity(p);
        let mut receivers: Vec<Option<Receiver<Message>>> = Vec::with_capacity(p);
        let mut returns: Vec<Sender<ReturnMsg>> = Vec::with_capacity(p);
        let mut return_rxs: Vec<Option<Receiver<ReturnMsg>>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(Some(r));
            let (s, r) = unbounded();
            returns.push(s);
            return_rxs.push(Some(r));
        }
        let (done_tx, done_rx) = unbounded();
        let mut jobs = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (rank, (recv_slot, ret_slot)) in
            receivers.iter_mut().zip(return_rxs.iter_mut()).enumerate()
        {
            let receiver = recv_slot.take().expect("receiver taken once");
            let return_rx = ret_slot.take().expect("return receiver taken once");
            let senders = senders.clone();
            let returns = returns.clone();
            let done_tx = done_tx.clone();
            let (job_tx, job_rx) = unbounded::<ErasedStep>();
            jobs.push(job_tx);
            let handle = std::thread::Builder::new()
                .name(format!("pargcn-rank-{rank}"))
                .spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        p,
                        senders,
                        receiver,
                        returns,
                        return_rx,
                        pool: BufPool::new(p),
                        pending: Vec::new(),
                        counters: CommCounters::default(),
                    };
                    while let Ok(step) = job_rx.recv() {
                        // SAFETY: the submitter blocks in `collect_step`
                        // until this rank's acknowledgement below, so the
                        // closure (and everything it borrows) is alive.
                        match catch_unwind(AssertUnwindSafe(|| unsafe { (*step.0)(&mut ctx) })) {
                            Ok(()) => {
                                let _ = done_tx.send(StepDone { rank, panic: None });
                            }
                            Err(payload) => {
                                // Wake every peer that may be waiting on
                                // this rank, then exit (dropping `ctx`).
                                ctx.poison_peers();
                                let _ = done_tx.send(StepDone {
                                    rank,
                                    panic: Some(payload),
                                });
                                break;
                            }
                        }
                    }
                })
                .expect("spawn rank thread");
            handles.push(handle);
        }
        CommSession {
            p,
            jobs,
            done_rx,
            handles,
            in_flight: false,
            failed_rank: None,
        }
    }

    /// Number of ranks in the session.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Runs `f` on every rank — against the *persistent* per-rank state —
    /// and blocks until all ranks finish, returning results in rank order.
    /// A rank panic fails the step on every rank, is rethrown here, and
    /// poisons the session.
    pub fn run_step<F, R>(&mut self, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..self.p).map(|_| Mutex::new(None)).collect();
        let step = |ctx: &mut RankCtx| {
            let r = f(ctx);
            *slots[ctx.rank()].lock().unwrap() = Some(r);
        };
        // SAFETY: `step` (and the `slots`/`f` it borrows) outlives the
        // blocking `collect_step` below; no other step is in flight.
        unsafe { self.submit_step(&step) };
        self.collect_step();
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("rank produced no result"))
            .collect()
    }

    /// Posts `f` to every rank **without waiting**. The caller's thread is
    /// free until the matching [`collect_step`](Self::collect_step) — the
    /// hook the mini-batch engine uses to prepare batch `t+1` while the
    /// ranks train batch `t`.
    ///
    /// # Safety
    /// The closure (and everything it borrows) must stay alive and
    /// unmodified until `collect_step` returns, and at most one step may
    /// be in flight at a time (enforced by assertion).
    pub unsafe fn submit_step(&mut self, f: &(dyn Fn(&mut RankCtx) + Sync)) {
        if let Some(rank) = self.failed_rank {
            panic!("comm session poisoned by an earlier panic on rank {rank}");
        }
        assert!(!self.in_flight, "a step is already in flight");
        // Erase the borrow's lifetime into the raw pointer; `collect_step`
        // blocks until every rank is done with it.
        let ptr = unsafe {
            std::mem::transmute::<
                &(dyn Fn(&mut RankCtx) + Sync),
                *const (dyn Fn(&mut RankCtx) + Sync),
            >(f)
        };
        for job in &self.jobs {
            job.send(ErasedStep(ptr)).expect("rank thread exited");
        }
        self.in_flight = true;
    }

    /// Blocks until every rank has finished the in-flight step. If any
    /// rank panicked, poisons the session and rethrows the original panic
    /// — never the [`PeerFailed`] of a peer it stopped.
    pub fn collect_step(&mut self) {
        assert!(self.in_flight, "no step in flight");
        let mut failure: Option<Box<dyn Any + Send>> = None;
        for _ in 0..self.p {
            let done = self
                .done_rx
                .recv()
                .expect("rank thread died without acknowledging its step");
            let Some(payload) = done.panic else { continue };
            match payload.downcast_ref::<PeerFailed>() {
                // An echo of the failure: note the rank it names, and keep
                // waiting for that rank's own panic.
                Some(&PeerFailed(peer)) => {
                    self.failed_rank.get_or_insert(peer);
                }
                None if failure.is_none() => {
                    self.failed_rank = Some(done.rank);
                    failure = Some(payload);
                }
                None => {}
            }
        }
        self.in_flight = false;
        if let Some(payload) = failure {
            resume_unwind(payload);
        }
    }
}

impl Drop for CommSession {
    fn drop(&mut self) {
        // Disconnect the job queues; rank threads observe the hangup and
        // exit, dropping their contexts.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            // Rank panics were already captured and rethrown by
            // `collect_step`; a join error here can only happen during an
            // unwind that is already in progress, so never double-panic.
            let _ = handle.join();
        }
    }
}

/// Per-rank handle: identity, message endpoints, payload pool, counters.
pub struct RankCtx {
    rank: usize,
    p: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Return-channel endpoints: `returns[s]` carries recycled payload
    /// buffers back to rank `s`'s pool.
    returns: Vec<Sender<ReturnMsg>>,
    return_rx: Receiver<ReturnMsg>,
    pool: BufPool,
    /// Arrived messages not yet claimed by a matching receive, in arrival
    /// order.
    pending: Vec<Message>,
    counters: CommCounters,
}

impl RankCtx {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Read access to this rank's counters.
    pub fn counters(&self) -> &CommCounters {
        &self.counters
    }

    /// Resets this rank's counters (e.g. between warm-up and measured epochs).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Snapshot of this rank's payload-pool statistics.
    pub fn pool_stats(&self) -> BufPoolStats {
        self.pool.stats()
    }

    /// Credits `seconds` of local (non-blocked) kernel time to this rank.
    ///
    /// The runtime times blocking receives and collectives itself
    /// (`comm_seconds`); compute time is the complement and only the caller
    /// knows the span it covers, so the trainers report it explicitly as
    /// `span wall time − comm_seconds accrued in the span`.
    pub fn add_compute_seconds(&mut self, seconds: f64) {
        self.counters.compute_seconds += seconds.max(0.0);
    }

    /// Credits shape-counted kernel FLOPs to this rank; the trainers drain
    /// their `ComputeCtx` meter here once per run so `compute_flops /
    /// compute_seconds` is the rank's sustained arithmetic rate.
    pub fn add_compute_flops(&mut self, flops: u64) {
        self.counters.compute_flops += flops;
    }

    /// Runs `body`, charging the heap allocations it makes to
    /// `comm_path_allocs` and, for a `blocking` call, its wall time to
    /// `comm_seconds`. Every public message-path method is this over a
    /// private body; collectives call the bodies, so nothing is counted
    /// twice.
    fn metered<T>(&mut self, blocking: bool, body: impl FnOnce(&mut Self) -> T) -> T {
        let start = blocking.then(Instant::now);
        let a0 = allocmeter::current();
        let out = body(self);
        self.counters.comm_path_allocs += allocmeter::current() - a0;
        if let Some(start) = start {
            self.counters.comm_seconds += start.elapsed().as_secs_f64();
        }
        out
    }

    /// Moves every buffer waiting on the return channel back into the pool.
    fn drain_returns(&mut self) {
        while let Ok(r) = self.return_rx.try_recv() {
            self.pool.put(r.from as usize, r.buf);
        }
    }

    /// Takes a cleared payload buffer with capacity for `len` floats for a
    /// message to rank `to`, recycling returned buffers when possible.
    /// Pair with [`isend`](Self::isend); the receiver sends the buffer
    /// back via [`release`](Self::release).
    pub fn acquire(&mut self, to: usize, len: usize) -> Vec<f32> {
        self.metered(false, |s| {
            s.drain_returns();
            s.pool.acquire(to, len)
        })
    }

    /// Hands a received payload buffer back to the rank that sent it
    /// (`from`), where it rejoins that rank's free list. Self-returns
    /// (a buffer acquired but never sent) go straight to the pool.
    pub fn release(&mut self, from: usize, buf: Vec<f32>) {
        self.metered(false, |s| s.recycle(from, buf));
    }

    /// [`release`](Self::release)'s body. A zero-capacity buffer (an empty
    /// collective hop) owns no memory, so there is nothing to hand back.
    fn recycle(&mut self, from: usize, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if from == self.rank {
            self.pool.put(from, buf);
        } else {
            // The receiver ignoring returns (rank exited) is fine: the
            // buffer is simply dropped with the channel.
            let _ = self.returns[from].send(ReturnMsg {
                from: self.rank as u32,
                buf,
            });
        }
    }

    /// Sizes the pool so steady-state `acquire`s for `to` never allocate:
    /// drains the return channel, then tops the pool up until `count`
    /// resident buffers for `to` fit `len` floats (see
    /// [`BufPool::ensure`]). At a step boundary every buffer is back in
    /// flight toward its pool, so draining first makes the resident count
    /// exact and repeated calls with a stream of varying demands allocate
    /// only when the high-water mark rises.
    pub fn ensure_pool(&mut self, to: usize, count: usize, len: usize) {
        self.drain_returns();
        self.pool.ensure(to, count, len);
    }

    /// Reserves capacity for `msgs` in-flight messages in this rank's
    /// mailbox, pending queue, and return channel. Queue depth is
    /// scheduling-dependent (a fast sender can run ahead), so without a
    /// reservation a container can hit a new high-water mark — and grow —
    /// in a steady-state epoch under an unlucky interleaving. Callers
    /// that need the strict zero-allocation contract reserve an epoch's
    /// worth of messages up front (see `prewarm_comm_pools` in
    /// `pargcn-core`).
    pub fn reserve_queues(&mut self, msgs: usize) {
        self.receiver.reserve(msgs);
        self.return_rx.reserve(msgs);
        self.pending.reserve(msgs);
    }

    /// [`ensure_pool`](Self::ensure_pool) for this rank's binomial-tree
    /// collective neighbours (parent and children of the rank-0-rooted
    /// allreduce tree): `count` buffers fitting `len` per neighbour.
    pub fn ensure_collectives(&mut self, count: usize, len: usize) {
        self.drain_returns();
        let (parent, children) = self.tree(0);
        for peer in parent.into_iter().chain(children) {
            self.pool.ensure(peer, count, len);
        }
    }

    /// This rank's neighbours in the binomial tree rooted at `root` — the
    /// one tree every collective walks: its parent (`None` at the root)
    /// and its children, smallest subtree first. In virtual ranks
    /// `v = rank − root (mod p)`, the parent of `v` is `v − lowbit(v)` and
    /// its children are `v + 2^j` for every `2^j < lowbit(v)` (every
    /// `2^j < p` at the root). Reductions fold the children in this order;
    /// fan-outs walk it reversed, biggest subtree first (the log-depth
    /// schedule).
    fn tree(
        &self,
        root: usize,
    ) -> (
        Option<usize>,
        impl DoubleEndedIterator<Item = usize> + Clone,
    ) {
        let p = self.p;
        let v = (self.rank + p - root) % p;
        let low = v & v.wrapping_neg();
        let span = if v == 0 { p.next_power_of_two() } else { low };
        let real = move |u: usize| (u + root) % p;
        let parent = (v != 0).then(|| real(v - low));
        let children = (0..span.trailing_zeros())
            .map(move |j| v + (1 << j))
            .filter(move |&c| c < p)
            .map(real);
        (parent, children)
    }

    /// Non-blocking point-to-point send. Returns immediately; the payload
    /// is owned by the runtime from here on (and, if it came from
    /// [`acquire`](Self::acquire), eventually returns to this rank's pool
    /// once the receiver releases it).
    ///
    /// # Panics
    /// Panics on self-sends (local data never travels through the runtime in
    /// Algorithms 1–2) and on reserved tags.
    pub fn isend(&mut self, to: usize, tag: u32, payload: Vec<f32>) {
        assert_ne!(to, self.rank, "self-sends are a bug: local rows stay local");
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        self.metered(false, |s| {
            s.counters.sent_messages += 1;
            s.counters.sent_bytes += (payload.len() * 4) as u64;
            s.post(to, tag, payload);
        });
    }

    /// Pool-backed collective hop: copies `data` into a recycled buffer
    /// bound for `to`, so the collectives' steady state is allocation-free
    /// too. An empty hop (a barrier's) needs no buffer at all.
    fn send_pooled(&mut self, to: usize, tag: u32, data: &[f32]) {
        let mut payload = if data.is_empty() {
            Vec::new()
        } else {
            self.drain_returns();
            self.pool.acquire(to, data.len())
        };
        payload.extend_from_slice(data);
        self.counters.collective_messages += 1;
        self.counters.collective_bytes += (data.len() * 4) as u64;
        self.post(to, tag, payload);
    }

    /// The one send: hands `payload` to `to`'s mailbox. A peer that has
    /// exited failed its step, so sending to it unwinds this rank.
    fn post(&self, to: usize, tag: u32, payload: Vec<f32>) {
        let m = Message {
            from: self.rank as u32,
            tag,
            payload,
        };
        if self.senders[to].send(m).is_err() {
            peer_failed(to);
        }
    }

    /// Posts an empty poison message to every peer, so each one unwinds at
    /// its next receive instead of waiting on this failed rank forever.
    fn poison_peers(&self) {
        for (peer, sender) in self.senders.iter().enumerate() {
            if peer != self.rank {
                let _ = sender.send(Message {
                    from: self.rank as u32,
                    tag: TAG_POISON,
                    payload: Vec::new(),
                });
            }
        }
    }

    /// The one matcher: claims the first message with tag `tag` from
    /// `from` (any source when `None`). Arrivals parked by earlier calls
    /// are scanned first, in arrival order; then the mailbox is pulled,
    /// parking whatever does not match. Without `block`, returns `None`
    /// once the mailbox is empty. A poison message matches every request
    /// and unwinds this rank with [`PeerFailed`].
    fn take(&mut self, from: Option<usize>, tag: u32, block: bool) -> Option<Message> {
        let matches = |m: &Message| m.tag == tag && from.is_none_or(|f| m.from as usize == f);
        if let Some(pos) = self.pending.iter().position(matches) {
            // `remove`, not `swap_remove`: `pending` is kept in arrival
            // order so two same-(source, tag) messages are claimed in the
            // order they were sent (the MPI non-overtaking guarantee).
            return Some(self.pending.remove(pos));
        }
        loop {
            let m = if block {
                // This rank holds a sender to its own mailbox, so the
                // channel never disconnects under it.
                self.receiver.recv().expect("own mailbox disconnected")
            } else {
                self.receiver.try_recv().ok()?
            };
            if m.tag == TAG_POISON {
                peer_failed(m.from as usize);
            }
            if matches(&m) {
                return Some(m);
            }
            self.pending.push(m);
        }
    }

    /// [`take`](Self::take) that waits for the match.
    fn wait_for(&mut self, from: Option<usize>, tag: u32) -> Message {
        self.take(from, tag, true)
            .expect("a blocking take always yields a message")
    }

    /// Counts a received point-to-point message and hands it out as
    /// `(source, payload)`.
    fn delivered(&mut self, m: Message) -> (usize, Vec<f32>) {
        self.counters.recv_messages += 1;
        self.counters.recv_bytes += (m.payload.len() * 4) as u64;
        (m.from as usize, m.payload)
    }

    /// Blocking receive of the next message with matching source and tag.
    /// The returned payload is owned by the caller; hand it back with
    /// [`release`](Self::release) to keep the sender's pool warm.
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<f32> {
        self.metered(true, |s| {
            let m = s.wait_for(Some(from), tag);
            s.delivered(m).1
        })
    }

    /// Blocking receive of the next message with tag `tag` from any
    /// source, returning `(source, payload)`. The blocking complement of
    /// [`try_recv_any`](Self::try_recv_any).
    pub fn recv_any(&mut self, tag: u32) -> (usize, Vec<f32>) {
        self.metered(true, |s| {
            let m = s.wait_for(None, tag);
            s.delivered(m)
        })
    }

    /// Non-blocking receive of the next message with tag `tag` from *any*
    /// source, returning `(source, payload)` if one has already arrived.
    /// One mailbox scan serves a whole receive set — the trainer's
    /// exchange drains whichever remote block lands first with this
    /// (Algorithm 1 lines 7–9 iterate the receive set in any completion
    /// order) instead of probing every peer individually.
    pub fn try_recv_any(&mut self, tag: u32) -> Option<(usize, Vec<f32>)> {
        self.metered(false, |s| {
            let m = s.take(None, tag, false)?;
            Some(s.delivered(m))
        })
    }

    /// Synchronizes all ranks: an empty-buffer
    /// [`allreduce_sum`](Self::allreduce_sum), so its tree hops count as
    /// zero-byte collective messages and a failed peer unwinds it like any
    /// other receive.
    pub fn barrier(&mut self) {
        self.allreduce_sum(&mut []);
    }

    /// Allreduce-sum over `buf` (Algorithm 2 line 13: `ΔW` aggregation).
    ///
    /// Runs over the binomial tree rooted at rank 0 in O(log p) rounds:
    /// a reduce up the tree followed by a broadcast of the result down the
    /// same edges. Every node folds its children **in ascending rank
    /// order** — the tree shape and combine order are fixed, so results
    /// are bitwise deterministic run to run (`costmodel::allreduce_time`
    /// prices exactly this shape). Note the fold order differs from a
    /// flat rank-order sum: 8-rank example, rank 0 folds 1, 2 (which
    /// already folded 3), 4 (which folded 5 and 6+7).
    pub fn allreduce_sum(&mut self, buf: &mut [f32]) {
        self.metered(true, |s| {
            let (parent, children) = s.tree(0);
            for child in children.clone() {
                let contrib = s.wait_for(Some(child), TAG_ALLREDUCE).payload;
                assert_eq!(contrib.len(), buf.len(), "allreduce length mismatch");
                for (b, &c) in buf.iter_mut().zip(&contrib) {
                    *b += c;
                }
                s.recycle(child, contrib);
            }
            if let Some(parent) = parent {
                s.send_pooled(parent, TAG_ALLREDUCE, buf);
                let res = s.wait_for(Some(parent), TAG_ALLREDUCE).payload;
                buf.copy_from_slice(&res);
                s.recycle(parent, res);
            }
            for child in children.rev() {
                s.send_pooled(child, TAG_ALLREDUCE, buf);
            }
        });
    }

    /// Broadcast from `root`: on the root `buf` is the source, elsewhere it
    /// is overwritten (capacity reused — a warm caller buffer means no
    /// allocation). Binomial tree, O(log p) rounds; used by the CAGNET
    /// baseline's turn-wise broadcasts.
    pub fn broadcast(&mut self, root: usize, buf: &mut Vec<f32>) {
        self.metered(true, |s| {
            let (parent, children) = s.tree(root);
            if let Some(parent) = parent {
                let res = s.wait_for(Some(parent), TAG_BROADCAST).payload;
                buf.clear();
                buf.extend_from_slice(&res);
                s.recycle(parent, res);
            }
            for child in children.rev() {
                s.send_pooled(child, TAG_BROADCAST, buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_exchange() {
        let results = Communicator::run(4, |ctx| {
            let next = (ctx.rank() + 1) % 4;
            let prev = (ctx.rank() + 3) % 4;
            ctx.isend(next, 7, vec![ctx.rank() as f32]);
            let got = ctx.recv(prev, 7);
            got[0] as usize
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn tag_matching_reorders() {
        let results = Communicator::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 1, vec![1.0]);
                ctx.isend(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive in reverse tag order: matching must buffer tag 1.
                let b = ctx.recv(0, 2);
                let a = ctx.recv(0, 1);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn allreduce_tree_sums_exactly() {
        // Integer-valued f32s sum exactly under any association, so the
        // binomial-tree fold must reproduce the arithmetic total.
        for p in [2usize, 3, 5, 8, 13] {
            let results = Communicator::run(p, |ctx| {
                let mut buf = vec![ctx.rank() as f32, 1.0];
                ctx.allreduce_sum(&mut buf);
                buf
            });
            let total = (p * (p - 1) / 2) as f32;
            for r in &results {
                assert_eq!(r, &vec![total, p as f32]);
            }
        }
    }

    #[test]
    fn broadcast_delivers_to_all() {
        // Root 1 exercises the virtual-rank rotation of the tree.
        let results = Communicator::run(3, |ctx| {
            let mut buf = if ctx.rank() == 1 {
                vec![3.5, 4.5]
            } else {
                Vec::new()
            };
            ctx.broadcast(1, &mut buf);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![3.5, 4.5]);
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [2usize, 5, 8] {
            for root in 0..p {
                let results = Communicator::run(p, |ctx| {
                    let mut buf = if ctx.rank() == root {
                        vec![root as f32, 42.0]
                    } else {
                        Vec::new()
                    };
                    ctx.broadcast(root, &mut buf);
                    buf
                });
                for r in &results {
                    assert_eq!(r, &vec![root as f32, 42.0]);
                }
            }
        }
    }

    #[test]
    fn counters_track_p2p_volume() {
        let results = Communicator::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 0, vec![0.0; 10]);
                ctx.counters().clone()
            } else {
                ctx.recv(0, 0);
                ctx.counters().clone()
            }
        });
        assert_eq!(results[0].sent_messages, 1);
        assert_eq!(results[0].sent_bytes, 40);
        assert_eq!(results[1].recv_messages, 1);
        assert_eq!(results[1].recv_bytes, 40);
    }

    #[test]
    fn counters_count_tree_messages_at_the_sender() {
        // Binomial-tree allreduce: p−1 reduce hops + p−1 broadcast hops,
        // each counted once (by its sender), so the merged total is
        // exactly the number of messages on the wire.
        for p in [2usize, 5, 8] {
            let results = Communicator::run(p, |ctx| {
                let mut buf = vec![1.0f32; 3];
                ctx.allreduce_sum(&mut buf);
                ctx.counters().clone()
            });
            let merged = CommCounters::merged(&results);
            assert_eq!(merged.collective_messages, 2 * (p as u64 - 1));
            assert_eq!(merged.collective_bytes, 2 * (p as u64 - 1) * 12);
        }
        let results = Communicator::run(6, |ctx| {
            let mut buf = if ctx.rank() == 2 {
                vec![7.0; 4]
            } else {
                vec![]
            };
            ctx.broadcast(2, &mut buf);
            ctx.counters().clone()
        });
        let merged = CommCounters::merged(&results);
        assert_eq!(merged.collective_messages, 5);
        assert_eq!(merged.collective_bytes, 5 * 16);
    }

    #[test]
    fn try_recv_returns_none_before_arrival() {
        Communicator::run(2, |ctx| {
            if ctx.rank() == 1 {
                // Nothing sent yet (rank 0 waits on a barrier first).
                assert!(ctx.try_recv_any(3).is_none());
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.isend(1, 3, vec![9.0]);
            } else {
                // Spin until it lands.
                loop {
                    if let Some((from, m)) = ctx.try_recv_any(3) {
                        assert_eq!(from, 0);
                        assert_eq!(m, vec![9.0]);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            ctx.barrier();
        });
    }

    #[test]
    fn recv_any_matches_by_tag_only() {
        let results = Communicator::run(3, |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(2, 5, vec![10.0]);
                0.0
            } else if ctx.rank() == 1 {
                ctx.isend(2, 5, vec![20.0]);
                0.0
            } else {
                let (f1, p1) = ctx.recv_any(5);
                let (f2, p2) = ctx.recv_any(5);
                assert_ne!(f1, f2);
                p1[0] + p2[0]
            }
        });
        assert_eq!(results[2], 30.0);
    }

    #[test]
    fn try_recv_any_leaves_other_tags_pending() {
        Communicator::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 8, vec![1.0]);
                ctx.isend(1, 9, vec![2.0]);
            } else {
                // Wait for the tag-9 message while tag 8 sits in front of
                // it: try_recv_any must buffer, not drop, the mismatch.
                loop {
                    if let Some((from, p)) = ctx.try_recv_any(9) {
                        assert_eq!(from, 0);
                        assert_eq!(p, vec![2.0]);
                        break;
                    }
                    std::thread::yield_now();
                }
                assert_eq!(ctx.recv(0, 8), vec![1.0]);
            }
        });
    }

    #[test]
    fn released_payloads_return_to_the_sender_pool() {
        Communicator::run(2, |ctx| {
            let other = 1 - ctx.rank();
            // Round 0 allocates; after the payload travels there and back,
            // round 2's acquire must be served from the pool.
            for round in 0..4u32 {
                let mut payload = ctx.acquire(other, 16);
                payload.extend_from_slice(&[round as f32; 16]);
                ctx.isend(other, round, payload);
                let got = ctx.recv(other, round);
                assert_eq!(got, vec![round as f32; 16]);
                ctx.release(other, got);
                ctx.barrier(); // make the return visible before next acquire
            }
            let stats = ctx.pool_stats();
            assert_eq!(stats.acquires, 4);
            assert!(stats.hits >= 2, "pool should serve later rounds: {stats:?}");
        });
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let results = Communicator::run(1, |ctx| {
            let mut buf = vec![5.0];
            ctx.allreduce_sum(&mut buf);
            ctx.broadcast(0, &mut buf);
            ctx.barrier();
            buf
        });
        assert_eq!(results[0], vec![5.0]);
    }

    #[test]
    fn nonblocking_send_does_not_deadlock_without_receiver_progress() {
        // Both ranks send many messages before either receives: with
        // blocking sends this deadlocks; with isend it must complete.
        Communicator::run(2, |ctx| {
            let other = 1 - ctx.rank();
            for i in 0..100u32 {
                ctx.isend(other, i, vec![i as f32; 64]);
            }
            for i in 0..100u32 {
                let m = ctx.recv(other, i);
                assert_eq!(m[0], i as f32);
            }
        });
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        Communicator::run(1, |ctx| {
            ctx.isend(0, 0, vec![1.0]);
        });
    }

    #[test]
    fn session_state_persists_across_steps() {
        // Counters accumulate and payload pools stay warm across steps —
        // the property the one-shot runtime could not provide.
        let mut session = CommSession::new(2);
        session.run_step(|ctx| {
            let other = 1 - ctx.rank();
            ctx.ensure_pool(other, 1, 32);
            let mut payload = ctx.acquire(other, 32);
            payload.resize(32, ctx.rank() as f32);
            ctx.isend(other, 0, payload);
            let got = ctx.recv(other, 0);
            ctx.release(other, got);
            ctx.barrier(); // returns visible before the next step's acquire
        });
        let stats = session.run_step(|ctx| {
            let other = 1 - ctx.rank();
            // Served from the pool warmed in the previous step.
            let payload = ctx.acquire(other, 32);
            ctx.release(ctx.rank(), payload);
            (ctx.counters().clone(), ctx.pool_stats())
        });
        for (counters, pool) in &stats {
            assert_eq!(counters.sent_messages, 1, "counters must span steps");
            assert_eq!(counters.recv_messages, 1);
            assert!(
                pool.hits >= 1,
                "step-2 acquire should hit the step-1 pool: {pool:?}"
            );
        }
    }

    #[test]
    fn session_runs_many_steps_on_same_ranks() {
        let mut session = CommSession::new(4);
        for step in 0..10u32 {
            let results = session.run_step(|ctx| {
                let next = (ctx.rank() + 1) % 4;
                let prev = (ctx.rank() + 3) % 4;
                ctx.isend(next, step, vec![(ctx.rank() as u32 + step) as f32]);
                let got = ctx.recv(prev, step);
                got[0] as u32
            });
            let expect: Vec<u32> = (0..4u32).map(|r| (r + 3) % 4 + step).collect();
            assert_eq!(results, expect);
        }
        let counters = session.run_step(|ctx| ctx.counters().clone());
        for c in &counters {
            assert_eq!(c.sent_messages, 10);
        }
    }

    #[test]
    fn session_submit_overlaps_caller_work() {
        // The pipelining hook: submit a step, do main-thread work while the
        // ranks run, then collect. Results land in caller-owned slots.
        let mut session = CommSession::new(3);
        let slots: Vec<Mutex<f32>> = (0..3).map(|_| Mutex::new(0.0)).collect();
        let step = |ctx: &mut RankCtx| {
            let mut buf = vec![ctx.rank() as f32];
            ctx.allreduce_sum(&mut buf);
            *slots[ctx.rank()].lock().unwrap() = buf[0];
        };
        // SAFETY: `step` and `slots` outlive the collect below; one step.
        unsafe { session.submit_step(&step) };
        let main_thread_work: f32 = (0..100).map(|i| i as f32).sum();
        session.collect_step();
        assert_eq!(main_thread_work, 4950.0);
        for s in &slots {
            assert_eq!(*s.lock().unwrap(), 3.0);
        }
    }

    #[test]
    fn session_panic_propagates_and_poisons() {
        let mut session = CommSession::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            session.run_step(|_ctx| panic!("step exploded"));
        }));
        assert!(caught.is_err(), "rank panic must propagate");
        let refused = catch_unwind(AssertUnwindSafe(|| {
            session.run_step(|ctx| ctx.rank());
        }));
        assert!(refused.is_err(), "poisoned session must refuse steps");
    }

    fn panic_message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(payload) => *payload.downcast::<String>().expect("a panic message"),
        }
    }

    /// Runs `step` as the first step of a fresh `p`-rank session on a
    /// watchdog thread, then tries another step. Returns both panic
    /// messages; fails instead if the first step hangs.
    fn run_failing_step(p: usize, step: fn(&mut RankCtx)) -> (String, String) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut session = CommSession::new(p);
            let failed = catch_unwind(AssertUnwindSafe(|| session.run_step(step)))
                .expect_err("the rank panic must propagate");
            let refused = catch_unwind(AssertUnwindSafe(|| session.run_step(|ctx| ctx.rank())))
                .expect_err("a failed session must refuse further steps");
            let _ = tx.send((panic_message(failed), panic_message(refused)));
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("a rank panic hung its peers")
    }

    #[test]
    fn rank_panic_fails_a_peer_blocked_in_recv() {
        let (failed, refused) = run_failing_step(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("rank 1 exploded");
            }
            ctx.recv(1, 0);
        });
        assert_eq!(failed, "rank 1 exploded");
        assert_eq!(
            refused,
            "comm session poisoned by an earlier panic on rank 1"
        );
    }

    #[test]
    fn rank_panic_fails_peers_in_an_allreduce() {
        let (failed, refused) = run_failing_step(3, |ctx| {
            if ctx.rank() == 2 {
                panic!("rank 2 exploded");
            }
            ctx.allreduce_sum(&mut [1.0]);
        });
        assert_eq!(failed, "rank 2 exploded");
        assert_eq!(
            refused,
            "comm session poisoned by an earlier panic on rank 2"
        );
    }

    #[test]
    fn session_collectives_work_across_steps() {
        let mut session = CommSession::new(5);
        for round in 1..=3 {
            let results = session.run_step(|ctx| {
                let mut buf = vec![round as f32];
                ctx.allreduce_sum(&mut buf);
                buf[0]
            });
            for r in &results {
                assert_eq!(*r, 5.0 * round as f32);
            }
        }
    }
}
