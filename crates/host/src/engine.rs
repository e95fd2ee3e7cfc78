//! The discrete-virtual-time host I/O engine.
//!
//! The array's own API is one synchronous op at a time; real FC/iSCSI
//! hosts keep hundreds of I/Os outstanding across both controllers
//! (§2, §4.4). This engine closes that gap without threads: it runs an
//! event loop in *virtual* time over [`purity_core::FlashArray`]'s
//! clock. Requests arrive (open-loop Poisson or closed-loop per-
//! initiator queue depths), wait in the volume's first-come-first-served
//! dispatch queue ([`crate::queue`]), are coalesced with adjacent queued
//! writes, and are dispatched down an ALUA multipath layer
//! ([`crate::multipath`]).
//!
//! Dispatching an op calls the array synchronously; the returned ack
//! latency *schedules the completion event* at `dispatch + latency`,
//! and the per-die/per-channel [`purity_sim::Timeline`]s inside the
//! array make concurrently-outstanding ops queue against each other
//! exactly as real hardware would — queue-depth-dependent latency and
//! throughput fall out, rather than being modeled.
//!
//! Failover is the interesting path: when a scheduled
//! [`purity_core::FaultPlan`] kills the primary mid-run, the acks of
//! in-flight ops die with it ([`purity_core::FailoverReport::aborted`]).
//! The host only learns via its own I/O timeout; the timeout handler
//! marks the path failed and resubmits on the survivor with backoff.
//! The engine audits acks per request — every request completes exactly
//! once, with zero lost or duplicated acks, which the end-to-end tests
//! assert.

use crate::audit::AckAudit;
use crate::multipath::{Multipath, PathId};
use crate::queue::DispatchQueue;
use crate::report::HostReport;
use purity_core::{FaultOutcome, FaultPlan, FlashArray, VolumeId};
use purity_obs::OpTrace;
use purity_sim::Nanos;
use purity_wkld::{Op, WorkloadGen};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Cool-down before a failed path is probed again.
const PATH_PROBE_INTERVAL: Nanos = 10_000_000; // 10 ms

/// Upper bound on a coalesced write.
const MAX_COALESCE_BYTES: usize = 256 * 1024;

/// Attempts before an op is failed to the application.
const MAX_RETRIES: u32 = 8;

/// Host engine knobs.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Number of initiators (host HBAs / iSCSI sessions).
    pub initiators: usize,
    /// Closed-loop queue depth per initiator.
    pub queue_depth: usize,
    /// Host I/O timeout before an op is presumed lost and retried.
    pub timeout: Nanos,
    /// Base retry backoff (exponential per attempt).
    pub backoff: Nanos,
    /// Merge adjacent queued writes into one array op.
    pub coalesce: bool,
    /// Per-volume submission-queue bound; arrivals beyond it get
    /// QFULL'd and re-admitted after a backoff.
    pub admission_limit: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            initiators: 4,
            queue_depth: 8,
            timeout: 250_000_000, // 250 ms
            backoff: 50_000,      // 50 µs
            coalesce: true,
            admission_limit: 4096,
        }
    }
}

/// How arrivals are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopMode {
    /// Each initiator keeps `queue_depth` ops outstanding; a completion
    /// immediately sources the next arrival.
    Closed,
    /// Arrivals follow the generator's arrival process, independent of
    /// completions (initiators are round-robin sinks for accounting).
    Open,
}

/// Request payload. A write's bytes live until its ack is delivered or
/// it fails for good: until then a retry after a failover resends them.
#[derive(Debug, Clone)]
enum ReqKind {
    Read { offset: u64, len: usize },
    Write { offset: u64, data: Vec<u8> },
}

impl ReqKind {
    fn bytes(&self) -> u64 {
        match self {
            ReqKind::Read { len, .. } => *len as u64,
            ReqKind::Write { data, .. } => data.len() as u64,
        }
    }

    /// A write's bytes; a read has none.
    fn payload(&self) -> &[u8] {
        match self {
            ReqKind::Read { .. } => &[],
            ReqKind::Write { data, .. } => data,
        }
    }

    /// Frees a write's bytes once nothing can send them again.
    fn release(&mut self) {
        if let ReqKind::Write { data, .. } = self {
            *data = Vec::new();
        }
    }
}

/// Lifecycle of one host request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// In the volume dispatch queue.
    Queued,
    /// Submitted to the array; completion event pending.
    Dispatched,
    /// Absorbed into another request's coalesced write.
    Riding(u64),
    /// Ack delivered.
    Completed,
    /// Gave up after [`MAX_RETRIES`].
    Failed,
}

#[derive(Debug)]
struct Request {
    initiator: usize,
    kind: ReqKind,
    arrival: Nanos,
    state: ReqState,
    /// Dispatch attempts so far; completion/timeout events are stamped
    /// with the attempt they belong to and ignored if stale.
    attempts: u32,
    /// Set when a failover killed this attempt's ack; the pending
    /// completion event is void and only the timeout path may act.
    aborted: bool,
    path: PathId,
    dispatched_at: Nanos,
    first_dispatch: Option<Nanos>,
    /// Requests coalesced into this one's current dispatch.
    riders: Vec<u64>,
    /// End-to-end causal trace, created at first dispatch (host wait
    /// time is stamped retroactively from the arrival timestamp) and
    /// finished into the array's tracer when the ack is delivered.
    /// Permanently failed requests never finish their trace.
    trace: Option<OpTrace>,
}

/// Event kinds, processed in (time, sequence) order. The `Ord` derive
/// only exists to satisfy `BinaryHeap`; the (time, seq) prefix of the
/// heap key always decides before variant order can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Produce the next arrival (open-loop) for the round-robin sink.
    OpenArrival,
    /// Re-admission attempt for a QFULL'd request.
    Admit { req: u64 },
    /// Drain the dispatch queue.
    TryDispatch,
    /// An ack lands.
    Complete { req: u64, attempt: u32 },
    /// Host I/O timeout check.
    Timeout { req: u64, attempt: u32 },
    /// Apply scheduled faults due at this time.
    Fault,
}

/// The engine. Create once per run configuration; `run_*` drives one
/// workload to completion and returns the report.
pub struct HostEngine {
    cfg: HostConfig,
}

struct Run<'a> {
    cfg: &'a HostConfig,
    array: &'a mut FlashArray,
    volume: VolumeId,
    gen: &'a mut WorkloadGen,
    mode: LoopMode,
    plan: Option<&'a mut FaultPlan>,

    requests: Vec<Request>,
    queue: DispatchQueue,
    mp: Multipath,
    events: BinaryHeap<Reverse<(Nanos, u64, Event)>>,
    eseq: u64,
    outstanding: Vec<usize>,
    next_sink: usize,
    issued: u64,
    target: u64,
    /// Array op id -> engine request, for mapping failover aborts.
    dispatched_ops: Vec<(u64, u64)>,
    /// Exactly-once ack audit keyed by request index.
    audit: AckAudit,

    report: HostReport,
    start: Nanos,
    last_completion: Nanos,
}

impl HostEngine {
    /// An engine with the given knobs.
    pub fn new(cfg: HostConfig) -> Self {
        assert!(cfg.initiators > 0 && cfg.queue_depth > 0);
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Closed-loop run: `initiators × queue_depth` ops stay outstanding
    /// until `total_ops` complete. Optionally applies a fault plan as
    /// virtual time passes.
    pub fn run_closed_loop(
        &self,
        array: &mut FlashArray,
        volume: VolumeId,
        gen: &mut WorkloadGen,
        total_ops: u64,
        plan: Option<&mut FaultPlan>,
    ) -> HostReport {
        self.run(array, volume, gen, total_ops, LoopMode::Closed, plan)
    }

    /// Open-loop run: arrivals follow the generator's arrival process
    /// (see [`purity_wkld::ArrivalProcess`]) regardless of completions.
    pub fn run_open_loop(
        &self,
        array: &mut FlashArray,
        volume: VolumeId,
        gen: &mut WorkloadGen,
        total_ops: u64,
        plan: Option<&mut FaultPlan>,
    ) -> HostReport {
        self.run(array, volume, gen, total_ops, LoopMode::Open, plan)
    }

    fn run(
        &self,
        array: &mut FlashArray,
        volume: VolumeId,
        gen: &mut WorkloadGen,
        total_ops: u64,
        mode: LoopMode,
        plan: Option<&mut FaultPlan>,
    ) -> HostReport {
        let mut run = Run::new(&self.cfg, array, volume, gen, mode, plan, total_ops);
        run.seed_arrivals();
        run.drive();
        run.finish()
    }
}

/// Charges the host-side wait `[from, to)` to `host_queue`.
fn stamp_wait(trace: &mut OpTrace, from: Nanos, to: Nanos) {
    if from < to {
        trace.stage("host_queue", from, to);
    }
}

impl<'a> Run<'a> {
    fn new(
        cfg: &'a HostConfig,
        array: &'a mut FlashArray,
        volume: VolumeId,
        gen: &'a mut WorkloadGen,
        mode: LoopMode,
        plan: Option<&'a mut FaultPlan>,
        total_ops: u64,
    ) -> Self {
        let start = array.now();
        Self {
            cfg,
            array,
            volume,
            gen,
            mode,
            plan,
            requests: Vec::with_capacity(total_ops as usize),
            queue: DispatchQueue::default(),
            mp: Multipath::new(cfg.backoff, PATH_PROBE_INTERVAL),
            events: BinaryHeap::new(),
            eseq: 0,
            outstanding: vec![0; cfg.initiators],
            next_sink: 0,
            issued: 0,
            target: total_ops,
            dispatched_ops: Vec::new(),
            audit: AckAudit::new(),
            report: HostReport::new(cfg.initiators),
            start,
            last_completion: start,
        }
    }

    fn schedule(&mut self, t: Nanos, e: Event) {
        self.events.push(Reverse((t, self.eseq, e)));
        self.eseq += 1;
    }

    fn seed_arrivals(&mut self) {
        // Fault events anchor the plan's schedule into the event loop.
        if let Some(plan) = self.plan.as_deref() {
            let mut times = Vec::new();
            let mut probe = plan.clone();
            while let Some(t) = probe.next_due() {
                times.push(t);
                probe.take_due(t);
            }
            for t in times {
                self.schedule(t, Event::Fault);
            }
        }
        match self.mode {
            LoopMode::Closed => {
                for i in 0..self.cfg.initiators {
                    for _ in 0..self.cfg.queue_depth {
                        self.arrive(i, self.start);
                    }
                }
            }
            LoopMode::Open => {
                self.schedule(self.start, Event::OpenArrival);
            }
        }
    }

    /// Creates the next request from the generator, bound to `initiator`,
    /// arriving at `now`, and admits it.
    fn arrive(&mut self, initiator: usize, now: Nanos) {
        if self.issued >= self.target {
            return;
        }
        self.issued += 1;
        let kind = match self.gen.next_op() {
            Op::Read { offset, len } => ReqKind::Read { offset, len },
            Op::Write { offset, data } => ReqKind::Write { offset, data },
        };
        let id = self.requests.len() as u64;
        self.requests.push(Request {
            initiator,
            kind,
            arrival: now,
            state: ReqState::Queued,
            attempts: 0,
            aborted: false,
            path: PathId::A,
            dispatched_at: 0,
            first_dispatch: None,
            riders: Vec::new(),
            trace: None,
        });
        self.audit.register(id);
        self.outstanding[initiator] += 1;
        self.admit(id, now);
    }

    /// Admission control: into the dispatch queue if it has room, else
    /// QFULL — re-admitted after a backoff.
    fn admit(&mut self, req: u64, now: Nanos) {
        if self.queue.len() >= self.cfg.admission_limit {
            self.report.qfull += 1;
            let t = now + self.cfg.backoff;
            self.schedule(t, Event::Admit { req });
            return;
        }
        self.requeue(req);
        self.schedule(now, Event::TryDispatch);
    }

    fn drive(&mut self) {
        while let Some(Reverse((t, _, event))) = self.events.pop() {
            purity_obs::profile_scope!(purity_obs::Plane::HostDispatch);
            match event {
                Event::OpenArrival => {
                    self.array.clock().advance_to(t);
                    let sink = self.next_sink;
                    self.next_sink = (self.next_sink + 1) % self.cfg.initiators;
                    self.arrive(sink, t.max(self.array.now()));
                    if self.issued < self.target {
                        let gap = self.gen.next_interarrival().max(1);
                        self.schedule(t + gap, Event::OpenArrival);
                    }
                }
                Event::Admit { req } => {
                    if self.requests[req as usize].state == ReqState::Queued {
                        self.admit(req, t.max(self.array.now()));
                    }
                }
                Event::TryDispatch => self.try_dispatch(t),
                Event::Complete { req, attempt } => self.complete(req, attempt, t),
                Event::Timeout { req, attempt } => self.timeout(req, attempt, t),
                Event::Fault => self.apply_faults(t),
            }
            self.telemetry_tick();
        }
    }

    /// Flight-recorder hook. The engine advances the array clock
    /// directly (`advance_to`), bypassing `FlashArray::advance` and its
    /// built-in sampling, so each event processed checks whether a
    /// telemetry interval elapsed. The host-side queue depth gauge is
    /// refreshed first so every closed interval carries it.
    fn telemetry_tick(&mut self) {
        if !self.array.telemetry_due() {
            return;
        }
        let depth: usize = self.outstanding.iter().sum();
        self.array
            .obs()
            .registry
            .set_gauge("host_queue_depth", &[], depth as i64);
        self.array.sample_telemetry();
    }

    fn try_dispatch(&mut self, t: Nanos) {
        loop {
            let now = t.max(self.array.now());
            // All paths down: leave the queue intact and come back
            // after a backoff.
            let Some(path) = self.mp.select(now) else {
                if !self.queue.is_empty() {
                    let retry = now + self.cfg.backoff;
                    self.schedule(retry, Event::TryDispatch);
                }
                return;
            };
            let Some(req) = self.queue.pop() else {
                return;
            };
            self.dispatch(req, path, now);
        }
    }

    /// Pulls queued writes exactly adjacent to the head write at
    /// `offset` (offset chains upward) out of the queue: the head's
    /// payload with theirs appended, or `None` when none joined and the
    /// head's own payload goes as it is.
    fn coalesce(&mut self, head: u64, offset: u64, now: Nanos) -> Option<Vec<u8>> {
        if !self.cfg.coalesce {
            return None;
        }
        let mut len = self.requests[head as usize].kind.bytes() as usize;
        let mut joined: Option<Vec<u8>> = None;
        let mut riders = Vec::new();
        while len < MAX_COALESCE_BYTES {
            let offset_end = offset + len as u64;
            let next = self
                .queue
                .iter()
                .find_map(|req| match &self.requests[req as usize].kind {
                    ReqKind::Write {
                        offset,
                        data: rider_data,
                    } if *offset == offset_end && len + rider_data.len() <= MAX_COALESCE_BYTES => {
                        Some((req, rider_data))
                    }
                    _ => None,
                });
            let Some((rider, rider_data)) = next else {
                break;
            };
            joined
                .get_or_insert_with(|| self.requests[head as usize].kind.payload().to_vec())
                .extend_from_slice(rider_data);
            len += rider_data.len();
            self.queue.remove(rider);
            let r = &mut self.requests[rider as usize];
            let mut rt = OpTrace::new("host_write", r.arrival);
            stamp_wait(&mut rt, r.arrival, now);
            r.state = ReqState::Riding(head);
            r.trace = Some(rt);
            riders.push(rider);
            self.report.coalesced_writes += 1;
        }
        self.requests[head as usize].riders = riders;
        joined
    }

    fn dispatch(&mut self, req: u64, path: PathId, now: Nanos) {
        self.array.clock().advance_to(now);
        // Trace context: the first leg charges [arrival, now) to
        // host_queue; each retry leg charges the dead time since the
        // previous dispatch to multipath_retry.
        let prior = self.requests[req as usize].trace.take();
        let mut trace = {
            let r = &self.requests[req as usize];
            let mut t = prior.unwrap_or_else(|| {
                OpTrace::new(
                    match r.kind {
                        ReqKind::Read { .. } => "host_read",
                        ReqKind::Write { .. } => "host_write",
                    },
                    r.arrival,
                )
            });
            if r.attempts == 0 {
                stamp_wait(&mut t, r.arrival, now);
            } else {
                t.stage_note(
                    "multipath_retry",
                    r.dispatched_at,
                    now,
                    format!(
                        "leg {} gave no ack on path {:?}; retried with backoff",
                        r.attempts, r.path
                    ),
                );
            }
            t
        };
        let submitted = match self.requests[req as usize].kind {
            ReqKind::Read { offset, len } => self
                .array
                .submit_read(path.port(), self.volume, offset, len, Some(&mut trace))
                .map(|(id, _, ack)| (id, ack)),
            ReqKind::Write { offset, .. } => {
                // The request lends its payload; only a coalesced write
                // needs a buffer of its own.
                let joined = self.coalesce(req, offset, now);
                let own = self.requests[req as usize].kind.payload();
                let data = joined.as_deref().unwrap_or(own);
                self.array
                    .submit_write(path.port(), self.volume, offset, data, Some(&mut trace))
            }
        };
        let r = &mut self.requests[req as usize];
        r.attempts += 1;
        r.aborted = false;
        r.path = path;
        r.dispatched_at = now;
        r.trace = Some(trace);
        match submitted {
            Ok((op_id, ack)) => {
                if r.first_dispatch.is_none() {
                    r.first_dispatch = Some(now);
                    self.report.queue_wait.record(now.saturating_sub(r.arrival));
                }
                let attempt = r.attempts;
                self.mp.note_dispatch(path);
                self.report.note_path_dispatch(path);
                self.dispatched_ops.push((op_id, req));
                r.state = ReqState::Dispatched;
                self.schedule(now + ack.latency, Event::Complete { req, attempt });
                self.schedule(now + self.cfg.timeout, Event::Timeout { req, attempt });
            }
            Err(_) => {
                // The array refused the op outright (no ack to wait
                // for). Riders dissolve back into the queue; the head
                // retries with backoff or fails permanently.
                let riders = std::mem::take(&mut r.riders);
                let attempts = r.attempts;
                r.state = ReqState::Queued;
                for rider in riders {
                    self.requests[rider as usize].state = ReqState::Queued;
                    // Dissolved riders restart their trace cleanly: the
                    // whole wait is restamped at their next dispatch.
                    self.requests[rider as usize].trace = None;
                    self.requeue(rider);
                }
                self.report.dispatch_errors += 1;
                if attempts > MAX_RETRIES {
                    self.fail_request(req);
                } else {
                    self.requeue(req);
                    let retry = now + self.mp.backoff_for(attempts);
                    self.schedule(retry, Event::TryDispatch);
                }
            }
        }
    }

    /// Queues `req` at its arrival's place.
    fn requeue(&mut self, req: u64) {
        self.queue.push(req, self.requests[req as usize].arrival);
    }

    /// Delivers the ack for `req` (and its riders) if this completion
    /// is still live — not stale, not voided by a failover.
    fn complete(&mut self, req: u64, attempt: u32, t: Nanos) {
        let r = &self.requests[req as usize];
        if r.state != ReqState::Dispatched || r.attempts != attempt || r.aborted {
            return;
        }
        self.array.clock().advance_to(t);
        let path = r.path;
        self.mp.note_success(path);
        let riders = self.requests[req as usize].riders.clone();
        self.requests[req as usize].riders.clear();
        // A rider's own span tree is its wait plus one span covering the
        // carrier write it rode: charged to nvram_commit, because riding
        // a neighbour's NVRAM append is exactly what coalescing buys.
        let head_dispatch = self.requests[req as usize].dispatched_at;
        for &rider in &riders {
            if let Some(rt) = self.requests[rider as usize].trace.as_mut() {
                rt.stage_note(
                    "nvram_commit",
                    head_dispatch,
                    t,
                    format!("coalesced into adjacent write (request {req})"),
                );
            }
        }
        // deliver_ack frees each member's initiator slot and, in
        // closed-loop mode, sources the next arrival at the ack time.
        for member in std::iter::once(req).chain(riders) {
            self.deliver_ack(member, t);
        }
    }

    /// Marks one request completed and records its latencies.
    fn deliver_ack(&mut self, req: u64, t: Nanos) {
        if self.audit.ack(req) > 1 {
            self.report.duplicate_acks += 1;
        }
        // The ack closes the span tree: host wait + multipath legs +
        // array-plane spans, finished as one end-to-end trace.
        if let Some(trace) = self.requests[req as usize].trace.take() {
            self.array.obs().tracer.finish(trace, t);
        }
        let r = &mut self.requests[req as usize];
        r.state = ReqState::Completed;
        let bytes = r.kind.bytes();
        r.kind.release();
        let e2e = t.saturating_sub(r.arrival);
        let service = t.saturating_sub(if r.dispatched_at > 0 {
            r.dispatched_at
        } else {
            r.arrival
        });
        let initiator = r.initiator;
        let is_read = matches!(r.kind, ReqKind::Read { .. });
        if is_read {
            self.report.reads += 1;
            self.report.e2e_read.record(e2e);
        } else {
            self.report.writes += 1;
            self.report.e2e_write.record(e2e);
        }
        self.report.ops += 1;
        self.report.bytes += bytes;
        self.report.service.record(service);
        self.report.per_initiator_e2e[initiator].record(e2e);
        self.report.acks_delivered += 1;
        self.last_completion = self.last_completion.max(t);
        self.outstanding[initiator] = self.outstanding[initiator].saturating_sub(1);
        if self.mode == LoopMode::Closed {
            self.arrive(initiator, t);
        }
    }

    /// Host I/O timeout: the ack never arrived (in this simulation,
    /// only a failover abort can cause that — or a timeout set below
    /// the op's true latency, which resolves the same way). Mark the
    /// path failed, dissolve any coalition, and resubmit with backoff.
    fn timeout(&mut self, req: u64, attempt: u32, t: Nanos) {
        let r = &self.requests[req as usize];
        if r.state != ReqState::Dispatched || r.attempts != attempt {
            return;
        }
        let path = r.path;
        let attempts = r.attempts;
        self.report.timeouts += 1;
        self.mp.note_timeout(path, t);
        self.report.note_path_timeout(path);
        let riders = std::mem::take(&mut self.requests[req as usize].riders);
        for rider in riders {
            self.requests[rider as usize].state = ReqState::Queued;
            self.requests[rider as usize].trace = None;
            self.requeue(rider);
        }
        if attempts > MAX_RETRIES {
            self.fail_request(req);
            self.schedule(t, Event::TryDispatch);
            return;
        }
        self.requests[req as usize].state = ReqState::Queued;
        self.report.retries += 1;
        self.requeue(req);
        let retry = t + self.mp.backoff_for(attempts);
        self.schedule(retry, Event::TryDispatch);
    }

    fn fail_request(&mut self, req: u64) {
        self.audit.fail(req);
        let r = &mut self.requests[req as usize];
        r.state = ReqState::Failed;
        r.kind.release();
        // No ack was ever delivered, so the trace never finishes: blame
        // accounting covers completed ops only.
        r.trace = None;
        let initiator = r.initiator;
        self.report.failed_ops += 1;
        self.outstanding[initiator] = self.outstanding[initiator].saturating_sub(1);
    }

    /// Applies every fault due at `t`. A controller failover reports
    /// the array op ids whose acks died with the old primary; the
    /// matching requests are flagged so their pending completion events
    /// are void — the host's own timeout machinery takes it from there.
    fn apply_faults(&mut self, t: Nanos) {
        self.array.clock().advance_to(t);
        let Some(plan) = self.plan.as_deref_mut() else {
            return;
        };
        let applied = match self.array.apply_due_faults(plan) {
            Ok(applied) => applied,
            Err(e) => panic!("fault application failed: {e}"),
        };
        for fault in applied {
            if let FaultOutcome::FailedOver(report) = fault.outcome {
                self.report.failovers_observed += 1;
                let aborted: HashSet<u64> = report.aborted.iter().copied().collect();
                self.report.acks_lost += aborted.len() as u64;
                for &(op_id, req) in &self.dispatched_ops {
                    if aborted.contains(&op_id)
                        && self.requests[req as usize].state == ReqState::Dispatched
                    {
                        self.requests[req as usize].aborted = true;
                    }
                }
            }
        }
        // Old (op id, request) pairs are dead weight once their
        // requests complete; prune to keep the scan bounded.
        self.dispatched_ops
            .retain(|&(_, req)| self.requests[req as usize].state == ReqState::Dispatched);
    }

    fn finish(mut self) -> HostReport {
        self.report.elapsed = self.last_completion.saturating_sub(self.start);
        // Close the exactly-once audit: every issued request must have
        // exactly one ack unless it permanently failed.
        for r in &self.requests {
            debug_assert!(
                matches!(r.state, ReqState::Completed | ReqState::Failed),
                "request left in state {:?}",
                r.state
            );
        }
        let audit = self.audit.report();
        debug_assert_eq!(audit.acks_delivered, self.report.acks_delivered);
        debug_assert_eq!(audit.duplicate_acks, self.report.duplicate_acks);
        self.report.stranded_ops = audit.stranded_ops;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use purity_core::ArrayConfig;
    use purity_wkld::{AccessPattern, ContentModel, SizeMix};

    fn workload(seed: u64, read_pct: u8) -> WorkloadGen {
        WorkloadGen::new(
            seed,
            8 << 20,
            AccessPattern::Uniform,
            SizeMix::fixed(16 * 1024),
            read_pct,
            ContentModel::Rdbms,
            0,
        )
    }

    #[test]
    fn closed_loop_completes_every_op() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("host", 8 << 20).unwrap();
        let engine = HostEngine::new(HostConfig {
            initiators: 2,
            queue_depth: 4,
            ..HostConfig::default()
        });
        let mut gen = workload(7, 50);
        let report = engine.run_closed_loop(&mut a, vol, &mut gen, 300, None);
        assert_eq!(report.ops, 300);
        assert_eq!(report.acks_delivered, 300);
        assert_eq!(report.duplicate_acks, 0);
        assert_eq!(report.stranded_ops, 0);
        assert!(report.elapsed > 0);
        assert!(report.reads > 0 && report.writes > 0);
    }

    #[test]
    fn higher_queue_depth_raises_throughput_and_latency() {
        let run = |qd: usize| {
            // A near-zero DRAM cache forces reads to the drives, where
            // per-die timelines make outstanding ops queue.
            let mut cfg = ArrayConfig::test_small();
            cfg.cache_bytes = 64 * 1024;
            let mut a = FlashArray::new(cfg).unwrap();
            let vol = a.create_volume("host", 8 << 20).unwrap();
            let engine = HostEngine::new(HostConfig {
                initiators: 2,
                queue_depth: qd,
                coalesce: false,
                ..HostConfig::default()
            });
            let mut gen = workload(11, 100);
            // Warm the volume with unique content so dedup can't
            // collapse it and reads must hit distinct drive blocks.
            let mut warm = vec![0u8; 1 << 20];
            for c in 0..8u64 {
                for (i, b) in warm.iter_mut().enumerate() {
                    *b = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(c) as u8;
                }
                a.write(vol, c * (1 << 20), &warm).unwrap();
            }
            engine.run_closed_loop(&mut a, vol, &mut gen, 400, None)
        };
        let qd1 = run(1);
        let qd32 = run(32);
        assert!(
            qd32.iops() > qd1.iops(),
            "QD32 {} IOPS should beat QD1 {} IOPS",
            qd32.iops(),
            qd1.iops()
        );
        assert!(
            qd32.e2e_read.p50() > qd1.e2e_read.p50(),
            "queueing should raise p50: qd32 {} vs qd1 {}",
            qd32.e2e_read.p50(),
            qd1.e2e_read.p50()
        );
    }

    #[test]
    fn open_loop_respects_arrival_pacing() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("host", 8 << 20).unwrap();
        let engine = HostEngine::new(HostConfig::default());
        let mut gen =
            workload(13, 60).with_arrivals(purity_wkld::ArrivalProcess::Poisson { mean: 200_000 });
        let report = engine.run_open_loop(&mut a, vol, &mut gen, 300, None);
        assert_eq!(report.ops, 300);
        // 300 arrivals at a 200 µs mean gap spread over ≈60 ms.
        assert!(
            report.elapsed > 30_000_000,
            "open-loop elapsed {} should reflect pacing",
            report.elapsed
        );
    }

    #[test]
    fn coalescing_merges_adjacent_writes() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("host", 8 << 20).unwrap();
        let engine = HostEngine::new(HostConfig {
            initiators: 1,
            queue_depth: 16,
            ..HostConfig::default()
        });
        // Sequential writes: every dispatch sees its successors queued
        // right behind it at adjacent offsets.
        let mut gen = WorkloadGen::new(
            3,
            8 << 20,
            AccessPattern::Sequential,
            SizeMix::fixed(8 * 1024),
            0,
            ContentModel::Rdbms,
            0,
        );
        let report = engine.run_closed_loop(&mut a, vol, &mut gen, 200, None);
        assert_eq!(report.ops, 200);
        assert!(
            report.coalesced_writes > 0,
            "sequential QD16 stream should coalesce"
        );
        assert_eq!(report.duplicate_acks, 0);
    }

    #[test]
    fn traces_split_host_wait_into_queue_and_throttle_spans() {
        let mut acfg = ArrayConfig::test_small();
        acfg.obs.slow_op_threshold = 1; // capture every op's span tree
        let mut a = FlashArray::new(acfg).unwrap();
        let vol = a.create_volume("host", 8 << 20).unwrap();
        // A one-entry admission limit makes requests wait at the host
        // before dispatch.
        let engine = HostEngine::new(HostConfig {
            initiators: 2,
            queue_depth: 8,
            coalesce: false,
            admission_limit: 1,
            ..HostConfig::default()
        });
        let mut gen = workload(17, 50);
        let folded_before = a.obs().tracer.folded_count();
        let report = engine.run_closed_loop(&mut a, vol, &mut gen, 100, None);
        assert_eq!(report.ops, 100);
        assert!(report.qfull > 0, "host wait must accrue for this test");
        // Every host op folds into blame accounting...
        assert!(a.obs().tracer.folded_count() >= folded_before + 100);
        // ...and the captured span trees carry both halves of the story:
        // host-plane wait spans and the absorbed array-plane spans.
        let slow = a.obs().tracer.slow_ops();
        let stages: std::collections::HashSet<&str> = slow
            .iter()
            .flat_map(|o| o.stages.iter().map(|s| s.stage))
            .collect();
        assert!(stages.contains("host_queue"), "stages seen: {stages:?}");
        assert!(stages.contains("nvram_commit"), "stages seen: {stages:?}");
        // No rate cap holds a request back, so the whole wait is queue:
        // no throttle span appears, and each wait starts at its arrival.
        assert!(!stages.contains("qos_throttle"), "stages seen: {stages:?}");
        for o in slow.iter().filter(|o| o.kind.starts_with("host_")) {
            for s in o.stages.iter().filter(|s| s.stage == "host_queue") {
                assert_eq!(s.start, o.issued_at, "host wait must start at arrival");
            }
        }
        assert!(
            slow.iter().any(|o| o.kind.starts_with("host_")),
            "ring should hold host-initiated end-to-end traces"
        );
    }

    #[test]
    fn qfull_backoff_wait_is_charged_to_host_queue() {
        let mut acfg = ArrayConfig::test_small();
        acfg.obs.slow_op_threshold = 1;
        let mut a = FlashArray::new(acfg).unwrap();
        let vol = a.create_volume("host", 8 << 20).unwrap();
        // Wait accrues from QFULL re-admission backoff, which the trace
        // charges to host_queue.
        let engine = HostEngine::new(HostConfig {
            initiators: 2,
            queue_depth: 8,
            coalesce: false,
            admission_limit: 1,
            ..HostConfig::default()
        });
        let mut gen = workload(23, 50);
        let report = engine.run_closed_loop(&mut a, vol, &mut gen, 100, None);
        assert_eq!(report.ops, 100);
        assert!(report.qfull > 0, "admission limit must bite");
        let stages: std::collections::HashSet<&str> = a
            .obs()
            .tracer
            .slow_ops()
            .iter()
            .flat_map(|o| o.stages.iter().map(|s| s.stage))
            .collect();
        assert!(stages.contains("host_queue"), "stages seen: {stages:?}");
    }

    #[test]
    fn retried_request_dispatches_ahead_of_later_arrivals() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("host", 8 << 20).unwrap();
        let cfg = HostConfig {
            initiators: 1,
            queue_depth: 1,
            coalesce: false,
            ..HostConfig::default()
        };
        let mut gen = workload(29, 50);
        let mut run = Run::new(&cfg, &mut a, vol, &mut gen, LoopMode::Open, None, 3);
        let t0 = run.start;
        run.arrive(0, t0);
        run.try_dispatch(t0);
        // Requests 1 and 2 arrive while request 0 is in flight.
        run.arrive(0, t0 + 1_000);
        run.arrive(0, t0 + 2_000);
        // Request 0's ack never lands: its path times out and it goes
        // back to the queue at its arrival's place.
        let expiry = t0 + cfg.timeout;
        run.timeout(0, 1, expiry);
        run.try_dispatch(expiry);
        let order: Vec<u64> = run.dispatched_ops.iter().map(|&(_, req)| req).collect();
        assert_eq!(order, vec![0, 0, 1, 2]);
        assert_eq!(run.requests[0].path, PathId::B, "retried on the survivor");
    }

    /// A write's payload lives until its ack or its final failure, and
    /// no longer: after a closed-loop run no request holds bytes. Until
    /// then a retry resends them, so every write a failover cut short
    /// reads back as the generator made it.
    #[test]
    fn payloads_live_until_the_ack_and_retries_resend_them() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("host", 16 << 20).unwrap();
        let cfg = HostConfig {
            timeout: 50 * purity_sim::MS,
            backoff: 100_000,
            ..HostConfig::default()
        };
        let stream = || {
            WorkloadGen::new(
                5,
                16 << 20,
                AccessPattern::Sequential,
                SizeMix::fixed(32 * 1024),
                0,
                ContentModel::Rdbms,
                0,
            )
        };
        let (mut gen, total) = (stream(), 400);
        let at = a.now() + purity_sim::MS;
        let mut plan = FaultPlan::new().at(at, purity_core::FaultEvent::FailPrimary);
        let mut run = Run::new(
            &cfg,
            &mut a,
            vol,
            &mut gen,
            LoopMode::Closed,
            Some(&mut plan),
            total,
        );
        run.seed_arrivals();
        run.drive();
        for (i, r) in run.requests.iter().enumerate() {
            assert!(matches!(r.state, ReqState::Completed | ReqState::Failed));
            if let ReqKind::Write { data, .. } = &r.kind {
                assert_eq!(data.capacity(), 0, "request {i} still holds its payload");
            }
        }
        let retried: Vec<usize> = (run.requests.iter().enumerate())
            .filter(|(_, r)| r.attempts > 1)
            .map(|(i, _)| i)
            .collect();
        let report = run.finish();
        assert_eq!((report.ops, report.failed_ops), (total, 0));
        assert_eq!(report.failovers_observed, 1);
        assert!(
            report.acks_lost > 0 && !retried.is_empty(),
            "the failover cut no write short"
        );
        // Request i carries the generator's i-th op: regenerate them.
        let mut again = stream();
        let ops: Vec<Op> = (0..total).map(|_| again.next_op()).collect();
        for i in retried {
            let Op::Write { offset, data } = &ops[i] else {
                panic!("a write-only stream made a read");
            };
            let (got, _) = a.read(vol, *offset, data.len()).unwrap();
            assert!(got == *data, "retried write {i} did not land its bytes");
        }
    }
}
