//! Flight recorder: virtual-time telemetry time-series, SLO burn
//! tracking, and tail-latency incident capture.
//!
//! The paper's headline claim is *continuous* — Figure 7 plots p99.9
//! read latency over a five-minute window under failure injection, not
//! one end-of-run histogram. The [`Recorder`] makes that measurable:
//! on a virtual-clock cadence it is handed the collected [`Frame`] and
//! keeps bounded per-interval series:
//!
//! * **counter deltas** — IOPS, bytes, GC/scrub activity, per-drive
//!   stall time — one value per elapsed interval;
//! * **gauge values** — NVRAM occupancy, queue depths — point-in-time
//!   at each interval boundary;
//! * **windowed quantile sketches** — every cumulative latency
//!   histogram is diffed against its previous sample
//!   ([`LatencyHistogram::delta_since`]) so p50/p99/p99.9 exist *per
//!   interval*.
//!
//! An [`SloConfig`]-driven monitor watches one latency series (by
//! default the array read path) against the paper's 1 ms p99.9 budget.
//! A violating interval opens an [`Incident`]: a frozen causal-evidence
//! bundle — the violating interval's quantiles, the slow-op ring
//! contents at that instant, and caller-attached [`EvidenceSection`]s
//! (per-die busy/GC state, array rebuild/failover state, host queue
//! depths). The incident tracks its peak burn and closes after a
//! configurable streak of healthy intervals.
//!
//! Everything runs on the virtual clock: same seed, byte-identical
//! `timeseries`/`incidents` JSON. Sampling is quantized to the ticks
//! that call [`Recorder::sample`] — activity between the nominal grid
//! boundary and the tick that closes it is attributed to the closing
//! interval.

use crate::blame::BlameVec;
use crate::json::JsonWriter;
use crate::registry::{Frame, MetricId};
use crate::trace::{FoldedOp, SlowOp, Tracer};
use parking_lot::Mutex;
use purity_sim::{LatencyHistogram, Nanos};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default sampling cadence: 100 ms of virtual time.
pub const DEFAULT_SAMPLE_INTERVAL_NS: Nanos = 100_000_000;

/// Default retained window: 4096 intervals (~6.8 virtual minutes at the
/// default cadence — enough to hold the paper's five-minute trace).
pub const DEFAULT_WINDOW_INTERVALS: usize = 4096;

/// SLO monitor configuration.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Name of the (unlabeled) latency histogram series to monitor.
    pub series: String,
    /// Per-interval p99.9 budget (the paper's 1 ms read bound).
    pub p999_budget_ns: Nanos,
    /// Intervals with fewer samples than this are not judged (a p99.9
    /// of three ops is noise, not burn).
    pub min_interval_count: u64,
    /// Consecutive healthy intervals required to close an incident.
    pub cooldown_intervals: u32,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            series: "array_read_latency".to_string(),
            p999_budget_ns: 1_000_000,
            min_interval_count: 16,
            cooldown_intervals: 2,
        }
    }
}

/// Recorder configuration.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Virtual-time sampling cadence.
    pub interval_ns: Nanos,
    /// Bounded window: intervals retained before the oldest is evicted.
    pub window_intervals: usize,
    /// SLO monitor knobs.
    pub slo: SloConfig,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            interval_ns: DEFAULT_SAMPLE_INTERVAL_NS,
            window_intervals: DEFAULT_WINDOW_INTERVALS,
            slo: SloConfig::default(),
        }
    }
}

/// Compact per-interval quantile sketch of one histogram series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalStats {
    pub count: u64,
    pub p50: Nanos,
    pub p99: Nanos,
    pub p999: Nanos,
    pub max: Nanos,
}

impl IntervalStats {
    fn of(h: &LatencyHistogram) -> Self {
        Self {
            count: h.count(),
            p50: h.p50(),
            p99: h.p99(),
            p999: h.p999(),
            max: h.max(),
        }
    }

    fn to_json(self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("count", self.count)
            .u64_field("p50_ns", self.p50)
            .u64_field("p99_ns", self.p99)
            .u64_field("p999_ns", self.p999)
            .u64_field("max_ns", self.max);
        w.finish()
    }
}

/// One interval's tail-blame decomposition: what the p99.9 cohort's
/// latency (and, for context, the whole population's) was *made of*,
/// folded from every completed op's critical path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailBlame {
    /// Folded ops completing in this interval.
    pub ops: u64,
    /// Ops in the p99.9 cohort: the top ceil(0.1% · ops) by latency.
    pub cohort_ops: u64,
    /// Exact (nearest-rank) p99.9 of the folded population.
    pub p999_ns: Nanos,
    /// Summed blame of the p99.9 cohort.
    pub cohort: BlameVec,
    /// Summed blame of every folded op in the interval.
    pub total: BlameVec,
}

impl TailBlame {
    /// Folds one interval's completed ops. The cohort is the top
    /// ceil(0.1% · n) ops by latency — at least one whenever the
    /// interval saw any. The count is capped (rather than taking every
    /// op at or above the p99.9 value) because simulated latencies are
    /// deterministic and tie exactly: a "p99.9 cohort" that swallowed
    /// every tied op could cover the interval's whole population. Ties
    /// at the threshold are broken by fold order, which is itself
    /// deterministic (ops finish in one thread's program order).
    fn of(folded: &[FoldedOp]) -> Self {
        let mut tb = TailBlame {
            ops: folded.len() as u64,
            ..TailBlame::default()
        };
        if folded.is_empty() {
            return tb;
        }
        let mut lats: Vec<Nanos> = folded.iter().map(|f| f.latency).collect();
        lats.sort_unstable();
        // Nearest-rank p99.9: rank ceil(0.999 * n), 1-based.
        let rank = (lats.len() * 999).div_ceil(1000);
        tb.p999_ns = lats[rank - 1];
        let mut tie_slots = {
            let above = lats.iter().filter(|&&l| l > tb.p999_ns).count();
            lats.len() - (rank - 1) - above
        };
        for f in folded {
            tb.total.merge(&f.blame);
            if f.latency > tb.p999_ns {
                tb.cohort_ops += 1;
                tb.cohort.merge(&f.blame);
            } else if f.latency == tb.p999_ns && tie_slots > 0 {
                tie_slots -= 1;
                tb.cohort_ops += 1;
                tb.cohort.merge(&f.blame);
            }
        }
        tb
    }

    fn to_json(self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("ops", self.ops)
            .u64_field("cohort_ops", self.cohort_ops)
            .u64_field("p999_ns", self.p999_ns)
            .raw_field("cohort", &self.cohort.to_json())
            .raw_field("total", &self.total.to_json());
        w.finish()
    }

    /// The frozen evidence entries an opening incident captures.
    fn evidence_entries(&self) -> Vec<(String, String)> {
        let mut entries = vec![
            ("ops".to_string(), self.ops.to_string()),
            ("cohort_ops".to_string(), self.cohort_ops.to_string()),
            ("p999_ns".to_string(), self.p999_ns.to_string()),
        ];
        for (cat, ns) in self.cohort.iter() {
            entries.push((format!("cohort.{}", cat.as_str()), ns.to_string()));
        }
        entries
    }
}

/// One named group of key/value evidence attached to an incident (e.g.
/// section `drives`, entry `drive3.die2` → `busy erasing until 1.2ms`).
#[derive(Debug, Clone)]
pub struct EvidenceSection {
    pub section: String,
    /// Sorted on export; callers may append in any order.
    pub entries: Vec<(String, String)>,
}

/// A frozen causal-evidence bundle for one SLO violation window.
#[derive(Debug, Clone)]
pub struct Incident {
    pub id: u64,
    /// Start of the first violating interval.
    pub opened_at: Nanos,
    /// End of the interval that completed the healthy cooldown streak;
    /// `None` while the incident is still burning.
    pub closed_at: Option<Nanos>,
    /// The budget in force when the incident opened.
    pub budget_ns: Nanos,
    /// Worst per-interval p99.9 seen while open.
    pub peak_p999_ns: Nanos,
    /// Number of violating intervals while open.
    pub violating_intervals: u32,
    /// The first violating interval's quantiles.
    pub trigger: IntervalStats,
    /// Slow-op ring contents frozen at open time.
    pub slow_ops: Vec<SlowOp>,
    /// Caller-attached blame state (drives, array, host).
    pub evidence: Vec<EvidenceSection>,
}

impl Incident {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("id", self.id)
            .u64_field("opened_at_ns", self.opened_at)
            .bool_field("open", self.closed_at.is_none());
        if let Some(t) = self.closed_at {
            w.u64_field("closed_at_ns", t);
        }
        w.u64_field("budget_ns", self.budget_ns)
            .u64_field("peak_p999_ns", self.peak_p999_ns)
            .u64_field("violating_intervals", self.violating_intervals as u64)
            .raw_field("trigger", &self.trigger.to_json());
        let mut ops = JsonWriter::array();
        for op in &self.slow_ops {
            ops.raw_element(&op.to_json());
        }
        w.raw_field("slow_ops", &ops.finish());
        let mut sections: Vec<&EvidenceSection> = self.evidence.iter().collect();
        sections.sort_by(|a, b| a.section.cmp(&b.section));
        let mut ev = JsonWriter::array();
        for s in sections {
            let mut entries: Vec<&(String, String)> = s.entries.iter().collect();
            entries.sort();
            let mut body = JsonWriter::object();
            for (k, v) in entries {
                body.str_field(k, v);
            }
            let mut sec = JsonWriter::object();
            sec.str_field("section", &s.section)
                .raw_field("entries", &body.finish());
            ev.raw_element(&sec.finish());
        }
        w.raw_field("evidence", &ev.finish());
        w.finish()
    }
}

/// SLO monitor transitions surfaced by one [`Recorder::sample`] call.
/// The caller reacts to `Opened` by attaching domain evidence via
/// [`Recorder::attach_evidence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloEvent {
    Opened { id: u64, opened_at: Nanos },
    Closed { id: u64, closed_at: Nanos },
}

/// One retained series: the per-interval values plus the previous
/// cumulative sample the next delta is taken against (counters and
/// histograms; gauges carry none).
#[derive(Debug, Default)]
struct Series<P, T> {
    prev: P,
    values: VecDeque<T>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Start of the oldest retained interval.
    first_start: Nanos,
    /// Retained interval count (every series has exactly this length).
    len: usize,
    /// Intervals evicted from the window since the epoch.
    dropped: u64,
    counters: BTreeMap<MetricId, Series<u64, u64>>,
    gauges: BTreeMap<MetricId, Series<(), i64>>,
    hists: BTreeMap<MetricId, Series<Option<LatencyHistogram>, IntervalStats>>,
    /// Per-interval tail-blame decomposition (same window as the series).
    tail: VecDeque<TailBlame>,
    incidents: Vec<Incident>,
    /// Index into `incidents` of the currently burning one.
    open: Option<usize>,
    healthy_streak: u32,
}

/// The flight recorder. One per [`crate::Obs`] hub; shared (like the
/// registry and tracer) across controller failover, reborn on a
/// whole-array power loss.
#[derive(Debug)]
pub struct Recorder {
    interval: Nanos,
    window: usize,
    slo: SloConfig,
    epoch: Nanos,
    /// End of the next interval to close — loaded lock-free by
    /// [`Recorder::due`] so per-op checks cost one atomic read.
    next_boundary: AtomicU64,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// Creates a recorder whose interval grid is anchored at `epoch`
    /// (the virtual time the owning controller booted, so a recorder
    /// reborn after a power loss never reports intervals predating it).
    pub fn new(cfg: RecorderConfig, epoch: Nanos) -> Self {
        let interval = cfg.interval_ns.max(1);
        Self {
            interval,
            window: cfg.window_intervals.max(1),
            slo: cfg.slo,
            epoch,
            next_boundary: AtomicU64::new(epoch + interval),
            inner: Mutex::new(Inner {
                first_start: epoch,
                ..Inner::default()
            }),
        }
    }

    /// The sampling cadence.
    pub fn interval_ns(&self) -> Nanos {
        self.interval
    }

    /// The grid anchor.
    pub fn epoch(&self) -> Nanos {
        self.epoch
    }

    /// The SLO monitor configuration.
    pub fn slo(&self) -> &SloConfig {
        &self.slo
    }

    /// Whether an interval boundary has elapsed — cheap enough to call
    /// per operation.
    pub fn due(&self, now: Nanos) -> bool {
        now >= self.next_boundary.load(Ordering::Relaxed)
    }

    /// Closes every interval whose end lies at or before `now`: the
    /// first closing interval receives `frame`'s deltas since the
    /// previous sample (activity in later partial intervals is
    /// attributed here — sampling is quantized to the caller's ticks),
    /// the rest close empty. Returns the SLO transitions this sample
    /// caused. Call [`Recorder::attach_evidence`] for each `Opened`.
    pub fn sample(&self, now: Nanos, frame: &Frame<'_>, tracer: &Tracer) -> Vec<SloEvent> {
        let mut events = Vec::new();
        let mut boundary = self.next_boundary.load(Ordering::Relaxed);
        if now < boundary {
            return events;
        }
        let mut inner = self.inner.lock();

        // First elapsed interval: the real deltas.
        let (slo_stats, tail) = self.close_delta_interval(&mut inner, frame, tracer, boundary);
        self.judge(&mut inner, boundary, slo_stats, tail, tracer, &mut events);
        boundary += self.interval;

        // Any further fully elapsed intervals saw no sampling tick:
        // they close empty. Fast-forward past the ones the bounded
        // window would immediately evict anyway (everything retained is
        // older still, so it goes too).
        if boundary <= now {
            let pending = ((now - boundary) / self.interval + 1) as usize;
            if pending > self.window {
                let skip = (pending - self.window) as u64;
                boundary += skip * self.interval;
                inner.fast_forward(skip, boundary - self.interval);
                // Folded ops belonging to the dropped intervals go too.
                drop(tracer.drain_folded_before(boundary - self.interval));
            }
            while boundary <= now {
                let tail = self.close_interval(&mut inner, tracer, boundary);
                self.judge(
                    &mut inner,
                    boundary,
                    IntervalStats::default(),
                    tail,
                    tracer,
                    &mut events,
                );
                boundary += self.interval;
            }
        }
        self.next_boundary.store(boundary, Ordering::Relaxed);
        events
    }

    /// Attaches blame evidence to an incident (normally the one just
    /// surfaced as [`SloEvent::Opened`]). Appends to whatever the
    /// recorder froze at open time (the `tail_blame` section).
    pub fn attach_evidence(&self, incident_id: u64, evidence: Vec<EvidenceSection>) {
        let mut inner = self.inner.lock();
        if let Some(inc) = inner.incidents.iter_mut().find(|i| i.id == incident_id) {
            inc.evidence.extend(evidence);
        }
    }

    /// Retained interval count.
    pub fn intervals(&self) -> usize {
        self.inner.lock().len
    }

    /// Start of the oldest retained interval.
    pub fn first_interval_start(&self) -> Nanos {
        self.inner.lock().first_start
    }

    /// All incidents so far, open ones last.
    pub fn incidents(&self) -> Vec<Incident> {
        self.inner.lock().incidents.clone()
    }

    /// Id of the currently burning incident, if any.
    pub fn open_incident(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner.open.map(|i| inner.incidents[i].id)
    }

    /// Per-interval deltas of a counter series (empty if unknown).
    pub fn counter_series(&self, name: &str, labels: &[(&str, &str)]) -> Vec<u64> {
        let id = MetricId::new(name, labels);
        self.inner
            .lock()
            .counters
            .get(&id)
            .map(|s| s.values.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Intervals evicted (or skipped over a long gap) since boot.
    pub fn dropped_intervals(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Per-interval values of a gauge series (empty if unknown).
    pub fn gauge_series(&self, name: &str, labels: &[(&str, &str)]) -> Vec<i64> {
        let id = MetricId::new(name, labels);
        self.inner
            .lock()
            .gauges
            .get(&id)
            .map(|s| s.values.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Per-interval sketches of a histogram series (empty if unknown).
    pub fn hist_series(&self, name: &str, labels: &[(&str, &str)]) -> Vec<IntervalStats> {
        let id = MetricId::new(name, labels);
        self.inner
            .lock()
            .hists
            .get(&id)
            .map(|s| s.values.iter().copied().collect())
            .unwrap_or_default()
    }

    fn close_delta_interval(
        &self,
        inner: &mut Inner,
        frame: &Frame<'_>,
        tracer: &Tracer,
        boundary: Nanos,
    ) -> (IntervalStats, TailBlame) {
        let (len, window) = (inner.len, self.window);
        // Counters: delta vs the previous cumulative sample (a series
        // appearing mid-run has an implicit previous value of 0).
        for (id, v) in &frame.counters {
            let s = series_mut(&mut inner.counters, id, len, window);
            s.values.push_back(v.saturating_sub(s.prev));
            s.prev = *v;
        }
        // Gauges: point-in-time at the closing tick.
        for (id, v) in &frame.gauges {
            series_mut(&mut inner.gauges, id, len, window)
                .values
                .push_back(*v);
        }
        // Histograms: windowed sketch via cumulative diff.
        let mut slo_stats = IntervalStats::default();
        for (id, h) in &frame.histograms {
            let s = series_mut(&mut inner.hists, id, len, window);
            let stats = match &mut s.prev {
                Some(prev) => {
                    let stats = IntervalStats::of(&h.delta_since(prev));
                    prev.clone_from(h);
                    stats
                }
                None => {
                    s.prev = Some(h.as_ref().clone());
                    IntervalStats::of(h)
                }
            };
            if id.labels.is_empty() && id.name == self.slo.series {
                slo_stats = stats;
            }
            s.values.push_back(stats);
        }
        (slo_stats, self.close_interval(inner, tracer, boundary))
    }

    /// Closes the interval ending at `boundary`: series the interval
    /// has not written idle (no sampling tick landed, or the owner
    /// emitted nothing), the interval's completed ops fold into its
    /// tail blame — ops may complete on a stretch of the grid no tick
    /// landed on — and the window advances.
    fn close_interval(&self, inner: &mut Inner, tracer: &Tracer, boundary: Nanos) -> TailBlame {
        let len = inner.len;
        for s in inner
            .counters
            .values_mut()
            .filter(|s| s.values.len() == len)
        {
            s.values.push_back(0);
        }
        for s in inner.gauges.values_mut().filter(|s| s.values.len() == len) {
            // A gauge holds its last sampled value across idle intervals.
            let last = s.values.back().copied().unwrap_or(0);
            s.values.push_back(last);
        }
        for s in inner.hists.values_mut().filter(|s| s.values.len() == len) {
            s.values.push_back(IntervalStats::default());
        }
        let tail = TailBlame::of(&tracer.drain_folded_before(boundary));
        inner.tail.push_back(tail);
        inner.finish_interval(self.interval, self.window);
        tail
    }

    /// SLO judgment for the interval that just closed with end time
    /// `boundary` and monitored-series stats `stats`.
    fn judge(
        &self,
        inner: &mut Inner,
        boundary: Nanos,
        stats: IntervalStats,
        tail: TailBlame,
        tracer: &Tracer,
        events: &mut Vec<SloEvent>,
    ) {
        let violated =
            stats.count >= self.slo.min_interval_count && stats.p999 > self.slo.p999_budget_ns;
        match (inner.open, violated) {
            (None, true) => {
                let id = inner.incidents.len() as u64;
                let opened_at = boundary - self.interval;
                inner.incidents.push(Incident {
                    id,
                    opened_at,
                    closed_at: None,
                    budget_ns: self.slo.p999_budget_ns,
                    peak_p999_ns: stats.p999,
                    violating_intervals: 1,
                    trigger: stats,
                    slow_ops: tracer.slow_ops(),
                    // The violating interval's tail decomposition is
                    // frozen immediately; callers extend via
                    // [`Recorder::attach_evidence`].
                    evidence: vec![EvidenceSection {
                        section: "tail_blame".to_string(),
                        entries: tail.evidence_entries(),
                    }],
                });
                inner.open = Some(inner.incidents.len() - 1);
                inner.healthy_streak = 0;
                events.push(SloEvent::Opened { id, opened_at });
            }
            (Some(i), true) => {
                let inc = &mut inner.incidents[i];
                inc.peak_p999_ns = inc.peak_p999_ns.max(stats.p999);
                inc.violating_intervals += 1;
                inner.healthy_streak = 0;
            }
            (Some(i), false) => {
                inner.healthy_streak += 1;
                if inner.healthy_streak >= self.slo.cooldown_intervals.max(1) {
                    let inc = &mut inner.incidents[i];
                    inc.closed_at = Some(boundary);
                    events.push(SloEvent::Closed {
                        id: inc.id,
                        closed_at: boundary,
                    });
                    inner.open = None;
                    inner.healthy_streak = 0;
                }
            }
            (None, false) => {}
        }
    }

    /// The `timeseries` export section: cadence, window metadata, and
    /// one entry per series (counters/gauges/histograms each sorted by
    /// name+labels — BTreeMap order).
    pub fn timeseries_json(&self) -> String {
        let inner = self.inner.lock();
        let mut counters = JsonWriter::array();
        for (id, series) in &inner.counters {
            let mut w = id.json_object();
            w.raw_field("deltas", &u64_array(series.values.iter().copied()));
            counters.raw_element(&w.finish());
        }
        let mut gauges = JsonWriter::array();
        for (id, series) in &inner.gauges {
            let vals: Vec<String> = series.values.iter().map(|v| v.to_string()).collect();
            let mut w = id.json_object();
            w.raw_field("values", &format!("[{}]", vals.join(",")));
            gauges.raw_element(&w.finish());
        }
        let mut hists = JsonWriter::array();
        for (id, series) in &inner.hists {
            let sketches = &series.values;
            let mut w = id.json_object();
            w.raw_field("count", &u64_array(sketches.iter().map(|s| s.count)))
                .raw_field("p50_ns", &u64_array(sketches.iter().map(|s| s.p50)))
                .raw_field("p99_ns", &u64_array(sketches.iter().map(|s| s.p99)))
                .raw_field("p999_ns", &u64_array(sketches.iter().map(|s| s.p999)))
                .raw_field("max_ns", &u64_array(sketches.iter().map(|s| s.max)));
            hists.raw_element(&w.finish());
        }
        let mut root = JsonWriter::object();
        root.u64_field("interval_ns", self.interval)
            .u64_field("epoch_ns", self.epoch)
            .u64_field("first_start_ns", inner.first_start)
            .u64_field("intervals", inner.len as u64)
            .u64_field("dropped_intervals", inner.dropped)
            .raw_field("counters", &counters.finish())
            .raw_field("gauges", &gauges.finish())
            .raw_field("histograms", &hists.finish());
        root.finish()
    }

    /// The `tail_blame` export section: per-interval decomposition of
    /// the p99.9 cohort's (and total population's) latency by blame
    /// category, on the same bounded window as `timeseries`.
    pub fn tail_blame_json(&self) -> String {
        let inner = self.inner.lock();
        let mut entries = JsonWriter::array();
        for tb in &inner.tail {
            entries.raw_element(&tb.to_json());
        }
        let mut root = JsonWriter::object();
        root.u64_field("interval_ns", self.interval)
            .u64_field("epoch_ns", self.epoch)
            .u64_field("first_start_ns", inner.first_start)
            .u64_field("intervals", inner.len as u64)
            .raw_field("entries", &entries.finish());
        root.finish()
    }

    /// Per-interval tail blame (same retained window as the series).
    pub fn tail_series(&self) -> Vec<TailBlame> {
        self.inner.lock().tail.iter().copied().collect()
    }

    /// The `incidents` export section, in open order (ids ascend).
    pub fn incidents_json(&self) -> String {
        let inner = self.inner.lock();
        let mut w = JsonWriter::array();
        for inc in &inner.incidents {
            w.raw_element(&inc.to_json());
        }
        w.finish()
    }
}

impl Inner {
    /// Bumps interval accounting after every series has been extended,
    /// evicting the oldest interval if the window is full.
    fn finish_interval(&mut self, interval: Nanos, window: usize) {
        self.len += 1;
        while self.len > window {
            for series in self.counters.values_mut() {
                series.values.pop_front();
            }
            for series in self.gauges.values_mut() {
                series.values.pop_front();
            }
            for series in self.hists.values_mut() {
                series.values.pop_front();
            }
            self.tail.pop_front();
            self.len -= 1;
            self.first_start += interval;
            self.dropped += 1;
        }
    }

    /// A sampling gap longer than the whole window: drop everything
    /// retained plus `skipped` never-materialized empty intervals, and
    /// re-anchor the (still grid-aligned) window at `new_first_start`.
    fn fast_forward(&mut self, skipped: u64, new_first_start: Nanos) {
        self.dropped += self.len as u64 + skipped;
        for series in self.counters.values_mut() {
            series.values.clear();
        }
        for series in self.gauges.values_mut() {
            series.values.clear();
        }
        for series in self.hists.values_mut() {
            series.values.clear();
        }
        self.tail.clear();
        self.len = 0;
        self.first_start = new_first_start;
    }
}

/// The series `map[id]`, created zero-padded to `len` intervals when
/// first seen, so every series is exactly `len` long before the closing
/// interval's push.
fn series_mut<'m, P: Default, T: Default + Clone>(
    map: &'m mut BTreeMap<MetricId, Series<P, T>>,
    id: &MetricId,
    len: usize,
    window: usize,
) -> &'m mut Series<P, T> {
    if !map.contains_key(id) {
        let mut values = VecDeque::with_capacity((len + 1).min(window + 1));
        values.resize(len, T::default());
        let prev = P::default();
        map.insert(id.clone(), Series { prev, values });
    }
    map.get_mut(id).expect("present or just inserted")
}

fn u64_array(vals: impl Iterator<Item = u64>) -> String {
    let parts: Vec<String> = vals.map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::BlameCategory;
    use crate::trace::{OpTrace, Tracer};

    /// A frame carrying one unlabeled counter.
    fn ops(v: u64) -> Frame<'static> {
        let mut f = Frame::default();
        f.counter("ops", &[], v);
        f
    }

    /// A frame carrying the monitored read-latency distribution.
    fn reads(h: &LatencyHistogram) -> Frame<'_> {
        let mut f = Frame::default();
        f.histogram("array_read_latency", &[], h);
        f
    }

    fn recorder(interval: Nanos, window: usize) -> Recorder {
        Recorder::new(
            RecorderConfig {
                interval_ns: interval,
                window_intervals: window,
                slo: SloConfig {
                    min_interval_count: 2,
                    ..SloConfig::default()
                },
            },
            0,
        )
    }

    #[test]
    fn counter_deltas_are_per_interval() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        assert!(!rec.due(99));
        assert!(rec.due(100));
        rec.sample(100, &ops(5), &tr);
        rec.sample(200, &ops(12), &tr);
        assert_eq!(rec.counter_series("ops", &[]), vec![5, 7]);
        assert_eq!(rec.intervals(), 2);
    }

    #[test]
    fn gaps_close_empty_intervals_on_the_grid() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        // One tick lands 4 intervals late: the first carries the
        // deltas, the trailing three close empty.
        rec.sample(430, &ops(3), &tr);
        assert_eq!(rec.counter_series("ops", &[]), vec![3, 0, 0, 0]);
        assert!(!rec.due(499));
        assert!(rec.due(500));
    }

    #[test]
    fn window_is_bounded_and_eviction_tracks_grid() {
        let rec = recorder(100, 4);
        let tr = Tracer::new(u64::MAX, 4);
        for i in 1..=10u64 {
            rec.sample(i * 100, &ops(i), &tr);
        }
        assert_eq!(rec.intervals(), 4);
        assert_eq!(rec.counter_series("ops", &[]), vec![1, 1, 1, 1]);
        assert_eq!(rec.first_interval_start(), 600);
    }

    #[test]
    fn eviction_starts_exactly_one_past_the_window() {
        let rec = recorder(100, 4);
        let tr = Tracer::new(u64::MAX, 4);
        // Exactly `window_intervals` samples: the window is full but
        // nothing may be evicted yet.
        for i in 1..=4u64 {
            rec.sample(i * 100, &ops(i), &tr);
        }
        assert_eq!(rec.intervals(), 4);
        assert_eq!(rec.dropped_intervals(), 0, "full window evicts nothing");
        assert_eq!(rec.first_interval_start(), 0);
        assert_eq!(rec.counter_series("ops", &[]), vec![1, 1, 1, 1]);
        // One more interval: exactly one eviction, grid moves one step.
        rec.sample(500, &ops(5), &tr);
        assert_eq!(rec.intervals(), 4);
        assert_eq!(rec.dropped_intervals(), 1);
        assert_eq!(rec.first_interval_start(), 100);
        assert_eq!(rec.counter_series("ops", &[]), vec![1, 1, 1, 1]);
    }

    #[test]
    fn empty_intervals_have_zero_quantiles_and_sticky_gauges() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        let mut h = LatencyHistogram::new();
        for _ in 0..8 {
            h.record(300_000);
        }
        let mut f = reads(&h);
        f.gauge("nvram_used_bytes", &[], 4096);
        rec.sample(100, &f, &tr);
        // Two more ticks with no new samples: the histogram delta is
        // empty, so the sketch is all-zero — count 0 and p50/p99/p99.9
        // of 0, not a carry-over of the last real interval.
        rec.sample(200, &f, &tr);
        rec.sample(300, &f, &tr);
        let series = rec.hist_series("array_read_latency", &[]);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].count, 8);
        assert!(series[0].p999 > 0);
        assert_eq!(series[1], IntervalStats::default());
        assert_eq!(series[2], IntervalStats::default());
        // Gauges are point-in-time: an idle interval re-reads the
        // current value rather than zeroing.
        assert_eq!(rec.gauge_series("nvram_used_bytes", &[]), vec![4096; 3]);
        // The export renders the empty sketches as explicit zeros.
        let json = rec.timeseries_json();
        assert!(
            json.contains("\"count\":[8,0,0]") && json.contains("\"p999_ns\":[300000,0,0]"),
            "empty interval sketch exported: {json}"
        );
    }

    #[test]
    fn mid_run_series_are_left_padded() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        let mut f = Frame::default();
        f.counter("a", &[], 1);
        rec.sample(100, &f, &tr);
        f.counter("b", &[], 9);
        rec.sample(200, &f, &tr);
        assert_eq!(rec.counter_series("a", &[]), vec![1, 0]);
        assert_eq!(rec.counter_series("b", &[]), vec![0, 9]);
    }

    #[test]
    fn series_absent_from_a_frame_idle() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        let mut h = LatencyHistogram::new();
        h.record(200_000);
        let mut f = reads(&h);
        f.counter("ops", &[], 4);
        f.gauge("depth", &[], 7);
        rec.sample(100, &f, &tr);
        // The owner emits nothing at the next tick (it went away): the
        // series stay aligned with the grid, idling like an unsampled
        // interval, and pick up again when the owner returns.
        rec.sample(200, &Frame::default(), &tr);
        rec.sample(300, &ops(6), &tr);
        assert_eq!(rec.counter_series("ops", &[]), vec![4, 0, 2]);
        assert_eq!(rec.gauge_series("depth", &[]), vec![7, 7, 7]);
        let sketches = rec.hist_series("array_read_latency", &[]);
        assert_eq!(sketches.len(), 3);
        assert_eq!(sketches[1], IntervalStats::default());
    }

    #[test]
    fn histogram_series_are_windowed_sketches() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(200_000);
        }
        rec.sample(100, &reads(&h), &tr);
        for _ in 0..10 {
            h.record(5_000_000);
        }
        rec.sample(200, &reads(&h), &tr);
        let series = rec.hist_series("array_read_latency", &[]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].count, 10);
        assert!(series[0].p999 < 1_000_000, "first interval fast");
        assert_eq!(series[1].count, 10);
        assert!(series[1].p999 > 1_000_000, "second interval slow");
    }

    #[test]
    fn slo_monitor_opens_and_closes_one_incident() {
        let rec = recorder(100, 64);
        let tr = Tracer::new(0, 4);
        let mut t = OpTrace::new("read", 0);
        t.stage("drive_read", 0, 5_000_000);
        tr.finish(t, 5_000_000);
        let mut h = LatencyHistogram::new();

        // Interval 1: healthy.
        for _ in 0..20 {
            h.record(100_000);
        }
        assert!(rec.sample(100, &reads(&h), &tr).is_empty());

        // Intervals 2-3: burning.
        for _ in 0..20 {
            h.record(4_000_000);
        }
        let ev = rec.sample(200, &reads(&h), &tr);
        assert_eq!(ev.len(), 1);
        let id = match ev[0] {
            SloEvent::Opened { id, opened_at } => {
                assert_eq!(opened_at, 100);
                id
            }
            other => panic!("expected open, got {other:?}"),
        };
        rec.attach_evidence(
            id,
            vec![EvidenceSection {
                section: "drives".into(),
                entries: vec![("drive3.die2".into(), "busy erasing".into())],
            }],
        );
        for _ in 0..20 {
            h.record(3_000_000);
        }
        assert!(rec.sample(300, &reads(&h), &tr).is_empty());
        assert_eq!(rec.open_incident(), Some(id));

        // Healthy again: cooldown of 2 closes at the second interval.
        for _ in 0..20 {
            h.record(100_000);
        }
        assert!(rec.sample(400, &reads(&h), &tr).is_empty());
        for _ in 0..20 {
            h.record(100_000);
        }
        let ev = rec.sample(500, &reads(&h), &tr);
        assert_eq!(ev, vec![SloEvent::Closed { id, closed_at: 500 }]);
        assert_eq!(rec.open_incident(), None);

        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.opened_at, 100);
        assert_eq!(inc.closed_at, Some(500));
        assert_eq!(inc.violating_intervals, 2);
        assert!(inc.peak_p999_ns > inc.budget_ns);
        assert_eq!(inc.slow_ops.len(), 1, "ring frozen at open");
        let j = inc.to_json();
        assert!(j.contains("\"drive3.die2\":\"busy erasing\""), "{j}");
        assert!(j.contains("\"closed_at_ns\":500"), "{j}");
    }

    #[test]
    fn sparse_intervals_are_not_judged() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        let mut h = LatencyHistogram::new();
        h.record(50_000_000); // one catastrophic sample < min_interval_count
        assert!(rec.sample(100, &reads(&h), &tr).is_empty());
        assert!(rec.incidents().is_empty());
    }

    #[test]
    fn epoch_anchors_the_grid() {
        let rec = Recorder::new(RecorderConfig::default(), 5_000_000_000);
        assert!(!rec.due(5_000_000_000));
        assert!(rec.due(5_100_000_000));
        assert_eq!(rec.first_interval_start(), 5_000_000_000);
    }

    #[test]
    fn tail_blame_decomposes_each_interval() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        // Two fast CPU-bound ops and one slow drive-bound op complete
        // inside interval 1.
        for (start, end) in [(0u64, 10u64), (5, 15)] {
            let mut t = OpTrace::new("read", start);
            t.stage("cpu", start, end);
            tr.finish(t, end);
        }
        let mut t = OpTrace::new("read", 0);
        t.stage("drive_read", 0, 90);
        tr.finish(t, 90);
        rec.sample(100, &Frame::default(), &tr);
        let tail = rec.tail_series();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].ops, 3);
        assert_eq!(tail[0].cohort_ops, 1, "cohort is the slowest op");
        assert_eq!(tail[0].p999_ns, 90);
        assert_eq!(tail[0].cohort.get(BlameCategory::DriveQueue), 90);
        assert_eq!(tail[0].cohort.get(BlameCategory::ReductionCpu), 0);
        assert_eq!(tail[0].total.get(BlameCategory::ReductionCpu), 20);
        assert_eq!(tail[0].total.get(BlameCategory::DriveQueue), 90);
        // Interval 2 completes nothing.
        rec.sample(200, &Frame::default(), &tr);
        assert_eq!(rec.tail_series()[1], TailBlame::default());
        let json = rec.tail_blame_json();
        assert!(json.contains("\"intervals\":2"), "{json}");
        assert!(json.contains("\"drive_queue\":90"), "{json}");
    }

    #[test]
    fn tail_blame_attributes_ops_to_the_interval_they_complete_in() {
        let rec = recorder(100, 16);
        let tr = Tracer::new(u64::MAX, 4);
        // Finishes with a *future* completion time (as the controller
        // does: finish at `now` with completed_at = now + latency) must
        // land in the interval containing completed_at, not the one
        // containing the finish call.
        let mut t = OpTrace::new("read", 40);
        t.stage("drive_read", 40, 150);
        tr.finish(t, 150);
        rec.sample(100, &Frame::default(), &tr);
        assert_eq!(rec.tail_series()[0], TailBlame::default());
        rec.sample(200, &Frame::default(), &tr);
        let tail = rec.tail_series();
        assert_eq!(tail[1].ops, 1);
        assert_eq!(tail[1].cohort.get(BlameCategory::DriveQueue), 110);
    }

    #[test]
    fn incidents_freeze_tail_blame_evidence_at_open() {
        let rec = recorder(10_000_000, 64);
        let tr = Tracer::new(u64::MAX, 4);
        let mut h = LatencyHistogram::new();
        for _ in 0..20 {
            h.record(4_000_000);
        }
        // The violating interval's sole completed op is erase-stalled.
        let mut t = OpTrace::new("read", 0);
        t.stage("die_stall_erase", 0, 3_900_000);
        t.stage("drive_read", 3_900_000, 4_000_000);
        tr.finish(t, 4_000_000);
        let ev = rec.sample(10_000_000, &reads(&h), &tr);
        let id = match ev[0] {
            SloEvent::Opened { id, .. } => id,
            other => panic!("expected open, got {other:?}"),
        };
        // attach_evidence extends — the frozen tail_blame section stays.
        rec.attach_evidence(
            id,
            vec![EvidenceSection {
                section: "drives".into(),
                entries: vec![("drive0".into(), "erasing".into())],
            }],
        );
        let inc = &rec.incidents()[0];
        let sections: Vec<&str> = inc.evidence.iter().map(|s| s.section.as_str()).collect();
        assert!(sections.contains(&"tail_blame"), "{sections:?}");
        assert!(sections.contains(&"drives"), "{sections:?}");
        let j = inc.to_json();
        assert!(j.contains("\"cohort.die_stall_erase\":\"3900000\""), "{j}");
        assert!(j.contains("\"cohort_ops\":\"1\""), "{j}");
    }

    #[test]
    fn export_sections_render() {
        let rec = recorder(100, 8);
        let tr = Tracer::new(u64::MAX, 4);
        let mut f = Frame::default();
        f.counter("ops", &[("kind", "read")], 4);
        f.gauge("depth", &[], 7);
        rec.sample(100, &f, &tr);
        let ts = rec.timeseries_json();
        assert!(ts.contains("\"interval_ns\":100"), "{ts}");
        assert!(ts.contains("\"deltas\":[4]"), "{ts}");
        assert!(ts.contains("\"values\":[7]"), "{ts}");
        assert_eq!(rec.incidents_json(), "[]");
    }
}
