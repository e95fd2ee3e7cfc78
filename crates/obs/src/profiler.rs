//! Wall-clock self-profiling for the simulator itself.
//!
//! Everything else in this crate measures the *simulated* system on the
//! virtual clock. This module measures what the simulation costs in real
//! time and where that time goes, so perf work (ROADMAP item 1) is held
//! to a measured baseline. Wall time is attributed to a small fixed set
//! of [`Plane`]s — SSD timeline advance, GC, LSM ops, NVRAM replay, host
//! dispatch, replication, recorder sampling — via cheap scoped timers
//! ([`profile_scope!`]) that nest:
//! a plane's `self_ns` excludes time spent in child scopes, so the
//! per-plane breakdown sums to (approximately) total profiled time.
//!
//! Design constraints:
//!
//! * **Near-zero disabled cost.** The profiler is process-global and off
//!   by default; a disabled [`enter`] is one relaxed atomic load and no
//!   `Instant::now()` call.
//! * **Determinism stays intact.** The profiler reads only the wall
//!   clock and plain atomics — never the virtual clock, never RNG state —
//!   so enabling it cannot perturb simulation results. Its JSON report is
//!   emitted as the *last* top-level section of the observability export
//!   and only when enabled, keeping the deterministic sections
//!   byte-identical across same-seed runs; [`strip_profile_section`]
//!   recovers the deterministic prefix from a profiled export.
//! * **Thread-safe.** Totals are global atomics; the nesting stack is
//!   thread-local, so each thread's self-time attribution is exact
//!   (`cargo test` runs profiled code on several test threads at once).

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A named cost plane wall time is attributed to.
///
/// The set is fixed so exports are stable and the storage is a flat
/// array of atomics (no allocation or hashing on the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Plane {
    /// SSD device entry points: read/write service including flash
    /// timeline reservation (queueing/service bookkeeping).
    SsdTimeline = 0,
    /// Garbage collection, both device-level (FTL block reclaim) and
    /// array-level (segment GC).
    Gc,
    /// Array controller read path (parity math, map lookups) minus
    /// nested SSD / LSM / GC work.
    ArrayRead,
    /// Array controller write path (dedup, compression, NVRAM commit,
    /// segment layout) minus nested work.
    ArrayWrite,
    /// LSM pyramid (medium-table) inserts, lookups, flushes, merges.
    Lsm,
    /// NVRAM log scan + replay during recovery.
    NvramReplay,
    /// Host engine event-loop dispatch minus nested array work.
    HostDispatch,
    /// Replication fabric ticks (delta computation, WAN shipping).
    Repl,
    /// Flight-recorder sampling (metrics mirror + interval grid).
    Recorder,
    /// Columnar page scan benchmarks (exp_pagescan).
    PageScan,
    /// Columnar page decode-then-compare benchmarks (exp_pagescan).
    PageDecode,
    /// Cluster plane: SWIM probing, placement updates, and rebuild
    /// shipping minus nested array / repl work.
    Cluster,
}

/// Number of planes (length of [`Plane::ALL`]).
pub const PLANE_COUNT: usize = 12;

impl Plane {
    /// Every plane, in declaration order.
    pub const ALL: [Plane; PLANE_COUNT] = [
        Plane::SsdTimeline,
        Plane::Gc,
        Plane::ArrayRead,
        Plane::ArrayWrite,
        Plane::Lsm,
        Plane::NvramReplay,
        Plane::HostDispatch,
        Plane::Repl,
        Plane::Recorder,
        Plane::PageScan,
        Plane::PageDecode,
        Plane::Cluster,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Plane::SsdTimeline => "ssd_timeline",
            Plane::Gc => "gc",
            Plane::ArrayRead => "array_read",
            Plane::ArrayWrite => "array_write",
            Plane::Lsm => "lsm",
            Plane::NvramReplay => "nvram_replay",
            Plane::HostDispatch => "host_dispatch",
            Plane::Repl => "repl",
            Plane::Recorder => "recorder",
            Plane::PageScan => "page_scan",
            Plane::PageDecode => "page_decode",
            Plane::Cluster => "cluster",
        }
    }
}

/// Per-plane accumulation cells. All updates are relaxed: the profiler
/// needs totals, not ordering, and relaxed RMWs are still atomic.
struct PlaneCell {
    /// Exclusive wall time: elapsed inside scopes of this plane minus
    /// elapsed inside nested child scopes (any plane).
    self_ns: AtomicU64,
    /// Inclusive wall time. Nested same-plane scopes double-count here
    /// by design (it is a "time with this plane on the stack" measure).
    total_ns: AtomicU64,
    /// Event count: one per scope entry plus anything added via
    /// [`add_events`].
    events: AtomicU64,
}

impl PlaneCell {
    const fn new() -> Self {
        Self {
            self_ns: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const PLANE_CELL_INIT: PlaneCell = PlaneCell::new();
static PLANES: [PlaneCell; PLANE_COUNT] = [PLANE_CELL_INIT; PLANE_COUNT];

/// Wall time accumulated over completed enable..disable windows, plus
/// the start of the currently-open window (if enabled).
static WALL: Mutex<WallState> = Mutex::new(WallState {
    accum_ns: 0,
    enabled_at: None,
});

struct WallState {
    accum_ns: u64,
    enabled_at: Option<Instant>,
}

thread_local! {
    /// Stack of open scopes on this thread: (plane index, ns consumed
    /// by already-closed child scopes).
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turns profiling on. Idempotent; scopes opened while disabled stay
/// inert even if they close after enabling.
pub fn enable() {
    let mut wall = WALL.lock();
    if wall.enabled_at.is_none() {
        wall.enabled_at = Some(Instant::now());
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns profiling off, folding the open wall window into the
/// accumulated total. Idempotent.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut wall = WALL.lock();
    if let Some(at) = wall.enabled_at.take() {
        wall.accum_ns += at.elapsed().as_nanos() as u64;
    }
}

/// True when profiling is on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every plane and the wall-time accumulator. If currently
/// enabled, the wall window restarts at now.
pub fn reset() {
    for cell in &PLANES {
        cell.self_ns.store(0, Ordering::Relaxed);
        cell.total_ns.store(0, Ordering::Relaxed);
        cell.events.store(0, Ordering::Relaxed);
    }
    let mut wall = WALL.lock();
    wall.accum_ns = 0;
    if wall.enabled_at.is_some() {
        wall.enabled_at = Some(Instant::now());
    }
}

/// Adds `n` events to a plane without timing anything — for bulk work
/// counted outside a scope (e.g. one scope around a batch of ops).
pub fn add_events(plane: Plane, n: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        PLANES[plane as usize]
            .events
            .fetch_add(n, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`enter`]. Dropping it closes the scope and
/// charges elapsed wall time to its plane (self time excludes children).
/// Not `Send`: a scope must close on the thread that opened it.
pub struct ScopeGuard {
    /// `None` when the profiler was disabled at entry (inert guard).
    open: Option<(usize, Instant)>,
    /// `Instant` is `Send`; this marker keeps the guard thread-bound so
    /// the thread-local stack stays balanced.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a profiling scope on `plane`. Prefer [`profile_scope!`], which
/// binds the guard for you.
#[inline]
pub fn enter(plane: Plane) -> ScopeGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return ScopeGuard {
            open: None,
            _not_send: std::marker::PhantomData,
        };
    }
    let idx = plane as usize;
    PLANES[idx].events.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((idx, 0)));
    ScopeGuard {
        open: Some((idx, Instant::now())),
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some((idx, start)) = self.open.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        let child_ns = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in reverse open order on a thread, so the top
            // frame is ours. (A mismatch would mean a guard leaked across
            // threads, which !Send prevents.)
            let child = match stack.pop() {
                Some((p, child)) if p == idx => child,
                _ => 0,
            };
            if let Some(parent) = stack.last_mut() {
                parent.1 += elapsed;
            }
            child
        });
        let cell = &PLANES[idx];
        cell.self_ns
            .fetch_add(elapsed.saturating_sub(child_ns), Ordering::Relaxed);
        cell.total_ns.fetch_add(elapsed, Ordering::Relaxed);
    }
}

/// Opens a profiling scope that closes at the end of the enclosing
/// block: `purity_obs::profile_scope!(Plane::HostDispatch);`.
#[macro_export]
macro_rules! profile_scope {
    ($plane:expr) => {
        let _profile_scope_guard = $crate::profiler::enter($plane);
    };
}

/// One plane's accumulated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneStat {
    /// Stable plane name (see [`Plane::name`]).
    pub plane: &'static str,
    /// Scope entries plus [`add_events`] contributions.
    pub events: u64,
    /// Exclusive wall nanoseconds.
    pub self_ns: u64,
    /// Inclusive wall nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time copy of the profiler state.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Whether profiling was on when the snapshot was taken.
    pub enabled: bool,
    /// Wall nanoseconds profiling has been enabled (across windows).
    pub wall_ns: u64,
    /// Planes with any activity, sorted by `self_ns` descending then
    /// name (a stable, report-ready order).
    pub planes: Vec<PlaneStat>,
}

impl ProfileSnapshot {
    /// Total events across all planes.
    pub fn events(&self) -> u64 {
        self.planes.iter().map(|p| p.events).sum()
    }

    /// Sum of exclusive plane time (the denominator for shares).
    pub fn profiled_ns(&self) -> u64 {
        self.planes.iter().map(|p| p.self_ns).sum()
    }

    /// Events per wall second (0 when no wall time has accrued).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events() as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Simulated seconds per wall second for a run that advanced the
    /// virtual clock by `sim_elapsed_ns` while profiled.
    pub fn sim_ratio(&self, sim_elapsed_ns: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            sim_elapsed_ns as f64 / self.wall_ns as f64
        }
    }

    /// This plane's share of total exclusive time, in percent.
    pub fn share_pct(&self, stat: &PlaneStat) -> f64 {
        let total = self.profiled_ns();
        if total == 0 {
            0.0
        } else {
            stat.self_ns as f64 * 100.0 / total as f64
        }
    }

    /// Looks up a plane's stats by export name.
    pub fn plane(&self, name: &str) -> Option<&PlaneStat> {
        self.planes.iter().find(|p| p.plane == name)
    }

    /// The `"profile"` export section. When the caller knows how far the
    /// virtual clock advanced while profiled, `sim_elapsed_ns` adds the
    /// `sim_ratio` derived metric.
    pub fn to_json(&self, sim_elapsed_ns: Option<u64>) -> String {
        let mut w = crate::json::JsonWriter::object();
        w.bool_field("enabled", self.enabled);
        w.u64_field("wall_ns", self.wall_ns);
        w.u64_field("events", self.events());
        w.f64_field("events_per_sec", self.events_per_sec());
        if let Some(sim_ns) = sim_elapsed_ns {
            w.u64_field("sim_elapsed_ns", sim_ns);
            w.f64_field("sim_ratio", self.sim_ratio(sim_ns));
        }
        let mut planes = crate::json::JsonWriter::array();
        for stat in &self.planes {
            let mut p = crate::json::JsonWriter::object();
            p.str_field("plane", stat.plane);
            p.u64_field("events", stat.events);
            p.u64_field("self_ns", stat.self_ns);
            p.u64_field("total_ns", stat.total_ns);
            p.f64_field("share_pct", self.share_pct(stat));
            planes.raw_element(&p.finish());
        }
        w.raw_field("planes", &planes.finish());
        w.finish()
    }
}

/// Copies out the current totals. Planes with zero events and zero time
/// are omitted; the rest are sorted by `self_ns` descending, then name.
pub fn snapshot() -> ProfileSnapshot {
    let enabled = is_enabled();
    let wall_ns = {
        let wall = WALL.lock();
        wall.accum_ns
            + wall
                .enabled_at
                .map(|at| at.elapsed().as_nanos() as u64)
                .unwrap_or(0)
    };
    let mut planes: Vec<PlaneStat> = Plane::ALL
        .iter()
        .map(|&p| {
            let cell = &PLANES[p as usize];
            PlaneStat {
                plane: p.name(),
                events: cell.events.load(Ordering::Relaxed),
                self_ns: cell.self_ns.load(Ordering::Relaxed),
                total_ns: cell.total_ns.load(Ordering::Relaxed),
            }
        })
        .filter(|s| s.events != 0 || s.total_ns != 0)
        .collect();
    planes.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.plane.cmp(b.plane)));
    ProfileSnapshot {
        enabled,
        wall_ns,
        planes,
    }
}

/// Removes the trailing `"profile"` section from an export document,
/// returning the deterministic prefix. Documents without a profile
/// section come back unchanged — so this is safe to apply before any
/// byte-identity comparison regardless of profiler state.
pub fn strip_profile_section(doc: &str) -> String {
    const MARKER: &str = ",\"profile\":{";
    match doc.rfind(MARKER) {
        Some(idx) if doc.ends_with("}}") => format!("{}}}", &doc[..idx]),
        _ => doc.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The profiler is process-global; tests in this binary serialize on
    /// this lock so enable/reset calls don't interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _l = TEST_LOCK.lock();
        disable();
        reset();
        {
            profile_scope!(Plane::Lsm);
            spin(Duration::from_micros(50));
        }
        let snap = snapshot();
        assert!(!snap.enabled);
        assert!(snap.planes.is_empty(), "{:?}", snap.planes);
        assert_eq!(snap.wall_ns, 0);
    }

    #[test]
    fn nested_scopes_attribute_self_time_exclusively() {
        let _l = TEST_LOCK.lock();
        reset();
        enable();
        {
            profile_scope!(Plane::HostDispatch);
            spin(Duration::from_millis(2));
            {
                profile_scope!(Plane::ArrayWrite);
                spin(Duration::from_millis(2));
                {
                    profile_scope!(Plane::SsdTimeline);
                    spin(Duration::from_millis(2));
                }
            }
        }
        let snap = snapshot();
        disable();
        let host = snap.plane("host_dispatch").expect("host plane");
        let write = snap.plane("array_write").expect("write plane");
        let ssd = snap.plane("ssd_timeline").expect("ssd plane");
        // Inclusive times nest: host >= write >= ssd.
        assert!(host.total_ns >= write.total_ns);
        assert!(write.total_ns >= ssd.total_ns);
        // Exclusive times exclude children: each plane spun ~2ms, so no
        // plane's self time should include a child's 2ms slice.
        assert!(host.self_ns >= 1_000_000, "{host:?}");
        assert!(
            host.self_ns < host.total_ns,
            "parent self must exclude child time: {host:?}"
        );
        assert!(write.self_ns < write.total_ns, "{write:?}");
        // Self times sum to the outermost inclusive time.
        let sum = host.self_ns + write.self_ns + ssd.self_ns;
        let diff = sum.abs_diff(host.total_ns);
        assert!(
            diff < host.total_ns / 10,
            "self-time sum {sum} vs inclusive {}",
            host.total_ns
        );
        assert_eq!(snap.events(), 3);
        assert!(snap.events_per_sec() > 0.0);
    }

    #[test]
    fn shares_sum_to_one_hundred_percent() {
        let _l = TEST_LOCK.lock();
        reset();
        enable();
        for _ in 0..4 {
            profile_scope!(Plane::Gc);
            spin(Duration::from_micros(200));
        }
        {
            profile_scope!(Plane::Repl);
            spin(Duration::from_micros(200));
        }
        let snap = snapshot();
        disable();
        let total: f64 = snap.planes.iter().map(|p| snap.share_pct(p)).sum();
        assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");
        // Sorted by self_ns descending.
        for pair in snap.planes.windows(2) {
            assert!(pair[0].self_ns >= pair[1].self_ns);
        }
    }

    #[test]
    fn add_events_counts_without_timing() {
        let _l = TEST_LOCK.lock();
        reset();
        enable();
        add_events(Plane::PageScan, 500);
        let snap = snapshot();
        disable();
        let scan = snap.plane("page_scan").expect("plane present");
        assert_eq!(scan.events, 500);
        assert_eq!(scan.self_ns, 0);
    }

    #[test]
    fn threads_attribute_independently() {
        let _l = TEST_LOCK.lock();
        reset();
        enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        profile_scope!(Plane::Lsm);
                        spin(Duration::from_micros(100));
                    }
                });
            }
        });
        let snap = snapshot();
        disable();
        let lsm = snap.plane("lsm").expect("plane present");
        assert_eq!(lsm.events, 32);
        // 32 scopes of >=100us each accumulate across threads.
        assert!(lsm.self_ns >= 3_200_000 / 2, "{lsm:?}");
    }

    #[test]
    fn profile_json_is_well_formed_and_strippable() {
        let _l = TEST_LOCK.lock();
        reset();
        enable();
        {
            profile_scope!(Plane::Recorder);
            spin(Duration::from_micros(100));
        }
        let snap = snapshot();
        disable();
        let j = snap.to_json(Some(1_000_000));
        assert!(j.contains("\"events_per_sec\""), "{j}");
        assert!(j.contains("\"sim_ratio\""), "{j}");
        assert!(j.contains("\"recorder\""), "{j}");

        let doc = format!("{{\"metrics\":{{}},\"profile\":{j}}}");
        assert_eq!(strip_profile_section(&doc), "{\"metrics\":{}}");
        // Documents without a profile section pass through unchanged.
        let plain = "{\"metrics\":{},\"incidents\":[]}";
        assert_eq!(strip_profile_section(plain), plain);
    }

    #[test]
    fn reset_while_enabled_restarts_wall_window() {
        let _l = TEST_LOCK.lock();
        reset();
        enable();
        spin(Duration::from_millis(1));
        reset();
        let snap = snapshot();
        disable();
        assert!(
            snap.wall_ns < 1_000_000_000,
            "wall window restarted: {}",
            snap.wall_ns
        );
        assert!(snap.planes.is_empty());
    }
}
