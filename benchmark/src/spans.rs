//! Benchmark-side span recorder: wall-clock spans around the calls the
//! benchmark makes into each crate's public functions. Spans stay in
//! memory and are written out once, after the run.

use purity_obs::json::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span, times in ns since the recorder's birth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Per-name roll-up of a finished recording.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    pub median_ns: u64,
}

pub struct Spans {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that stores nothing unless `on`.
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested under whichever span is open now.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records an already-timed call as a child of the open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        });
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn by_name(&self) -> BTreeMap<&'static str, NameSummary> {
        let own = self.self_ns();
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let dur = s.end_ns - s.start_ns;
            durations.entry(s.name).or_default().push(dur);
            let e = out.entry(s.name).or_insert(NameSummary {
                count: 0,
                total_ns: 0,
                self_ns: 0,
                median_ns: 0,
            });
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += own_ns;
        }
        for (name, mut d) in durations {
            d.sort_unstable();
            out.get_mut(name).expect("summarised above").median_ns =
                crate::stats::quantile_sorted(&d, 0.5);
        }
        out
    }

    /// Median duration of the spans called `name` whose parent is a span
    /// called `phase`; 0 when there are none.
    pub fn median_ns(&self, phase: &str, name: &str) -> u64 {
        let mut durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == phase))
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if durations.is_empty() {
            return 0;
        }
        durations.sort_unstable();
        crate::stats::quantile_sorted(&durations, 0.5)
    }

    /// The whole recording as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut by_name = JsonWriter::array();
        for (name, s) in self.by_name() {
            let mut o = JsonWriter::object();
            o.str_field("name", name)
                .u64_field("count", s.count)
                .u64_field("total_ns", s.total_ns)
                .u64_field("self_ns", s.self_ns)
                .u64_field("median_ns", s.median_ns);
            by_name.raw_element(&o.finish());
        }
        let mut spans = JsonWriter::array();
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = JsonWriter::object();
            o.u64_field("id", id as u64)
                .str_field("name", s.name)
                .u64_field("start_ns", s.start_ns)
                .u64_field("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.u64_field("parent", p as u64),
                None => o.raw_field("parent", "null"),
            };
            spans.raw_element(&o.finish());
        }
        let mut doc = JsonWriter::object();
        doc.str_field("workload", workload)
            .u64_field("seed", seed)
            .str_field("clock", "wall ns since the recorder was created")
            .raw_field("by_name", &by_name.finish())
            .raw_field("spans", &spans.finish());
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// window[0..100] > call[10..30], call[40..90] > inner[50..60]
    fn recording() -> Spans {
        let mut s = Spans::new(true);
        let at = |ns| s.origin + Duration::from_nanos(ns);
        let (t10, t30, t50, t60) = (at(10), at(30), at(50), at(60));
        s.enter("window");
        s.leaf("call", t10, t30);
        s.enter("call");
        s.leaf("inner", t50, t60);
        s.exit();
        s.exit();
        s.spans[0].start_ns = 0;
        s.spans[0].end_ns = 100;
        s.spans[2].start_ns = 40;
        s.spans[2].end_ns = 90;
        s
    }

    #[test]
    fn parents_link_to_the_open_span() {
        let s = recording();
        let parents: Vec<Option<usize>> = s.spans.iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let s = recording();
        assert_eq!(s.self_ns(), vec![100 - 20 - 50, 20, 50 - 10, 10]);
        let by = s.by_name();
        assert_eq!(by["window"].self_ns, 30);
        assert_eq!(by["call"].count, 2);
        assert_eq!(by["call"].total_ns, 70);
        assert_eq!(by["call"].self_ns, 60);
        assert_eq!(by["call"].median_ns, 20);
        assert_eq!(by["inner"].self_ns, 10);
    }

    #[test]
    fn medians_count_only_calls_under_the_named_phase() {
        let mut s = Spans::new(true);
        let at = |ns| s.origin + Duration::from_nanos(ns);
        let t: Vec<Instant> = (0..8).map(|i| at(i * 10)).collect();
        s.enter("setup");
        s.leaf("call", t[0], t[7]);
        s.exit();
        s.enter("window");
        s.leaf("call", t[0], t[1]);
        s.leaf("call", t[1], t[4]);
        s.leaf("call", t[4], t[6]);
        s.exit();
        assert_eq!(s.median_ns("window", "call"), 20);
        assert_eq!(s.median_ns("setup", "call"), 70);
        assert_eq!(s.median_ns("window", "absent"), 0);
    }

    #[test]
    fn a_recorder_that_is_off_stores_nothing() {
        let mut s = Spans::new(false);
        s.enter("window");
        s.leaf("call", Instant::now(), Instant::now());
        s.exit();
        assert!(s.spans.is_empty());
    }

    #[test]
    fn json_names_every_span_and_its_parent() {
        let doc = recording().to_json("w", 7);
        assert!(doc.contains("\"workload\":\"w\""));
        assert!(doc.contains("\"name\":\"inner\",\"start_ns\":50,\"end_ns\":60,\"parent\":2"));
        assert!(doc.contains("\"parent\":null"));
    }
}
