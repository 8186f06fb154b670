//! Outside-in tracing: spans recorded by the benchmark around its own
//! calls into each layer's public functions.
//!
//! A span holds `(name, start, end, parent, request id)`. Every call is
//! aggregated per name (calls, busy time, time covered by child spans,
//! per-call durations, allocations); full span records are kept only for
//! 1 in [`KEEP_EVERY`] requests, which bounds memory on long runs, and
//! are written out when the run ends. With tracing off every method is a
//! no-op that reads no clock.

use mnemo_bench::alloc_track::allocation_counts;
use mnemo_bench::perf::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// Full span records are kept for one request in this many.
pub const KEEP_EVERY: u64 = 64;

/// The benchmark's one wall-clock read site: every duration it reports
/// is a difference of two readings taken here. (The reference kernel's
/// CPU time is read in `os`.)
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds from `t0` to now.
pub fn secs_since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// The span catalogue. Parent spans (one consultation, one serve window)
/// group a request's layer spans; the rest are layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `WorkloadSpec::generate`: the consult workloads' set-up.
    YcsbGenerate,
    /// Parent: one consultation (consult + recommend + serialise).
    Consult,
    /// `SensitivityEngine::measure`: the two simulated baseline runs.
    KvsimBaseline,
    /// `Advisor::verify`: the simulated run of the recommended split.
    KvsimVerify,
    /// `PatternEngine::analyze`.
    CorePattern,
    /// `MnemoT::weight_order`.
    CoreOrder,
    /// `PerfModel::fit`.
    CoreFit,
    /// `EstimateEngine::curve`.
    CoreCurve,
    /// `Consultation::recommend`.
    CoreAdvise,
    /// `EstimateCurve::to_csv`.
    CoreSerialise,
    /// Parent: one serve window (its ingest frames, advise, barrier).
    ServeWindow,
    /// `FrameBuffer::next_frame` + `proto::parse_request`.
    ServeDecode,
    /// `JournalWriter::append` calls that leave `synced_seq()` unchanged.
    ServeJournal,
    /// `JournalWriter::append` calls that advance `synced_seq()`.
    ServeFsync,
    /// `ServeEngine::ingest` calls that leave `ticks()` unchanged.
    ServeAdmit,
    /// `ServeEngine::ingest` calls that complete a scheduler tick.
    ServeTick,
    /// `ServeEngine::advise_now`.
    ServeAdvise,
    /// `ServeEngine::status_row` / `snapshot_row`.
    ServeStatus,
    /// `proto::encode_frame` of a reply.
    ServeEncode,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 19] = [
        Span::YcsbGenerate,
        Span::Consult,
        Span::KvsimBaseline,
        Span::KvsimVerify,
        Span::CorePattern,
        Span::CoreOrder,
        Span::CoreFit,
        Span::CoreCurve,
        Span::CoreAdvise,
        Span::CoreSerialise,
        Span::ServeWindow,
        Span::ServeDecode,
        Span::ServeJournal,
        Span::ServeFsync,
        Span::ServeAdmit,
        Span::ServeTick,
        Span::ServeAdvise,
        Span::ServeStatus,
        Span::ServeEncode,
    ];

    /// The span's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Span::YcsbGenerate => "ycsb.generate",
            Span::Consult => "consult",
            Span::KvsimBaseline => "kvsim.baseline",
            Span::KvsimVerify => "kvsim.verify",
            Span::CorePattern => "core.pattern",
            Span::CoreOrder => "core.order",
            Span::CoreFit => "core.fit",
            Span::CoreCurve => "core.curve",
            Span::CoreAdvise => "core.advise",
            Span::CoreSerialise => "core.serialise",
            Span::ServeWindow => "serve.window",
            Span::ServeDecode => "serve.decode",
            Span::ServeJournal => "serve.journal",
            Span::ServeFsync => "serve.fsync",
            Span::ServeAdmit => "serve.admit",
            Span::ServeTick => "serve.tick",
            Span::ServeAdvise => "serve.advise",
            Span::ServeStatus => "serve.status",
            Span::ServeEncode => "serve.encode",
        }
    }

    /// Parent spans group layers and report no metrics of their own.
    pub fn is_parent(self) -> bool {
        matches!(self, Span::Consult | Span::ServeWindow)
    }

    /// The tail percentile a layer reports, as `(label, q)`: the highest
    /// of p99/p90 whose minimum guaranteed call count per run leaves at
    /// least ten calls beyond it (see `stats::min_samples`). Set-up runs
    /// too few times for any tail.
    pub fn tail(self) -> Option<(&'static str, f64)> {
        match self {
            Span::YcsbGenerate | Span::Consult | Span::ServeWindow => None,
            Span::ServeDecode
            | Span::ServeJournal
            | Span::ServeFsync
            | Span::ServeAdmit
            | Span::ServeStatus
            | Span::ServeEncode => Some(("p99", 0.99)),
            _ => Some(("p90", 0.90)),
        }
    }

    /// Position in [`Span::ALL`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregate over every call of one span name.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration of every call, in nanoseconds.
    pub total_ns: u64,
    /// The part of `total_ns` covered by direct child spans.
    pub child_ns: u64,
    /// Heap allocations made inside the spans (children included).
    pub allocs: u64,
    /// Per-call durations in nanoseconds, in call order.
    pub samples_ns: Vec<u64>,
}

impl Agg {
    /// Busy time not covered by child spans, in nanoseconds.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct Open {
    id: u64,
    start: Instant,
    child_ns: u64,
    allocs0: u64,
}

struct Record {
    id: u64,
    parent: Option<u64>,
    span: Span,
    start_ns: u64,
    end_ns: u64,
    request: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    aggs: Vec<Agg>,
    open: Vec<Open>,
    records: Vec<Record>,
    request: u64,
    next_id: u64,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: now(),
            aggs: vec![Agg::default(); Span::ALL.len()],
            open: Vec::new(),
            records: Vec::new(),
            request: 0,
            next_id: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Mark the start of request `id`: spans opened from here carry it.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    /// Open a span; its name is given when it is closed, so a caller can
    /// classify a call by what it did (e.g. whether an append synced).
    pub fn begin(&mut self) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        self.open.push(Open {
            id: self.next_id,
            start: now(),
            child_ns: 0,
            allocs0: allocation_counts().0,
        });
    }

    /// Close the innermost open span as `span`.
    pub fn end(&mut self, span: Span) {
        if !self.on {
            return;
        }
        let end = now();
        let Some(open) = self.open.pop() else {
            return;
        };
        let ns = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        let agg = &mut self.aggs[span.index()];
        agg.calls += 1;
        agg.total_ns += ns;
        agg.child_ns += open.child_ns;
        agg.allocs += allocation_counts().0 - open.allocs0;
        agg.samples_ns.push(ns);
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += ns;
            p.id
        });
        if self.request % KEEP_EVERY == 0 {
            let start_ns = open.start.duration_since(self.origin).as_nanos();
            self.records.push(Record {
                id: open.id,
                parent,
                span,
                start_ns: u64::try_from(start_ns).unwrap_or(u64::MAX),
                end_ns: u64::try_from(end.duration_since(self.origin).as_nanos())
                    .unwrap_or(u64::MAX),
                request: self.request,
            });
        }
    }

    /// Run `f` inside a span named `span`.
    pub fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        self.begin();
        let out = f();
        self.end(span);
        out
    }

    /// The aggregate for `span`.
    pub fn agg(&self, span: Span) -> &Agg {
        &self.aggs[span.index()]
    }

    /// Summed busy time of every top-level span, in seconds: the sum of
    /// all spans' self times.
    pub fn self_sum_s(&self) -> f64 {
        let ns: u64 = self.aggs.iter().map(Agg::self_ns).sum();
        ns as f64 / 1e9
    }

    /// The kept span records as JSON lines.
    pub fn records_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                r.id,
                parent,
                escape(r.span.name()),
                r.start_ns,
                r.end_ns,
                r.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_order_matches_declaration_order() {
        for (i, span) in Span::ALL.iter().enumerate() {
            assert_eq!(span.index(), i, "{}", span.name());
        }
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true);
        t.request(0);
        t.begin();
        t.span(Span::CorePattern, || std::hint::black_box(vec![0u8; 64]));
        t.end(Span::Consult);
        let parent = t.agg(Span::Consult);
        let child = t.agg(Span::CorePattern);
        assert_eq!((parent.calls, child.calls), (1, 1));
        assert_eq!(parent.child_ns, child.total_ns);
        assert!(child.allocs >= 1);
        assert_eq!(
            (t.self_sum_s() * 1e9).round() as u64,
            parent.total_ns,
            "self times sum to the top-level span"
        );
        let jsonl = t.records_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\":null"));
    }

    #[test]
    fn off_records_nothing_and_sampling_bounds_records() {
        let mut off = Tracer::new(false);
        off.span(Span::CoreFit, || ());
        assert_eq!(off.agg(Span::CoreFit).calls, 0);

        let mut t = Tracer::new(true);
        for req in 0..KEEP_EVERY * 2 {
            t.request(req);
            t.span(Span::ServeDecode, || ());
        }
        assert_eq!(t.agg(Span::ServeDecode).calls, KEEP_EVERY * 2);
        assert_eq!(t.records_jsonl().lines().count(), 2);
    }
}
