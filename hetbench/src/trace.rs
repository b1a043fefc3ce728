//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions; nothing inside the crates is instrumented. A
//! span's name is `<layer>.<stage>`, where the layer is the crate whose
//! function the span wraps. Spans live in memory until the pass ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hetarch::devices::json::Json;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request the span belongs to (0 outside any request).
    pub request: u64,
    /// Benchmark-local number of the thread that recorded the span.
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A stretch of the pass whose wall time the spans must account for.
#[derive(Clone, Debug)]
pub struct Phase {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans and phases of one traced pass.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    phases: Mutex<Vec<Phase>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans of this thread as `(id, request)`, innermost last.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            phases: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the thread's innermost open span, inheriting its
    /// request id.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let request = STACK.with(|s| s.borrow().last().map_or(0, |&(_, r)| r));
        self.open(name, request)
    }

    /// Opens a span that starts request `request`.
    pub fn request(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        self.open(name, request)
    }

    fn open(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map(|&(p, _)| p);
            s.push((id, request));
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Opens a phase; spans starting inside it are charged to it.
    pub fn phase(&self, name: &'static str) -> PhaseGuard<'_> {
        PhaseGuard {
            tracer: self,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// The recorded spans (in end order) and phases.
    pub fn finish(self) -> (Vec<Span>, Vec<Phase>) {
        (
            self.spans.into_inner().expect("span list lock"),
            self.phases.into_inner().expect("phase list lock"),
        )
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards close in reverse order of opening within a thread.
            if s.last().map(|&(id, _)| id) == Some(self.id) {
                s.pop();
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            request: self.request,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Closes its phase when dropped.
pub struct PhaseGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start_ns: u64,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let phase = Phase {
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut phases) = self.tracer.phases.lock() {
            phases.push(phase);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer accounting summed over traced passes.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Span name → (summed self time in ns, calls).
    pub by_span: BTreeMap<&'static str, (u64, u64)>,
    /// Layer → summed self time in ns.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Summed self time of every span.
    pub self_ns: u64,
    /// Summed wall time of the lanes: every thread that recorded root
    /// spans in a phase.
    pub lane_ns: u64,
}

impl Accounting {
    /// Adds one pass's spans.
    pub fn add(&mut self, spans: &[Span], phases: &[Phase]) {
        for (s, t) in spans.iter().zip(self_times(spans)) {
            let e = self.by_span.entry(s.name).or_default();
            e.0 += t;
            e.1 += 1;
            *self.by_layer.entry(s.layer()).or_default() += t;
            self.self_ns += t;
        }
        for p in phases {
            // A thread's lane runs from the phase start to the end of its
            // last root span in the phase.
            let mut lane_end: BTreeMap<u64, u64> = BTreeMap::new();
            for s in spans {
                if s.parent.is_none() && s.start_ns >= p.start_ns && s.start_ns < p.end_ns {
                    let end = lane_end.entry(s.thread).or_default();
                    *end = (*end).max(s.end_ns);
                }
            }
            self.lane_ns += lane_end.values().map(|&end| end - p.start_ns).sum::<u64>();
        }
    }

    /// Layer self times as a share of the lanes' traced wall time; 1.0
    /// means the spans account for all of it.
    pub fn coverage(&self) -> f64 {
        if self.lane_ns == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.lane_ns as f64
        }
    }
}

/// Renders spans (with their self times) and phases for the trace file.
pub fn to_json(spans: &[Span], phases: &[Phase]) -> Json {
    let spans = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, t)| {
            Json::obj([
                ("id", Json::Int(s.id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("request", Json::Int(s.request as i64)),
                ("thread", Json::Int(s.thread as i64)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                ("self_ns", Json::Int(t as i64)),
            ])
        })
        .collect();
    let phases = phases
        .iter()
        .map(|p| {
            Json::obj([
                ("name", Json::Str(p.name.to_string())),
                ("start_ns", Json::Int(p.start_ns as i64)),
                ("end_ns", Json::Int(p.end_ns as i64)),
            ])
        })
        .collect();
    Json::obj([("spans", Json::Arr(spans)), ("phases", Json::Arr(phases))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "stab.x",
            request: 0,
            thread: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children cover [10, 50): 40 ns.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A grandchild is charged to its own parent only.
            span(4, Some(3), 35, 45),
            // A child spilling past its parent counts only inside it.
            span(5, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 10, 10, 30]);
    }

    #[test]
    fn nested_guards_record_parent_and_request() {
        let tracer = Tracer::default();
        {
            let _phase = tracer.phase("pass");
            let _root = tracer.request("serve.request", 7);
            let _child = tracer.span("dse.sweep");
        }
        let (spans, phases) = tracer.finish();
        assert_eq!(spans.len(), 2);
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.parent, Some(root.id));
        assert_eq!((child.request, root.request), (7, 7));
        assert_eq!(root.parent, None);
        let mut acc = Accounting::default();
        acc.add(&spans, &phases);
        assert_eq!(acc.by_layer.len(), 2);
        assert!(acc.coverage() > 0.0 && acc.coverage() <= 1.0);
    }
}
