//! In-memory spans recorded by the harness *around* its calls into each
//! layer's public functions (the libraries are untouched; in-program spans
//! are ROADMAP item 4). Spans stay in memory during the run and are written
//! as Chrome-trace JSON when it ends.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One closed (or still open: `end_ns == 0`) interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None`: a request root).
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one request.
    pub request: u64,
    /// Small per-thread id (order of first appearance), for the timeline.
    pub tid: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Per thread: its small id and its stack of open span indices.
    threads: HashMap<ThreadId, (u32, Vec<usize>)>,
}

/// Span recorder shared by the harness threads of one run.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.index);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a harness thread panicked while recording a span")
    }

    fn open(&self, name: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut g = self.lock();
        let inner = &mut *g;
        let next_tid = inner.threads.len() as u32;
        let (tid, stack) = inner
            .threads
            .entry(std::thread::current().id())
            .or_insert((next_tid, Vec::new()));
        let parent = stack.last().copied();
        let request = request
            .or_else(|| parent.map(|p| inner.spans[p].request))
            .unwrap_or(0);
        let index = inner.spans.len();
        stack.push(index);
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
            tid: *tid,
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        let mut g = self.lock();
        g.spans[index].end_ns = end_ns;
        if let Some((_, stack)) = g.threads.get_mut(&std::thread::current().id()) {
            stack.retain(|&i| i != index);
        }
    }

    /// Open the root span of request `request` on this thread.
    pub fn request(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        self.open(name, Some(request))
    }

    /// Open a span caused by this thread's innermost open span (whose
    /// request id it inherits).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// `tracer.span(name)` when tracing is on.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name))
}

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // `max`: a still-open parent has `end_ns == 0`.
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns.max(spans[p].start_ns));
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals within one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub self_ns: u64,
    pub total_ns: u64,
    pub calls: u64,
}

impl Agg {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// Span totals keyed by request id, then by span name.
pub fn per_request(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, Agg>> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<u64, BTreeMap<&'static str, Agg>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let a = out.entry(s.request).or_default().entry(s.name).or_default();
        a.self_ns += self_ns;
        a.total_ns += s.duration_ns();
        a.calls += 1;
    }
    out
}

/// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            sp.name,
            sp.tid,
            sp.start_ns as f64 / 1e3,
            sp.duration_ns() as f64 / 1e3,
            i,
            parent,
            sp.request
        ));
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>, request: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("request", 0, 100, None, 1),
            sp("a", 10, 40, Some(0), 1),
            // Overlaps `a` by 10 and sticks out of the parent by 20.
            sp("b", 30, 120, Some(0), 1),
            sp("leaf", 12, 20, Some(1), 1),
        ];
        // request: 100 − |[10,40) ∪ [30,100)| = 100 − 90.
        assert_eq!(self_times_ns(&spans), vec![10, 22, 90, 8]);
    }

    #[test]
    fn self_times_of_a_nest_sum_to_the_root() {
        let spans = vec![
            sp("request", 0, 1000, None, 7),
            sp("init", 0, 300, Some(0), 7),
            sp("gram", 10, 200, Some(1), 7),
            sp("loop", 300, 990, Some(0), 7),
            sp("ttm", 310, 600, Some(3), 7),
            sp("ttm", 600, 900, Some(3), 7),
        ];
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1000);
        let agg = &per_request(&spans)[&7];
        assert_eq!(
            agg["ttm"],
            Agg {
                self_ns: 590,
                total_ns: 590,
                calls: 2
            }
        );
        assert_eq!(agg["loop"].self_ns, 100);
        assert_eq!(agg["request"].self_ns, 10);
    }

    #[test]
    fn tracer_nests_per_thread_and_inherits_request_ids() {
        let t = Tracer::default();
        {
            let _r = t.request("request", 42);
            {
                let _a = t.span("a");
                let _b = t.span("b");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _r = t.request("other", 43);
                    let _c = t.span("c");
                });
            });
            let _d = t.span("d");
        }
        let spans = t.spans();
        let by_name: HashMap<&str, &Span> = spans.iter().map(|s| (s.name, s)).collect();
        assert_eq!(by_name["a"].parent, Some(0));
        assert_eq!(by_name["b"].parent, Some(1));
        assert_eq!(by_name["b"].request, 42);
        assert_eq!(by_name["d"].parent, Some(0));
        assert_eq!(by_name["other"].parent, None);
        assert_eq!(by_name["c"].request, 43);
        assert_ne!(by_name["c"].tid, by_name["a"].tid);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let spans = vec![
            sp("request", 0, 2000, None, 3),
            sp("a", 500, 1500, Some(0), 3),
        ];
        let json = chrome_trace_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(json.contains("\"parent\":0,\"request\":3"));
        assert!(json.contains("\"parent\":null"));
    }
}
