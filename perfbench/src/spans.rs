//! In-memory span recorder for the traced run.
//!
//! Each span has a name, start and end (ns on the recorder's clock), an
//! optional parent span, and an optional request id shared by the spans of
//! one serving request. Spans are kept in memory and written out as JSONL
//! when the run ends; a disabled recorder records nothing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id within the recorder (ids start at 1).
    pub id: SpanId,
    /// Layer-qualified name, e.g. `kg.eval.batch`.
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request this span belongs to (serving spans only).
    pub request: Option<u64>,
}

impl SpanRec {
    /// `end - start`, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span store.
pub struct Recorder {
    enabled: bool,
    clock: fn() -> u64,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    /// A recorder reading time from `clock`; inert unless `enabled`.
    pub fn new(enabled: bool, clock: fn() -> u64) -> Self {
        Recorder {
            enabled,
            clock,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorder's clock, ns.
    pub fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Reserve an id for a span recorded later with [`Recorder::record_as`],
    /// so its children can name it as their parent before it ends.
    pub fn next_id(&self) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span under an id from [`Recorder::next_id`].
    pub fn record_as(
        &self,
        id: SpanId,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(SpanRec {
                id,
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
                request,
            });
    }

    /// Record a span whose interval is already known. Returns its id (0 when
    /// the recorder is disabled).
    pub fn record(
        &self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let id = self.next_id();
        self.record_as(id, name, start_ns, end_ns, parent, request);
        id
    }

    /// Time `f` as a span named `name`; `f` receives the span's id so calls
    /// it makes can be recorded as children.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.next_id();
        let start_ns = self.now();
        let out = f(id);
        self.record_as(id, name, start_ns, self.now(), parent, None);
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        let mut v = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span in `spans` (same order): its duration minus the
/// part of its interval covered by its direct children. Overlapping children
/// (e.g. concurrent shard work) are counted once.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for c in spans {
        if let Some(p) = c.parent {
            children.entry(p).or_default().push((c.start_ns, c.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// One JSON object per line: id, name, start, end, self time, parent and
/// request id (`null` when absent).
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            format!(
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {}, \"request\": {}}}\n",
                s.id,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )
        })
        .collect()
}
