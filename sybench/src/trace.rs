//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end, the span that caused it and the request
//! (repetition or session) it belongs to. They stay in memory until the run
//! ends, then go to one JSON file. With the recorder off — as it is for
//! every end-to-end measurement — opening a span reads one atomic and
//! records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 when the span has no parent on its thread.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last, as (id, request).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    live: Option<(&'t Tracer, Span)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off; a statistic-free flag, so `Relaxed`.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let inherited = OPEN.with(|o| o.borrow().last().map_or(0, |&(_, request)| request));
        self.request_span(name, inherited)
    }

    /// Open a span that starts a request: its children inherit `request`.
    pub fn request_span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard { live: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().map_or(0, |&(id, _)| id);
            o.push((id, request));
            parent
        });
        let span = Span {
            id,
            parent,
            request,
            name,
            start_us: self.now_us(),
            end_us: 0.0,
        };
        SpanGuard {
            live: Some((self, span)),
        }
    }

    /// Run `f` inside a span.
    pub fn within<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    /// Mean self time in milliseconds per occurrence, by span name. Self
    /// time is the span's duration minus what its children cover.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter() {
            *child_us.entry(s.parent).or_default() += s.end_us - s.start_us;
        }
        let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let own = s.end_us - s.start_us - child_us.get(&s.id).copied().unwrap_or(0.0);
            let e = acc.entry(s.name).or_default();
            e.0 += own.max(0.0);
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(name, (us, n))| (name, us / 1e3 / n as f64))
            .collect()
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"unit\": \"us\", \"spans\": [\n");
        let spans = self.spans.lock().expect("span store poisoned");
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start\": {:.1}, \"end\": {:.1}}}{}\n",
                s.id,
                s.parent,
                s.request,
                s.name,
                s.start_us,
                s.end_us,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((tracer, mut span)) = self.live.take() {
            span.end_us = tracer.now_us();
            OPEN.with(|o| {
                let mut o = o.borrow_mut();
                if let Some(at) = o.iter().rposition(|&(id, _)| id == span.id) {
                    o.remove(at);
                }
            });
            if let Ok(mut spans) = tracer.spans.lock() {
                spans.push(span);
            }
        }
    }
}
