//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out in Chrome trace-event form when the workload ends.
//!
//! Spans are recorded from the benchmark's own files only; spans inside
//! the engine belong to the roadmap's ledger/spine issue. Each thread
//! records into a [`Trace`] of its own ([`Trace::fork`]), so recording
//! takes no lock; the forks are merged back when the thread is joined.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Port-call spans are taken for one op in this many.
pub const PORT_SAMPLE: u64 = 64;

/// A trace file stops growing at this many spans; the per-layer numbers
/// are computed from every span recorded, not from the file.
const MAX_SPANS_WRITTEN: usize = 200_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// The op the span belongs to; spans of one op share it.
    pub op: u64,
    pub tid: u32,
}

/// A span that has begun; [`Trace::end`] completes it. Children started in
/// between name `id` as their parent.
pub struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub op: u64,
}

struct Shared {
    origin: Instant,
    next_id: AtomicU32,
}

/// One thread's recorder. With tracing off every call is a branch and
/// nothing else: no clock is read and nothing is stored.
pub struct Trace {
    on: bool,
    shared: Arc<Shared>,
    tid: u32,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            shared: Arc::new(Shared {
                origin: Instant::now(),
                next_id: AtomicU32::new(1),
            }),
            tid: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A recorder for another thread, sharing the clock and the id counter.
    pub fn fork(&self, tid: u32) -> Trace {
        Trace {
            on: self.on,
            shared: Arc::clone(&self.shared),
            tid,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, mut child: Trace) {
        self.spans.append(&mut child.spans);
    }

    pub fn now_ns(&self) -> u64 {
        self.shared.origin.elapsed().as_nanos() as u64
    }

    pub fn fresh_id(&self) -> u32 {
        // Relaxed: the id only has to be unique, it publishes no data.
        self.shared.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn begin(&self, name: &'static str, parent: u32, op: u64) -> OpenSpan {
        let (id, start_ns) = if self.on {
            (self.fresh_id(), self.now_ns())
        } else {
            (0, 0)
        };
        OpenSpan {
            name,
            start_ns,
            id,
            parent,
            op,
        }
    }

    pub fn end(&mut self, open: OpenSpan) {
        if self.on {
            let end_ns = self.now_ns();
            self.push(open, end_ns);
        }
    }

    /// Record a span whose id and times were taken by hand: an op that
    /// began on another thread.
    pub fn record(&mut self, name: &'static str, id: u32, op: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent: 0,
                op,
                tid: self.tid,
            });
        }
    }

    fn push(&mut self, open: OpenSpan, end_ns: u64) {
        self.spans.push(Span {
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            id: open.id,
            parent: open.parent,
            op: open.op,
            tid: self.tid,
        });
    }

    /// Time `f` as a leaf span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, op);
        let r = f();
        self.end(open);
        r
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write the spans as a Chrome trace: complete (`"ph":"X"`) events,
    /// microsecond timestamps, with the span id, its parent and the op id
    /// under `args`. Returns how many spans the file holds.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        let written = self.spans.len().min(MAX_SPANS_WRITTEN);
        for (k, s) in self.spans[..written].iter().enumerate() {
            if k > 0 {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.op
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()?;
        Ok(written)
    }
}
