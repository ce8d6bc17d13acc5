//! In-memory span recorder for the traced run. Spans wrap the benchmark's
//! own calls into each layer; each records its parent, the request (or
//! step) it belongs to, and the allocations made inside it. Nothing is
//! written until [`Tracer::write`] at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc::AllocCount;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: AllocCount,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans while enabled; a disabled tracer does nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, AllocCount)>,
}

/// Handle of an open span (inert when the tracer is disabled).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            // Reserved so that opening a span never allocates after the
            // span's allocation snapshot is taken.
            open: Vec::with_capacity(16),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs: AllocCount::default(),
        });
        assert!(
            self.open.len() < self.open.capacity(),
            "spans nest too deep"
        );
        self.open.push((id, AllocCount::now()));
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let (top, at_start) = self.open.pop().expect("span ended twice");
        assert_eq!(top, id, "spans must nest");
        let span = &mut self.spans[id];
        span.allocs = at_start.until(AllocCount::now());
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total milliseconds spent in top-level spans whose name is in
    /// `names`.
    pub fn top_level_ms(&self, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && names.contains(&s.name))
            .map(Span::ms)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns, s.allocs.allocs, s.allocs.bytes
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
