//! Spans around the benchmark's own calls into each layer.
//!
//! A traced request is replaced by the public layer calls that make it up;
//! each call is timed from outside and kept as a span (name, start, end,
//! parent, request id) in memory until the run writes them out. Calls that
//! *are* the request are `counted`: their sum, subtracted from the untraced
//! latency, is the unattributed remainder. Replays of a layer's work on the
//! side (a clone-and-apply beside the real mutation, a plan-build step
//! re-run on its own) explain a counted call and are not summed.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    req: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counted: bool,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    /// The open request: (request id, root span id, root start, counted sum in µs).
    open: Option<(u64, u64, Instant, f64)>,
    /// Per-layer samples, keyed by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer event counts, keyed by name.
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            open: None,
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open request `req`'s root span.
    pub fn begin(&mut self, req: u64) {
        let root = self.next_id;
        self.next_id += 1;
        self.open = Some((req, root, Instant::now(), 0.0));
    }

    /// Time one layer call as a child of the open request; returns its
    /// result and duration in µs.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        counted: bool,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let us = end.duration_since(start).as_secs_f64() * 1e6;
        let (req, root, _, sum) = self.open.as_mut().expect("a layer call outside a request");
        let (req, parent) = (*req, *root);
        if counted {
            *sum += us;
        }
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            counted,
        });
        (out, us)
    }

    /// Close the open request under `name`; returns (wall µs, counted µs).
    pub fn end(&mut self, name: &'static str) -> (f64, f64) {
        let (req, id, start, sum) = self.open.take().expect("no open request");
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            req,
            id,
            parent: 0,
            name,
            start_ns,
            end_ns,
            counted: false,
        });
        (end.duration_since(start).as_secs_f64() * 1e6, sum)
    }

    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    pub fn count(&mut self, name: &'static str) {
        *self.counts.entry(name).or_default() += 1;
    }

    /// Every per-layer sample series, by metric name.
    pub fn samples(&self) -> &BTreeMap<&'static str, Vec<f64>> {
        &self.samples
    }

    /// Every event count, by name.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns\tcounted")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.counted as u8
            )?;
        }
        out.flush()
    }
}
