//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! it makes into each layer's public entry points. Each span has a
//! name, start, end, parent span and request id; spans stay in memory
//! and are written out once the run ends.
//!
//! A *shadow* span times a call the benchmark makes on the side with
//! the same inputs the traced operation is about to use (a vector-store
//! lookup before `Session::next_batch`, an aligner solve before
//! `Session::try_feedback`). It is recorded as a child of that
//! operation although it runs just before it, and counts as covered
//! when the operation's self time is computed.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    /// Request type or session method, for grouping.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
    pub shadow: bool,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; a disabled one runs the timed closures and records
    /// nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Reserve a span id, so children (shadows included) can name their
    /// parent before it is recorded.
    pub fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Start a span: the current time, or 0 when disabled.
    pub fn start(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Close span `id` that began at `start_ns`; returns its duration in
    /// µs (0 when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn end(
        &mut self,
        start_ns: u64,
        id: u32,
        name: &'static str,
        tag: &'static str,
        parent: Option<u32>,
        request: u64,
        shadow: bool,
    ) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            name,
            tag,
            start_ns,
            end_ns,
            parent,
            request,
            shadow,
        };
        let us = span.us();
        self.spans.push(span);
        us
    }

    /// Run `f` inside a new span; returns its result.
    #[allow(clippy::too_many_arguments)]
    pub fn time<T>(
        &mut self,
        id: u32,
        name: &'static str,
        tag: &'static str,
        parent: Option<u32>,
        request: u64,
        shadow: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.start();
        let out = std::hint::black_box(f());
        self.end(start, id, name, tag, parent, request, shadow);
        out
    }

    /// Self time of every span in ns: its duration minus the part its
    /// children cover (a shadow child covers its whole duration).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let index: std::collections::HashMap<u32, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
                let parent = &self.spans[p];
                covered[p] += if s.shadow {
                    s.end_ns - s.start_ns
                } else {
                    s.end_ns
                        .min(parent.end_ns)
                        .saturating_sub(s.start_ns.max(parent.start_ns))
                };
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// The spans as tab-separated text, one per line, with self time.
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("id\tparent\trequest\tname\ttag\tshadow\tstart_ns\tend_ns\tself_ns\n");
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent.map_or(-1, i64::from),
                s.request,
                s.name,
                s.tag,
                u8::from(s.shadow),
                s.start_ns,
                s.end_ns,
                self_ns
            );
        }
        out
    }
}
