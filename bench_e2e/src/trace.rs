//! The harness's own spans (choosing-metrics §4): one span per call
//! into a layer's public functions, `{name, start, end, parent,
//! run_id}`, kept in memory and written out when the benchmark ends.
//! Spans inside `crates/` are a later change; these wrap the calls
//! from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (one learn, one served job) share this.
    pub run_id: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store with a stack for the spans opened by
/// [`Tracer::span`] on the calling thread, and [`Tracer::add`] for
/// spans measured elsewhere (the serving clients' threads).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run_id: u64,
}

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run_id: 0,
        }
    }

    /// Microseconds from the tracer's epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Spans opened from now on belong to request `run_id`.
    pub fn begin_run(&mut self, run_id: u64) {
        self.run_id = run_id;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_us = self.at(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_us = self.at(Instant::now());
        out
    }

    /// Record a span measured elsewhere; returns its index, usable as
    /// the `parent` of later spans.
    pub fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.at(start),
            end_us: self.at(end),
            parent,
            run_id,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| self_time((span.start_us, span.end_us), &kids))
            .collect()
    }

    /// The self-time table: per span name, how often it ran, its total
    /// time and its self time.
    pub fn table(&self) -> BTreeMap<String, NameTotals> {
        let mut table: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self.self_times_us()) {
            let row = table.entry(span.name.clone()).or_default();
            row.count += 1;
            row.total_us += span.dur_us();
            row.self_us += self_us;
        }
        table
    }

    /// Chrome trace (`chrome://tracing`, <https://ui.perfetto.dev>):
    /// one complete event per span, one track per `run_id`, plus the
    /// self-time table under the top-level key `selfTime`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (span, self_us)) in self.spans.iter().zip(self.self_times_us()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            write!(
                out,
                "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"run_id\":{},\"self_us\":{:.3}}}}}",
                json_string(&span.name),
                span.run_id,
                span.start_us,
                span.dur_us(),
                span.run_id,
                self_us,
            )
            .expect("write to String");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"selfTime\":{");
        for (i, (name, row)) in self.table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n{}:{{\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3}}}",
                json_string(name),
                row.count,
                row.total_us,
                row.self_us
            )
            .expect("write to String");
        }
        out.push_str("\n}}\n");
        out
    }
}

/// `parent`'s duration minus the part of it covered by the union of
/// `children` (each clipped to the parent; children may touch, nest
/// inside one another, or overlap when they ran on other threads).
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = ps;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (pe - ps) - covered
}

/// Minimal JSON string quoting for span names (ASCII identifiers in
/// practice; quotes, backslashes and control characters escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10.0, 30.0), &[]), 20.0);
    }

    #[test]
    fn self_time_subtracts_adjacent_children_once_each() {
        // Two children that touch at 20: covered = 10 + 5.
        assert_eq!(self_time((10.0, 40.0), &[(10.0, 20.0), (20.0, 25.0)]), 15.0);
        // Order of recording does not matter.
        assert_eq!(self_time((10.0, 40.0), &[(20.0, 25.0), (10.0, 20.0)]), 15.0);
    }

    #[test]
    fn self_time_counts_overlapping_and_nested_children_as_a_union() {
        // (12,20) ∪ (15,30) = 18 covered; (16,18) nests inside both.
        assert_eq!(
            self_time((10.0, 40.0), &[(12.0, 20.0), (15.0, 30.0), (16.0, 18.0)]),
            12.0
        );
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10.0, 20.0), &[(5.0, 12.0), (18.0, 50.0)]), 6.0);
        assert_eq!(self_time((10.0, 20.0), &[(0.0, 100.0)]), 0.0);
        assert_eq!(self_time((10.0, 20.0), &[(30.0, 40.0)]), 10.0);
    }

    #[test]
    fn nested_spans_get_parents_and_grandchildren_do_not_count_twice() {
        let mut t = Tracer::new();
        t.begin_run(7);
        t.span("learn", |t| {
            t.span("ganesh", |t| {
                t.span("sweep", |_| std::thread::sleep(Duration::from_millis(2)));
            });
            t.span("modules", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.run_id == 7));
        let selfs = t.self_times_us();
        // learn's self time excludes its two children but is not
        // reduced again by the grandchild.
        let expect = spans[0].dur_us() - spans[1].dur_us() - spans[3].dur_us();
        assert!((selfs[0] - expect).abs() < 1e-6);
        assert!((selfs[1] - (spans[1].dur_us() - spans[2].dur_us())).abs() < 1e-6);
        // Self times partition the root's duration.
        let total: f64 = selfs.iter().sum();
        assert!((total - spans[0].dur_us()).abs() < 1e-6);
        let table = t.table();
        assert_eq!(table["sweep"].count, 1);
        assert!(table["learn"].self_us < table["learn"].total_us);
    }

    #[test]
    fn chrome_json_carries_every_span_and_the_table() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let job = t.add("job", t0, t0 + Duration::from_millis(5), None, 3);
        t.add("run\"ning", t0, t0 + Duration::from_millis(2), Some(job), 3);
        let json = t.chrome_json();
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = value["traceEvents"].as_array().expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["name"].as_str(), Some("run\"ning"));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert!(events[0]["args"]["parent"].is_null());
        assert_eq!(events[0]["tid"].as_u64(), Some(3));
        assert_eq!(value["selfTime"]["job"]["count"].as_u64(), Some(1));
    }
}
