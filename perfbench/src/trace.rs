//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions, nest by a stack, and carry the run id shared by every span of
//! one run. Nothing is written until the run ends; then each span is printed
//! with its parent and self time (duration minus the part of its interval
//! covered by child spans).

use std::time::Instant;

use crate::alloc;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `lists.build.tranco`.
    pub name: String,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Allocations counted while the span was open (all threads).
    pub allocs: u64,
}

impl Span {
    /// Wall-clock seconds the span was open.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans for one run.
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Tracer {
    /// A tracer for run `run_id`; arms the counting allocator.
    pub fn new(run_id: u64) -> Tracer {
        alloc::arm(true);
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::with_capacity(256),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (nested under the innermost open
    /// span) and returns its result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().map(|&(i, _)| i),
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            allocs: 0,
        });
        self.open.push((idx, alloc::count()));
        let out = f(self);
        let (_, allocs_before) = self.open.pop().expect("span stack is balanced");
        let span = &mut self.spans[idx];
        span.end = self.origin.elapsed().as_secs_f64();
        span.allocs = alloc::count() - allocs_before;
        out
    }

    /// Records `phases`, timed by the program itself, as consecutive child
    /// spans of the innermost open span, laid out from its start.
    pub fn children_from(&mut self, phases: &[(&'static str, std::time::Duration)]) {
        let Some(&(parent, _)) = self.open.last() else {
            return;
        };
        let mut at = self.spans[parent].start;
        for (name, d) in phases {
            let end = at + d.as_secs_f64();
            self.spans.push(Span {
                name: format!("{}.{name}", self.spans[parent].name),
                parent: Some(parent),
                start: at,
                end,
                allocs: 0,
            });
            at = end;
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Sum of the allocation counts of every span named `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.allocs).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Stops counting allocations and prints one line per span.
    pub fn finish(self) -> Vec<Span> {
        alloc::arm(false);
        let selfs = self_times(&self.spans);
        for (i, (s, self_s)) in self.spans.iter().zip(&selfs).enumerate() {
            println!(
                "span run={:016x} id={i} parent={} name={} start_ms={:.3} dur_ms={:.3} self_ms={:.3} allocs={}",
                self.run_id,
                s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string()),
                s.name,
                s.start * 1e3,
                s.duration() * 1e3,
                self_s * 1e3,
                s.allocs,
            );
        }
        self.spans
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its direct children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.to_owned(),
            parent,
            start,
            end,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("a.inner", Some(1), 2.0, 3.0),
            span("b", Some(0), 5.0, 6.0),
        ];
        let s = self_times(&spans);
        assert!((s[0] - 6.0).abs() < 1e-12);
        assert!((s[1] - 2.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
        assert!((s[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("x", Some(0), 1.0, 5.0),
            span("y", Some(0), 3.0, 7.0),
            span("z", Some(0), 9.0, 12.0),
        ];
        // Union of children inside root: [1,7] and [9,10] = 7.
        assert!((self_times(&spans)[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::new(7);
        let v = t.span("outer", |t| {
            t.span("inner", |_| 1) + t.span("inner", |_| Vec::<u8>::with_capacity(8).capacity())
        });
        assert_eq!(v, 9);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].allocs >= 1);
        assert!(t.total("inner") <= t.total("outer"));
        t.finish();
    }
}
