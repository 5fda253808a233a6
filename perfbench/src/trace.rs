//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around calls into
//! the public functions of each layer; the program itself is not
//! instrumented. A span's *self time* is its duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed or open span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `dirac.mdagm`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (`None` while open).
    pub end_ns: Option<u64>,
}

/// In-memory span recorder for one thread of control.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: None,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = Some(self.now_ns());
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Record an already-measured span.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: Some(end_ns),
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in nanoseconds (0 while it is open).
    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns.map_or(0, |e| e.saturating_sub(s.start_ns))
    }

    /// Self time of span `id`: its duration minus the union of its direct
    /// children's intervals, each clipped to the parent's interval.
    pub fn self_ns(&self, id: usize) -> u64 {
        let p = &self.spans[id];
        let Some(p_end) = p.end_ns else { return 0 };
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                let end = s.end_ns.unwrap_or(p_end);
                (s.start_ns.max(p.start_ns), end.min(p_end))
            })
            .filter(|(a, b)| b > a)
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
        (p_end - p.start_ns).saturating_sub(covered)
    }

    /// Per span name: (calls, total ns, self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out = BTreeMap::new();
        for id in 0..self.spans.len() {
            let e = out.entry(self.spans[id].name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += self.duration_ns(id);
            e.2 += self.self_ns(id);
        }
        out
    }

    /// Durations in seconds of every span named `name`, in order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.duration_ns(id) as f64 * 1e-9)
            .collect()
    }

    /// (calls, total seconds, self seconds) of spans named `name`.
    pub fn totals_s(&self, name: &str) -> (u64, f64, f64) {
        let (n, t, s) = self.by_name().get(name).copied().unwrap_or((0, 0, 0));
        (n, t as f64 * 1e-9, s as f64 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children_it_covers() {
        let mut t = Tracer::new();
        let root = t.record("solver", None, 100, 200);
        t.record("dirac", Some(root), 110, 130);
        t.record("dirac", Some(root), 150, 170);
        assert_eq!(t.duration_ns(root), 100);
        assert_eq!(t.self_ns(root), 60);
        let by = t.by_name();
        assert_eq!(by["dirac"], (2, 40, 40));
        assert_eq!(by["solver"], (1, 100, 60));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Tracer::new();
        let root = t.record("p", None, 0, 100);
        t.record("c", Some(root), 10, 40);
        t.record("c", Some(root), 30, 60); // overlaps the first
        t.record("c", Some(root), 90, 130); // runs past the parent
                                            // covered = [10, 60] ∪ [90, 100] = 60
        assert_eq!(t.self_ns(root), 40);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let mut t = Tracer::new();
        let a = t.record("a", None, 0, 100);
        let b = t.record("b", Some(a), 0, 50);
        t.record("c", Some(b), 0, 20);
        assert_eq!(t.self_ns(a), 50);
        assert_eq!(t.self_ns(b), 30);
    }

    #[test]
    fn live_spans_nest_and_time_real_work() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.scope("inner", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert!(t.duration_ns(1) >= 2_000_000);
        assert!(t.self_ns(outer) <= t.duration_ns(outer) - t.duration_ns(1));
    }
}
