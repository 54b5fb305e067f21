//! Spans recorded from the benchmark's side of each layer's public API.
//!
//! Nothing inside the program is instrumented: a root span is the wall
//! time around one call, and its children are laid out from the
//! measurements that call returned (`QueryStats` phases and operators).
//! Spans stay in memory until the run ends.

use std::time::Instant;

/// One interval. `parent` indexes into the same span list; spans of one
/// operation share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span list with a shared time origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        parent: Option<u32>,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Lays `parts` out back to back as children of `parent`, starting at
    /// `start_ns`, and returns where the last one ended. Used to turn a
    /// returned list of durations into spans.
    pub fn push_sequence(
        &mut self,
        parent: u32,
        request: u64,
        start_ns: u64,
        parts: &[(&'static str, u64)],
    ) -> u64 {
        let mut at = start_ns;
        for &(name, dur) in parts {
            self.push(Some(parent), request, name, at, at + dur);
            at += dur;
        }
        at
    }

    /// Times `f` as one root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let (s, e) = (self.ns(start), self.ns(Instant::now()));
        let request = self.spans.len() as u64;
        self.push(None, request, name, s, e);
        out
    }

    /// Appends another tracer's spans (a second client thread's),
    /// re-basing their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span list as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.id,
                parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
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
                let a = a.max(reach);
                if a < b {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 10, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 20, 15]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // hangs 50 past the parent
            span(4, Some(0), 0, 90),    // entirely outside
        ];
        // Covered: 110..160 and 190..200 = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn sequences_and_merges_keep_parents_straight() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.push(None, 7, "root", 0, 100);
        let end = a.push_sequence(root, 7, 10, &[("x", 20), ("y", 30)]);
        assert_eq!(end, 60);
        let mut b = Tracer::new(epoch);
        let r2 = b.push(None, 8, "root", 0, 50);
        b.push(Some(r2), 8, "x", 0, 50);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].id, 4);
        assert_eq!(self_times(spans), vec![50, 20, 30, 0, 50]);
        assert!(a.to_json().contains("\"parent\":3"));
    }
}
