//! Benchmark-side spans: recorded around calls into each layer, kept in
//! memory, written out as JSONL when the traced run ends, and reduced to
//! per-layer self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `proto.encode_request`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (block or repetition) the span belongs to; every span
    /// of one request shares it.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: id, name, start, end, parent and
    /// request id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            s.duration() - covered
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Self time summed over the direct children of spans named `root`.
pub fn children_self_time(spans: &[Span], root: &str) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent.is_some_and(|p| spans[p].name == root))
        .map(|(_, t)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 30);
        assert_eq!(by_name["b"], 40);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(children_self_time(&spans, "request"), 60);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 90, 130, Some(0)),
            span("y", 120, 150, Some(0)),
            span("z", 190, 260, Some(0)),
        ];
        // Covered: [100,150) ∪ [190,200) = 60 of the root's 100 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn same_name_spans_sum_across_requests() {
        let mut spans = vec![span("r", 0, 10, None), span("r", 20, 35, None)];
        spans[1].request = 1;
        assert_eq!(self_time_by_name(&spans)["r"], 25);
    }

    #[test]
    fn recorder_nests_and_writes_jsonl() {
        let mut rec = Recorder::new();
        let root = rec.open("request", None, 7);
        let v = rec.time("layer", Some(root), 7, || 41 + 1);
        rec.close(root);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"request\":7"));
        assert!(lines[1].contains("\"name\":\"layer\"") && lines[1].contains("\"parent\":0"));
    }
}
