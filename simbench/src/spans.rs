//! The benchmark's own spans: host-time intervals around its calls into
//! each crate, kept in memory and written out when the run ends.

use crate::report::object;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The workspace crate the span's calls go into.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Nested host-time spans. Spans close in reverse order of opening, so
/// a span's children never overlap one another.
pub struct Spans {
    epoch: Instant,
    run_id: String,
    done: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(run_id: String) -> Self {
        Spans {
            epoch: Instant::now(),
            run_id,
            done: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` in `layer`; returns its result.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.done.len();
        self.done.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.done[idx].end_ns = self.now_ns();
        out
    }

    /// Seconds of the most recently opened span named `name`.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.done
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Seconds of the children named `child` of the most recent span named
    /// `parent`.
    pub fn child_secs(&self, parent: &str, child: &str) -> f64 {
        let Some(p) = self.done.iter().rposition(|s| s.name == parent) else {
            return 0.0;
        };
        self.done[p + 1..]
            .iter()
            .filter(|s| s.parent == Some(p) && s.name == child)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time per layer in seconds: each span's duration minus the time
    /// its direct children cover, summed by layer.
    pub fn self_secs_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.done.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The spans as JSON lines: id, name, layer, start, end, parent, run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.done.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| Value::U64(p as u64));
            let line = object(vec![
                ("id", Value::U64(i as u64)),
                ("name", Value::Str(s.name.to_string())),
                ("layer", Value::Str(s.layer.to_string())),
                ("start_ns", Value::U64(s.start_ns)),
                ("end_ns", Value::U64(s.end_ns)),
                ("parent", parent),
                ("run", Value::Str(self.run_id.clone())),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("a JSON value serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new("t".into());
        sp.span("outer", "a", |sp| {
            sp.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by_layer = sp.self_secs_by_layer();
        assert!(by_layer["inner"] >= 0.02);
        assert!(by_layer["outer"] < 0.01, "{by_layer:?}");
        assert!(sp.last_secs("a") >= by_layer["inner"]);
        assert_eq!(sp.to_jsonl().lines().count(), 2);
        assert!(sp.to_jsonl().contains("\"parent\":0"));
    }
}
