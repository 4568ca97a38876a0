//! Experiment output: plain-text tables, and the one timing-report type
//! every `BENCH_*.json` speed report except the sweep is written from.

use crate::canon;
use crate::scale::Scale;
use serde::{Deserialize, Serialize};

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) -> &mut Self {
        self.rows.push(row.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_line = |cells: &[String]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{:<width$}  ", cell, width = w));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_line(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_line(row));
            out.push('\n');
        }
        out
    }
}

/// Wraps a [`mcsim_obs::MetricsSnapshot`] in a JSON document tagged with the
/// experiment id and scale, ready to pipe into downstream tooling:
///
/// ```json
/// {"experiment":"fig6","scale":"small","metrics":{"counters":{...},...}}
/// ```
pub fn metrics_json(
    experiment: &str,
    scale: &str,
    snapshot: &mcsim_obs::MetricsSnapshot,
) -> String {
    format!(
        "{{\"experiment\":\"{experiment}\",\"scale\":\"{scale}\",\"metrics\":{}}}",
        snapshot.to_json()
    )
}

/// Formats a float compactly: integers under 1k exactly, thousands with
/// separators, tiny values with precision.
pub fn fmt_row(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

/// One bench's measured legs plus the host they ran on, written as one
/// canonical-JSON line to `BENCH_<bench>.json` by [`TimingReport::write`].
///
/// A leg is one run of one piece of work at one thread count. Runs of the
/// same work at different thread counts share a leg name; different work
/// (the dense and the event engine, fault ×0 and ×1) gets different names.
/// The report stores no ratios and no totals: a reader that wants a
/// speedup divides the `wall_s` of two named legs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Bench id: the report lives in `BENCH_<bench>.json`.
    pub bench: String,
    /// Scale the legs ran at (`small`, `medium`, `full`).
    pub scale: String,
    /// The machine the legs ran on.
    pub host: Host,
    /// The measured legs, in run order.
    pub legs: Vec<Leg>,
}

/// The machine a report was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Logical cores available to the process.
    pub cores: u64,
    /// The process-wide tinynn kernel mode (`simd` or `scalar`).
    pub kernel_mode: String,
}

/// One measured run of one piece of work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Leg {
    /// What ran (`fig7_context`, `event_10k`, `batched`, ...).
    pub name: String,
    /// Pool threads the work ran on.
    pub threads: u64,
    /// Wall-clock seconds: the number `experiments compare` gates on.
    pub wall_s: f64,
    /// The leg's own numbers as (name, value) pairs, e.g. `("qps", 764.8)`.
    pub facts: Vec<(String, f64)>,
}

/// Rounds to six decimals so reports stay short and diffable.
fn micro(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

impl TimingReport {
    /// An empty report for `bench` at `scale` on this host.
    pub fn new(bench: &str, scale: Scale) -> TimingReport {
        TimingReport {
            bench: bench.to_string(),
            scale: format!("{scale:?}").to_lowercase(),
            host: Host {
                cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
                kernel_mode: format!("{:?}", tinynn::kernel_mode()).to_lowercase(),
            },
            legs: Vec::new(),
        }
    }

    /// The first leg named `name`.
    pub fn leg(&self, name: &str) -> Option<&Leg> {
        self.legs.iter().find(|l| l.name == name)
    }

    /// The legs as an aligned table: name, threads, wall-clock, then one
    /// column per fact name in order of first appearance.
    pub fn table(&self) -> Table {
        let mut facts: Vec<&str> = Vec::new();
        for (name, _) in self.legs.iter().flat_map(|l| &l.facts) {
            if !facts.contains(&name.as_str()) {
                facts.push(name);
            }
        }
        // Counts print as integers, everything else through `fmt_row`.
        let cell = |v: f64| {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                fmt_row(v)
            }
        };
        let mut t = Table::new(["leg", "threads", "wall (s)"].iter().chain(&facts).copied());
        for l in &self.legs {
            let cells = [l.name.clone(), l.threads.to_string(), fmt_row(l.wall_s)];
            let values = facts
                .iter()
                .map(|f| l.fact(f).map_or("-".to_string(), cell));
            t.row(cells.into_iter().chain(values));
        }
        t
    }

    /// Writes the report as canonical JSON plus a newline to
    /// `BENCH_<bench>.json` in the current directory.
    pub fn write(&self) {
        let path = format!("BENCH_{}.json", self.bench);
        match std::fs::write(&path, canon::canonical_of(self) + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

impl Leg {
    /// A leg with no facts yet.
    pub fn new(name: impl Into<String>, threads: usize, wall_s: f64) -> Leg {
        Leg {
            name: name.into(),
            threads: threads as u64,
            wall_s: micro(wall_s),
            facts: Vec::new(),
        }
    }

    /// Adds a fact.
    pub fn with(mut self, name: &str, value: f64) -> Leg {
        self.facts.push((name.to_string(), micro(value)));
        self
    }

    /// The value of the fact `name`.
    pub fn fact(&self, name: &str) -> Option<f64> {
        self.facts.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The checked-in `BENCH_<bench>.json` at the repository root; panics if
/// it is missing or does not parse.
#[cfg(test)]
pub(crate) fn checked_in(bench: &str) -> (TimingReport, String) {
    let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("BENCH_{bench}.json must be checked in: {e}"));
    let report = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("BENCH_{bench}.json must parse: {e:?}"));
    (report, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    /// Every checked-in timing report is one canonical line of its own
    /// bench with sane legs.
    #[test]
    fn checked_in_timing_reports_are_canonical() {
        for bench in ["parallel", "train", "exec", "infer", "serve", "chaos"] {
            let (r, text) = checked_in(bench);
            assert_eq!(r.bench, bench);
            assert!(!r.legs.is_empty(), "{bench}: no legs");
            for l in &r.legs {
                assert!(
                    l.wall_s.is_finite() && l.wall_s > 0.0 && l.threads >= 1,
                    "{bench}: bad leg {l:?}"
                );
            }
            assert_eq!(
                canon::canonical_of(&r) + "\n",
                text,
                "{bench}: not canonical"
            );
        }
    }

    #[test]
    fn fmt_row_scales() {
        assert_eq!(fmt_row(1234567.0), "1234567");
        assert_eq!(fmt_row(12.34), "12.3");
        assert_eq!(fmt_row(0.1234), "0.123");
        assert_eq!(fmt_row(f64::NAN), "-");
    }
}
