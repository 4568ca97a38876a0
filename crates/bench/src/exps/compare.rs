//! The `experiments compare` subcommand: a regression gate over two
//! `BENCH_*.json` reports.
//!
//! Two report kinds are understood, dispatched on the `bench` field:
//!
//! * **Timing reports** ([`TimingReport`], as written by `experiments
//!   parallel` and friends): legs are matched by name and thread count,
//!   and a matched leg whose `wall_s` grew past a percentage threshold
//!   regresses. A matched leg did the same work only when every size fact
//!   (`queries`, `plans`, `requests`, `epochs`, `steps`) both sides carry
//!   is equal; one that did different work (e.g. a `--quick` run against a
//!   full baseline) is listed but never gates, and neither does a leg only
//!   one report has. Other facts ride along and never gate.
//! * **Sweep reports** (`bench: "sweep"`, as written by
//!   `experiments sweep`): diffs the scenario matrices cell-by-cell,
//!   matching cells by `config_hash`, with per-metric gates —
//!   `total_cost` / `total_wasted_cost` relative increase and
//!   `completion_rate` relative decrease past the threshold percentage,
//!   `shed_rate` absolute increase past the threshold in points, and any
//!   `decision_hash` drift (a determinism break regresses at any
//!   threshold). Cells present on only one side make the reports
//!   structurally incomparable.
//!
//! Exit codes are typed: [`EXIT_OK`] = within threshold,
//! [`EXIT_REGRESSION`] = regression detected, [`EXIT_PARSE`] =
//! unreadable/unparsable input, [`EXIT_DEGENERATE`] = structurally
//! incomparable reports (mixed kinds, missing sweep cells, or no leg or
//! cell matched that did the same work).

use super::sweep::SweepReport;
use crate::report::{Leg, TimingReport};
use serde::{Deserialize, Value};

/// Exit code: every matched leg or cell stayed within the threshold.
pub const EXIT_OK: i32 = 0;
/// Exit code: at least one matched leg or cell regressed past the
/// threshold.
pub const EXIT_REGRESSION: i32 = 1;
/// Exit code: a report could not be read or parsed.
pub const EXIT_PARSE: i32 = 2;
/// Exit code: the reports are structurally incomparable — different report
/// kinds, sweep cells present on only one side, or nothing matched that did
/// the same work.
pub const EXIT_DEGENERATE: i32 = 3;

/// The facts that size a leg's work. Two legs of one name and thread count
/// are compared only when every size fact both carry is equal. (`machines`
/// is not one: exec legs already carry the pool size in their names,
/// `event_10k`.)
const SIZE_FACTS: [&str; 5] = ["queries", "plans", "requests", "epochs", "steps"];

/// One leg both reports have, matched by name and thread count.
#[derive(Debug, Clone)]
pub struct LegDelta {
    /// The leg as `name@threads`.
    pub leg: String,
    /// Baseline wall-clock seconds.
    pub old_s: f64,
    /// New wall-clock seconds.
    pub new_s: f64,
    /// Percent change ((new − old) / old × 100; positive = slower).
    pub delta_pct: f64,
}

/// The outcome of a leg-by-leg timing comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Matched legs that did the same work, in the new report's order.
    pub deltas: Vec<LegDelta>,
    /// Matched legs whose size facts differ, as `name@threads (fact old vs
    /// new, ...)`; never gated.
    pub different_work: Vec<String>,
    /// Legs only the baseline has, as `name@threads`.
    pub only_old: Vec<String>,
    /// Legs only the new report has, as `name@threads`.
    pub only_new: Vec<String>,
    /// Matched legs whose `wall_s` grew past the threshold.
    pub regressions: Vec<String>,
}

impl Comparison {
    /// The typed exit code: no leg in common that did the same work is
    /// [`EXIT_DEGENERATE`]; one-sided and different-work legs never gate.
    pub fn exit_code(&self) -> i32 {
        if self.deltas.is_empty() {
            EXIT_DEGENERATE
        } else if self.regressions.is_empty() {
            EXIT_OK
        } else {
            EXIT_REGRESSION
        }
    }
}

/// The size facts two legs both carry with different values, as
/// `fact old vs new`.
fn size_mismatches(old: &Leg, new: &Leg) -> Vec<String> {
    SIZE_FACTS
        .iter()
        .filter_map(|&f| match (old.fact(f), new.fact(f)) {
            (Some(o), Some(n)) if o != n => Some(format!("{f} {o} vs {n}")),
            _ => None,
        })
        .collect()
}

/// Compares two timing reports leg by leg at a regression threshold
/// (percent).
pub fn compare(old: &TimingReport, new: &TimingReport, threshold_pct: f64) -> Comparison {
    let key = |l: &Leg| format!("{}@{}", l.name, l.threads);
    let find = |r: &TimingReport, k: &str| r.legs.iter().find(|l| key(l) == k).cloned();
    let mut cmp = Comparison {
        deltas: Vec::new(),
        different_work: Vec::new(),
        only_old: Vec::new(),
        only_new: Vec::new(),
        regressions: Vec::new(),
    };
    for ol in &old.legs {
        if find(new, &key(ol)).is_none() {
            cmp.only_old.push(key(ol));
        }
    }
    for nl in &new.legs {
        let Some(ol) = find(old, &key(nl)) else {
            cmp.only_new.push(key(nl));
            continue;
        };
        let sizes = size_mismatches(&ol, nl);
        if !sizes.is_empty() {
            cmp.different_work
                .push(format!("{} ({})", key(nl), sizes.join(", ")));
            continue;
        }
        let old_s = ol.wall_s;
        let delta_pct = 100.0 * (nl.wall_s - old_s) / old_s.max(1e-9);
        if delta_pct > threshold_pct {
            cmp.regressions.push(key(nl));
        }
        cmp.deltas.push(LegDelta {
            leg: key(nl),
            old_s,
            new_s: nl.wall_s,
            delta_pct,
        });
    }
    cmp
}

/// Reads a report file. Errors are strings so the caller can decide the
/// exit code.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn parse<T: Deserialize>(path: &str, text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| format!("cannot parse `{path}`: {e:?}"))
}

fn parse_both<T: Deserialize>(
    a: &str,
    a_text: &str,
    b: &str,
    b_text: &str,
) -> Result<(T, T), String> {
    Ok((parse(a, a_text)?, parse(b, b_text)?))
}

// ------------------------------------------------------------ sweep diff

/// One gated issue of one compared sweep cell.
#[derive(Debug, Clone)]
pub struct SweepCellDelta {
    /// The cell's matrix index in the new report.
    pub index: u64,
    /// The `config_hash` the cells were matched by.
    pub config_hash: String,
    /// Human-readable gate breaches (empty = cell is clean).
    pub issues: Vec<String>,
}

/// The outcome of a cell-by-cell sweep comparison.
#[derive(Debug, Clone)]
pub struct SweepComparison {
    /// Cells matched by `config_hash` across both reports.
    pub matched: usize,
    /// Matched cells with byte-identical metrics.
    pub identical: usize,
    /// Config hashes only the baseline has.
    pub missing_in_new: Vec<String>,
    /// Config hashes only the new report has.
    pub missing_in_old: Vec<String>,
    /// One entry per matched cell that breached a gate.
    pub regressions: Vec<SweepCellDelta>,
}

impl SweepComparison {
    /// Whether the reports are structurally incomparable (missing cells or
    /// nothing matched) — [`EXIT_DEGENERATE`] territory, which takes
    /// precedence over metric regressions.
    pub fn is_degenerate(&self) -> bool {
        self.matched == 0 || !self.missing_in_new.is_empty() || !self.missing_in_old.is_empty()
    }

    /// The typed exit code this comparison maps to.
    pub fn exit_code(&self) -> i32 {
        if self.is_degenerate() {
            EXIT_DEGENERATE
        } else if self.regressions.is_empty() {
            EXIT_OK
        } else {
            EXIT_REGRESSION
        }
    }
}

/// Compares two sweep reports cell-by-cell. `threshold_pct` gates the
/// relative cost/completion metrics (percent) and the shed-rate increase
/// (points); `decision_hash` drift regresses at any threshold.
pub fn compare_sweeps(old: &SweepReport, new: &SweepReport, threshold_pct: f64) -> SweepComparison {
    let rel = |o: f64, n: f64| 100.0 * (n - o) / o.max(1e-9);
    let mut cmp = SweepComparison {
        matched: 0,
        identical: 0,
        missing_in_new: Vec::new(),
        missing_in_old: Vec::new(),
        regressions: Vec::new(),
    };
    for nc in &new.cells {
        if !old.cells.iter().any(|oc| oc.config_hash == nc.config_hash) {
            cmp.missing_in_old.push(nc.config_hash.clone());
        }
    }
    for oc in &old.cells {
        let Some(nc) = new.cells.iter().find(|c| c.config_hash == oc.config_hash) else {
            cmp.missing_in_new.push(oc.config_hash.clone());
            continue;
        };
        cmp.matched += 1;
        if nc.metrics_hash == oc.metrics_hash {
            cmp.identical += 1;
            continue;
        }
        let (om, nm) = (&oc.metrics, &nc.metrics);
        let mut issues = Vec::new();
        if nm.decision_hash != om.decision_hash {
            issues.push(format!(
                "decision_hash drift ({} -> {})",
                om.decision_hash, nm.decision_hash
            ));
        }
        let cost = rel(om.total_cost, nm.total_cost);
        if cost > threshold_pct {
            issues.push(format!("total_cost {cost:+.1}%"));
        }
        let waste = rel(om.total_wasted_cost, nm.total_wasted_cost);
        if waste > threshold_pct {
            issues.push(format!("total_wasted_cost {waste:+.1}%"));
        }
        let completion = rel(om.completion_rate, nm.completion_rate);
        if -completion > threshold_pct {
            issues.push(format!("completion_rate {completion:+.1}%"));
        }
        let shed_pts = 100.0 * (nm.shed_rate - om.shed_rate);
        if shed_pts > threshold_pct {
            issues.push(format!("shed_rate {shed_pts:+.1} pts"));
        }
        if !issues.is_empty() {
            cmp.regressions.push(SweepCellDelta {
                index: nc.index,
                config_hash: nc.config_hash.clone(),
                issues,
            });
        }
    }
    cmp
}

/// The `bench` field of a report, read without committing to a schema.
fn report_kind(text: &str) -> Option<String> {
    let v: Value = serde_json::from_str(text).ok()?;
    let Value::Map(entries) = v else { return None };
    entries.into_iter().rev().find_map(|(k, v)| match v {
        Value::Str(s) if k == "bench" => Some(s),
        _ => None,
    })
}

fn run_sweep_diff(
    old_path: &str,
    old: &SweepReport,
    new_path: &str,
    new: &SweepReport,
    threshold_pct: f64,
) -> i32 {
    println!(
        "comparing sweep {old_path} (runbook {}, {} cells) -> {new_path} (runbook {}, {} cells), \
         threshold {threshold_pct:.0}%",
        old.runbook.id,
        old.cells.len(),
        new.runbook.id,
        new.cells.len()
    );
    if old.spec_hash != new.spec_hash {
        eprintln!(
            "compare: warning: different sweep specs ({} vs {}) — matching cells by config",
            old.spec_hash, new.spec_hash
        );
    }
    for (path, r) in [(old_path, old), (new_path, new)] {
        if !r.runbook.thread_invariant {
            eprintln!(
                "compare: warning: {path} failed its thread-invariance self-check — \
                 its metrics may not be trustworthy"
            );
        }
    }
    let cmp = compare_sweeps(old, new, threshold_pct);
    println!(
        "{} matched cell(s): {} byte-identical, {} drifted",
        cmp.matched,
        cmp.identical,
        cmp.matched - cmp.identical
    );
    for d in &cmp.regressions {
        println!(
            "  cell {} ({}): {}",
            d.index,
            d.config_hash,
            d.issues.join(", ")
        );
    }
    if cmp.is_degenerate() {
        if cmp.matched == 0 {
            eprintln!("degenerate: no cell matched between the reports");
        }
        if !cmp.missing_in_new.is_empty() {
            eprintln!(
                "degenerate: {} baseline cell(s) missing from {new_path}: {}",
                cmp.missing_in_new.len(),
                cmp.missing_in_new.join(", ")
            );
        }
        if !cmp.missing_in_old.is_empty() {
            eprintln!(
                "degenerate: {} cell(s) in {new_path} missing from the baseline: {}",
                cmp.missing_in_old.len(),
                cmp.missing_in_old.join(", ")
            );
        }
    } else if cmp.regressions.is_empty() {
        println!("ok: no cell regressed more than {threshold_pct:.0}%");
    } else {
        eprintln!(
            "regression: {} cell(s) breached the {threshold_pct:.0}% threshold",
            cmp.regressions.len()
        );
    }
    cmp.exit_code()
}

fn run_timing_diff(
    old_path: &str,
    old: &TimingReport,
    new_path: &str,
    new: &TimingReport,
    threshold_pct: f64,
) -> i32 {
    println!(
        "comparing {old_path} ({} scale, {} cores) -> {new_path} ({} scale, {} cores), \
         threshold {threshold_pct:.0}%",
        old.scale, old.host.cores, new.scale, new.host.cores
    );
    if old.bench != new.bench {
        eprintln!(
            "compare: warning: different benchmarks ({} vs {})",
            old.bench, new.bench
        );
    }
    let cmp = compare(old, new, threshold_pct);
    println!(
        "{:<28} {:>12} {:>12} {:>9}",
        "leg", "old (s)", "new (s)", "delta"
    );
    for d in &cmp.deltas {
        let flag = if d.delta_pct > threshold_pct {
            "  REGRESSED"
        } else {
            ""
        };
        println!(
            "{:<28} {:>12.3} {:>12.3} {:>+8.1}%{flag}",
            d.leg, d.old_s, d.new_s, d.delta_pct
        );
    }
    if !cmp.different_work.is_empty() {
        println!(
            "different work (not gated): {}",
            cmp.different_work.join(", ")
        );
    }
    for (path, legs) in [(old_path, &cmp.only_old), (new_path, &cmp.only_new)] {
        if !legs.is_empty() {
            println!("only in {path} (not gated): {}", legs.join(", "));
        }
    }
    match cmp.exit_code() {
        EXIT_OK => println!("ok: no leg regressed more than {threshold_pct:.0}%"),
        EXIT_REGRESSION => eprintln!(
            "regression: {} exceeded the {threshold_pct:.0}% threshold",
            cmp.regressions.join(", ")
        ),
        _ => {
            eprintln!("degenerate: no leg matched by name and thread count that did the same work")
        }
    }
    cmp.exit_code()
}

/// The full subcommand: loads both reports, dispatches on report kind
/// (sweep vs timing), prints the diff table, and returns the process exit
/// code ([`EXIT_OK`], [`EXIT_REGRESSION`], [`EXIT_PARSE`], or
/// [`EXIT_DEGENERATE`]).
pub fn run(old_path: &str, new_path: &str, threshold_pct: f64) -> i32 {
    let (old_text, new_text) = match (read(old_path), read(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return EXIT_PARSE;
        }
    };
    let old_sweep = report_kind(&old_text).as_deref() == Some("sweep");
    let new_sweep = report_kind(&new_text).as_deref() == Some("sweep");
    if old_sweep != new_sweep {
        eprintln!(
            "compare: `{old_path}` and `{new_path}` are different report kinds \
             (sweep vs timing) — incomparable"
        );
        return EXIT_DEGENERATE;
    }
    let code = if old_sweep {
        parse_both(old_path, &old_text, new_path, &new_text)
            .map(|(o, n)| run_sweep_diff(old_path, &o, new_path, &n, threshold_pct))
    } else {
        parse_both(old_path, &old_text, new_path, &new_text)
            .map(|(o, n)| run_timing_diff(old_path, &o, new_path, &n, threshold_pct))
    };
    code.unwrap_or_else(|e| {
        eprintln!("compare: {e}");
        EXIT_PARSE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parallel-bench report with the given `(name, threads, wall_s)` legs.
    fn report(legs: &[(&str, usize, f64)]) -> TimingReport {
        let mut r = TimingReport::new("parallel", crate::Scale::Small);
        r.legs = legs
            .iter()
            .map(|&(name, threads, wall_s)| Leg::new(name, threads, wall_s))
            .collect();
        r
    }

    #[test]
    fn within_threshold_passes_and_regression_is_flagged() {
        let old = report(&[("fig7_context", 2, 10.0), ("fig7_eval", 2, 1.0)]);
        let ok = compare(
            &old,
            &report(&[("fig7_context", 2, 11.0), ("fig7_eval", 2, 1.2)]),
            25.0,
        );
        assert_eq!(ok.exit_code(), EXIT_OK, "{:?}", ok.regressions);
        let bad = compare(
            &old,
            &report(&[("fig7_context", 2, 14.0), ("fig7_eval", 2, 1.0)]),
            25.0,
        );
        assert_eq!(bad.exit_code(), EXIT_REGRESSION);
        assert_eq!(bad.regressions, vec!["fig7_context@2"]);
        assert_eq!(bad.deltas.len(), 2);
        assert!(bad.deltas[0].delta_pct > 25.0);
    }

    #[test]
    fn speedups_are_not_regressions() {
        let old = report(&[("fig7_context", 2, 10.0)]);
        let fast = compare(&old, &report(&[("fig7_context", 2, 5.0)]), 25.0);
        assert_eq!(fast.exit_code(), EXIT_OK);
        assert!(fast.deltas.iter().all(|d| d.delta_pct < 0.0));
    }

    /// Legs pair up by name and thread count wherever they sit: a slower
    /// 1-thread leg is not diffed against the 2-thread leg of that name.
    #[test]
    fn legs_match_by_name_and_thread_count_not_position() {
        let old = report(&[("fig7_context", 1, 20.0), ("fig7_context", 2, 10.0)]);
        let new = report(&[("fig7_context", 2, 10.5), ("fig7_context", 1, 21.0)]);
        let cmp = compare(&old, &new, 25.0);
        assert_eq!(cmp.exit_code(), EXIT_OK);
        let legs: Vec<&str> = cmp.deltas.iter().map(|d| d.leg.as_str()).collect();
        assert_eq!(legs, ["fig7_context@2", "fig7_context@1"]);
        assert!(cmp.deltas.iter().all(|d| d.delta_pct.abs() < 6.0));
    }

    /// A leg on one side only is listed and never gates, however slow.
    #[test]
    fn one_sided_legs_are_listed_never_gated() {
        let old = report(&[("fig5_sweep", 1, 1.0), ("fig7_eval", 8, 1.0)]);
        let new = report(&[("fig5_sweep", 1, 1.0), ("fig7_eval", 4, 100.0)]);
        let cmp = compare(&old, &new, 25.0);
        assert_eq!(cmp.exit_code(), EXIT_OK);
        assert_eq!(cmp.only_old, vec!["fig7_eval@8"]);
        assert_eq!(cmp.only_new, vec!["fig7_eval@4"]);
    }

    #[test]
    fn no_common_leg_exits_degenerate() {
        let old = report(&[("fig7_context", 1, 1.0)]);
        let new = report(&[("fig7_context", 2, 1.0)]);
        assert_eq!(compare(&old, &new, 25.0).exit_code(), EXIT_DEGENERATE);
        assert_eq!(
            compare(&old, &report(&[]), 25.0).exit_code(),
            EXIT_DEGENERATE
        );
    }

    /// A leg of one name and thread count whose size facts differ (a
    /// `--quick` run against a full baseline) is listed, never gated; a
    /// size fact only one side carries does not make the work differ.
    #[test]
    fn legs_that_did_different_work_are_listed_not_gated() {
        let mut old = report(&[("event_1k", 1, 1.0), ("batched", 1, 1.0)]);
        old.legs[0] = old.legs[0].clone().with("queries", 400.0);
        old.legs[1] = old.legs[1].clone().with("queries", 60.0);
        let mut new = report(&[("event_1k", 1, 100.0), ("batched", 1, 1.1)]);
        new.legs[0] = new.legs[0].clone().with("queries", 60.0);
        new.legs[1] = new.legs[1]
            .clone()
            .with("queries", 60.0)
            .with("plans", 900.0);
        let cmp = compare(&old, &new, 25.0);
        assert_eq!(cmp.exit_code(), EXIT_OK, "{:?}", cmp.regressions);
        assert_eq!(cmp.different_work, vec!["event_1k@1 (queries 400 vs 60)"]);
        let legs: Vec<&str> = cmp.deltas.iter().map(|d| d.leg.as_str()).collect();
        assert_eq!(legs, ["batched@1"]);
        // The same-work leg still gates.
        new.legs[1].wall_s = 2.0;
        assert_eq!(compare(&old, &new, 25.0).exit_code(), EXIT_REGRESSION);
    }

    /// When every matched leg did different work, nothing is comparable.
    #[test]
    fn no_comparable_leg_exits_degenerate() {
        let sized = |wall_s, epochs| {
            report(&[("workspace", 2, wall_s)]).legs[0]
                .clone()
                .with("epochs", epochs)
                .with("steps", 10.0 * epochs)
        };
        let mut old = report(&[]);
        old.legs.push(sized(1.0, 15.0));
        let mut new = report(&[]);
        new.legs.push(sized(1.0, 3.0));
        let cmp = compare(&old, &new, 25.0);
        assert_eq!(cmp.exit_code(), EXIT_DEGENERATE);
        assert!(cmp.deltas.is_empty());
        assert_eq!(
            cmp.different_work,
            vec!["workspace@2 (epochs 15 vs 3, steps 150 vs 30)"]
        );
    }

    #[test]
    fn parse_errors_are_typed_not_panics() {
        let missing = "/nonexistent/BENCH.json";
        assert_eq!(run(missing, missing, 25.0), EXIT_PARSE);
    }

    /// Facts ride along each leg but never gate: only `wall_s` does.
    #[test]
    fn facts_parse_and_never_gate() {
        let mut old = report(&[("event_10k", 1, 1.0)]);
        old.legs[0] = old.legs[0].clone().with("machines", 10_000.0);
        let json = canon::canonical_of(&old);
        let parsed: TimingReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(parsed.legs[0].fact("machines"), Some(10_000.0));
        let mut new = parsed.clone();
        new.legs[0].facts[0].1 = 1.0;
        assert_eq!(compare(&parsed, &new, 25.0).exit_code(), EXIT_OK);
    }

    // ------------------------------------------------------- sweep diff

    use crate::canon;
    use crate::exps::sweep::{CellConfig, CellMetrics, Runbook, SpecEcho, SweepCell};

    fn sweep_cell(machines: u64, total_cost: f64, decisions: &str) -> SweepCell {
        let config = CellConfig {
            arrival: "poisson".into(),
            fault_scale: 0.0,
            machines,
            tenants: 4,
            threads: 1,
        };
        let metrics = CellMetrics {
            requests: 32,
            shed: 2,
            admitted: 30,
            completed: 30,
            failed: 0,
            batches: 2,
            degraded: 1,
            total_retries: 0,
            total_cost,
            total_wasted_cost: 0.0,
            completion_rate: 1.0,
            shed_rate: 0.0625,
            decision_hash: decisions.to_string(),
        };
        SweepCell {
            index: 0,
            seed: 7,
            config_hash: canon::hash_of(&config),
            metrics_hash: canon::hash_of(&metrics),
            config,
            metrics,
        }
    }

    fn sweep_report(cells: Vec<SweepCell>) -> SweepReport {
        SweepReport {
            bench: "sweep".into(),
            scale: "small".into(),
            spec: SpecEcho {
                mode: "grid".into(),
                samples: 0,
                seed: 7,
                requests: 32,
                batch_size: 16,
                axes: vec![],
            },
            spec_hash: "0".repeat(16),
            runbook: Runbook {
                id: "0".repeat(16),
                jobs: cells.len() as u64,
                cells: cells.len() as u64,
                sweep_seed: 7,
                seeds: cells.iter().map(|c| c.seed).collect(),
                artifacts: vec!["BENCH_sweep.json".into()],
                thread_invariant: true,
            },
            cells,
        }
    }

    #[test]
    fn identical_sweeps_compare_clean() {
        let r = sweep_report(vec![sweep_cell(8, 100.0, "aa"), sweep_cell(16, 90.0, "bb")]);
        let cmp = compare_sweeps(&r, &r, 10.0);
        assert_eq!(cmp.exit_code(), EXIT_OK);
        assert_eq!(cmp.matched, 2);
        assert_eq!(cmp.identical, 2);
        assert!(cmp.regressions.is_empty());
    }

    #[test]
    fn cost_breach_past_threshold_is_a_regression() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        let new = sweep_report(vec![sweep_cell(8, 125.0, "aa")]);
        // +25% cost: clean at a 30% threshold, regressed at 10%.
        assert_eq!(compare_sweeps(&old, &new, 30.0).exit_code(), EXIT_OK);
        let cmp = compare_sweeps(&old, &new, 10.0);
        assert_eq!(cmp.exit_code(), EXIT_REGRESSION);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].issues[0].contains("total_cost"));
    }

    #[test]
    fn decision_hash_drift_regresses_at_any_threshold() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        let new = sweep_report(vec![sweep_cell(8, 100.0, "bb")]);
        let cmp = compare_sweeps(&old, &new, 1e9);
        assert_eq!(cmp.exit_code(), EXIT_REGRESSION);
        assert!(cmp.regressions[0].issues[0].contains("decision_hash"));
    }

    #[test]
    fn missing_cells_are_degenerate_and_outrank_regressions() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa"), sweep_cell(16, 90.0, "bb")]);
        let new = sweep_report(vec![sweep_cell(8, 500.0, "aa")]);
        let cmp = compare_sweeps(&old, &new, 10.0);
        assert!(cmp.is_degenerate());
        assert_eq!(cmp.exit_code(), EXIT_DEGENERATE);
        assert_eq!(cmp.missing_in_new.len(), 1);
        // The matched cell's cost breach is still recorded for the diff
        // table even though the exit code is the degenerate one.
        assert_eq!(cmp.regressions.len(), 1);
        // Nothing matched at all is degenerate too.
        let disjoint = sweep_report(vec![sweep_cell(64, 10.0, "cc")]);
        assert_eq!(
            compare_sweeps(&old, &disjoint, 10.0).exit_code(),
            EXIT_DEGENERATE
        );
    }

    #[test]
    fn mixed_report_kinds_exit_degenerate() {
        let dir = std::env::temp_dir();
        let sweep_path = dir.join("cmp_mixed_sweep.json");
        let timing_path = dir.join("cmp_mixed_timing.json");
        let sweep = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        std::fs::write(&sweep_path, canon::canonical_of(&sweep)).expect("write sweep");
        std::fs::write(&timing_path, canon::canonical_of(&report(&[("a", 1, 1.0)])))
            .expect("write timing");
        let code = run(
            sweep_path.to_str().expect("utf8 path"),
            timing_path.to_str().expect("utf8 path"),
            25.0,
        );
        assert_eq!(code, EXIT_DEGENERATE);
        // Two sweeps through the same entry point take the sweep path.
        let code = run(
            sweep_path.to_str().expect("utf8 path"),
            sweep_path.to_str().expect("utf8 path"),
            25.0,
        );
        assert_eq!(code, EXIT_OK);
        let _ = std::fs::remove_file(&sweep_path);
        let _ = std::fs::remove_file(&timing_path);
    }

    #[test]
    fn completion_drop_and_shed_rise_are_gated() {
        let old = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        let mut worse = sweep_report(vec![sweep_cell(8, 100.0, "aa")]);
        worse.cells[0].metrics.completion_rate = 0.5;
        worse.cells[0].metrics.shed_rate = 0.4;
        worse.cells[0].metrics_hash = canon::hash_of(&worse.cells[0].metrics);
        let cmp = compare_sweeps(&old, &worse, 10.0);
        assert_eq!(cmp.exit_code(), EXIT_REGRESSION);
        let issues = cmp.regressions[0].issues.join("; ");
        assert!(issues.contains("completion_rate"), "{issues}");
        assert!(issues.contains("shed_rate"), "{issues}");
        // Improvements never regress.
        let mut better = sweep_report(vec![sweep_cell(8, 50.0, "aa")]);
        better.cells[0].metrics.shed_rate = 0.0;
        better.cells[0].metrics_hash = canon::hash_of(&better.cells[0].metrics);
        assert_eq!(compare_sweeps(&old, &better, 10.0).exit_code(), EXIT_OK);
    }
}
