//! `noc-benchmark compare A.json B.json`: the "two sets agree" check, and
//! the no-regression rule for a change (A the parent, B the change).

use crate::metrics::{self, Better, MetricDef};
use crate::report::ResultFile;
use crate::stats;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × end-to-end metric.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: &'static str,
    pub better: Better,
    /// First quartile, median, third quartile.
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// B's median over A's.
    pub ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges one metric from the two sides' per-run values.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let better = |x: f64, y: f64| match def.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let worse_by = match def.better {
        Better::Higher => (med_a - med_b) / med_a,
        Better::Lower => (med_b - med_a) / med_a,
    };
    let every = |wins: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| wins(y, x)));
    // `setup_s` is judged on its medians alone, as the acceptance procedure
    // does: a few set-ups per run cannot give it a spread worth gating on.
    let steady = def.name == "setup_s" || (stats::spread(a) <= bound && stats::spread(b) <= bound);
    let verdict = if worse_by > bound && (steady || every(&|y, x| better(x, y))) {
        Verdict::Regressed
    } else if steady || every(&better) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    };
    (med_b / med_a, verdict)
}

/// Every workload × end-to-end metric both files hold.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Vec<Row> {
    let defs = metrics::end_to_end();
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for def in &defs {
            let series = |w: &crate::report::WorkloadResult| {
                w.metrics
                    .iter()
                    .find(|s| s.name == def.name)
                    .map(|s| s.values.clone())
            };
            let (Some(va), Some(vb)) = (series(wa), series(wb)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ratio, verdict) = judge(def, &va, &vb);
            rows.push(Row {
                workload: wa.name.clone(),
                metric: def.name.clone(),
                unit: def.unit,
                better: def.better,
                a: stats::quartiles(&va),
                b: stats::quartiles(&vb),
                ratio,
                bound: def.bound.unwrap_or(f64::NAN),
                verdict,
            });
        }
    }
    rows
}

/// The table `compare` prints: medians with quartiles, the ratio with its
/// base, the bound and the verdict.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<19} {:<15} {:<7} {:>36} {:>36} {:>9} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "better",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B/A",
        "bound"
    );
    let side = |(q1, med, q3): (f64, f64, f64)| format!("{med:.6} [{q1:.6}, {q3:.6}]");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<19} {:<15} {:<7} {:>36} {:>36} {:>9.4} {:>5.1}%  {}",
            r.workload,
            r.metric,
            r.unit,
            r.better.label(),
            side(r.a),
            side(r.b),
            r.ratio,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} rows: {} ok, {} regressed, {} unresolved (B/A is B's median over A's)",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> MetricDef {
        metrics::end_to_end()
            .into_iter()
            .find(|d| d.name == name)
            .expect("metric exists")
    }

    #[test]
    fn steady_sets_within_the_bound_agree() {
        let d = def("sim_cycles_per_s");
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(judge(&d, &a, &b).1, Verdict::Ok);
        assert!((judge(&d, &a, &b).0 - 0.97).abs() < 1e-9);
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses_in_the_metric_s_own_direction() {
        let higher = def("sim_cycles_per_s");
        let a = [100.0, 101.0, 99.0];
        let slow = [70.0, 71.0, 69.0];
        assert_eq!(judge(&higher, &a, &slow).1, Verdict::Regressed);
        assert_eq!(judge(&higher, &slow, &a).1, Verdict::Ok);
        let lower = def("request_p50_ms");
        assert_eq!(judge(&lower, &slow, &a).1, Verdict::Regressed);
        assert_eq!(judge(&lower, &a, &slow).1, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_sweeps() {
        let d = def("request_p50_ms");
        let noisy_a = [10.0, 14.0, 18.0, 22.0];
        let noisy_b = [11.0, 15.0, 19.0, 21.0];
        assert_eq!(judge(&d, &noisy_a, &noisy_b).1, Verdict::Unresolved);
        // Every B run reads better than every A run.
        assert_eq!(judge(&d, &noisy_a, &[5.0, 7.0, 9.0]).1, Verdict::Ok);
        // Every B run reads worse than every A run.
        assert_eq!(
            judge(&d, &noisy_a, &[30.0, 40.0, 50.0]).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn setup_time_is_judged_on_medians_alone() {
        let d = def("setup_s");
        let noisy_a = [1.0, 1.4, 1.8, 2.2];
        assert_eq!(judge(&d, &noisy_a, &[1.1, 1.5, 1.9, 2.1]).1, Verdict::Ok);
        assert_eq!(
            judge(&d, &noisy_a, &[2.0, 2.4, 2.8, 3.2]).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_compare_by_value() {
        let d = def("peak_rss_mb");
        assert_eq!(judge(&d, &[50.0], &[52.0]).1, Verdict::Ok);
        assert_eq!(judge(&d, &[50.0], &[70.0]).1, Verdict::Regressed);
    }
}
