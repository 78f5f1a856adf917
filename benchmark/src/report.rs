//! What a run prints and the result file a set of runs leaves behind.

use crate::common::{Checks, Values};
use crate::metrics::MetricDef;
use noc_obs::JsonValue;
use std::fmt::Write as _;

pub const RESULT_SCHEMA: &str = "noc-benchmark-result/v1";

/// The object a single-workload run prints as its last stdout line.
/// Every metric in `defs` appears; one the run did not produce, or
/// produced as a non-number, is an operation that failed.
pub fn result_line(defs: &[MetricDef], values: &Values, checks: &mut Checks) -> String {
    let mut metrics = String::new();
    for def in defs {
        let found = values.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v);
        let value = match found {
            Some(v) if v.is_finite() => v,
            other => {
                checks.op(false, || {
                    format!("metric {} came out as {other:?}", def.name)
                });
                0.0
            }
        };
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            def.name, def.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    )
}

/// One metric's values across the runs of a set.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

/// One workload's part of a result file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Series>,
}

impl WorkloadResult {
    /// Folds one run's result line into the set.
    pub fn absorb(&mut self, line: &str) -> Result<(), String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("result line: {e}"))?;
        let count = |key: &str| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        self.attempted += count("attempted");
        self.failed += count("failed");
        let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
            return Err("result line: no 'metrics' object".to_string());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("result line: {name} has no value"))?;
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            match self.metrics.iter_mut().find(|s| s.name == *name) {
                Some(series) => series.values.push(value),
                None => self.metrics.push(Series {
                    name: name.clone(),
                    unit: unit.to_string(),
                    values: vec![value],
                }),
            }
        }
        Ok(())
    }
}

/// Where and how a set of runs was taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Provenance {
    pub commit: String,
    pub cpu: String,
    pub nproc: usize,
    pub seed: u64,
    pub runs: usize,
    pub seconds: f64,
    pub trace: bool,
}

/// A result file: provenance plus every workload's series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultFile {
    pub provenance: Provenance,
    pub workloads: Vec<WorkloadResult>,
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let p = &self.provenance;
        let mut out = format!(
            "{{\"schema\":\"{RESULT_SCHEMA}\",\"commit\":\"{}\",\"cpu\":\"{}\",\"nproc\":{},\"seed\":{},\"runs\":{},\"seconds\":{},\"trace\":{},\n\"workloads\":[",
            escape(&p.commit),
            escape(&p.cpu),
            p.nproc,
            p.seed,
            p.runs,
            p.seconds,
            u8::from(p.trace)
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"attempted\":{},\"failed\":{},\"metrics\":{{",
                if i > 0 { "," } else { "" },
                w.name,
                w.attempted,
                w.failed
            );
            for (k, s) in w.metrics.iter().enumerate() {
                let values: Vec<String> = s.values.iter().map(|v| format!("{v}")).collect();
                let _ = write!(
                    out,
                    "{}\n \"{}\":{{\"unit\":\"{}\",\"values\":[{}]}}",
                    if k > 0 { "," } else { "" },
                    s.name,
                    s.unit,
                    values.join(",")
                );
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = JsonValue::parse(text)?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(RESULT_SCHEMA) {
            return Err(format!("not a {RESULT_SCHEMA} file"));
        }
        let text_of = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string()
        };
        let number = |key: &str| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let provenance = Provenance {
            commit: text_of("commit"),
            cpu: text_of("cpu"),
            nproc: number("nproc") as usize,
            seed: number("seed") as u64,
            runs: number("runs") as usize,
            seconds: number("seconds"),
            trace: number("trace") != 0.0,
        };
        let mut workloads = Vec::new();
        for w in doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("result file: no 'workloads' array")?
        {
            let Some(JsonValue::Obj(metrics)) = w.get("metrics") else {
                return Err("result file: workload without 'metrics'".to_string());
            };
            let metrics = metrics
                .iter()
                .map(|(name, m)| Series {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    values: m
                        .get("values")
                        .and_then(JsonValue::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(JsonValue::as_f64)
                        .collect(),
                })
                .collect();
            workloads.push(WorkloadResult {
                name: w
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                attempted: w
                    .get("attempted")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0) as u64,
                failed: w.get("failed").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
                metrics,
            });
        }
        Ok(ResultFile {
            provenance,
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn full_values(defs: &[MetricDef]) -> Values {
        defs.iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), 1.5 + i as f64))
            .collect()
    }

    #[test]
    fn result_line_is_valid_json_with_exactly_the_listed_metrics() {
        for defs in [metrics::end_to_end(), metrics::per_layer()] {
            let mut checks = Checks {
                attempted: 12,
                failed: 0,
            };
            let line = result_line(&defs, &full_values(&defs), &mut checks);
            noc_obs::validate_json(&line).expect("valid JSON");
            let doc = JsonValue::parse(&line).expect("parses");
            assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
            let Some(JsonValue::Obj(printed)) = doc.get("metrics") else {
                panic!("no metrics object");
            };
            let printed: Vec<&str> = printed.iter().map(|(n, _)| n.as_str()).collect();
            let listed: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(printed, listed);
        }
    }

    #[test]
    fn a_missing_or_nan_metric_is_a_failed_operation() {
        let defs = metrics::end_to_end();
        let mut values = full_values(&defs);
        values[1].1 = f64::NAN;
        values.pop();
        let mut checks = Checks::default();
        let line = result_line(&defs, &values, &mut checks);
        assert_eq!(checks.failed, 2);
        let doc = JsonValue::parse(&line).expect("still valid JSON");
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn result_file_round_trips_and_validates() {
        let defs = metrics::end_to_end();
        let mut w = WorkloadResult {
            name: "mesh_heavy".to_string(),
            ..WorkloadResult::default()
        };
        for run in 0..3 {
            let mut checks = Checks {
                attempted: 10,
                failed: 0,
            };
            let values: Values = full_values(&defs)
                .into_iter()
                .map(|(n, v)| (n, v + f64::from(run)))
                .collect();
            w.absorb(&result_line(&defs, &values, &mut checks))
                .expect("absorbs");
        }
        assert_eq!(w.attempted, 30);
        assert_eq!(w.metrics[0].values, vec![1.5, 2.5, 3.5]);
        let file = ResultFile {
            provenance: Provenance {
                commit: "abc".to_string(),
                cpu: "Some \"CPU\" @ 2.10GHz".to_string(),
                nproc: 2,
                seed: 7,
                runs: 3,
                seconds: 9.0,
                trace: false,
            },
            workloads: vec![w],
        };
        let text = file.to_json();
        noc_obs::validate_json(&text).expect("result file is valid JSON");
        assert_eq!(ResultFile::parse(&text).expect("parses back"), file);
    }
}
