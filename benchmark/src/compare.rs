//! `compare A.json B.json`: applies each end-to-end metric's direction
//! and bound to two result files and says, per workload row, whether B
//! is ok, regressed, or unresolved.

use crate::catalog::{Better, EndToEnd, END_TO_END};
use crate::json::Value;
use crate::stats;

/// What one metric on one workload came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread between rounds is wider than the bound, so a shift
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub status: Status,
}

/// Judges one metric from its per-round values on both sides.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Status) {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if med_a == 0.0 {
        0.0
    } else {
        sign * (med_b - med_a) / med_a.abs()
    };
    let spread = stats::spread(a).max(stats::spread(b));
    // Whether every round of one side beats every round of the other.
    let worse = |x: f64, y: f64| sign * (x - y) > 0.0;
    let all = |f: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| f(x, y)));
    let b_all_worse = all(&|x, y| worse(y, x));
    let b_all_better = all(&|x, y| worse(x, y));
    let status = if spread > metric.bound && !b_all_worse && !b_all_better {
        Status::Unresolved
    } else if worse_by > metric.bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (worse_by, spread, status)
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "result file has no \"workloads\" list".to_string())
}

fn rounds_of(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    workload
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))?
        .get("rounds")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Compares every workload of A with the same workload of B.
///
/// # Errors
///
/// A workload of A that B lacks, or that B ran incorrectly, is an
/// error: there is nothing to compare it with.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = wa
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let wb = workloads(b)?
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        for (side, w) in [("first", wa), ("second", wb)] {
            if w.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!("workload {name} failed a gate in the {side} file"));
            }
        }
        for metric in &END_TO_END {
            let (Some(ra), Some(rb)) = (rounds_of(wa, metric.name), rounds_of(wb, metric.name))
            else {
                return Err(format!("workload {name} lacks metric {}", metric.name));
            };
            let (worse_by, spread, status) = judge(metric, &ra, &rb);
            rows.push(Row {
                workload: name.to_owned(),
                metric: metric.name,
                a: stats::median(&ra),
                b: stats::median(&rb),
                worse_by,
                spread,
                status,
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; `true` when none regressed.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>8} {:>6}  status",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for row in rows {
        let bound = crate::catalog::end_to_end(row.metric).map_or(0.0, |m| m.bound);
        println!(
            "{:<18} {:<24} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worse_by * 100.0,
            row.spread * 100.0,
            bound * 100.0,
            row.status.as_str()
        );
    }
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "ok {} regressed {} unresolved {}",
        count(Status::Ok),
        count(Status::Regressed),
        count(Status::Unresolved)
    );
    count(Status::Regressed) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;
    use crate::json::parse;

    fn result(ops: &[f64], cpu: &[f64]) -> Value {
        let series = |name: &str, rounds: &[f64]| {
            Value::obj([("name", Value::str(name)), ("rounds", Value::nums(rounds))])
        };
        let mut metrics = vec![series("ops_per_s", ops), series("cpu_us_per_op", cpu)];
        for m in &END_TO_END {
            if !matches!(m.name, "ops_per_s" | "cpu_us_per_op") {
                metrics.push(series(m.name, &[100.0, 101.0, 100.5]));
            }
        }
        Value::obj([(
            "workloads",
            Value::Arr(vec![Value::obj([
                ("workload", Value::str("wire_loaded")),
                ("correct", Value::Bool(true)),
                ("end_to_end", Value::Arr(metrics)),
            ])]),
        )])
    }

    const OPS: [f64; 8] = [
        11000.0, 11100.0, 10950.0, 11050.0, 11020.0, 10980.0, 11080.0, 11010.0,
    ];
    const CPU: [f64; 8] = [113.0, 112.5, 113.4, 113.1, 112.9, 113.2, 112.8, 113.0];

    #[test]
    fn identical_files_pass() {
        let a = result(&OPS, &CPU);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.status == Status::Ok));
        assert!(report(&rows));
    }

    #[test]
    fn a_doctored_file_is_a_regression_in_the_right_direction() {
        let a = result(&OPS, &CPU);
        // Throughput down 40 %: worse, because higher is better.
        let slower: Vec<f64> = OPS.iter().map(|v| v * 0.6).collect();
        let rows = compare(&a, &result(&slower, &CPU)).unwrap();
        let row = rows.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert_eq!(row.status, Status::Regressed);
        assert!((row.worse_by - 0.4).abs() < 0.01);
        assert!(!report(&rows));
        // Throughput up 40 % is not.
        let faster: Vec<f64> = OPS.iter().map(|v| v * 1.4).collect();
        let rows = compare(&a, &result(&faster, &CPU)).unwrap();
        assert!(rows.iter().all(|r| r.status == Status::Ok));
        // CPU per op up 40 %: worse, because lower is better.
        let costlier: Vec<f64> = CPU.iter().map(|v| v * 1.4).collect();
        let rows = compare(&a, &result(&OPS, &costlier)).unwrap();
        let row = rows.iter().find(|r| r.metric == "cpu_us_per_op").unwrap();
        assert_eq!(row.status, Status::Regressed);
        // A shift inside the bound is ok.
        let a_bit: Vec<f64> = CPU.iter().map(|v| v * 1.05).collect();
        let rows = compare(&a, &result(&OPS, &a_bit)).unwrap();
        assert!(rows.iter().all(|r| r.status == Status::Ok));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_separate() {
        let metric = end_to_end("ops_per_s").unwrap();
        let noisy_a = [100.0, 140.0, 80.0, 120.0, 90.0, 130.0];
        let noisy_b = [95.0, 135.0, 70.0, 100.0, 85.0, 110.0];
        assert_eq!(judge(metric, &noisy_a, &noisy_b).2, Status::Unresolved);
        // Every round of B below every round of A: worse, however noisy.
        let far_b = [40.0, 60.0, 30.0, 50.0, 45.0, 55.0];
        assert_eq!(judge(metric, &noisy_a, &far_b).2, Status::Regressed);
        // Every round of B above every round of A: better.
        let high_b = [200.0, 260.0, 180.0, 240.0, 190.0, 250.0];
        assert_eq!(judge(metric, &noisy_a, &high_b).2, Status::Ok);
    }

    #[test]
    fn a_missing_or_incorrect_workload_is_an_error() {
        let a = result(&OPS, &CPU);
        let empty = Value::obj([("workloads", Value::Arr(vec![]))]);
        assert!(compare(&a, &empty).is_err());
        let text = a.write().replace("\"correct\":true", "\"correct\":false");
        assert!(compare(&a, &parse(&text).unwrap()).is_err());
        assert!(compare(&Value::Null, &a).is_err());
    }
}
