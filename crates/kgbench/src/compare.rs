//! `kgbench compare BASELINE.json CANDIDATE.json`: every end-to-end
//! metric × workload against its bound.

use crate::api::{Failure, Json};
use crate::report::fields;
use crate::spec::{self, Better};

/// What `compare` says about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound, and the slices'
    /// spread is too small to hide a regression of that size.
    Ok,
    /// Worse than the bound by more than the spread could explain.
    Regressed,
    /// The two sides' spreads overlap the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One line of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// How much worse the candidate is, as a share of the baseline
    /// (negative: better).
    pub worse: f64,
    /// The larger of the two sides' spreads, as a share of the baseline.
    pub noise: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric. `worse`, `noise` and `bound` are shares of the
/// baseline's value.
pub fn judge(worse: f64, noise: f64, bound: f64) -> Verdict {
    if worse > bound + noise {
        Verdict::Regressed
    } else if worse <= bound - noise {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn number(m: &Json, key: &str) -> Option<f64> {
    m.get(key).and_then(Json::as_f64)
}

/// Compares two result files written by `kgbench all`. Refuses files
/// that differ in benchmark version, seed, window, sizes or machine
/// (the git revision is the one thing expected to differ).
pub fn compare(base: &Json, cand: &Json) -> Result<Vec<Row>, Failure> {
    for key in ["benchmark", "version", "seed", "seconds", "sizes", "fsync"] {
        if base.get(key) != cand.get(key) {
            return Err(format!(
                "refusing to compare: {key} differs ({:?} against {:?})",
                base.get(key),
                cand.get(key)
            ));
        }
    }
    let machine = |doc: &Json| -> Vec<(String, Json)> {
        fields(doc.get("machine").unwrap_or(&Json::Null))
            .iter()
            .filter(|(k, _)| k != "git_rev")
            .cloned()
            .collect()
    };
    if machine(base) != machine(cand) {
        return Err(format!(
            "refusing to compare results from different machines: {:?} against {:?}",
            machine(base),
            machine(cand)
        ));
    }
    let mut rows = Vec::new();
    let workloads = |doc: &'_ Json| doc.get("workloads").cloned().unwrap_or(Json::Null);
    let (bw, cw) = (workloads(base), workloads(cand));
    for (workload, b) in fields(&bw) {
        let c = cw.get(workload).ok_or_else(|| format!("candidate lacks workload {workload}"))?;
        let (bm, cm) = (b.get("metrics"), c.get("metrics"));
        for m in &spec::END_TO_END {
            let (Some(b), Some(c)) =
                (bm.and_then(|x| x.get(m.name)), cm.and_then(|x| x.get(m.name)))
            else {
                continue; // not defined on this workload
            };
            let get = |doc: &Json, key: &str| {
                number(doc, key).ok_or_else(|| format!("{workload}/{}: no {key}", m.name))
            };
            let (base_v, cand_v) = (get(b, "value")?, get(c, "value")?);
            let row = if m.name == "fail_ratio" {
                // No share of zero exists: any increase regresses.
                let verdict = if cand_v > base_v { Verdict::Regressed } else { Verdict::Ok };
                Row {
                    workload: workload.clone(),
                    metric: m.name,
                    base: base_v,
                    cand: cand_v,
                    worse: cand_v - base_v,
                    noise: 0.0,
                    bound: 0.0,
                    verdict,
                }
            } else {
                let scale = base_v.abs().max(f64::MIN_POSITIVE);
                let delta = match m.better {
                    Better::Lower => cand_v - base_v,
                    Better::Higher => base_v - cand_v,
                };
                let worse = delta / scale;
                let noise = get(b, "spread")?.max(get(c, "spread")?) / scale;
                Row {
                    workload: workload.clone(),
                    metric: m.name,
                    base: base_v,
                    cand: cand_v,
                    worse,
                    noise,
                    bound: m.bound,
                    verdict: judge(worse, noise, m.bound),
                }
            };
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Prints the comparison, one row per metric × workload.
pub fn print(rows: &[Row]) {
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<18} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.cand,
            r.worse * 100.0,
            r.noise * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::obj;

    fn doc(p50: (f64, f64), qps: f64, fail: f64, rustc: &str, rev: &str) -> Json {
        let m = |value: f64, spread: f64| {
            obj(vec![("value", Json::Num(value)), ("spread", Json::Num(spread))])
        };
        obj(vec![
            ("benchmark", Json::str("kgbench")),
            ("version", Json::u64(1)),
            ("seed", Json::u64(1)),
            ("seconds", Json::Num(20.0)),
            ("sizes", Json::str("full")),
            ("fsync", Json::str("off")),
            ("machine", obj(vec![("rustc", Json::str(rustc)), ("git_rev", Json::str(rev))])),
            (
                "workloads",
                obj(vec![(
                    "search-broad",
                    obj(vec![(
                        "metrics",
                        obj(vec![
                            ("query_p50_us", m(p50.0, p50.1)),
                            ("throughput_qps", m(qps, 10.0)),
                            ("fail_ratio", m(fail, 0.0)),
                        ]),
                    )]),
                )]),
            ),
        ])
    }

    fn verdicts(base: &Json, cand: &Json) -> Vec<(&'static str, Verdict)> {
        compare(base, cand).unwrap().into_iter().map(|r| (r.metric, r.verdict)).collect()
    }

    #[test]
    fn verdicts_on_synthetic_results() {
        let base = doc((100.0, 2.0), 5000.0, 0.0, "rustc 1", "aaa");
        // Same numbers from another commit: all ok.
        assert!(verdicts(&base, &doc((100.0, 2.0), 5000.0, 0.0, "rustc 1", "bbb"))
            .iter()
            .all(|(_, v)| *v == Verdict::Ok));
        // p50 +30 % with 2 % spread against a 25 % bound: regressed.
        // Throughput is "higher is better": +20 % is an improvement.
        assert_eq!(
            verdicts(&base, &doc((130.0, 2.0), 6000.0, 0.0, "rustc 1", "bbb")),
            vec![
                ("query_p50_us", Verdict::Regressed),
                ("throughput_qps", Verdict::Ok),
                ("fail_ratio", Verdict::Ok)
            ]
        );
        // p50 +23 % but 4 % spread: the spread overlaps the bound.
        // Throughput −28 % against 25 %: regressed (spread 0.2 %).
        // Any failure at all: regressed.
        assert_eq!(
            verdicts(&base, &doc((123.0, 4.0), 3600.0, 0.001, "rustc 1", "bbb")),
            vec![
                ("query_p50_us", Verdict::Unresolved),
                ("throughput_qps", Verdict::Regressed),
                ("fail_ratio", Verdict::Regressed)
            ]
        );
        // A spread wider than the bound can never be called ok.
        assert_eq!(judge(0.0, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(judge(-0.5, 0.12, 0.10), Verdict::Ok);
    }

    #[test]
    fn refuses_other_machines_seeds_and_versions() {
        let base = doc((100.0, 2.0), 5000.0, 0.0, "rustc 1", "aaa");
        let other_machine = doc((100.0, 2.0), 5000.0, 0.0, "rustc 2", "aaa");
        assert!(compare(&base, &other_machine).unwrap_err().contains("different machines"));
        let Json::Obj(mut f) = base.clone() else { unreachable!() };
        f[2].1 = Json::u64(2);
        assert!(compare(&base, &Json::Obj(f.clone())).unwrap_err().contains("seed"));
        f[2].1 = Json::u64(1);
        f[1].1 = Json::u64(9);
        assert!(compare(&base, &Json::Obj(f)).unwrap_err().contains("version"));
    }
}
