//! Sets of runs (`run`) and their comparison (`compare`).
//!
//! A set holds, per workload and end-to-end metric, one value per run.
//! `compare` sets the change in median of each workload × metric pair
//! against that metric's bound, after checking that neither side's own
//! run-to-run spread is wider than the bound.

use uds_core::telemetry::json::Json;

use crate::metrics::{end_to_end_spec, median, relative_spread, Better, Spec};

pub const SET_SCHEMA: &str = "uds-benchmark-set-v1";

/// How a pair of sets differs on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Improved,
    Unchanged,
    Regressed,
    /// Either side's spread is wider than the bound, so the medians
    /// cannot resolve a change of that size.
    Unresolved,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Improved => "improved",
            Class::Unchanged => "unchanged",
            Class::Regressed => "regressed",
            Class::Unresolved => "unresolved",
        }
    }
}

/// One compared workload × metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub before: f64,
    pub after: f64,
    /// Change of the median as a share of the baseline, signed so that
    /// positive is worse.
    pub worse_by: f64,
    pub spread_before: f64,
    pub spread_after: f64,
    pub bound: f64,
    pub class: Class,
}

/// Classifies the change from `before` to `after` runs of one metric,
/// against the metric's bound at the `before` median.
pub fn classify(spec: &Spec, before: &[f64], after: &[f64]) -> (f64, Class) {
    let (a, b) = (median(before), median(after));
    let change = (b - a) / a.abs();
    let worse_by = match spec.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let bound = spec.bound_at(a);
    let class = if relative_spread(before) > bound || relative_spread(after) > bound {
        Class::Unresolved
    } else if worse_by > bound {
        Class::Regressed
    } else if worse_by < -bound {
        Class::Improved
    } else {
        Class::Unchanged
    };
    (worse_by, class)
}

fn workloads(set: &Json) -> Result<&[Json], String> {
    if set.get("schema").and_then(Json::as_str) != Some(SET_SCHEMA) {
        return Err(format!("not a {SET_SCHEMA} document"));
    }
    set.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "set has no workloads".to_owned())
}

fn values(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|v| v.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compares every workload × end-to-end metric present in both sets,
/// plus each workload's failures (any failure in `after` regresses).
pub fn compare(before: &Json, after: &Json) -> Result<Vec<Verdict>, String> {
    let mut verdicts = Vec::new();
    for b in workloads(after)? {
        let name = b.get("name").and_then(Json::as_str).unwrap_or_default();
        let Some(a) = workloads(before)?
            .iter()
            .find(|a| a.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let metrics = |w: &Json| {
            w.get("metrics")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .to_vec()
        };
        for mb in metrics(b) {
            let metric = mb.get("name").and_then(Json::as_str).unwrap_or_default();
            let (Some(spec), Some(ma)) = (
                end_to_end_spec(metric),
                metrics(a)
                    .into_iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(metric)),
            ) else {
                continue;
            };
            let (va, vb) = (values(&ma), values(&mb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, class) = classify(spec, &va, &vb);
            verdicts.push(Verdict {
                workload: name.to_owned(),
                metric: metric.to_owned(),
                unit: spec.unit.to_owned(),
                before: median(&va),
                after: median(&vb),
                worse_by,
                spread_before: relative_spread(&va),
                spread_after: relative_spread(&vb),
                bound: spec.bound_at(median(&va)),
                class,
            });
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let attempted = |w: &Json| w.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let rate = |w: &Json| failed(w) as f64 / attempted(w).max(1) as f64;
        verdicts.push(Verdict {
            workload: name.to_owned(),
            metric: "error_rate".to_owned(),
            unit: "failed/attempted".to_owned(),
            before: rate(a),
            after: rate(b),
            worse_by: rate(b) - rate(a),
            spread_before: 0.0,
            spread_after: 0.0,
            bound: 0.0,
            class: if failed(b) > 0 {
                Class::Regressed
            } else {
                Class::Unchanged
            },
        });
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end_spec;

    fn spec(name: &str) -> &'static Spec {
        end_to_end_spec(name).unwrap()
    }

    #[test]
    fn classes_follow_the_bound_and_the_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 30% moves clear every bound.
        let faster: Vec<f64> = steady.iter().map(|v| v * 1.3).collect();
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.7).collect();
        let vps = spec("vectors_per_s");
        assert_eq!(classify(vps, &steady, &steady).1, Class::Unchanged);
        assert_eq!(classify(vps, &steady, &faster).1, Class::Improved);
        assert_eq!(classify(vps, &steady, &slower).1, Class::Regressed);
        // The same numbers as latencies mean the opposite.
        let p50 = spec("latency_p50_ms");
        assert_eq!(classify(p50, &steady, &faster).1, Class::Regressed);
        assert_eq!(classify(p50, &steady, &slower).1, Class::Improved);
        let (worse_by, _) = classify(p50, &steady, &faster);
        assert!((worse_by - 0.3).abs() < 1e-9);
    }

    #[test]
    fn set_up_time_has_a_ten_millisecond_floor() {
        let setup = spec("setup_s");
        // 2 ms to 9 ms is +350%, yet inside the floor; 13 ms is not.
        assert_eq!(
            classify(setup, &[0.002; 3], &[0.009; 3]).1,
            Class::Unchanged
        );
        assert_eq!(
            classify(setup, &[0.002; 3], &[0.013; 3]).1,
            Class::Regressed
        );
        // Well above the floor the share governs.
        assert_eq!(classify(setup, &[4.0; 3], &[5.2; 3]).1, Class::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [70.0, 130.0, 100.0, 60.0, 140.0];
        let vps = spec("vectors_per_s");
        assert_eq!(classify(vps, &steady, &noisy).1, Class::Unresolved);
        assert_eq!(classify(vps, &noisy, &steady).1, Class::Unresolved);
    }

    #[test]
    fn compare_pairs_workloads_and_flags_failures() {
        let set = |vps: [f64; 3], failed: u64| {
            Json::parse(&format!(
                r#"{{"schema":"{SET_SCHEMA}","workloads":[{{"name":"stream-c432","attempted":10,"failed":{failed},
                "metrics":[{{"name":"vectors_per_s","unit":"vectors/s","values":[{},{},{}]}}]}}]}}"#,
                vps[0], vps[1], vps[2]
            ))
            .unwrap()
        };
        let verdicts = compare(&set([100.0, 101.0, 99.0], 0), &set([70.0, 71.0, 69.0], 1)).unwrap();
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].class, Class::Regressed);
        assert_eq!(verdicts[1].metric, "error_rate");
        assert_eq!(verdicts[1].class, Class::Regressed);
        let same = compare(&set([100.0, 101.0, 99.0], 0), &set([100.0, 101.0, 99.0], 0)).unwrap();
        assert!(same.iter().all(|v| v.class == Class::Unchanged));
        assert!(compare(&Json::parse("{}").unwrap(), &set([1.0; 3], 0)).is_err());
    }
}
