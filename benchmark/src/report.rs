//! What the harness prints and writes: the one-line result the driver
//! reads, result files with their environment, the human table, and the
//! `compare` / `noise` views over result files.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::run::{Ctx, RunOutput};
use crate::spec::Workload;
use crate::stats::median;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads: it is the one place
/// metric names, units, directions and bounds are written down.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load() -> Result<Manifest, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(10.0),
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
                .collect(),
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    /// The metrics a run of this kind must print.
    pub fn defs(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Where and how the numbers were taken; part of every file written.
pub fn environment(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> Json {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let cpus = |set: &[usize]| Json::Arr(set.iter().map(|&c| Json::Num(c as f64)).collect());
    Json::obj([
        ("git_commit", Json::str(commit)),
        ("workload", Json::str(&w.name)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nominal_seconds", Json::Num(w.nominal_seconds)),
        ("window_scale", Json::Num(seconds / w.nominal_seconds)),
        ("nproc", Json::Num((ctx.server_cpus.len() + ctx.client_cpus.len()) as f64)),
        ("server_cpus", cpus(&ctx.server_cpus)),
        ("client_cpus", cpus(&ctx.client_cpus)),
        ("kernel", Json::str(crate::sys::kernel_release())),
        ("server_build_s", Json::Num(ctx.build_s)),
        (
            "network",
            Json::str("loopback TCP (127.0.0.1); client and servers share one host"),
        ),
        (
            "devices",
            Json::str("SimSsd and the shared tier use the instant latency model: device time is not measured, only the memory copies"),
        ),
    ])
}

fn run_json(run: &RunOutput) -> Json {
    Json::obj([
        ("workload", Json::str(&run.workload)),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("traced", Json::Bool(run.traced)),
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        (
            "reasons",
            Json::Arr(run.reasons.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                run.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Writes `{"environment": .., "runs": [..]}`.
pub fn write_result_file(path: &str, environment: Json, runs: &[RunOutput]) -> Result<(), String> {
    let doc = Json::obj([
        ("environment", environment),
        ("runs", Json::Arr(runs.iter().map(run_json).collect())),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))
}

/// The line the driver parses: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric `defs` names.
pub fn driver_line(run: &RunOutput, defs: &[MetricDef]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for def in defs {
        let value = match run.metrics.get(&def.name) {
            Some(v) => *v,
            // A run that died early has nothing to report for this metric.
            None if !run.correct => 0.0,
            None => {
                return Err(format!(
                    "BENCHMARK.json names {:?}, which this run did not produce",
                    def.name
                ))
            }
        };
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&def.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render())
}

/// Every metric of one run by name with its unit, for people.
pub fn print_table(run: &RunOutput, defs: &[MetricDef]) {
    println!(
        "## {} (seed {}, {} s, {}): {} attempted, {} failed{}",
        run.workload,
        run.seed,
        run.seconds,
        if run.traced {
            "traced pass"
        } else {
            "measured pass"
        },
        run.attempted,
        run.failed,
        if run.correct {
            ""
        } else {
            "  ** NOT CORRECT **"
        }
    );
    for reason in &run.reasons {
        println!("   ! {reason}");
    }
    for def in defs {
        match run.metrics.get(&def.name) {
            Some(v) => println!("   {:<40} {:>16.4} {}", def.name, v, def.unit),
            None => println!("   {:<40} {:>16} {}", def.name, "n/a", def.unit),
        }
    }
}

/// What result files say about one workload.
#[derive(Debug, Default)]
struct WorkloadSamples {
    /// End-to-end metrics from measured runs, per-layer ones from traced runs.
    metrics: BTreeMap<String, Vec<f64>>,
    /// `failed / attempted` of every run, measured or traced.  A run that
    /// died, or that does not say, counts as 1.
    failed_shares: Vec<f64>,
    /// Runs not reported `correct`, and why.
    incorrect: usize,
    reasons: Vec<String>,
}

impl WorkloadSamples {
    fn failed_share(&self) -> f64 {
        self.failed_shares.iter().sum::<f64>() / self.failed_shares.len() as f64
    }

    fn incorrect_share(&self) -> f64 {
        self.incorrect as f64 / self.failed_shares.len() as f64
    }
}

/// By workload name.
type Samples = BTreeMap<String, WorkloadSamples>;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn collect(docs: &[Json], manifest: &Manifest) -> Samples {
    let mut samples = Samples::new();
    for run in docs
        .iter()
        .flat_map(|doc| doc.get("runs").map(Json::as_arr).unwrap_or_default())
    {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let into = samples.entry(workload.to_string()).or_default();
        let count = |key: &str| run.get(key).and_then(Json::as_f64).filter(|n| *n >= 0.0);
        into.failed_shares
            .push(match (count("attempted"), count("failed")) {
                (Some(attempted), Some(failed)) if attempted >= 1.0 => {
                    (failed / attempted).min(1.0)
                }
                _ => 1.0,
            });
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            into.incorrect += 1;
            let reasons = run.get("reasons").map(Json::as_arr).unwrap_or_default();
            into.reasons
                .extend(reasons.iter().filter_map(Json::as_str).map(str::to_string));
        }
        let traced = run.get("traced").and_then(Json::as_bool).unwrap_or(false);
        for def in manifest.defs(traced) {
            if let Some(v) = run
                .get("metrics")
                .and_then(|m| m.get(&def.name))
                .and_then(Json::as_f64)
            {
                into.metrics.entry(def.name.clone()).or_default().push(v);
            }
        }
    }
    samples
}

/// Distance between the quartiles as a share of the median, with the
/// same quartile definition as Python's `statistics.quantiles(v, n=4)`.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let quantile = |k: f64| {
        let pos = k * (sorted.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * (pos - lo as f64)
    };
    let mid = median(values);
    (mid != 0.0).then(|| (quantile(3.0) - quantile(1.0)) / mid.abs())
}

/// The name of the row `compare` derives from every run's `attempted` and
/// `failed`; also a per-layer metric of traced runs, which the row replaces.
const FAILED_SHARE: &str = "failed_share";

/// One row of `compare`.
#[derive(Debug, PartialEq)]
struct Row {
    workload: String,
    metric: String,
    /// Medians; `None` when that side has no value.
    old: Option<f64>,
    new: Option<f64>,
    /// Relative to the old side; for `failed_share`, the difference.
    delta: f64,
    bound: Option<f64>,
    verdict: &'static str,
}

fn compare_rows(old: &Samples, new: &Samples, manifest: &Manifest) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &manifest.workloads {
        let sides = (old.get(workload), new.get(workload));
        // May not rise: neither the share of failed operations nor the
        // share of runs that were not correct.
        let (a, b) = (
            sides.0.map(WorkloadSamples::failed_share),
            sides.1.map(WorkloadSamples::failed_share),
        );
        let verdict = match sides {
            (Some(o), Some(n)) => {
                let (o, n) = (
                    (o.failed_share(), o.incorrect_share()),
                    (n.failed_share(), n.incorrect_share()),
                );
                if n.0 > o.0 || n.1 > o.1 {
                    "worse"
                } else if n == o {
                    "within"
                } else {
                    "better"
                }
            }
            _ => "unresolved",
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: FAILED_SHARE.into(),
            old: a,
            new: b,
            delta: b.unwrap_or(0.0) - a.unwrap_or(0.0),
            bound: Some(0.0),
            verdict,
        });
        for def in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            if def.name == FAILED_SHARE {
                continue;
            }
            fn values<'a>(side: Option<&'a WorkloadSamples>, name: &str) -> Option<&'a Vec<f64>> {
                side?.metrics.get(name).filter(|v| !v.is_empty())
            }
            let (a, b) = (values(sides.0, &def.name), values(sides.1, &def.name));
            let (a_mid, b_mid) = (a.map(|v| median(v)), b.map(|v| median(v)));
            let delta = match (a_mid, b_mid) {
                (Some(a), Some(b)) if a != 0.0 => (b - a) / a.abs(),
                _ => 0.0,
            };
            let worse_by = if def.higher_is_better { -delta } else { delta };
            let verdict = match (def.bound, a, b) {
                (None, Some(_), Some(_)) => "info",
                // A layer this workload does not exercise on either side.
                (None, ..) => continue,
                // An end-to-end metric must be a number on both sides.
                (Some(_), None, _) | (Some(_), _, None) => "unresolved",
                // The old side's own runs disagree by more than the bound.
                (Some(bound), Some(a), _) if quartile_spread(a).is_some_and(|s| s > bound) => {
                    "unresolved"
                }
                (Some(bound), ..) if worse_by > bound => "worse",
                (Some(bound), ..) if worse_by < -bound => "better",
                (Some(_), ..) => "within",
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                old: a_mid,
                new: b_mid,
                delta,
                bound: def.bound,
                verdict,
            });
        }
    }
    rows
}

/// `compare OLD NEW`: one row per workload x metric; `Ok(false)` when a
/// row is `worse` or `unresolved`.
pub fn compare(old: &str, new: &str, manifest: &Manifest) -> Result<bool, String> {
    let old = collect(&[load(old)?], manifest);
    let new = collect(&[load(new)?], manifest);
    println!(
        "{:<20} {:<36} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "delta", "bound"
    );
    let rows = compare_rows(&old, &new, manifest);
    let cell = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    for row in &rows {
        println!(
            "{:<20} {:<36} {:>14} {:>14} {:>+8.2}% {:>7}  {}",
            row.workload,
            row.metric,
            cell(row.old),
            cell(row.new),
            row.delta * 100.0,
            row.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            row.verdict,
        );
    }
    for (side, samples) in [("old", &old), ("new", &new)] {
        for (workload, s) in samples.iter().filter(|(_, s)| s.incorrect > 0) {
            println!(
                "{side}: {workload}: {} of {} runs not correct: {}",
                s.incorrect,
                s.failed_shares.len(),
                s.reasons.join("; ")
            );
        }
    }
    Ok(rows
        .iter()
        .all(|r| !matches!(r.verdict, "worse" | "unresolved")))
}

/// `noise FILE...`: min / median / max and spread per workload x
/// end-to-end metric, as the markdown checked in as `NOISE.md`.
pub fn noise(paths: &[String], manifest: &Manifest) -> Result<(), String> {
    let docs = paths
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let samples = collect(&docs, manifest);
    println!("| workload | metric | unit | runs | min | median | max | (max-min)/median | quartile spread | bound |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for workload in &manifest.workloads {
        for def in &manifest.end_to_end {
            let Some(v) = samples.get(workload).and_then(|s| s.metrics.get(&def.name)) else {
                continue;
            };
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let mid = median(v);
            println!(
                "| {workload} | {} | {} | {} | {min:.4} | {mid:.4} | {max:.4} | {:.4} | {:.4} | {:.2} |",
                def.name,
                def.unit,
                v.len(),
                (max - min) / mid,
                quartile_spread(v).unwrap_or(0.0),
                def.bound.unwrap_or(0.0),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        let def = |name: &str, higher_is_better, bound| MetricDef {
            name: name.into(),
            unit: "u".into(),
            higher_is_better,
            bound,
        };
        Manifest {
            run_seconds: 10.0,
            workloads: vec!["w".into()],
            end_to_end: vec![
                def("ops_per_s", true, Some(0.15)),
                def("lat_p50_us", false, Some(0.15)),
            ],
            per_layer: vec![
                def(FAILED_SHARE, false, None),
                def("faster.rmw_ns", false, None),
                def("migration.prepare_ms", false, None),
            ],
        }
    }

    /// One measured run: `correct`, `attempted`, `failed`, metrics.
    type Run<'a> = (bool, u64, u64, &'a [(&'a str, f64)]);

    /// A result file of measured runs of workload `w`.
    fn file(runs: &[Run]) -> Json {
        let runs = runs.iter().map(|(correct, attempted, failed, metrics)| {
            Json::obj([
                ("workload", Json::str("w")),
                ("traced", Json::Bool(false)),
                ("correct", Json::Bool(*correct)),
                ("attempted", Json::Num(*attempted as f64)),
                ("failed", Json::Num(*failed as f64)),
                ("reasons", Json::Arr(vec![Json::str("why")])),
                (
                    "metrics",
                    Json::obj(metrics.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                ),
            ])
        });
        // Through text, as `compare` reads it.
        let text = Json::obj([("runs", Json::Arr(runs.collect()))]).render();
        Json::parse(&text).expect("rendered JSON parses")
    }

    fn verdicts(old: &Json, new: &Json) -> Vec<(String, &'static str)> {
        let m = manifest();
        let (old, new) = (
            collect(std::slice::from_ref(old), &m),
            collect(std::slice::from_ref(new), &m),
        );
        compare_rows(&old, &new, &m)
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    const GOOD: &[(&str, f64)] = &[("ops_per_s", 1000.0), ("lat_p50_us", 50.0)];

    #[test]
    fn quartile_spread_is_pythons() {
        // statistics.quantiles(v, n=4): (q3 - q1) / median.
        let spread = |v: &[f64]| quartile_spread(v).expect("two or more values");
        assert_eq!(spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]), 1.0);
        assert!((spread(&[3.1, 2.9, 3.0, 3.3, 2.8]) - 0.116_666_666_666_666_85).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0]), 1.0);
        let ops = [
            364857.6, 341555.2, 371590.4, 358240.0, 370317.0, 364499.2, 360326.0, 359450.0,
            365005.0, 302944.0,
        ];
        assert!((spread(&ops) - 0.033_840_434_907_616_38).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn identical_files_are_within() {
        let f = file(&[(true, 1000, 0, GOOD), (true, 1000, 0, GOOD)]);
        assert_eq!(
            verdicts(&f, &f),
            [
                (FAILED_SHARE.to_string(), "within"),
                ("ops_per_s".to_string(), "within"),
                ("lat_p50_us".to_string(), "within"),
            ]
        );
    }

    #[test]
    fn a_run_that_died_is_worse_and_unresolved() {
        let old = file(&[(true, 1000, 0, GOOD)]);
        // What `run_workload` writes when the server panicked.
        let new = file(&[(false, 1, 1, &[(FAILED_SHARE, 1.0)])]);
        assert_eq!(
            verdicts(&old, &new),
            [
                (FAILED_SHARE.to_string(), "worse"),
                ("ops_per_s".to_string(), "unresolved"),
                ("lat_p50_us".to_string(), "unresolved"),
            ]
        );
        // And a workload the new file does not mention at all.
        let empty = Json::obj([("runs", Json::Arr(Vec::new()))]);
        assert!(verdicts(&old, &empty)
            .iter()
            .all(|(_, v)| *v == "unresolved"));
    }

    #[test]
    fn failed_operations_may_not_rise() {
        let old = file(&[(true, 1000, 0, GOOD)]);
        let lossy = file(&[(false, 1000, 300, GOOD)]);
        assert_eq!(
            verdicts(&old, &lossy)[0],
            (FAILED_SHARE.to_string(), "worse")
        );
        assert_eq!(
            verdicts(&lossy, &old)[0],
            (FAILED_SHARE.to_string(), "better")
        );
        assert_eq!(
            verdicts(&lossy, &lossy)[0],
            (FAILED_SHARE.to_string(), "within")
        );
        // No failed operation, but an assertion of the workload did not hold.
        let unmet = file(&[(false, 1000, 0, GOOD)]);
        assert_eq!(
            verdicts(&old, &unmet)[0],
            (FAILED_SHARE.to_string(), "worse")
        );
        // One bad run among good ones is not averaged away by their size.
        let mixed = file(&[(true, 1_000_000, 0, GOOD), (false, 1, 1, &[])]);
        assert_eq!(
            verdicts(&old, &mixed)[0],
            (FAILED_SHARE.to_string(), "worse")
        );
    }

    #[test]
    fn bounds_direction_and_spread_decide_the_verdict() {
        let one = |ops: f64, lat: f64| -> Json {
            file(&[(true, 1000, 0, &[("ops_per_s", ops), ("lat_p50_us", lat)])])
        };
        let old = one(1000.0, 50.0);
        let verdict = |new: &Json| {
            let v = verdicts(&old, new);
            (v[1].1, v[2].1)
        };
        assert_eq!(verdict(&one(800.0, 60.0)), ("worse", "worse"));
        assert_eq!(verdict(&one(1200.0, 40.0)), ("better", "better"));
        assert_eq!(verdict(&one(900.0, 55.0)), ("within", "within"));
        // The old side's own runs spread wider than the bound.
        let noisy = file(&[
            (true, 1000, 0, &[("ops_per_s", 600.0), ("lat_p50_us", 50.0)]),
            (
                true,
                1000,
                0,
                &[("ops_per_s", 1000.0), ("lat_p50_us", 50.0)],
            ),
            (
                true,
                1000,
                0,
                &[("ops_per_s", 1400.0), ("lat_p50_us", 50.0)],
            ),
        ]);
        let v = verdicts(&noisy, &one(1000.0, 50.0));
        assert_eq!((v[1].1, v[2].1), ("unresolved", "within"));
    }

    #[test]
    fn per_layer_metrics_come_from_traced_runs_and_never_gate() {
        let traced = |rmw_ns: f64| {
            let run = Json::obj([
                ("workload", Json::str("w")),
                ("traced", Json::Bool(true)),
                ("correct", Json::Bool(true)),
                ("attempted", Json::Num(10.0)),
                ("failed", Json::Num(0.0)),
                ("metrics", Json::obj([("faster.rmw_ns", Json::Num(rmw_ns))])),
            ]);
            Json::obj([("runs", Json::Arr(vec![run]))])
        };
        let v = verdicts(&traced(100.0), &traced(900.0));
        // No measured run on either side: the end-to-end rows cannot be judged.
        assert_eq!(
            v,
            [
                (FAILED_SHARE.to_string(), "within"),
                ("ops_per_s".to_string(), "unresolved"),
                ("lat_p50_us".to_string(), "unresolved"),
                ("faster.rmw_ns".to_string(), "info"),
            ]
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let m = manifest();
        let mut run = RunOutput {
            workload: "w".into(),
            seed: 1,
            seconds: 10.0,
            traced: false,
            attempted: 1000,
            failed: 0,
            correct: true,
            reasons: Vec::new(),
            metrics: [
                ("ops_per_s".to_string(), 1234.5678),
                ("lat_p50_us".to_string(), 41.25),
            ]
            .into_iter()
            .collect(),
        };
        let line = driver_line(&run, &m.end_to_end).expect("every metric present");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"ops_per_s":{"value":1234.5678,"unit":"u"},"lat_p50_us":{"value":41.25,"unit":"u"}}}"#
        );
        // A metric BENCHMARK.json names but a correct run lacks is a bug.
        run.metrics.remove("lat_p50_us");
        assert!(driver_line(&run, &m.end_to_end).is_err());
        // A run that died still prints a line, with zeros.
        run.correct = false;
        assert!(driver_line(&run, &m.end_to_end).is_ok());
    }
}
