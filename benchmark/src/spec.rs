//! The workload parameters and the seed's hard limits, read from
//! `benchmark/workloads.json` (compiled in as the default; `--spec FILE`
//! substitutes another).  A spec that exceeds a limit is refused before a
//! single process is spawned.

use shadowfax_hlog::LogConfig;
use shadowfax_workload::{WorkloadConfig, WorkloadGenerator, WorkloadMix};

use crate::json::Json;

/// What the seed `shadowfax-server` binary cannot survive (see `caused_by`
/// in the spec file for the source lines).
#[derive(Debug, Clone)]
pub struct Limits {
    pub max_keys: u64,
    pub max_appended_mib_per_server: u64,
}

/// The data set every workload runs on.
#[derive(Debug, Clone)]
pub struct Common {
    pub keys: u64,
    pub value_bytes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopKind {
    /// The next batch is issued only when a reply frees pipeline room.
    Closed,
    /// One batch per tick at a fixed rate, whatever the server does.
    Open { rate_per_s: f64, tick_us: u64 },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub processes: usize,
    pub memory_pages: u64,
    pub loop_kind: LoopKind,
    /// Operations per batch (open loop: rate x tick).
    pub batch: usize,
    pub inflight: usize,
    pub read: f64,
    pub upsert: f64,
    pub rmw: f64,
    pub zipf_theta: Option<f64>,
    pub warmup_ops: u64,
    pub nominal_seconds: f64,
    /// Count-bounded window: this many operations per second of `--seconds`.
    pub ops_per_window_second: Option<u64>,
    pub migrations: u32,
    pub expect_no_ssd_writes: bool,
    pub expect_no_ssd_reads: bool,
    pub expect_in_place_share_max: Option<f64>,
    pub expect_stable_read_share_min: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub limits: Limits,
    pub common: Common,
    pub workloads: Vec<Workload>,
}

const DEFAULT_SPEC: &str = include_str!("../workloads.json");

fn num(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("spec: missing number {key:?}"))
}

fn opt_num(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

fn flag(obj: &Json, key: &str) -> bool {
    obj.get(key).and_then(Json::as_bool).unwrap_or(false)
}

impl Spec {
    /// Loads the compiled-in spec, or `path` when given.
    pub fn load(path: Option<&str>) -> Result<Spec, String> {
        match path {
            Some(p) => {
                Spec::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
            }
            None => Spec::parse(DEFAULT_SPEC),
        }
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let limits = doc.get("limits").ok_or("spec: missing limits")?;
        let common = doc.get("common").ok_or("spec: missing common")?;
        let spec = Spec {
            limits: Limits {
                max_keys: num(limits, "max_keys")? as u64,
                max_appended_mib_per_server: num(limits, "max_appended_mib_per_server")? as u64,
            },
            common: Common {
                keys: num(common, "keys")? as u64,
                value_bytes: num(common, "value_bytes")? as usize,
            },
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(parse_workload)
                .collect::<Result<_, _>>()?,
        };
        if spec.common.value_bytes < 16 {
            // Bytes 0..16 of every value carry the counter and the sequence number.
            return Err("spec: value_bytes must be >= 16".into());
        }
        Ok(spec)
    }

    pub fn workload(&self, name: &str) -> Result<&Workload, String> {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| {
                let names: Vec<_> = self.workloads.iter().map(|w| w.name.as_str()).collect();
                format!("unknown workload {name:?}; the spec has {names:?}")
            })
    }

    /// The workload crate's generator for `w`'s keys and mix, seeded.
    pub fn generator(&self, w: &Workload, seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(WorkloadConfig {
            record_count: self.common.keys,
            value_size: self.common.value_bytes,
            mix: WorkloadMix {
                reads: w.read,
                upserts: w.upsert,
                rmws: w.rmw,
            },
            zipfian_theta: w.zipf_theta,
            seed,
        })
    }

    /// Bytes one record of this spec occupies on the hybrid log.
    pub fn record_bytes(&self) -> u64 {
        shadowfax_hlog::RecordHeader::record_size(self.common.value_bytes) as u64
    }

    /// Records a server process may append before its log outgrows the limit.
    fn append_budget_per_server(&self) -> u64 {
        (self.limits.max_appended_mib_per_server << 20) / self.record_bytes()
    }

    /// The operations a count-bounded window issues at `seconds`.
    pub fn window_ops(&self, w: &Workload, seconds: f64) -> Option<u64> {
        w.ops_per_window_second
            .map(|per_s| (per_s as f64 * seconds) as u64)
    }

    /// Refuses a spec the seed binary cannot survive.
    pub fn check_limits(&self, w: &Workload, seconds: f64) -> Result<(), String> {
        if self.common.keys > self.limits.max_keys {
            return Err(format!(
                "refused: {} keys exceed limits.max_keys = {} (the seed's hash index overflows near 24.7k keys)",
                self.common.keys, self.limits.max_keys
            ));
        }
        // An update is made in place only while its record is in the mutable
        // region; unless the whole data set stays there, every upsert and
        // RMW is assumed to append (the worst case).
        let log = w.log_config();
        let all_mutable =
            self.common.keys * self.record_bytes() <= log.mutable_pages << log.page_bits;
        let appending = if all_mutable { 0.0 } else { w.upsert + w.rmw };
        let window_ops = match (self.window_ops(w, seconds), w.loop_kind) {
            (Some(ops), _) => ops,
            (None, LoopKind::Open { rate_per_s, .. }) => (rate_per_s * seconds).ceil() as u64,
            (None, LoopKind::Closed) if appending > 0.0 => {
                return Err(format!(
                    "refused: {} appends for as long as its window lasts, so nothing keeps it under limits.max_appended_mib_per_server; give it ops_per_window_second",
                    w.name
                ));
            }
            (None, LoopKind::Closed) => 0,
        };
        // Load, warm-up and the window all land on one process's log.
        let appends =
            self.common.keys + ((w.warmup_ops + window_ops) as f64 * appending).ceil() as u64;
        if appends > self.append_budget_per_server() {
            return Err(format!(
                "refused: {} appends x {} B exceed limits.max_appended_mib_per_server = {} MiB (the seed's SimSsd is 1 GiB)",
                appends,
                self.record_bytes(),
                self.limits.max_appended_mib_per_server
            ));
        }
        Ok(())
    }
}

impl Workload {
    /// What `shadowfax-server --memory-pages N` makes of its test config.
    pub fn log_config(&self) -> LogConfig {
        LogConfig {
            memory_pages: self.memory_pages,
            mutable_pages: (self.memory_pages / 2).max(1),
            ..LogConfig::small_for_tests()
        }
    }
}

fn parse_workload(w: &Json) -> Result<Workload, String> {
    let name = w
        .get("name")
        .and_then(Json::as_str)
        .ok_or("spec: workload without a name")?
        .to_string();
    let loop_kind = match w.get("loop").and_then(Json::as_str) {
        Some("closed") => LoopKind::Closed,
        Some("open") => LoopKind::Open {
            rate_per_s: num(w, "rate_per_s")?,
            tick_us: num(w, "tick_us")? as u64,
        },
        other => {
            return Err(format!(
                "spec: {name}: loop must be closed|open, got {other:?}"
            ))
        }
    };
    let batch = match loop_kind {
        LoopKind::Closed => num(w, "batch")? as usize,
        LoopKind::Open {
            rate_per_s,
            tick_us,
        } => (rate_per_s * tick_us as f64 / 1e6).round() as usize,
    };
    let workload = Workload {
        processes: num(w, "processes")? as usize,
        memory_pages: num(w, "memory_pages")? as u64,
        loop_kind,
        batch,
        inflight: num(w, "inflight")? as usize,
        read: num(w, "read")?,
        upsert: num(w, "upsert")?,
        rmw: num(w, "rmw")?,
        zipf_theta: opt_num(w, "zipf_theta"),
        warmup_ops: num(w, "warmup_ops")? as u64,
        nominal_seconds: num(w, "nominal_seconds")?,
        ops_per_window_second: opt_num(w, "ops_per_window_second").map(|n| n as u64),
        migrations: opt_num(w, "migrations").unwrap_or(0.0) as u32,
        expect_no_ssd_writes: flag(w, "expect_no_ssd_writes"),
        expect_no_ssd_reads: flag(w, "expect_no_ssd_reads"),
        expect_in_place_share_max: opt_num(w, "expect_in_place_share_max"),
        expect_stable_read_share_min: opt_num(w, "expect_stable_read_share_min"),
        name,
    };
    let w = &workload;
    if w.batch == 0 || w.inflight == 0 || !(1..=2).contains(&w.processes) {
        return Err(format!(
            "spec: {}: batch and inflight must be >= 1, processes 1 or 2",
            w.name
        ));
    }
    if (w.read + w.upsert + w.rmw - 1.0).abs() > 1e-6 {
        return Err(format!("spec: {}: read + upsert + rmw must be 1", w.name));
    }
    if w.upsert > 0.0 && w.rmw > 0.0 {
        // An upsert resets the counter an RMW adds to, so the audit could
        // not tell a lost add from an overwritten one.
        return Err(format!(
            "spec: {}: upserts and RMWs in one mix cannot be audited",
            w.name
        ));
    }
    if w.loop_kind != LoopKind::Closed && w.processes != 1 {
        return Err(format!(
            "spec: {}: the open loop drives one process",
            w.name
        ));
    }
    if w.migrations > 0 && w.processes != 2 {
        return Err(format!("spec: {}: migrations need two processes", w.name));
    }
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiled-in spec with `from` replaced by `to` in its text.
    fn spec_with(from: &str, to: &str) -> Spec {
        assert!(DEFAULT_SPEC.contains(from), "workloads.json lost {from:?}");
        Spec::parse(&DEFAULT_SPEC.replace(from, to)).expect("the edited spec parses")
    }

    #[test]
    fn shipped_spec_is_within_the_limits() {
        let spec = Spec::load(None).expect("workloads.json parses");
        assert_eq!(spec.workloads.len(), 6);
        for w in &spec.workloads {
            // BENCHMARK.json sets run_seconds to 10.
            spec.check_limits(w, 10.0).expect(&w.name);
        }
    }

    #[test]
    fn thirty_thousand_keys_are_refused() {
        let spec = spec_with("\"keys\": 20000", "\"keys\": 30000");
        for w in &spec.workloads {
            let refusal = spec.check_limits(w, 10.0).expect_err(&w.name);
            assert!(refusal.contains("max_keys"), "{refusal}");
        }
    }

    #[test]
    fn four_million_ingest_operations_are_refused() {
        let spec = Spec::load(None).expect("workloads.json parses");
        let ingest = spec
            .workload("ingest-upsert-spill")
            .expect("named workload");
        // 120,000 operations per window second: 34 s is 4.08M.
        assert_eq!(spec.window_ops(ingest, 34.0), Some(4_080_000));
        let refusal = spec.check_limits(ingest, 34.0).expect_err("over 768 MiB");
        assert!(refusal.contains("max_appended_mib_per_server"), "{refusal}");
        // 768 MiB of 280-byte records is 2.87M appends: 22 s still fits.
        spec.check_limits(ingest, 22.0)
            .expect("2.64M + load + warm-up fit");
        assert!(spec.check_limits(ingest, 23.0).is_err());
    }

    #[test]
    fn a_timed_window_that_appends_is_refused() {
        // Upserts on a timer over a spilled log: nothing bounds the bytes.
        let spec = spec_with("\"ops_per_window_second\": 120000,", "");
        let ingest = spec
            .workload("ingest-upsert-spill")
            .expect("named workload");
        let refusal = spec
            .check_limits(ingest, 1.0)
            .expect_err("unbounded appends");
        assert!(refusal.contains("ops_per_window_second"), "{refusal}");
        // RMWs over 8 pages append too; over 256 pages they are in place.
        let spec = spec_with(
            "\"name\": \"rmw-zipf-mem\",\n      \"processes\": 1, \"memory_pages\": 256",
            "\"name\": \"rmw-zipf-mem\",\n      \"processes\": 1, \"memory_pages\": 8",
        );
        let rmw = spec.workload("rmw-zipf-mem").expect("named workload");
        assert!(spec.check_limits(rmw, 1.0).is_err());
        // The open loop's rate bounds them: 150,000/s x 280 B fits for 10 s, not for 60.
        let spec = spec_with(
            "\"name\": \"rmw-zipf-rate\",\n      \"processes\": 1, \"memory_pages\": 256",
            "\"name\": \"rmw-zipf-rate\",\n      \"processes\": 1, \"memory_pages\": 8",
        );
        let rate = spec.workload("rmw-zipf-rate").expect("named workload");
        spec.check_limits(rate, 10.0).expect("1.8M appends fit");
        assert!(spec.check_limits(rate, 60.0).is_err());
    }

    #[test]
    fn malformed_workloads_are_rejected() {
        let parse = |text: &str| parse_workload(&Json::parse(text).expect("test JSON"));
        let base = r#""processes": 1, "memory_pages": 8, "inflight": 8, "warmup_ops": 1, "nominal_seconds": 1"#;
        let mix = r#""read": 1.0, "upsert": 0.0, "rmw": 0.0"#;
        assert!(parse(&format!(
            r#"{{"name": "ok", "loop": "closed", "batch": 64, {base}, {mix}}}"#
        ))
        .is_ok());
        for bad in [
            format!(r#"{{"name": "no-loop", "batch": 64, {base}, {mix}}}"#),
            format!(r#"{{"name": "zero-batch", "loop": "closed", "batch": 0, {base}, {mix}}}"#),
            format!(
                r#"{{"name": "mix", "loop": "closed", "batch": 64, {base}, "read": 0.5, "upsert": 0.0, "rmw": 0.0}}"#
            ),
            format!(
                r#"{{"name": "unauditable", "loop": "closed", "batch": 64, {base}, "read": 0.0, "upsert": 0.5, "rmw": 0.5}}"#
            ),
            format!(
                r#"{{"name": "lonely", "loop": "closed", "batch": 64, "migrations": 2, {base}, {mix}}}"#
            ),
        ] {
            assert!(parse(&bad).is_err(), "{bad}");
        }
    }
}
