//! The repository's benchmark: builds the release `shadowfax-server`,
//! spawns real server processes pinned away from the load generator,
//! drives the named workloads over loopback TCP through
//! `shadowfax_rpc::RemoteClient`, checks every acknowledged result, and
//! prints every metric `BENCHMARK.json` names.
//!
//! ```text
//! benchmark run --workload NAME --seed N --seconds S --trace 0|1
//! benchmark all [--seed N] [--seconds S] [--repeat N] [--out FILE]
//! benchmark compare OLD.json NEW.json
//! benchmark noise FILE...
//! ```
//!
//! `run` is what `BENCHMARK.json`'s command invokes: its last output line
//! is one JSON object.  `all` runs every workload, measured pass then
//! traced pass, and writes one result file.  Both take `--spec FILE` to
//! substitute another workload spec.  See `benchmark/README.md`.

mod driver;
mod json;
mod procs;
mod replay;
mod report;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use report::Manifest;
use run::{run_workload, Ctx};
use spec::Spec;

/// Counts heap allocations so the codec replay can report allocations per
/// operation; one relaxed add per allocation otherwise.
struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        replay::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        replay::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const EXIT_USAGE: i32 = 2;
const USAGE: &str = "usage:
  benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--spec FILE] [--no-limit-guard]
  benchmark all [--seed N] [--seconds S] [--repeat N] [--out FILE] [--spec FILE]
  benchmark compare OLD.json NEW.json
  benchmark noise FILE...";

/// `--flag value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|n: &f64| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag} takes a non-negative number, got {v:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// Pins the harness and builds the server.
fn context(spec: Spec) -> Result<Ctx, String> {
    // The dispatch threads spin, so the load generator must not share
    // their CPU: it takes the last allowed CPU, the servers the rest.
    let cpus = sys::allowed_cpus();
    let (server_cpus, client_cpus) = match cpus.split_last() {
        Some((last, rest)) if !rest.is_empty() => (rest.to_vec(), vec![*last]),
        _ => {
            eprintln!("benchmark: one CPU only; client and servers share it, numbers will be poor");
            (cpus.clone(), cpus)
        }
    };
    sys::pin_current_thread(&client_cpus).map_err(|e| format!("pin the harness: {e}"))?;
    let (server_bin, build_s) = procs::build_server()?;
    eprintln!(
        "benchmark: server build {build_s:.1} s; servers on cpus {server_cpus:?}, client on {client_cpus:?}"
    );
    Ok(Ctx {
        spec,
        server_bin,
        build_s,
        server_cpus,
        client_cpus,
    })
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let manifest = Manifest::load()?;
    let name = args.value("--workload").ok_or("run needs --workload")?;
    let seed = args.number("--seed", 42.0)? as u64;
    let seconds = args.number("--seconds", manifest.run_seconds)?;
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    if seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    let spec = Spec::load(args.value("--spec"))?;
    // `--no-limit-guard` exists so that supervision can be tested on a
    // spec the seed binary does not survive.
    if !args.has("--no-limit-guard") {
        spec.check_limits(spec.workload(name)?, seconds)?;
    }
    let ctx = context(spec)?;
    let w = ctx.spec.workload(name)?;
    let run = run_workload(&ctx, w, seed, seconds, traced);
    for reason in &run.reasons {
        eprintln!("benchmark: {}: {reason}", run.workload);
    }
    report::write_result_file(
        &format!(
            "{}/run-{}-trace{}.json",
            procs::OUT_DIR,
            w.name,
            traced as u8
        ),
        report::environment(&ctx, w, seed, seconds),
        std::slice::from_ref(&run),
    )?;
    println!("{}", report::driver_line(&run, manifest.defs(traced))?);
    Ok(())
}

fn cmd_all(args: &Args) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let seed = args.number("--seed", 42.0)? as u64;
    let seconds = args.number("--seconds", manifest.run_seconds)?;
    let repeat = args.number("--repeat", 1.0)? as u64;
    let out = args
        .value("--out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}/result.json", procs::OUT_DIR));
    let spec = Spec::load(args.value("--spec"))?;
    for name in &manifest.workloads {
        spec.check_limits(spec.workload(name)?, seconds)?;
    }
    let ctx = context(spec)?;
    let mut runs = Vec::new();
    for round in 0..repeat {
        for name in &manifest.workloads {
            let w = ctx.spec.workload(name)?;
            for traced in [false, true] {
                let run = run_workload(&ctx, w, seed + round, seconds, traced);
                report::print_table(&run, manifest.defs(traced));
                runs.push(run);
            }
        }
    }
    let first = ctx.spec.workload(&manifest.workloads[0])?;
    report::write_result_file(&out, report::environment(&ctx, first, seed, seconds), &runs)?;
    println!("result file: {out}");
    Ok(runs.iter().all(|r| r.correct))
}

fn main() {
    // If cargo (or whatever started the harness) dies, so does the harness,
    // and with it every server (their own parent-death signal is SIGKILL).
    sys::die_with_parent(sys::SIGTERM);
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => cmd_run(&args).map(|()| true),
        "all" => cmd_all(&args),
        "compare" if args.0.len() == 2 => {
            Manifest::load().and_then(|m| report::compare(&args.0[0], &args.0[1], &m))
        }
        "noise" if !args.0.is_empty() => {
            Manifest::load().and_then(|m| report::noise(&args.0, &m).map(|()| true))
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let leaked = sys::live_children();
    assert!(leaked.is_empty(), "child processes survived: {leaked:?}");
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(reason) => {
            eprintln!("benchmark: {reason}");
            std::process::exit(EXIT_USAGE);
        }
    }
}
