//! Time-to-repair benchmark for the acr workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload incident-wan24 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One closed-loop client runs the workload's jobs one at a time for
//! `--seconds`, in passes over the inputs the seed generates. With
//! `--trace 0` it prints the end-to-end metrics, measured with every
//! `acr-obs` facility left as the environment set it; with `--trace 1`
//! it alternates untraced and traced passes and prints the per-layer
//! breakdown of the traced ones. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is non-zero when any correctness check fails. See `README.md`.

mod layers;
mod stats;
mod workloads;

use acr_obs::json;
use layers::{Layers, Probe};
use stats::{median, per_job_medians, percentile, printable, Tally, FAILED_LATENCY, MIN_JOBS};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Job, Workload};

/// Extra set-ups timed before the first pass. Another is timed after
/// every job, so the `setup_s` median spans the whole run.
const SETUP_REPS: usize = 10;

/// The environment toggles a run records (never sets).
const TOGGLES: [&str; 7] = [
    "ACR_THREADS",
    "ACR_DELTA",
    "ACR_SPARSE",
    "ACR_SHARD",
    "ACR_FLOW",
    "ACR_SYM",
    "ACR_OBS",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{k}'"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        flags.insert(key, v);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = get("workload")?.clone();
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {}, or all)",
            workloads::NAMES.join(", ")
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace,
    })
}

/// What one run measured.
#[derive(Default)]
struct Run {
    /// Untraced job latencies in ms by job key; a failed job counts as
    /// infinite.
    latencies: Vec<(usize, f64)>,
    tally: Tally,
    /// Completed jobs per second of each untraced pass's job loop.
    pass_rates: Vec<f64>,
    setup_s: Vec<f64>,
    /// Largest heap in use between two jobs, in MB.
    peak_heap_mb: f64,
    passes: usize,
    violations: Vec<String>,
    /// Decision digest of the first cycle; every later pass must repeat
    /// the digest of the pass with its job stream.
    digest: u64,
    layers: Layers,
    /// `acr-obs` counter totals over the traced jobs.
    counters: BTreeMap<String, u64>,
}

fn add_counters(total: &mut BTreeMap<String, u64>, before: &BTreeMap<String, u64>) {
    for (k, v) in layers::counters() {
        let d = v.saturating_sub(before.get(&k).copied().unwrap_or(0));
        *total.entry(k).or_default() += d;
    }
}

/// The per-layer probes: the benchmark's own timed calls into each
/// layer's public functions on job `i`'s input, outside the job's time.
fn probe_layers(wl: &dyn Workload, i: usize, p: &mut Probe) {
    let (topo, input) = wl.input(i);
    let t = Instant::now();
    for (name, text) in &input.texts {
        std::hint::black_box(acr_cfg::parse::parse_device(name.clone(), text).ok());
    }
    p.parse = t.elapsed();
    let t = Instant::now();
    std::hint::black_box(acr_lint::lint_network(topo, &input.broken));
    p.lint_network = t.elapsed();
    let t = Instant::now();
    std::hint::black_box(acr_flow::analyze(topo, &input.broken));
    p.flow_analyze = t.elapsed();
    let t = Instant::now();
    std::hint::black_box(acr_verify::Verifier::new(topo, &input.spec).run_full(&input.broken));
    p.run_full = t.elapsed();
}

/// Runs job `i`, traced or not: a panic is a failed job, and a traced
/// job runs with the trace and metrics registry on and adds its counter
/// deltas to `counters`.
fn run_job(
    wl: &mut dyn Workload,
    i: usize,
    traced: Option<&mut Probe>,
    counters: &mut BTreeMap<String, u64>,
) -> Job {
    let base_flags = acr_obs::flags();
    let before = traced.is_some().then(|| {
        let c = layers::counters();
        let _ = acr_obs::trace::take();
        acr_obs::set_flags(base_flags | acr_obs::TRACE | acr_obs::METRICS);
        c
    });
    let job = catch_unwind(AssertUnwindSafe(|| wl.job(i, traced))).unwrap_or_else(|_| Job {
        latency: Duration::ZERO,
        result: Err(format!("job {i} panicked")),
    });
    if let Some(before) = before {
        acr_obs::set_flags(base_flags);
        let _ = acr_obs::trace::take();
        add_counters(counters, &before);
    }
    job
}

fn run(wl: &mut dyn Workload, seconds: u64, trace: bool) -> Run {
    let mut r = Run {
        setup_s: (0..SETUP_REPS)
            .map(|_| wl.time_setup().as_secs_f64())
            .collect(),
        ..Run::default()
    };
    let cycle = wl.epochs();
    let mut digests = Vec::with_capacity(cycle);
    let start = Instant::now();
    loop {
        // A traced run alternates untraced and traced cycles, so the
        // tracing overhead is measured on the same jobs in the same run.
        let epoch = r.passes % cycle;
        let traced = trace && (r.passes / cycle) % 2 == 1;
        r.setup_s.push(wl.setup(epoch).as_secs_f64());
        let mut sigs = Vec::with_capacity(wl.len());
        let mut loop_wall = Duration::ZERO;
        let mut completed = 0usize;
        for i in 0..wl.len() {
            let t = Instant::now();
            let mut probe = Probe::default();
            let job = run_job(wl, i, traced.then_some(&mut probe), &mut r.counters);
            r.tally.attempted += 1;
            let ok = match job.result {
                Ok(v) => {
                    r.tally.resolved += v.resolved as usize;
                    r.tally.overclaimed += v.overclaimed as usize;
                    r.violations.extend(v.violations);
                    sigs.push(v.sig);
                    true
                }
                Err(e) => {
                    eprintln!("failed job: {e}");
                    r.tally.failed += 1;
                    sigs.push(format!("failed job {i}"));
                    false
                }
            };
            loop_wall += t.elapsed();
            completed += usize::from(ok);
            if traced {
                probe_layers(wl, i, &mut probe);
                r.layers.add_traced(job.latency, &probe);
            } else {
                r.latencies.push((
                    wl.job_key(i),
                    if ok {
                        job.latency.as_secs_f64() * 1e3
                    } else {
                        FAILED_LATENCY
                    },
                ));
                if trace {
                    r.layers.add_untraced(job.latency);
                }
            }
            r.peak_heap_mb = r.peak_heap_mb.max(heap_in_use_mb());
            r.setup_s.push(wl.time_setup().as_secs_f64());
        }
        if !traced {
            r.pass_rates
                .push(completed as f64 / loop_wall.as_secs_f64());
        }
        let digest = acr_serve::digest(&sigs);
        match digests.get(epoch) {
            None => digests.push(digest),
            Some(&d) if d != digest => r.violations.push(format!(
                "pass {} decided differently from pass {epoch} ({digest:016x} vs {d:016x})",
                r.passes
            )),
            Some(_) => {}
        }
        r.passes += 1;
        // An untraced run covers one whole cycle, so that its digest
        // folds every pass of it, and may then end on any pass: each
        // pass runs every job key once, and a whole `acrd-revisit` cycle
        // takes about 12 s, which would overshoot `seconds` by as much.
        let enough = if trace {
            r.passes.is_multiple_of(2 * cycle)
        } else {
            r.passes >= cycle && r.latencies.len() >= MIN_JOBS
        };
        if enough && start.elapsed().as_secs() >= seconds {
            r.digest = acr_serve::digest(digests.iter().map(|d| format!("{d:016x}")));
            return r;
        }
    }
}

/// Heap in use in MB: what glibc has handed out and not had back, over
/// all arenas, `mmap`ped blocks included.
///
/// Peak resident memory (`VmHWM`) is not steady enough to gate. The
/// validate pool's threads allocate from glibc's per-thread arenas, and
/// which arena holds what differs from run to run, so runs of the same
/// `acrd-revisit` work peaked anywhere between 31 and 41 MB. Bytes in use
/// do not depend on where they were placed. A wrapping global allocator
/// would count them too, but slowed the jobs it timed by over a tenth.
fn heap_in_use_mb() -> f64 {
    // Laid out as glibc's `struct mallinfo2`; two fields are read.
    #[allow(dead_code)]
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: glibc's `mallinfo2` takes no arguments, locks each arena
    // while it reads its statistics and returns them by value.
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of this process in MB (`VmHWM`), printed beside
/// the metrics but not gated (see [`heap_in_use_mb`]).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Non-blank, non-comment lines of each crate's `src`, by crate.
fn loc_per_crate(root: &Path) -> BTreeMap<String, usize> {
    fn count(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    count(&path)
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path)
                        .unwrap_or_default()
                        .lines()
                        .map(str::trim)
                        .filter(|l| !l.is_empty() && !l.starts_with("//"))
                        .count()
                } else {
                    0
                }
            })
            .sum()
    }
    let Ok(crates) = std::fs::read_dir(root) else {
        return BTreeMap::new();
    };
    crates
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                count(&e.path().join("src")),
            )
        })
        .collect()
}

/// The run context: seed, host parallelism, the `ACR_*` toggles in
/// effect, and lines of code per crate (informational, not gated).
fn context(args: &Args) -> String {
    let mut env = json::Obj::new();
    for var in TOGGLES {
        env = match std::env::var(var) {
            Ok(v) => env.str(var, &v),
            Err(_) => env.raw(var, "null"),
        };
    }
    let mut loc = json::Obj::new();
    let per_crate = loc_per_crate(Path::new("crates"));
    for (name, n) in &per_crate {
        loc = loc.int(name, *n);
    }
    json::Obj::new()
        .str("workload", &args.workload)
        .u64("seed", args.seed)
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .raw("env", &env.build())
        .raw("loc", &loc.build())
        .int("loc_total", per_crate.values().sum())
        .build()
}

/// `--workload all`: every workload in turn, each in a child process of
/// its own so that peak memory and the process-wide `acr-obs` state stay
/// per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for name in workloads::NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    println!("context {}", context(&args));
    let mut wl = workloads::build(&args.workload, args.seed).expect("name was checked");
    if wl.len() == 0 {
        eprintln!("perfbench: seed {} generated no inputs", args.seed);
        return ExitCode::FAILURE;
    }
    let r = run(wl.as_mut(), args.seconds, args.trace);
    let correct = r.violations.is_empty();
    for v in &r.violations {
        eprintln!("check failed: {v}");
    }
    println!(
        "jobs attempted={} failed={} resolved={} overclaimed={} passes={} inputs/pass={}",
        r.tally.attempted,
        r.tally.failed,
        r.tally.resolved,
        r.tally.overclaimed,
        r.passes,
        wl.len()
    );
    println!("decision_digest={:016x}", r.digest);
    println!("peak_rss_mb {:.4} (VmHWM, not gated)", peak_rss_mb());
    println!(
        "failed_frac {} (jobs failed / attempted)",
        r.tally.failed_frac()
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        r.layers.metrics(&r.counters)
    } else {
        let lat = per_job_medians(&r.latencies);
        println!(
            "latency samples {} (p90 has {} beyond it)",
            lat.len(),
            stats::samples_beyond(lat.len(), 90.0)
        );
        vec![
            ("job_p50_ms", "ms", printable(percentile(&lat, 50.0))),
            ("job_p90_ms", "ms", printable(percentile(&lat, 90.0))),
            // The median pass, like the per-job medians, keeps a host
            // stall shorter than half the run out of the figure.
            ("jobs_per_s", "1/s", median(&r.pass_rates)),
            ("resolved_frac", "frac", r.tally.resolved_frac()),
            ("setup_s", "s", median(&r.setup_s)),
            ("peak_heap_mb", "MB", r.peak_heap_mb),
        ]
    };
    let mut obj = json::Obj::new();
    for (name, unit, value) in &metrics {
        println!("{name:<28} {value:>14.4} {unit}");
        obj = obj.raw(
            name,
            &json::Obj::new()
                .num("value", *value)
                .str("unit", unit)
                .build(),
        );
    }
    println!(
        "{}",
        json::Obj::new()
            .bool("correct", correct)
            .int("attempted", r.tally.attempted)
            .int("failed", r.tally.failed)
            .raw("metrics", &obj.build())
            .build()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
