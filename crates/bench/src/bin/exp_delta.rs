//! **Delta-compiled simulation** — what patch-aware model/session reuse
//! buys candidate validation.
//!
//! Part 1 is a construction microbenchmark: for every corpus incident,
//! build the candidate simulator the legacy way (`Simulator::new`, full
//! recompile + re-establish) and the delta way
//! (`Simulator::from_base_with_patch` against a shared [`CompiledBase`]),
//! on the 12-router standard WAN and the 72-router scaled WAN. Outcomes
//! are asserted field-for-field equal on every sample, so the speedup
//! column is a pure cost comparison.
//!
//! Part 2 is the end-to-end A/B: repair the 12-incident corpus with delta
//! construction on and off (memo-cache disabled so construction cost is
//! not masked) and compare wall time plus the compile/establish/simulate
//! stage split. Reports are asserted identical — the delta toggle only
//! changes how simulators are built, never what they compute.
//!
//! Results land in `BENCH_delta.json` for trend tracking. `--smoke` runs
//! a reduced matrix and is wired into `ci.sh` as a regression guard for
//! the delta/full equivalence.
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_delta [-- --smoke]
//! ```

use acr_bench::{
    corpus, fmt_duration, json, rule, scaled_network, standard_network, write_bench_mode,
};
use acr_core::{RepairConfig, RepairEngine, RepairReport};
use acr_sim::{CompiledBase, Simulator};
use acr_workloads::{GeneratedNetwork, Incident};
use std::time::{Duration, Instant};

/// One network's construction-microbench aggregate.
struct ConstructionRow {
    label: String,
    routers: usize,
    samples: usize,
    full: Duration,
    delta: Duration,
}

impl ConstructionRow {
    fn speedup(&self) -> f64 {
        self.full.as_secs_f64() / self.delta.as_secs_f64().max(1e-12)
    }
}

/// Times full vs delta construction over every incident of `net`,
/// asserting outcome equality on each sample.
fn construction_bench(
    label: &str,
    net: &GeneratedNetwork,
    incidents: &[Incident],
    reps: usize,
) -> ConstructionRow {
    let base = CompiledBase::new(&net.topo, &net.cfg);
    let mut full = Duration::ZERO;
    let mut delta = Duration::ZERO;
    let mut samples = 0usize;
    for incident in incidents {
        // The incident's own injection patch is the candidate shape the
        // repair loop validates: a small edit against a committed base.
        for _ in 0..reps {
            let t = Instant::now();
            let fresh = Simulator::new(&net.topo, &incident.broken);
            full += t.elapsed();
            let t = Instant::now();
            let patched = Simulator::from_base_with_patch(&base, &incident.broken, &incident.patch);
            delta += t.elapsed();
            samples += 1;
            assert_eq!(
                fresh.run(),
                patched.run(),
                "delta-built simulator diverged from full build on '{}'",
                incident.description
            );
        }
    }
    ConstructionRow {
        label: label.to_string(),
        routers: net.topo.len(),
        samples,
        full,
        delta,
    }
}

/// Repairs the corpus with delta construction forced on or off.
fn repair_corpus(
    net: &GeneratedNetwork,
    incidents: &[Incident],
    delta: bool,
) -> (Duration, Vec<RepairReport>) {
    let mut wall = Duration::ZERO;
    let mut reports = Vec::new();
    for (i, incident) in incidents.iter().enumerate() {
        let engine = RepairEngine::new(
            &net.topo,
            &net.spec,
            RepairConfig {
                seed: i as u64,
                threads: 1,
                cache: None, // memoization would mask construction cost
                delta,
                ..RepairConfig::default()
            },
        );
        let t = Instant::now();
        let report = engine.repair(&incident.broken);
        wall += t.elapsed();
        reports.push(report);
    }
    (wall, reports)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (incident_count, reps, nets): (usize, usize, Vec<(String, GeneratedNetwork)>) = if smoke {
        (3, 1, vec![("wan(4,8)".into(), standard_network())])
    } else {
        (
            12,
            5,
            vec![
                ("wan(4,8)".into(), standard_network()),
                ("wan(24,48)".into(), scaled_network(24)),
            ],
        )
    };

    // ---- Part 1: construction microbenchmark --------------------------
    let header = format!(
        "{:<12} {:>8} {:>8} {:>12} {:>12} {:>9}",
        "Network", "Routers", "Samples", "Full build", "Delta build", "Speedup"
    );
    println!("{header}");
    rule(header.len());
    let mut rows = Vec::new();
    for (label, net) in &nets {
        let incidents = corpus(net, incident_count, 77);
        let row = construction_bench(label, net, &incidents, reps);
        println!(
            "{:<12} {:>8} {:>8} {:>12} {:>12} {:>8.2}x",
            row.label,
            row.routers,
            row.samples,
            fmt_duration(row.full / row.samples as u32),
            fmt_duration(row.delta / row.samples as u32),
            row.speedup(),
        );
        rows.push(row);
    }
    rule(header.len());
    println!("per-sample construction cost; every sample asserted outcome-equal\n");

    // ---- Part 2: end-to-end repair A/B --------------------------------
    let net = &nets[0].1;
    let incidents = corpus(net, incident_count, 77);
    let (wall_on, on) = repair_corpus(net, &incidents, true);
    let (wall_off, off) = repair_corpus(net, &incidents, false);
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a.iterations, b.iterations, "delta toggle changed a repair");
        assert_eq!(a.validations, b.validations);
        assert_eq!(a.outcome.is_fixed(), b.outcome.is_fixed());
    }
    let sum = |rs: &[RepairReport]| {
        rs.iter().fold(
            (
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
            ),
            |acc, r| {
                (
                    acc.0 + r.stage.sim_compile,
                    acc.1 + r.stage.sim_establish,
                    acc.2 + r.stage.sim_simulate,
                    acc.3 + r.stage.sim_converge,
                )
            },
        )
    };
    let (c_on, e_on, s_on, v_on) = sum(&on);
    let (c_off, e_off, s_off, v_off) = sum(&off);
    let fixed = on.iter().filter(|r| r.outcome.is_fixed()).count();
    println!(
        "repair A/B on {} ({} incidents, threads=1, cache off, {fixed} fixed; reports identical):",
        nets[0].0,
        incidents.len()
    );
    println!(
        "  delta on : wall {:>8}  compile {:>8}  establish {:>8}  simulate {:>8} (converge {:>8})",
        fmt_duration(wall_on),
        fmt_duration(c_on),
        fmt_duration(e_on),
        fmt_duration(s_on),
        fmt_duration(v_on),
    );
    println!(
        "  delta off: wall {:>8}  compile {:>8}  establish {:>8}  simulate {:>8} (converge {:>8})",
        fmt_duration(wall_off),
        fmt_duration(c_off),
        fmt_duration(e_off),
        fmt_duration(s_off),
        fmt_duration(v_off),
    );
    println!(
        "  compile+establish reduced {:.2}x; end-to-end {:.2}x",
        (c_off + e_off).as_secs_f64() / (c_on + e_on).as_secs_f64().max(1e-9),
        wall_off.as_secs_f64() / wall_on.as_secs_f64().max(1e-9),
    );

    // ---- Machine-readable artifact ------------------------------------
    let construction = json::array(rows.iter().map(|r| {
        json::Obj::new()
            .str("network", &r.label)
            .int("routers", r.routers)
            .int("samples", r.samples)
            .num(
                "full_us_per_sample",
                r.full.as_secs_f64() * 1e6 / r.samples as f64,
            )
            .num(
                "delta_us_per_sample",
                r.delta.as_secs_f64() * 1e6 / r.samples as f64,
            )
            .num("speedup", r.speedup())
            .build()
    }));
    let repair = json::Obj::new()
        .str("network", &nets[0].0)
        .int("incidents", incidents.len())
        .int("fixed", fixed)
        .bool("reports_identical", true)
        .num("wall_on_s", wall_on.as_secs_f64())
        .num("wall_off_s", wall_off.as_secs_f64())
        .num("compile_establish_on_s", (c_on + e_on).as_secs_f64())
        .num("compile_establish_off_s", (c_off + e_off).as_secs_f64())
        .num("simulate_on_s", s_on.as_secs_f64())
        .num("simulate_off_s", s_off.as_secs_f64())
        .num("converge_on_s", v_on.as_secs_f64())
        .num("converge_off_s", v_off.as_secs_f64())
        .build();
    let path = write_bench_mode("delta", smoke, |env| {
        env.bool("smoke", smoke)
            .raw("construction", &construction)
            .raw("repair_ab", &repair)
    });
    println!("\nwrote {path}");

    if !smoke {
        let scaled = rows.iter().find(|r| r.routers > 12);
        if let Some(r) = scaled {
            assert!(
                r.speedup() >= 2.0,
                "acceptance: delta construction must be >= 2x cheaper on the scaled WAN (got {:.2}x)",
                r.speedup()
            );
        }
    }
}
