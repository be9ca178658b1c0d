//! The traced run's per-layer breakdown.
//!
//! Each traced job contributes its stage split, its work counts and the
//! times of the benchmark's own calls into the layers' public functions;
//! [`Layers::metrics`] turns the run totals into per-job figures, so
//! sibling layers add up to the job time they share.

use crate::stats::frac;
use acr_core::{RepairReport, StageTimes};
use acr_obs::json::Value;
use acr_obs::metrics::{self, MetricValue};
use acr_obs::trace::TraceEvent;
use std::collections::BTreeMap;
use std::time::Duration;

/// Wall-clock split of one repair run across the engine's stages.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Stages {
    pub commit: Duration,
    pub generate: Duration,
    pub validate: Duration,
    pub select: Duration,
    pub sim_compile: Duration,
    pub sim_establish: Duration,
    pub sim_simulate: Duration,
    pub sim_converge: Duration,
    /// The engine's own wall-clock for the run.
    pub wall: Duration,
}

impl Stages {
    pub fn from_report(s: &StageTimes, wall: Duration) -> Self {
        Stages {
            commit: s.commit,
            generate: s.generate,
            validate: s.validate,
            select: s.select,
            sim_compile: s.sim_compile,
            sim_establish: s.sim_establish,
            sim_simulate: s.sim_simulate,
            sim_converge: s.sim_converge,
            wall,
        }
    }

    /// The split as the engine's stage spans record it: used where the
    /// report itself is not exposed (the daemon's result payload). The
    /// simulator splits are the `sim.*` spans that fall inside an
    /// `engine.validate` span; convergence has no span of its own and
    /// reads zero.
    pub fn from_spans(events: &[TraceEvent], wall: Duration) -> Self {
        let us = Duration::from_micros;
        let mut s = Stages {
            wall,
            ..Stages::default()
        };
        let mut windows = Vec::new();
        for e in events {
            match e.name {
                "engine.commit" => s.commit += us(e.dur_us),
                "engine.generate" => s.generate += us(e.dur_us),
                "engine.validate" => {
                    s.validate += us(e.dur_us);
                    windows.push(e.ts_us..=e.ts_us + e.dur_us);
                }
                "engine.select" => s.select += us(e.dur_us),
                _ => {}
            }
        }
        for e in events {
            if !windows.iter().any(|w| w.contains(&e.ts_us)) {
                continue;
            }
            let slot = if e.name.starts_with("sim.compile") {
                &mut s.sim_compile
            } else if e.name.starts_with("sim.establish") {
                &mut s.sim_establish
            } else if e.name == "sim.simulate" {
                &mut s.sim_simulate
            } else {
                continue;
            };
            *slot += us(e.dur_us);
        }
        s
    }

    /// Validate time outside the simulator splits: lint gate, flow gate,
    /// symbolic screen, cache lookups, property evaluation and cache
    /// entry builds. The splits are summed over the validate pool's
    /// workers, so on a parallel pool they can exceed the stage's wall
    /// time; the remainder is then zero, never negative.
    pub fn validate_other(&self) -> Duration {
        self.validate
            .saturating_sub(self.sim_compile + self.sim_establish + self.sim_simulate)
    }

    /// Time the four top-level stages account for.
    pub fn covered(&self) -> Duration {
        self.commit + self.generate + self.validate + self.select
    }

    fn add(&mut self, o: &Stages) {
        self.commit += o.commit;
        self.generate += o.generate;
        self.validate += o.validate;
        self.select += o.select;
        self.sim_compile += o.sim_compile;
        self.sim_establish += o.sim_establish;
        self.sim_simulate += o.sim_simulate;
        self.sim_converge += o.sim_converge;
        self.wall += o.wall;
    }
}

/// Candidate work of one repair run, from its per-iteration accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Work {
    pub iterations: usize,
    pub generated: usize,
    pub kept: usize,
    pub sims: usize,
    pub cached: usize,
    pub sym_validated: usize,
    pub flow_skipped: usize,
    pub recomputed_prefixes: usize,
    pub reused_prefixes: usize,
}

impl Work {
    pub fn from_report(r: &RepairReport) -> Self {
        let mut w = Work {
            iterations: r.iterations.len(),
            sims: r.validations,
            cached: r.validations_cached,
            sym_validated: r.validations_symbolic,
            flow_skipped: r.validations_skipped,
            ..Work::default()
        };
        for it in &r.iterations {
            w.generated += it.generated;
            w.kept += it.kept;
            w.recomputed_prefixes += it.recomputed_prefixes;
            w.reused_prefixes += it.reused_prefixes;
        }
        w
    }

    /// The same counts from the daemon's report JSON, checking the
    /// candidate-accounting identity `RepairReport::check_accounting`
    /// checks on an in-process report: every generated candidate lands
    /// in exactly one bucket, and the totals are the per-iteration sums.
    pub fn from_report_json(report: &Value) -> Result<Self, String> {
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_num)
                .map(|n| n as usize)
                .ok_or_else(|| format!("report JSON lacks numeric '{k}'"))
        };
        let iters = report
            .get("iteration_detail")
            .and_then(Value::as_arr)
            .ok_or("report JSON lacks 'iteration_detail'")?;
        let mut w = Work {
            iterations: iters.len(),
            ..Work::default()
        };
        for it in iters {
            let generated = num(it, "generated")?;
            let mut buckets = 0;
            for k in [
                "invalid",
                "lint_rejected",
                "validated",
                "cached",
                "flow_skipped",
                "sym_validated",
            ] {
                buckets += num(it, k)?;
            }
            if generated != buckets {
                return Err(format!(
                    "iteration {}: generated {generated} != bucket sum {buckets}",
                    num(it, "iteration")?
                ));
            }
            w.generated += generated;
            w.kept += num(it, "kept")?;
            w.sims += num(it, "validated")?;
            w.cached += num(it, "cached")?;
            w.sym_validated += num(it, "sym_validated")?;
            w.flow_skipped += num(it, "flow_skipped")?;
            w.recomputed_prefixes += num(it, "recomputed_prefixes")?;
            w.reused_prefixes += num(it, "reused_prefixes")?;
        }
        for (total, sum) in [
            ("validations", w.sims),
            ("validations_cached", w.cached),
            ("validations_symbolic", w.sym_validated),
            ("validations_skipped", w.flow_skipped),
        ] {
            if num(report, total)? != sum {
                return Err(format!("{total} != per-iteration sum {sum}"));
            }
        }
        Ok(w)
    }

    fn add(&mut self, o: &Work) {
        self.iterations += o.iterations;
        self.generated += o.generated;
        self.kept += o.kept;
        self.sims += o.sims;
        self.cached += o.cached;
        self.sym_validated += o.sym_validated;
        self.flow_skipped += o.flow_skipped;
        self.recomputed_prefixes += o.recomputed_prefixes;
        self.reused_prefixes += o.reused_prefixes;
    }
}

/// What one traced job records beside its latency.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub stages: Stages,
    pub work: Work,
    /// The judge: patch application plus one fresh full simulation.
    pub judge: Duration,
    /// `acr_lint::lint_network` on the job's broken network.
    pub lint_network: Duration,
    /// `acr_flow::analyze` on the job's broken network.
    pub flow_analyze: Duration,
    /// One cold `Verifier::run_full` of the job's broken network.
    pub run_full: Duration,
    /// `acr_cfg::parse::parse_device` over the job's device texts.
    pub parse: Duration,
    /// `Acrd::handle` of the submit line and `Acrd::step` (daemon only).
    pub submit: Duration,
    pub step: Duration,
    pub resident: bool,
    pub revisit: bool,
}

/// Run totals of the traced jobs, plus the untraced jobs of the same
/// run that the tracing overhead is measured against.
#[derive(Debug, Default)]
pub struct Layers {
    jobs: usize,
    job: Duration,
    stages: Stages,
    work: Work,
    judge: Duration,
    lint_network: Duration,
    flow_analyze: Duration,
    run_full: Duration,
    parse: Duration,
    submit: Duration,
    step: Duration,
    resident: usize,
    revisits: usize,
    untraced_jobs: usize,
    untraced_job: Duration,
}

impl Layers {
    pub fn add_traced(&mut self, job: Duration, p: &Probe) {
        self.jobs += 1;
        self.job += job;
        self.stages.add(&p.stages);
        self.work.add(&p.work);
        self.judge += p.judge;
        self.lint_network += p.lint_network;
        self.flow_analyze += p.flow_analyze;
        self.run_full += p.run_full;
        self.parse += p.parse;
        self.submit += p.submit;
        self.step += p.step;
        self.resident += p.resident as usize;
        self.revisits += p.revisit as usize;
    }

    pub fn add_untraced(&mut self, job: Duration) {
        self.untraced_jobs += 1;
        self.untraced_job += job;
    }

    /// Every per-layer metric as `(name, unit, value)`. Times are run
    /// totals divided by traced jobs; `counters` holds the `acr-obs`
    /// registry totals over the traced jobs.
    pub fn metrics(
        &self,
        counters: &BTreeMap<String, u64>,
    ) -> Vec<(&'static str, &'static str, f64)> {
        let n = self.jobs.max(1) as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
        let per_job = |c: usize| c as f64 / n;
        let c = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
        let s = &self.stages;
        let w = &self.work;
        let unattributed = s.wall.saturating_sub(s.covered());
        // Job time outside the engine run (or the daemon calls around
        // it) and the judge: engine construction, result handling.
        let job_other = self
            .job
            .saturating_sub(self.judge + s.wall.max(self.submit + self.step));
        let overhead = frac(
            self.job.as_secs_f64() / n,
            self.untraced_job.as_secs_f64() / self.untraced_jobs.max(1) as f64,
        ) - 1.0;
        vec![
            ("job_ms", "ms", ms(self.job)),
            ("job.other_ms", "ms", ms(job_other)),
            ("serve.submit_ms", "ms", ms(self.submit)),
            ("serve.step_ms", "ms", ms(self.step)),
            ("serve.resident_frac", "frac", per_job(self.resident)),
            ("serve.revisit_frac", "frac", per_job(self.revisits)),
            ("cfg.parse_ms", "ms", ms(self.parse)),
            ("core.wall_ms", "ms", ms(s.wall)),
            ("core.commit_ms", "ms", ms(s.commit)),
            ("core.generate_ms", "ms", ms(s.generate)),
            ("core.validate_ms", "ms", ms(s.validate)),
            ("core.select_ms", "ms", ms(s.select)),
            ("core.validate_other_ms", "ms", ms(s.validate_other())),
            ("core.unattributed_ms", "ms", ms(unattributed)),
            (
                "core.stage_coverage_frac",
                "frac",
                frac(s.covered().as_secs_f64(), s.wall.as_secs_f64()),
            ),
            ("core.iterations", "count", per_job(w.iterations)),
            ("core.candidates", "count", per_job(w.generated)),
            (
                "core.kept_frac",
                "frac",
                frac(w.kept as f64, w.generated as f64),
            ),
            ("core.sims", "count", per_job(w.sims)),
            ("core.sym_validated", "count", per_job(w.sym_validated)),
            ("core.flow_skipped", "count", per_job(w.flow_skipped)),
            ("core.sym_screens", "count", c("engine.sym.screens") / n),
            ("lint.lint_network_ms", "ms", ms(self.lint_network)),
            ("lint.gate_rejected", "count", c("lint.gate.rejected") / n),
            (
                "lint.memo_hit_frac",
                "frac",
                frac(
                    c("lint.memo.hits"),
                    c("lint.memo.hits") + c("lint.memo.misses"),
                ),
            ),
            ("flow.analyze_ms", "ms", ms(self.flow_analyze)),
            (
                "flow.fixpoint_iterations",
                "count",
                c("flow.fixpoint.iterations") / n,
            ),
            ("sim.compile_ms", "ms", ms(s.sim_compile)),
            ("sim.establish_ms", "ms", ms(s.sim_establish)),
            ("sim.simulate_ms", "ms", ms(s.sim_simulate)),
            ("sim.converge_ms", "ms", ms(s.sim_converge)),
            ("sim.runs", "count", c("sim.runs") / n),
            (
                "sim.policy_memo_hit_frac",
                "frac",
                frac(c("sim.policy_memo_hits"), c("sim.policy_evals")),
            ),
            ("sim.shard_runs", "count", c("sim.shard_runs") / n),
            ("verify.run_full_ms", "ms", ms(self.run_full)),
            ("verify.judge_ms", "ms", ms(self.judge)),
            (
                "verify.cache_hit_frac",
                "frac",
                frac(w.cached as f64, (w.cached + w.sims) as f64),
            ),
            (
                "verify.prefix_reuse_frac",
                "frac",
                frac(
                    w.reused_prefixes as f64,
                    (w.reused_prefixes + w.recomputed_prefixes) as f64,
                ),
            ),
            (
                "verify.resume_hit_frac",
                "frac",
                frac(
                    c("verify.resume.hits"),
                    c("verify.resume.hits") + c("verify.resume.misses"),
                ),
            ),
            ("smt.dpll_solves", "count", c("smt.dpll.solves") / n),
            ("obs.overhead_frac", "frac", overhead),
        ]
    }
}

/// Counter totals of the `acr-obs` metrics registry.
pub fn counters() -> BTreeMap<String, u64> {
    metrics::snapshot()
        .into_iter()
        .filter_map(|(k, v)| match v {
            MetricValue::Counter(n) => Some((k, n)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn validate_other_is_never_negative() {
        // A parallel pool sums simulator time over workers, so the
        // splits can exceed the validate stage's wall time.
        let parallel = Stages {
            validate: ms(10),
            sim_compile: ms(4),
            sim_establish: ms(3),
            sim_simulate: ms(9),
            ..Stages::default()
        };
        assert_eq!(parallel.validate_other(), Duration::ZERO);
        let serial = Stages {
            validate: ms(10),
            sim_compile: ms(2),
            sim_establish: ms(1),
            sim_simulate: ms(3),
            sim_converge: ms(2),
            ..Stages::default()
        };
        assert_eq!(serial.validate_other(), ms(4));
        let mut l = Layers::default();
        l.add_traced(
            ms(20),
            &Probe {
                stages: parallel,
                ..Probe::default()
            },
        );
        let m = l.metrics(&BTreeMap::new());
        let other = m
            .iter()
            .find(|(k, _, _)| *k == "core.validate_other_ms")
            .unwrap();
        assert_eq!(other.2, 0.0);
    }

    #[test]
    fn coverage_and_unattributed_split_the_engine_wall() {
        let s = Stages {
            commit: ms(2),
            generate: ms(1),
            validate: ms(5),
            select: ms(1),
            wall: ms(10),
            ..Stages::default()
        };
        let mut l = Layers::default();
        l.add_traced(
            ms(12),
            &Probe {
                stages: s,
                ..Probe::default()
            },
        );
        l.add_traced(
            ms(12),
            &Probe {
                stages: s,
                ..Probe::default()
            },
        );
        let m: BTreeMap<_, _> = l
            .metrics(&BTreeMap::new())
            .into_iter()
            .map(|(k, _, v)| (k, v))
            .collect();
        assert!((m["core.stage_coverage_frac"] - 0.9).abs() < 1e-12);
        assert!((m["core.unattributed_ms"] - 1.0).abs() < 1e-12);
        assert!((m["job_ms"] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn spans_give_the_stage_split() {
        let ev = |name, ts_us, dur_us| TraceEvent {
            name,
            cat: "t",
            ts_us,
            dur_us,
            tid: 1,
            arg: None,
        };
        let events = [
            ev("engine.commit", 0, 100),
            ev("sim.compile", 10, 50), // inside commit: not a validate split
            ev("engine.validate", 200, 300),
            ev("sim.compile.delta", 210, 20),
            ev("sim.establish.delta", 230, 10),
            ev("sim.simulate", 240, 100),
            ev("engine.select", 500, 5),
        ];
        let s = Stages::from_spans(&events, ms(1));
        assert_eq!(s.commit, Duration::from_micros(100));
        assert_eq!(s.validate, Duration::from_micros(300));
        assert_eq!(s.sim_compile, Duration::from_micros(20));
        assert_eq!(s.sim_establish, Duration::from_micros(10));
        assert_eq!(s.sim_simulate, Duration::from_micros(100));
        assert_eq!(s.validate_other(), Duration::from_micros(170));
    }
}
