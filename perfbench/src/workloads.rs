//! The three workloads and the harness judge they share.
//!
//! A workload generates its inputs from the seed once, then serves
//! passes: [`Workload::setup`] rebuilds the program state (network model,
//! spec, engine or daemon) and the runner drives job `0..len()` in order,
//! one at a time (closed loop, one client). Every job ends at a judged
//! verdict: the proposed patch applied to the broken network and checked
//! by a fresh full simulation, independent of the engine.

use crate::layers::{Probe, Stages, Work};
use acr_cfg::ast::BlockKind;
use acr_cfg::parse::parse_stmt;
use acr_cfg::{Edit, NetworkConfig, Patch};
use acr_core::{
    AcrStrategy, RepairConfig, RepairEngine, RepairOutcome, RepairReport, RepairStrategy, Strategy,
    WARM_SLOTS,
};
use acr_net_types::rng::SplitMix64;
use acr_net_types::RouterId;
use acr_obs::json::{self, Value};
use acr_serve::{decision_signature, job_label, submit_line, Acrd, NetworkDef, ServeConfig};
use acr_topo::{gen, Topology};
use acr_verify::{Spec, Verifier};
use acr_workloads::{generate, inject_at, GeneratedNetwork, TABLE1};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["incident-wan24", "scenario-beam", "acrd-revisit"];

/// One generated input: the broken network a job repairs, the spec it
/// must satisfy, and its device texts.
pub struct Input {
    pub broken: NetworkConfig,
    pub spec: Spec,
    pub texts: Vec<(String, String)>,
}

impl Input {
    fn new(broken: NetworkConfig, spec: Spec) -> Self {
        let texts = broken
            .devices()
            .map(|(_, d)| (d.name().to_string(), d.to_text()))
            .collect();
        Input {
            broken,
            spec,
            texts,
        }
    }
}

/// What a completed job decided.
pub struct Verdict {
    /// The judge confirmed the patch.
    pub resolved: bool,
    /// The program reported a fix the judge refused: a wrong repair,
    /// counted as unresolved.
    pub overclaimed: bool,
    /// `acr_serve::decision_signature` of the run.
    pub sig: String,
    /// Correctness checks the job failed.
    pub violations: Vec<String>,
}

/// One job: its latency from submit to judged verdict, and the verdict
/// or, for a rejected or erroring job, the reason it failed.
pub struct Job {
    pub latency: Duration,
    pub result: Result<Verdict, String>,
}

pub trait Workload {
    /// Distinct passes the workload cycles through (each with its own
    /// job stream); a run measures at least one whole cycle.
    fn epochs(&self) -> usize {
        1
    }
    /// Rebuilds the program state pass `epoch` of the cycle runs
    /// against; returns the time that took.
    fn setup(&mut self, epoch: usize) -> Duration;
    /// Builds the same state as [`Workload::setup`] and drops it: one
    /// more set-up time sample, taken between jobs.
    fn time_setup(&self) -> Duration;
    /// Jobs in the current pass.
    fn len(&self) -> usize;
    /// Names job `i` of the current pass across the passes of a run:
    /// jobs with one key run the same input in the same role, so their
    /// latencies are repeats of one measurement.
    fn job_key(&self, i: usize) -> usize {
        i
    }
    /// Runs job `i` of the pass. In a traced pass `probe` collects the
    /// job's stage split and work counts.
    fn job(&mut self, i: usize, probe: Option<&mut Probe>) -> Job;
    /// The network and input of job `i`, for the per-layer probes.
    fn input(&self, i: usize) -> (&Topology, &Input);
}

/// Builds the named workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "incident-wan24" => Box::new(IncidentWan24::new(seed)),
        "scenario-beam" => Box::new(ScenarioBeam::new(seed)),
        "acrd-revisit" => Box::new(AcrdRevisit::new(seed)),
        _ => return None,
    })
}

/// The patch a report proposes: the fix, or a non-empty best effort.
fn proposed(r: &RepairReport) -> Option<&Patch> {
    match &r.outcome {
        RepairOutcome::Fixed { patch, .. } => Some(patch),
        RepairOutcome::NoCandidates { best_patch, .. }
        | RepairOutcome::IterationLimit { best_patch, .. } => {
            (!best_patch.is_empty()).then_some(best_patch)
        }
    }
}

/// The harness judge: applies `patch` to `broken` and checks every
/// property of `spec` with a fresh full simulation. Returns whether the
/// patch resolves the incident, and the patched network.
pub fn judge(
    topo: &Topology,
    spec: &Spec,
    broken: &NetworkConfig,
    patch: Option<&Patch>,
) -> (bool, Option<NetworkConfig>) {
    let Some(patched) = patch.and_then(|p| p.apply_cloned(broken).ok()) else {
        return (false, None);
    };
    let (v, _) = Verifier::new(topo, spec).run_full(&patched);
    (v.failed_count() == 0, Some(patched))
}

/// Checks an in-process engine report against its judged verdict: the
/// accounting identity holds, and a claimed fix is exactly the proposed
/// patch applied to the broken network. A claimed fix the judge refuses
/// is the engine's error, not the benchmark's: it counts as unresolved
/// and is reported as overclaimed.
fn check_report(
    report: &RepairReport,
    label: &str,
    (resolved, patched): (bool, Option<NetworkConfig>),
    probe: Option<&mut Probe>,
) -> Verdict {
    let mut violations = Vec::new();
    if let Err(e) = report.check_accounting() {
        violations.push(format!("{label}: accounting: {e}"));
    }
    if let RepairOutcome::Fixed { repaired, .. } = &report.outcome {
        if patched.map(|p| p.fingerprint()) != Some(repaired.fingerprint()) {
            violations.push(format!(
                "{label}: repaired network is not the patch applied"
            ));
        }
    }
    if let Some(p) = probe {
        p.stages = Stages::from_report(&report.stage, report.wall);
        p.work = Work::from_report(report);
    }
    Verdict {
        resolved,
        overclaimed: report.outcome.is_fixed() && !resolved,
        sig: decision_signature(label, report),
        violations,
    }
}

/// `incident-wan24`: one-shot cold `RepairEngine::repair` with the
/// default configuration on single-fault Table-1 incidents of the
/// 24-router WAN.
pub struct IncidentWan24 {
    net: GeneratedNetwork,
    inputs: Vec<Input>,
}

/// Every distinct single-fault incident of `net`: each Table-1 fault
/// class injected at each router where it is observable, which is every
/// incident `sample_incidents` can draw, in an order the seed shuffles.
///
/// A pass repairs the whole set rather than a seeded sample because the
/// set is small (56 incidents on the 24-router WAN, 28 on the 12-router
/// one) and its slow tail is a handful of incidents: a sample that
/// missed one of them moved `job_p90_ms` by a third between seeds.
fn incident_space(net: &GeneratedNetwork, seed: u64) -> Vec<Input> {
    let mut seen = BTreeSet::new();
    let mut inputs: Vec<Input> = TABLE1
        .iter()
        .flat_map(|&(fault, _)| {
            net.cfg
                .routers()
                .into_iter()
                .filter_map(move |r| inject_at(fault, net, &net.cfg, r))
        })
        .filter(|inc| seen.insert(inc.broken.fingerprint()))
        .map(|inc| Input::new(inc.broken, net.spec.clone()))
        .collect();
    shuffle(&mut inputs, &mut SplitMix64::new(seed));
    inputs
}

/// Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for k in (1..v.len()).rev() {
        v.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
    }
}

// The benchmark pins its own networks, like its other definitions,
// rather than borrowing the experiment helpers of `acr-bench`: a change
// to shared helpers must not change what the benchmark measures.
fn wan24() -> GeneratedNetwork {
    generate(&gen::wan(8, 16))
}

fn wan12() -> GeneratedNetwork {
    generate(&gen::wan(4, 8))
}

impl IncidentWan24 {
    /// The network model and spec, and an engine over them.
    fn fresh() -> (GeneratedNetwork, Duration) {
        let t = Instant::now();
        let net = wan24();
        std::hint::black_box(RepairEngine::with_defaults(&net.topo, &net.spec));
        (net, t.elapsed())
    }

    fn new(seed: u64) -> Self {
        let net = wan24();
        let inputs = incident_space(&net, seed);
        IncidentWan24 { net, inputs }
    }
}

impl Workload for IncidentWan24 {
    fn setup(&mut self, _epoch: usize) -> Duration {
        let elapsed;
        (self.net, elapsed) = Self::fresh();
        elapsed
    }

    fn time_setup(&self) -> Duration {
        Self::fresh().1
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn job(&mut self, i: usize, mut probe: Option<&mut Probe>) -> Job {
        let (net, input) = (&self.net, &self.inputs[i]);
        let t = Instant::now();
        let engine = RepairEngine::new(&net.topo, &input.spec, RepairConfig::default());
        let report = engine.repair(&input.broken);
        let t_judge = Instant::now();
        let judged = judge(&net.topo, &input.spec, &input.broken, proposed(&report));
        let latency = t.elapsed();
        if let Some(p) = probe.as_deref_mut() {
            p.judge = t_judge.elapsed();
        }
        let label = job_label("wan24", i as u64);
        Job {
            latency,
            result: Ok(check_report(&report, &label, judged, probe)),
        }
    }

    fn input(&self, i: usize) -> (&Topology, &Input) {
        (&self.net.topo, &self.inputs[i])
    }
}

/// `scenario-beam`: composed multi-fault scenarios of all four families
/// on the 12-router WAN, repaired through `AcrStrategy` with the beam
/// search and scored by `StrategyVerdict`'s fresh-simulation judge.
pub struct ScenarioBeam {
    net: GeneratedNetwork,
    inputs: Vec<Input>,
    tags: Vec<Vec<String>>,
}

/// Scenarios per family per `scenario-beam` pass.
const SCENARIOS_PER_FAMILY: usize = 72;

fn beam_strategy(tags: Vec<String>) -> AcrStrategy {
    AcrStrategy::new(
        "acr-beam",
        RepairConfig {
            strategy: Strategy::beam(),
            tags,
            ..RepairConfig::default()
        },
    )
}

impl ScenarioBeam {
    /// The network model and spec, and the beam strategy.
    fn fresh() -> (GeneratedNetwork, Duration) {
        let t = Instant::now();
        let net = wan12();
        std::hint::black_box(beam_strategy(Vec::new()));
        (net, t.elapsed())
    }

    fn new(seed: u64) -> Self {
        let net = wan12();
        let scenarios = acr_scenarios::corpus(&net, SCENARIOS_PER_FAMILY, seed);
        let tags = scenarios.iter().map(|s| s.tags()).collect();
        let inputs = scenarios
            .into_iter()
            .map(|s| {
                let spec = s.visible_spec(&net.spec);
                Input::new(s.broken, spec)
            })
            .collect();
        ScenarioBeam { net, inputs, tags }
    }
}

impl Workload for ScenarioBeam {
    fn setup(&mut self, _epoch: usize) -> Duration {
        let elapsed;
        (self.net, elapsed) = Self::fresh();
        elapsed
    }

    fn time_setup(&self) -> Duration {
        Self::fresh().1
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn job(&mut self, i: usize, mut probe: Option<&mut Probe>) -> Job {
        let (net, input) = (&self.net, &self.inputs[i]);
        let t = Instant::now();
        let strategy = beam_strategy(self.tags[i].clone());
        let verdict = strategy.attempt(&net.topo, &input.spec, &input.broken);
        let latency = t.elapsed();
        let label = job_label("wan12", i as u64);
        let Some(report) = &verdict.report else {
            return Job {
                latency,
                result: Err(format!("{label}: ACR verdict carries no report")),
            };
        };
        // The verdict was judged inside the attempt; judge it again here,
        // untimed, to check the two judges agree and to time the judge.
        let t_judge = Instant::now();
        let judged = judge(&net.topo, &input.spec, &input.broken, proposed(report));
        if let Some(p) = probe.as_deref_mut() {
            p.judge = t_judge.elapsed();
        }
        let mut judged = check_report(report, &label, judged, probe);
        if judged.resolved != verdict.resolved {
            judged.violations.push(format!(
                "{label}: StrategyVerdict and harness judge disagree"
            ));
        }
        Job {
            latency,
            result: Ok(judged),
        }
    }

    fn input(&self, i: usize) -> (&Topology, &Input) {
        (&self.net.topo, &self.inputs[i])
    }
}

/// `acrd-revisit`: an in-process resident `Acrd` on the 12-router WAN,
/// driven over its JSONL surface. Half the jobs revisit one of the last
/// [`WARM_SLOTS`] incidents; the rest are fresh incidents that commit
/// cold and evict a warm slot. Each pass of the cycle starts a new daemon
/// and submits every pool incident twice (see [`revisit_stream`]).
pub struct AcrdRevisit {
    net: GeneratedNetwork,
    daemon: Acrd,
    pool: Vec<Input>,
    lines: Vec<String>,
    /// Per pass of the cycle, per job: the pool incident it submits, and
    /// whether that incident is among the last `WARM_SLOTS` distinct
    /// ones submitted.
    streams: Vec<Vec<(usize, bool)>>,
    epoch: usize,
    /// Decision signature of each pool incident's first job this pass.
    first_sig: BTreeMap<usize, String>,
}

/// Passes per cycle: each pool incident is fresh once per pass, so the
/// cycle averages the weight revisits give to any one incident.
const ACRD_EPOCHS: usize = 8;
const ACRD_NETWORK: &str = "wan12";

/// The job stream of one pass: every pool incident twice, first fresh,
/// in a random order, then once more as a revisit while it is still
/// among the last [`WARM_SLOTS`] distinct incidents submitted (tracked as
/// the daemon's move-to-front warm-slot list is). Fresh jobs and
/// revisits interleave at random. Revisiting each incident exactly once
/// keeps the share of slow jobs the same whatever the seed.
fn revisit_stream(pool: usize, seed: u64) -> Vec<(usize, bool)> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..pool).collect();
    shuffle(&mut order, &mut rng);
    let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut recent: Vec<usize> = Vec::new();
    // Submitted fresh, not yet revisited; always within `recent`.
    let mut pending: Vec<usize> = Vec::new();
    let mut fresh = order.into_iter().peekable();
    let mut out = Vec::with_capacity(2 * pool);
    loop {
        // A fresh job would evict the oldest warm incident: revisit it
        // first if it is still pending.
        let tail = (recent.len() == WARM_SLOTS)
            .then(|| recent[WARM_SLOTS - 1])
            .filter(|t| pending.contains(t));
        let revisit = match (fresh.peek(), pending.len()) {
            (None, 0) => break,
            (None, _) => Some(below(pending.len())),
            (Some(_), 0) => None,
            (Some(_), n) => match tail {
                Some(t) => pending.iter().position(|&q| q == t),
                None => (below(2) == 0).then(|| below(n)),
            },
        };
        let p = match revisit {
            Some(k) => pending.swap_remove(k),
            None => {
                let p = fresh.next().expect("a fresh incident is left");
                pending.push(p);
                p
            }
        };
        recent.retain(|&q| q != p);
        recent.insert(0, p);
        recent.truncate(WARM_SLOTS);
        out.push((p, revisit.is_some()));
    }
    out
}

fn daemon(net: &GeneratedNetwork) -> Acrd {
    let mut d = Acrd::new(ServeConfig::default());
    d.register(NetworkDef {
        name: ACRD_NETWORK.to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(net.spec.clone()),
    });
    d
}

fn response(line: &str) -> Result<Value, String> {
    let v = json::parse(line).map_err(|e| format!("daemon response is not JSON: {e}"))?;
    if matches!(v.get("ok"), Some(Value::Bool(true))) {
        Ok(v)
    } else {
        Err(format!("daemon refused: {line}"))
    }
}

impl AcrdRevisit {
    /// The network model and spec, and a daemon with the network
    /// registered.
    fn fresh() -> ((GeneratedNetwork, Acrd), Duration) {
        let t = Instant::now();
        let net = wan12();
        let d = daemon(&net);
        ((net, d), t.elapsed())
    }

    fn new(seed: u64) -> Self {
        let net = wan12();
        let pool = incident_space(&net, seed);
        // Every job runs the engine with its default seed, as the other
        // workloads do, so an incident's repair does not depend on where
        // the benchmark seed puts it in the stream.
        let engine_seed = RepairConfig::default().seed;
        let lines = pool
            .iter()
            .map(|inc| {
                submit_line(
                    &net.topo,
                    &inc.broken,
                    "ops",
                    ACRD_NETWORK,
                    engine_seed,
                    &[],
                )
            })
            .collect();
        let streams = (0..ACRD_EPOCHS as u64)
            .map(|e| revisit_stream(pool.len(), seed ^ e.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        AcrdRevisit {
            daemon: daemon(&net),
            net,
            pool,
            lines,
            streams,
            epoch: 0,
            first_sig: BTreeMap::new(),
        }
    }

    /// Submit, step, result: the job id, the result payload and the
    /// submit and step times.
    fn serve(&mut self, p: usize) -> Result<(String, Value, Duration, Duration), String> {
        let t = Instant::now();
        let submitted = response(&self.daemon.handle(&self.lines[p]))?;
        let submit = t.elapsed();
        let id = submitted
            .get("job")
            .and_then(Value::as_str)
            .ok_or("submit response lacks 'job'")?
            .to_string();
        let t = Instant::now();
        let stepped = self.daemon.step();
        let step = t.elapsed();
        if stepped.as_deref() != Some(id.as_str()) {
            return Err(format!("step ran {stepped:?}, expected {id}"));
        }
        let result_req = json::Obj::new().str("op", "result").str("job", &id).build();
        let result = response(&self.daemon.handle(&result_req))?;
        Ok((id, result, submit, step))
    }
}

impl Workload for AcrdRevisit {
    fn epochs(&self) -> usize {
        self.streams.len()
    }

    fn setup(&mut self, epoch: usize) -> Duration {
        let elapsed;
        ((self.net, self.daemon), elapsed) = Self::fresh();
        self.epoch = epoch;
        self.first_sig.clear();
        elapsed
    }

    fn time_setup(&self) -> Duration {
        Self::fresh().1
    }

    fn len(&self) -> usize {
        self.streams[self.epoch].len()
    }

    /// The pool incident, fresh or revisited: every pass runs each pair
    /// once, in its own order.
    fn job_key(&self, i: usize) -> usize {
        let (p, revisit) = self.streams[self.epoch][i];
        2 * p + usize::from(revisit)
    }

    fn job(&mut self, i: usize, probe: Option<&mut Probe>) -> Job {
        let (p, revisit) = self.streams[self.epoch][i];
        let t = Instant::now();
        let (id, result, submit, step) = match self.serve(p) {
            Ok(r) => r,
            Err(e) => {
                return Job {
                    latency: t.elapsed(),
                    result: Err(e),
                }
            }
        };
        let t_judge = Instant::now();
        let report = result.get("report").cloned().unwrap_or(Value::Null);
        let patch_text = report.get("patch").and_then(Value::as_str).unwrap_or("");
        let patch = parse_patch(patch_text);
        let input = &self.pool[p];
        let (resolved, _) = match &patch {
            Ok(pt) if !pt.is_empty() => judge(&self.net.topo, &input.spec, &input.broken, Some(pt)),
            _ => (false, None),
        };
        let latency = t.elapsed();
        let judge_time = t_judge.elapsed();

        let label = job_label(ACRD_NETWORK, p as u64);
        let mut violations = Vec::new();
        match &patch {
            Ok(pt) if pt.to_string() != patch_text => {
                violations.push(format!("{label}: patch text does not round-trip"))
            }
            Err(e) => violations.push(format!("{label}: unreadable patch '{patch_text}': {e}")),
            Ok(_) => {}
        }
        let work = Work::from_report_json(&report).unwrap_or_else(|e| {
            violations.push(format!("{label}: accounting: {e}"));
            Work::default()
        });
        let sig = self
            .daemon
            .record(&id)
            .map(|r| r.decision_sig.clone())
            .unwrap_or_default();
        let first = self.first_sig.entry(p).or_insert_with(|| sig.clone());
        if *first != sig {
            violations.push(format!("{label}: a revisit changed the repair's decisions"));
        }
        if let Some(pr) = probe {
            let wall_us = report.get("wall_us").and_then(Value::as_num).unwrap_or(0.0);
            pr.stages = Stages::from_spans(
                &acr_obs::trace::take(),
                Duration::from_micros(wall_us as u64),
            );
            pr.work = work;
            pr.judge = judge_time;
            pr.submit = submit;
            pr.step = step;
            pr.resident = matches!(result.get("resident"), Some(Value::Bool(true)));
            pr.revisit = revisit;
        }
        Job {
            latency,
            result: Ok(Verdict {
                resolved,
                overclaimed: result.get("outcome").and_then(Value::as_str) == Some("fixed")
                    && !resolved,
                sig,
                violations,
            }),
        }
    }

    fn input(&self, i: usize) -> (&Topology, &Input) {
        (&self.net.topo, &self.pool[self.streams[self.epoch][i].0])
    }
}

/// Reads a patch back from its display form (`r3: insert @5: <stmt>;
/// r3: delete @7`). Statements print on one line; parsing them in a
/// route-policy context reads every statement the way a device parse
/// does, since that context only decides between the two `apply` forms
/// and `apply traffic-policy` parses the same in every context.
pub fn parse_patch(text: &str) -> Result<Patch, String> {
    let mut patch = Patch::new();
    if text == Patch::new().to_string() {
        return Ok(patch);
    }
    let mut parts: Vec<String> = Vec::new();
    for piece in text.split("; ") {
        match parts.last_mut() {
            Some(last) if !is_edit_start(piece) => {
                last.push_str("; ");
                last.push_str(piece);
            }
            _ => parts.push(piece.to_string()),
        }
    }
    for part in &parts {
        let (router, rest) = part.split_once(": ").ok_or("edit lacks a router")?;
        let router = RouterId(
            router
                .strip_prefix('r')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("bad router '{router}'"))?,
        );
        let (op, rest) = rest.split_once(" @").ok_or("edit lacks an index")?;
        let (index, stmt) = match rest.split_once(": ") {
            Some((i, s)) => (i, Some(s)),
            None => (rest, None),
        };
        let index: usize = index.parse().map_err(|_| format!("bad index '{index}'"))?;
        let stmt = || {
            let s = stmt.ok_or("edit lacks a statement")?;
            parse_stmt(s, Some(BlockKind::RoutePolicy))
        };
        patch.push(match op {
            "insert" => Edit::Insert {
                router,
                index,
                stmt: stmt()?,
            },
            "replace" => Edit::Replace {
                router,
                index,
                stmt: stmt()?,
            },
            "delete" => Edit::Delete { router, index },
            other => return Err(format!("unknown edit '{other}'")),
        });
    }
    Ok(patch)
}

/// Whether `s` begins an edit: `r<digits>: <op> @`.
fn is_edit_start(s: &str) -> bool {
    let Some(rest) = s.strip_prefix('r') else {
        return false;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    digits > 0
        && ["insert @", "delete @", "replace @"].iter().any(|op| {
            rest[digits..]
                .strip_prefix(": ")
                .is_some_and(|r| r.starts_with(op))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revisit_stream_revisits_only_warm_incidents() {
        let stream = revisit_stream(24, 3);
        assert_eq!(stream.len(), 48);
        assert!(!stream[0].1, "the first job is fresh");
        let mut recent: Vec<usize> = Vec::new();
        let (mut fresh, mut revisited) = (BTreeSet::new(), BTreeSet::new());
        for &(p, revisit) in &stream {
            if revisit {
                assert!(recent.contains(&p), "revisit of a cold incident");
                assert!(fresh.contains(&p), "revisit before the fresh job");
                assert!(
                    revisited.insert(p),
                    "an incident is revisited once per pass"
                );
            } else {
                assert!(fresh.insert(p), "an incident is fresh once per pass");
            }
            recent.retain(|&q| q != p);
            recent.insert(0, p);
            recent.truncate(WARM_SLOTS);
        }
        assert_eq!(fresh, (0..24).collect());
        assert_eq!(revisited, fresh);
    }

    #[test]
    fn patches_round_trip_through_their_display_form() {
        let net = wan12();
        let inc = incident_space(&net, 1);
        assert!(!inc.is_empty());
        for (k, input) in inc.iter().enumerate() {
            let report = RepairEngine::new(
                &net.topo,
                &net.spec,
                RepairConfig {
                    seed: k as u64,
                    ..RepairConfig::default()
                },
            )
            .repair(&input.broken);
            let Some(patch) = proposed(&report) else {
                continue;
            };
            let text = patch.to_string();
            assert_eq!(parse_patch(&text).unwrap().to_string(), text);
        }
        assert_eq!(parse_patch("(empty patch)").unwrap(), Patch::new());
        assert!(parse_patch("r1: frobnicate @2").is_err());
    }
}
