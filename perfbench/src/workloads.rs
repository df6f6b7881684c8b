//! The benchmark workloads, each driven through the crates' public API.
//! One call of [`Bench::round`] sets a workload up from its seed and runs
//! it once; the caller times rounds and turns them into metrics.

use crate::checks::{self, ensure};
use crate::hostref::HostClock;
use crate::trace::{RouterCounters, RouterTally, Traced};
use mesh_routing::adversary::{verify_lower_bound, GeneralConstruction, GeneralParams};
use mesh_routing::engine::faults::{CompiledFaults, FaultPlan};
use mesh_routing::engine::{
    AdmissionPolicy, Router, Sim, SimConfig, SimReport, SteadyConfig, WindowFrame,
};
use mesh_routing::routers::{self, FaultAware};
use mesh_routing::topo::Mesh;
use mesh_routing::traffic::{workloads, RoutingProblem};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 15 router (k=2, per-inlink queues) draining a full random
    /// permutation of the 256×256 mesh: the packed fast path.
    ClosedTheorem15,
    /// The same permutation under hot-potato deflection: the view path,
    /// with an `end_of_step` call per node. Run by hand only: it is not in
    /// `BENCHMARK.json`, being too unsteady on the measuring host
    /// (`NOTES.md`).
    ClosedHotPotato,
    /// Bernoulli injection at λ=0.02 on the 64×64 mesh, fault-aware
    /// Theorem 15 over a 5% random fault plan, deadline admission,
    /// measured in steady windows.
    OpenFaults,
    /// The §3 lower-bound construction at n=432, k=1, against three
    /// victims.
    AdversaryLb,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::ClosedTheorem15,
    Workload::ClosedHotPotato,
    Workload::OpenFaults,
    Workload::AdversaryLb,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedTheorem15 => "closed-theorem15",
            Workload::ClosedHotPotato => "closed-hotpotato",
            Workload::OpenFaults => "open-faults",
            Workload::AdversaryLb => "adversary-lb",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }
}

/// Mesh side of the closed drains.
pub const CLOSED_N: u32 = 256;
/// Mesh side, offered load and schedule of `open-faults`.
pub const OPEN_N: u32 = 64;
pub const OPEN_LAMBDA: f64 = 0.02;
pub const OPEN_SCHEDULE: SteadyConfig = SteadyConfig {
    warmup: 4 * OPEN_N as u64,
    window: 128,
    windows: 6,
};
pub const OPEN_FAULT_DENSITY: f64 = 0.05;
/// Mesh side and queue size of `adversary-lb`, and its victims.
pub const ADVERSARY_N: u32 = 432;
pub const ADVERSARY_K: u32 = 1;
pub const VICTIMS: [&str; 3] = ["dim-order", "alt-adaptive", "theorem15"];

/// Derives an independent input seed for one purpose from the run seed.
fn derive(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Median of `v` (0 when empty); the mean of the middle two for even
/// counts.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Set-up steps take milliseconds, where one timing is noisy: each runs
/// this many times per round and reports its median.
const SETUP_REPEATS: usize = 5;

/// Runs `f` [`SETUP_REPEATS`] times; returns its last result and the median
/// host time. Each earlier result is dropped before the next run starts,
/// so the repeats add no peak memory.
fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut out = None;
    for _ in 0..SETUP_REPEATS {
        drop(out.take());
        let t = Instant::now();
        out = Some(f());
        times.push(secs(t));
    }
    (out.expect("SETUP_REPEATS > 0"), median(times))
}

/// Everything one round measured and produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Operations run, and the failure message of each one that failed.
    pub ops: u64,
    pub failures: Vec<(String, String)>,
    /// Set-up: workload generation, fault compilation, `Sim` construction.
    pub gen_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
    pub packets: u64,
    /// Timed region, and the simulated work done in it, over the
    /// operations that completed.
    pub run_s: f64,
    /// The timed region rescaled segment by segment to the nominal host
    /// speed (`hostref`); the end-to-end rates are taken from it.
    pub adjusted_s: f64,
    pub steps: u64,
    pub moves: u64,
    pub report: Option<SimReport>,
    /// Host time of each `Sim::step` call (traced closed drains only).
    pub step_ns: Vec<u64>,
    pub router: RouterTally,
    pub steady: Option<SteadyTotals>,
    pub adversary: Option<AdversaryTotals>,
    pub fingerprint: String,
}

impl Round {
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.compile_s + self.build_s
    }

    /// Whether some operation completed its checks, so the timed region
    /// holds simulated work.
    pub fn timed(&self) -> bool {
        self.steps > 0 && self.run_s > 0.0 && self.adjusted_s > 0.0
    }

    fn fail(&mut self, op: &str, msg: String) {
        self.failures.push((op.to_string(), msg));
    }
}

/// Steady-window results of `open-faults`, summed over its windows.
#[derive(Clone, Debug, Default)]
pub struct SteadyTotals {
    pub offered: u64,
    pub delivered: u64,
    pub expired: u64,
    pub goodput: f64,
    pub latency_p50: u64,
    pub latency_p99: u64,
    pub latency_samples: u64,
}

/// Per-round results of `adversary-lb` over the victims that completed.
#[derive(Clone, Debug, Default)]
pub struct AdversaryTotals {
    /// Host time of each completed construction, by victim.
    pub construct_s: Vec<(&'static str, f64)>,
    pub exchanges: u64,
    pub undelivered_at_bound: u64,
    pub bound_steps: u64,
}

/// Runs `$body` with `$make` bound to the router factory `$factory`,
/// whose routers are wrapped in [`Traced`] when `$counters` is `Some`.
macro_rules! maybe_traced {
    ($counters:expr, $factory:expr, |$make:ident| $body:expr) => {
        match $counters {
            Some(c) => {
                let $make = || Traced::new(($factory)(), c);
                $body
            }
            None => {
                let $make = $factory;
                $body
            }
        }
    };
}

/// The message of a caught panic.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic without a message".to_string())
}

/// One workload at one seed, run round after round.
pub struct Bench {
    workload: Workload,
    seed: u64,
    /// The Lemma 12 replay report of each adversary victim, filled by the
    /// first round that completes it: the construction's outcome carries no
    /// engine counts, and the replay repeats its execution exactly.
    replays: Vec<(&'static str, SimReport)>,
}

impl Bench {
    pub fn new(workload: Workload, seed: u64) -> Bench {
        Bench {
            workload,
            seed,
            replays: Vec::new(),
        }
    }

    /// Sets the workload up and runs it once, sampling the host on `clock`
    /// between timed segments. With `counters`, every router call is timed
    /// and counted through [`Traced`]. Panics and errors are caught and
    /// recorded as failed operations.
    pub fn round(&mut self, counters: Option<&RouterCounters>, clock: &mut HostClock) -> Round {
        let mut round = Round {
            traced: counters.is_some(),
            ..Round::default()
        };
        match self.workload {
            Workload::ClosedTheorem15 | Workload::ClosedHotPotato => {
                self.closed(counters, clock, &mut round)
            }
            Workload::OpenFaults => self.open(counters, clock, &mut round),
            Workload::AdversaryLb => self.adversary(counters.is_some(), clock, &mut round),
        }
        round
    }

    fn closed(&self, counters: Option<&RouterCounters>, clock: &mut HostClock, round: &mut Round) {
        round.ops = 1;
        let seed = derive(self.seed, 1);
        let (pb, gen_s) = timed_setup(|| workloads::random_permutation(CLOSED_N, seed));
        round.gen_s = gen_s;
        round.packets = pb.len() as u64;
        let topo = Mesh::new(CLOSED_N);
        let timed_steps = counters.is_some();
        guarded(round, self.workload.name(), |round| match self.workload {
            Workload::ClosedTheorem15 => {
                maybe_traced!(counters, || routers::theorem15(2), |make| {
                    drain(&topo, &pb, make, timed_steps, clock, round)
                })
            }
            _ => maybe_traced!(counters, || routers::hot_potato(CLOSED_N), |make| {
                drain(&topo, &pb, make, timed_steps, clock, round)
            }),
        });
        round.router = counters.map(RouterCounters::tally).unwrap_or_default();
    }

    fn open(&self, counters: Option<&RouterCounters>, clock: &mut HostClock, round: &mut Round) {
        round.ops = 1;
        let schedule = OPEN_SCHEDULE;
        let (arrivals, plan) = (derive(self.seed, 2), derive(self.seed, 3));
        let (pb, gen_s) = timed_setup(|| {
            workloads::open_bernoulli(OPEN_N, OPEN_LAMBDA, schedule.horizon(), arrivals)
        });
        round.gen_s = gen_s;
        round.packets = pb.len() as u64;
        // Faults strike in the first 4n steps, as in the overload
        // experiment's fault-aware row; the windows measure the recovery.
        let (faults, compile_s) = timed_setup(|| {
            FaultPlan::random(OPEN_N, OPEN_FAULT_DENSITY, 4 * OPEN_N as u64, plan).compile()
        });
        round.compile_s = compile_s;
        let faults = Arc::new(faults);
        let config = SimConfig {
            admission: AdmissionPolicy::DeadlineExpiry {
                ttl: 4 * OPEN_N as u64,
            },
            watchdog: Some(4 * schedule.window),
            ..SimConfig::default()
        };
        let router = || FaultAware::new(routers::theorem15(2), Arc::clone(&faults));
        guarded(round, "open-faults", |round| {
            maybe_traced!(counters, router, |make| {
                steady(&pb, make, config, &faults, schedule, clock, round)
            })
        });
        round.router = counters.map(RouterCounters::tally).unwrap_or_default();
    }

    /// With `traced`, each victim gets its own counters, and only the
    /// victims that complete add to the round's router tally.
    fn adversary(&mut self, traced: bool, clock: &mut HostClock, round: &mut Round) {
        let ((cons, pb), gen_s) = timed_setup(|| {
            let params = GeneralParams::hh(ADVERSARY_N, ADVERSARY_K, 1)
                .expect("n=432, k=1 are valid construction parameters");
            let cons = GeneralConstruction::new(params);
            let pb = cons.initial_problem();
            (cons, pb)
        });
        round.gen_s = gen_s;
        round.packets = pb.len() as u64;
        let topo = Mesh::new(ADVERSARY_N);
        // The engine the construction builds before its first step.
        let (_, build_s) = timed_setup(|| Sim::new(&topo, routers::dim_order(ADVERSARY_K), &pb));
        round.build_s = build_s;

        let mut totals = AdversaryTotals::default();
        let mut reports = Vec::new();
        for victim in VICTIMS {
            round.ops += 1;
            let verify = !self.replays.iter().any(|(v, _)| *v == victim);
            let counters = traced.then(RouterCounters::default);
            let mut done = None;
            guarded(round, victim, |_| {
                done = Some(construct(
                    victim,
                    &cons,
                    &topo,
                    counters.as_ref(),
                    verify,
                    clock,
                )?);
                Ok(())
            });
            let Some(done) = done else {
                continue;
            };
            if let Some(c) = &counters {
                round.router.add(&c.tally());
            }
            if let Some(replay) = done.replay {
                self.replays.push((victim, replay));
            }
            let (_, replay) = self
                .replays
                .iter()
                .find(|(v, _)| *v == victim)
                .expect("a completed victim has a verified replay");
            reports.push(replay.clone());
            round.run_s += done.construct_s;
            round.adjusted_s += done.adjusted_s;
            round.steps += done.bound_steps;
            round.moves += replay.total_moves;
            totals.construct_s.push((victim, done.construct_s));
            totals.exchanges += done.exchanges;
            totals.undelivered_at_bound += done.undelivered as u64;
            totals.bound_steps = done.bound_steps;
            if !round.fingerprint.is_empty() {
                round.fingerprint.push(' ');
            }
            round.fingerprint += &format!("{victim}: {}", done.fingerprint);
        }
        round.adversary = Some(totals);
        round.report = merge_reports(&reports);
    }
}

/// Runs one operation, recording an error or a caught panic as its
/// failure.
fn guarded(round: &mut Round, op: &str, f: impl FnOnce(&mut Round) -> Result<(), String>) {
    match catch_unwind(AssertUnwindSafe(|| f(round))) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => round.fail(op, e),
        Err(p) => round.fail(op, panic_message(p)),
    }
}

/// Runs an open problem through its steady schedule on the `pb.n` mesh and
/// checks the result.
pub(crate) fn steady<R: Router>(
    pb: &RoutingProblem,
    make: impl Fn() -> R,
    config: SimConfig,
    faults: &CompiledFaults,
    schedule: SteadyConfig,
    clock: &mut HostClock,
    round: &mut Round,
) -> Result<(), String> {
    let topo = Mesh::new(pb.n);
    let (mut sim, build_s) =
        timed_setup(|| Sim::with_faults(&topo, make(), pb, config, faults.clone()));
    round.build_s = build_s;
    let t = Instant::now();
    let steady = sim.run_steady(schedule).map_err(|e| e.to_string())?;
    round.run_s = secs(t);
    round.adjusted_s = clock.adjust(round.run_s);
    checks::check_sim(&sim)?;
    let report = sim.report();
    ensure(report.steps == schedule.horizon(), || {
        format!("ran {} of {} steps", report.steps, schedule.horizon())
    })?;
    round.steps = report.steps;
    round.moves = report.total_moves;
    round.fingerprint = format!(
        "{} {}",
        checks::report_fingerprint(&report),
        checks::steady_fingerprint(&steady)
    );
    let sum = |f: fn(&WindowFrame) -> u64| steady.frames.iter().map(f).sum::<u64>();
    round.steady = Some(SteadyTotals {
        offered: sum(|f| f.offered),
        delivered: sum(|f| f.delivered),
        expired: sum(|f| f.expired),
        goodput: steady.goodput(),
        latency_p50: steady.latency.p50,
        latency_p99: steady.latency.p99,
        latency_samples: steady.latency.count as u64,
    });
    round.report = Some(report);
    Ok(())
}

/// Steps of a drain timed between two host samples: about half a second
/// at n=256, so a round of `closed-theorem15` holds eight segments. Shorter
/// segments follow the host more closely but spend more time sampling.
const SEGMENT_STEPS: u64 = 64;

/// Drains a closed problem to completion and checks the result.
pub(crate) fn drain<R: Router>(
    topo: &Mesh,
    pb: &RoutingProblem,
    make: impl Fn() -> R,
    timed_steps: bool,
    clock: &mut HostClock,
    round: &mut Round,
) -> Result<(), String> {
    // Generous: every router here drains a permutation well inside 8·n.
    let cap = 64 * pb.n as u64;
    let (mut sim, build_s) =
        timed_setup(|| Sim::with_config(topo, make(), pb, SimConfig::default()));
    round.build_s = build_s;
    let mut segment = Instant::now();
    loop {
        let step_start = timed_steps.then(Instant::now);
        let done = sim.step();
        if let Some(s) = step_start {
            round.step_ns.push(s.elapsed().as_nanos() as u64);
        }
        if done || sim.steps() % SEGMENT_STEPS == 0 {
            let raw = secs(segment);
            round.run_s += raw;
            round.adjusted_s += clock.adjust(raw);
            segment = Instant::now();
        }
        if done {
            break;
        }
        if sim.steps() >= cap {
            return Err(format!("not drained after {cap} steps"));
        }
    }
    checks::check_sim(&sim)?;
    let report = sim.report();
    checks::check_drain(&report, pb)?;
    round.steps = report.steps;
    round.moves = report.total_moves;
    round.fingerprint = checks::report_fingerprint(&report);
    round.report = Some(report);
    Ok(())
}

/// One completed construction.
pub(crate) struct Constructed {
    pub construct_s: f64,
    /// `construct_s` rescaled to the nominal host speed.
    pub adjusted_s: f64,
    pub bound_steps: u64,
    pub exchanges: u64,
    pub undelivered: usize,
    pub fingerprint: String,
    /// The Lemma 12 replay's report, when this construction was verified.
    pub replay: Option<SimReport>,
}

/// Runs the §3 construction against the named victim.
pub(crate) fn construct(
    victim: &str,
    cons: &GeneralConstruction,
    topo: &Mesh,
    counters: Option<&RouterCounters>,
    verify: bool,
    clock: &mut HostClock,
) -> Result<Constructed, String> {
    let k = cons.params.k;
    let (c, v) = (counters, verify);
    match victim {
        "dim-order" => construct_with(cons, topo, c, v, clock, || routers::dim_order(k)),
        "alt-adaptive" => construct_with(cons, topo, c, v, clock, || routers::alt_adaptive(k)),
        "theorem15" => construct_with(cons, topo, c, v, clock, || routers::theorem15(k)),
        other => Err(format!("unknown victim '{other}'")),
    }
}

/// Runs the §3 construction against the victim `make` builds, with
/// Lemmas 1–8 checked after every step. With `verify`, it also replays the
/// constructed permutation without the adversary (Lemma 12 and
/// Theorem 13), untimed.
fn construct_with<R: Router>(
    cons: &GeneralConstruction,
    topo: &Mesh,
    counters: Option<&RouterCounters>,
    verify: bool,
    clock: &mut HostClock,
    make: impl Fn() -> R,
) -> Result<Constructed, String> {
    let t = Instant::now();
    let outcome = maybe_traced!(counters, &make, |traced| cons.run(topo, traced(), true));
    let construct_s = secs(t);
    let adjusted_s = clock.adjust(construct_s);
    ensure(outcome.undelivered_at_bound > 0, || {
        "no packet undelivered at the bound (Corollary 9)".to_string()
    })?;
    let replay = if verify {
        let v = verify_lower_bound(topo, make(), &outcome, None);
        ensure(v.replay_matches_construction, || {
            "replay of the constructed permutation diverges (Lemma 12)".to_string()
        })?;
        ensure(
            v.undelivered_at_bound == outcome.undelivered_at_bound,
            || {
                format!(
                    "replay leaves {} undelivered, construction {}",
                    v.undelivered_at_bound, outcome.undelivered_at_bound
                )
            },
        )?;
        Some(v.replay)
    } else {
        None
    };
    let snapshot = checks::fnv1a(format!("{:?}", outcome.final_snapshot).as_bytes());
    Ok(Constructed {
        construct_s,
        adjusted_s,
        bound_steps: outcome.bound_steps,
        exchanges: outcome.exchanges,
        undelivered: outcome.undelivered_at_bound,
        fingerprint: format!(
            "bound={} packets={} exchanges={} undelivered={} snapshot={snapshot:016x}",
            outcome.bound_steps,
            outcome.constructed.len(),
            outcome.exchanges,
            outcome.undelivered_at_bound
        ),
        replay,
    })
}

/// The engine counts of several replays: sums, and maxima for the peaks.
fn merge_reports(reports: &[SimReport]) -> Option<SimReport> {
    let mut it = reports.iter();
    let mut acc = it.next()?.clone();
    for r in it {
        acc.steps += r.steps;
        acc.total_moves += r.total_moves;
        acc.delivered += r.delivered;
        acc.expired += r.expired;
        acc.shed += r.shed;
        acc.deferred_injections += r.deferred_injections;
        acc.max_queue = acc.max_queue.max(r.max_queue);
        acc.max_node_load = acc.max_node_load.max(r.max_node_load);
    }
    Some(acc)
}
