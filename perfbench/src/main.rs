//! The repository benchmark: one workload per invocation, timed from
//! outside through the crates' public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed-theorem15 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! A run sets the workload up and runs it round after round: one discarded
//! warm-up round, then rounds until `--seconds` have passed. Every round's
//! outputs are checked. With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it alternates untraced rounds with rounds whose router
//! is wrapped in the timing [`trace::Traced`] wrapper, and prints the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod hostref;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use hostref::HostClock;
use mesh_routing::engine::SimReport;
use std::process::exit;
use std::time::{Duration, Instant};
use trace::{RouterCounters, RouterTally};
use workloads::{median, Bench, Round, Workload};

const USAGE: &str = "usage: mesh-perfbench --workload <closed-theorem15|closed-hotpotato|open-faults|adversary-lb> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ClosedTheorem15,
        seed: checks::DEFAULT_SEED,
        seconds: 15,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Nearest-rank percentile of `v` (0 when empty).
fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ordered `(name, value, unit)` rows of one run's result.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

/// Simulated steps per host-adjusted second of the round, in thousands.
fn ksteps_per_s(r: &Round) -> f64 {
    r.steps as f64 / r.adjusted_s / 1e3
}

/// The same from the raw, unadjusted time of the round.
fn raw_ksteps_per_s(r: &Round) -> f64 {
    r.steps as f64 / r.run_s / 1e3
}

/// The end-to-end metrics of the untraced rounds.
fn end_to_end(rounds: &[&Round], m: &mut Metrics) {
    let timed: Vec<&&Round> = rounds.iter().filter(|r| r.timed()).collect();
    m.put(
        "setup_s",
        median(rounds.iter().map(|r| r.setup_s()).collect()),
        "s",
    );
    m.put(
        "ksteps_per_s",
        median(timed.iter().map(|r| ksteps_per_s(r)).collect()),
        "ksteps/s",
    );
    m.put(
        "mmoves_per_s",
        median(
            timed
                .iter()
                .map(|r| r.moves as f64 / r.adjusted_s / 1e6)
                .collect(),
        ),
        "Mmoves/s",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// The per-layer metrics of a traced run.
fn per_layer(plain: &[&Round], traced: &[&Round], host_samples: &[f64], m: &mut Metrics) {
    let all: Vec<&Round> = plain.iter().chain(traced).copied().collect();
    let med = |f: &dyn Fn(&Round) -> f64| median(traced.iter().map(|r| f(r)).collect());
    // Counts repeat exactly from round to round (checked); take the last.
    let last = traced.last().copied().cloned().unwrap_or_default();
    let rep = |f: fn(&SimReport) -> f64| last.report.as_ref().map_or(0.0, f);
    let tally: RouterTally = last.router;

    m.put(
        "traffic.gen_s",
        median(all.iter().map(|r| r.gen_s).collect()),
        "s",
    );
    m.put("traffic.packets", last.packets as f64, "count");
    m.put(
        "faults.compile_s",
        median(all.iter().map(|r| r.compile_s).collect()),
        "s",
    );
    m.put(
        "engine.build_s",
        median(all.iter().map(|r| r.build_s).collect()),
        "s",
    );

    let self_s = |r: &Round| r.run_s - r.router.ns() as f64 / 1e9;
    m.put("engine.run_s", med(&|r| r.run_s), "s");
    m.put("engine.self_s", med(&self_s), "s");
    m.put(
        "engine.ns_per_move",
        med(&|r| ratio(self_s(r) * 1e9, r.moves as f64)),
        "ns",
    );
    let mut steps: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.step_ns.iter().copied())
        .collect();
    m.put(
        "engine.step_p50_us",
        percentile(&mut steps, 50.0) as f64 / 1e3,
        "us",
    );
    m.put(
        "engine.step_p99_us",
        percentile(&mut steps, 99.0) as f64 / 1e3,
        "us",
    );
    m.put("engine.step_samples", steps.len() as f64, "count");
    m.put("engine.steps", rep(|r| r.steps as f64), "count");
    m.put("engine.moves", rep(|r| r.total_moves as f64), "count");
    m.put("engine.delivered", rep(|r| r.delivered as f64), "count");
    m.put("engine.expired", rep(|r| r.expired as f64), "count");
    m.put("engine.shed", rep(|r| r.shed as f64), "count");
    m.put(
        "engine.deferred_injections",
        rep(|r| r.deferred_injections as f64),
        "count",
    );
    m.put("engine.max_queue", rep(|r| r.max_queue as f64), "count");
    m.put(
        "engine.max_node_load",
        rep(|r| r.max_node_load as f64),
        "count",
    );

    m.put(
        "routers.outqueue_s",
        med(&|r| r.router.outqueue_ns as f64 / 1e9),
        "s",
    );
    m.put(
        "routers.outqueue_calls",
        tally.outqueue_calls as f64,
        "count",
    );
    m.put(
        "routers.residents_seen",
        tally.residents_seen as f64,
        "count",
    );
    m.put(
        "routers.moves_scheduled",
        tally.moves_scheduled as f64,
        "count",
    );
    m.put(
        "routers.schedule_ratio",
        ratio(tally.moves_scheduled as f64, tally.residents_seen as f64),
        "ratio",
    );
    m.put(
        "routers.inqueue_s",
        med(&|r| r.router.inqueue_ns as f64 / 1e9),
        "s",
    );
    m.put("routers.inqueue_calls", tally.inqueue_calls as f64, "count");
    m.put(
        "routers.arrivals_offered",
        tally.arrivals_offered as f64,
        "count",
    );
    m.put(
        "routers.arrivals_accepted",
        tally.arrivals_accepted as f64,
        "count",
    );
    m.put(
        "routers.accept_ratio",
        ratio(
            tally.arrivals_accepted as f64,
            tally.arrivals_offered as f64,
        ),
        "ratio",
    );
    m.put(
        "routers.end_of_step_s",
        med(&|r| r.router.end_of_step_ns as f64 / 1e9),
        "s",
    );
    m.put(
        "routers.end_of_step_calls",
        tally.end_of_step_calls as f64,
        "count",
    );
    m.put(
        "routers.packed_share",
        ratio(
            tally.packed_calls as f64,
            (tally.outqueue_calls + tally.inqueue_calls) as f64,
        ),
        "ratio",
    );
    m.put(
        "routers.ns_per_call",
        med(&|r| ratio(r.router.ns() as f64, r.router.calls() as f64)),
        "ns",
    );

    let adv = last.adversary.clone().unwrap_or_default();
    for victim in workloads::VICTIMS {
        let times: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.adversary.as_ref())
            .flat_map(|a| {
                a.construct_s
                    .iter()
                    .filter(|(v, _)| *v == victim)
                    .map(|&(_, s)| s)
            })
            .collect();
        m.put(
            format!("adversary.construct_s.{victim}"),
            median(times),
            "s",
        );
    }
    let nonrouter = |r: &Round| {
        if r.adversary.is_some() {
            self_s(r)
        } else {
            0.0
        }
    };
    m.put("adversary.nonrouter_s", med(&nonrouter), "s");
    m.put("adversary.exchanges", adv.exchanges as f64, "count");
    m.put(
        "adversary.exchanges_per_step",
        ratio(adv.exchanges as f64, last.steps as f64),
        "1/step",
    );
    m.put(
        "adversary.undelivered_at_bound",
        adv.undelivered_at_bound as f64,
        "count",
    );
    m.put("adversary.bound_steps", adv.bound_steps as f64, "steps");

    let st = last.steady.clone().unwrap_or_default();
    m.put("steady.offered", st.offered as f64, "count");
    m.put("steady.delivered", st.delivered as f64, "count");
    m.put("steady.expired", st.expired as f64, "count");
    m.put("steady.goodput", st.goodput, "pkts/step");
    m.put("steady.latency_p50_steps", st.latency_p50 as f64, "steps");
    m.put("steady.latency_p99_steps", st.latency_p99 as f64, "steps");
    m.put("steady.latency_samples", st.latency_samples as f64, "count");

    let rate = |rs: &[&Round]| {
        median(
            rs.iter()
                .filter(|r| r.timed())
                .map(|r| ksteps_per_s(r))
                .collect(),
        )
    };
    m.put(
        "trace.overhead_frac",
        1.0 - ratio(rate(traced), rate(plain)),
        "ratio",
    );
    m.put("host.ref_s", median(host_samples.to_vec()), "s");
    m.put(
        "host.raw_ksteps_per_s",
        median(
            plain
                .iter()
                .filter(|r| r.timed())
                .map(|r| raw_ksteps_per_s(r))
                .collect(),
        ),
        "ksteps/s",
    );
}

/// Checks each round against the first and against the recorded
/// fingerprint, recording mismatches as failed operations.
fn check_repeats(workload: Workload, seed: u64, rounds: &mut [Round]) {
    let expected = checks::expected(workload.name(), seed).map(str::to_string);
    let Some(first) = rounds
        .iter()
        .find(|r| r.timed())
        .map(|r| r.fingerprint.clone())
    else {
        return;
    };
    let first_tally = rounds.iter().find(|r| r.traced).map(|r| r.router.counts());
    for r in rounds.iter_mut().filter(|r| r.timed()) {
        let want = expected.as_deref().unwrap_or(&first);
        if r.fingerprint != want {
            let msg = format!("fingerprint\n  got:  {}\n  want: {want}", r.fingerprint);
            r.failures.push(("fingerprint".into(), msg));
        } else if r.traced && Some(r.router.counts()) != first_tally {
            let msg = format!("router counts {:?} != {:?}", r.router.counts(), first_tally);
            r.failures.push(("router-counts".into(), msg));
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let name = args.workload.name();
    // Caught panics are failed operations, reported with their message
    // below; print each one once, without a backtrace.
    std::panic::set_hook(Box::new(move |info| eprintln!("{name}: panic: {info}")));
    let mut bench = Bench::new(args.workload, args.seed);

    // Host-speed samples between timed segments (`hostref`).
    let mut clock = HostClock::new();
    // The first round in a process runs markedly slower (fresh pages,
    // cold caches): it is checked, then left out of every metric.
    let mut rounds = vec![bench.round(None, &mut clock)];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (0usize, 0usize);
    while start.elapsed() < budget || plain == 0 || (args.trace && traced == 0) {
        let round = if args.trace && plain > traced {
            let counters = RouterCounters::default();
            traced += 1;
            bench.round(Some(&counters), &mut clock)
        } else {
            plain += 1;
            bench.round(None, &mut clock)
        };
        rounds.push(round);
    }
    check_repeats(args.workload, args.seed, &mut rounds);

    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failures: Vec<&(String, String)> = rounds.iter().flat_map(|r| &r.failures).collect();
    let mut correct = true;
    for (op, msg) in &failures {
        let known = checks::is_known_defect(name, op, msg);
        correct &= known;
        let tag = if known { "known defect" } else { "FAILED" };
        eprintln!("{name}: {tag}: {op}: {msg}");
    }

    let measured = &rounds[1..];
    let plain: Vec<&Round> = measured.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = measured.iter().filter(|r| r.traced).collect();
    let mut m = Metrics::default();
    if args.trace {
        per_layer(&plain, &traced, &clock.samples, &mut m);
    } else {
        end_to_end(&plain, &mut m);
    }

    println!(
        "{name} seed={} rounds={} (+1 warm-up) traced={}",
        args.seed,
        measured.len(),
        traced.len()
    );
    if let Some(r) = measured.iter().find(|r| r.timed()) {
        println!("  fingerprint: {}", r.fingerprint);
    }
    let rates: Vec<String> = rounds
        .iter()
        .map(|r| {
            let tag = if r.traced { "T" } else { "" };
            format!("{tag}{:.4}/{:.4}", ksteps_per_s(r), raw_ksteps_per_s(r))
        })
        .collect();
    println!(
        "  ksteps/s adjusted/raw by round (first is warm-up): {}",
        rates.join(" ")
    );
    for (k, v, unit) in &m.0 {
        println!("  {k:<36} {v:>16.6} {unit}");
    }
    println!(
        "  operations attempted {attempted}, failed {}",
        failures.len()
    );
    let fields: Vec<String> =
        m.0.iter()
            .map(|(k, v, unit)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.len(),
        fields.join(", ")
    );
}
