//! Self-tests: the timing wrapper changes nothing it measures, and the
//! output checks reject a wrong result.

use crate::checks;
use crate::hostref::{self, HostClock};
use crate::trace::{RouterCounters, RouterTally, Traced};
use crate::workloads::{self, Round};
use mesh_routing::adversary::{GeneralConstruction, GeneralParams};
use mesh_routing::engine::faults::FaultPlan;
use mesh_routing::engine::{AdmissionPolicy, Router, SimConfig, SteadyConfig};
use mesh_routing::routers::{self, FaultAware};
use mesh_routing::topo::Mesh;
use mesh_routing::traffic::workloads::{open_bernoulli, random_permutation};
use std::sync::Arc;

/// Drains a small permutation with and without the wrapper; returns the
/// traced round after checking both fingerprints agree.
fn drain_both<R: Router>(make: impl Fn() -> R) -> Round {
    let n = 16;
    let topo = Mesh::new(n);
    let pb = random_permutation(n, 7);
    let mut plain = Round::default();
    workloads::drain(&topo, &pb, &make, false, &mut HostClock::new(), &mut plain)
        .expect("untraced drain");
    let counters = RouterCounters::default();
    let mut traced = Round::default();
    let traced_make = || Traced::new(make(), &counters);
    workloads::drain(
        &topo,
        &pb,
        traced_make,
        true,
        &mut HostClock::new(),
        &mut traced,
    )
    .expect("traced drain");
    traced.router = counters.tally();
    assert_eq!(plain.fingerprint, traced.fingerprint);
    assert_eq!(traced.step_ns.len() as u64, traced.steps);
    traced
}

fn packed_share(t: &RouterTally) -> f64 {
    t.packed_calls as f64 / (t.outqueue_calls + t.inqueue_calls) as f64
}

#[test]
fn wrapper_is_transparent_on_the_packed_theorem15_path() {
    let r = drain_both(|| routers::theorem15(2));
    assert!(r.router.outqueue_calls > 0 && r.router.inqueue_calls > 0);
    assert_eq!(packed_share(&r.router), 1.0);
    assert_eq!(r.router.arrivals_accepted, r.moves);
}

#[test]
fn wrapper_is_transparent_on_the_hot_potato_view_path() {
    let r = drain_both(|| routers::hot_potato(16));
    assert_eq!(packed_share(&r.router), 0.0);
    assert!(r.router.end_of_step_calls > 0);
    assert_eq!(r.router.arrivals_accepted, r.moves);
}

#[test]
fn wrapper_is_transparent_on_fault_aware_with_a_fault_plan() {
    let n = 16;
    let schedule = SteadyConfig {
        warmup: 32,
        window: 16,
        windows: 4,
    };
    let pb = open_bernoulli(n, 0.05, schedule.horizon(), 3);
    let plan = FaultPlan::random(n, 0.1, 4 * n as u64, 5);
    assert!(!plan.is_empty());
    let faults = Arc::new(plan.compile());
    let config = SimConfig {
        admission: AdmissionPolicy::DeadlineExpiry { ttl: 4 * n as u64 },
        ..SimConfig::default()
    };
    let make = || FaultAware::new(routers::theorem15(2), Arc::clone(&faults));
    let mut plain = Round::default();
    workloads::steady(
        &pb,
        make,
        config,
        &faults,
        schedule,
        &mut HostClock::new(),
        &mut plain,
    )
    .expect("untraced steady run");
    let counters = RouterCounters::default();
    let mut traced = Round::default();
    let traced_make = || Traced::new(make(), &counters);
    workloads::steady(
        &pb,
        traced_make,
        config,
        &faults,
        schedule,
        &mut HostClock::new(),
        &mut traced,
    )
    .expect("traced steady run");
    assert_eq!(plain.fingerprint, traced.fingerprint);
    let tally = counters.tally();
    assert!(tally.outqueue_calls > 0);
    assert_eq!(packed_share(&tally), 0.0);
}

#[test]
fn wrapper_is_transparent_on_every_adversary_victim() {
    let cons = GeneralConstruction::new(GeneralParams::hh(216, 1, 1).expect("valid parameters"));
    let topo = Mesh::new(216);
    for victim in workloads::VICTIMS {
        let plain = workloads::construct(victim, &cons, &topo, None, true, &mut HostClock::new())
            .unwrap_or_else(|e| panic!("{victim}: {e}"));
        let counters = RouterCounters::default();
        let traced = workloads::construct(
            victim,
            &cons,
            &topo,
            Some(&counters),
            false,
            &mut HostClock::new(),
        )
        .unwrap_or_else(|e| panic!("{victim}: {e}"));
        assert_eq!(plain.fingerprint, traced.fingerprint, "{victim}");
        assert!(counters.tally().outqueue_calls > 0, "{victim}");
        let replay = plain.replay.expect("verified");
        assert_eq!(replay.steps, plain.bound_steps, "{victim}");
    }
}

/// The recorded known defect still reproduces. When the construction is
/// fixed this fails: drop the entry from `checks::KNOWN_DEFECTS` then.
#[test]
fn theorem15_victim_at_n432_is_still_a_known_defect() {
    let n = workloads::ADVERSARY_N;
    let cons = GeneralConstruction::new(GeneralParams::hh(n, 1, 1).expect("valid parameters"));
    let topo = Mesh::new(n);
    let err = std::panic::catch_unwind(|| {
        workloads::construct(
            "theorem15",
            &cons,
            &topo,
            None,
            false,
            &mut HostClock::new(),
        )
    })
    .err()
    .expect("the construction panics");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        checks::is_known_defect("adversary-lb", "theorem15", &msg),
        "{msg}"
    );
}

#[test]
fn output_checks_reject_a_run_faster_than_its_floors() {
    let topo = Mesh::new(16);
    let pb = random_permutation(16, 7);
    let mut round = Round::default();
    workloads::drain(
        &topo,
        &pb,
        || routers::theorem15(2),
        false,
        &mut HostClock::new(),
        &mut round,
    )
    .expect("drain");
    let mut report = round.report.expect("report");
    assert!(checks::check_drain(&report, &pb).is_ok());
    report.steps = pb.diameter_bound() as u64 - 1;
    assert!(checks::check_drain(&report, &pb).is_err());
    report.steps = u64::MAX;
    report.delivered -= 1;
    assert!(checks::check_drain(&report, &pb).is_err());
}

#[test]
fn the_cut_floor_counts_every_crossing() {
    // The left half of a 4x4 mesh moves two columns east: all 8 packets
    // cross the middle cut over its 4 eastward links, so 2 steps at least.
    use mesh_routing::topo::Coord;
    let n = 4;
    let pairs = (0..2).flat_map(|x| (0..n).map(move |y| (Coord::new(x, y), Coord::new(x + 2, y))));
    let pb = mesh_routing::traffic::RoutingProblem::from_pairs(n, "half-shift", pairs);
    assert_eq!(checks::cut_floor(&pb), 2);
}

#[test]
fn the_host_reference_kernel_moves_every_packet_its_l1_distance() {
    let n = hostref::N;
    let l1: u64 = hostref::permutation()
        .iter()
        .enumerate()
        .map(|(src, &dst)| {
            let (src, dst) = (src, dst as usize);
            (src % n).abs_diff(dst % n) as u64 + (src / n).abs_diff(dst / n) as u64
        })
        .sum();
    assert!(l1 > 0);
    let mut kernel = hostref::Kernel::new();
    assert_eq!(kernel.drain(), l1);
    // State is reset between drains.
    assert_eq!(kernel.drain(), l1);
}
