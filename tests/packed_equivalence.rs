//! Differential battery for the bit-packed router fast path: a
//! mask-capable router's packed policies (`outqueue_packed` /
//! `inqueue_packed` over `PackedView` descriptors and per-slot occupancy
//! counts) must make **identical** decisions to its per-packet-view
//! policies. The oracle is the router itself behind a wrapper that reports
//! `mask_capable() == false`, forcing the engine down the view path — so
//! both sims run the same policy logic and differ only in the hot-path
//! representation. Any divergence in per-step event streams, packet
//! trajectories, reports, or diagnostics is a fast-path bug.
//!
//! Coverage axes: all three mask-capable routers × random workloads
//! (static partial permutations and dynamic Bernoulli) × every admission
//! policy × random fault plans (stalls, link faults, queue degradation —
//! exercising the engine-side acceptance clamp shared by both paths).

use mesh_routing::engine::{Arrival, DxView, QueueArch};
use mesh_routing::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Forces the per-packet-view slow path for any inner router by inheriting
/// the trait default `mask_capable() == false` (and `uses_end_of_step() ==
/// true`, so the oracle also runs the UpdateState pass the fast path skips
/// for no-op routers — proving the skip is an identity).
struct ViewOracle<R>(R);

impl<R: DxRouter> DxRouter for ViewOracle<R> {
    type NodeState = R::NodeState;

    fn name(&self) -> String {
        self.0.name()
    }

    fn queue_arch(&self) -> QueueArch {
        self.0.queue_arch()
    }

    fn is_minimal(&self) -> bool {
        self.0.is_minimal()
    }

    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[DxView],
        out: &mut [Option<usize>; 4],
    ) {
        self.0.outqueue(step, node, state, pkts, out);
    }

    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[DxView],
        arrivals: &[Arrival<DxView>],
        accept: &mut [bool],
    ) {
        self.0
            .inqueue(step, node, state, residents, arrivals, accept);
    }

    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[DxView],
        states: &mut [u64],
    ) {
        self.0.end_of_step(step, node, state, residents, states);
    }
}

/// An arbitrary partial permutation on a side-`n` grid (same construction
/// as `tests/properties.rs`).
fn partial_permutation(n: u32) -> impl Strategy<Value = RoutingProblem> {
    let cells = (n * n) as usize;
    (
        proptest::collection::vec(0..cells as u32, 1..cells.min(64)),
        proptest::collection::vec(0..cells as u32, 1..cells.min(64)),
    )
        .prop_map(move |(mut srcs, mut dsts)| {
            srcs.sort_unstable();
            srcs.dedup();
            dsts.sort_unstable();
            dsts.dedup();
            let m = srcs.len().min(dsts.len());
            let pairs = srcs[..m]
                .iter()
                .zip(&dsts[..m])
                .map(|(&s, &d)| (Coord::new(s % n, s / n), Coord::new(d % n, d / n)));
            RoutingProblem::from_pairs(n, "prop", pairs)
        })
}

/// Static partial permutations or dynamic Bernoulli arrivals.
fn workload(n: u32) -> impl Strategy<Value = RoutingProblem> {
    (0u32..2, partial_permutation(n), (1u64..=50, 0u64..5_000)).prop_map(
        move |(which, pp, (rate_permille, seed))| {
            if which == 0 {
                pp
            } else {
                workloads::dynamic_bernoulli(n, rate_permille as f64 / 1000.0, 4 * n as u64, seed)
            }
        },
    )
}

/// All four admission policies, parameters included.
fn admission() -> impl Strategy<Value = AdmissionPolicy> {
    (0u32..4, 0u32..4, 1u64..64).prop_map(|(which, max_deferred, ttl)| match which {
        0 => AdmissionPolicy::DeferIndefinitely,
        1 => AdmissionPolicy::RejectNew,
        2 => AdmissionPolicy::DropOldestDeferred { max_deferred },
        _ => AdmissionPolicy::DeadlineExpiry { ttl },
    })
}

/// Steps the fast (packed) and oracle (view) sims in lockstep, checking
/// after every step that the observable state is identical.
fn assert_lockstep_identical<T: Topology, RA: Router, RB: Router>(
    fast: &mut Sim<'_, T, RA>,
    oracle: &mut Sim<'_, T, RB>,
    max_steps: u64,
) -> Result<(), TestCaseError> {
    for step in 0..max_steps {
        let a = fast.step();
        let b = oracle.step();
        prop_assert!(a == b, "done flags diverged at step {}", step);
        prop_assert!(
            fast.last_step_deliveries() == oracle.last_step_deliveries(),
            "delivery stream diverged at step {}",
            step
        );
        prop_assert!(
            fast.last_step_losses() == oracle.last_step_losses(),
            "loss stream diverged at step {}",
            step
        );
        prop_assert!(
            fast.packet_snapshot() == oracle.packet_snapshot(),
            "packet configuration diverged at step {}",
            step
        );
        if a {
            break;
        }
    }
    prop_assert_eq!(
        serde_json::to_string(&fast.report()).unwrap(),
        serde_json::to_string(&oracle.report()).unwrap()
    );
    prop_assert_eq!(fast.diagnostics(), oracle.diagnostics());
    Ok(())
}

/// Builds the fast/oracle pair for a fault-free problem under an admission
/// policy, and runs the lockstep comparison.
fn check_fault_free<R: DxRouter>(
    pb: &RoutingProblem,
    mk: impl Fn() -> R,
    adm: AdmissionPolicy,
) -> Result<(), TestCaseError> {
    let topo = Mesh::new(pb.n);
    let config = SimConfig {
        admission: adm,
        ..SimConfig::default()
    };
    let mut fast = Sim::with_config(&topo, Dx::new(mk()), pb, config);
    let mut oracle = Sim::with_config(&topo, Dx::new(ViewOracle(mk())), pb, config);
    assert_lockstep_identical(&mut fast, &mut oracle, 3_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: every mask-capable router is decision-identical through
    /// its packed and view policies, for arbitrary workloads, admission
    /// policies, and queue capacities.
    #[test]
    fn packed_path_is_bit_identical_fault_free(
        pb in workload(16),
        adm in admission(),
        k in 1u32..4,
        router in 0usize..3,
    ) {
        prop_assume!(!pb.is_empty());
        match router {
            0 => check_fault_free(&pb, || DimOrder::new(k), adm)?,
            1 => check_fault_free(&pb, || Theorem15::new(k), adm)?,
            _ => check_fault_free(&pb, || WestFirst::new(k), adm)?,
        }
    }

    /// Property 2: equivalence under arbitrary fault plans with the
    /// watchdog armed. The routers here are *unwrapped* (no FaultAware),
    /// so the engine's own fault machinery carries the whole burden: the
    /// packed path must agree with the view path through stalled-node
    /// gates and the engine-side degradation clamp (which now reads the
    /// schedule and packet store instead of the arrival views). The whole
    /// run outcome must match, not just the happy path.
    ///
    /// Only the conservative-acceptance routers run unwrapped: Theorem15's
    /// always-accept vertical queues rely on guaranteed ejection, which a
    /// link fault breaks — the queue overflows (identically in both paths)
    /// and the capacity audit panics. Masking that is FaultAware's job;
    /// the wrapped combination is property 3.
    #[test]
    fn packed_path_is_bit_identical_under_faults(
        pb in partial_permutation(12),
        adm in admission(),
        k in 1u32..4,
        rate_permille in 0u64..=200,
        fault_seed in 0u64..10_000,
        router in 0usize..2,
    ) {
        prop_assume!(!pb.is_empty());
        let n = 12u32;
        let topo = Mesh::new(n);
        let rate = rate_permille as f64 / 1000.0;
        let faults = Arc::new(FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile());
        let config = SimConfig {
            watchdog: Some(8 * n as u64),
            admission: adm,
            ..SimConfig::default()
        };
        macro_rules! pair_check {
            ($mk:expr) => {{
                let mk = $mk;
                let mut fast = Sim::with_faults(
                    &topo, Dx::new(mk()), &pb, config, faults.as_ref().clone(),
                );
                let mut oracle = Sim::with_faults(
                    &topo, Dx::new(ViewOracle(mk())), &pb, config, faults.as_ref().clone(),
                );
                let res_fast = fast.run(20_000);
                let res_oracle = oracle.run(20_000);
                prop_assert!(
                    res_fast == res_oracle,
                    "run outcomes diverged: {:?} vs {:?}",
                    res_fast,
                    res_oracle
                );
                prop_assert_eq!(
                    serde_json::to_string(&fast.report()).unwrap(),
                    serde_json::to_string(&oracle.report()).unwrap()
                );
                prop_assert_eq!(fast.packet_snapshot(), oracle.packet_snapshot());
                prop_assert_eq!(fast.diagnostics(), oracle.diagnostics());
            }};
        }
        match router {
            0 => pair_check!(|| DimOrder::new(k)),
            _ => pair_check!(|| WestFirst::new(k)),
        }
    }

    /// Property 3: the empty-fault-table FaultAware wrapper forwards the
    /// fast path (it is a pure pass-through then), and a *non-empty* table
    /// switches it off — either way the wrapped run matches the oracle
    /// wrapped the same way.
    #[test]
    fn fault_aware_wrapper_forwards_packed_path_soundly(
        pb in partial_permutation(12),
        k in 1u32..4,
        rate_permille in 0u64..=150,
        fault_seed in 0u64..10_000,
    ) {
        prop_assume!(!pb.is_empty());
        let n = 12u32;
        let topo = Mesh::new(n);
        let rate = rate_permille as f64 / 1000.0;
        let faults = Arc::new(FaultPlan::random(n, rate, 6 * n as u64, fault_seed).compile());
        let config = SimConfig {
            watchdog: Some(8 * n as u64),
            ..SimConfig::default()
        };
        let mut fast = Sim::with_faults(
            &topo,
            FaultAware::new(Dx::new(Theorem15::new(k)), Arc::clone(&faults)),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        let mut oracle = Sim::with_faults(
            &topo,
            FaultAware::new(Dx::new(ViewOracle(Theorem15::new(k))), Arc::clone(&faults)),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        let res_fast = fast.run(20_000);
        let res_oracle = oracle.run(20_000);
        prop_assert!(
            res_fast == res_oracle,
            "run outcomes diverged: {:?} vs {:?}",
            res_fast,
            res_oracle
        );
        prop_assert_eq!(fast.packet_snapshot(), oracle.packet_snapshot());
        prop_assert_eq!(fast.diagnostics(), oracle.diagnostics());
    }
}
