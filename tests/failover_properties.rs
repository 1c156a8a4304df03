//! Property-style integration tests on the request-level simulator:
//! conservation laws and dominance of the transiency-aware balancer,
//! across randomized variants of the Fig. 4(a) scenario. Every run
//! must also pass the chaos harness's invariant audit.

use proptest::prelude::*;
use spotweb::sim::{ChaosScenario, FaultKind, FaultPlan, ServerSpec};

fn scenario(rate: f64, servers: usize, aware: bool, revoke: bool, seed: u64) -> ChaosScenario {
    let mut plan = FaultPlan::new();
    if revoke {
        plan = plan.at(
            120.0,
            FaultKind::CorrelatedRevocation {
                markets: vec![2],
                warning_secs: None,
            },
        );
    }
    ChaosScenario {
        servers: (0..servers)
            .map(|i| ServerSpec {
                market: i % 3,
                capacity_rps: [80.0, 160.0, 320.0][i % 3],
            })
            .collect(),
        arrival_rps: rate,
        duration_secs: 360.0,
        seed,
        plan,
        ..ChaosScenario::fig4a(aware)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation: every generated request is either served or dropped.
    #[test]
    fn requests_conserved(
        rate in 100.0f64..400.0,
        seed in 0u64..1000,
        aware in any::<bool>(),
    ) {
        let r = scenario(rate, 6, aware, true, seed).run();
        prop_assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
        let total = r.served as u64 + r.dropped;
        // Expected arrivals over 360 s of Poisson(rate): mean rate*360.
        let expected = rate * 360.0;
        prop_assert!(
            (total as f64 - expected).abs() < 6.0 * expected.sqrt() + 10.0,
            "total {total} vs expected {expected}"
        );
    }

    /// Dominance: the transiency-aware balancer never drops more than
    /// vanilla under the same seed and load.
    #[test]
    fn aware_never_worse(rate in 150.0f64..350.0, seed in 0u64..200) {
        let aware = scenario(rate, 6, true, true, seed).run();
        let vanilla = scenario(rate, 6, false, true, seed).run();
        prop_assert!(aware.invariants_ok(), "{:?}", aware.invariant_violations);
        prop_assert!(vanilla.invariants_ok(), "{:?}", vanilla.invariant_violations);
        prop_assert!(
            aware.drop_fraction <= vanilla.drop_fraction + 1e-9,
            "aware {} vanilla {}",
            aware.drop_fraction,
            vanilla.drop_fraction
        );
    }

    /// No failures → no drops and no lost sessions, at sane utilization.
    #[test]
    fn no_failure_no_loss(rate in 100.0f64..500.0, seed in 0u64..200, aware in any::<bool>()) {
        let r = scenario(rate, 6, aware, false, seed).run();
        prop_assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
        prop_assert_eq!(r.dropped, 0);
        prop_assert_eq!(r.lost_sessions, 0);
    }
}
