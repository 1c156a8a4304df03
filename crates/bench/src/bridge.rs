//! Bridge between the optimizer-level policies (`spotweb-core`) and
//! the request-level simulator (`spotweb-sim`).
//!
//! `spotweb-core` and `spotweb-sim` are deliberately decoupled (the
//! simulator must not depend on the optimizer); this module supplies
//! the glue: [`PolicyBridge`] adapts any [`Policy`] to the simulator's
//! [`FleetPolicy`], estimating the revocation covariance from the
//! market history exactly as the coarse harness does. The policy is
//! boxed so the factory-built zoo policies and the MPO policy all ride
//! the same bridge.

use spotweb_core::policy::{Policy, PolicyObservation};
use spotweb_market::{estimate_correlation, Catalog};
use spotweb_sim::runner::FleetPolicy;

/// Adapter: drive a provisioning [`Policy`] from the request-level
/// simulator's observations.
pub struct PolicyBridge {
    /// The wrapped policy.
    pub policy: Box<dyn Policy + Send>,
    /// The markets the policy provisions over.
    pub catalog: Catalog,
}

impl FleetPolicy for PolicyBridge {
    fn decide_fleet(
        &mut self,
        interval: usize,
        observed_rps: f64,
        prices: &[f64],
        failure_probs: &[f64],
        failure_history: &[Vec<f64>],
    ) -> Vec<u32> {
        let covariance = if failure_history.first().map_or(0, |s| s.len()) >= 2 {
            estimate_correlation(failure_history, 0.1)
        } else {
            spotweb_linalg::Matrix::identity(self.catalog.len())
        };
        let obs = PolicyObservation {
            interval,
            current_workload: observed_rps,
            prices,
            failure_probs,
            covariance: &covariance,
            oracle: None,
        };
        self.policy.decide(&self.catalog, &obs)
    }
}
