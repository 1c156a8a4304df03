//! Counter-based, draw-order-free random number generation.
//!
//! The sharded simulator (ISSUE 10) needs any time window's arrivals
//! to be generatable without simulating the windows before it. A
//! stateful sequential generator (`ChaCha8Rng`) cannot do that: draw
//! `n` depends on having made draws `0..n`. This module provides the
//! replacement — a *pure function* of `(seed, stream, counter)`:
//!
//! ```text
//! sample(seed, stream, counter) -> u64
//! ```
//!
//! There is no draw order. Querying `(s, c)` pairs in any permutation
//! yields the same values, so per-window shards generate their slices
//! of the arrival process independently and the merged run is
//! byte-identical to the serial one (`tests/shard.rs` locks this in).
//!
//! # Construction
//!
//! splitmix64-style: the `(seed, stream)` pair is compressed into a
//! per-stream key by one finalizer round, and each counter draw is a
//! second finalizer round over `key + counter * GAMMA` — the same
//! shape as splitmix64's `mix(state + n * GAMMA)` sequence, which
//! passes BigCrush. Two multiplies and three xor-shifts per draw; no
//! buffer, no state, `Copy` everywhere.
//!
//! # Stream registry
//!
//! Streams are keyed as `stream_id(domain, index)`. Domains partition
//! the keyspace per use site so independent draws can never collide;
//! the registry below is the single source of truth:
//!
//! | domain | consumer | index | counter |
//! |---|---|---|---|
//! | [`DOMAIN_ARRIVAL_GAP`] | `sim::runner` inter-arrival gaps | decision interval | arrival ordinal in window |
//! | [`DOMAIN_ARRIVAL_SESSION`] | `sim::runner` session ids | decision interval | arrival ordinal in window |
//! | [`DOMAIN_FAULT_COIN`] | `sim::faults` `FaultPlan::compile` | random-fault ordinal | firing-window ordinal |
//! | [`DOMAIN_SCENARIO_GAP`] | `sim::faults` cluster scenarios | 0 | request ordinal |
//! | [`DOMAIN_NOISE`] | `workload` AR(1) noise | 0 | hour |
//! | [`DOMAIN_BUMP`] | `workload::wikipedia` news bumps | 0 | hour |
//! | [`DOMAIN_SPIKE_OCCUR`] | `workload::spikes` occurrence coins | 0 | sample |
//! | [`DOMAIN_SPIKE_MAG`] | `workload::spikes` magnitudes | 0 | sample |
//! | [`DOMAIN_SPIKE_RAMP`] | `workload::spikes` ramp lengths | 0 | sample |
//! | [`DOMAIN_SPIKE_HALF`] | `workload::spikes` decay half-lives | 0 | sample |
//!
//! # Reference values
//!
//! The generator is part of the golden-fixture contract (arrival
//! processes derive from it), so its outputs are pinned:
//!
//! ```
//! use spotweb_workload::rng::sample;
//! assert_eq!(sample(0, 0, 0), 0xc742_1349_0448_6fe2);
//! assert_eq!(sample(0, 0, 1), 0x668a_e934_cfa5_edc8);
//! assert_eq!(sample(0, 1, 0), 0x3e21_3028_a1d0_978f);
//! assert_eq!(sample(1, 0, 0), 0xcf52_bc59_cd06_25b4);
//! assert_eq!(sample(1234, 42, 7), 0x609b_7908_07b8_f8cf);
//! ```

/// splitmix64 finalizer: invertible 64-bit mix with full avalanche.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Golden-ratio increment (splitmix64's GAMMA): consecutive counters
/// land `GAMMA` apart in state space before the finalizer scrambles
/// them.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain tag baked into every stream key so a `(seed, stream)` pair
/// here can never alias a raw splitmix64 sequence of the same seed.
const STREAM_TAG: u64 = 0x5354_5245_414D_3634; // "STREAM64"

/// `sim::runner` inter-arrival gaps; index = decision interval.
pub const DOMAIN_ARRIVAL_GAP: u64 = 0;
/// `sim::runner` session-id draws; index = decision interval.
pub const DOMAIN_ARRIVAL_SESSION: u64 = 1;
/// `sim::faults::FaultPlan::compile` coin tosses; index = random-fault
/// ordinal, counter = firing-window ordinal.
pub const DOMAIN_FAULT_COIN: u64 = 2;
/// Cluster-scenario arrival gaps (`ChaosScenario`); counter = request
/// ordinal.
pub const DOMAIN_SCENARIO_GAP: u64 = 3;
/// Workload-generator AR(1) noise; counter = hour.
pub const DOMAIN_NOISE: u64 = 4;
/// Wikipedia news-bump coins; counter = hour.
pub const DOMAIN_BUMP: u64 = 5;
/// Spike occurrence coins; counter = sample index.
pub const DOMAIN_SPIKE_OCCUR: u64 = 6;
/// Spike magnitudes; counter = sample index.
pub const DOMAIN_SPIKE_MAG: u64 = 7;
/// Spike ramp lengths; counter = sample index.
pub const DOMAIN_SPIKE_RAMP: u64 = 8;
/// Spike decay half-lives; counter = sample index.
pub const DOMAIN_SPIKE_HALF: u64 = 9;

/// Build a stream id from a domain tag (one of the `DOMAIN_*`
/// constants, `< 16`) and a per-domain index (interval number, fault
/// ordinal, …).
#[inline]
pub fn stream_id(domain: u64, index: u64) -> u64 {
    debug_assert!(domain < 16, "domain tags are 4 bits");
    (index << 4) | (domain & 0xF)
}

/// The counter-based generator: a pure function of its three inputs.
/// Equal inputs give equal outputs on every platform, in any query
/// order, from any thread.
#[inline]
pub fn sample(seed: u64, stream: u64, counter: u64) -> u64 {
    CounterStream::new(seed, stream).u64_at(counter)
}

/// One `(seed, stream)` slice of the generator with the stream key
/// pre-mixed, so per-draw cost is a single finalizer round. `Copy` and
/// stateless — `u64_at` takes `&self`, and any permutation of counters
/// yields the same values.
#[derive(Debug, Clone, Copy)]
pub struct CounterStream {
    key: u64,
}

impl CounterStream {
    /// Derive the stream key for `(seed, stream)`.
    #[inline]
    pub fn new(seed: u64, stream: u64) -> Self {
        CounterStream {
            key: mix(seed ^ mix(stream.wrapping_mul(GAMMA) ^ STREAM_TAG)),
        }
    }

    /// Draw `counter`'s 64 uniform bits.
    #[inline]
    pub fn u64_at(&self, counter: u64) -> u64 {
        mix(self.key.wrapping_add(counter.wrapping_mul(GAMMA)))
    }

    /// Draw `counter`'s uniform `f64` in `[0, 1)` (53 mantissa bits,
    /// the same conversion the vendored `rand` shim uses).
    #[inline]
    pub fn unit_f64_at(&self, counter: u64) -> f64 {
        (self.u64_at(counter) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draw `counter`'s exponential inter-arrival gap at `rate` (the
    /// same `-ln(u)/rate` transform the sequential generator applied,
    /// with the identical `f64::MIN_POSITIVE` floor).
    #[inline]
    pub fn exp_at(&self, counter: u64, rate: f64) -> f64 {
        let u = self.unit_f64_at(counter).max(f64::MIN_POSITIVE);
        -u.ln() / rate
    }

    /// Draw `counter`'s integer in `[0, n)`. Plain modulo: the bias is
    /// `O(n / 2^64)` — unobservable for session counts — and the
    /// mapping stays a pure function of the inputs, which is the
    /// property the sharded loop needs.
    #[inline]
    pub fn range_at(&self, counter: u64, n: u64) -> u64 {
        debug_assert!(n > 0, "empty range");
        self.u64_at(counter) % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_are_pinned() {
        // Documented in the module docs; a change here is a change to
        // every golden fixture and must go through `figures bless`.
        assert_eq!(sample(0, 0, 0), 0xc742_1349_0448_6fe2);
        assert_eq!(sample(0, 0, 1), 0x668a_e934_cfa5_edc8);
        assert_eq!(sample(0, 1, 0), 0x3e21_3028_a1d0_978f);
        assert_eq!(sample(1, 0, 0), 0xcf52_bc59_cd06_25b4);
        assert_eq!(sample(1234, 42, 7), 0x609b_7908_07b8_f8cf);
    }

    #[test]
    fn draw_order_free() {
        let queries: Vec<(u64, u64)> = (0..8).flat_map(|s| (0..8).map(move |c| (s, c))).collect();
        let forward: Vec<u64> = queries.iter().map(|&(s, c)| sample(9, s, c)).collect();
        let backward: Vec<u64> = queries
            .iter()
            .rev()
            .map(|&(s, c)| sample(9, s, c))
            .collect();
        let mut backward_rev = backward;
        backward_rev.reverse();
        assert_eq!(forward, backward_rev);
    }

    #[test]
    fn streams_and_seeds_decorrelate() {
        let a: Vec<u64> = (0..64).map(|c| sample(1, 0, c)).collect();
        let b: Vec<u64> = (0..64).map(|c| sample(1, 1, c)).collect();
        let c: Vec<u64> = (0..64).map(|c| sample(2, 0, c)).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        let collisions = a.iter().filter(|v| b.contains(v)).count();
        assert_eq!(collisions, 0, "64-draw prefixes must not collide");
    }

    #[test]
    fn unit_f64_in_range_and_exp_positive() {
        let s = CounterStream::new(7, stream_id(DOMAIN_ARRIVAL_GAP, 3));
        for c in 0..1000 {
            let u = s.unit_f64_at(c);
            assert!((0.0..1.0).contains(&u), "u {u}");
            assert!(s.exp_at(c, 100.0) > 0.0);
        }
    }

    #[test]
    fn range_at_covers_and_bounds() {
        let s = CounterStream::new(3, stream_id(DOMAIN_ARRIVAL_SESSION, 0));
        let mut seen = [false; 8];
        for c in 0..256 {
            let v = s.range_at(c, 8) as usize;
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues reachable");
    }

    #[test]
    fn stream_id_separates_domains_and_indices() {
        assert_ne!(
            stream_id(DOMAIN_ARRIVAL_GAP, 1),
            stream_id(DOMAIN_ARRIVAL_SESSION, 1)
        );
        assert_ne!(
            stream_id(DOMAIN_ARRIVAL_GAP, 1),
            stream_id(DOMAIN_ARRIVAL_GAP, 2)
        );
    }

    #[test]
    fn mean_of_unit_draws_is_centered() {
        let s = CounterStream::new(11, stream_id(DOMAIN_NOISE, 0));
        let n = 4096;
        let mean: f64 = (0..n).map(|c| s.unit_f64_at(c)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
