//! Seed variants: how `--seed` becomes the benchmark's inputs.
//!
//! A seed selects one of [`VARIANTS`] input variants (`seed % VARIANTS`).
//! A variant fixes the traffic seed of every simulation, the campaign
//! seed of every study, and the order of the `serve` request script.
//! Keeping the set finite lets every simulated output be checked against
//! the values recorded for this commit (`data/expected.json`), while
//! different seeds still exercise different traffic.

use nocsim::SimConfig;

/// Number of input variants a seed maps onto.
pub const VARIANTS: usize = 4;

/// The variant a `--seed` selects.
#[must_use]
pub fn of_seed(seed: u64) -> usize {
    (seed % VARIANTS as u64) as usize
}

/// The traffic / campaign seed of a variant. Variant 0 is the paper
/// default seed, so its figures match the repository's own tools.
#[must_use]
pub fn sim_seed(variant: usize) -> u64 {
    let base = SimConfig::paper_defaults().seed;
    if variant == 0 {
        base
    } else {
        xp::seed::derive_seed(base, &[variant as u64])
    }
}

/// `SimConfig::paper_defaults()` with the variant's traffic seed.
#[must_use]
pub fn sim_config(variant: usize) -> SimConfig {
    SimConfig { seed: sim_seed(variant), ..SimConfig::paper_defaults() }
}
