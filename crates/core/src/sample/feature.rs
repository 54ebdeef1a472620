//! Per-scenario feature extraction for the representative-scenario
//! sampler: a fixed-width numeric vector computed from the scenario's
//! *definition* — hardware-axis coordinates, load/policy tags, and the
//! seeded demand-matrix signature — without ever running a simulator.
//!
//! Scenarios that land close in this space stress a fabric similarly, so
//! k-means over the (min-max normalized) vectors groups the grid into
//! clusters a single weighted representative can stand in for. Demand
//! signatures are memoized per `(load, rack size, effective seed)`:
//! replicates of a seed-insensitive pattern, and every fabric / DWDM / FEC
//! / latency / policy variation of any load, share one signature
//! computation.

use std::collections::HashMap;

use fabric::FabricKind;
use workloads::DemandSignature;

use crate::energy::EnergyMode;
use crate::sweep::{Scenario, ScenarioLoad};

/// Width of the feature vector: 11 coordinate/tag dimensions plus the
/// [`DemandSignature`] components.
pub(crate) const DIMS: usize = 11 + DemandSignature::DIMS;

/// One scenario's feature vector.
pub(crate) type FeatureVec = [f64; DIMS];

/// Memoized demand signatures keyed by `(load key, mcm_count, effective
/// seed)`. The load key covers every demand-defining parameter (pattern
/// label + demand bits, or the timeline spec label); the effective seed is
/// the scenario seed for seed-sensitive loads and 0 otherwise.
pub(crate) type SignatureMemo = HashMap<(String, u32, u64), (DemandSignature, f64, f64)>;

fn fabric_ordinal(kind: FabricKind) -> f64 {
    match kind {
        FabricKind::ParallelAwgrs => 0.0,
        FabricKind::WaveSelective => 1.0,
        FabricKind::Spatial => 2.0,
    }
}

fn energy_ordinal(mode: Option<EnergyMode>) -> f64 {
    match mode {
        None => 0.0,
        Some(EnergyMode::AlwaysOn) => 1.0,
        Some(EnergyMode::UtilizationScaled) => 2.0,
    }
}

fn load_kind_ordinal(load: &ScenarioLoad) -> f64 {
    match load {
        ScenarioLoad::Pattern(p) => match p {
            workloads::TrafficPattern::Uniform { .. } => 1.0,
            workloads::TrafficPattern::Permutation { .. } => 2.0,
            workloads::TrafficPattern::HotSpot { .. } => 3.0,
            workloads::TrafficPattern::NearestNeighbor { .. } => 4.0,
            workloads::TrafficPattern::AllToAll { .. } => 5.0,
        },
        ScenarioLoad::Timeline(_) => 6.0,
        ScenarioLoad::FlexGrid(_) => 7.0,
    }
}

/// Map a policy label to a stable unit-interval coordinate (FNV-1a over
/// the label bytes). Policies have no numeric order; a deterministic hash
/// coordinate still separates them in feature space.
fn policy_unit(label: &str) -> f64 {
    (crate::hash::fnv1a(label.as_bytes()) >> 11) as f64 / (1u64 << 53) as f64
}

/// The demand half of the feature vector: `(signature, epochs, churn)`,
/// memoized across scenarios that share a demand expansion.
fn demand_features(scenario: &Scenario, memo: &mut SignatureMemo) -> (DemandSignature, f64, f64) {
    let mcm_count = scenario.fabric.mcm_count;
    let (key, effective_seed) = match &scenario.load {
        ScenarioLoad::Pattern(p) => (p.memo_key(), p.effective_seed(scenario.seed)),
        ScenarioLoad::Timeline(tc) => (tc.timeline.spec_label(), scenario.seed),
        ScenarioLoad::FlexGrid(fc) => (fc.timeline.spec_label(), scenario.seed),
    };
    if let Some(cached) = memo.get(&(key.clone(), mcm_count, effective_seed)) {
        return *cached;
    }
    let value = match &scenario.load {
        ScenarioLoad::Pattern(p) => (p.demand_signature(mcm_count, scenario.seed), 1.0, 0.0),
        ScenarioLoad::Timeline(tc) => {
            let sig = tc.timeline.demand_signature(mcm_count, scenario.seed);
            (sig.aggregate, sig.epochs, sig.churn)
        }
        ScenarioLoad::FlexGrid(fc) => {
            let sig = fc.timeline.demand_signature(mcm_count, scenario.seed);
            (sig.aggregate, sig.epochs, sig.churn)
        }
    };
    memo.insert((key, mcm_count, effective_seed), value);
    value
}

/// Extract one scenario's raw (unnormalized) feature vector.
pub(crate) fn extract(scenario: &Scenario, memo: &mut SignatureMemo) -> FeatureVec {
    let policy = match &scenario.load {
        ScenarioLoad::Pattern(_) => 0.0,
        ScenarioLoad::Timeline(tc) => policy_unit(&tc.policy.label()),
        ScenarioLoad::FlexGrid(fc) => policy_unit(&fc.policy.label()),
    };
    let (sig, epochs, churn) = demand_features(scenario, memo);
    let s = sig.components();
    [
        fabric_ordinal(scenario.fabric.kind),
        scenario.fabric.mcm_count as f64,
        scenario.fabric.fibers_per_mcm as f64,
        scenario.fabric.wavelengths_per_fiber as f64,
        scenario.fabric.gbps_per_wavelength,
        scenario.direct_latency_ns,
        energy_ordinal(scenario.energy_mode),
        load_kind_ordinal(&scenario.load),
        policy,
        epochs,
        churn,
        s[0],
        s[1],
        s[2],
        s[3],
        s[4],
    ]
}

/// Min-max normalize every dimension in place over the whole grid, so no
/// axis dominates the k-means distance by unit choice alone. Constant
/// dimensions collapse to 0.
pub(crate) fn normalize(features: &mut [FeatureVec]) {
    if features.is_empty() {
        return;
    }
    for dim in 0..DIMS {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for f in features.iter() {
            min = min.min(f[dim]);
            max = max.max(f[dim]);
        }
        let span = max - min;
        for f in features.iter_mut() {
            f[dim] = if span > 0.0 {
                (f[dim] - min) / span
            } else {
                0.0
            };
        }
    }
}
