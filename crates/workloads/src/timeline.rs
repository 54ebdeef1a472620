//! Multi-phase demand timelines for the temporal fabric sweeps.
//!
//! The paper's bandwidth-steering argument (Section VI-A) rests on HPC
//! traffic varying over time: an application alternates halo exchanges,
//! all-to-all transposes, and I/O bursts, and the photonic fabric can
//! reallocate wavelengths to follow the shift. This module composes the
//! static [`TrafficPattern`] families into [`DemandTimeline`]s — ordered
//! [`Phase`]s with per-epoch demand ramps, bursts, and destination
//! rotations — which the `fabric::timeline` epoch simulator and the
//! `core::sweep` timeline axis consume.
//!
//! Everything is deterministic given the timeline seed: a phase's base
//! demand matrix is fixed for the phase's whole duration (so a flat phase
//! never spuriously churns a reallocation policy), and only the ramp scale
//! and destination rotation vary epoch to epoch.

use fabric::Flow;
use serde::{Deserialize, Serialize};

use crate::gpu::{gpu_applications, suite_applications, GpuSuite};
use crate::traffic::{DemandSignature, TrafficPattern};
use gpusim::ApplicationProfile;

/// The simulator-free feature summary of a [`DemandTimeline`] expansion:
/// the per-epoch [`DemandSignature`] averaged over the timeline, plus the
/// temporal shape the static signature cannot see. Produced by
/// [`DemandTimeline::demand_signature`] for the `core::sample`
/// representative-scenario sampler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineSignature {
    /// Epoch-mean demand-matrix signature.
    pub aggregate: DemandSignature,
    /// Number of epochs the timeline spans.
    pub epochs: f64,
    /// Mean epoch-to-epoch change in total offered load, normalized by the
    /// peak epoch load: 0 for a flat timeline, → 1 for full-swing bursts.
    pub churn: f64,
}

/// One contiguous stretch of epochs offering a single traffic pattern,
/// optionally demand-ramped and destination-rotated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// The demand-matrix family offered during the phase.
    pub pattern: TrafficPattern,
    /// Number of epochs the phase lasts (at least 1).
    pub epochs: u32,
    /// Demand multiplier at the phase's first epoch.
    pub start_scale: f64,
    /// Demand multiplier at the phase's last epoch; intermediate epochs
    /// interpolate linearly (a flat phase has `start_scale == end_scale`).
    pub end_scale: f64,
    /// Rotate every destination by this many MCMs (mod rack size), applied
    /// to the phase's own base matrix. For seed-independent patterns like
    /// [`TrafficPattern::HotSpot`] this turns one incast into a *shifting*
    /// hot spot across phases with the same source structure; random
    /// patterns additionally resample per phase (each phase derives its own
    /// seed).
    pub dst_rotation: u32,
}

impl Phase {
    /// A flat phase: constant demand, no rotation.
    pub fn flat(pattern: TrafficPattern, epochs: u32) -> Self {
        Phase {
            pattern,
            epochs: epochs.max(1),
            start_scale: 1.0,
            end_scale: 1.0,
            dst_rotation: 0,
        }
    }

    /// A linear demand ramp from `from` to `to` times the pattern's demand.
    pub fn ramp(pattern: TrafficPattern, epochs: u32, from: f64, to: f64) -> Self {
        Phase {
            start_scale: from.max(0.0),
            end_scale: to.max(0.0),
            ..Phase::flat(pattern, epochs)
        }
    }

    /// Rotate all destinations of this phase by `rotation` MCMs.
    pub fn rotated(mut self, rotation: u32) -> Self {
        self.dst_rotation = rotation;
        self
    }

    /// Demand multiplier at a local epoch index within the phase.
    pub fn scale_at(&self, local_epoch: u32) -> f64 {
        if self.epochs <= 1 {
            return self.start_scale;
        }
        let t = local_epoch.min(self.epochs - 1) as f64 / (self.epochs - 1) as f64;
        self.start_scale + (self.end_scale - self.start_scale) * t
    }
}

/// A named sequence of [`Phase`]s: the temporal analogue of a single
/// [`TrafficPattern`].
///
/// The timeline expands to one demand matrix per epoch via
/// [`flows_at`](DemandTimeline::flows_at). Within a phase the *base* matrix
/// is constant (derived from the timeline seed and the phase index), so
/// only ramps and rotations change what consecutive epochs offer.
///
/// # Example
///
/// ```
/// use workloads::{DemandTimeline, TrafficPattern};
///
/// let tl = DemandTimeline::named("warmup-burst")
///     .ramp(
///         TrafficPattern::Uniform { flows_per_mcm: 2, demand_gbps: 100.0 },
///         3,
///         0.5,
///         1.0,
///     )
///     .burst(TrafficPattern::HotSpot { hot_mcms: 4, demand_gbps: 100.0 }, 2, 2.0);
/// assert_eq!(tl.total_epochs(), 5);
///
/// // Epoch 0 offers half demand, epoch 2 full demand, epochs 3-4 a 2x burst.
/// let early = tl.flows_at(0, 16, 7);
/// let late = tl.flows_at(2, 16, 7);
/// assert_eq!(early.len(), late.len());
/// assert!((early[0].demand_gbps - 50.0).abs() < 1e-9);
/// assert!((late[0].demand_gbps - 100.0).abs() < 1e-9);
///
/// // Same seed, same matrices — timelines are deterministic end to end.
/// assert_eq!(tl.flows_at(4, 16, 7), tl.flows_at(4, 16, 7));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandTimeline {
    /// Short name used in sweep-report rows and CLI parsing.
    pub name: String,
    /// The phase sequence, in temporal order.
    pub phases: Vec<Phase>,
}

impl DemandTimeline {
    /// An empty timeline under a given name.
    pub fn named(name: impl Into<String>) -> Self {
        DemandTimeline {
            name: name.into(),
            phases: Vec::new(),
        }
    }

    /// Append a flat phase.
    pub fn phase(mut self, pattern: TrafficPattern, epochs: u32) -> Self {
        self.phases.push(Phase::flat(pattern, epochs));
        self
    }

    /// Append a linear demand ramp.
    pub fn ramp(mut self, pattern: TrafficPattern, epochs: u32, from: f64, to: f64) -> Self {
        self.phases.push(Phase::ramp(pattern, epochs, from, to));
        self
    }

    /// Append a flat burst at `scale` times the pattern's demand.
    pub fn burst(mut self, pattern: TrafficPattern, epochs: u32, scale: f64) -> Self {
        self.phases.push(Phase::ramp(pattern, epochs, scale, scale));
        self
    }

    /// Append an arbitrary phase.
    pub fn push(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Total number of epochs across all phases.
    pub fn total_epochs(&self) -> u32 {
        self.phases.iter().map(|p| p.epochs).sum()
    }

    /// The phase containing a global epoch index, with the phase's position
    /// and the epoch's local index within it. `None` past the end.
    pub fn phase_at(&self, epoch: u32) -> Option<(usize, &Phase, u32)> {
        let mut start = 0;
        for (i, p) in self.phases.iter().enumerate() {
            if epoch < start + p.epochs {
                return Some((i, p, epoch - start));
            }
            start += p.epochs;
        }
        None
    }

    /// The demand matrix offered at a global epoch, for a rack of
    /// `mcm_count` MCMs.
    ///
    /// The phase's base matrix comes from its pattern expanded with a seed
    /// derived from `seed` and the phase index (stable across the phase's
    /// epochs); the epoch's ramp scale multiplies every demand and the
    /// phase's rotation shifts every destination. Epochs at or beyond
    /// [`total_epochs`](DemandTimeline::total_epochs) yield an empty matrix.
    ///
    /// To expand a whole timeline, prefer
    /// [`epoch_matrices`](DemandTimeline::epoch_matrices), which expands
    /// each phase's base matrix once instead of once per epoch.
    pub fn flows_at(&self, epoch: u32, mcm_count: u32, seed: u64) -> Vec<Flow> {
        let Some((index, phase, local)) = self.phase_at(epoch) else {
            return Vec::new();
        };
        let base = phase_base_matrix(index, phase, mcm_count, seed);
        scale_matrix(&base, phase.scale_at(local))
    }

    /// Every epoch's demand matrix, in temporal order — identical to
    /// calling [`flows_at`](DemandTimeline::flows_at) for `0..total_epochs`
    /// but each phase's (RNG-driven) base matrix is expanded exactly once
    /// and only the per-epoch ramp scale is applied per epoch.
    pub fn epoch_matrices(&self, mcm_count: u32, seed: u64) -> Vec<Vec<Flow>> {
        let mut out = Vec::with_capacity(self.total_epochs() as usize);
        for (index, phase) in self.phases.iter().enumerate() {
            let base = phase_base_matrix(index, phase, mcm_count, seed);
            for local in 0..phase.epochs {
                out.push(scale_matrix(&base, phase.scale_at(local)));
            }
        }
        out
    }

    /// Total demand the timeline offers across all epochs (Gbps, summed per
    /// epoch), after the flow simulator's demand sanitization — the
    /// denominator of the energy layer's energy-per-offered-bit figures and
    /// the offered-load context line of the `energy` binary.
    ///
    /// # Example
    ///
    /// ```
    /// use workloads::{DemandTimeline, TrafficPattern};
    ///
    /// let tl = DemandTimeline::steady(
    ///     TrafficPattern::Permutation { demand_gbps: 100.0 },
    ///     3,
    /// );
    /// // A 16-MCM permutation offers 16 x 100 Gbps per epoch, 3 epochs.
    /// assert!((tl.total_offered_gbps(16, 7) - 3.0 * 16.0 * 100.0).abs() < 1e-9);
    /// ```
    pub fn total_offered_gbps(&self, mcm_count: u32, seed: u64) -> f64 {
        self.epoch_matrices(mcm_count, seed)
            .iter()
            .flat_map(|m| m.iter())
            .map(|f| f.sanitized().demand_gbps)
            .sum()
    }

    /// The [`TimelineSignature`] of this timeline's expansion: the
    /// epoch-mean [`DemandSignature`] plus the temporal shape (epoch count
    /// and load churn) — the feature vector the `core::sample`
    /// representative-scenario sampler clusters temporal scenarios on.
    /// Computed from the expanded epoch matrices alone; no simulator runs.
    ///
    /// ```
    /// use workloads::{DemandTimeline, TrafficPattern};
    ///
    /// let steady = DemandTimeline::steady(
    ///     TrafficPattern::Permutation { demand_gbps: 100.0 },
    ///     4,
    /// );
    /// let sig = steady.demand_signature(16, 7);
    /// assert_eq!(sig.epochs, 4.0);
    /// // A flat single-phase timeline has zero epoch-to-epoch churn.
    /// assert_eq!(sig.churn, 0.0);
    /// ```
    pub fn demand_signature(&self, mcm_count: u32, seed: u64) -> TimelineSignature {
        let epochs = self.epoch_matrices(mcm_count, seed);
        if epochs.is_empty() {
            return TimelineSignature {
                aggregate: DemandSignature::zero(),
                epochs: 0.0,
                churn: 0.0,
            };
        }
        let mut sums = [0.0f64; DemandSignature::DIMS];
        let mut totals = Vec::with_capacity(epochs.len());
        for flows in &epochs {
            let sig = DemandSignature::from_flows(mcm_count, flows);
            for (sum, c) in sums.iter_mut().zip(sig.components()) {
                *sum += c;
            }
            totals.push(sig.total_gbps);
        }
        let n = epochs.len() as f64;
        let aggregate = DemandSignature {
            total_gbps: sums[0] / n,
            flow_count: sums[1] / n,
            max_src_share: sums[2] / n,
            max_dst_share: sums[3] / n,
            mean_hop_distance: sums[4] / n,
        };
        let peak = totals.iter().cloned().fold(0.0f64, f64::max);
        let churn = if peak > 0.0 && totals.len() > 1 {
            let delta_sum: f64 = totals.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
            delta_sum / (totals.len() - 1) as f64 / peak
        } else {
            0.0
        };
        TimelineSignature {
            aggregate,
            epochs: n,
            churn,
        }
    }

    /// A stable label covering every demand-defining parameter of the
    /// timeline (phase patterns, durations, scales, rotations). Used by the
    /// sweep engine's seed derivation, so two timelines that offer the same
    /// traffic share a seed regardless of their display `name` — and, for
    /// the same reason, as the memo key under which the `core::sample`
    /// signature cache and the sweep executor's demand-matrix memo share
    /// one [`epoch_matrices`](DemandTimeline::epoch_matrices) expansion
    /// across scenarios: equal labels (plus rack size and seed) guarantee
    /// identical epoch matrices.
    pub fn spec_label(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            out.push_str(&format!(
                "[{}x{}:{}..{}r{}:{}]",
                p.pattern.label(),
                p.epochs,
                p.start_scale,
                p.end_scale,
                p.dst_rotation,
                p.pattern.demand_gbps().to_bits(),
            ));
        }
        out
    }

    /// A single-phase steady timeline (the temporal embedding of a static
    /// sweep scenario).
    pub fn steady(pattern: TrafficPattern, epochs: u32) -> Self {
        DemandTimeline::named(format!("steady-{}", pattern.label())).phase(pattern, epochs)
    }

    /// A hot spot whose hot destination set rotates by `stride` MCMs every
    /// phase: the canonical bandwidth-steering stress. A static wavelength
    /// assignment tuned to the first phase goes stale as soon as the hot set
    /// moves; a re-steering policy follows it.
    pub fn shifting_hotspot(
        hot_mcms: u32,
        demand_gbps: f64,
        phases: u32,
        epochs_per_phase: u32,
        stride: u32,
    ) -> Self {
        let pattern = TrafficPattern::HotSpot {
            hot_mcms,
            demand_gbps,
        };
        let mut tl = DemandTimeline::named(format!("shifthot{hot_mcms}"));
        for i in 0..phases.max(1) {
            tl = tl.push(Phase::flat(pattern, epochs_per_phase).rotated(i * stride));
        }
        tl
    }

    /// A spectrum-churn timeline for the flex-grid layer: a uniform
    /// background, a ramp into a doubled permutation, a rotated incast, and
    /// a drain ramp. The per-epoch demand changes under the ramps, so a
    /// keep-in-place spectrum policy must release and re-admit lightpaths
    /// every epoch — exactly the workload that fragments a spectrum board
    /// and separates the admission/defragmentation policies.
    ///
    /// # Example
    ///
    /// ```
    /// use workloads::DemandTimeline;
    ///
    /// let tl = DemandTimeline::elastic_churn(300.0, 2);
    /// assert_eq!(tl.name, "elastic-churn");
    /// assert_eq!(tl.total_epochs(), 8);
    /// // Ramps really change demand epoch to epoch (that's the churn).
    /// let a = tl.flows_at(2, 16, 7)[0].demand_gbps;
    /// let b = tl.flows_at(3, 16, 7)[0].demand_gbps;
    /// assert_ne!(a, b);
    /// ```
    pub fn elastic_churn(demand_gbps: f64, epochs_per_phase: u32) -> Self {
        let uniform = TrafficPattern::Uniform {
            flows_per_mcm: 2,
            demand_gbps,
        };
        let permutation = TrafficPattern::Permutation { demand_gbps };
        let incast = TrafficPattern::HotSpot {
            hot_mcms: 4,
            demand_gbps,
        };
        DemandTimeline::named("elastic-churn")
            .phase(uniform, epochs_per_phase)
            .ramp(permutation, epochs_per_phase, 1.0, 2.0)
            .push(Phase::flat(incast, epochs_per_phase).rotated(3))
            .ramp(permutation, epochs_per_phase, 2.0, 0.5)
    }

    /// A CPU/GPU-mix timeline derived from the workload registries: a
    /// CPU-style halo-exchange phase, a ramp into a GPU-style phase whose
    /// demand scale is the registry's mean HBM transactions per instruction
    /// over all 24 GPU applications relative to the (CPU-shared) Rodinia
    /// subset, an incast burst at that scale toward a pooled-memory hot set,
    /// and a drain ramp back down.
    pub fn hpc_mix(demand_gbps: f64, epochs_per_phase: u32) -> Self {
        let gpu_scale = gpu_demand_scale();
        let halo = TrafficPattern::NearestNeighbor {
            neighbors: 2,
            demand_gbps,
        };
        let uniform = TrafficPattern::Uniform {
            flows_per_mcm: 4,
            demand_gbps,
        };
        let incast = TrafficPattern::HotSpot {
            hot_mcms: 8,
            demand_gbps,
        };
        DemandTimeline::named("hpcmix")
            .phase(halo, epochs_per_phase)
            .ramp(uniform, epochs_per_phase, 1.0, gpu_scale)
            .burst(incast, epochs_per_phase, gpu_scale)
            .ramp(uniform, epochs_per_phase, gpu_scale, 0.5)
    }
}

/// A phase's unscaled demand matrix: the pattern expanded under the
/// phase-derived seed, with the phase's destination rotation applied.
fn phase_base_matrix(index: usize, phase: &Phase, mcm_count: u32, seed: u64) -> Vec<Flow> {
    let phase_seed = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    phase
        .pattern
        .flows(mcm_count, phase_seed)
        .into_iter()
        .map(|f| {
            let mut dst = (f.dst + phase.dst_rotation) % mcm_count;
            if dst == f.src {
                dst = (dst + 1) % mcm_count;
            }
            Flow::new(f.src, dst, f.demand_gbps)
        })
        .collect()
}

/// Multiply every demand of a matrix by the epoch's ramp scale.
fn scale_matrix(base: &[Flow], scale: f64) -> Vec<Flow> {
    base.iter()
        .map(|f| Flow::new(f.src, f.dst, f.demand_gbps * scale))
        .collect()
}

/// Mean HBM transactions per instruction across the full 24-application GPU
/// registry, relative to its Rodinia subset (the suite shared with the CPU
/// evaluation), clamped to `[1, 4]`. Polybench's linear-algebra kernels push
/// far more HBM traffic than the Rodinia baseline, which is what makes the
/// GPU phases of [`DemandTimeline::hpc_mix`] demand-heavier.
pub fn gpu_demand_scale() -> f64 {
    let mean = |apps: &[ApplicationProfile]| -> f64 {
        if apps.is_empty() {
            return 0.0;
        }
        apps.iter()
            .map(|a| a.hbm_transactions_per_instruction())
            .sum::<f64>()
            / apps.len() as f64
    };
    let all = mean(&gpu_applications());
    let rodinia = mean(&suite_applications(GpuSuite::Rodinia));
    if rodinia > 0.0 {
        (all / rodinia).clamp(1.0, 4.0)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> DemandTimeline {
        DemandTimeline::named("demo")
            .phase(TrafficPattern::Permutation { demand_gbps: 200.0 }, 2)
            .ramp(
                TrafficPattern::Uniform {
                    flows_per_mcm: 2,
                    demand_gbps: 100.0,
                },
                3,
                0.5,
                1.5,
            )
    }

    #[test]
    fn total_epochs_and_phase_lookup() {
        let tl = demo();
        assert_eq!(tl.total_epochs(), 5);
        assert_eq!(tl.phase_at(0).unwrap().0, 0);
        assert_eq!(tl.phase_at(1).unwrap().2, 1);
        assert_eq!(tl.phase_at(2).unwrap().0, 1);
        assert_eq!(tl.phase_at(4).unwrap().2, 2);
        assert!(tl.phase_at(5).is_none());
        assert!(tl.flows_at(5, 16, 0).is_empty());
    }

    #[test]
    fn flat_phase_offers_identical_matrices_every_epoch() {
        let tl = demo();
        assert_eq!(tl.flows_at(0, 16, 3), tl.flows_at(1, 16, 3));
    }

    #[test]
    fn ramp_scales_demand_linearly() {
        let tl = demo();
        let scales: Vec<f64> = (2..5)
            .map(|e| tl.flows_at(e, 16, 3)[0].demand_gbps / 100.0)
            .collect();
        assert!((scales[0] - 0.5).abs() < 1e-9);
        assert!((scales[1] - 1.0).abs() < 1e-9);
        assert!((scales[2] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn rotation_shifts_destinations_without_self_flows() {
        let tl = DemandTimeline::shifting_hotspot(4, 300.0, 3, 2, 4);
        assert_eq!(tl.total_epochs(), 6);
        for epoch in 0..6 {
            for f in tl.flows_at(epoch, 16, 9) {
                assert_ne!(f.src, f.dst);
                assert!(f.dst < 16);
            }
        }
        // The hot set actually moves between phases.
        let first: Vec<u32> = tl.flows_at(0, 16, 9).iter().map(|f| f.dst).collect();
        let third: Vec<u32> = tl.flows_at(4, 16, 9).iter().map(|f| f.dst).collect();
        assert_ne!(first, third);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let tl = demo();
        assert_eq!(tl.flows_at(3, 32, 11), tl.flows_at(3, 32, 11));
        assert_ne!(tl.flows_at(3, 32, 11), tl.flows_at(3, 32, 12));
    }

    #[test]
    fn phases_use_distinct_base_matrices() {
        // Two identical patterns in different phases must not be the same
        // sample, or a "shift" between them would be a no-op.
        let p = TrafficPattern::Uniform {
            flows_per_mcm: 3,
            demand_gbps: 100.0,
        };
        let tl = DemandTimeline::named("x").phase(p, 1).phase(p, 1);
        assert_ne!(tl.flows_at(0, 32, 5), tl.flows_at(1, 32, 5));
    }

    #[test]
    fn spec_label_covers_demand_defining_fields() {
        let a = demo();
        let mut b = demo();
        assert_eq!(a.spec_label(), b.spec_label());
        b.phases[0].dst_rotation = 3;
        assert_ne!(a.spec_label(), b.spec_label());
        let mut c = demo();
        c.phases[1].end_scale = 2.0;
        assert_ne!(a.spec_label(), c.spec_label());
    }

    #[test]
    fn epoch_matrices_match_per_epoch_expansion() {
        for tl in [
            demo(),
            DemandTimeline::shifting_hotspot(4, 300.0, 3, 2, 4),
            DemandTimeline::hpc_mix(150.0, 2),
            DemandTimeline::elastic_churn(300.0, 2),
        ] {
            let all = tl.epoch_matrices(16, 11);
            assert_eq!(all.len(), tl.total_epochs() as usize);
            for (e, matrix) in all.iter().enumerate() {
                assert_eq!(*matrix, tl.flows_at(e as u32, 16, 11), "epoch {e}");
            }
        }
    }

    #[test]
    fn elastic_churn_ramps_change_demand_every_epoch() {
        let tl = DemandTimeline::elastic_churn(300.0, 3);
        assert_eq!(tl.phases.len(), 4);
        assert_eq!(tl.total_epochs(), 12);
        // The ramp phases must produce distinct demand bit patterns epoch to
        // epoch so a keep-in-place consumer sees genuine churn.
        let ramp_epochs: Vec<f64> = (3..6)
            .map(|e| tl.flows_at(e, 16, 7)[0].demand_gbps)
            .collect();
        assert_ne!(ramp_epochs[0].to_bits(), ramp_epochs[1].to_bits());
        assert_ne!(ramp_epochs[1].to_bits(), ramp_epochs[2].to_bits());
        // The incast phase is rotated away from the identity hot set.
        assert_eq!(tl.phases[2].dst_rotation, 3);
    }

    #[test]
    fn gpu_scale_is_in_range_and_mix_uses_it() {
        let s = gpu_demand_scale();
        assert!((1.0..=4.0).contains(&s), "scale {s}");
        let tl = DemandTimeline::hpc_mix(100.0, 2);
        assert_eq!(tl.phases.len(), 4);
        assert_eq!(tl.total_epochs(), 8);
        assert!((tl.phases[2].start_scale - s).abs() < 1e-12);
    }
}
