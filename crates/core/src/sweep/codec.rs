//! JSON serialization of [`SweepGrid`]: the deterministic writer, the
//! parser (through the vendored `serde::json` deserializer), and the
//! content hash the [`jobs`](crate::jobs) layer keys its shard cache on.
//!
//! The writer emits every axis in a fixed field order with the same
//! shortest-round-trip number formatting as
//! [`SweepReport::to_json`](crate::report::SweepReport::to_json), so
//! `to_json` → `from_json` → `to_json` reproduces the input bytes and the
//! grid hash is stable across submissions. The parser is *defaulting*:
//! absent fields keep their [`SweepGrid::default`] value, so a job spec
//! only states what it varies — exactly like the builder API — while
//! unknown fields are rejected (a typoed axis must not silently expand to
//! the default grid).

use fabric::{FabricKind, ReallocationPolicy, SpectrumPolicy};
use photonics::fec::FecConfig;
use workloads::timeline::Phase;
use workloads::{DemandTimeline, TrafficPattern};

use crate::codec::{self, DecodeError};
use crate::energy::{EnergyConfig, EnergyMode};
use crate::report::{json_number, json_string};
use crate::sweep::grid::SweepGrid;
use serde::json::Value;

impl SweepGrid {
    /// Serialize the grid to a single-line JSON string: every axis, in
    /// fixed declaration order, with shortest-round-trip float formatting.
    /// Deterministic — equal grids produce identical bytes, which is what
    /// [`SweepGrid::grid_hash`] and the `sweepd` shard cache rely on.
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let grid = SweepGrid::named("g").mcm_counts([16, 24]).replicates(3);
    /// let json = grid.to_json();
    /// assert!(json.contains("\"mcm_counts\":[16,24]"));
    /// assert_eq!(SweepGrid::from_json(&json).unwrap(), grid);
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"name\":");
        json_string(&mut out, &self.name);
        out.push_str(",\"fabric_kinds\":[");
        for (i, &kind) in self.fabric_kinds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, kind.label());
        }
        out.push_str("],");
        write_u32_axis(&mut out, "mcm_counts", &self.mcm_counts);
        write_u32_axis(&mut out, "fibers_per_mcm", &self.fibers_per_mcm);
        write_u32_axis(
            &mut out,
            "wavelengths_per_fiber",
            &self.wavelengths_per_fiber,
        );
        write_f64_axis(&mut out, "gbps_per_wavelength", &self.gbps_per_wavelength);
        out.push_str("\"fec_configs\":[");
        for (i, fec) in self.fec_configs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_fec(&mut out, fec);
        }
        out.push_str("],\"patterns\":[");
        for (i, pattern) in self.patterns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_pattern(&mut out, pattern);
        }
        out.push_str("],\"timelines\":[");
        for (i, timeline) in self.timelines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_timeline(&mut out, timeline);
        }
        out.push_str("],\"realloc_policies\":[");
        for (i, policy) in self.realloc_policies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, &policy.label());
        }
        out.push_str("],\"spectrum_policies\":[");
        for (i, policy) in self.spectrum_policies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, &policy.label());
        }
        out.push_str("],");
        write_f64_axis(&mut out, "direct_latencies_ns", &self.direct_latencies_ns);
        out.push_str("\"energy_modes\":[");
        for (i, mode) in self.energy_modes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, mode.label());
        }
        out.push_str("],\"energy_config\":{");
        for (i, (k, v)) in [
            (
                "transceiver_pj_per_bit",
                self.energy_config.transceiver_pj_per_bit,
            ),
            (
                "switch_power_per_mcm_w",
                self.energy_config.switch_power_per_mcm_w,
            ),
            (
                "compute_power_per_mcm_w",
                self.energy_config.compute_power_per_mcm_w,
            ),
            ("epoch_duration_s", self.energy_config.epoch_duration_s),
            (
                "reconfiguration_energy_j",
                self.energy_config.reconfiguration_energy_j,
            ),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, k);
            out.push(':');
            json_number(&mut out, *v);
        }
        out.push_str("},\"replicates\":");
        out.push_str(&self.replicates.to_string());
        out.push_str(",\"base_seed\":");
        // u64 as an integer literal: the raw-text Number on the parse side
        // preserves seeds beyond 2^53 exactly.
        out.push_str(&self.base_seed.to_string());
        out.push_str(",\"indirect_hop_latency_ns\":");
        json_number(&mut out, self.indirect_hop_latency_ns);
        out.push('}');
        out
    }

    /// Parse a grid from JSON. Fields absent from the document keep their
    /// [`SweepGrid::default`] value (so a job spec states only what it
    /// varies); unknown fields are errors, and so is a grid that fails
    /// [`SweepGrid::validate`].
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let grid = SweepGrid::from_json(r#"{"mcm_counts":[16],"replicates":2}"#).unwrap();
    /// assert_eq!(grid.mcm_counts, vec![16]);
    /// assert_eq!(grid.replicates, 2);
    /// assert_eq!(grid.name, "sweep"); // defaulted
    /// assert!(SweepGrid::from_json(r#"{"mcms":[16]}"#).is_err()); // typo caught
    /// ```
    pub fn from_json(text: &str) -> Result<Self, DecodeError> {
        let doc = serde::json::parse(text).map_err(|e| format!("grid: {e}"))?;
        Self::from_json_value(&doc)
    }

    /// [`SweepGrid::from_json`] over an already-parsed [`Value`] (the
    /// `jobs` layer parses the enclosing job document once).
    pub(crate) fn from_json_value(doc: &Value) -> Result<Self, DecodeError> {
        let mut grid = SweepGrid::default();
        for (key, value) in codec::as_object(doc, "grid")? {
            let ctx = format!("grid.{key}");
            match key.as_str() {
                "name" => grid.name = codec::as_str(value, &ctx)?.to_string(),
                "fabric_kinds" => {
                    grid.fabric_kinds = decode_each(value, &ctx, |v, c| {
                        let label = codec::as_str(v, c)?;
                        FabricKind::parse(label).ok_or_else(|| {
                            format!("{c}: unknown fabric kind {label:?} (awgr|wave|spatial)")
                        })
                    })?
                }
                "mcm_counts" => grid.mcm_counts = decode_each(value, &ctx, codec::as_u32)?,
                "fibers_per_mcm" => grid.fibers_per_mcm = decode_each(value, &ctx, codec::as_u32)?,
                "wavelengths_per_fiber" => {
                    grid.wavelengths_per_fiber = decode_each(value, &ctx, codec::as_u32)?
                }
                "gbps_per_wavelength" => {
                    grid.gbps_per_wavelength = decode_each(value, &ctx, codec::as_f64)?
                }
                "fec_configs" => grid.fec_configs = decode_each(value, &ctx, decode_fec)?,
                "patterns" => grid.patterns = decode_each(value, &ctx, decode_pattern)?,
                "timelines" => grid.timelines = decode_each(value, &ctx, decode_timeline)?,
                "realloc_policies" => {
                    grid.realloc_policies = decode_each(value, &ctx, |v, c| {
                        let label = codec::as_str(v, c)?;
                        ReallocationPolicy::parse(label).ok_or_else(|| {
                            format!("{c}: unknown policy {label:?} (static|greedy|hystX, 0<=X<=1)")
                        })
                    })?
                }
                "spectrum_policies" => {
                    grid.spectrum_policies = decode_each(value, &ctx, |v, c| {
                        let label = codec::as_str(v, c)?;
                        SpectrumPolicy::parse(label)
                            .ok_or_else(|| format!("{c}: unknown spectrum policy {label:?}"))
                    })?
                }
                "direct_latencies_ns" => {
                    grid.direct_latencies_ns = decode_each(value, &ctx, codec::as_f64)?
                }
                "energy_modes" => {
                    grid.energy_modes = decode_each(value, &ctx, |v, c| {
                        let label = codec::as_str(v, c)?;
                        EnergyMode::parse(label)
                            .ok_or_else(|| format!("{c}: unknown energy mode {label:?}"))
                    })?
                }
                "energy_config" => grid.energy_config = decode_energy_config(value, &ctx)?,
                "replicates" => grid.replicates = codec::as_u32(value, &ctx)?,
                "base_seed" => grid.base_seed = codec::as_u64(value, &ctx)?,
                "indirect_hop_latency_ns" => {
                    grid.indirect_hop_latency_ns = codec::as_f64(value, &ctx)?
                }
                _ => return Err(format!("grid: unknown field {key:?}")),
            }
        }
        grid.validate().map_err(|e| format!("grid.{e}"))?;
        Ok(grid)
    }

    /// Content hash of the grid (FNV-1a over the canonical
    /// [`SweepGrid::to_json`] bytes, as 16 hex digits): equal grids — no
    /// matter how they were built or spelled in a job file — share a hash,
    /// which is the key of the `sweepd` on-disk shard cache.
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let a = SweepGrid::named("g").mcm_counts([16, 24]);
    /// let b = SweepGrid::from_json(&a.to_json()).unwrap();
    /// assert_eq!(a.grid_hash(), b.grid_hash());
    /// assert_ne!(a.grid_hash(), a.clone().replicates(2).grid_hash());
    /// ```
    pub fn grid_hash(&self) -> String {
        format!("{:016x}", crate::hash::fnv1a(self.to_json().as_bytes()))
    }
}

fn write_u32_axis(out: &mut String, key: &str, values: &[u32]) {
    json_string(out, key);
    out.push_str(":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push_str("],");
}

fn write_f64_axis(out: &mut String, key: &str, values: &[f64]) {
    json_string(out, key);
    out.push_str(":[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_number(out, v);
    }
    out.push_str("],");
}

fn write_fec(out: &mut String, fec: &FecConfig) {
    out.push_str(&format!(
        "{{\"flit_bits\":{},\"correctable_burst_bits\":{},\"crc_group_flits\":{},",
        fec.flit_bits, fec.correctable_burst_bits, fec.crc_group_flits
    ));
    out.push_str("\"crc_escape_probability\":");
    json_number(out, fec.crc_escape_probability);
    out.push_str(",\"latency_ns\":");
    json_number(out, fec.latency_ns);
    out.push_str(",\"bandwidth_overhead\":");
    json_number(out, fec.bandwidth_overhead);
    out.push('}');
}

fn write_pattern(out: &mut String, pattern: &TrafficPattern) {
    let (kind, extra): (&str, Option<(&str, u32)>) = match pattern {
        TrafficPattern::Uniform { flows_per_mcm, .. } => {
            ("uniform", Some(("flows_per_mcm", *flows_per_mcm)))
        }
        TrafficPattern::Permutation { .. } => ("permutation", None),
        TrafficPattern::HotSpot { hot_mcms, .. } => ("hotspot", Some(("hot_mcms", *hot_mcms))),
        TrafficPattern::NearestNeighbor { neighbors, .. } => {
            ("neighbor", Some(("neighbors", *neighbors)))
        }
        TrafficPattern::AllToAll { .. } => ("alltoall", None),
    };
    out.push_str("{\"kind\":");
    json_string(out, kind);
    if let Some((key, value)) = extra {
        out.push(',');
        json_string(out, key);
        out.push(':');
        out.push_str(&value.to_string());
    }
    out.push_str(",\"demand_gbps\":");
    json_number(out, pattern.demand_gbps());
    out.push('}');
}

fn write_timeline(out: &mut String, timeline: &DemandTimeline) {
    out.push_str("{\"name\":");
    json_string(out, &timeline.name);
    out.push_str(",\"phases\":[");
    for (i, phase) in timeline.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"pattern\":");
        write_pattern(out, &phase.pattern);
        out.push_str(&format!(",\"epochs\":{}", phase.epochs));
        out.push_str(",\"start_scale\":");
        json_number(out, phase.start_scale);
        out.push_str(",\"end_scale\":");
        json_number(out, phase.end_scale);
        out.push_str(&format!(",\"dst_rotation\":{}}}", phase.dst_rotation));
    }
    out.push_str("]}");
}

fn decode_each<T>(
    value: &Value,
    ctx: &str,
    decode: impl Fn(&Value, &str) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    codec::as_array(value, ctx)?
        .iter()
        .enumerate()
        .map(|(i, v)| decode(v, &format!("{ctx}[{i}]")))
        .collect()
}

fn decode_fec(value: &Value, ctx: &str) -> Result<FecConfig, DecodeError> {
    Ok(FecConfig {
        flit_bits: codec::u32_field(value, "flit_bits", ctx)?,
        correctable_burst_bits: codec::u32_field(value, "correctable_burst_bits", ctx)?,
        crc_group_flits: codec::u32_field(value, "crc_group_flits", ctx)?,
        crc_escape_probability: codec::f64_field(value, "crc_escape_probability", ctx)?,
        latency_ns: codec::f64_field(value, "latency_ns", ctx)?,
        bandwidth_overhead: codec::f64_field(value, "bandwidth_overhead", ctx)?,
    })
}

fn decode_pattern(value: &Value, ctx: &str) -> Result<TrafficPattern, DecodeError> {
    let kind = codec::str_field(value, "kind", ctx)?;
    let demand_gbps = codec::f64_field(value, "demand_gbps", ctx)?;
    Ok(match kind {
        "uniform" => TrafficPattern::Uniform {
            flows_per_mcm: codec::u32_field(value, "flows_per_mcm", ctx)?,
            demand_gbps,
        },
        "permutation" => TrafficPattern::Permutation { demand_gbps },
        "hotspot" => TrafficPattern::HotSpot {
            hot_mcms: codec::u32_field(value, "hot_mcms", ctx)?,
            demand_gbps,
        },
        "neighbor" => TrafficPattern::NearestNeighbor {
            neighbors: codec::u32_field(value, "neighbors", ctx)?,
            demand_gbps,
        },
        "alltoall" => TrafficPattern::AllToAll { demand_gbps },
        other => return Err(format!("{ctx}.kind: unknown pattern {other:?}")),
    })
}

fn decode_timeline(value: &Value, ctx: &str) -> Result<DemandTimeline, DecodeError> {
    let mut timeline = DemandTimeline::named(codec::str_field(value, "name", ctx)?);
    let phases = codec::as_array(codec::field(value, "phases", ctx)?, ctx)?;
    for (i, phase) in phases.iter().enumerate() {
        let ctx = format!("{ctx}.phases[{i}]");
        timeline.phases.push(Phase {
            pattern: decode_pattern(codec::field(phase, "pattern", &ctx)?, &ctx)?,
            epochs: codec::u32_field(phase, "epochs", &ctx)?,
            start_scale: codec::f64_field(phase, "start_scale", &ctx)?,
            end_scale: codec::f64_field(phase, "end_scale", &ctx)?,
            dst_rotation: codec::u32_field(phase, "dst_rotation", &ctx)?,
        });
    }
    Ok(timeline)
}

fn decode_energy_config(value: &Value, ctx: &str) -> Result<EnergyConfig, DecodeError> {
    Ok(EnergyConfig {
        transceiver_pj_per_bit: codec::f64_field(value, "transceiver_pj_per_bit", ctx)?,
        switch_power_per_mcm_w: codec::f64_field(value, "switch_power_per_mcm_w", ctx)?,
        compute_power_per_mcm_w: codec::f64_field(value, "compute_power_per_mcm_w", ctx)?,
        epoch_duration_s: codec::f64_field(value, "epoch_duration_s", ctx)?,
        reconfiguration_energy_j: codec::f64_field(value, "reconfiguration_energy_j", ctx)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::flexgrid::{AdmissionPolicy, DefragPolicy};

    /// A grid exercising every axis: all pattern kinds, a multi-phase
    /// timeline, every policy family, both energy modes, a >2^53 seed.
    fn kitchen_sink() -> SweepGrid {
        SweepGrid::named("kitchen \"sink\"")
            .fabric_kinds([
                FabricKind::ParallelAwgrs,
                FabricKind::WaveSelective,
                FabricKind::Spatial,
            ])
            .mcm_counts([16, 350])
            .fibers_per_mcm([8, 32])
            .wavelengths_per_fiber([64])
            .gbps_per_wavelength([25.0, 12.5])
            .fec_configs([FecConfig::cxl_lightweight(), FecConfig::disabled()])
            .patterns([
                TrafficPattern::Uniform {
                    flows_per_mcm: 4,
                    demand_gbps: 100.0,
                },
                TrafficPattern::Permutation { demand_gbps: 600.0 },
                TrafficPattern::HotSpot {
                    hot_mcms: 8,
                    demand_gbps: 500.0,
                },
                TrafficPattern::NearestNeighbor {
                    neighbors: 2,
                    demand_gbps: 50.0,
                },
                TrafficPattern::AllToAll { demand_gbps: 8.0 },
            ])
            .timelines([
                DemandTimeline::shifting_hotspot(8, 400.0, 4, 3, 8),
                DemandTimeline::elastic_churn(600.0, 2),
            ])
            .realloc_policies([
                ReallocationPolicy::Static,
                ReallocationPolicy::GreedyResteer,
                ReallocationPolicy::Hysteresis {
                    min_satisfaction: 0.9,
                },
            ])
            .spectrum_policies([
                SpectrumPolicy::default(),
                SpectrumPolicy {
                    admission: AdmissionPolicy::BestFit,
                    defrag: DefragPolicy::OnBlock,
                },
                SpectrumPolicy {
                    admission: AdmissionPolicy::ExactFit,
                    defrag: DefragPolicy::EveryEpoch,
                },
            ])
            .direct_latencies_ns([25.0, 35.0])
            .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
            .base_seed(u64::MAX - 7)
    }

    #[test]
    fn grid_round_trips_writer_parser_writer_byte_identically() {
        for grid in [SweepGrid::default(), kitchen_sink()] {
            let json = grid.to_json();
            let parsed = SweepGrid::from_json(&json).expect("parses");
            assert_eq!(parsed, grid);
            assert_eq!(parsed.to_json(), json);
            assert_eq!(parsed.grid_hash(), grid.grid_hash());
        }
    }

    #[test]
    fn sparse_specs_default_like_the_builder() {
        let grid = SweepGrid::from_json("{}").unwrap();
        assert_eq!(grid, SweepGrid::default());
        let grid = SweepGrid::from_json(
            r#"{"name":"n","patterns":[{"kind":"alltoall","demand_gbps":8}]}"#,
        )
        .unwrap();
        assert_eq!(grid.name, "n");
        assert_eq!(
            grid.patterns,
            vec![TrafficPattern::AllToAll { demand_gbps: 8.0 }]
        );
        assert_eq!(grid.mcm_counts, SweepGrid::default().mcm_counts);
    }

    #[test]
    fn parser_rejects_unknown_and_malformed_fields() {
        assert!(SweepGrid::from_json(r#"{"mcmcounts":[16]}"#)
            .unwrap_err()
            .contains("mcmcounts"));
        assert!(SweepGrid::from_json(r#"{"mcm_counts":16}"#).is_err());
        // A rack below two MCMs is rejected by name, not swept.
        for counts in ["[0]", "[1]", "[16,1]"] {
            let err = SweepGrid::from_json(&format!(r#"{{"mcm_counts":{counts}}}"#)).unwrap_err();
            assert!(err.contains("mcm_counts"), "{counts}: {err}");
        }
        assert!(SweepGrid::from_json(r#"{"mcm_counts":[2]}"#).is_ok());
        // So is every other axis value that makes no physical sense; `null`
        // decodes as NaN.
        for (field, values) in [
            ("fibers_per_mcm", "[0]"),
            ("fibers_per_mcm", "[32,0]"),
            ("wavelengths_per_fiber", "[0]"),
            ("gbps_per_wavelength", "[null]"),
            ("gbps_per_wavelength", "[0]"),
            ("gbps_per_wavelength", "[-25]"),
            ("direct_latencies_ns", "[null]"),
            ("direct_latencies_ns", "[-1]"),
            ("replicates", "0"),
        ] {
            let err = SweepGrid::from_json(&format!(r#"{{"{field}":{values}}}"#)).unwrap_err();
            assert!(
                err.starts_with(&format!("grid.{field}:")),
                "{field} {values}: {err}"
            );
        }
        assert!(SweepGrid::from_json(r#"{"direct_latencies_ns":[0]}"#).is_ok());
        // Demands, phase scales, the hop latency, energy knobs and FEC
        // overheads are checked the same way, each error naming its path.
        type Set = fn(&mut SweepGrid, f64);
        fn timeline(g: &mut SweepGrid) -> &mut Phase {
            let pattern = TrafficPattern::Permutation { demand_gbps: 100.0 };
            g.timelines = vec![DemandTimeline::steady(pattern, 2)];
            &mut g.timelines[0].phases[0]
        }
        let knobs: [(&str, Set); 13] = [
            ("patterns[0].demand_gbps", |g, v| {
                g.patterns = vec![TrafficPattern::AllToAll { demand_gbps: v }]
            }),
            ("timelines[0].phases[0].pattern.demand_gbps", |g, v| {
                timeline(g).pattern = TrafficPattern::Permutation { demand_gbps: v }
            }),
            ("timelines[0].phases[0].start_scale", |g, v| {
                timeline(g).start_scale = v
            }),
            ("timelines[0].phases[0].end_scale", |g, v| {
                timeline(g).end_scale = v
            }),
            ("indirect_hop_latency_ns", |g, v| {
                g.indirect_hop_latency_ns = v
            }),
            ("energy_config.transceiver_pj_per_bit", |g, v| {
                g.energy_config.transceiver_pj_per_bit = v
            }),
            ("energy_config.switch_power_per_mcm_w", |g, v| {
                g.energy_config.switch_power_per_mcm_w = v
            }),
            ("energy_config.compute_power_per_mcm_w", |g, v| {
                g.energy_config.compute_power_per_mcm_w = v
            }),
            ("energy_config.epoch_duration_s", |g, v| {
                g.energy_config.epoch_duration_s = v
            }),
            ("energy_config.reconfiguration_energy_j", |g, v| {
                g.energy_config.reconfiguration_energy_j = v
            }),
            ("fec_configs[0].bandwidth_overhead", |g, v| {
                g.fec_configs[0].bandwidth_overhead = v
            }),
            ("fec_configs[0].latency_ns", |g, v| {
                g.fec_configs[0].latency_ns = v
            }),
            ("fec_configs[0].crc_escape_probability", |g, v| {
                g.fec_configs[0].crc_escape_probability = v
            }),
        ];
        let decode = |set: Set, v: f64| {
            let mut grid = SweepGrid::default();
            set(&mut grid, v);
            SweepGrid::from_json(&grid.to_json())
        };
        for (field, set) in knobs {
            for v in [f64::NAN, f64::INFINITY, -5.0] {
                let err = decode(set, v).unwrap_err();
                assert!(err.starts_with(&format!("grid.{field}:")), "{v}: {err}");
            }
            assert!(decode(set, 0.0).is_ok(), "{field} 0");
        }
        for overhead in [1.0, 1.5] {
            let err = decode(knobs[10].1, overhead).unwrap_err();
            assert!(err.starts_with("grid.fec_configs[0].bandwidth_overhead:"));
        }
        let err = decode(knobs[12].1, 1.5).unwrap_err();
        assert!(err.starts_with("grid.fec_configs[0].crc_escape_probability:"));
        assert!(decode(knobs[12].1, 1.0).is_ok());
        // `fec.rs` divides by `flit_bits`.
        let mut grid = SweepGrid::default();
        grid.fec_configs[0].flit_bits = 0;
        let err = SweepGrid::from_json(&grid.to_json()).unwrap_err();
        assert!(err.starts_with("grid.fec_configs[0].flit_bits:"), "{err}");
        grid.fec_configs[0].flit_bits = 1;
        assert!(SweepGrid::from_json(&grid.to_json()).is_ok());
        // A hot set must leave a sender in the smallest rack, and neither a
        // hot set nor a reach may be 0 or be clamped to another count.
        let hot = |hot_mcms| TrafficPattern::HotSpot {
            hot_mcms,
            demand_gbps: 100.0,
        };
        let halo = |neighbors| TrafficPattern::NearestNeighbor {
            neighbors,
            demand_gbps: 100.0,
        };
        for (pattern, legal, field) in [
            (hot(15), true, "hot_mcms"),
            (hot(16), false, "hot_mcms"),
            (hot(17), false, "hot_mcms"),
            (hot(4_000_000_000), false, "hot_mcms"),
            (hot(1), true, "hot_mcms"),
            (hot(0), false, "hot_mcms"),
            (halo(8), true, "neighbors"),
            (halo(9), false, "neighbors"),
            (halo(1), true, "neighbors"),
            (halo(0), false, "neighbors"),
        ] {
            let grid = SweepGrid::default()
                .mcm_counts([24, 16])
                .patterns([TrafficPattern::AllToAll { demand_gbps: 1.0 }, pattern]);
            match SweepGrid::from_json(&grid.to_json()) {
                Ok(_) => assert!(legal, "{} accepted", pattern.label()),
                Err(err) => assert!(
                    !legal && err.starts_with(&format!("grid.patterns[1].{field}:")),
                    "{}: {err}",
                    pattern.label()
                ),
            }
        }
        // Timeline phases get the lower bound only.
        for (pattern, field) in [(hot(0), "hot_mcms"), (halo(0), "neighbors")] {
            let phased = DemandTimeline::steady(hot(1), 2).burst(pattern, 1, 1.0);
            let grid = SweepGrid::default().timelines([phased]);
            let err = SweepGrid::from_json(&grid.to_json()).unwrap_err();
            let at = format!("grid.timelines[0].phases[1].pattern.{field}:");
            assert!(err.starts_with(&at), "{err}");
        }
        // Two negatives no longer multiply into a positive demand.
        let negated = r#"{"timelines":[{"name":"t","phases":[{"pattern":{"kind":"permutation","demand_gbps":-100},"epochs":2,"start_scale":-3,"end_scale":-3,"dst_rotation":0}]}]}"#;
        let err = SweepGrid::from_json(negated).unwrap_err();
        assert!(err.starts_with("grid.timelines[0].phases[0].pattern.demand_gbps:"));
        // Empty axes stay legal: they expand to zero scenarios.
        assert!(SweepGrid::from_json(r#"{"mcm_counts":[],"gbps_per_wavelength":[]}"#).is_ok());
        assert!(SweepGrid::from_json(r#"{"fabric_kinds":["warp"]}"#).is_err());
        assert!(
            SweepGrid::from_json(r#"{"patterns":[{"kind":"spiral","demand_gbps":1}]}"#).is_err()
        );
        for policy in ["hystx", "hystNaN", "hyst7", "hyst-2"] {
            let err = SweepGrid::from_json(&format!(r#"{{"realloc_policies":["{policy}"]}}"#))
                .unwrap_err();
            assert!(err.contains("realloc_policies"), "{policy}: {err}");
        }
        assert!(SweepGrid::from_json(r#"{"energy_modes":["always","utilization"]}"#).is_ok());
        assert!(SweepGrid::from_json("[]").is_err());
    }

    #[test]
    fn policy_and_seed_fidelity() {
        let json = kitchen_sink().to_json();
        let parsed = SweepGrid::from_json(&json).unwrap();
        assert_eq!(
            parsed.realloc_policies[2],
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9
            }
        );
        assert_eq!(parsed.spectrum_policies[1].label(), "bestfit+defrag");
        // Seeds above 2^53 survive the raw-text number model.
        assert_eq!(parsed.base_seed, u64::MAX - 7);
    }

    #[test]
    fn hash_tracks_grid_content_not_spelling() {
        let built = SweepGrid::named("h").mcm_counts([16]);
        let spelled = SweepGrid::from_json(r#"{"name":"h","mcm_counts":[16]}"#).unwrap();
        assert_eq!(built.grid_hash(), spelled.grid_hash());
        assert_ne!(
            built.grid_hash(),
            SweepGrid::named("h2").mcm_counts([16]).grid_hash()
        );
        assert_eq!(built.grid_hash().len(), 16);
    }
}
