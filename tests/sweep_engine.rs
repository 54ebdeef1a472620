//! Integration tests for the `core::sweep` scenario engine, driven through
//! the umbrella crate the way a downstream user would.

use photonic_disagg::core::energy::EnergyMode;
use photonic_disagg::core::sweep::{artifacts, SweepGrid};
use photonic_disagg::fabric::FabricKind;
use photonic_disagg::workloads::TrafficPattern;

fn two_axis_grid() -> SweepGrid {
    SweepGrid::named("it")
        .mcm_counts([24, 48])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([TrafficPattern::Uniform {
            flows_per_mcm: 3,
            demand_gbps: 300.0,
        }])
        .direct_latencies_ns([35.0])
}

#[test]
fn two_axis_grid_twice_is_byte_identical_json() {
    let grid = two_axis_grid();
    let a = grid.run().to_json();
    let b = grid.run().to_json();
    assert_eq!(a, b);
    assert!(a.contains("\"scenarios\":4"));
}

/// A row that offers no flows sums nothing: its totals print `0`, never
/// the `-0` an empty `f64` sum starts from.
#[test]
fn zero_flow_rows_print_zero_not_negative_zero() {
    let json = SweepGrid::named("idle")
        .mcm_counts([16])
        .patterns([TrafficPattern::Uniform {
            flows_per_mcm: 0,
            demand_gbps: 100.0,
        }])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .run()
        .to_json();
    assert!(json.contains("\"flows\":0,"), "{json}");
    for zero in [":-0,", ":-0}", ":-0]"] {
        assert!(!json.contains(zero), "{zero} in {json}");
    }
}

#[test]
fn parallel_matches_serial_through_umbrella() {
    let grid = two_axis_grid();
    assert_eq!(grid.run(), grid.run_serial());
}

#[test]
fn engine_scales_scenarios_without_new_loop_code() {
    // The point of the engine: a richer study is a bigger grid, not more
    // code. 2 fabrics x 2 sizes x 2 patterns x 2 latencies x 2 replicates.
    let grid = two_axis_grid()
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 500.0 },
            TrafficPattern::NearestNeighbor {
                neighbors: 2,
                demand_gbps: 500.0,
            },
        ])
        .direct_latencies_ns([25.0, 35.0])
        .replicates(2);
    let report = grid.run();
    assert_eq!(report.rows.len(), 32);
    // Shared topologies are built once each (2 kinds x 2 sizes).
    assert_eq!(report.summary_metric("fabrics_built"), Some(4.0));
    for row in &report.rows {
        let sat = row.metric("satisfaction").unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&sat), "satisfaction {sat}");
        assert!(!row.metric("mean_latency_ns").unwrap().is_nan());
    }
}

#[test]
fn engine_backed_artifacts_are_deterministic() {
    // table1/table3 are cheap enough to regenerate twice in a test; the
    // figure artifacts share the same engine path.
    let t1a = artifacts::table1();
    let t1b = artifacts::table1();
    assert_eq!(t1a.report.to_json(), t1b.report.to_json());
    assert_eq!(t1a.text, t1b.text);
    let t3 = artifacts::table3();
    assert_eq!(t3.report.summary_metric("total_mcms"), Some(350.0));
}
