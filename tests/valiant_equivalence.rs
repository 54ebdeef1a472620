//! Statistical equivalence of the per-flow Valiant streams with the sampler
//! they replaced.
//!
//! The flow solver used to draw every flow's candidate order from one
//! generator per solve, shuffling each candidate list completely; it now
//! draws each flow's order from that flow's own stream and stops the
//! shuffle at the last intermediate the flow uses. Both pick intermediates
//! uniformly at random, so over many replicates the two must agree on the
//! mean of every reported metric. The pinned values below are 400-replicate
//! means and standard errors measured with the single-stream sampler (the
//! engine at `ENGINE_VERSION` 2), on the same grids this test runs.

use photonic_disagg::core::sweep::SweepGrid;
use photonic_disagg::fabric::FabricKind;
use photonic_disagg::workloads::TrafficPattern;

const REPLICATES: u32 = 400;

/// One metric's mean and standard error over a grid's replicates.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    mean: f64,
    std_error: f64,
}

fn pinned(metric: &str, mean: f64, std_error: f64) -> (&str, Estimate) {
    (metric, Estimate { mean, std_error })
}

fn estimate(values: &[f64]) -> Estimate {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    Estimate {
        mean,
        std_error: (variance / n).sqrt(),
    }
}

/// Run `pattern` on a 64-MCM AWGR rack, 400 replicates from base seed 7,
/// and check each metric's mean against its pinned single-stream value:
/// the two means may differ by at most 4 standard errors of their
/// difference.
fn assert_matches_single_stream(pattern: TrafficPattern, pinned: [(&str, Estimate); 3]) {
    let report = SweepGrid::named("valiant-equivalence")
        .fabric_kinds([FabricKind::ParallelAwgrs])
        .mcm_counts([64])
        .patterns([pattern])
        .replicates(REPLICATES)
        .base_seed(7)
        .run();
    assert_eq!(report.rows.len(), REPLICATES as usize);
    let mut misses = Vec::new();
    for (metric, parent) in pinned {
        let values: Vec<f64> = report
            .rows
            .iter()
            .map(|row| row.metric(metric).expect("row carries the metric"))
            .collect();
        let now = estimate(&values);
        let bound = 4.0 * now.std_error.hypot(parent.std_error);
        if (now.mean - parent.mean).abs() > bound {
            misses.push(format!(
                "{metric}: mean {} se {} vs single-stream {} se {} (bound {bound})",
                now.mean, now.std_error, parent.mean, parent.std_error
            ));
        }
    }
    assert!(misses.is_empty(), "{}: {misses:#?}", pattern.label());
}

#[test]
fn hotspot_means_match_the_single_stream_sampler() {
    assert_matches_single_stream(
        TrafficPattern::HotSpot {
            hot_mcms: 4,
            demand_gbps: 800.0,
        },
        [
            pinned(
                "satisfaction",
                0.729_912_787_499_997_3,
                1.458_530_955_251_807e-5,
            ),
            pinned(
                "indirect_fraction",
                0.692_333_333_333_331_7,
                4.633_610_096_131_745e-4,
            ),
            pinned(
                "mean_latency_ns",
                40.946_603_670_426_03,
                4.102_760_404_966_428_4e-5,
            ),
        ],
    );
}
