//! Codec property tests: the JSON parser and every decoder built on it
//! (`SweepReport`, `JobSpec`, `SweepGrid`) are fed arbitrary bytes and
//! mutations of real encodings — truncation at every offset, flipped,
//! inserted and deleted bytes, and splices of two documents. No input may
//! panic.
//!
//! `SweepReport::from_json` pulls reader events straight into the report.
//! Its oracle is the DOM walk it replaced, kept here: parse the whole
//! document into a `serde::json::Value`, then read each field by first
//! match. On every input both must fail, or both must return the same
//! report.

use photonic_disagg::core::energy::{EnergyMode, EnergyStats};
use photonic_disagg::core::jobs::JobSpec;
use photonic_disagg::core::sweep::SweepGrid;
use photonic_disagg::core::{SweepReport, SweepRow};
use photonic_disagg::fabric::rackfabric::FabricKind;
use photonic_disagg::workloads::TrafficPattern;
use serde::json::{self, Value};

/// The DOM-walk report decoder: the oracle for `SweepReport::from_json`.
fn dom_decode(text: &str) -> Result<SweepReport, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let field = |v: &Value, key: &str| v.get(key).cloned().ok_or(format!("missing {key}"));
    let string = |v: Value| v.as_str().map(str::to_string).ok_or("expected string");
    let number = |v: &Value| match v {
        Value::Null => Ok(f64::NAN),
        v => v.as_f64().ok_or("expected number"),
    };
    let object = |v: Value| match v {
        Value::Object(fields) => Ok(fields),
        _ => Err("expected object"),
    };
    let array = |v: Value| match v {
        Value::Array(items) => Ok(items),
        _ => Err("expected array"),
    };

    let mut report = SweepReport::new(string(field(&doc, "name")?)?);
    for (k, v) in object(field(&doc, "summary")?)? {
        report.summary.push((k, number(&v)?));
    }
    if let Some(energy) = doc.get("energy") {
        for entry in array(energy.clone())? {
            let label = string(field(&entry, "label")?)?;
            let mode_label = string(field(&entry, "mode")?)?;
            let mode = EnergyMode::parse(&mode_label).ok_or("unknown energy mode")?;
            let raw = |key: &str| -> Result<f64, String> { Ok(number(&field(&entry, key)?)?) };
            report.energy.push((
                label,
                EnergyStats {
                    mode,
                    duration_s: raw("duration_s")?,
                    payload_gigabits: raw("payload_gigabits")?,
                    transceiver_energy_j: raw("transceiver_j")?,
                    fec_energy_j: raw("fec_j")?,
                    reconfiguration_energy_j: raw("reconfiguration_j")?,
                    idle_energy_j: raw("idle_j")?,
                    compute_power_w: raw("compute_power_w")?,
                },
            ));
        }
    }
    for row in array(field(&doc, "rows")?)? {
        let mut params = Vec::new();
        for (k, v) in object(field(&row, "params")?)? {
            params.push((k, string(v)?));
        }
        let mut metrics = Vec::new();
        for (k, v) in object(field(&row, "metrics")?)? {
            metrics.push((k, number(&v)?));
        }
        report.rows.push(SweepRow {
            label: string(field(&row, "label")?)?,
            params,
            metrics,
        });
    }
    let declared = field(&doc, "scenarios")?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or("expected unsigned integer")?;
    if declared != report.rows.len() {
        return Err("scenarios field disagrees with rows".into());
    }
    Ok(report)
}

/// Feed `text` to every decoder. Each must return rather than panic, and
/// the streaming report decoder must agree with the DOM walk. Reports are
/// compared through `Debug`, which tells NaN, `-0.0` and every float apart.
fn check(text: &str) {
    let _ = json::parse(text);
    let _ = JobSpec::from_json(text);
    let _ = SweepGrid::from_json(text);
    let streamed = SweepReport::from_json(text);
    let walked = dom_decode(text);
    match (&streamed, &walked) {
        (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "input {text:?}"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "decoders disagree on {text:?}: streaming {:?}, DOM walk {:?}",
            streamed.as_ref().map(|_| "Ok"),
            walked.as_ref().map(|_| "Ok")
        ),
    }
}

/// Feed mutated bytes, as text: invalid UTF-8 is replaced, the way a
/// reader of a damaged file would have to decode it.
fn check_bytes(bytes: &[u8]) {
    check(&String::from_utf8_lossy(bytes));
}

/// SplitMix64: a seeded generator for the mutation positions and bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A byte biased towards JSON structure, so mutations reach past the
    /// first syntax check.
    fn byte(&mut self) -> u8 {
        const STRUCTURAL: &[u8] = b"{}[]\":,\\-+.0123456789eEtfnul \n\x01\x7f";
        if self.next() & 1 == 0 {
            STRUCTURAL[self.below(STRUCTURAL.len())]
        } else {
            self.next() as u8
        }
    }
}

/// A small report with energy entries, like one shard of a job.
fn small_report() -> String {
    SweepGrid::named("fuzz")
        .mcm_counts([16])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(2)
        .run()
        .to_json()
}

/// A report whose strings need escapes and whose metrics are non-finite.
fn tricky_report() -> String {
    let mut r = SweepReport::new("t\"\\é😀\u{1}");
    r.summary.push(("nan".into(), f64::NAN));
    r.rows.push(SweepRow {
        label: "a\nb".into(),
        params: vec![("k\t".into(), "v\u{1f}".into())],
        metrics: vec![("inf".into(), f64::INFINITY), ("neg".into(), -0.0)],
    });
    r.to_json()
}

fn grid_json() -> String {
    SweepGrid::named("fuzz")
        .mcm_counts([16, 24])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 600.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 500.0,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn])
        .replicates(2)
        .to_json()
}

fn job_json() -> String {
    format!(
        "{{\"grid\":{},\"threads\":2,\"rows_per_shard\":3,\"sample\":{{\"clusters\":4,\"seed\":9}}}}",
        grid_json()
    )
}

/// Every real encoding the mutations start from.
fn corpus() -> Vec<String> {
    vec![small_report(), tricky_report(), grid_json(), job_json()]
}

#[test]
fn real_encodings_decode() {
    for report in [small_report(), tricky_report()] {
        let parsed = SweepReport::from_json(&report).expect("report decodes");
        assert_eq!(parsed.to_json(), report);
        check(&report);
    }
    assert!(SweepGrid::from_json(&grid_json()).is_ok());
    assert!(JobSpec::from_json(&job_json()).is_ok());
}

#[test]
fn truncation_at_every_offset_never_panics() {
    for text in corpus() {
        for cut in 0..text.len() {
            check_bytes(&text.as_bytes()[..cut]);
        }
    }
}

#[test]
fn flipped_inserted_and_deleted_bytes_never_panic() {
    let mut rng = Rng(0x5EED);
    for text in corpus() {
        for _ in 0..600 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.below(bytes.len());
            match rng.below(3) {
                0 => bytes[at] ^= (rng.next() as u8).max(1),
                1 => bytes.insert(at, rng.byte()),
                _ => {
                    bytes.remove(at);
                }
            }
            check_bytes(&bytes);
        }
    }
}

#[test]
fn splices_of_two_documents_never_panic() {
    let corpus = corpus();
    let mut rng = Rng(0xC0DEC);
    for _ in 0..1500 {
        let a = corpus[rng.below(corpus.len())].as_bytes();
        let b = corpus[rng.below(corpus.len())].as_bytes();
        let mut spliced = a[..rng.below(a.len())].to_vec();
        spliced.extend_from_slice(&b[rng.below(b.len())..]);
        check_bytes(&spliced);
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = Rng(0xA5B17);
    for _ in 0..3000 {
        let len = rng.below(96);
        let bytes: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        check_bytes(&bytes);
    }
    // Shapes a random walk rarely builds.
    for text in [
        "[".repeat(10_000),
        "{\"a\":".repeat(10_000),
        format!("{}{}", "[".repeat(129), "]".repeat(129)),
        "\"\\ud800\"".to_string(),
        "1e99999".to_string(),
        "-".to_string(),
    ] {
        check(&text);
    }
}
