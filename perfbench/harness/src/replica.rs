//! The traced run: the engine's grid and job pipelines re-driven from the
//! benchmark's side, one public layer call at a time, with a span around
//! each call and counters at each boundary.
//!
//! The replica mirrors the engine's structure — per-batch dedup of
//! physically identical solves, energy replay for the followers, a bounded
//! per-batch demand memo, shard checkpoints through encode/write/fsync/
//! rename, and the merge re-fold — so its span times account for the wall
//! time of the untraced entry points. Its rows are compared bit for bit
//! with the untraced report's by the caller; any drift (for example in
//! the flow-seed derivation) fails the run.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use disagg_core::energy::{EnergyConfig, EnergyModel, EnergyStats};
use disagg_core::jobs::JobSpec;
use disagg_core::report::SweepReport;
use disagg_core::sample::ClusterPlan;
use disagg_core::sweep::{
    FlexGridRowMetrics, Scenario, ScenarioLoad, ScenarioResult, StreamConfig, SweepGrid,
};
use fabric::{
    FabricKind, FlexGridArena, FlexGridConfig, FlexGridSimulator, Flow, FlowArena, FlowSimConfig,
    FlowSimulator, RackFabric, RackFabricConfig, TimelineArena, TimelineConfig, TimelineSimulator,
};

use crate::trace::Tracer;

/// Entries the engine's per-batch demand memo holds before it is wiped.
const DEMAND_MEMO_CAP: usize = 128;

/// Counts recorded at the layer boundaries of one traced pass.
#[derive(Debug, Default)]
pub struct Counters {
    pub flows_generated: usize,
    pub flow_solves: usize,
    pub flows_solved: usize,
    pub flow_no_indirect: usize,
    /// Distinct `(offered, satisfied, direct, indirect, latency)` bit
    /// patterns among flow solves.
    pub flow_outcomes: HashSet<[u64; 5]>,
    pub timeline_solves: usize,
    pub timeline_epochs: usize,
    pub timeline_reconfigurations: usize,
    pub flexgrid_solves: usize,
    pub flexgrid_epochs: usize,
    pub flexgrid_requests: usize,
    pub flexgrid_blocked: usize,
    pub flexgrid_defrag_events: usize,
    pub energy_accounts: usize,
    pub encode_bytes: usize,
    pub parse_bytes: usize,
}

type FabricKey = (FabricKind, u32, u32, u32, u64);

fn fabric_key(config: &RackFabricConfig) -> FabricKey {
    (
        config.kind,
        config.mcm_count,
        config.fibers_per_mcm,
        config.wavelengths_per_fiber,
        config.gbps_per_wavelength.to_bits(),
    )
}

/// Every distinct topology of a grid, built once.
struct Fabrics(HashMap<FabricKey, RackFabric>);

impl Fabrics {
    fn build(grid: &SweepGrid, tr: &mut Tracer) -> Self {
        tr.span("fabric.build", || {
            let mut built = HashMap::new();
            for &kind in &grid.fabric_kinds {
                for &mcm_count in &grid.mcm_counts {
                    for &fibers_per_mcm in &grid.fibers_per_mcm {
                        for &wavelengths_per_fiber in &grid.wavelengths_per_fiber {
                            for &gbps in &grid.gbps_per_wavelength {
                                for fec in &grid.fec_configs {
                                    let config = RackFabricConfig {
                                        mcm_count,
                                        fibers_per_mcm,
                                        wavelengths_per_fiber,
                                        gbps_per_wavelength: gbps * (1.0 - fec.bandwidth_overhead),
                                        kind,
                                    };
                                    built
                                        .entry(fabric_key(&config))
                                        .or_insert_with(|| RackFabric::new(config));
                                }
                            }
                        }
                    }
                }
            }
            Fabrics(built)
        })
    }

    fn get(&self, config: &RackFabricConfig) -> &RackFabric {
        &self.0[&fabric_key(config)]
    }
}

type MemoKey = (String, u32, u64);

/// One batch's solver arenas and demand memo, as the engine keeps per
/// worker.
struct Scratch {
    flow: FlowArena,
    timeline: TimelineArena,
    flexgrid: FlexGridArena,
    flows_memo: HashMap<MemoKey, Arc<Vec<Flow>>>,
    epochs_memo: HashMap<MemoKey, Arc<Vec<Vec<Flow>>>>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            flow: FlowArena::new(),
            timeline: TimelineArena::new(),
            flexgrid: FlexGridArena::new(),
            flows_memo: HashMap::new(),
            epochs_memo: HashMap::new(),
        }
    }
}

fn memo_fetch<T>(
    memo: &mut HashMap<MemoKey, Arc<T>>,
    key: MemoKey,
    expand: impl FnOnce() -> T,
    tr: &mut Tracer,
) -> Arc<T> {
    if let Some(hit) = tr.span("demand.lookup", || memo.get(&key).cloned()) {
        return hit;
    }
    let value = Arc::new(tr.span("demand.expand", expand));
    if memo.len() >= DEMAND_MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, value.clone());
    value
}

/// The physical solve key: every input that reaches the solver.
type PhysicalKey = (u8, String, FabricKey, u64, u64);

fn physical_key(scenario: &Scenario) -> PhysicalKey {
    let (kind, load) = match &scenario.load {
        ScenarioLoad::Pattern(p) => (0, p.memo_key()),
        ScenarioLoad::Timeline(tc) => (
            1,
            format!("{}~{}", tc.timeline.spec_label(), tc.policy.label()),
        ),
        ScenarioLoad::FlexGrid(fc) => (
            2,
            format!("{}~{}", fc.timeline.spec_label(), fc.policy.label()),
        ),
    };
    (
        kind,
        load,
        fabric_key(&scenario.fabric),
        scenario.direct_latency_ns.to_bits(),
        scenario.seed,
    )
}

/// Solve one dedup group's leader and account energy for every member.
/// Returns the leader's result and each member's energy, in member order.
fn solve_group(
    members: &[&Scenario],
    fabrics: &Fabrics,
    hop_ns: f64,
    energy_config: &EnergyConfig,
    scratch: &mut Scratch,
    tr: &mut Tracer,
    c: &mut Counters,
) -> (ScenarioResult, Vec<Option<EnergyStats>>) {
    let scenario = members[0];
    let fabric = fabrics.get(&scenario.fabric);
    let mcm_count = scenario.fabric.mcm_count;
    let flow_config = FlowSimConfig {
        direct_latency_ns: scenario.direct_latency_ns,
        indirect_hop_latency_ns: hop_ns,
        seed: scenario.seed ^ 0x9E37_79B9_7F4A_7C15,
    };
    let models: Vec<Option<EnergyModel>> = members
        .iter()
        .map(|s| {
            s.energy_mode
                .map(|mode| EnergyModel::new(mode, *energy_config, &s.fabric, &s.fec))
        })
        .collect();
    c.energy_accounts += models.iter().flatten().count();
    let account = |tr: &mut Tracer, f: &dyn Fn(&EnergyModel) -> EnergyStats| {
        // Grids without an energy axis never reach the energy layer.
        if models.iter().all(Option::is_none) {
            return vec![None; models.len()];
        }
        tr.span("energy.account", || {
            models.iter().map(|m| m.as_ref().map(f)).collect::<Vec<_>>()
        })
    };
    match &scenario.load {
        ScenarioLoad::Pattern(pattern) => {
            let key = (
                pattern.memo_key(),
                mcm_count,
                pattern.effective_seed(scenario.seed),
            );
            let flows = memo_fetch(
                &mut scratch.flows_memo,
                key,
                || {
                    let flows = pattern.flows(mcm_count, scenario.seed);
                    c.flows_generated += flows.len();
                    flows
                },
                tr,
            );
            let sim = FlowSimulator::new(fabric, flow_config);
            let report = tr.span("flowsim.solve", || sim.run_in(&mut scratch.flow, &flows));
            c.flow_solves += 1;
            c.flows_solved += flows.len();
            if report.indirect_fraction == 0.0 {
                c.flow_no_indirect += 1;
            }
            c.flow_outcomes.insert([
                report.offered_gbps.to_bits(),
                report.satisfied_gbps.to_bits(),
                report.fabric_direct_gbps.to_bits(),
                report.fabric_indirect_gbps.to_bits(),
                report.mean_latency_ns.to_bits(),
            ]);
            let energies = account(tr, &|m| m.account_flows(&report));
            let result = ScenarioResult {
                scenario: scenario.clone(),
                flows: flows.len(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: report.satisfied_gbps,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns: report.mean_latency_ns,
                epochs: 1,
                reconfigurations: 0,
                energy: energies[0],
                flexgrid: None,
            };
            scratch.flow.recycle(report);
            (result, energies)
        }
        ScenarioLoad::Timeline(tc) => {
            let key = (tc.timeline.spec_label(), mcm_count, scenario.seed);
            let epochs = memo_fetch(
                &mut scratch.epochs_memo,
                key,
                || {
                    let epochs = tc.timeline.epoch_matrices(mcm_count, scenario.seed);
                    c.flows_generated += epochs.iter().map(Vec::len).sum::<usize>();
                    epochs
                },
                tr,
            );
            let sim = TimelineSimulator::new(
                fabric,
                TimelineConfig {
                    flow: flow_config,
                    policy: tc.policy,
                },
            );
            let report = tr.span("timeline.solve", || {
                sim.run_in(&mut scratch.timeline, &epochs)
            });
            c.timeline_solves += 1;
            c.timeline_epochs += report.epochs.len();
            c.timeline_reconfigurations += report.reconfigurations;
            let energies = account(tr, &|m| m.account_timeline(&report));
            let result = ScenarioResult {
                scenario: scenario.clone(),
                flows: report.epochs.iter().map(|e| e.flows).sum(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: report.satisfied_gbps,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns: report.mean_latency_ns,
                epochs: report.epochs.len(),
                reconfigurations: report.reconfigurations,
                energy: energies[0],
                flexgrid: None,
            };
            scratch.timeline.recycle(report);
            (result, energies)
        }
        ScenarioLoad::FlexGrid(fc) => {
            let key = (fc.timeline.spec_label(), mcm_count, scenario.seed);
            let epochs = memo_fetch(
                &mut scratch.epochs_memo,
                key,
                || {
                    let epochs = fc.timeline.epoch_matrices(mcm_count, scenario.seed);
                    c.flows_generated += epochs.iter().map(Vec::len).sum::<usize>();
                    epochs
                },
                tr,
            );
            let sim = FlexGridSimulator::new(
                fabric,
                FlexGridConfig {
                    policy: fc.policy,
                    ..FlexGridConfig::default()
                },
            );
            let report = tr.span("flexgrid.solve", || {
                sim.run_in(&mut scratch.flexgrid, &epochs)
            });
            c.flexgrid_solves += 1;
            c.flexgrid_epochs += report.epochs.len();
            c.flexgrid_requests += report.requests;
            c.flexgrid_blocked += report.blocked;
            c.flexgrid_defrag_events += report.defrag_events;
            let carried = report.carried_gbps();
            let latency = scenario.direct_latency_ns;
            let mean_latency_ns = if carried > 0.0 {
                ((report.carried_local_gbps + report.carried_direct_gbps) * latency
                    + report.carried_indirect_gbps * (latency + hop_ns))
                    / carried
            } else {
                0.0
            };
            let energies = account(tr, &|m| m.account_flexgrid(&report));
            let result = ScenarioResult {
                scenario: scenario.clone(),
                flows: report.epochs.iter().map(|e| e.flows).sum(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: carried,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns,
                epochs: report.epochs.len(),
                reconfigurations: report.defrag_events,
                energy: energies[0],
                flexgrid: Some(FlexGridRowMetrics {
                    blocking_probability: report.blocking_probability(),
                    fragmentation_index: report.mean_fragmentation_index,
                    slots_in_use: report.mean_slots_in_use,
                    defrag_events: report.defrag_events as f64,
                }),
            };
            scratch.flexgrid.recycle(report);
            (result, energies)
        }
    }
}

/// One batch through dedup planning, leader solves and follower replay;
/// results come back in batch order.
fn execute_batch(
    batch: &[Scenario],
    fabrics: &Fabrics,
    grid: &SweepGrid,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Vec<ScenarioResult> {
    let (groups, mut scratch) = tr.span("exec.plan", || {
        let mut slots: HashMap<PhysicalKey, usize> = HashMap::with_capacity(batch.len());
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (pos, scenario) in batch.iter().enumerate() {
            match slots.entry(physical_key(scenario)) {
                Entry::Occupied(slot) => groups[*slot.get()].push(pos),
                Entry::Vacant(slot) => {
                    slot.insert(groups.len());
                    groups.push(vec![pos]);
                }
            }
        }
        (groups, Scratch::new())
    });
    let mut results: Vec<Option<ScenarioResult>> = vec![None; batch.len()];
    for group in &groups {
        let members: Vec<&Scenario> = group.iter().map(|&pos| &batch[pos]).collect();
        let (result, energies) = solve_group(
            &members,
            fabrics,
            grid.indirect_hop_latency_ns,
            &grid.energy_config,
            &mut scratch,
            tr,
            c,
        );
        tr.span("exec.replay", || {
            for (k, &pos) in group.iter().enumerate().skip(1) {
                let mut replayed = result.clone();
                replayed.scenario = batch[pos].clone();
                replayed.energy = energies[k];
                results[pos] = Some(replayed);
            }
        });
        results[group[0]] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("every batch position is solved or replayed"))
        .collect()
}

/// The summary fold, weighted so one implementation serves exhaustive
/// (weight 1, denominator = scenarios folded) and sampled (cluster weights,
/// denominator = full grid) reports. Multiplying by a weight of 1 is exact,
/// so the unweighted fold keeps the engine's bits.
struct Fold {
    total: Option<usize>,
    scenarios: usize,
    satisfaction_sum: f64,
    satisfaction_min: f64,
    latency_sum: f64,
    energy_weight: usize,
    energy_total_j: f64,
    energy_watts_sum: f64,
}

impl Fold {
    fn new(total: Option<usize>) -> Self {
        Fold {
            total,
            scenarios: 0,
            satisfaction_sum: 0.0,
            satisfaction_min: f64::MAX,
            latency_sum: 0.0,
            energy_weight: 0,
            energy_total_j: 0.0,
            energy_watts_sum: 0.0,
        }
    }

    fn absorb(&mut self, weight: usize, satisfaction: f64, latency: f64, e: Option<&EnergyStats>) {
        let w = weight as f64;
        self.scenarios += 1;
        self.satisfaction_sum += w * satisfaction;
        self.satisfaction_min = self.satisfaction_min.min(satisfaction);
        self.latency_sum += w * latency;
        if let Some(e) = e {
            self.energy_weight += weight;
            self.energy_total_j += w * e.total_joules();
            self.energy_watts_sum += w * e.watts();
        }
    }

    fn finish(self, report: &mut SweepReport, fabrics_built: usize) {
        let n = self.total.unwrap_or(self.scenarios);
        if n == 0 {
            return;
        }
        report.summary = vec![
            ("scenarios".to_string(), n as f64),
            ("fabrics_built".to_string(), fabrics_built as f64),
            (
                "mean_satisfaction".to_string(),
                self.satisfaction_sum / n as f64,
            ),
            ("min_satisfaction".to_string(), self.satisfaction_min),
            ("mean_latency_ns".to_string(), self.latency_sum / n as f64),
        ];
        if self.energy_weight > 0 {
            report
                .summary
                .push(("total_energy_j".to_string(), self.energy_total_j));
            report.summary.push((
                "mean_power_w".to_string(),
                self.energy_watts_sum / self.energy_weight as f64,
            ));
        }
    }
}

/// Append a result's row (and energy entry), tagging sampled rows with
/// their cluster weight.
fn push_row(report: &mut SweepReport, result: ScenarioResult, weight: Option<usize>) {
    let mut row = result.to_row();
    if let Some(weight) = weight {
        row.params
            .push(("cluster_weight".to_string(), weight.to_string()));
    }
    if let Some(energy) = result.energy {
        report.energy.push((row.label.clone(), energy));
    }
    report.rows.push(row);
}

/// `SweepGrid::run`, re-driven layer by layer.
pub fn run_grid(grid: &SweepGrid, tr: &mut Tracer, c: &mut Counters) -> SweepReport {
    let fabrics = Fabrics::build(grid, tr);
    let batch_size = StreamConfig::default().batch_size;
    let mut report = SweepReport::new(grid.name.clone());
    let mut fold = Fold::new(None);
    let mut scenarios = tr.span("grid.decode", || grid.scenarios());
    loop {
        let batch: Vec<Scenario> = tr.span("grid.decode", || {
            scenarios.by_ref().take(batch_size).collect()
        });
        if batch.is_empty() {
            break;
        }
        let results = execute_batch(&batch, &fabrics, grid, tr, c);
        tr.span("report.fold", || {
            for r in &results {
                fold.absorb(1, r.satisfaction, r.mean_latency_ns, r.energy.as_ref());
            }
        });
        tr.span("report.row", || {
            for r in results {
                push_row(&mut report, r, None);
            }
        });
    }
    tr.span("report.fold", || fold.finish(&mut report, fabrics.0.len()));
    report
}

/// `JobSpec::from_json` + `JobRunner::run` over `cache_dir`, re-driven
/// layer by layer: cached shards are read and parsed, missing ones are
/// executed, encoded and checkpointed, and the merge re-folds the summary.
pub fn run_job(
    job_json: &str,
    cache_dir: &Path,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<SweepReport, String> {
    let (spec, key) = tr.span("jobs.spec", || {
        JobSpec::from_json(job_json).map(|spec| {
            let key = spec.cache_key();
            (spec, key)
        })
    })?;
    let grid = &spec.grid;
    let plan = spec
        .sample
        .as_ref()
        .map(|sample| tr.span("sample.plan", || ClusterPlan::build(grid, sample)))
        .filter(|plan| !plan.exact);
    // Grid indices to execute, and their cluster weights when sampled.
    let (indices, weights, total): (Vec<usize>, Option<Vec<usize>>, Option<usize>) = match &plan {
        Some(plan) => (
            plan.representatives.iter().map(|r| r.index).collect(),
            Some(plan.representatives.iter().map(|r| r.weight).collect()),
            Some(plan.total),
        ),
        None => ((0..grid.scenario_count()).collect(), None, None),
    };
    let grid_dir = cache_dir.join(key);
    let per_shard = spec.rows_per_shard.max(1);
    let shards_total = indices.len().div_ceil(per_shard);
    let mut fabrics: Option<Fabrics> = None;
    let mut shards: Vec<SweepReport> = Vec::with_capacity(shards_total);
    for k in 0..shards_total {
        let start = k * per_shard;
        let end = indices.len().min(start + per_shard);
        let path = grid_dir.join(format!("shard{k}.json"));
        if let Some(cached) = load_cached_shard(&path, end - start, tr, c) {
            shards.push(cached);
            continue;
        }
        let fabrics = fabrics.get_or_insert_with(|| Fabrics::build(grid, tr));
        let mut shard = SweepReport::new(format!("{}.shard{k}", grid.name));
        let scenarios = tr.span("grid.decode", || grid.scenarios());
        let mut next = start;
        while next < end {
            let stop = end.min(next + spec.batch_size.max(1));
            let batch: Vec<Scenario> = tr.span("grid.decode", || {
                indices[next..stop]
                    .iter()
                    .map(|&i| scenarios.get(i).expect("index within the grid"))
                    .collect()
            });
            let results = execute_batch(&batch, fabrics, grid, tr, c);
            tr.span("report.row", || {
                for (offset, r) in results.into_iter().enumerate() {
                    let weight = weights.as_ref().map(|w| w[next + offset]);
                    push_row(&mut shard, r, weight);
                }
            });
            next = stop;
        }
        write_shard(&grid_dir, &path, &shard, tr, c)?;
        shards.push(shard);
    }
    tr.span("jobs.merge", || {
        merge_shards(grid, &shards, weights.as_deref(), total)
    })
}

fn load_cached_shard(
    path: &Path,
    expected_rows: usize,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Option<SweepReport> {
    let text = tr
        .span("jobs.shard_read", || fs::read_to_string(path))
        .ok()?;
    c.parse_bytes += text.len();
    let report = tr
        .span("codec.parse", || SweepReport::from_json(&text))
        .ok()?;
    (report.rows.len() == expected_rows).then_some(report)
}

fn write_shard(
    grid_dir: &Path,
    path: &Path,
    shard: &SweepReport,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let json = tr.span("codec.encode", || shard.to_json());
    c.encode_bytes += json.len();
    tr.span("jobs.shard_write", || {
        fs::create_dir_all(grid_dir)?;
        let tmp = path.with_extension("json.tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    })
    .map_err(|e| format!("write {}: {e}", path.display()))
}

fn merge_shards(
    grid: &SweepGrid,
    shards: &[SweepReport],
    weights: Option<&[usize]>,
    total: Option<usize>,
) -> Result<SweepReport, String> {
    let mut merged = SweepReport::new(grid.name.clone());
    let mut fold = Fold::new(total);
    let mut next = 0usize;
    for shard in shards {
        let mut energy_next = 0usize;
        for row in &shard.rows {
            let energy = match shard.energy.get(energy_next) {
                Some((label, stats)) if *label == row.label => {
                    energy_next += 1;
                    Some(stats)
                }
                _ => None,
            };
            let satisfaction = row
                .metric("satisfaction")
                .ok_or_else(|| format!("row {} lacks satisfaction", row.label))?;
            let latency = row
                .metric("mean_latency_ns")
                .ok_or_else(|| format!("row {} lacks mean_latency_ns", row.label))?;
            let weight = weights.map_or(Some(1), |w| w.get(next).copied());
            let weight = weight.ok_or_else(|| "more rows than representatives".to_string())?;
            next += 1;
            fold.absorb(weight, satisfaction, latency, energy);
        }
        merged.rows.extend(shard.rows.iter().cloned());
        merged.energy.extend(shard.energy.iter().cloned());
    }
    fold.finish(&mut merged, grid.distinct_fabric_count());
    Ok(merged)
}
