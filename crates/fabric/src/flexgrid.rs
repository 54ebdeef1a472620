//! Flex-grid elastic optical spectrum allocation over [`RackFabric`]
//! topologies.
//!
//! The paper's fabric assigns whole per-pair DWDM wavelengths; an elastic
//! optical fabric instead divides each fiber into fine-grained **frequency
//! slots** (12.5 GHz each) and performs online routing **and** spectrum
//! assignment per lightpath:
//!
//! - **Slot model** — every ordered MCM pair `(src, dst)` owns a spectrum of
//!   [`link_slot_budget`] slots. A lightpath occupies a *contiguous* block of
//!   `data_slots + guard_slots` slots (the guardband trails the data block),
//!   and must find the **same** block on every link of its path (spectrum
//!   continuity).
//! - **Routing** — candidates are the direct link followed by two-hop detours
//!   `src → via → dst` in ascending `via` order, capped at
//!   [`FlexGridConfig::k_paths`] candidates.
//! - **Modulation ladder** — [`MODULATION_LADDER`] trades spectral efficiency
//!   against reach: a one-hop path carries 16QAM (4 bits/symbol), a two-hop
//!   detour falls back to 8QAM, so detours cost both extra links and extra
//!   slots, and their transceiver energy scales with
//!   [`ModulationFormat::energy_factor`].
//! - **Policy zoo** — [`SpectrumPolicy`] pairs an [`AdmissionPolicy`]
//!   (first-fit / best-fit / exact-fit block choice) with a [`DefragPolicy`]
//!   (never defragment, repack on blocking, repack every epoch), mirroring the
//!   timeline's `ReallocationPolicy` zoo.
//!
//! [`FlexGridSimulator`] evaluates a demand timeline epoch by epoch against a
//! persistent spectrum board: lightpaths whose `(src, dst, demand)` reappear
//! are kept in place, departed ones are released, and new demands are admitted
//! under the configured policy. `run`/`run_in` use an incremental word-packed
//! allocator ([`SpectrumAllocator`] inside a reusable [`FlexGridArena`]),
//! claim survivors by a sort-merge, and reuse an unchanged epoch's result;
//! [`FlexGridSimulator::run_exhaustive`] rebuilds a from-scratch board every
//! epoch, claims by a sequential scan, reuses nothing, and must produce
//! **exactly** the same report — it is the in-tree oracle, precisely as
//! `TimelineSimulator::run_exhaustive` is for the wavelength layer.
//!
//! Scale note: the occupancy board is one bit per slot, `mcms² ×
//! ceil(slots / 64)` `u64` words; at the paper's 350-MCM WSS rack (5120
//! slots per link) that is ~78 MB per worker, so sweeps and tests exercise
//! flex-grid at ≤ 64 MCMs where the board is about a megabyte or less.

use crate::flowsim::Flow;
use crate::rackfabric::RackFabric;
use std::collections::HashMap;

/// How a contiguous free block is chosen among the candidates on a path.
///
/// ```
/// use fabric::flexgrid::AdmissionPolicy;
/// assert_eq!(AdmissionPolicy::BestFit.label(), "bestfit");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Lowest-indexed block that fits.
    FirstFit,
    /// Smallest maximal free run that fits (lowest start breaks ties).
    BestFit,
    /// First maximal free run of *exactly* the needed size; falls back to
    /// first-fit when no exact hole exists.
    ExactFit,
}

impl AdmissionPolicy {
    /// Stable label used in sweep-row params and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::FirstFit => "firstfit",
            AdmissionPolicy::BestFit => "bestfit",
            AdmissionPolicy::ExactFit => "exactfit",
        }
    }
}

/// When the spectrum board is repacked from scratch.
///
/// ```
/// use fabric::flexgrid::DefragPolicy;
/// assert_eq!(DefragPolicy::OnBlock.label_suffix(), "+defrag");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefragPolicy {
    /// Keep surviving lightpaths in place; fragmentation accumulates.
    Never,
    /// If any demand blocks, clear the board and re-admit every demand of the
    /// epoch in order (a reactive full repack).
    OnBlock,
    /// Clear the board at the start of every epoch after the first (a
    /// proactive full repack, the flex-grid analogue of greedy re-steering).
    EveryEpoch,
}

impl DefragPolicy {
    /// Stable label suffix appended to the admission label (empty for
    /// [`DefragPolicy::Never`]).
    pub fn label_suffix(self) -> &'static str {
        match self {
            DefragPolicy::Never => "",
            DefragPolicy::OnBlock => "+defrag",
            DefragPolicy::EveryEpoch => "+repack",
        }
    }
}

/// A point in the flex-grid policy zoo: block-choice × defragmentation.
///
/// ```
/// use fabric::flexgrid::{AdmissionPolicy, DefragPolicy, SpectrumPolicy};
/// let p = SpectrumPolicy {
///     admission: AdmissionPolicy::ExactFit,
///     defrag: DefragPolicy::EveryEpoch,
/// };
/// assert_eq!(p.label(), "exactfit+repack");
/// assert_eq!(SpectrumPolicy::parse("exactfit+repack"), Some(p));
/// assert_eq!(SpectrumPolicy::default().label(), "firstfit");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpectrumPolicy {
    /// How free blocks are chosen.
    pub admission: AdmissionPolicy,
    /// When the board is repacked.
    pub defrag: DefragPolicy,
}

impl Default for SpectrumPolicy {
    fn default() -> Self {
        SpectrumPolicy {
            admission: AdmissionPolicy::FirstFit,
            defrag: DefragPolicy::Never,
        }
    }
}

impl SpectrumPolicy {
    /// Stable label, e.g. `firstfit`, `bestfit+defrag`, `exactfit+repack`.
    pub fn label(self) -> String {
        format!("{}{}", self.admission.label(), self.defrag.label_suffix())
    }

    /// Parse a label produced by [`SpectrumPolicy::label`]; `None` for
    /// anything else.
    ///
    /// ```
    /// use fabric::flexgrid::SpectrumPolicy;
    /// let p = SpectrumPolicy::parse("bestfit+defrag").unwrap();
    /// assert_eq!(p.label(), "bestfit+defrag");
    /// assert_eq!(SpectrumPolicy::parse("worstfit"), None);
    /// ```
    pub fn parse(text: &str) -> Option<Self> {
        let (adm, defrag_text) = match text.split_once('+') {
            Some((a, d)) => (a, Some(d)),
            None => (text, None),
        };
        let admission = match adm {
            "firstfit" => AdmissionPolicy::FirstFit,
            "bestfit" => AdmissionPolicy::BestFit,
            "exactfit" => AdmissionPolicy::ExactFit,
            _ => return None,
        };
        let defrag = match defrag_text {
            None => DefragPolicy::Never,
            Some("defrag") => DefragPolicy::OnBlock,
            Some("repack") => DefragPolicy::EveryEpoch,
            Some(_) => return None,
        };
        Some(SpectrumPolicy { admission, defrag })
    }
}

/// One rung of the modulation ladder: spectral efficiency vs. reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulationFormat {
    /// Human-readable format name.
    pub label: &'static str,
    /// Bits carried per symbol; one 12.5 GHz slot carries
    /// `bits_per_symbol × slot_gbps` Gbps.
    pub bits_per_symbol: u32,
    /// Maximum path length (in rack hops) this format can reach.
    pub reach_hops: u32,
    /// Relative transceiver energy per carried bit (denser constellations
    /// burn more power per bit).
    pub energy_factor: f64,
}

/// The modulation ladder, least to most spectrally efficient, with the
/// reach limits that pair each rung to a path length.
pub const MODULATION_LADDER: [ModulationFormat; 4] = [
    ModulationFormat {
        label: "BPSK",
        bits_per_symbol: 1,
        reach_hops: 4,
        energy_factor: 1.0,
    },
    ModulationFormat {
        label: "QPSK",
        bits_per_symbol: 2,
        reach_hops: 3,
        energy_factor: 1.25,
    },
    ModulationFormat {
        label: "8QAM",
        bits_per_symbol: 3,
        reach_hops: 2,
        energy_factor: 1.5,
    },
    ModulationFormat {
        label: "16QAM",
        bits_per_symbol: 4,
        reach_hops: 1,
        energy_factor: 2.0,
    },
];

/// Densest ladder rung whose reach covers a path of `hops` rack hops
/// (`None` beyond BPSK's reach).
///
/// ```
/// use fabric::flexgrid::modulation_for_hops;
/// assert_eq!(modulation_for_hops(1).unwrap().label, "16QAM");
/// assert_eq!(modulation_for_hops(2).unwrap().label, "8QAM");
/// assert!(modulation_for_hops(5).is_none());
/// ```
pub fn modulation_for_hops(hops: u32) -> Option<ModulationFormat> {
    MODULATION_LADDER
        .iter()
        .rev()
        .find(|m| m.reach_hops >= hops)
        .copied()
}

/// Frequency-slot budget per ordered MCM pair: four 12.5 GHz slots per
/// paper-provisioned direct wavelength, i.e. a 50 GHz fixed-grid channel
/// split into flex-grid granularity.
///
/// ```
/// use fabric::flexgrid::link_slot_budget;
/// use fabric::rackfabric::RackFabric;
/// // The paper's 350-MCM AWGR rack provisions 5 direct wavelengths per pair.
/// assert_eq!(link_slot_budget(&RackFabric::paper_awgr()), 20);
/// ```
pub fn link_slot_budget(fabric: &RackFabric) -> u32 {
    4 * fabric.report().min_direct_wavelengths
}

/// Flex-grid engine parameters. The default is the 12.5 GHz grid with one
/// trailing guard slot per lightpath and four routing candidates.
///
/// ```
/// use fabric::flexgrid::FlexGridConfig;
/// let cfg = FlexGridConfig::default();
/// assert_eq!(cfg.slot_gbps, 12.5);
/// assert_eq!(cfg.guard_slots, 1);
/// assert_eq!(cfg.k_paths, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlexGridConfig {
    /// Gbps carried per slot per bit of modulation (12.5 GHz grid ⇒ 12.5).
    pub slot_gbps: f64,
    /// Guard slots appended after each lightpath's data block.
    pub guard_slots: u32,
    /// Maximum routing candidates considered (direct + two-hop detours).
    pub k_paths: usize,
    /// Admission/defragmentation policy.
    pub policy: SpectrumPolicy,
}

impl Default for FlexGridConfig {
    fn default() -> Self {
        FlexGridConfig {
            slot_gbps: 12.5,
            guard_slots: 1,
            k_paths: 4,
            policy: SpectrumPolicy::default(),
        }
    }
}

/// An admitted lightpath: route, modulation, and the contiguous slot block
/// (data + trailing guard) it occupies on every link of its path.
///
/// ```
/// use fabric::flexgrid::{FlexGridConfig, SpectrumAllocator};
/// use fabric::flowsim::Flow;
/// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
/// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
/// cfg.mcm_count = 8;
/// let fabric = RackFabric::new(cfg);
/// let mut alloc = SpectrumAllocator::new(&fabric, FlexGridConfig::default());
/// let lp = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
/// assert_eq!(lp.hops(), 1);
/// assert_eq!(lp.modulation.label, "16QAM");
/// assert_eq!((lp.first_slot, lp.data_slots, lp.slot_count), (0, 4, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lightpath {
    /// Source MCM.
    pub src: u32,
    /// Destination MCM.
    pub dst: u32,
    /// Two-hop detour midpoint, `None` for the direct link.
    pub via: Option<u32>,
    /// Sanitized demand this lightpath carries, in Gbps.
    pub demand_gbps: f64,
    /// Modulation format chosen for the path length.
    pub modulation: ModulationFormat,
    /// First slot of the contiguous block (same on every link of the path).
    pub first_slot: u32,
    /// Data slots in the block.
    pub data_slots: u32,
    /// Total block size: `data_slots + guard_slots`.
    pub slot_count: u32,
}

impl Lightpath {
    /// Number of rack links the path traverses (1 direct, 2 via a detour).
    pub fn hops(self) -> u32 {
        if self.via.is_some() {
            2
        } else {
            1
        }
    }

    /// The ordered links of the path as a fixed array plus its live length.
    fn link_pairs(self) -> ([(u32, u32); 2], usize) {
        match self.via {
            None => ([(self.src, self.dst), (0, 0)], 1),
            Some(m) => ([(self.src, m), (m, self.dst)], 2),
        }
    }
}

/// Lowest-indexed run of `needed` free slots, scanning with `free_at`.
fn first_fit(needed: u32, slots: u32, free_at: &impl Fn(u32) -> bool) -> Option<u32> {
    let mut run = 0u32;
    for s in 0..slots {
        if free_at(s) {
            run += 1;
            if run == needed {
                return Some(s + 1 - needed);
            }
        } else {
            run = 0;
        }
    }
    None
}

/// Start of the smallest maximal free run that still fits `needed` slots
/// (first such run on ties). With `exact`, only runs of exactly `needed`
/// qualify and the first one wins.
fn fitted_run(needed: u32, slots: u32, exact: bool, free_at: &impl Fn(u32) -> bool) -> Option<u32> {
    let mut best: Option<(u32, u32)> = None; // (len, start)
    let mut start = 0u32;
    let mut len = 0u32;
    for s in 0..=slots {
        if s < slots && free_at(s) {
            if len == 0 {
                start = s;
            }
            len += 1;
        } else {
            if exact {
                if len == needed {
                    return Some(start);
                }
            } else if len >= needed && best.is_none_or(|(bl, _)| len < bl) {
                best = Some((len, start));
            }
            len = 0;
        }
    }
    best.map(|(_, st)| st)
}

/// Choose a contiguous block of `needed` slots under `admission`.
fn choose_block(
    admission: AdmissionPolicy,
    needed: u32,
    slots: u32,
    free_at: impl Fn(u32) -> bool,
) -> Option<u32> {
    if needed == 0 || needed > slots {
        return None;
    }
    match admission {
        AdmissionPolicy::FirstFit => first_fit(needed, slots, &free_at),
        AdmissionPolicy::BestFit => fitted_run(needed, slots, false, &free_at),
        AdmissionPolicy::ExactFit => {
            fitted_run(needed, slots, true, &free_at).or_else(|| first_fit(needed, slots, &free_at))
        }
    }
}

/// Plan a lightpath for `flow`: walk the candidate paths (direct first, then
/// ascending two-hop detours, `k_paths` total), pick each candidate's
/// modulation from its hop count, and take the first candidate with a free
/// contiguous block on **every** link ([`SpectrumBoard::find_block`]).
fn plan_lightpath<B: SpectrumBoard>(board: &B, flow: Flow) -> Option<Lightpath> {
    let (nodes, slots) = board.dims();
    let config = board.grid_config();
    let (src, dst) = (flow.src, flow.dst);
    // partial_cmp rather than `<= 0.0`: a NaN demand must also be rejected.
    if src == dst
        || flow.demand_gbps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || src >= nodes
        || dst >= nodes
    {
        return None;
    }
    let candidates = std::iter::once(None)
        .chain((0..nodes).filter(|&m| m != src && m != dst).map(Some))
        .take(config.k_paths);
    for via in candidates {
        let hops = if via.is_some() { 2 } else { 1 };
        let Some(modulation) = modulation_for_hops(hops) else {
            continue;
        };
        let per_slot_gbps = modulation.bits_per_symbol as f64 * config.slot_gbps;
        // The cast saturates for huge finite demands; sum in u64 so the
        // guardband cannot wrap the block size back under the budget.
        let data_slots = ((flow.demand_gbps / per_slot_gbps).ceil() as u32).max(1);
        let slot_count = u64::from(data_slots) + u64::from(config.guard_slots);
        if slot_count > u64::from(slots) {
            continue;
        }
        let slot_count = slot_count as u32;
        let template = Lightpath {
            src,
            dst,
            via,
            demand_gbps: flow.demand_gbps,
            modulation,
            first_slot: 0,
            data_slots,
            slot_count,
        };
        let (links, n) = template.link_pairs();
        if let Some(first_slot) = board.find_block(&links[..n], slot_count) {
            return Some(Lightpath {
                first_slot,
                ..template
            });
        }
    }
    None
}

/// Per-link external fragmentation: `1 − largest_free_run / free_total`
/// (0 when the link is completely full — nothing left to fragment).
fn link_fragmentation(slots: u32, is_occupied: impl Fn(u32) -> bool) -> f64 {
    let mut free_total = 0u32;
    let mut largest = 0u32;
    let mut run = 0u32;
    for s in 0..slots {
        if is_occupied(s) {
            run = 0;
        } else {
            run += 1;
            free_total += 1;
            largest = largest.max(run);
        }
    }
    fragmentation_ratio(largest, free_total)
}

/// `1 − largest / free_total`, or 0 for a full link.
fn fragmentation_ratio(largest: u32, free_total: u32) -> f64 {
    if free_total > 0 {
        1.0 - largest as f64 / free_total as f64
    } else {
        0.0
    }
}

/// The maximal free runs `(start, len)` of a path's spectrum, ascending,
/// over a word-packed occupancy board (bit `s` of word `s / 64` set = slot
/// `s` busy). The path's free mask is the AND of its links' inverted words;
/// a one-link path passes the same link twice.
struct FreeRuns<'a> {
    a: &'a [u64],
    b: &'a [u64],
    slots: u32,
    pos: u32,
}

impl FreeRuns<'_> {
    /// Free bits of word `w`. Bits past the slot budget are never set, so
    /// they read free: a free-seek that runs off the budget stops exactly
    /// at `slots`, and a busy-seek runs out of words and returns `slots`.
    fn free_word(&self, w: usize) -> u64 {
        !(self.a[w] | self.b[w])
    }

    /// First slot at or after `from < slots` that is free (`want_free`) or
    /// busy, else `slots`.
    fn seek(&self, from: u32, want_free: bool) -> u32 {
        let flip = if want_free { 0 } else { !0 };
        let mut w = (from / 64) as usize;
        let mut word = (self.free_word(w) ^ flip) & (!0u64 << (from % 64));
        while word == 0 {
            w += 1;
            if w == self.a.len() {
                return self.slots;
            }
            word = self.free_word(w) ^ flip;
        }
        w as u32 * 64 + word.trailing_zeros()
    }
}

impl Iterator for FreeRuns<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.pos >= self.slots {
            return None;
        }
        let start = self.seek(self.pos, true);
        if start >= self.slots {
            self.pos = self.slots;
            return None;
        }
        let end = self.seek(start, false);
        self.pos = end;
        Some((start, end - start))
    }
}

/// Choose a block of `needed` slots from a path's maximal free runs under
/// `admission`: the same answers as [`choose_block`]'s per-slot scans.
fn pick_run(
    admission: AdmissionPolicy,
    needed: u32,
    mut runs: impl Iterator<Item = (u32, u32)>,
) -> Option<u32> {
    match admission {
        AdmissionPolicy::FirstFit => runs.find(|&(_, len)| len >= needed).map(|(start, _)| start),
        AdmissionPolicy::BestFit => {
            let mut best: Option<(u32, u32)> = None; // (len, start)
            for (start, len) in runs {
                if len >= needed && best.is_none_or(|(bl, _)| len < bl) {
                    best = Some((len, start));
                    if len == needed {
                        break; // Nothing later can be tighter.
                    }
                }
            }
            best.map(|(_, start)| start)
        }
        AdmissionPolicy::ExactFit => {
            let mut first_fit = None;
            for (start, len) in runs {
                if len == needed {
                    return Some(start);
                }
                if len > needed && first_fit.is_none() {
                    first_fit = Some(start);
                }
            }
            first_fit
        }
    }
}

/// Storage substrate for per-link spectrum occupancy plus the active
/// lightpath list. Implemented by the incremental word-packed
/// [`SpectrumAllocator`] and the per-epoch-rebuilt [`MapBoard`] oracle, so
/// the admission, repack and metric logic of [`run_epoch`] is written once.
/// The two paths still differ in more than storage: block search and
/// fragmentation (word runs vs per-slot scans), the survivor claim
/// (sort-merge vs sequential scan), and `run_in`'s reuse of unchanged
/// epochs, which the oracle never does. The oracle tests compare each of
/// these as well as catching state leaks.
trait SpectrumBoard {
    /// `(nodes, slots_per_link)`.
    fn dims(&self) -> (u32, u32);
    /// The engine configuration this board was built with.
    fn grid_config(&self) -> &FlexGridConfig;
    /// Is `slot` free on link `(src, dst)`?
    fn is_free(&self, src: u32, dst: u32, slot: u32) -> bool;
    /// First slot of a block of `needed` slots free on every one of `links`,
    /// chosen under the configured admission policy. The default is the
    /// per-slot [`choose_block`] scan over [`SpectrumBoard::is_free`].
    fn find_block(&self, links: &[(u32, u32)], needed: u32) -> Option<u32> {
        let (_, slots) = self.dims();
        choose_block(self.grid_config().policy.admission, needed, slots, |s| {
            links.iter().all(|&(a, b)| self.is_free(a, b, s))
        })
    }
    /// Book a planned lightpath (its block must currently be free).
    fn place(&mut self, lp: Lightpath);
    /// Release every active lightpath whose index is not claimed, compacting
    /// the active list in order.
    fn release_unclaimed(&mut self, claimed: &[bool]);
    /// Release everything (full repack precursor).
    fn clear_all(&mut self);
    /// Active lightpaths in admission order.
    fn active(&self) -> &[Lightpath];
    /// Sum of [`link_fragmentation`] over links, in ascending link order.
    fn fragmentation_sum(&self) -> f64;
}

/// Set (`busy`) or clear bits `[first, first + count)` of a link's words.
fn mark_range(words: &mut [u64], first: u32, count: u32, busy: bool) {
    let end = first + count;
    let mut s = first;
    while s < end {
        let w = s / 64;
        let lo = s % 64;
        let hi = (end - w * 64).min(64);
        let width = hi - lo;
        let mask = if width == 64 {
            !0
        } else {
            ((1u64 << width) - 1) << lo
        };
        if busy {
            words[w as usize] |= mask;
        } else {
            words[w as usize] &= !mask;
        }
        s = w * 64 + hi;
    }
}

/// Incremental word-packed spectrum board: occupancy is one bit per slot,
/// `ceil(slots / 64)` `u64` words per link, link `src·nodes + dst`. Block
/// search and fragmentation walk a path's maximal free runs 64 slots at a
/// time. A sorted touched-link list lets fragmentation sums visit only
/// links that ever carried a lightpath (untouched links contribute an exact
/// `0.0`, keeping the sum bit-identical to the oracle's all-links scan).
///
/// ```
/// use fabric::flexgrid::{FlexGridConfig, SpectrumAllocator};
/// use fabric::flowsim::Flow;
/// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
/// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
/// cfg.mcm_count = 8;
/// let fabric = RackFabric::new(cfg);
/// let mut alloc = SpectrumAllocator::new(&fabric, FlexGridConfig::default());
/// let a = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
/// let b = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
/// // Guardband: the second block starts after the first's data + guard.
/// assert_eq!(b.first_slot, a.first_slot + a.slot_count);
/// assert!(alloc.release(&a));
/// assert_eq!(alloc.carried_gbps(), 200.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumAllocator {
    nodes: u32,
    slots: u32,
    config: FlexGridConfig,
    words: usize,
    occ: Vec<u64>,
    links_touched: Vec<usize>,
    active: Vec<Lightpath>,
}

impl SpectrumAllocator {
    /// Board for `fabric` with the [`link_slot_budget`] slot budget.
    pub fn new(fabric: &RackFabric, config: FlexGridConfig) -> Self {
        Self::with_dims(fabric.config().mcm_count, link_slot_budget(fabric), config)
    }

    fn with_dims(nodes: u32, slots: u32, config: FlexGridConfig) -> Self {
        let words = (slots as usize).div_ceil(64);
        SpectrumAllocator {
            nodes,
            slots,
            config,
            words,
            occ: vec![0; (nodes as usize) * (nodes as usize) * words],
            links_touched: Vec::new(),
            active: Vec::new(),
        }
    }

    fn link_index(&self, src: u32, dst: u32) -> usize {
        (src * self.nodes + dst) as usize
    }

    /// Occupancy words of link `link` (a [`Self::link_index`]).
    fn link_words(&self, link: usize) -> &[u64] {
        &self.occ[link * self.words..(link + 1) * self.words]
    }

    /// Maximal free runs common to links `a` and `b` (equal for one link).
    fn free_runs(&self, a: usize, b: usize) -> FreeRuns<'_> {
        FreeRuns {
            a: self.link_words(a),
            b: self.link_words(b),
            slots: self.slots,
            pos: 0,
        }
    }

    /// Mark `lp`'s block busy or free on every link of its path.
    fn mark(&mut self, lp: &Lightpath, busy: bool) {
        let (links, n) = lp.link_pairs();
        for &(a, b) in &links[..n] {
            let base = self.link_index(a, b) * self.words;
            let words = &mut self.occ[base..base + self.words];
            mark_range(words, lp.first_slot, lp.slot_count, busy);
        }
    }

    /// Sanitize `flow` and try to admit it under the configured policy,
    /// returning the booked lightpath (self-flows and non-positive demands
    /// are local, need no spectrum, and return `None`).
    ///
    /// ```
    /// use fabric::flexgrid::{FlexGridConfig, SpectrumAllocator};
    /// use fabric::flowsim::Flow;
    /// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
    /// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
    /// cfg.mcm_count = 8;
    /// let fabric = RackFabric::new(cfg);
    /// let mut alloc = SpectrumAllocator::new(&fabric, FlexGridConfig::default());
    /// assert!(alloc.admit(Flow::new(3, 3, 100.0)).is_none()); // MCM-local
    /// assert!(alloc.admit(Flow::new(0, 1, f64::NAN)).is_none()); // sanitized
    /// assert!(alloc.admit(Flow::new(0, 1, 100.0)).is_some());
    /// ```
    pub fn admit(&mut self, flow: Flow) -> Option<Lightpath> {
        let lp = plan_lightpath(self, flow.sanitized())?;
        SpectrumBoard::place(self, lp);
        Some(lp)
    }

    /// Release a previously admitted lightpath (matched by full equality);
    /// returns whether anything was released.
    ///
    /// ```
    /// use fabric::flexgrid::{FlexGridConfig, SpectrumAllocator};
    /// use fabric::flowsim::Flow;
    /// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
    /// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
    /// cfg.mcm_count = 8;
    /// let fabric = RackFabric::new(cfg);
    /// let mut alloc = SpectrumAllocator::new(&fabric, FlexGridConfig::default());
    /// let lp = alloc.admit(Flow::new(0, 1, 100.0)).unwrap();
    /// assert!(alloc.release(&lp));
    /// assert!(!alloc.release(&lp)); // already gone
    /// assert!(alloc.occupied_slots(0, 1).is_empty());
    /// ```
    pub fn release(&mut self, lp: &Lightpath) -> bool {
        match self.active.iter().position(|a| a == lp) {
            Some(j) => {
                let lp = self.active.remove(j);
                self.mark(&lp, false);
                true
            }
            None => false,
        }
    }

    /// Release everything and forget the touched-link history, returning the
    /// board to its freshly built state.
    pub fn reset(&mut self) {
        SpectrumBoard::clear_all(self);
        self.links_touched.clear();
    }

    /// Active lightpaths in admission order.
    pub fn active_lightpaths(&self) -> &[Lightpath] {
        &self.active
    }

    /// Total demand carried by active lightpaths, in Gbps.
    pub fn carried_gbps(&self) -> f64 {
        self.active.iter().map(|lp| lp.demand_gbps).sum()
    }

    /// Total slots booked across all links (each lightpath counts its block
    /// once per hop).
    pub fn slots_in_use(&self) -> u64 {
        self.active
            .iter()
            .map(|lp| lp.slot_count as u64 * lp.hops() as u64)
            .sum()
    }

    /// Mean per-link external fragmentation over all `nodes·(nodes−1)`
    /// ordered pairs (0 for racks smaller than two MCMs).
    pub fn fragmentation_index(&self) -> f64 {
        if self.nodes >= 2 {
            self.fragmentation_sum() / (self.nodes as f64 * (self.nodes as f64 - 1.0))
        } else {
            0.0
        }
    }

    /// The occupied slot indices on link `(src, dst)`, ascending.
    ///
    /// ```
    /// use fabric::flexgrid::{FlexGridConfig, SpectrumAllocator};
    /// use fabric::flowsim::Flow;
    /// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
    /// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
    /// cfg.mcm_count = 8;
    /// let fabric = RackFabric::new(cfg);
    /// let mut alloc = SpectrumAllocator::new(&fabric, FlexGridConfig::default());
    /// let lp = alloc.admit(Flow::new(0, 1, 100.0)).unwrap();
    /// // Contiguous block, guard slot included.
    /// let expect: Vec<u32> = (lp.first_slot..lp.first_slot + lp.slot_count).collect();
    /// assert_eq!(alloc.occupied_slots(0, 1), expect);
    /// ```
    pub fn occupied_slots(&self, src: u32, dst: u32) -> Vec<u32> {
        let mut out = Vec::new();
        if src < self.nodes && dst < self.nodes {
            out.extend((0..self.slots).filter(|&s| !self.is_free(src, dst, s)));
        }
        out
    }

    /// Slot budget per ordered MCM pair.
    pub fn slots_per_link(&self) -> u32 {
        self.slots
    }
}

impl SpectrumBoard for SpectrumAllocator {
    fn dims(&self) -> (u32, u32) {
        (self.nodes, self.slots)
    }

    fn grid_config(&self) -> &FlexGridConfig {
        &self.config
    }

    fn is_free(&self, src: u32, dst: u32, slot: u32) -> bool {
        let word = self.link_words(self.link_index(src, dst))[(slot / 64) as usize];
        word & (1u64 << (slot % 64)) == 0
    }

    fn find_block(&self, links: &[(u32, u32)], needed: u32) -> Option<u32> {
        if needed == 0 || needed > self.slots {
            return None;
        }
        let (a, b) = (links[0], links[links.len() - 1]);
        let runs = self.free_runs(self.link_index(a.0, a.1), self.link_index(b.0, b.1));
        pick_run(self.config.policy.admission, needed, runs)
    }

    fn place(&mut self, lp: Lightpath) {
        let (links, n) = lp.link_pairs();
        for &(a, b) in &links[..n] {
            let link = self.link_index(a, b);
            if let Err(pos) = self.links_touched.binary_search(&link) {
                self.links_touched.insert(pos, link);
            }
        }
        self.mark(&lp, true);
        self.active.push(lp);
    }

    fn release_unclaimed(&mut self, claimed: &[bool]) {
        let mut kept = 0usize;
        for j in 0..self.active.len() {
            let lp = self.active[j];
            if claimed.get(j).copied().unwrap_or(false) {
                self.active[kept] = lp;
                kept += 1;
            } else {
                self.mark(&lp, false);
            }
        }
        self.active.truncate(kept);
    }

    fn clear_all(&mut self) {
        for j in 0..self.active.len() {
            let lp = self.active[j];
            self.mark(&lp, false);
        }
        self.active.clear();
    }

    fn active(&self) -> &[Lightpath] {
        &self.active
    }

    fn fragmentation_sum(&self) -> f64 {
        let mut sum = 0.0;
        for &link in &self.links_touched {
            let (mut largest, mut free_total) = (0u32, 0u32);
            for (_, len) in self.free_runs(link, link) {
                largest = largest.max(len);
                free_total += len;
            }
            sum += fragmentation_ratio(largest, free_total);
        }
        sum
    }
}

/// The oracle's board: per-link occupancy in a `HashMap`, rebuilt from
/// scratch every epoch by `run_exhaustive`. Links the map has never seen are
/// implicitly free and contribute nothing to the fragmentation sum — which is
/// bit-identical to the word-packed board's exact-`0.0` contributions because
/// its all-pairs scan runs in the same ascending link order. Its block search
/// and fragmentation stay per-slot scans ([`choose_block`],
/// [`link_fragmentation`]), an independent check of the word kernel.
struct MapBoard {
    nodes: u32,
    slots: u32,
    config: FlexGridConfig,
    occ: HashMap<(u32, u32), Vec<bool>>,
    active: Vec<Lightpath>,
}

impl MapBoard {
    fn new(nodes: u32, slots: u32, config: FlexGridConfig) -> Self {
        MapBoard {
            nodes,
            slots,
            config,
            occ: HashMap::new(),
            active: Vec::new(),
        }
    }

    fn clear_occ(occ: &mut HashMap<(u32, u32), Vec<bool>>, lp: &Lightpath) {
        let (links, n) = lp.link_pairs();
        for &(a, b) in &links[..n] {
            if let Some(v) = occ.get_mut(&(a, b)) {
                for s in lp.first_slot..lp.first_slot + lp.slot_count {
                    v[s as usize] = false;
                }
            }
        }
    }
}

impl SpectrumBoard for MapBoard {
    fn dims(&self) -> (u32, u32) {
        (self.nodes, self.slots)
    }

    fn grid_config(&self) -> &FlexGridConfig {
        &self.config
    }

    fn is_free(&self, src: u32, dst: u32, slot: u32) -> bool {
        self.occ.get(&(src, dst)).is_none_or(|v| !v[slot as usize])
    }

    fn place(&mut self, lp: Lightpath) {
        let (links, n) = lp.link_pairs();
        for &(a, b) in &links[..n] {
            let v = self
                .occ
                .entry((a, b))
                .or_insert_with(|| vec![false; self.slots as usize]);
            for s in lp.first_slot..lp.first_slot + lp.slot_count {
                v[s as usize] = true;
            }
        }
        self.active.push(lp);
    }

    fn release_unclaimed(&mut self, claimed: &[bool]) {
        let mut kept = 0usize;
        for j in 0..self.active.len() {
            let lp = self.active[j];
            if claimed.get(j).copied().unwrap_or(false) {
                self.active[kept] = lp;
                kept += 1;
            } else {
                Self::clear_occ(&mut self.occ, &lp);
            }
        }
        self.active.truncate(kept);
    }

    fn clear_all(&mut self) {
        for j in 0..self.active.len() {
            let lp = self.active[j];
            Self::clear_occ(&mut self.occ, &lp);
        }
        self.active.clear();
    }

    fn active(&self) -> &[Lightpath] {
        &self.active
    }

    fn fragmentation_sum(&self) -> f64 {
        let mut sum = 0.0;
        for src in 0..self.nodes {
            for dst in 0..self.nodes {
                if let Some(v) = self.occ.get(&(src, dst)) {
                    sum += link_fragmentation(self.slots, |s| v[s as usize]);
                }
            }
        }
        sum
    }
}

/// Whether `flow` asks the fabric for spectrum at all (a sanitized flow
/// that is neither MCM-local nor zero-demand).
fn needs_spectrum(flow: &Flow) -> bool {
    !(flow.src == flow.dst || flow.demand_gbps <= 0.0)
}

/// The survivor claim, as a sequential scan: in flow order, each flow that
/// needs spectrum claims the first unclaimed active lightpath with its
/// `(src, dst, demand bits)`, and takes that lightpath's hop count.
/// O(flows × active); the exhaustive oracle's claim.
fn claim_scan(active: &[Lightpath], flows: &[Flow], claimed: &mut [bool], flow_hops: &mut [u32]) {
    for (k, flow) in flows.iter().enumerate() {
        if !needs_spectrum(flow) {
            continue;
        }
        for (j, lp) in active.iter().enumerate() {
            if !claimed[j]
                && lp.src == flow.src
                && lp.dst == flow.dst
                && lp.demand_gbps.to_bits() == flow.demand_gbps.to_bits()
            {
                claimed[j] = true;
                flow_hops[k] = lp.hops();
                break;
            }
        }
    }
}

/// A survivor-claim sort key: `(src · 2³² + dst, demand bits, index)`.
type ClaimKey = (u64, u64, usize);

fn claim_key(src: u32, dst: u32, demand_gbps: f64, index: usize) -> ClaimKey {
    (
        u64::from(src) << 32 | u64::from(dst),
        demand_gbps.to_bits(),
        index,
    )
}

/// Sort buffers for the incremental path's survivor claim, kept in the
/// [`FlexGridArena`] so a steady-state epoch allocates nothing.
#[derive(Debug, Default)]
struct ClaimKeys {
    flows: Vec<ClaimKey>,
    active: Vec<ClaimKey>,
}

impl ClaimKeys {
    /// [`claim_scan`]'s rule in O((flows + active) log) time. Sorting each
    /// side by key, index as the tiebreak, lists every key's flows and
    /// lightpaths in their original order; the scan pairs a key's i-th
    /// flow with its i-th unclaimed lightpath, so a merge that pairs them
    /// up within each key claims exactly the same lightpaths.
    fn claim(
        &mut self,
        active: &[Lightpath],
        flows: &[Flow],
        claimed: &mut [bool],
        flow_hops: &mut [u32],
    ) {
        self.flows.clear();
        self.flows.extend(
            flows
                .iter()
                .enumerate()
                .filter(|(_, f)| needs_spectrum(f))
                .map(|(k, f)| claim_key(f.src, f.dst, f.demand_gbps, k)),
        );
        self.active.clear();
        self.active.extend(
            active
                .iter()
                .enumerate()
                .map(|(j, lp)| claim_key(lp.src, lp.dst, lp.demand_gbps, j)),
        );
        self.flows.sort_unstable();
        self.active.sort_unstable();
        let (mut f, mut a) = (0, 0);
        while f < self.flows.len() && a < self.active.len() {
            let (fk, ak) = (self.flows[f], self.active[a]);
            match (fk.0, fk.1).cmp(&(ak.0, ak.1)) {
                std::cmp::Ordering::Less => f += 1,
                std::cmp::Ordering::Greater => a += 1,
                std::cmp::Ordering::Equal => {
                    claimed[ak.2] = true;
                    flow_hops[fk.2] = active[ak.2].hops();
                    f += 1;
                    a += 1;
                }
            }
        }
    }
}

#[derive(Default)]
struct PassCounts {
    requests: usize,
    admitted: usize,
    blocked: usize,
    trivial: usize,
    direct_flows: usize,
    indirect_flows: usize,
}

/// One admission sweep over the epoch's flows in order. Flows whose
/// `flow_hops` entry is already non-zero were kept from the previous epoch;
/// everything else is planned and placed (or counted blocked).
fn admission_pass<B: SpectrumBoard>(
    board: &mut B,
    flows: &[Flow],
    flow_hops: &mut [u32],
) -> PassCounts {
    let mut counts = PassCounts::default();
    for (k, flow) in flows.iter().enumerate() {
        if !needs_spectrum(flow) {
            counts.trivial += 1;
            continue;
        }
        counts.requests += 1;
        if flow_hops[k] == 0 {
            match plan_lightpath(board, *flow) {
                Some(lp) => {
                    board.place(lp);
                    flow_hops[k] = lp.hops();
                }
                None => {
                    counts.blocked += 1;
                    continue;
                }
            }
        }
        counts.admitted += 1;
        if flow_hops[k] >= 2 {
            counts.indirect_flows += 1;
        } else {
            counts.direct_flows += 1;
        }
    }
    counts
}

/// Evaluate one epoch against a spectrum board: keep-or-release surviving
/// lightpaths (policy permitting), admit the epoch's demands in order, repack
/// if the defrag policy calls for it, and aggregate the epoch's metrics.
///
/// Both paths run it; they differ in the board and in how survivors are
/// claimed. With `claim_keys` the claim is [`ClaimKeys::claim`]'s
/// sort-merge (the incremental path); without, it is [`claim_scan`]'s
/// sequential scan (the oracle). The two compute the same rule, so the
/// oracle tests compare two claim implementations as well as two boards.
/// Epochs that `run_in` reuses never reach this function.
fn run_epoch<B: SpectrumBoard>(
    board: &mut B,
    epoch: usize,
    flows: &[Flow],
    claimed: &mut Vec<bool>,
    flow_hops: &mut Vec<u32>,
    claim_keys: Option<&mut ClaimKeys>,
) -> FlexEpochResult {
    let (nodes, _) = board.dims();
    let config = *board.grid_config();
    flow_hops.clear();
    flow_hops.resize(flows.len(), 0);
    let mut defragmented = false;
    match config.policy.defrag {
        DefragPolicy::EveryEpoch => {
            board.clear_all();
            defragmented = epoch > 0;
        }
        DefragPolicy::Never | DefragPolicy::OnBlock => {
            claimed.clear();
            claimed.resize(board.active().len(), false);
            match claim_keys {
                Some(keys) => keys.claim(board.active(), flows, claimed, flow_hops),
                None => claim_scan(board.active(), flows, claimed, flow_hops),
            }
            board.release_unclaimed(claimed);
        }
    }
    let mut counts = admission_pass(board, flows, flow_hops);
    if counts.blocked > 0 && config.policy.defrag == DefragPolicy::OnBlock {
        board.clear_all();
        defragmented = true;
        for h in flow_hops.iter_mut() {
            *h = 0;
        }
        counts = admission_pass(board, flows, flow_hops);
    }
    let mut offered = 0.0;
    let mut carried_local = 0.0;
    for flow in flows {
        offered += flow.demand_gbps;
        if flow.src == flow.dst && flow.demand_gbps > 0.0 {
            carried_local += flow.demand_gbps;
        }
    }
    let mut carried_direct = 0.0;
    let mut carried_indirect = 0.0;
    let mut wire_weighted = 0.0;
    let mut slots_in_use = 0u64;
    for lp in board.active() {
        if lp.hops() >= 2 {
            carried_indirect += lp.demand_gbps;
        } else {
            carried_direct += lp.demand_gbps;
        }
        wire_weighted += lp.demand_gbps * lp.hops() as f64 * lp.modulation.energy_factor;
        slots_in_use += lp.slot_count as u64 * lp.hops() as u64;
    }
    let fragmentation_index = if nodes >= 2 {
        board.fragmentation_sum() / (nodes as f64 * (nodes as f64 - 1.0))
    } else {
        0.0
    };
    let n = flows.len().max(1) as f64;
    FlexEpochResult {
        epoch,
        flows: flows.len(),
        requests: counts.requests,
        admitted: counts.admitted,
        blocked: counts.blocked,
        offered_gbps: offered,
        carried_local_gbps: carried_local,
        carried_direct_gbps: carried_direct,
        carried_indirect_gbps: carried_indirect,
        wire_weighted_gbps: wire_weighted,
        slots_in_use,
        fragmentation_index,
        direct_only_fraction: (counts.trivial + counts.direct_flows) as f64 / n,
        indirect_fraction: counts.indirect_flows as f64 / n,
        unsatisfied_fraction: counts.blocked as f64 / n,
        defragmented,
    }
}

/// Outcome of one flex-grid epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlexEpochResult {
    /// Epoch index within the timeline.
    pub epoch: usize,
    /// Flows offered this epoch (including MCM-local and degenerate ones).
    pub flows: usize,
    /// Non-trivial spectrum requests (fabric-crossing, positive demand).
    pub requests: usize,
    /// Requests carried on a lightpath (kept or newly admitted).
    pub admitted: usize,
    /// Requests that found no spectrum on any candidate path.
    pub blocked: usize,
    /// Total offered demand, in Gbps.
    pub offered_gbps: f64,
    /// Demand satisfied MCM-locally (self-flows), in Gbps.
    pub carried_local_gbps: f64,
    /// Demand carried on direct lightpaths, in Gbps.
    pub carried_direct_gbps: f64,
    /// Demand carried on two-hop detour lightpaths, in Gbps.
    pub carried_indirect_gbps: f64,
    /// Hop- and modulation-energy-weighted wire traffic, in Gbps (feeds the
    /// energy model's transceiver accounting).
    pub wire_weighted_gbps: f64,
    /// Slots booked across all links (block × hops per lightpath).
    pub slots_in_use: u64,
    /// Mean per-link external fragmentation over all ordered MCM pairs.
    pub fragmentation_index: f64,
    /// Fraction of flows MCM-local, degenerate, or on direct lightpaths.
    pub direct_only_fraction: f64,
    /// Fraction of flows on two-hop detour lightpaths.
    pub indirect_fraction: f64,
    /// Fraction of flows blocked.
    pub unsatisfied_fraction: f64,
    /// Whether this epoch triggered a full spectrum repack.
    pub defragmented: bool,
}

impl FlexEpochResult {
    /// Total carried demand: local + direct + detoured, in Gbps.
    pub fn carried_gbps(self) -> f64 {
        self.carried_local_gbps + self.carried_direct_gbps + self.carried_indirect_gbps
    }

    /// Carried / offered (1.0 when nothing was offered).
    pub fn satisfaction(self) -> f64 {
        if self.offered_gbps > 0.0 {
            self.carried_gbps() / self.offered_gbps
        } else {
            1.0
        }
    }

    /// Blocked / requests (0.0 when nothing was requested).
    pub fn blocking_probability(self) -> f64 {
        if self.requests > 0 {
            self.blocked as f64 / self.requests as f64
        } else {
            0.0
        }
    }
}

/// Aggregate outcome of a flex-grid timeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlexGridReport {
    /// Per-epoch results in order.
    pub epochs: Vec<FlexEpochResult>,
    /// Total offered demand across epochs, in Gbps.
    pub offered_gbps: f64,
    /// Total MCM-local carried demand, in Gbps.
    pub carried_local_gbps: f64,
    /// Total direct-lightpath carried demand, in Gbps.
    pub carried_direct_gbps: f64,
    /// Total detour-lightpath carried demand, in Gbps.
    pub carried_indirect_gbps: f64,
    /// Total hop- and modulation-weighted wire traffic, in Gbps.
    pub wire_weighted_gbps: f64,
    /// Total non-trivial spectrum requests.
    pub requests: usize,
    /// Total requests carried.
    pub admitted: usize,
    /// Total requests blocked.
    pub blocked: usize,
    /// Epochs that triggered a full spectrum repack.
    pub defrag_events: usize,
    /// Mean over epochs of the per-epoch fragmentation index.
    pub mean_fragmentation_index: f64,
    /// Mean over epochs of slots booked across all links.
    pub mean_slots_in_use: f64,
    /// Flow-weighted mean of the per-epoch direct-only fraction.
    pub direct_only_fraction: f64,
    /// Flow-weighted mean of the per-epoch detour fraction.
    pub indirect_fraction: f64,
    /// Flow-weighted mean of the per-epoch blocked fraction.
    pub unsatisfied_fraction: f64,
}

impl FlexGridReport {
    /// Total carried demand: local + direct + detoured, in Gbps.
    pub fn carried_gbps(&self) -> f64 {
        self.carried_local_gbps + self.carried_direct_gbps + self.carried_indirect_gbps
    }

    /// Carried / offered across the whole timeline (1.0 when idle).
    pub fn satisfaction(&self) -> f64 {
        if self.offered_gbps > 0.0 {
            self.carried_gbps() / self.offered_gbps
        } else {
            1.0
        }
    }

    /// Blocked / requested across the whole timeline (0.0 when idle).
    pub fn blocking_probability(&self) -> f64 {
        if self.requests > 0 {
            self.blocked as f64 / self.requests as f64
        } else {
            0.0
        }
    }
}

/// Whether two sanitized matrices are the same flows, demands compared bit
/// for bit.
fn same_bits(a: &[Flow], b: &[Flow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.src == y.src && x.dst == y.dst && x.demand_gbps.to_bits() == y.demand_gbps.to_bits()
        })
}

/// Fold per-epoch results into a [`FlexGridReport`].
fn summarize(epochs: Vec<FlexEpochResult>) -> FlexGridReport {
    let total_flows: usize = epochs.iter().map(|e| e.flows).sum();
    let flow_weighted = |pick: &dyn Fn(&FlexEpochResult) -> f64| -> f64 {
        if total_flows == 0 {
            0.0
        } else {
            epochs.iter().map(|e| pick(e) * e.flows as f64).sum::<f64>() / total_flows as f64
        }
    };
    let epoch_mean = |pick: &dyn Fn(&FlexEpochResult) -> f64| -> f64 {
        if epochs.is_empty() {
            0.0
        } else {
            epochs.iter().map(pick).sum::<f64>() / epochs.len() as f64
        }
    };
    FlexGridReport {
        offered_gbps: epochs.iter().map(|e| e.offered_gbps).sum(),
        carried_local_gbps: epochs.iter().map(|e| e.carried_local_gbps).sum(),
        carried_direct_gbps: epochs.iter().map(|e| e.carried_direct_gbps).sum(),
        carried_indirect_gbps: epochs.iter().map(|e| e.carried_indirect_gbps).sum(),
        wire_weighted_gbps: epochs.iter().map(|e| e.wire_weighted_gbps).sum(),
        requests: epochs.iter().map(|e| e.requests).sum(),
        admitted: epochs.iter().map(|e| e.admitted).sum(),
        blocked: epochs.iter().map(|e| e.blocked).sum(),
        defrag_events: epochs.iter().filter(|e| e.defragmented).count(),
        mean_fragmentation_index: epoch_mean(&|e| e.fragmentation_index),
        mean_slots_in_use: epoch_mean(&|e| e.slots_in_use as f64),
        direct_only_fraction: flow_weighted(&|e| e.direct_only_fraction),
        indirect_fraction: flow_weighted(&|e| e.indirect_fraction),
        unsatisfied_fraction: flow_weighted(&|e| e.unsatisfied_fraction),
        epochs,
    }
}

/// Reusable scratch for [`FlexGridSimulator::run_in`]: the persistent
/// spectrum board plus sanitization/claim/result buffers. One arena serves
/// any sequence of rack sizes or configs — `run_in` rebuilds or resets the
/// board as needed, so arena reuse can never change results.
///
/// ```
/// use fabric::flexgrid::{FlexGridArena, FlexGridConfig, FlexGridSimulator};
/// use fabric::flowsim::Flow;
/// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
/// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
/// cfg.mcm_count = 8;
/// let fabric = RackFabric::new(cfg);
/// let sim = FlexGridSimulator::new(&fabric, FlexGridConfig::default());
/// let epochs = vec![vec![Flow::new(0, 1, 200.0)]];
/// let mut arena = FlexGridArena::new();
/// let report = sim.run_in(&mut arena, &epochs);
/// assert_eq!(report, sim.run(&epochs));
/// arena.recycle(report); // reclaim the report's buffers for the next run
/// ```
#[derive(Debug, Default)]
pub struct FlexGridArena {
    alloc: Option<SpectrumAllocator>,
    sanitized: Vec<Flow>,
    /// The previous epoch's sanitized matrix (unchanged-epoch detection).
    prev: Vec<Flow>,
    claimed: Vec<bool>,
    flow_hops: Vec<u32>,
    claim_keys: ClaimKeys,
    results: Vec<FlexEpochResult>,
    /// Epochs whose result was the previous epoch's, over the lifetime.
    epochs_reused: usize,
}

impl FlexGridArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Epochs this arena's runs took from the previous epoch's result
    /// instead of solving, over its lifetime. See
    /// [`FlexGridSimulator::run_in`] for when an epoch is reused.
    ///
    /// ```
    /// use fabric::flexgrid::{FlexGridArena, FlexGridConfig, FlexGridSimulator};
    /// use fabric::flowsim::Flow;
    /// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
    /// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
    /// cfg.mcm_count = 8;
    /// let fabric = RackFabric::new(cfg);
    /// let sim = FlexGridSimulator::new(&fabric, FlexGridConfig::default());
    /// // The same matrix three times: epochs 1 and 2 reuse epoch 0.
    /// let epochs = vec![vec![Flow::new(0, 1, 200.0)]; 3];
    /// let mut arena = FlexGridArena::new();
    /// assert_eq!(sim.run_in(&mut arena, &epochs), sim.run_exhaustive(&epochs));
    /// assert_eq!(arena.epochs_reused(), 2);
    /// ```
    pub fn epochs_reused(&self) -> usize {
        self.epochs_reused
    }

    /// Reclaim a finished report's epoch buffer for the next `run_in`.
    pub fn recycle(&mut self, mut report: FlexGridReport) {
        report.epochs.clear();
        self.results = report.epochs;
    }

    fn prepare(&mut self, nodes: u32, slots: u32, config: FlexGridConfig) {
        let reusable = matches!(
            &self.alloc,
            Some(a) if a.nodes == nodes && a.slots == slots && a.config == config
        );
        if reusable {
            if let Some(a) = self.alloc.as_mut() {
                a.reset();
            }
        } else {
            self.alloc = Some(SpectrumAllocator::with_dims(nodes, slots, config));
        }
        self.sanitized.clear();
        self.prev.clear();
        self.claimed.clear();
        self.flow_hops.clear();
        self.results.clear();
    }
}

/// Epoch-by-epoch flex-grid evaluation of a demand timeline against a
/// persistent spectrum board.
///
/// ```
/// use fabric::flexgrid::{FlexGridConfig, FlexGridSimulator};
/// use fabric::flowsim::Flow;
/// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
/// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
/// cfg.mcm_count = 8;
/// let fabric = RackFabric::new(cfg);
/// let sim = FlexGridSimulator::new(&fabric, FlexGridConfig::default());
/// let epochs = vec![
///     vec![Flow::new(0, 1, 200.0), Flow::new(2, 3, 100.0)],
///     vec![Flow::new(0, 1, 200.0)],
/// ];
/// let report = sim.run(&epochs);
/// // The incremental path always matches the from-scratch oracle.
/// assert_eq!(report, sim.run_exhaustive(&epochs));
/// assert_eq!(report.blocked, 0);
/// assert!((report.satisfaction() - 1.0).abs() < 1e-12);
/// ```
pub struct FlexGridSimulator {
    config: FlexGridConfig,
    nodes: u32,
    slots: u32,
}

impl FlexGridSimulator {
    /// Simulator over `fabric` with the [`link_slot_budget`] slot budget.
    pub fn new(fabric: &RackFabric, config: FlexGridConfig) -> Self {
        FlexGridSimulator {
            config,
            nodes: fabric.config().mcm_count,
            slots: link_slot_budget(fabric),
        }
    }

    /// Slot budget per ordered MCM pair for this simulator's fabric.
    pub fn slots_per_link(&self) -> u32 {
        self.slots
    }

    /// Run the timeline with a throwaway arena. See
    /// [`FlexGridSimulator::run_in`].
    pub fn run(&self, epochs: &[Vec<Flow>]) -> FlexGridReport {
        self.run_in(&mut FlexGridArena::new(), epochs)
    }

    /// Run the timeline incrementally: the spectrum board persists across
    /// epochs, with surviving lightpaths kept in place and departures
    /// released. Survivors are claimed by a sort-merge over the flow and
    /// lightpath keys, O((flows + active) log) per epoch.
    ///
    /// An epoch whose sanitized matrix equals the previous epoch's bit for
    /// bit reuses that epoch's result, relabelled, without touching the
    /// board, when the defrag policy is [`DefragPolicy::EveryEpoch`] (the
    /// epoch repacks from an empty board, so its result is a function of
    /// the matrix alone) or the previous epoch blocked nothing (every flow
    /// then claims a lightpath it already holds, so nothing is released,
    /// admitted or repacked). [`FlexGridArena::epochs_reused`] counts these.
    ///
    /// Bit-identical to [`FlexGridSimulator::run_exhaustive`] for any arena
    /// state, fresh or dirty.
    pub fn run_in(&self, arena: &mut FlexGridArena, epochs: &[Vec<Flow>]) -> FlexGridReport {
        arena.prepare(self.nodes, self.slots, self.config);
        let FlexGridArena {
            alloc,
            sanitized,
            prev,
            claimed,
            flow_hops,
            claim_keys,
            results,
            epochs_reused,
        } = arena;
        let board = alloc.as_mut().expect("prepare populated the allocator");
        let repack = self.config.policy.defrag == DefragPolicy::EveryEpoch;
        for (epoch, raw) in epochs.iter().enumerate() {
            sanitized.clear();
            sanitized.extend(raw.iter().map(|f| f.sanitized()));
            let reused = results
                .last()
                .filter(|last| (repack || last.blocked == 0) && same_bits(prev, sanitized))
                .map(|last| FlexEpochResult {
                    epoch,
                    defragmented: repack,
                    ..*last
                });
            let result = match reused {
                Some(result) => {
                    *epochs_reused += 1;
                    result
                }
                None => run_epoch(
                    board,
                    epoch,
                    sanitized,
                    claimed,
                    flow_hops,
                    Some(claim_keys),
                ),
            };
            results.push(result);
            std::mem::swap(prev, sanitized);
        }
        summarize(std::mem::take(results))
    }

    /// The from-scratch oracle: rebuilds a fresh spectrum board every epoch
    /// from the carried lightpath list alone, so no incremental state can
    /// leak between epochs. Slower than [`FlexGridSimulator::run_in`] but
    /// produces exactly the same report — the oracle tests pin this.
    pub fn run_exhaustive(&self, epochs: &[Vec<Flow>]) -> FlexGridReport {
        let mut carried: Vec<Lightpath> = Vec::new();
        let mut results = Vec::new();
        let mut claimed = Vec::new();
        let mut flow_hops = Vec::new();
        for (epoch, raw) in epochs.iter().enumerate() {
            let flows: Vec<Flow> = raw.iter().map(|f| f.sanitized()).collect();
            let mut board = MapBoard::new(self.nodes, self.slots, self.config);
            for lp in &carried {
                board.place(*lp);
            }
            results.push(run_epoch(
                &mut board,
                epoch,
                &flows,
                &mut claimed,
                &mut flow_hops,
                None,
            ));
            carried = board.active;
        }
        summarize(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rackfabric::{FabricKind, RackFabricConfig};

    fn fabric(mcms: u32) -> RackFabric {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = mcms;
        RackFabric::new(cfg)
    }

    fn all_policies() -> Vec<SpectrumPolicy> {
        let mut out = Vec::new();
        for admission in [
            AdmissionPolicy::FirstFit,
            AdmissionPolicy::BestFit,
            AdmissionPolicy::ExactFit,
        ] {
            for defrag in [
                DefragPolicy::Never,
                DefragPolicy::OnBlock,
                DefragPolicy::EveryEpoch,
            ] {
                out.push(SpectrumPolicy { admission, defrag });
            }
        }
        out
    }

    /// Six epochs of shifting pair demands with duplicate pairs, a self-flow,
    /// and a degenerate negative demand mixed in.
    fn canned_epochs(nodes: u32) -> Vec<Vec<Flow>> {
        let mut epochs = Vec::new();
        for e in 0..6u32 {
            let mut flows = Vec::new();
            for i in 0..nodes {
                let dst = (i + 1 + e) % nodes;
                flows.push(Flow::new(
                    i,
                    dst,
                    150.0 + 25.0 * (i % 4) as f64 + 10.0 * e as f64,
                ));
            }
            flows.push(Flow::new(0, 9 % nodes, 75.0));
            flows.push(Flow::new(0, 9 % nodes, 75.0));
            flows.push(Flow::new(3 % nodes, 3 % nodes, 50.0));
            flows.push(Flow::new(5 % nodes, 7 % nodes, -10.0));
            epochs.push(flows);
        }
        epochs
    }

    #[test]
    fn policy_labels_are_stable_and_parse_back() {
        for policy in all_policies() {
            let label = policy.label();
            assert_eq!(SpectrumPolicy::parse(&label), Some(policy), "{label}");
        }
        assert_eq!(SpectrumPolicy::default().label(), "firstfit");
        assert_eq!(
            SpectrumPolicy {
                admission: AdmissionPolicy::BestFit,
                defrag: DefragPolicy::OnBlock,
            }
            .label(),
            "bestfit+defrag"
        );
        assert_eq!(SpectrumPolicy::parse("firstfit+compact"), None);
    }

    #[test]
    fn modulation_ladder_matches_reach() {
        assert_eq!(modulation_for_hops(1).unwrap().label, "16QAM");
        assert_eq!(modulation_for_hops(2).unwrap().label, "8QAM");
        assert_eq!(modulation_for_hops(3).unwrap().label, "QPSK");
        assert_eq!(modulation_for_hops(4).unwrap().label, "BPSK");
        assert_eq!(modulation_for_hops(5), None);
        assert_eq!(modulation_for_hops(0).unwrap().label, "16QAM");
    }

    #[test]
    fn slot_budget_follows_min_direct_wavelengths() {
        let f = fabric(16);
        let budget = link_slot_budget(&f);
        assert_eq!(budget, 4 * f.report().min_direct_wavelengths);
        assert!(budget >= 20, "16-MCM AWGR budget {budget}");
    }

    #[test]
    fn guardband_separates_neighboring_lightpaths() {
        let f = fabric(8);
        let mut alloc = SpectrumAllocator::new(&f, FlexGridConfig::default());
        let a = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
        let b = alloc.admit(Flow::new(0, 1, 100.0)).unwrap();
        assert_eq!(a.first_slot, 0);
        assert_eq!(a.slot_count, a.data_slots + 1);
        assert_eq!(b.first_slot, a.first_slot + a.slot_count);
        let occupied = alloc.occupied_slots(0, 1);
        assert_eq!(occupied.len() as u32, a.slot_count + b.slot_count);
    }

    #[test]
    fn best_fit_prefers_the_tightest_hole() {
        let f = fabric(8);
        let slots = link_slot_budget(&f);
        assert!(slots >= 18, "test needs room for three 5-slot blocks");
        let make = |admission: AdmissionPolicy| {
            let config = FlexGridConfig {
                policy: SpectrumPolicy {
                    admission,
                    defrag: DefragPolicy::Never,
                },
                ..FlexGridConfig::default()
            };
            let mut alloc = SpectrumAllocator::new(&f, config);
            // Blocks at [0,5), [5,10), [10,13), [13,18); free the first and
            // third to leave a 5-slot hole at 0 and a 3-slot hole at 10.
            let a = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
            let _b = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
            let c = alloc.admit(Flow::new(0, 1, 100.0)).unwrap();
            let _d = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
            assert_eq!((c.first_slot, c.slot_count), (10, 3));
            assert!(alloc.release(&a));
            assert!(alloc.release(&c));
            alloc.admit(Flow::new(0, 1, 100.0)).unwrap()
        };
        assert_eq!(make(AdmissionPolicy::FirstFit).first_slot, 0);
        assert_eq!(make(AdmissionPolicy::BestFit).first_slot, 10);
        assert_eq!(make(AdmissionPolicy::ExactFit).first_slot, 10);
    }

    #[test]
    fn detour_falls_back_to_wider_modulation() {
        let f = fabric(8);
        let slots = link_slot_budget(&f);
        let mut alloc = SpectrumAllocator::new(&f, FlexGridConfig::default());
        // Fill the direct link 0→1 with 200 Gbps lightpaths (5 slots each).
        let direct_capacity = slots / 5;
        for _ in 0..direct_capacity {
            let lp = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
            assert_eq!(lp.hops(), 1);
        }
        let detour = alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
        assert_eq!(detour.via, Some(2));
        assert_eq!(detour.hops(), 2);
        assert_eq!(detour.modulation.label, "8QAM");
        // Two links booked: the detour's block appears on (0,2) and (2,1).
        assert_eq!(alloc.occupied_slots(0, 2).len(), detour.slot_count as usize);
        assert_eq!(alloc.occupied_slots(2, 1).len(), detour.slot_count as usize);
    }

    #[test]
    fn release_then_readmit_restores_identical_state() {
        let f = fabric(8);
        let mut alloc = SpectrumAllocator::new(&f, FlexGridConfig::default());
        alloc.admit(Flow::new(0, 1, 200.0)).unwrap();
        alloc.admit(Flow::new(2, 5, 150.0)).unwrap();
        let before = alloc.clone();
        let lp = alloc.admit(Flow::new(4, 6, 300.0)).unwrap();
        assert!(alloc.release(&lp));
        assert_eq!(alloc.occupied_slots(4, 6), before.occupied_slots(4, 6));
        assert_eq!(alloc.active_lightpaths(), before.active_lightpaths());
        assert_eq!(alloc.carried_gbps(), before.carried_gbps());
        let again = alloc.admit(Flow::new(4, 6, 300.0)).unwrap();
        assert_eq!(again, lp);
    }

    #[test]
    fn admission_never_decreases_carried_gbps() {
        let f = fabric(12);
        let mut alloc = SpectrumAllocator::new(&f, FlexGridConfig::default());
        let mut carried = 0.0;
        for e in 0..40u32 {
            let flow = Flow::new(e % 12, (e * 5 + 1) % 12, 100.0 + (e % 7) as f64 * 60.0);
            alloc.admit(flow);
            let now = alloc.carried_gbps();
            assert!(now >= carried, "carried dropped: {now} < {carried}");
            carried = now;
        }
    }

    #[test]
    fn overload_blocks_and_repack_recovers_fragmentation() {
        let f = fabric(8);
        let mut overload = vec![];
        for _ in 0..10 {
            overload.push(Flow::new(0, 1, 400.0));
        }
        let sim = FlexGridSimulator::new(&f, FlexGridConfig::default());
        let report = sim.run(&[overload.clone()]);
        assert!(report.blocked > 0);
        let bp = report.blocking_probability();
        assert!(bp > 0.0 && bp <= 1.0, "blocking probability {bp}");
        // EveryEpoch repacks: defrag events counted from the second epoch on.
        let repack = FlexGridConfig {
            policy: SpectrumPolicy {
                admission: AdmissionPolicy::FirstFit,
                defrag: DefragPolicy::EveryEpoch,
            },
            ..FlexGridConfig::default()
        };
        let sim = FlexGridSimulator::new(&f, repack);
        let report = sim.run(&[overload.clone(), overload]);
        assert_eq!(report.defrag_events, 1);
    }

    #[test]
    fn incremental_solver_equals_exhaustive_oracle() {
        let f = fabric(12);
        let epochs = canned_epochs(12);
        for policy in all_policies() {
            let config = FlexGridConfig {
                policy,
                ..FlexGridConfig::default()
            };
            let sim = FlexGridSimulator::new(&f, config);
            let oracle = sim.run_exhaustive(&epochs);
            assert_eq!(sim.run(&epochs), oracle, "{}", policy.label());
            let mut arena = FlexGridArena::new();
            assert_eq!(
                sim.run_in(&mut arena, &epochs),
                oracle,
                "{}",
                policy.label()
            );
            // Dirty arena: rerun without recycling; prepare must neutralize.
            assert_eq!(
                sim.run_in(&mut arena, &epochs),
                oracle,
                "dirty arena {}",
                policy.label()
            );
        }
    }

    #[test]
    fn one_arena_serves_different_rack_sizes() {
        let mut arena = FlexGridArena::new();
        for mcms in [12u32, 16, 8] {
            let f = fabric(mcms);
            let epochs = canned_epochs(mcms);
            let sim = FlexGridSimulator::new(&f, FlexGridConfig::default());
            let report = sim.run_in(&mut arena, &epochs);
            assert_eq!(report, sim.run_exhaustive(&epochs), "{mcms} MCMs");
            arena.recycle(report);
        }
    }

    #[test]
    fn degenerate_flows_never_occupy_spectrum() {
        let f = fabric(8);
        let sim = FlexGridSimulator::new(&f, FlexGridConfig::default());
        let epochs = vec![vec![
            Flow::new(2, 2, 500.0),
            Flow::new(0, 1, f64::NAN),
            Flow::new(3, 4, -25.0),
            Flow::new(99, 1, 100.0),
        ]];
        let report = sim.run(&epochs);
        assert_eq!(report, sim.run_exhaustive(&epochs));
        let e = &report.epochs[0];
        assert_eq!(e.slots_in_use, 0);
        assert_eq!(e.carried_local_gbps, 500.0);
        // The out-of-range endpoint is a real (unroutable) request.
        assert_eq!((e.requests, e.blocked), (1, 1));
    }

    /// Fill link `(src, dst)` of `alloc` with alternating busy/free runs
    /// whose lengths are drawn up to `max_busy`/`max_free` (a splitmix64
    /// stream from `seed`), so runs of every length cross word boundaries.
    fn scribble(
        alloc: &mut SpectrumAllocator,
        link: (u32, u32),
        seed: u64,
        max_busy: u64,
        max_free: u64,
    ) {
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            1 + (z ^ (z >> 31)) % bound
        };
        let base = alloc.link_index(link.0, link.1) * alloc.words;
        let words = alloc.words;
        let mut s = if draw(2) == 1 {
            0
        } else {
            draw(max_free) as u32
        };
        while s < alloc.slots {
            let len = (draw(max_busy) as u32).min(alloc.slots - s);
            mark_range(&mut alloc.occ[base..base + words], s, len, true);
            s += len + draw(max_free) as u32;
        }
    }

    /// The per-slot scans the word kernel replaces, over `alloc`'s bits.
    fn scalar_block(alloc: &SpectrumAllocator, links: &[(u32, u32)], needed: u32) -> Option<u32> {
        choose_block(alloc.config.policy.admission, needed, alloc.slots, |s| {
            links.iter().all(|&(a, b)| alloc.is_free(a, b, s))
        })
    }

    #[test]
    fn word_kernel_matches_scalar_scans() {
        let admissions = [
            AdmissionPolicy::FirstFit,
            AdmissionPolicy::BestFit,
            AdmissionPolicy::ExactFit,
        ];
        // (max busy run, max free run): sparse, dense, long holes.
        let shapes = [(3, 3), (1, 9), (40, 90), (130, 200)];
        for slots in [1u32, 24, 63, 64, 65, 127, 128, 1024, 1030] {
            for (case, &(max_busy, max_free)) in shapes.iter().enumerate() {
                let seed = u64::from(slots) * 31 + case as u64;
                let mut alloc = SpectrumAllocator::with_dims(3, slots, FlexGridConfig::default());
                scribble(&mut alloc, (0, 1), seed, max_busy, max_free);
                scribble(&mut alloc, (1, 2), seed ^ 0xABCD, max_busy, max_free);
                // (1, 0) stays empty; (2, 0) is full.
                let base = alloc.link_index(2, 0) * alloc.words;
                mark_range(&mut alloc.occ[base..base + alloc.words], 0, slots, true);
                let paths: [&[(u32, u32)]; 6] = [
                    &[(0, 1)],
                    &[(1, 2)],
                    &[(1, 0)],
                    &[(2, 0)],
                    &[(0, 1), (1, 2)],
                    &[(1, 0), (0, 1)],
                ];
                for admission in admissions {
                    alloc.config.policy.admission = admission;
                    for path in paths {
                        let sizes = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 63, 64, 65, 89, 128, 144];
                        let edge = [slots.saturating_sub(1), slots, slots + 1];
                        for needed in sizes.into_iter().filter(|&n| n <= slots).chain(edge) {
                            assert_eq!(
                                alloc.find_block(path, needed),
                                scalar_block(&alloc, path, needed),
                                "{slots} slots, shape {case}, {admission:?}, {path:?}, needed {needed}"
                            );
                        }
                    }
                }
                for (a, b) in [(0, 1), (1, 2), (1, 0), (2, 0)] {
                    let link = alloc.link_index(a, b);
                    let (mut largest, mut free_total) = (0u32, 0u32);
                    for (_, len) in alloc.free_runs(link, link) {
                        largest = largest.max(len);
                        free_total += len;
                    }
                    let scalar = link_fragmentation(slots, |s| !alloc.is_free(a, b, s));
                    assert_eq!(
                        fragmentation_ratio(largest, free_total).to_bits(),
                        scalar.to_bits(),
                        "{slots} slots, shape {case}, link ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn mark_range_sets_and_clears_exactly_the_block() {
        let mut alloc = SpectrumAllocator::with_dims(2, 200, FlexGridConfig::default());
        for (first, count) in [(0, 1), (63, 2), (60, 70), (0, 200), (128, 64), (199, 1)] {
            let base = alloc.link_index(0, 1) * alloc.words;
            let words = alloc.words;
            mark_range(&mut alloc.occ[base..base + words], first, count, true);
            let expect: Vec<u32> = (first..first + count).collect();
            assert_eq!(alloc.occupied_slots(0, 1), expect);
            mark_range(&mut alloc.occ[base..base + words], first, count, false);
            assert!(alloc.occ.iter().all(|&w| w == 0), "({first}, {count})");
        }
    }

    #[test]
    fn huge_finite_demand_is_blocked_not_wrapped() {
        let f = fabric(8);
        for guard_slots in [1, 2] {
            let config = FlexGridConfig {
                guard_slots,
                ..FlexGridConfig::default()
            };
            let mut alloc = SpectrumAllocator::new(&f, config);
            assert_eq!(
                alloc.admit(Flow::new(0, 1, 1e300)),
                None,
                "guard {guard_slots}"
            );
            let sim = FlexGridSimulator::new(&f, config);
            let epochs = vec![vec![Flow::new(0, 1, 1e300), Flow::new(2, 3, 100.0)]];
            let report = sim.run(&epochs);
            assert_eq!(report, sim.run_exhaustive(&epochs), "guard {guard_slots}");
            assert_eq!(
                (report.requests, report.blocked),
                (2, 1),
                "guard {guard_slots}"
            );
            // Only the 100 Gbps flow books spectrum: 2 data slots + guard.
            assert_eq!(report.epochs[0].slots_in_use, 2 + u64::from(guard_slots));
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let f = fabric(12);
        let epochs = canned_epochs(12);
        let sim = FlexGridSimulator::new(&f, FlexGridConfig::default());
        assert_eq!(sim.run(&epochs), sim.run(&epochs));
    }
}
