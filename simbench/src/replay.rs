//! Per-layer host time, measured from outside the program by driving
//! each layer's public API with the work a finished run did:
//!
//! - stream generation: fresh streams (prologues first) drained
//!   round-robin, the order the machine interleaves its threads in;
//! - `Llc` + per-thread `StrideDetector`: the drained line stream;
//! - `Memory`: first-touch mapping plus the reference stamp per access;
//! - `Channel::book`: one booking per single-line transfer the report's
//!   byte counters imply, spread evenly over the run's simulated cycles;
//! - `PebsSampler`: one observation per demand-load miss in the report.
//!
//! Generation, cache and memory are timed block by block, so the drained
//! stream never has to be held in memory whole.

use std::hint::black_box;
use std::time::Instant;

use pact_tiersim::{
    line_of, AccessKind, AccessStream, Channel, Llc, Memory, PageId, PebsSampler, PebsScope,
    RunReport, StrideDetector, Tier, HUGE_PAGE_SPAN, LINE_BYTES, PAGE_BYTES,
};

use crate::cells::Cell;
use crate::probe::ns_since;

/// Accesses drained and replayed per timed block.
const BLOCK: usize = 1 << 16;

/// Work counts and host ns per replayed layer.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub accesses: u64,
    pub loads: u64,
    pub stores: u64,
    pub gen_ns: u64,
    pub llc_ns: u64,
    pub map_ns: u64,
    /// Single-line channel bookings replayed, and what the channels
    /// counted.
    pub books: u64,
    pub lines_booked: u64,
    pub book_ns: u64,
    pub pebs_observed: u64,
    pub pebs_samples: u64,
    pub pebs_ns: u64,
}

struct Lane<'a> {
    stream: Box<dyn AccessStream + 'a>,
    thread: usize,
    base_page: u64,
    footprint: u64,
}

#[derive(Clone, Copy)]
struct Rec {
    line: u64,
    page: u64,
    thread: u32,
    load: bool,
}

/// Replays every layer for `cell`, sized by `report` (a finished run of
/// the same cell); `scope` is the policy's PEBS scope override.
pub fn replay(cell: &Cell, report: &RunReport, scope: Option<PebsScope>) -> Result<Replay, String> {
    let cfg = cell.machine.config();
    let mut out = Replay::default();

    // Address-space layout exactly as the machine lays out colocated
    // processes: footprints rounded up to whole huge-page spans.
    let t = Instant::now();
    let (mut prologues, mut workers) = (Vec::new(), Vec::new());
    let mut next_base = 0u64;
    let mut threads = 0usize;
    for wl in &cell.workloads {
        let footprint = wl.footprint_bytes();
        let pages = footprint.div_ceil(PAGE_BYTES).div_ceil(HUGE_PAGE_SPAN) * HUGE_PAGE_SPAN;
        let mut lane = |stream| {
            threads += 1;
            Lane {
                stream,
                thread: threads - 1,
                base_page: next_base,
                footprint,
            }
        };
        if let Some(p) = wl.prologue() {
            prologues.push(lane(p));
        }
        for s in wl.streams() {
            workers.push(lane(s));
        }
        next_base += pages;
    }
    out.gen_ns += ns_since(t);

    let mut llc = Llc::new(cfg.llc);
    let mut detectors = vec![StrideDetector::new(&cfg.prefetch); threads];
    let unit_span = if cfg.thp { cfg.thp_unit_pages } else { 1 };
    let mut mem = Memory::new(next_base, cfg.fast_tier_pages, unit_span);
    let windows = report.windows.len().max(1) as u64;
    let total = report.counters.accesses.max(1);

    let mut buf: Vec<Rec> = Vec::with_capacity(BLOCK);
    for lanes in [&mut prologues, &mut workers] {
        let mut cursor = 0;
        loop {
            let t = Instant::now();
            fill(lanes, &mut cursor, &mut buf)?;
            out.gen_ns += ns_since(t);
            if buf.is_empty() {
                break;
            }

            let t = Instant::now();
            for r in &buf {
                llc.access(r.line);
                if r.load {
                    for pl in detectors[r.thread as usize].observe(r.line) {
                        if !llc.contains(pl) {
                            llc.fill(pl);
                        }
                    }
                }
            }
            out.llc_ns += ns_since(t);

            let window = out.accesses * windows / total;
            let t = Instant::now();
            for r in &buf {
                mem.ensure_mapped_with(PageId(r.page), None);
                mem.touch(PageId(r.page), window);
            }
            out.map_ns += ns_since(t);

            out.accesses += buf.len() as u64;
            out.loads += buf.iter().filter(|r| r.load).count() as u64;
        }
    }
    out.stores = out.accesses - out.loads;

    // Channel bookings: every byte a tier moved is a single-line demand,
    // store or prefetch transfer, except whole-page migration copies,
    // which count on both tiers.
    let c = &report.counters;
    let migrated_lines = (report.promotions + report.demotions) * (PAGE_BYTES / LINE_BYTES);
    for (tidx, tier_cfg) in cfg.tiers.iter().enumerate() {
        let n = (c.bytes[tidx] / LINE_BYTES)
            .checked_sub(migrated_lines)
            .ok_or("tier bytes are fewer than the migrated pages imply")?;
        let mut chan = Channel::new(tier_cfg.line_transfer_cycles(cfg.freq_ghz));
        let step = report.total_cycles / n.max(1);
        let t = Instant::now();
        let mut at = 0u64;
        for _ in 0..n {
            black_box(chan.book(at, 1));
            at += step;
        }
        out.book_ns += ns_since(t);
        out.books += n;
        out.lines_booked += chan.lines_booked();
    }

    let mut pebs_cfg = cfg.pebs;
    if let Some(s) = scope {
        pebs_cfg.scope = s;
    }
    let mut sampler = PebsSampler::new(pebs_cfg);
    let t = Instant::now();
    for (tier, n) in [(Tier::Fast, c.llc_misses[0]), (Tier::Slow, c.llc_misses[1])] {
        for _ in 0..n {
            out.pebs_samples += u64::from(sampler.observe(black_box(tier)));
        }
        out.pebs_observed += n;
    }
    out.pebs_ns += ns_since(t);
    Ok(out)
}

/// Drains `lanes` round-robin into `buf` until it holds a block or every
/// lane is exhausted.
fn fill(lanes: &mut Vec<Lane<'_>>, cursor: &mut usize, buf: &mut Vec<Rec>) -> Result<(), String> {
    buf.clear();
    while buf.len() < BLOCK && !lanes.is_empty() {
        if *cursor >= lanes.len() {
            *cursor = 0;
        }
        let lane = &mut lanes[*cursor];
        let Some(a) = lane.stream.next_access() else {
            lanes.swap_remove(*cursor);
            continue;
        };
        if a.vaddr >= lane.footprint {
            return Err(format!(
                "stream emitted {:#x} beyond its {}-byte footprint",
                a.vaddr, lane.footprint
            ));
        }
        buf.push(Rec {
            line: line_of(lane.base_page * PAGE_BYTES + a.vaddr),
            page: lane.base_page + a.vaddr / PAGE_BYTES,
            // Thread counts are far below u32::MAX.
            thread: lane.thread as u32,
            load: a.kind == AccessKind::Load,
        });
        *cursor += 1;
    }
    Ok(())
}
