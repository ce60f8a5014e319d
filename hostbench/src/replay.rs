//! What the benchmark computes from the generators on its own, and the
//! layer replays of the traced run: each drives one layer's public API
//! outside the simulator over a cell's page stream and times it.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use softwalker::RequestDistributor;
use swgpu_mem::PhysMem;
use swgpu_pt::AddressSpace;
use swgpu_sim::GpuConfig;
use swgpu_sm::{InstrSource, WarpInstr};
use swgpu_tlb::{L2MissOutcome, L2TlbComplex, Tlb};
use swgpu_types::{Asid, Pfn, SmId, VirtAddr, Vpn, WarpId};
use swgpu_workloads::{BenchmarkSpec, Workload, WorkloadParams};

/// The pages each load touches, in issue order: step by step, SM by SM,
/// warp by warp, each load's distinct pages in lane order.
#[derive(Debug, Clone)]
pub struct PageStream {
    /// `(sm, vpn)` per page access.
    pub accesses: Vec<(SmId, Vpn)>,
    /// Distinct pages over the whole stream.
    pub distinct_pages: u64,
}

/// Calls `f` with each page access of `spec` at `params`, in
/// [`PageStream`] order, computed from `lane_addrs` alone.
fn for_each_page(spec: &BenchmarkSpec, params: WorkloadParams, mut f: impl FnMut(SmId, Vpn)) {
    let wl = spec.build(params);
    let page = params.page_size;
    let mut load_pages = Vec::new();
    for step in 0..u64::from(params.mem_instrs_per_warp) {
        for sm in 0..params.sms {
            let sm = SmId::new(u16::try_from(sm).expect("SM count fits u16"));
            for warp in 0..params.warps_per_sm {
                let warp = WarpId::new(u16::try_from(warp).expect("warp count fits u16"));
                load_pages.clear();
                for addr in wl.lane_addrs(sm, warp, step) {
                    let vpn = page.vpn_of(addr);
                    if !load_pages.contains(&vpn) {
                        load_pages.push(vpn);
                    }
                }
                for &vpn in &load_pages {
                    f(sm, vpn);
                }
            }
        }
    }
}

/// Distinct pages `spec` touches at `params`, without keeping the stream.
pub fn distinct_pages(spec: &BenchmarkSpec, params: WorkloadParams) -> u64 {
    let mut seen = HashSet::new();
    for_each_page(spec, params, |_, vpn| {
        seen.insert(vpn);
    });
    seen.len() as u64
}

/// Builds the page stream of `spec` at `params` from `lane_addrs` alone.
pub fn page_stream(spec: &BenchmarkSpec, params: WorkloadParams) -> PageStream {
    let mut accesses = Vec::new();
    let mut seen = HashSet::new();
    for_each_page(spec, params, |sm, vpn| {
        seen.insert(vpn);
        accesses.push((sm, vpn));
    });
    PageStream {
        accesses,
        distinct_pages: seen.len() as u64,
    }
}

/// Result of draining a generator through `next_instr`.
#[derive(Debug, Clone, Copy)]
pub struct Drain {
    /// Instructions emitted (compute and loads).
    pub instrs: u64,
    /// Loads emitted.
    pub loads: u64,
    /// Host nanoseconds per emitted instruction.
    pub ns_per_instr: f64,
}

/// Drains a fresh generator warp by warp, round-robin, as the SMs would.
pub fn drain_generator(wl: &mut Workload) -> Drain {
    let p = wl.params();
    let warps: Vec<(SmId, WarpId)> = (0..p.sms)
        .flat_map(|sm| {
            (0..p.warps_per_sm).map(move |w| {
                (
                    SmId::new(u16::try_from(sm).expect("SM count fits u16")),
                    WarpId::new(u16::try_from(w).expect("warp count fits u16")),
                )
            })
        })
        .collect();
    let mut live = vec![true; warps.len()];
    let (mut instrs, mut loads) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut any = true;
    while any {
        any = false;
        for (i, &(sm, warp)) in warps.iter().enumerate() {
            if !live[i] {
                continue;
            }
            match std::hint::black_box(wl.next_instr(sm, warp)) {
                Some(instr) => {
                    any = true;
                    instrs += 1;
                    loads += u64::from(matches!(instr, WarpInstr::Load { .. }));
                }
                None => live[i] = false,
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    Drain {
        instrs,
        loads,
        ns_per_instr: ns / instrs.max(1) as f64,
    }
}

/// Replays the page stream through per-SM L1 TLBs and the shared L2 TLB
/// complex of `cfg`, with walks completing at once (frame = page number).
/// Returns host nanoseconds per page access.
pub fn tlb_replay(cfg: &GpuConfig, stream: &PageStream) -> f64 {
    let asid = Asid::ZERO;
    let in_tlb_max = if cfg.mode.in_tlb_enabled() || cfg.force_in_tlb {
        cfg.in_tlb_max
    } else {
        0
    };
    let mut l1: Vec<Tlb> = (0..cfg.sms).map(|_| Tlb::new(cfg.l1_tlb.clone())).collect();
    let mut l2: L2TlbComplex<()> = L2TlbComplex::new(cfg.l2_tlb.clone(), cfg.l2_mshr, in_tlb_max);
    let t0 = Instant::now();
    for &(sm, vpn) in &stream.accesses {
        let l1 = &mut l1[sm.index()];
        if l1.lookup(asid, vpn).is_some() {
            continue;
        }
        let pfn = match l2.access(asid, vpn, ()) {
            L2MissOutcome::Hit(pfn) => pfn,
            L2MissOutcome::MissNewWalk => {
                let pfn = Pfn::new(vpn.value());
                l2.complete_walk(asid, vpn, pfn);
                pfn
            }
            L2MissOutcome::MissMerged | L2MissOutcome::MshrFailure => {
                unreachable!("walks complete at once, so nothing is ever in flight")
            }
        };
        l1.fill(asid, vpn, pfn);
    }
    std::hint::black_box(&l2);
    t0.elapsed().as_nanos() as f64 / stream.accesses.len().max(1) as f64
}

/// An address space with `footprint` bytes mapped from address 0, as the
/// simulator's prebuilt image maps it.
pub fn mapped_space(cfg: &GpuConfig, footprint: u64) -> (AddressSpace, PhysMem) {
    let mut phys = PhysMem::new();
    let mut space = if cfg.scrambled_frames {
        AddressSpace::new_scrambled(cfg.page_size, &mut phys)
    } else {
        AddressSpace::new(cfg.page_size, &mut phys)
    };
    space.map_region(VirtAddr::new(0), footprint, &mut phys);
    (space, phys)
}

/// Translates every page access through the radix table. Returns host
/// nanoseconds per translation and the number that failed to translate.
pub fn translate_replay(space: &AddressSpace, phys: &PhysMem, stream: &PageStream) -> (f64, u64) {
    let page = space.page_size();
    let mut unmapped = 0u64;
    let t0 = Instant::now();
    for &(_, vpn) in &stream.accesses {
        unmapped +=
            u64::from(std::hint::black_box(space.translate(page.base_of_vpn(vpn), phys)).is_none());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (ns / stream.accesses.len().max(1) as f64, unmapped)
}

/// Replays `calls` Request Distributor selections with the configured
/// policy, keeping half the PW-Warp slots busy (each selection beyond
/// that first retires the oldest dispatch). Returns host nanoseconds per
/// `select_core` call.
pub fn select_replay(cfg: &GpuConfig, calls: u64) -> f64 {
    let cores = cfg.sms.max(1);
    let capacity = u32::try_from(cfg.pw_warp.softpwb_entries).expect("SoftPWB size fits u32");
    let mut d = RequestDistributor::new(cfg.distributor_policy, cores, capacity);
    let stalled = vec![false; cores];
    let busy = (cores * capacity as usize / 2).max(1);
    let mut in_flight: VecDeque<SmId> = VecDeque::with_capacity(busy + 1);
    let t0 = Instant::now();
    for _ in 0..calls {
        if in_flight.len() >= busy {
            d.on_fill(in_flight.pop_front().expect("non-empty"));
        }
        let sm = d
            .select_core(&stalled)
            .expect("half the slots are always free");
        in_flight.push_back(sm);
    }
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}
