//! Output checks: properties every run of the method must have, and
//! quantities the benchmark computes on its own from the generators.
//!
//! Each check returns `Err` with a one-line reason naming the cell; the
//! workloads collect the reasons and report the run as incorrect if any
//! appear. Nothing here compares against a stored copy of an earlier
//! run's output.

use swgpu_sim::SimStats;

/// Which walker kind a configuration may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walkers {
    /// Only the hardware PTW pool walks (`sw_walks == 0`).
    Hardware,
    /// Only PW Warps walk (`hw_walks == 0`).
    Software,
    /// Both may walk (the hybrid design).
    Either,
}

/// What the benchmark knows about a cell before simulating it.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// `sms × warps × memory instructions per warp`.
    pub loads: u64,
    /// Distinct pages the generator's `lane_addrs` touch.
    pub distinct_pages: u64,
    /// The configured walker kind.
    pub walkers: Walkers,
}

type Check = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The kernel drained before the cycle cap.
pub fn drained(s: &SimStats) -> Check {
    ensure(!s.timed_out, || "timed out before draining".into())
}

/// Executed and skipped cycles tile the run: `steps + skipped == cycles + 1`.
pub fn kernel_tiling(s: &SimStats) -> Check {
    ensure(
        s.kernel_steps + s.kernel_cycles_skipped == s.cycles + 1,
        || {
            format!(
                "kernel_steps {} + skipped {} != cycles {} + 1",
                s.kernel_steps, s.kernel_cycles_skipped, s.cycles
            )
        },
    )
}

/// Every load the generator emits was issued.
pub fn loads(s: &SimStats, expected: u64) -> Check {
    ensure(s.loads == expected, || {
        format!("loads {} != sms*warps*mem_instrs {expected}", s.loads)
    })
}

/// TLBs start cold and prefetch is off, so every distinct page is walked
/// at least once.
pub fn walks_cover_pages(s: &SimStats, distinct_pages: u64) -> Check {
    let walks = s.hw_walks + s.sw_walks;
    ensure(walks >= distinct_pages, || {
        format!("walks {walks} < distinct pages {distinct_pages}")
    })
}

/// Only the configured walker kind walks.
pub fn walker_kind(s: &SimStats, walkers: Walkers) -> Check {
    match walkers {
        Walkers::Hardware => ensure(s.sw_walks == 0, || {
            format!("hardware-walker config made {} PW-Warp walks", s.sw_walks)
        }),
        Walkers::Software => ensure(s.hw_walks == 0, || {
            format!("software-walker config made {} PTW walks", s.hw_walks)
        }),
        Walkers::Either => Ok(()),
    }
}

/// `s` without the walk trace and the obs report, which the run
/// artifacts carry beside the stats.
fn without_payloads(s: &SimStats) -> SimStats {
    SimStats {
        walk_trace: Default::default(),
        obs: None,
        ..s.clone()
    }
}

/// `s` with the fields the stats JSON does not carry set to their
/// defaults, as `SimStats::from_json` documents: the walk trace, the obs
/// report, the PW-Warp, Request Distributor and L2 MSHR sub-statistics,
/// the SMs' own instruction and load counts, and the TLBs' dead-fill and
/// prefetch counters.
fn serialized_part(s: &SimStats) -> SimStats {
    let mut plain = SimStats {
        pw_warp: Default::default(),
        distributor: Default::default(),
        l2_mshr: Default::default(),
        ..without_payloads(s)
    };
    plain.sm.instructions = 0;
    plain.sm.loads = 0;
    for tlb in [&mut plain.l1_tlb, &mut plain.l2_tlb] {
        tlb.dead_fills = 0;
        tlb.prefetch_hits = 0;
        tlb.prefetch_evictions = 0;
    }
    plain
}

/// The first `Debug` field on which `a` and `b` differ, as "`a's` vs `b's`".
fn debug_diff(a: &SimStats, b: &SimStats) -> Option<String> {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    if a == b {
        return None;
    }
    Some(
        match a.split(", ").zip(b.split(", ")).find(|(x, y)| x != y) {
            Some((x, y)) => format!("`{x}` vs `{y}`"),
            None => "field lists differ".into(),
        },
    )
}

/// `s` survives `to_json`/`from_json` as the stats JSON promises.
pub fn json_round_trip(s: &SimStats) -> Check {
    json_holds(s, &s.to_json())
}

/// `json`, the stats JSON of `s`, keeps `SimStats::from_json`'s contract:
/// it parses back to stats that serialize to the same text, and every
/// field it carries comes back equal to its source.
fn json_holds(s: &SimStats, json: &str) -> Check {
    let back = SimStats::from_json(json).map_err(|e| format!("from_json failed: {e}"))?;
    ensure(back.to_json() == json, || {
        "from_json(to_json(s)).to_json() != to_json(s)".into()
    })?;
    match debug_diff(&serialized_part(s), &back) {
        None => Ok(()),
        Some(d) => Err(format!(
            "stats changed through to_json/from_json (source vs parsed): {d}"
        )),
    }
}

/// Two runs of one cell, both held in memory, produced identical stats:
/// every field but the walk trace and the obs report.
pub fn same_stats(a: &SimStats, b: &SimStats, what: &str) -> Check {
    match debug_diff(&without_payloads(a), &without_payloads(b)) {
        None => Ok(()),
        Some(d) => Err(format!("{what}: stats differ, {d}")),
    }
}

/// Two runs of one cell, at least one read back from a run artifact,
/// produced identical stats JSON.
pub fn same_json(a: &SimStats, b: &SimStats, what: &str) -> Check {
    ensure(a.to_json() == b.to_json(), || {
        format!("{what}: stats JSON differs")
    })
}

/// Demand-paging ledgers under a resident-page budget that the workload
/// exceeds: every fault is replayed, the budget fills exactly, and each
/// fault beyond the budget evicts one page.
pub fn paging_ledger(s: &SimStats, budget: u64) -> Check {
    let mm = &s.mm;
    ensure(mm.major_faults == mm.major_replays, || {
        format!(
            "major_faults {} != major_replays {}",
            mm.major_faults, mm.major_replays
        )
    })?;
    ensure(mm.resident_peak == budget, || {
        format!("resident_peak {} != budget {budget}", mm.resident_peak)
    })?;
    ensure(mm.evictions + budget == mm.major_faults, || {
        format!(
            "evictions {} != major_faults {} - budget {budget}",
            mm.evictions, mm.major_faults
        )
    })
}

/// SoftWalker finishes an irregular benchmark in fewer simulated cycles
/// than the 32-PTW baseline.
pub fn software_walker_faster(sw_cycles: u64, base_cycles: u64) -> Check {
    ensure(sw_cycles < base_cycles, || {
        format!("SoftWalker {sw_cycles} cycles not below Baseline {base_cycles}")
    })
}

/// Irregular geomean speedups are ordered SoftWalker > SW w/o In-TLB > 1.
pub fn speedup_order(softwalker: f64, sw_no_in_tlb: f64) -> Check {
    ensure(softwalker > sw_no_in_tlb && sw_no_in_tlb > 1.0, || {
        format!(
            "irregular geomean SoftWalker {softwalker:.3}x, SW w/o In-TLB {sw_no_in_tlb:.3}x: \
             not ordered SoftWalker > SW w/o In-TLB > 1"
        )
    })
}

/// Every per-cell property for a cell the benchmark simulated or
/// resolved, prefixed with the cell's key.
pub fn cell(key: &str, s: &SimStats, e: &Expect) -> Vec<String> {
    [
        drained(s),
        kernel_tiling(s),
        loads(s, e.loads),
        walks_cover_pages(s, e.distinct_pages),
        walker_kind(s, e.walkers),
    ]
    .into_iter()
    .filter_map(Result::err)
    .map(|why| format!("{key}: {why}"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats object every property holds for.
    fn good() -> SimStats {
        let mut s = SimStats {
            cycles: 99,
            kernel_steps: 60,
            kernel_cycles_skipped: 40,
            loads: 12,
            hw_walks: 5,
            ..SimStats::default()
        };
        s.mm.major_faults = 30;
        s.mm.major_replays = 30;
        s.mm.resident_peak = 8;
        s.mm.evictions = 22;
        s
    }

    fn expect() -> Expect {
        Expect {
            loads: 12,
            distinct_pages: 5,
            walkers: Walkers::Hardware,
        }
    }

    #[test]
    fn good_stats_pass_every_check() {
        let s = good();
        assert!(cell("k", &s, &expect()).is_empty());
        paging_ledger(&s, 8).unwrap();
        same_stats(&s, &good(), "repeat").unwrap();
    }

    #[test]
    fn timed_out_run_fails_drained() {
        let s = SimStats {
            timed_out: true,
            ..good()
        };
        assert!(drained(&s).is_err());
        assert_eq!(cell("k", &s, &expect()).len(), 1);
    }

    #[test]
    fn broken_tiling_fails() {
        let s = SimStats {
            kernel_cycles_skipped: 41,
            ..good()
        };
        assert!(kernel_tiling(&s).is_err());
    }

    #[test]
    fn missing_load_fails() {
        assert!(loads(&good(), 13).is_err());
    }

    #[test]
    fn fewer_walks_than_pages_fails() {
        assert!(walks_cover_pages(&good(), 6).is_err());
    }

    #[test]
    fn wrong_walker_kind_fails() {
        let s = good();
        assert!(walker_kind(&s, Walkers::Software).is_err());
        let s = SimStats { sw_walks: 1, ..s };
        assert!(walker_kind(&s, Walkers::Hardware).is_err());
        walker_kind(&s, Walkers::Either).unwrap();
    }

    /// Counters the stats JSON does not carry come back as defaults, as
    /// documented; a carried counter that comes back changed fails.
    #[test]
    fn json_contract() {
        json_round_trip(&good()).unwrap();
        let mut s = good();
        s.distributor.dispatched = 3;
        s.pw_warp.ldpt_reads = 4;
        json_round_trip(&s).unwrap();
        let json = s.to_json();
        let dropped = json.replace("\"cycles\":99,", "");
        assert_ne!(dropped, json, "the stats JSON carries cycles");
        assert!(json_holds(&s, &dropped).is_err());
        let changed = json.replace("\"cycles\":99,", "\"cycles\":98,");
        assert!(json_holds(&s, &changed).is_err());
    }

    #[test]
    fn differing_stats_fail_same_stats() {
        let s = SimStats {
            cycles: 100,
            ..good()
        };
        assert!(same_stats(&good(), &s, "dense vs event").is_err());
        assert!(same_json(&good(), &s, "disk hit").is_err());
        same_json(&good(), &good(), "disk hit").unwrap();
    }

    /// `same_stats` sees the counters the stats JSON leaves out.
    #[test]
    fn unserialized_difference_fails_same_stats() {
        let mut s = good();
        s.pw_warp.ldpt_reads = 1;
        assert!(same_stats(&good(), &s, "traced vs untraced").is_err());
        let mut s = good();
        s.sm.instructions = 1;
        assert!(same_stats(&good(), &s, "traced vs untraced").is_err());
        same_json(&good(), &s, "disk hit").unwrap();
    }

    #[test]
    fn paging_ledger_catches_each_broken_term() {
        let mut s = good();
        s.mm.major_replays = 29;
        assert!(paging_ledger(&s, 8).is_err());
        let mut s = good();
        s.mm.resident_peak = 7;
        assert!(paging_ledger(&s, 8).is_err());
        let mut s = good();
        s.mm.evictions = 21;
        assert!(paging_ledger(&s, 8).is_err());
    }

    #[test]
    fn slower_software_walker_fails() {
        software_walker_faster(98, 99).unwrap();
        assert!(software_walker_faster(99, 99).is_err());
    }

    #[test]
    fn misordered_speedups_fail() {
        speedup_order(4.0, 1.5).unwrap();
        assert!(speedup_order(1.4, 1.5).is_err());
        assert!(speedup_order(1.2, 0.9).is_err());
    }
}
