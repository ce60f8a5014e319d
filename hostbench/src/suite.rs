//! `suite-quick`: the cell matrices of fig16 and then fig18 at quick
//! scale, resolved through the experiment runner with two workers on a
//! fresh cache directory, fig18 with a new runner — the time it takes to
//! regenerate those two figures.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use swgpu_bench::{geomean, Cell, CellError, Runner, RunnerCounters, Scale, SystemConfig};
use swgpu_obs::json::{parse, Value};
use swgpu_sim::{GpuConfig, GpuSimulator, ObsConfig, PrebuiltMemory, SimStats};
use swgpu_workloads::{by_abbr, irregular, table4, WorkloadParams};

use crate::checks::{self, Walkers};
use crate::direct::{
    agreement, counts, expect, finish_trace, round_trip_op, walkers, DirectCell, Pages,
};
use crate::metrics::{median, ratio, repeat_setup, Outcome};
use crate::spans::Tracer;
use crate::{os, out_dir, Args, SplitMix};

/// Runner workers: two, whatever the host has, so the work is the same
/// everywhere.
const JOBS: usize = 2;

/// The benchmarks of fig18's tail-latency table (obs-armed cells).
const TAIL_BENCHES: [&str; 4] = ["gups", "xsb", "bfs", "spmv"];

fn quick(spec: &swgpu_workloads::BenchmarkSpec, sys: SystemConfig) -> Cell {
    Cell::bench(spec, sys.build(Scale::Quick))
}

/// fig16's matrix: every Table 4 benchmark under the baseline and six
/// systems.
fn fig16_cells() -> Vec<Cell> {
    let systems = [
        SystemConfig::Baseline,
        SystemConfig::Nha,
        SystemConfig::FsHpt,
        SystemConfig::SwNoInTlb,
        SystemConfig::SoftWalker,
        SystemConfig::Hybrid,
        SystemConfig::Ideal,
    ];
    table4()
        .iter()
        .flat_map(|spec| systems.map(|sys| quick(spec, sys)))
        .collect()
}

/// fig18's matrix: every Table 4 benchmark under the baseline and three
/// systems, then the obs-armed tail-latency cells.
fn fig18_cells() -> Vec<Cell> {
    let systems = [
        SystemConfig::Baseline,
        SystemConfig::Nha,
        SystemConfig::FsHpt,
        SystemConfig::SoftWalker,
    ];
    let mut cells: Vec<Cell> = table4()
        .iter()
        .flat_map(|spec| systems.map(|sys| quick(spec, sys)))
        .collect();
    for abbr in TAIL_BENCHES {
        let spec = by_abbr(abbr).expect("fig18 tail benchmark");
        for sys in [SystemConfig::Baseline, SystemConfig::SoftWalker] {
            let cfg = GpuConfig {
                obs: ObsConfig::enabled(),
                ..sys.build(Scale::Quick)
            };
            cells.push(Cell::bench(&spec, cfg));
        }
    }
    cells
}

fn abbr_of(cell: &Cell) -> &str {
    match &cell.workload {
        swgpu_bench::CellWorkload::Bench { abbr, .. } => abbr,
        other => unreachable!("suite cells are Table 4 benchmarks, not {other:?}"),
    }
}

fn params(cfg: &GpuConfig) -> WorkloadParams {
    WorkloadParams {
        sms: Scale::Quick.sms(),
        warps_per_sm: Scale::Quick.warps(),
        mem_instrs_per_warp: Scale::Quick.mem_instrs(),
        footprint_percent: 100,
        page_size: cfg.page_size,
    }
}

/// What one runner's `manifest.json` says about its batches.
#[derive(Debug, Default, Clone, Copy)]
struct Manifest {
    wall_ms: u64,
    busy_ms: u64,
    jobs: u64,
    simulated_ms: u64,
}

fn read_manifest(dir: &Path) -> Result<Manifest, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("manifest.json lacks {k}"))
    };
    let cells = doc
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("manifest.json lacks cells")?;
    let simulated_ms = cells
        .iter()
        .filter(|c| c.get("outcome").and_then(Value::as_str) == Some("sim"))
        .filter_map(|c| c.get("wall_ms").and_then(Value::as_u64))
        .sum();
    Ok(Manifest {
        wall_ms: num("wall_ms")?,
        busy_ms: num("busy_ms")?,
        jobs: num("jobs")?,
        simulated_ms,
    })
}

/// One figure resolved by one runner.
struct Figure {
    results: Vec<Result<SimStats, CellError>>,
    counters: RunnerCounters,
    manifest: Manifest,
    wall_s: f64,
    cpu_s: f64,
}

fn resolve(name: &str, cells: &[Cell], dir: &Path, tr: &mut Tracer) -> Figure {
    let c0 = os::process_cpu_s();
    let t0 = Instant::now();
    let runner = Runner::new(JOBS, Some(dir.to_path_buf()), false);
    let results = tr.span("bench.run_cells_checked", name, |_| {
        runner.run_cells_checked(cells)
    });
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), os::process_cpu_s() - c0);
    Figure {
        results,
        counters: runner.counters(),
        manifest: read_manifest(dir).unwrap_or_else(|e| {
            eprintln!("hostbench: {e}");
            Manifest::default()
        }),
        wall_s,
        cpu_s,
    }
}

/// One round: fig16 then fig18 on a fresh cache directory.
struct Round {
    dir: PathBuf,
    fig16: Figure,
    fig18: Figure,
}

impl Round {
    fn wall_s(&self) -> f64 {
        self.fig16.wall_s + self.fig18.wall_s
    }

    /// The stats of every cell this round simulated, by key.
    fn simulated(&self, c16: &[Cell], c18: &[Cell]) -> BTreeMap<String, &SimStats> {
        let keys16: HashSet<String> = c16.iter().map(Cell::key).collect();
        let mut out = BTreeMap::new();
        for (c, r) in c16.iter().zip(&self.fig16.results) {
            if let Ok(s) = r {
                out.insert(c.key(), s);
            }
        }
        for (c, r) in c18.iter().zip(&self.fig18.results) {
            if let (false, Ok(s)) = (keys16.contains(&c.key()), r) {
                out.insert(c.key(), s);
            }
        }
        out
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("suite-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("remove stale cache directory");
    }
    dir
}

fn round(c16: &[Cell], c18: &[Cell], tag: &str, tr: &mut Tracer) -> Round {
    let dir = fresh_dir(tag);
    let fig16 = resolve("fig16", c16, &dir, tr);
    let fig18 = resolve("fig18", c18, &dir, tr);
    Round { dir, fig16, fig18 }
}

/// Checks one round's outputs and counts its operations.
fn check(
    round: &Round,
    c16: &[Cell],
    c18: &[Cell],
    pages: &mut Pages,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    for (cells, fig) in [(c16, &round.fig16), (c18, &round.fig18)] {
        for (cell, r) in cells.iter().zip(&fig.results) {
            out.attempted += 1;
            let key = cell.key();
            let Ok(s) = r else {
                out.failed += 1;
                continue;
            };
            let spec = by_abbr(abbr_of(cell)).expect("Table 4 benchmark");
            let p = params(&cell.cfg);
            let want = expect(p, &cell.cfg, pages.of(&spec, p));
            let errs = tr.span("hostbench.check", &key, |_| checks::cell(&key, s, &want));
            out.errors.extend(errs);
        }
    }
    let trips: Vec<Result<(), String>> = tr.span("sim.stats_json", "round", |_| {
        round
            .fig16
            .results
            .iter()
            .chain(&round.fig18.results)
            .filter_map(|r| r.as_ref().ok())
            .map(checks::json_round_trip)
            .collect()
    });
    round_trip_op(&trips, out);

    let by_key: HashMap<String, &SimStats> = c16
        .iter()
        .zip(&round.fig16.results)
        .filter_map(|(c, r)| r.as_ref().ok().map(|s| (c.key(), s)))
        .collect();
    let speedups = |sys: SystemConfig| -> f64 {
        let xs: Vec<f64> = irregular()
            .iter()
            .filter_map(|spec| {
                let base = by_key.get(&quick(spec, SystemConfig::Baseline).key())?;
                let s = by_key.get(&quick(spec, sys).key())?;
                Some(s.speedup_over(base))
            })
            .collect();
        geomean(&xs)
    };
    let (sw, no_in_tlb) = (
        speedups(SystemConfig::SoftWalker),
        speedups(SystemConfig::SwNoInTlb),
    );
    eprintln!(
        "hostbench: fig16 irregular geomean SoftWalker {sw:.3}x, SW w/o In-TLB {no_in_tlb:.3}x"
    );
    out.errors
        .extend(checks::speedup_order(sw, no_in_tlb).err());

    // fig18 cells fig16 already wrote are served from disk and equal what
    // fig16 simulated in this process.
    let mut shared = 0;
    for (cell, r) in c18.iter().zip(&round.fig18.results) {
        if let (Some(a), Ok(b)) = (by_key.get(&cell.key()), r) {
            shared += 1;
            let what = format!("{}: fig18 disk hit vs fig16", cell.key());
            out.errors.extend(checks::same_json(a, b, &what).err());
        }
    }
    let c = round.fig18.counters;
    if c.disk_hits != shared || c.simulated != c18.len() as u64 - shared {
        out.errors.push(format!(
            "fig18 resolved {} from disk and simulated {}; expected {shared} and {}",
            c.disk_hits,
            c.simulated,
            c18.len() as u64 - shared
        ));
    }
}

/// Repeated builds of every cell the runner simulates, the way the
/// runner builds them: one page-table image per footprint, cloned per
/// cell. Returns each repetition's total.
fn setup_reps(cells: &[&Cell], tr: &mut Tracer) -> Vec<f64> {
    repeat_setup(0.5, || {
        let mut store: HashMap<(u64, bool, u64), PrebuiltMemory> = HashMap::new();
        let t0 = Instant::now();
        for cell in cells {
            let key = cell.key();
            let spec = by_abbr(abbr_of(cell)).expect("Table 4 benchmark");
            let cfg = cell.cfg.clone();
            let wl = tr.span("workloads.build", &key, |_| spec.build(params(&cfg)));
            let image = tr.span("pt.prebuild", &key, |_| {
                store
                    .entry((
                        cfg.page_size.bytes(),
                        cfg.scrambled_frames,
                        wl.footprint_bytes(),
                    ))
                    .or_insert_with(|| {
                        PrebuiltMemory::build(
                            cfg.page_size,
                            cfg.scrambled_frames,
                            wl.footprint_bytes(),
                        )
                    })
                    .clone()
            });
            let sim = tr.span("sim.assemble", &key, |_| {
                GpuSimulator::new_with_prebuilt(cfg, Box::new(wl), image)
            });
            drop(sim);
        }
        t0.elapsed().as_secs_f64()
    })
}

fn remove(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("hostbench: cannot remove {}: {e}", dir.display());
    }
}

/// Runs `suite-quick` and returns its outcome.
pub fn run(args: &Args) -> Outcome {
    let mut rng = SplitMix::new(args.seed);
    let mut c16 = fig16_cells();
    let mut c18 = fig18_cells();
    rng.shuffle(&mut c16);
    rng.shuffle(&mut c18);
    let mut pages = Pages::default();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);

    let mut unique: Vec<&Cell> = Vec::new();
    let mut seen = HashSet::new();
    for c in c16.iter().chain(&c18) {
        if seen.insert(c.key()) {
            unique.push(c);
        }
    }
    let setup = setup_reps(&unique, &mut tr);
    let first = DirectCell {
        spec: by_abbr("bc").expect("Table 4 benchmark"),
        sys: SystemConfig::Baseline,
        scale: Scale::Quick,
        budget: 0,
    };
    agreement(first, &mut out);

    if args.trace {
        traced(args, &c16, &c18, setup.len(), &mut pages, &mut tr, &mut out);
        return out;
    }
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let r = round(&c16, &c18, &rounds.len().to_string(), &mut tr);
        check(&r, &c16, &c18, &mut pages, &mut tr, &mut out);
        let simulated = r.simulated(&c16, &c18);
        let cycles: u64 = simulated.values().map(|s| s.cycles).sum();
        let sim_ms = r.fig16.manifest.simulated_ms + r.fig18.manifest.simulated_ms;
        rounds.push((
            r.wall_s(),
            r.fig16.cpu_s + r.fig18.cpu_s,
            ratio(cycles as f64 / 1e6, sim_ms as f64 / 1e3),
        ));
        remove(&r.dir);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds.len() as f64 / 2.0 >= args.seconds {
            break;
        }
    }
    let v = &mut out.values;
    v.insert("peak_rss_mb", os::peak_rss_mb());
    v.insert("setup_s", median(&setup));
    v.insert(
        "wall_s",
        median(&rounds.iter().map(|r| r.0).collect::<Vec<_>>()),
    );
    v.insert(
        "cpu_s",
        median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    v.insert(
        "sim_mcycles_per_s",
        median(&rounds.iter().map(|r| r.2).collect::<Vec<_>>()),
    );
    out
}

/// The traced run: an untraced round, a traced round, the warm-cache
/// re-resolution, the obs comparison, and the per-layer report.
fn traced(
    args: &Args,
    c16: &[Cell],
    c18: &[Cell],
    setup_reps: usize,
    pages: &mut Pages,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let per_rep = |name| tr.total_s(name) / setup_reps as f64;
    let (prebuild_s, assemble_s) = (per_rep("pt.prebuild"), per_rep("sim.assemble"));
    out.values.insert("pt.prebuild_s", prebuild_s);
    out.values.insert("sim.assemble_s", assemble_s);

    tr.set_enabled(false);
    let untraced = round(c16, c18, "untraced", tr);
    check(&untraced, c16, c18, pages, tr, out);
    tr.set_enabled(true);
    let traced = round(c16, c18, "traced", tr);
    check(&traced, c16, c18, pages, tr, out);
    // Only the traced round records spans of the stats round trip.
    let json_s = tr.total_s("sim.stats_json");

    let before = untraced.simulated(c16, c18);
    let after = traced.simulated(c16, c18);
    for (key, s) in &after {
        match before.get(key) {
            Some(b) => out
                .errors
                .extend(checks::same_stats(b, s, &format!("{key}: traced vs untraced")).err()),
            None => out
                .errors
                .push(format!("{key}: simulated only in the traced round")),
        }
    }
    remove(&untraced.dir);

    // Both figures again from the warm cache by a fresh runner.
    let warm_t0 = Instant::now();
    let warm = Runner::new(JOBS, Some(traced.dir.clone()), false);
    let warm_results = tr.span("bench.warm_resolve", "fig16+fig18", |_| {
        let mut r = warm.run_cells_checked(c16);
        r.extend(warm.run_cells_checked(c18));
        r
    });
    let warm_s = warm_t0.elapsed().as_secs_f64();
    if warm.counters().simulated != 0 {
        out.errors.push(format!(
            "warm re-resolution simulated {} cells",
            warm.counters().simulated
        ));
    }
    for (cell, r) in c16.iter().chain(c18).zip(&warm_results) {
        match (after.get(&cell.key()), r) {
            (Some(a), Ok(b)) => out
                .errors
                .extend(checks::same_json(a, b, &format!("{}: warm vs cold", cell.key())).err()),
            (_, Err(e)) => out.errors.push(format!("warm re-resolution failed: {e}")),
            (None, Ok(_)) => {}
        }
    }
    let artifact_bytes = artifact_bytes(&traced.dir);
    remove(&traced.dir);

    let (armed_s, unarmed_s) = obs_ratio(tr, out);
    let swtb_bytes: u64 = c18
        .iter()
        .zip(&traced.fig18.results)
        .filter_map(|(c, r)| Some((c, r.as_ref().ok()?.obs.as_deref()?)))
        .map(|(c, report)| {
            tr.span("obs.swtb", &c.key(), |_| {
                let mut buf = Vec::new();
                swgpu_obs::write_report(&mut buf, &c.cfg.fingerprint(), report)
                    .expect("SWTB encoding into memory");
                buf.len() as u64
            })
        })
        .sum();

    let stats: Vec<&SimStats> = after.values().copied().collect();
    let hw: Vec<&SimStats> = after
        .iter()
        .filter(|(k, _)| {
            c16.iter()
                .chain(c18)
                .any(|c| &c.key() == *k && walkers(c.cfg.mode) == Walkers::Hardware)
        })
        .map(|(_, s)| *s)
        .collect();
    let (m16, m18) = (traced.fig16.manifest, traced.fig18.manifest);
    let (k16, k18) = (traced.fig16.counters, traced.fig18.counters);
    let run_s = (m16.simulated_ms + m18.simulated_ms) as f64 / 1e3;
    let steps: u64 = stats.iter().map(|s| s.kernel_steps).sum();
    let busy_s = (m16.busy_ms + m18.busy_ms) as f64 / 1e3;
    let capacity_s = (m16.jobs * m16.wall_ms + m18.jobs * m18.wall_ms) as f64 / 1e3;

    let v = &mut out.values;
    v.extend(counts(&stats, &hw));
    v.insert("sim.run_s", run_s);
    v.insert("sim.ns_per_step", ratio(run_s * 1e9, steps as f64));
    v.insert("sim.stats_json_s", json_s);
    v.insert("obs.armed_run_s", armed_s);
    v.insert("obs.unarmed_run_s", unarmed_s);
    v.insert("obs.armed_run_ratio", ratio(armed_s, unarmed_s));
    v.insert("obs.swtb_bytes", swtb_bytes as f64);
    v.insert(
        "bench.cells_simulated",
        (k16.simulated + k18.simulated) as f64,
    );
    v.insert("bench.disk_hits", (k16.disk_hits + k18.disk_hits) as f64);
    v.insert(
        "bench.prebuilds_built",
        (k16.pt_prebuilds + k18.pt_prebuilds) as f64,
    );
    v.insert(
        "bench.prebuilds_reused",
        (k16.pt_prebuild_hits + k18.pt_prebuild_hits) as f64,
    );
    v.insert("bench.pool_busy_s", busy_s);
    v.insert("bench.pool_capacity_s", capacity_s);
    v.insert("bench.pool_utilization", ratio(busy_s, capacity_s));
    v.insert("bench.artifact_bytes", artifact_bytes as f64);
    v.insert("bench.warm_resolve_s", warm_s);
    v.insert("trace.untraced_wall_s", untraced.wall_s());
    v.insert("trace.traced_wall_s", traced.wall_s());
    v.insert(
        "trace.overhead_ratio",
        ratio(traced.wall_s(), untraced.wall_s()),
    );
    finish_trace(&args.workload, tr, v);
}

/// Bytes of run artifacts (every `*.json` but the manifest) in `dir`.
fn artifact_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.ends_with(".json") && name != "manifest.json"
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One fig18 tail cell simulated with and without obs armed; the stats
/// must agree. Returns the armed and unarmed host times.
fn obs_ratio(tr: &mut Tracer, out: &mut Outcome) -> (f64, f64) {
    let spec = by_abbr(TAIL_BENCHES[0]).expect("fig18 tail benchmark");
    let plain = quick(&spec, SystemConfig::SoftWalker);
    let armed = Cell::bench(
        &spec,
        GpuConfig {
            obs: ObsConfig::enabled(),
            ..plain.cfg.clone()
        },
    );
    let mut timed = |name, cell: &Cell| {
        let sim = cell.build_simulator();
        let t0 = Instant::now();
        let s = tr.span(name, &cell.key(), |_| sim.run());
        (s, t0.elapsed().as_secs_f64())
    };
    let (s_plain, unarmed_s) = timed("sim.run", &plain);
    let (s_armed, armed_s) = timed("obs.armed_run", &armed);
    out.errors
        .extend(checks::same_stats(&s_plain, &s_armed, "obs armed vs unarmed").err());
    (armed_s, unarmed_s)
}
