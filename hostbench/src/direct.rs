//! The workloads whose cells the benchmark simulates itself, one at a
//! time on one thread: `irregular-full`, `regular-full` and
//! `paged-oversub`. Untraced runs simulate each cell in a child process
//! of its own; traced runs keep every cell in this process.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use swgpu_bench::{Cell, Scale, SystemConfig};
use swgpu_obs::json::{parse, Value};
use swgpu_sim::{GpuConfig, GpuSimulator, PrebuiltMemory, SimStats, TranslationMode};
use swgpu_types::MmConfig;
use swgpu_workloads::{by_abbr, regular, BenchmarkSpec, WorkloadClass, WorkloadParams};

use crate::checks::{self, Expect, Walkers};
use crate::metrics::{median, ratio, repeat_setup, Outcome, Values};
use crate::replay;
use crate::spans::Tracer;
use crate::{os, out_dir, Args, SplitMix};

/// Resident-page budget of `paged-oversub` on bc, which touches 19,104
/// pages at full scale.
const PAGED_BUDGET: u64 = 8_000;

/// One cell the benchmark simulates directly.
#[derive(Debug, Clone, Copy)]
pub struct DirectCell {
    /// The Table 4 benchmark.
    pub spec: BenchmarkSpec,
    /// The system simulated.
    pub sys: SystemConfig,
    /// Machine size.
    pub scale: Scale,
    /// Demand-paged resident-page budget; 0 means a prebuilt page table.
    pub budget: u64,
}

impl DirectCell {
    /// The simulator configuration.
    pub fn cfg(&self) -> GpuConfig {
        let mut cfg = self.sys.build(self.scale);
        if self.budget > 0 {
            cfg.mm = MmConfig {
                resident_page_budget: self.budget,
                ..MmConfig::demand_paged()
            };
        }
        cfg
    }

    /// Generator sizing, as the experiment runner sizes it.
    pub fn params(&self) -> WorkloadParams {
        WorkloadParams {
            sms: self.scale.sms(),
            warps_per_sm: self.scale.warps(),
            mem_instrs_per_warp: self.scale.mem_instrs(),
            footprint_percent: 100,
            page_size: self.cfg().page_size,
        }
    }

    /// The experiment runner's cache key for this cell.
    pub fn key(&self) -> String {
        Cell::bench(&self.spec, self.cfg()).key()
    }

    /// What the benchmark expects of the cell's stats, given the distinct
    /// pages it touches.
    pub fn expect(&self, distinct_pages: u64) -> Expect {
        expect(self.params(), &self.cfg(), distinct_pages)
    }
}

/// What the benchmark expects of the stats of a cell with generator
/// sizing `p` and configuration `cfg` that touches `distinct_pages` pages.
pub fn expect(p: WorkloadParams, cfg: &GpuConfig, distinct_pages: u64) -> Expect {
    Expect {
        loads: (p.sms * p.warps_per_sm) as u64 * u64::from(p.mem_instrs_per_warp),
        // NHA coalesces the walks of neighbouring pages, so one walk can
        // serve several pages: no lower bound there.
        distinct_pages: if cfg.ptw.nha { 0 } else { distinct_pages },
        walkers: walkers(cfg.mode),
    }
}

/// The walker kind a translation mode may use.
pub fn walkers(mode: TranslationMode) -> Walkers {
    match (mode.uses_hardware_walkers(), mode.uses_software_walkers()) {
        (true, false) => Walkers::Hardware,
        (false, true) => Walkers::Software,
        _ => Walkers::Either,
    }
}

fn spec(abbr: &str) -> BenchmarkSpec {
    by_abbr(abbr).unwrap_or_else(|| panic!("unknown benchmark {abbr}"))
}

/// Budget for a held-out demand-paged cell: 40% of the pages it touches.
fn heldout_budget(distinct_pages: u64) -> u64 {
    distinct_pages * 2 / 5
}

/// The workload's cells, in declaration order.
fn workload_cells(args: &Args, pages: &mut Pages) -> Vec<DirectCell> {
    let both = [SystemConfig::Baseline, SystemConfig::SoftWalker];
    let cross = |specs: Vec<BenchmarkSpec>| -> Vec<DirectCell> {
        specs
            .into_iter()
            .flat_map(|spec| {
                both.map(|sys| DirectCell {
                    spec,
                    sys,
                    scale: Scale::Full,
                    budget: 0,
                })
            })
            .collect()
    };
    match args.workload.as_str() {
        "irregular-full" if args.heldout => cross(vec![spec("sssp"), spec("xsb")]),
        "irregular-full" => cross(vec![spec("bc"), spec("gups")]),
        "regular-full" => cross(regular()),
        "paged-oversub" => {
            let mut cell = DirectCell {
                spec: spec(if args.heldout { "sssp" } else { "bc" }),
                sys: SystemConfig::SoftWalker,
                scale: Scale::Full,
                budget: PAGED_BUDGET,
            };
            if args.heldout {
                cell.budget = heldout_budget(pages.get(&cell));
            }
            vec![cell]
        }
        other => unreachable!("not a direct workload: {other}"),
    }
}

/// Distinct pages per (benchmark, SM count), computed once per process.
/// Only the counts are kept, so a run's peak memory is the simulator's.
#[derive(Default)]
pub struct Pages(BTreeMap<(&'static str, usize), u64>);

impl Pages {
    /// The distinct pages `spec` sized by `p` touches.
    pub fn of(&mut self, spec: &BenchmarkSpec, p: WorkloadParams) -> u64 {
        *self
            .0
            .entry((spec.abbr, p.sms))
            .or_insert_with(|| replay::distinct_pages(spec, p))
    }

    fn get(&mut self, cell: &DirectCell) -> u64 {
        self.of(&cell.spec, cell.params())
    }
}

/// A built simulator and what building it cost.
struct Built {
    sim: GpuSimulator,
    setup_s: f64,
}

/// Generator, page-table image and assembly: everything before the first
/// simulated cycle.
fn build(cell: &DirectCell, key: &str, tr: &mut Tracer) -> Built {
    let cfg = cell.cfg();
    let t0 = Instant::now();
    let wl = tr.span("workloads.build", key, |_| cell.spec.build(cell.params()));
    let footprint = if cfg.mm.enabled {
        0
    } else {
        wl.footprint_bytes()
    };
    let image = tr.span("pt.prebuild", key, |_| {
        PrebuiltMemory::build(cfg.page_size, cfg.scrambled_frames, footprint)
    });
    let sim = tr.span("sim.assemble", key, |_| {
        GpuSimulator::new_with_prebuilt(cfg, Box::new(wl), image)
    });
    Built {
        sim,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// One simulated cell, checked where its stats live.
struct CellRun {
    cycles: u64,
    /// Set-up time: of this run in process, the median of the child's
    /// repetitions in a child.
    setup_s: f64,
    /// Wall time of `run`.
    run_s: f64,
    /// CPU time of `run`: its wall time less the time the host did not
    /// run the process (another process, or the hypervisor's steal).
    run_cpu_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Failed property checks, prefixed with the cell key.
    errors: Vec<String>,
    /// Whether the stats survive `to_json`/`from_json`.
    round_trip: Result<(), String>,
    /// The stats, kept by in-process runs for the traced report.
    stats: Option<SimStats>,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Simulates and checks one cell in this process.
fn run_here(cell: &DirectCell, expect: &Expect, tr: &mut Tracer) -> Result<CellRun, String> {
    let key = cell.key();
    let (stats, setup_s, run_s, run_cpu_s, wall_s, cpu_s) = catch_unwind(AssertUnwindSafe(|| {
        tr.span("hostbench.cell", &key, |tr| {
            let c0 = os::process_cpu_s();
            let t0 = Instant::now();
            let built = build(cell, &key, tr);
            let (t1, c1) = (Instant::now(), os::process_cpu_s());
            let stats = tr.span("sim.run", &key, |_| built.sim.run());
            let (run_s, c2) = (t1.elapsed().as_secs_f64(), os::process_cpu_s());
            let wall_s = t0.elapsed().as_secs_f64();
            (stats, built.setup_s, run_s, c2 - c1, wall_s, c2 - c0)
        })
    }))
    .map_err(panic_message)?;
    let errors = tr.span("hostbench.check", &key, |_| {
        let mut errs = checks::cell(&key, &stats, expect);
        if cell.budget > 0 {
            if let Err(e) = checks::paging_ledger(&stats, cell.budget) {
                errs.push(format!("{key}: {e}"));
            }
        }
        errs
    });
    let round_trip = tr.span("sim.stats_json", &key, |_| checks::json_round_trip(&stats));
    Ok(CellRun {
        cycles: stats.cycles,
        setup_s,
        run_s,
        run_cpu_s,
        wall_s,
        cpu_s,
        peak_rss_mb: os::peak_rss_mb(),
        errors,
        round_trip,
        stats: Some(stats),
    })
}

/// Prefix of the line a `--cell` child prints.
const CELL_LINE: &str = "hostbench-cell ";

/// Set-up a child repeats before its measured run: at least 5 builds and
/// until this much time has gone into them.
const CHILD_SETUP_BUDGET_S: f64 = 0.02;

/// Entry of a `--cell <index>` child: simulates and checks that one cell
/// of the workload and prints its [`CellRun`] as one JSON line.
pub fn child(args: &Args, index: usize) -> ExitCode {
    let mut pages = Pages::default();
    let cells = workload_cells(args, &mut pages);
    let Some(cell) = cells.get(index) else {
        eprintln!("hostbench: --cell {index} is out of range");
        return ExitCode::from(2);
    };
    let expect = cell.expect(pages.get(cell));
    let mut tr = Tracer::new(false);
    let key = cell.key();
    let setup = repeat_setup(CHILD_SETUP_BUDGET_S, || build(cell, &key, &mut tr).setup_s);
    let run = match run_here(cell, &expect, &mut tr) {
        Ok(run) => CellRun {
            setup_s: median(&setup),
            ..run
        },
        Err(why) => {
            eprintln!("hostbench: {} panicked: {why}", cell.key());
            return ExitCode::from(3);
        }
    };
    if let Err(e) = &run.round_trip {
        eprintln!("hostbench: {}: {e}", cell.key());
    }
    let quoted: Vec<String> = run
        .errors
        .iter()
        .map(|e| format!("\"{}\"", e.replace(['"', '\\'], "'")))
        .collect();
    println!(
        "{CELL_LINE}{{\"cycles\":{},\"setup_s\":{},\"run_s\":{},\"run_cpu_s\":{},\
         \"wall_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},\"round_trip\":{},\"errors\":[{}]}}",
        run.cycles,
        run.setup_s,
        run.run_s,
        run.run_cpu_s,
        run.wall_s,
        run.cpu_s,
        run.peak_rss_mb,
        run.round_trip.is_ok(),
        quoted.join(",")
    );
    ExitCode::SUCCESS
}

/// Simulates and checks cell `index` in a fresh process running this
/// program with `--cell <index>`, so that each cell draws its own process
/// placement and memory layout.
fn run_in_child(args: &Args, index: usize) -> Result<CellRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--cell", &index.to_string()])
        .stderr(std::process::Stdio::inherit());
    if args.heldout {
        cmd.arg("--heldout");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("cell child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(CELL_LINE))
        .ok_or("cell child printed no result")?;
    let doc = parse(line).map_err(|e| format!("cell child result: {e}"))?;
    let num = |k: &str| match doc.get(k) {
        Some(Value::Num(n)) => Ok(*n as f64),
        Some(Value::Float(f)) => Ok(*f),
        _ => Err(format!("cell child result lacks {k}")),
    };
    let errors = doc
        .get("errors")
        .and_then(Value::as_arr)
        .ok_or("cell child result lacks errors")?
        .iter()
        .filter_map(|e| e.as_str().map(str::to_string))
        .collect();
    Ok(CellRun {
        cycles: doc
            .get("cycles")
            .and_then(Value::as_u64)
            .ok_or("cell child result lacks cycles")?,
        setup_s: num("setup_s")?,
        run_s: num("run_s")?,
        run_cpu_s: num("run_cpu_s")?,
        wall_s: num("wall_s")?,
        cpu_s: num("cpu_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        errors,
        round_trip: match doc.get("round_trip") {
            Some(Value::Bool(true)) => Ok(()),
            _ => Err("stats changed through to_json/from_json".into()),
        },
        stats: None,
    })
}

/// One round: every cell once, in the seeded order.
struct Round {
    runs: Vec<(usize, CellRun)>,
    wall_s: f64,
}

impl Round {
    fn stats(&self) -> Vec<&SimStats> {
        self.runs
            .iter()
            .filter_map(|(_, r)| r.stats.as_ref())
            .collect()
    }
}

fn round(
    cells: &[DirectCell],
    order: &[usize],
    run_cell: &mut dyn FnMut(usize) -> Result<CellRun, String>,
    out: &mut Outcome,
) -> Round {
    let mut r = Round {
        runs: Vec::new(),
        wall_s: 0.0,
    };
    for &i in order {
        out.attempted += 1;
        match run_cell(i) {
            Err(why) => {
                eprintln!("hostbench: {} failed: {why}", cells[i].key());
                out.failed += 1;
            }
            Ok(run) => {
                r.wall_s += run.wall_s;
                out.errors.extend(run.errors.iter().cloned());
                r.runs.push((i, run));
            }
        }
    }
    let trips: Vec<Result<(), String>> = r
        .runs
        .iter()
        .map(|(_, run)| run.round_trip.clone())
        .collect();
    round_trip_op(&trips, out);
    for (i, sw) in &r.runs {
        let cell = &cells[*i];
        if cell.sys != SystemConfig::SoftWalker
            || cell.spec.class != WorkloadClass::Irregular
            || cell.budget > 0
        {
            continue;
        }
        let base = r.runs.iter().find(|(j, _)| {
            cells[*j].sys == SystemConfig::Baseline && cells[*j].spec.abbr == cell.spec.abbr
        });
        if let Some((_, base)) = base {
            if let Err(e) = checks::software_walker_faster(sw.cycles, base.cycles) {
                out.errors.push(format!("{}: {e}", cell.spec.abbr));
            }
        }
    }
    r
}

/// The round's last operation: every stats object of the round through
/// `to_json`/`from_json`, given as each one's result.
pub fn round_trip_op(trips: &[Result<(), String>], out: &mut Outcome) {
    out.attempted += 1;
    let lost = trips.iter().filter(|t| t.is_err()).count();
    if let Some(Err(first)) = trips.iter().find(|t| t.is_err()) {
        out.failed += 1;
        eprintln!(
            "hostbench: stats round trip failed for {lost} of {} cells; first: {first}",
            trips.len()
        );
    }
}

/// Repeated builds of every cell; returns each repetition's total.
fn setup_reps(cells: &[DirectCell], tr: &mut Tracer) -> Vec<f64> {
    repeat_setup(0.5, || {
        cells.iter().map(|c| build(c, &c.key(), tr).setup_s).sum()
    })
}

/// Dense reference kernel against the event kernel: one quick-scale cell
/// per walker kind, on `first`'s benchmark and paging mode. A check on
/// the kernels, not one of the workload's operations.
pub fn agreement(first: DirectCell, out: &mut Outcome) {
    let mut pages = Pages::default();
    let tr = &mut Tracer::new(false);
    for sys in [SystemConfig::Baseline, SystemConfig::SoftWalker] {
        let mut cell = DirectCell {
            sys,
            scale: Scale::Quick,
            ..first
        };
        if first.budget > 0 {
            cell.budget = heldout_budget(pages.get(&cell));
        }
        let key = cell.key();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let event = build(&cell, &key, tr).sim.run();
            let dense = build(&cell, &key, tr).sim.run_dense();
            (event, dense)
        }));
        let Ok((event, dense)) = result else {
            out.errors.push(format!("{key}: agreement cell panicked"));
            continue;
        };
        let expect = cell.expect(pages.get(&cell));
        out.errors.extend(checks::cell(&key, &event, &expect));
        if let Err(e) = checks::same_stats(&event, &dense, "run_dense vs run") {
            out.errors.push(format!("{key}: {e}"));
        }
        if cell.budget > 0 {
            if let Err(e) = checks::paging_ledger(&event, cell.budget) {
                out.errors.push(format!("{key}: {e}"));
            }
        }
    }
}

/// Runs a direct workload and returns its outcome.
pub fn run(args: &Args) -> Outcome {
    let mut pages = Pages::default();
    let cells = workload_cells(args, &mut pages);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    SplitMix::new(args.seed).shuffle(&mut order);
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);

    if args.trace {
        traced(args, &cells, &order, &mut pages, &mut tr, &mut out);
    } else {
        let start = Instant::now();
        let mut rounds = Vec::new();
        loop {
            rounds.push(round(
                &cells,
                &order,
                &mut |i| run_in_child(args, i),
                &mut out,
            ));
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / rounds.len() as f64 / 2.0 >= args.seconds {
                break;
            }
        }
        let children = rounds
            .iter()
            .flat_map(|r| r.runs.iter().map(|(_, c)| c.peak_rss_mb));
        let peak = children.fold(os::peak_rss_mb(), f64::max);
        let v = &mut out.values;
        v.insert("peak_rss_mb", peak);
        // Each cell's median over the rounds, summed over the cells: a
        // slow stretch of the host moves a few of a cell's samples, not
        // their median.
        let per_cell = |f: &dyn Fn(&CellRun) -> f64| -> f64 {
            (0..cells.len())
                .filter_map(|i| {
                    let samples: Vec<f64> = rounds
                        .iter()
                        .flat_map(|r| r.runs.iter().filter(|(j, _)| *j == i))
                        .map(|(_, c)| f(c))
                        .collect();
                    (!samples.is_empty()).then(|| median(&samples))
                })
                .sum()
        };
        v.insert("setup_s", per_cell(&|c| c.setup_s));
        v.insert("wall_s", per_cell(&|c| c.wall_s));
        v.insert("cpu_s", per_cell(&|c| c.cpu_s));
        let mcycles = per_cell(&|c| c.cycles as f64) / 1e6;
        v.insert(
            "sim_mcycles_per_s",
            ratio(mcycles, per_cell(&|c| c.run_cpu_s)),
        );
    }
    agreement(cells[0], &mut out);
    out
}

/// The traced run: an untraced round, a traced round with the same
/// cells, the layer replays, and the per-layer report.
fn traced(
    args: &Args,
    cells: &[DirectCell],
    order: &[usize],
    pages: &mut Pages,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let reps = setup_reps(cells, tr).len() as f64;
    let per_rep = |name| tr.total_s(name) / reps;
    let (prebuild_s, assemble_s) = (per_rep("pt.prebuild"), per_rep("sim.assemble"));
    out.values.insert("pt.prebuild_s", prebuild_s);
    out.values.insert("sim.assemble_s", assemble_s);

    let expects: Vec<Expect> = cells.iter().map(|c| c.expect(pages.get(c))).collect();
    let here = |tr: &mut Tracer, out: &mut Outcome| {
        round(
            cells,
            order,
            &mut |i| run_here(&cells[i], &expects[i], tr),
            out,
        )
    };
    tr.set_enabled(false);
    let untraced = here(tr, out);
    tr.set_enabled(true);
    let traced = here(tr, out);
    // Only the traced round records spans of the stats round trip.
    let json_s = tr.total_s("sim.stats_json");
    let run_s: f64 = traced.runs.iter().map(|(_, r)| r.run_s).sum();
    for (i, t) in &traced.runs {
        if let Some((_, u)) = untraced.runs.iter().find(|(j, _)| j == i) {
            let what = format!("{}: traced vs untraced", cells[*i].key());
            let (u, t) = (u.stats.as_ref(), t.stats.as_ref());
            let (u, t) = (u.expect("kept in process"), t.expect("kept in process"));
            out.errors.extend(checks::same_stats(u, t, &what).err());
        }
    }

    let layer = replays(cells, &traced, tr, out);
    let stats = traced.stats();
    let hw: Vec<&SimStats> = traced
        .runs
        .iter()
        .filter(|(i, _)| walkers(cells[*i].cfg().mode) == Walkers::Hardware)
        .filter_map(|(_, r)| r.stats.as_ref())
        .collect();
    let v = &mut out.values;
    v.extend(layer);
    v.extend(counts(&stats, &hw));
    let steps: u64 = stats.iter().map(|s| s.kernel_steps).sum();
    v.insert("sim.run_s", run_s);
    v.insert("sim.ns_per_step", ratio(run_s * 1e9, steps as f64));
    v.insert("sim.stats_json_s", json_s);
    v.insert("trace.untraced_wall_s", untraced.wall_s);
    v.insert("trace.traced_wall_s", traced.wall_s);
    v.insert(
        "trace.overhead_ratio",
        ratio(traced.wall_s, untraced.wall_s),
    );
    finish_trace(&args.workload, tr, v);
}

/// Writes the span file and records span count and self time per layer.
pub fn finish_trace(workload: &str, tr: &Tracer, v: &mut Values) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    if let Err(e) = tr.write_chrome_trace(&path) {
        eprintln!("hostbench: cannot write {}: {e}", path.display());
    } else {
        eprintln!("hostbench: spans written to {}", path.display());
    }
    v.insert("trace.spans", tr.spans().len() as f64);
    for (layer, s) in tr.self_time_by_layer() {
        let name = match layer {
            "hostbench" => "self.hostbench_s",
            "workloads" => "self.workloads_s",
            "pt" => "self.pt_s",
            "sim" => "self.sim_s",
            "core" => "self.core_s",
            "tlb" => "self.tlb_s",
            "obs" => "self.obs_s",
            "bench" => "self.bench_s",
            other => unreachable!("span layer {other} has no metric"),
        };
        v.insert(name, s);
    }
}

/// The layer replays over each simulated cell's page stream.
fn replays(cells: &[DirectCell], traced: &Round, tr: &mut Tracer, out: &mut Outcome) -> Values {
    let (mut gen_ns, mut instrs, mut distinct) = (0.0, 0u64, 0u64);
    let (mut tlb_ns, mut xlat_ns, mut accesses) = (0.0, 0.0, 0u64);
    let (mut select_ns, mut selects) = (0.0, 0u64);
    let mut pages_mapped = 0u64;
    for (i, run) in &traced.runs {
        let cell = &cells[*i];
        let key = cell.key();
        let cfg = cell.cfg();
        let stream = replay::page_stream(&cell.spec, cell.params());
        let n = stream.accesses.len() as u64;

        let stats = run.stats.as_ref().expect("traced rounds keep their stats");
        let mut wl = cell.spec.build(cell.params());
        let drain = tr.span("workloads.drain", &key, |_| {
            replay::drain_generator(&mut wl)
        });
        if drain.instrs != stats.instructions || drain.loads != stats.loads {
            out.errors.push(format!(
                "{key}: generator drained {} instructions / {} loads, simulator issued {} / {}",
                drain.instrs, drain.loads, stats.instructions, stats.loads
            ));
        }
        gen_ns += drain.ns_per_instr * drain.instrs as f64;
        instrs += drain.instrs;
        distinct += stream.distinct_pages;

        tlb_ns += tr.span("tlb.replay", &key, |_| replay::tlb_replay(&cfg, &stream)) * n as f64;
        let (space, phys) = tr.span("pt.map", &key, |_| {
            replay::mapped_space(&cfg, wl.footprint_bytes())
        });
        // The replay maps the footprint as the prebuilt image does; a
        // demand-paged cell starts from an empty image.
        if !cfg.mm.enabled {
            pages_mapped += space.mapped_pages() as u64;
        }
        let (ns, unmapped) = tr.span("pt.translate", &key, |_| {
            replay::translate_replay(&space, &phys, &stream)
        });
        if unmapped > 0 {
            out.errors
                .push(format!("{key}: {unmapped} page accesses did not translate"));
        }
        xlat_ns += ns * n as f64;
        accesses += n;

        let calls = stats.distributor.dispatched;
        if calls > 0 {
            select_ns +=
                tr.span("core.select", &key, |_| replay::select_replay(&cfg, calls)) * calls as f64;
            selects += calls;
        }
    }
    let mut v = Values::new();
    v.insert("workloads.instrs", instrs as f64);
    v.insert("workloads.distinct_pages", distinct as f64);
    v.insert("workloads.gen_ns_per_instr", ratio(gen_ns, instrs as f64));
    v.insert("tlb.replay_ns_per_access", ratio(tlb_ns, accesses as f64));
    v.insert("pt.translate_ns", ratio(xlat_ns, accesses as f64));
    v.insert("pt.pages_mapped", pages_mapped as f64);
    v.insert("core.select_ns", ratio(select_ns, selects as f64));
    v
}

/// Simulated counts summed over `stats`; the PTW latency means over the
/// hardware-walker cells `hw` only.
pub fn counts(stats: &[&SimStats], hw: &[&SimStats]) -> Values {
    let sum = |f: &dyn Fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let hw_sum = |f: &dyn Fn(&SimStats) -> u64| hw.iter().map(|s| f(s)).sum::<u64>() as f64;
    let hw_walks = hw_sum(&|s| s.walk.translations);
    let mut v = Values::new();
    v.insert("sim.kernel_steps", sum(&|s| s.kernel_steps));
    v.insert("sim.cycles_skipped", sum(&|s| s.kernel_cycles_skipped));
    v.insert("sim.cycles", sum(&|s| s.cycles));
    v.insert("core.walks", sum(&|s| s.sw_walks));
    v.insert("core.ldpt_reads", sum(&|s| s.pw_warp.ldpt_reads));
    v.insert(
        "core.softpwb_wait_cycles",
        sum(&|s| s.pw_warp.total_softpwb_wait),
    );
    v.insert("core.fill_replays", sum(&|s| s.pw_warp.fill_replays));
    v.insert("core.dispatched", sum(&|s| s.distributor.dispatched));
    v.insert("core.dispatch_blocked", sum(&|s| s.distributor.blocked));
    v.insert("ptw.walks", sum(&|s| s.hw_walks));
    v.insert(
        "ptw.queue_cycles_mean",
        ratio(hw_sum(&|s| s.walk.queue_cycles), hw_walks),
    );
    v.insert(
        "ptw.access_cycles_mean",
        ratio(hw_sum(&|s| s.walk.access_cycles), hw_walks),
    );
    v.insert("tlb.l1_hits", sum(&|s| s.l1_tlb.hits));
    v.insert("tlb.l1_misses", sum(&|s| s.l1_tlb.misses));
    v.insert("tlb.l2_fresh_misses", sum(&|s| s.fresh_l2_misses));
    v.insert(
        "tlb.l2_mshr_failure_events",
        sum(&|s| s.l2_mshr_failure_events),
    );
    v.insert(
        "tlb.in_tlb_allocations",
        sum(&|s| s.in_tlb.in_tlb_allocations),
    );
    v.insert("tlb.in_tlb_merges", sum(&|s| s.in_tlb.in_tlb_merges));
    v.insert("pt.pwc_hits", sum(&|s| s.pwc_hits));
    v.insert("pt.pwc_misses", sum(&|s| s.pwc_misses));
    v.insert("pt.major_faults", sum(&|s| s.mm.major_faults));
    v.insert("pt.evictions", sum(&|s| s.mm.evictions));
    v.insert(
        "pt.resident_peak",
        stats.iter().map(|s| s.mm.resident_peak).max().unwrap_or(0) as f64,
    );
    v.insert("mem.l1d_accesses", sum(&|s| s.l1d.accesses));
    v.insert("mem.l1d_misses", sum(&|s| s.l1d.misses));
    v.insert("mem.l2d_accesses", sum(&|s| s.l2d.accesses));
    v.insert("mem.l2d_misses", sum(&|s| s.l2d.misses));
    v.insert("mem.dram_requests", sum(&|s| s.dram.requests));
    v.insert("mem.dram_busy_cycles", sum(&|s| s.dram.busy_cycles));
    v.insert("sm.instructions", sum(&|s| s.sm.instructions));
    v.insert("sm.mem_stall_cycles", sum(&|s| s.sm.mem_stall_cycles));
    v.insert("sm.idle_cycles", sum(&|s| s.sm.idle_cycles));
    v.insert("sm.l1_mshr_failures", sum(&|s| s.sm.l1_mshr_failures));
    v
}
