//! The co-simulation workloads: one `RunSpec` repeated for the run's
//! length, timed from the benchmark around `RunSpec::run`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ra_cosim::{percent_error, ModeSpec, RunResult, RunSpec, Target};
use ra_obs::ObsSink;
use ra_workloads::WorkSpec;

use crate::check::{cosim_problems, pinned, Fingerprint, Tally};
use crate::stats::{mean, median, percentile, relative_iqr, samples_beyond};
use crate::trace::{layer_table, ratio, LayerRecorder, SUM_TOLERANCE_PCT};
use crate::{peak_rss_mb, Report, Values, SETUPS};

/// One co-simulation workload: target, application, coupler mode and
/// input size, all fixed; only the workload seed varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct Cosim {
    pub name: &'static str,
    /// `256`/`512` for the mesh presets, else a chiplet spec.
    pub target: &'static str,
    pub app: &'static str,
    pub mode: &'static str,
    /// Instructions every core retires per simulation.
    pub instructions: u64,
    /// Simulation seeds per run: repetitions cycle through them, and the
    /// latency error is their mean, so one seed's traffic does not set
    /// the run's figures.
    pub seeds: usize,
    /// Whether the run's mean error must beat the hop model's (A1).
    pub accuracy_gate: bool,
    /// Parallel-engine workers of the traced run's engine twin (0: none):
    /// one run of the first seed on the data-parallel engine, which must
    /// reproduce the serial fingerprint and supplies the `gpu.*` layer.
    pub engine_twin: usize,
}

pub const MESH256: Cosim = Cosim {
    name: "cosim-mesh256",
    target: "256",
    app: "ocean",
    mode: "reciprocal:quantum=2000,workers=0",
    instructions: 100,
    seeds: 6,
    accuracy_gate: false,
    engine_twin: 2,
};

pub const MESH512_PAR2: Cosim = Cosim {
    name: "cosim-mesh512-par2",
    target: "512",
    app: "ocean",
    mode: "reciprocal:quantum=2000,workers=2",
    instructions: 40,
    seeds: 2,
    accuracy_gate: false,
    engine_twin: 0,
};

pub const CHIPLET_DNN: Cosim = Cosim {
    name: "cosim-chiplet-dnn",
    target: "2x4x4,interposer=silicon",
    app: "dnn",
    mode: "reciprocal:quantum=2000,workers=0,pipeline=on",
    instructions: 300,
    seeds: 12,
    accuracy_gate: true,
    engine_twin: 0,
};

/// The first-touch warm-up run in set-up retires this share of the
/// workload's instructions per core.
const WARMUP_DIVISOR: u64 = 5;
/// Seed of the warm-up run, so set-up does the same work whatever the
/// run's seed.
const WARMUP_SEED: u64 = 1;

/// Everything one run needs, built by set-up.
struct Prepared {
    target: Target,
    work: WorkSpec,
    mode: ModeSpec,
}

impl Cosim {
    pub fn params(&self) -> String {
        format!(
            "target={} app={} mode={} instructions={}",
            self.target, self.app, self.mode, self.instructions
        )
    }

    /// Builds the target and workload, then runs a short warm-up
    /// co-simulation so first-touch allocation stays out of timing.
    fn setup(&self) -> Result<Prepared, String> {
        let target = match self.target.parse::<u32>() {
            Ok(cores) => Target::preset(cores).ok_or("no such preset")?,
            Err(_) => Target::from_chiplet_spec(self.target).map_err(|e| e.to_string())?,
        };
        let work: WorkSpec = self.app.parse().map_err(|e| format!("{e:?}"))?;
        let mode: ModeSpec = self.mode.parse().map_err(|e| format!("{e}"))?;
        let prepared = Prepared { target, work, mode };
        prepared
            .spec(self.instructions / WARMUP_DIVISOR, WARMUP_SEED)
            .run()
            .map_err(|e| format!("warm-up run failed: {e}"))?;
        Ok(prepared)
    }

    /// The simulation seeds one run cycles through, derived from its seed.
    pub fn sim_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.seeds as u64)
            .map(|i| mix(seed.wrapping_mul(0x100) ^ i) % 1_000_000_000)
            .collect()
    }

    pub fn run(&self, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
        let seeds = self.sim_seeds(seed);
        let mut setup_s = Vec::new();
        let mut prepared = None;
        for _ in 0..SETUPS {
            let start = Instant::now();
            prepared = Some(self.setup()?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let p = prepared.expect("at least one set-up");
        let mut tally = Tally::default();
        // First fingerprint and latency seen per simulation seed.
        let mut first: BTreeMap<u64, (Fingerprint, f64)> = BTreeMap::new();
        let mut reps = Vec::new();
        let mut traced_reps = Vec::new();
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        // Repetitions cycle through the run's simulation seeds. A traced
        // run alternates untraced and traced repetitions, so the tracing
        // overhead is measured under the same conditions.
        while start.elapsed() < budget || (traced && traced_reps.is_empty()) {
            let trace_this = traced && reps.len() > traced_reps.len();
            let n = if trace_this {
                traced_reps.len()
            } else {
                reps.len()
            };
            let sim_seed = seeds[n % seeds.len()];
            let rep = p.timed(self, sim_seed, trace_this);
            let problems = match &rep.result {
                Ok(run) => {
                    let got = Fingerprint::of(run);
                    let (f, _) = *first.entry(sim_seed).or_insert((got, run.avg_latency()));
                    cosim_problems(run, Some(f), pinned(self.name, sim_seed))
                }
                Err(e) => vec![e.clone()],
            };
            tally.record(self.name, problems);
            match rep.layers {
                Some(_) => traced_reps.push(rep),
                None => reps.push(rep),
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let rss = peak_rss_mb();
        // Accuracy, outside the timed region: each simulation seed on the
        // lockstep (cycle-level truth) and hop (abstract) networks.
        let mut errors = Vec::new();
        let mut hop_errors = Vec::new();
        for &sim_seed in &seeds {
            let recip = match first.get(&sim_seed) {
                Some(&(_, latency)) => Ok(latency),
                None => p
                    .spec(self.instructions, sim_seed)
                    .run()
                    .map(|r| r.avg_latency()),
            };
            let reference = |mode| p.spec(self.instructions, sim_seed).mode(mode).run();
            let truth = reference(ModeSpec::Lockstep);
            let hop = reference(ModeSpec::Hop);
            let (Ok(recip), Ok(truth), Ok(hop)) = (recip, truth, hop) else {
                tally.record(
                    "accuracy",
                    vec![format!("reference runs failed at seed {sim_seed}")],
                );
                continue;
            };
            errors.push(percent_error(recip, truth.avg_latency()));
            hop_errors.push(percent_error(hop.avg_latency(), truth.avg_latency()));
        }
        let err = mean(&errors);
        let hop_err = mean(&hop_errors);
        // A1 is a claim about the mean error, as the `exp_error --chiplet`
        // gate checks it; single seeds where the hop model wins are counted
        // in the notes.
        let hop_wins = errors
            .iter()
            .zip(&hop_errors)
            .filter(|(r, h)| r >= h)
            .count();
        if self.accuracy_gate {
            let mut problems = Vec::new();
            if err >= hop_err {
                problems.push(format!(
                    "mean reciprocal error {err:.2}% does not beat the hop model's {hop_err:.2}%"
                ));
            }
            tally.record("accuracy gate", problems);
        }
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        let kips: Vec<f64> = reps
            .iter()
            .filter_map(|r| {
                r.result
                    .as_ref()
                    .ok()
                    .map(|run| instructions(run) / r.wall_s / 1e3)
            })
            .collect();
        let pins = seeds
            .iter()
            .filter(|s| pinned(self.name, **s).is_some())
            .count();
        let notes = format!(
            "sim_seeds={seeds:?} reps={} (plus {} traced) timed_s={elapsed:.3} \
             kips_rep_iqr={:.4} job_ms_samples={} p95_samples_beyond={} \
             hop_error_pct={hop_err:.3} seeds_where_hop_wins={hop_wins}/{n} \
             pinned_seeds={pins}/{n} warmup=excluded",
            reps.len(),
            traced_reps.len(),
            relative_iqr(&kips).unwrap_or(0.0),
            walls.len(),
            samples_beyond(walls.len(), 95.0),
            n = seeds.len(),
        );
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let mut report = Report::new(tally, self.params(), notes);
        report.metrics = Values::from([
            ("sim_kips", median(&kips)),
            ("latency_err_pct", err),
            ("peak_rss_mb", rss),
            ("jobs_per_s", ratio(reps.len() as f64, walls.iter().sum())),
            ("job_p50_ms", median(&ms)),
            ("job_p95_ms", percentile(&ms, 95.0)),
            ("setup_s", median(&setup_s)),
        ]);
        if traced {
            let serial = first.get(&seeds[0]).map(|(f, _)| *f);
            self.layers(&mut report, &p, &reps, &traced_reps, (seeds[0], serial));
        }
        Ok(report)
    }

    /// Per-layer values from the traced repetitions (medians over them),
    /// the layer table, and the accounting check.
    fn layers(
        &self,
        report: &mut Report,
        p: &Prepared,
        reps: &[Rep],
        traced: &[Rep],
        twin_ref: (u64, Option<Fingerprint>),
    ) {
        let mut samples: Vec<Values> = Vec::new();
        for rep in traced {
            let (Ok(run), Some(rec)) = (&rep.result, &rep.layers) else {
                continue;
            };
            let c = run
                .coupler
                .as_ref()
                .expect("reciprocal runs carry coupler stats");
            let noc = c.detailed_wall.as_secs_f64();
            let cal = c.calibrate_wall.as_secs_f64();
            let fullsys = (rep.wall_s - noc - cal).max(0.0);
            let barrier = rec.barrier_wait_ns as f64 / 1e9;
            let decisions = (c.spec_commits + c.spec_rollbacks) as f64;
            let mut v = Values::new();
            v.insert("noc.busy_s", noc);
            v.insert("noc.share", ratio(noc, rep.wall_s));
            v.insert("noc.router_steps", rec.router_steps as f64);
            v.insert(
                "noc.ns_per_router_step",
                ratio(noc * 1e9, rec.router_steps as f64),
            );
            v.insert("noc.fast_forward_ratio", rec.fast_forward_ratio());
            v.insert("gpu.barrier_wait_s", barrier);
            v.insert("gpu.barrier_share", ratio(barrier, noc));
            v.insert("gpu.batches", rec.batches as f64);
            v.insert("gpu.range_skew", rec.mean_range_skew());
            v.insert("netmodel.calibrate_s", cal);
            v.insert("netmodel.calibrations", c.calibrations as f64);
            v.insert("netmodel.resyncs", c.model_resyncs as f64);
            v.insert("fullsys.busy_s", fullsys);
            v.insert("fullsys.share", ratio(fullsys, rep.wall_s));
            v.insert(
                "coupler.spec_commit_ratio",
                ratio(c.spec_commits as f64, decisions),
            );
            v.insert("coupler.spec_rollbacks", c.spec_rollbacks as f64);
            v.insert("coupler.spec_wasted_cycles", c.spec_wasted_cycles as f64);
            let unattributed = 100.0 * ratio(rep.wall_s - rec.span_s(), rep.wall_s);
            v.insert("trace.unattributed_pct", unattributed);
            let mut problems = Vec::new();
            if unattributed.abs() > SUM_TOLERANCE_PCT {
                problems.push(format!(
                    "profiling spans leave {unattributed:.2}% of the traced time unattributed"
                ));
            }
            if rec.watchdog_trips != 0 {
                problems.push(format!("{} watchdog trips traced", rec.watchdog_trips));
            }
            report.tally.record("layer accounting", problems);
            samples.push(v);
        }
        let mut values = Values::new();
        for key in samples
            .first()
            .map(|s| s.keys().copied().collect::<Vec<_>>())
            .unwrap_or_default()
        {
            let column: Vec<f64> = samples.iter().map(|s| s[key]).collect();
            values.insert(key, median(&column));
        }
        let untraced = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        values.insert(
            "obs.trace_overhead_pct",
            100.0 * ratio(traced_wall - untraced, untraced),
        );
        let mut twin_note = String::new();
        if self.engine_twin > 0 {
            let (seed, serial) = twin_ref;
            let twin = p.twin(self, seed);
            let problems = match &twin.result {
                Ok(run) => cosim_problems(run, serial, pinned(self.name, seed)),
                Err(e) => vec![e.clone()],
            };
            report.tally.record("engine twin", problems);
            if let (Ok(run), Some(rec)) = (&twin.result, &twin.layers) {
                let noc = run
                    .coupler
                    .as_ref()
                    .map_or(0.0, |c| c.detailed_wall.as_secs_f64());
                let barrier = rec.barrier_wait_ns as f64 / 1e9;
                values.insert("gpu.barrier_wait_s", barrier);
                values.insert("gpu.barrier_share", ratio(barrier, noc));
                values.insert("gpu.batches", rec.batches as f64);
                values.insert("gpu.range_skew", rec.mean_range_skew());
                twin_note = format!(
                    " (engine twin: seed {seed} on workers={}, {:.3} s, fingerprint checked \
                     against the serial run)",
                    self.engine_twin, twin.wall_s
                );
            }
        }
        let get = |k: &str| values.get(k).copied().unwrap_or(0.0);
        let pipelined = self.mode.contains("pipeline=on");
        let noc_layer = if pipelined {
            "ra-noc (replay thread; overlaps fullsys)"
        } else {
            "ra-noc"
        };
        let rows = [
            (noc_layer, get("noc.busy_s")),
            ("ra-netmodel calibrate", get("netmodel.calibrate_s")),
            ("ra-fullsys + ra-workloads", get("fullsys.busy_s")),
        ];
        let mut table = layer_table(
            &format!(
                "{} traced layer table (median of {} traced runs)",
                self.name,
                traced.len()
            ),
            traced_wall,
            &rows,
        );
        table.push_str(&format!(
            "  ra-gpu barrier wait {:.6} s ({:.1}% of ra-noc), {} batches{twin_note}\n",
            get("gpu.barrier_wait_s"),
            100.0 * get("gpu.barrier_share"),
            get("gpu.batches"),
        ));
        if pipelined {
            table.push_str(
                "  pipelined: the replay thread's NoC time is counted as if blocking; \
                 ra-fullsys is the remainder of the blocking path\n",
            );
        }
        report.table = Some(table);
        report.layers = Some(values);
    }
}

/// One timed repetition.
struct Rep {
    wall_s: f64,
    result: Result<RunResult, String>,
    layers: Option<LayerRecorder>,
}

impl Prepared {
    fn spec(&self, instructions: u64, seed: u64) -> RunSpec<'_> {
        RunSpec::for_work(&self.target, self.work.clone())
            .mode(self.mode)
            .instructions(instructions)
            .seed(seed)
    }

    /// A traced run of `seed` on the workload's engine twin: the same
    /// coupler on `engine_twin` parallel-engine workers.
    fn twin(&self, w: &Cosim, seed: u64) -> Rep {
        let ModeSpec::Reciprocal {
            quantum, pipeline, ..
        } = self.mode
        else {
            unreachable!("co-simulation workloads run reciprocal modes");
        };
        let twin = Prepared {
            target: self.target.clone(),
            work: self.work.clone(),
            mode: ModeSpec::Reciprocal {
                quantum,
                workers: w.engine_twin,
                pipeline,
            },
        };
        twin.timed(w, seed, true)
    }

    fn timed(&self, w: &Cosim, seed: u64, traced: bool) -> Rep {
        let mut spec = self.spec(w.instructions, seed);
        let mut handle = None;
        if traced {
            let (sink, rec) = ObsSink::attach(LayerRecorder::default());
            spec = spec.recorder(sink);
            handle = Some(rec);
        }
        let start = Instant::now();
        let result = std::hint::black_box(spec.run());
        let wall_s = start.elapsed().as_secs_f64();
        let layers = handle.map(|rec| rec.lock().expect("recorder lock").clone());
        Rep {
            wall_s,
            result: result.map_err(|e| format!("run failed: {e}")),
            layers,
        }
    }
}

/// Target instructions retired by all cores.
fn instructions(run: &RunResult) -> f64 {
    (run.ipc * run.cycles as f64).round()
}

/// Recomputes the fingerprint of `w` at each seed (on the serial
/// schedule: the parallel and pipelined schedules must reproduce it) and
/// prints one pin row per seed.
pub fn print_pins(w: &Cosim, run_seeds: &[u64]) -> Result<(), String> {
    let mut p = w.setup()?;
    if let ModeSpec::Reciprocal { quantum, .. } = p.mode {
        p.mode = ModeSpec::Reciprocal {
            quantum,
            workers: 0,
            pipeline: false,
        };
    }
    for &run_seed in run_seeds {
        for seed in w.sim_seeds(run_seed) {
            let run = p
                .spec(w.instructions, seed)
                .run()
                .map_err(|e| e.to_string())?;
            let f = Fingerprint::of(&run);
            println!(
                "    pin({:?}, {seed}, {}, {}, {:#018x}), // run seed {run_seed}",
                w.name, f.cycles, f.messages, f.latency_bits
            );
        }
    }
    Ok(())
}

/// splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
