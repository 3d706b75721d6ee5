//! The service workload: one `ra-relay` in front of two `ra-serve`
//! backends, all in-process on loopback, driven by closed-loop
//! `WireClient` connections speaking line-JSON `submit` then `result`.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ra_cosim::{percent_error, ModeSpec};
use ra_obs::ObsSink;
use ra_serve::cluster::RelayServer;
use ra_serve::{
    JobService, JobSpec, Json, Relay, RelayConfig, RelayHandle, Response, ServeConfig,
    ServerHandle, SubmitItem, WireClient, WireServer,
};

use crate::check::Tally;
use crate::cosim::mix;
use crate::stats::{mean, median, percentile, samples_beyond};
use crate::trace::{layer_table, ratio, LayerRecorder, SUM_TOLERANCE_PCT};
use crate::{peak_rss_mb, Report, Values, SETUPS};

pub const NAME: &str = "serve-relay-json";
/// Hot specs warmed in set-up: more than the relay's 64-entry edge cache,
/// fewer than one backend's 256-entry store.
const HOT_SET: usize = 96;
/// One job in this many is a fresh seed, never seen before.
const FRESH_EVERY: u64 = 10;
const CONNECTIONS: usize = 2;
const BACKENDS: usize = 2;
const RESULT_TIMEOUT_MS: u64 = 60_000;
/// Hot answers re-run in-process and compared bit for bit.
const HOT_SAMPLE: usize = 4;
/// Fresh answers per connection checked against lockstep truth.
const ACCURACY_SAMPLE: usize = 96;
/// Warm calls timed through the relay and directly, each.
const HOP_PROBES: usize = 40;

const HOT_APPS: [&str; 4] = ["water", "ocean", "fft", "lu"];

const HOT_SPEC: &str = "target=2x2 mode=reciprocal:quantum=500 instructions=100";
const FRESH_SPEC: &str = "target=4x4 app=water mode=reciprocal:quantum=500 instructions=300";

pub fn params() -> String {
    format!(
        "backends={BACKENDS}x1worker relay_edge_cache=64 connections={CONNECTIONS} closed_loop \
         codec=json verbs=submit,result hot_set={HOT_SET} hot=\"{HOT_SPEC} app={}\" \
         fresh_every={FRESH_EVERY} fresh=\"{FRESH_SPEC}\" seeds=derived",
        HOT_APPS.join("|"),
    )
}

fn hot_spec(seed: u64, i: usize) -> String {
    format!(
        "{HOT_SPEC} app={} seed={}",
        HOT_APPS[i % HOT_APPS.len()],
        mix(seed) % 1_000_000_000 + i as u64
    )
}

fn fresh_spec(seed: u64, conn: usize, k: u64) -> String {
    format!(
        "{FRESH_SPEC} seed={}",
        mix(seed ^ 0x5EED) % 1_000_000_000 + conn as u64 * 1_000_000 + k
    )
}

/// The relay and its backends.
struct Cluster {
    backends: Vec<ServerHandle>,
    relay: RelayHandle,
}

/// Counters summed over the relay and the backends.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    forwards: u64,
    retries: u64,
    edge_hits: u64,
    backend_submitted: u64,
    memo_hits: u64,
    rejected: u64,
    store_hits: u64,
}

impl Cluster {
    fn start(sink: &ObsSink) -> io::Result<Cluster> {
        let backends = (0..BACKENDS)
            .map(|_| {
                let service = JobService::start(
                    ServeConfig {
                        workers: 1,
                        ..ServeConfig::default()
                    },
                    sink.clone(),
                )?;
                WireServer::bind("127.0.0.1:0", service)?.spawn()
            })
            .collect::<io::Result<Vec<_>>>()?;
        let relay = Relay::new(
            RelayConfig {
                backends: backends.iter().map(|b| b.addr().to_string()).collect(),
                ..RelayConfig::default()
            },
            sink.clone(),
        )?;
        let relay = RelayServer::bind("127.0.0.1:0", relay)?.spawn()?;
        Ok(Cluster { backends, relay })
    }

    /// Runs every hot spec once through the relay, in two batched round
    /// trips, so hot requests find the relay edge or a backend memo.
    fn warm(&self, hot: &[String]) -> Result<(), String> {
        let mut client = WireClient::connect(self.relay.addr()).map_err(|e| e.to_string())?;
        let items = hot.iter().map(|s| SubmitItem::new(s.clone())).collect();
        let submits = client
            .submit_batch(items)
            .map_err(|e| format!("warm submit: {e}"))?;
        let tickets = submits
            .iter()
            .map(|r| match r {
                Response::Submit(ok) => Ok(ok.ticket),
                other => Err(format!("warm submit refused: {other:?}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let outcomes = client
            .result_batch(tickets, Some(RESULT_TIMEOUT_MS))
            .map_err(|e| format!("warm result: {e}"))?;
        for outcome in outcomes {
            let json = Json::parse(&outcome.encode_json()).map_err(|e| e.to_string())?;
            let problems = outcome_problems(&json);
            if !problems.is_empty() {
                return Err(format!("warm-up job failed: {}", problems.join("; ")));
            }
        }
        Ok(())
    }

    fn counters(&self) -> Counters {
        let relay = self.relay.relay().stats();
        let mut c = Counters {
            forwards: relay.forwards,
            retries: relay.retries,
            edge_hits: relay.edge_hits,
            ..Counters::default()
        };
        for backend in &self.backends {
            let s = backend.service().stats();
            c.backend_submitted += s.submitted;
            c.memo_hits += s.cache_hits;
            c.rejected += s.rejected;
            c.store_hits += s.store.hits;
        }
        c
    }

    fn stop(self) {
        self.relay.stop();
        for backend in self.backends {
            backend.stop();
        }
    }
}

/// Starts a cluster and warms it, `SETUPS` times; keeps the last one.
fn setup(sink: &ObsSink, hot: &[String], times: usize) -> Result<(Cluster, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut cluster: Option<Cluster> = None;
    for _ in 0..times {
        if let Some(old) = cluster.take() {
            old.stop();
        }
        let start = Instant::now();
        let c = Cluster::start(sink).map_err(|e| format!("cluster start: {e}"))?;
        c.warm(hot)?;
        setup_s.push(start.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    Ok((cluster.expect("at least one set-up"), setup_s))
}

/// One closed-loop connection's state, kept across timed slices.
struct Conn {
    id: usize,
    addr: SocketAddr,
    client: Option<WireClient>,
    rng: u64,
    /// Jobs started, and fresh specs among them.
    jobs: u64,
    fresh: u64,
    /// Which job of every `FRESH_EVERY` is the fresh one.
    phase: u64,
}

/// One completed (or failed) job as its client saw it.
#[derive(Debug, Clone)]
struct Job {
    /// Hot-set index, or `None` for a fresh spec.
    hot: Option<usize>,
    spec: String,
    latency_s: f64,
    submit_s: f64,
    result_s: f64,
    bytes: u64,
    ok: bool,
    edge: bool,
    outcome: Option<Json>,
}

impl Conn {
    fn new(id: usize, addr: SocketAddr, seed: u64) -> Conn {
        Conn {
            id,
            addr,
            client: None,
            rng: mix(seed ^ (0xC0DE + id as u64)),
            jobs: 0,
            fresh: 0,
            phase: mix(seed ^ id as u64) % FRESH_EVERY,
        }
    }

    /// Runs jobs back to back until `until`.
    fn drive(&mut self, seed: u64, hot: &[String], until: Instant) -> (Vec<Job>, Tally) {
        let mut jobs = Vec::new();
        let mut tally = Tally::default();
        while Instant::now() < until {
            self.rng = mix(self.rng);
            // Every FRESH_EVERY-th job of a connection is fresh, at a
            // seeded phase, so each run has the same mix.
            let fresh = (self.jobs + self.phase).is_multiple_of(FRESH_EVERY);
            self.jobs += 1;
            let (hot_idx, spec) = if fresh {
                self.fresh += 1;
                (None, fresh_spec(seed, self.id, self.fresh))
            } else {
                let i = (mix(self.rng) % hot.len() as u64) as usize;
                (Some(i), hot[i].clone())
            };
            let job = self.job(hot_idx, spec, &mut tally);
            jobs.push(job);
        }
        (jobs, tally)
    }

    fn job(&mut self, hot: Option<usize>, spec: String, tally: &mut Tally) -> Job {
        let mut job = Job {
            hot,
            spec,
            latency_s: 0.0,
            submit_s: 0.0,
            result_s: 0.0,
            bytes: 0,
            ok: false,
            edge: false,
            outcome: None,
        };
        if self.client.is_none() {
            match WireClient::connect(self.addr) {
                Ok(c) => self.client = Some(c),
                Err(e) => {
                    tally.record(NAME, vec![format!("connect: {e}")]);
                    return job;
                }
            }
        }
        let client = self.client.as_mut().expect("connected above");
        let bytes0 = client.bytes_sent() + client.bytes_received();
        let start = Instant::now();
        let submitted = client.submit(&job.spec, None, None);
        job.submit_s = start.elapsed().as_secs_f64();
        let mut problems = Vec::new();
        match submitted {
            Ok(reply) => match submit_ticket(&reply) {
                Ok(ticket) => {
                    job.edge = reply.get("edge").and_then(Json::as_bool) == Some(true);
                    let at = Instant::now();
                    let result = client.result(ticket, Some(RESULT_TIMEOUT_MS));
                    job.result_s = at.elapsed().as_secs_f64();
                    match result {
                        Ok(outcome) => {
                            problems.extend(outcome_problems(&outcome));
                            job.outcome = Some(outcome);
                        }
                        Err(e) => problems.push(format!("transport error on result: {e}")),
                    }
                }
                Err(problem) => problems.push(problem),
            },
            Err(e) => problems.push(format!("transport error on submit: {e}")),
        }
        job.latency_s = start.elapsed().as_secs_f64();
        job.bytes = client.bytes_sent() + client.bytes_received() - bytes0;
        if problems.iter().any(|p| p.starts_with("transport")) {
            self.client = None;
        }
        job.ok = problems.is_empty();
        tally.record(NAME, problems);
        job
    }
}

/// The ticket of an accepted `submit`, or why it was not accepted
/// (`queue_full` and every other refusal count as a failed job).
fn submit_ticket(reply: &Json) -> Result<u64, String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = reply
            .get("code")
            .or_else(|| reply.get("error"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        return Err(format!("submit refused: {code}"));
    }
    reply
        .get("ticket")
        .and_then(Json::as_u64)
        .ok_or_else(|| "submit reply without a ticket".to_string())
}

/// Every way a `result` reply can fail the benchmark: not `ok`, not
/// `completed`/`cached`, or answered below `fidelity=reciprocal`.
fn outcome_problems(outcome: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    if outcome.get("ok").and_then(Json::as_bool) != Some(true) {
        problems.push(format!("result refused: {outcome:?}"));
        return problems;
    }
    match outcome.get("outcome").and_then(Json::as_str) {
        Some("completed" | "cached") => {}
        other => problems.push(format!("outcome {other:?}")),
    }
    let fidelity = outcome
        .get("result")
        .and_then(|b| b.get("fidelity"))
        .and_then(Json::as_str);
    if fidelity != Some("reciprocal") {
        problems.push(format!("fidelity {fidelity:?}"));
    }
    problems
}

fn body_num(job: &Job, key: &str) -> Option<f64> {
    job.outcome
        .as_ref()?
        .get("result")?
        .get(key)
        .and_then(Json::as_f64)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let hot: Vec<String> = (0..HOT_SET).map(|i| hot_spec(seed, i)).collect();
    let (cluster, setup_s) = setup(&ObsSink::disabled(), &hot, if traced { 1 } else { SETUPS })?;
    let mut plain = Side::new(cluster, 0, seed);
    let budget = Duration::from_secs(seconds);
    let mut tally = Tally::default();
    // Traced: a second, recorded cluster; the two alternate in quarters
    // of the run so overhead is measured under the same conditions.
    let mut recorded = None;
    if traced {
        let (sink, rec) = ObsSink::attach(LayerRecorder::default());
        let (cluster, _) = setup(&sink, &hot, 1)?;
        let before = cluster.counters();
        // The layers cover the timed slices only, not the warm-up.
        *rec.lock().expect("recorder lock") = LayerRecorder::default();
        recorded = Some((Side::new(cluster, CONNECTIONS, seed), rec, before));
    }
    let slices = if traced { 4 } else { 1 };
    for k in 0..slices {
        let until = Instant::now() + budget / slices;
        match &mut recorded {
            Some((side, _, _)) if k % 2 == 1 => side.drive(seed, &hot, until, &mut tally),
            _ => plain.drive(seed, &hot, until, &mut tally),
        }
    }
    let rss = peak_rss_mb();
    let (jobs, elapsed) = (&plain.jobs, plain.elapsed);
    let ok: Vec<&Job> = jobs.iter().filter(|j| j.ok).collect();
    let latency_ms: Vec<f64> = ok.iter().map(|j| j.latency_s * 1e3).collect();
    // Simulated instructions of every answer delivered, memoized or run.
    let answered_instr: f64 = ok
        .iter()
        .filter_map(|j| Some((body_num(j, "ipc")? * body_num(j, "cycles")?).round()))
        .sum();
    check_hot_sample(seed, &ok, &mut tally);
    let err = fresh_error(seed, &ok, &mut tally);
    let fresh_jobs = ok.iter().filter(|j| j.hot.is_none()).count();
    let notes = format!(
        "jobs={} ok={} fresh={} edge_answered={} timed_s={elapsed:.3} latency_samples={} \
         p95_samples_beyond={} stamp=send_of_submit",
        jobs.len(),
        ok.len(),
        fresh_jobs,
        ok.iter().filter(|j| j.edge).count(),
        latency_ms.len(),
        samples_beyond(latency_ms.len(), 95.0),
    );
    let mut report = Report::new(tally, params(), notes);
    report.metrics = Values::from([
        ("sim_kips", answered_instr / elapsed / 1e3),
        ("latency_err_pct", err),
        ("peak_rss_mb", rss),
        ("jobs_per_s", ratio(ok.len() as f64, elapsed)),
        ("job_p50_ms", median(&latency_ms)),
        ("job_p95_ms", percentile(&latency_ms, 95.0)),
        ("setup_s", median(&setup_s)),
    ]);
    if let Some((side, rec, before)) = recorded {
        let after = side.cluster.counters();
        let hop_ms = hop_probe(&side.cluster, &hot, &mut report.tally);
        let rec = rec.lock().expect("recorder lock").clone();
        let untraced_p50 = median(&latency_ms);
        layers(
            &mut report,
            &side,
            &rec,
            (before, after),
            hop_ms,
            untraced_p50,
        );
        side.stop();
    }
    plain.stop();
    Ok(report)
}

/// One cluster, its closed-loop connections, and the jobs they ran.
struct Side {
    cluster: Cluster,
    conns: Vec<Conn>,
    jobs: Vec<Job>,
    /// Seconds the connections drove this cluster.
    elapsed: f64,
}

impl Side {
    /// Connections are numbered from `first_conn`; the number picks each
    /// connection's fresh specs and mix phase.
    fn new(cluster: Cluster, first_conn: usize, seed: u64) -> Side {
        let conns = (first_conn..first_conn + CONNECTIONS)
            .map(|i| Conn::new(i, cluster.relay.addr(), seed))
            .collect();
        Side {
            cluster,
            conns,
            jobs: Vec::new(),
            elapsed: 0.0,
        }
    }

    /// Drives every connection until `until`.
    fn drive(&mut self, seed: u64, hot: &[String], until: Instant, tally: &mut Tally) {
        let start = Instant::now();
        let results: Vec<(Vec<Job>, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|c| s.spawn(move || c.drive(seed, hot, until)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.elapsed += start.elapsed().as_secs_f64();
        for (jobs, t) in results {
            self.jobs.extend(jobs);
            tally.absorb(t);
        }
    }

    fn stop(self) {
        drop(self.conns);
        self.cluster.stop();
    }
}

/// Re-runs a seeded sample of served hot specs in-process and requires
/// the served answer to be bit-identical.
fn check_hot_sample(seed: u64, ok: &[&Job], tally: &mut Tally) {
    let mut served: Vec<&Job> = Vec::new();
    for job in ok.iter().filter(|j| j.hot.is_some()) {
        if !served.iter().any(|s| s.hot == job.hot) {
            served.push(job);
        }
    }
    served.sort_by_key(|j| j.hot);
    let mut rng = mix(seed ^ 0x5A3B);
    for _ in 0..HOT_SAMPLE.min(served.len()) {
        rng = mix(rng);
        let job = served.remove((rng % served.len() as u64) as usize);
        let problems = match job.spec.parse::<JobSpec>().map(|s| s.to_run_spec().run()) {
            Ok(Ok(run)) => {
                let same = body_num(job, "cycles") == Some(run.cycles as f64)
                    && body_num(job, "messages") == Some(run.messages as f64)
                    && body_num(job, "latency_mean").map(f64::to_bits)
                        == Some(run.avg_latency().to_bits())
                    && body_num(job, "ipc").map(f64::to_bits) == Some(run.ipc.to_bits());
                if same {
                    Vec::new()
                } else {
                    vec![format!(
                        "served answer for `{}` differs from RunSpec",
                        job.spec
                    )]
                }
            }
            Ok(Err(e)) => vec![format!("in-process run failed: {e}")],
            Err(e) => vec![format!("bad spec: {e}")],
        };
        tally.record("hot-set sample", problems);
    }
}

/// Mean relative error of the service's answers to fresh specs against the
/// lockstep run of the same spec, over the first `ACCURACY_SAMPLE` fresh
/// specs of each connection, so the sample depends only on the seed. A
/// spec the timed loop did not reach is answered by the same run
/// in-process, untimed: answers are bit-identical to in-process runs (the
/// hot-set sample checks it).
fn fresh_error(seed: u64, ok: &[&Job], tally: &mut Tally) -> f64 {
    let mut errors = Vec::new();
    for conn in 0..CONNECTIONS {
        for k in 1..=ACCURACY_SAMPLE as u64 {
            let spec = fresh_spec(seed, conn, k);
            let Ok(mut parsed) = spec.parse::<JobSpec>() else {
                tally.record("accuracy", vec![format!("bad spec `{spec}`")]);
                continue;
            };
            let answer = match ok.iter().find(|j| j.spec == spec) {
                Some(job) => body_num(job, "latency_mean"),
                None => parsed.to_run_spec().run().ok().map(|r| r.avg_latency()),
            };
            parsed.mode = ModeSpec::Lockstep;
            match (parsed.to_run_spec().run(), answer) {
                (Ok(t), Some(answer)) => errors.push(percent_error(answer, t.avg_latency())),
                _ => tally.record("accuracy", vec![format!("no truth or answer for `{spec}`")]),
            }
        }
    }
    mean(&errors)
}

/// Median time of one warm `submit` through a relay without an edge cache
/// minus the same call made directly to the owning backend. Both use the
/// binary codec, so the client's line-JSON write pattern stays out of it.
fn hop_probe(cluster: &Cluster, hot: &[String], tally: &mut Tally) -> f64 {
    let probe = Relay::new(
        RelayConfig {
            backends: cluster
                .backends
                .iter()
                .map(|b| b.addr().to_string())
                .collect(),
            edge_cache: 0,
            ..RelayConfig::default()
        },
        ObsSink::disabled(),
    )
    .and_then(|r| RelayServer::bind("127.0.0.1:0", r)?.spawn());
    let Ok(probe) = probe else {
        tally.record(
            "relay hop probe",
            vec!["probe relay failed to start".into()],
        );
        return 0.0;
    };
    let connect = |addr| WireClient::connect(addr).map(|c| c.with_binary(true));
    let mut via = Vec::new();
    let mut direct = Vec::new();
    let clients = connect(probe.addr()).and_then(|r| {
        let d = cluster
            .backends
            .iter()
            .map(|b| connect(b.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok((r, d))
    });
    match clients {
        Ok((mut relay, mut backends)) => {
            for i in 0..HOP_PROBES {
                let spec = &hot[i % hot.len()];
                let start = Instant::now();
                let reply = relay.submit(spec, None, None);
                via.push(start.elapsed().as_secs_f64() * 1e3);
                let node = reply
                    .as_ref()
                    .ok()
                    .and_then(|r| r.get("node"))
                    .and_then(Json::as_u64)
                    .map(|n| n as usize)
                    .filter(|n| *n < backends.len());
                let Some(node) = node else {
                    tally.record(
                        "relay hop probe",
                        vec![format!("bad probe reply {reply:?}")],
                    );
                    continue;
                };
                let start = Instant::now();
                let reply = backends[node].submit(spec, None, None);
                direct.push(start.elapsed().as_secs_f64() * 1e3);
                let warm = reply
                    .as_ref()
                    .ok()
                    .and_then(|r| r.get("disposition"))
                    .and_then(Json::as_str)
                    == Some("cached");
                tally.record(
                    "relay hop probe",
                    if warm {
                        Vec::new()
                    } else {
                        vec![format!("probe call not warm: {reply:?}")]
                    },
                );
            }
        }
        Err(e) => tally.record("relay hop probe", vec![format!("connect: {e}")]),
    }
    probe.stop();
    median(&via) - median(&direct)
}

/// Per-layer values of the recorded side, the layer table, and the
/// accounting check.
fn layers(
    report: &mut Report,
    side: &Side,
    rec: &LayerRecorder,
    (before, after): (Counters, Counters),
    hop_ms: f64,
    untraced_p50: f64,
) {
    let ok: Vec<&Job> = side.jobs.iter().filter(|j| j.ok).collect();
    let n = ok.len() as f64;
    let submit_ms: Vec<f64> = ok.iter().map(|j| j.submit_s * 1e3).collect();
    let result_ms: Vec<f64> = ok.iter().map(|j| j.result_s * 1e3).collect();
    let latency_ms: Vec<f64> = ok.iter().map(|j| j.latency_s * 1e3).collect();
    let queue_ms: Vec<f64> = rec.jobs_ok.iter().map(|(q, _)| *q as f64 / 1e6).collect();
    let run_ms: Vec<f64> = rec.jobs_ok.iter().map(|(_, r)| *r as f64 / 1e6).collect();
    let d = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    let traced_p50 = median(&latency_ms);
    let mut v = Values::new();
    v.insert(
        "obs.trace_overhead_pct",
        100.0 * ratio(traced_p50 - untraced_p50, untraced_p50),
    );
    v.insert("wire.submit_ms_p50", median(&submit_ms));
    v.insert("wire.result_ms_p50", median(&result_ms));
    v.insert(
        "wire.bytes_per_job",
        ratio(ok.iter().map(|j| j.bytes as f64).sum(), n),
    );
    v.insert("relay.hop_ms_p50", hop_ms);
    // Each edge-answered job counts twice: its submit and its result.
    v.insert("relay.edge_hit_ratio", ratio(d(|c| c.edge_hits), 2.0 * n));
    v.insert("relay.forwards_per_job", ratio(d(|c| c.forwards), n));
    v.insert("relay.retries", d(|c| c.retries));
    v.insert("scheduler.queue_ms_p50", median(&queue_ms));
    v.insert("scheduler.queue_ms_p95", percentile(&queue_ms, 95.0));
    v.insert("scheduler.run_ms_p50", median(&run_ms));
    v.insert(
        "scheduler.rejected",
        d(|c| c.rejected) + rec.rejected as f64,
    );
    v.insert(
        "store.memo_ratio",
        ratio(d(|c| c.memo_hits), d(|c| c.backend_submitted)),
    );
    v.insert("store.hits", d(|c| c.store_hits));
    // Accounting: the two client calls must cover the job latency.
    let total: f64 = latency_ms.iter().sum::<f64>() / 1e3;
    let calls: f64 = (submit_ms.iter().sum::<f64>() + result_ms.iter().sum::<f64>()) / 1e3;
    let unattributed = 100.0 * ratio(total - calls, total);
    v.insert("trace.unattributed_pct", unattributed);
    report.tally.record(
        "layer accounting",
        if unattributed.abs() > SUM_TOLERANCE_PCT {
            vec![format!(
                "client calls leave {unattributed:.2}% of job time unattributed"
            )]
        } else {
            Vec::new()
        },
    );
    if rec.jobs_not_ok != 0 {
        report.tally.record(
            "traced jobs",
            vec![format!("{} jobs ended not ok", rec.jobs_not_ok)],
        );
    }
    let per_job = |s: f64| ratio(s, n);
    let queue_s: f64 = queue_ms.iter().sum::<f64>() / 1e3;
    let run_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
    let mut table = layer_table(
        &format!(
            "{NAME} traced layer table (mean per job over {} jobs in {:.2} s)",
            ok.len(),
            side.elapsed
        ),
        per_job(total),
        &[
            (
                "client submit call",
                per_job(submit_ms.iter().sum::<f64>() / 1e3),
            ),
            (
                "client result call",
                per_job(result_ms.iter().sum::<f64>() / 1e3),
            ),
        ],
    );
    let hop_s = hop_ms / 1e3 * v["relay.forwards_per_job"];
    table.push_str(&format!(
        "  of which ra-serve scheduler queue {:.6} s, worker run {:.6} s, relay hops {:.6} s, \
         wire + codec + client remainder {:.6} s\n",
        per_job(queue_s),
        per_job(run_s),
        hop_s,
        per_job(total - queue_s - run_s) - hop_s,
    ));
    report.table = Some(table);
    report.layers = Some(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn a_completed_reciprocal_answer_passes() {
        let ok = json(r#"{"ok":true,"outcome":"cached","result":{"fidelity":"reciprocal"}}"#);
        assert!(outcome_problems(&ok).is_empty());
        assert_eq!(submit_ticket(&json(r#"{"ok":true,"ticket":7}"#)), Ok(7));
    }

    #[test]
    fn failed_degraded_and_refused_jobs_are_failed_operations() {
        let mut tally = Tally::default();
        let failed = json(r#"{"ok":true,"outcome":"failed","detail":"boom"}"#);
        tally.record(NAME, outcome_problems(&failed));
        let hop = json(r#"{"ok":true,"outcome":"completed","result":{"fidelity":"hop"}}"#);
        tally.record(NAME, outcome_problems(&hop));
        let full = json(r#"{"ok":false,"code":"queue_full","verb":"submit"}"#);
        tally.record(NAME, submit_ticket(&full).err().into_iter().collect());
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert!(tally.failures[2].contains("queue_full"));
    }

    #[test]
    fn specs_depend_only_on_the_seed() {
        assert_eq!(hot_spec(5, 3), hot_spec(5, 3));
        assert_ne!(hot_spec(5, 3), hot_spec(6, 3));
        assert_ne!(fresh_spec(5, 0, 1), fresh_spec(5, 1, 1));
        assert!(hot_spec(1, 0).parse::<JobSpec>().is_ok());
        assert!(fresh_spec(1, 0, 0).parse::<JobSpec>().is_ok());
    }
}
