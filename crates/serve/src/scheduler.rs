//! Job scheduling: bounded admission, priorities, deadlines, a fixed
//! worker pool, single-flight coalescing, cooperative cancellation,
//! crash-safe journaling, and a self-healing worker supervisor.
//!
//! # Admission and backpressure
//!
//! The queue is bounded ([`ServeConfig::queue_capacity`]). A submission
//! that would overflow it is *rejected at the door* with
//! [`Rejected::QueueFull`] — an explicit signal the client can see and
//! retry on — never silently dropped or unboundedly buffered. Every
//! rejection also emits [`Event::JobRejected`], so a trace with a
//! `job_rejected` line is the ground truth for "the service shed load".
//!
//! # Single-flight coalescing
//!
//! Identical jobs (same [`JobKey`]) are *coalesced*: the first
//! submission enqueues a run; later submissions while it is queued or
//! running attach to the same in-flight entry and share its outcome. N
//! concurrent submissions of one spec cost one simulation. Completed
//! results land in the [`ResultStore`], so later resubmissions are
//! cache hits without any scheduling at all.
//!
//! # Cancellation and deadlines
//!
//! Cancellation reuses the run-loop watchdog plumbing: each job owns an
//! `Arc<AtomicBool>` handed to [`RunSpec::cancel_flag`], which the
//! full-system engine polls every 512 cycles and honours with
//! `SimError::Cancelled`. Because coalesced submissions share one run,
//! cancellation is *interest-counted*: cancelling one ticket detaches
//! that submission; only when the last interested ticket cancels is the
//! flag actually raised (or the queued entry tombstoned).
//!
//! A submission deadline bounds the job's *whole* life, not just its
//! queue wait: a job still queued when it elapses never runs
//! ([`JobOutcome::DeadlineExpired`]), and a job still *running* past it
//! is cooperatively cancelled by the reaper thread through the same
//! flag and finishes as [`JobOutcome::DeadlineExceeded`].
//!
//! # Durability
//!
//! With [`ServeConfig::journal`] set, every fresh admission is appended
//! to a write-ahead [`Journal`] *before* any worker can pick the job
//! up, and every terminal outcome appends a settle record. Together
//! with the result-store spill ([`ServeConfig::spill`]), a restart
//! against the same state directory rebuilds the memo cache and
//! re-enqueues exactly the jobs the previous process admitted but never
//! finished — a kill -9 loses no completed result and re-runs each
//! unfinished job exactly once.
//!
//! # Self-healing
//!
//! Worker threads run under a supervisor: a panic inside a run is
//! caught with `catch_unwind`, the worker is respawned (same OS thread,
//! next incarnation), and the offending job is retried with backoff. A
//! job that kills [`ServeConfig::strike_limit`] workers is quarantined
//! as [`JobOutcome::Poisoned`] instead of being retried forever.
//! Transient [`SimError::Fault`] outcomes are retried up to
//! [`ServeConfig::retry_budget`] times with exponential backoff.
//!
//! # Overload control
//!
//! An [`AdmissionController`] watches queue depth and queue delay on
//! every submission and steps a brownout ladder with hysteresis
//! ([`BrownoutLevel`]). Clients that opt in
//! ([`SubmitParams::allow_degraded`]) may have their reciprocal-mode
//! jobs answered from a cheaper rung of the [`Fidelity`] ladder instead
//! of being rejected: Brownout-1 degrades new low-priority jobs to the
//! calibrated model, Brownout-2 degrades every job whose floor allows
//! it, and a full queue admits degradable jobs at their floor into an
//! overflow region (up to 4x capacity) rather than bouncing them with
//! `queue_full`. Per-client token buckets bound each client's fresh-run
//! rate the same way. Every degraded answer journals an *upgrade
//! intent*: when the queue is empty and the brownout has cleared, idle
//! workers re-run the spec at full fidelity and replace the store entry
//! in place (upgrade-only), emitting [`Event::ResultUpgraded`].
//!
//! [`RunSpec::cancel_flag`]: ra_cosim::RunSpec::cancel_flag
//! [`Event::JobRejected`]: ra_obs::Event::JobRejected
//! [`Event::ResultUpgraded`]: ra_obs::Event::ResultUpgraded

use std::any::Any;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ra_cosim::{ModeSpec, RunResult};
use ra_obs::{Event, ObsSink};
use ra_sim::SimError;

use crate::admission::{AdmissionConfig, AdmissionController, BrownoutLevel, Ewma, TokenBucket};
use crate::journal::{self, Journal, RecoveryReport, UnfinishedJob, UpgradeIntent};
use crate::spec::{Fidelity, JobKey, JobSpec};
use crate::store::{ResultStore, StoreStats, StoredResult};

/// Error bound reported for a pure hop-model answer. It is a conservative
/// constant, not a measured quantile: the hop model's measured latency
/// error is 9.1% mean on one die (EXPERIMENTS.md, A1) and about 36% on the
/// 256-core mesh under `ocean` (perfbench `cosim-mesh256`, `hop_error_pct`
/// in its notes). The paper's 69% in A1 is the error *reduction* that
/// reciprocal abstraction achieves, not an error of the hop model.
pub(crate) const HOP_ERROR_BOUND: f64 = 0.69;

/// Smallest error bound a calibrated-only answer will claim, even when
/// the observed drift EWMA says the models currently agree closely.
const CALIBRATED_ERROR_FLOOR: f64 = 0.15;

/// Scheduling priority. Higher priorities always dequeue first; within a
/// priority the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work (sweeps, prefetching).
    Low,
    /// The default.
    #[default]
    Normal,
    /// Interactive requests.
    High,
}

impl Priority {
    /// Numeric rank for observability events (0 = low, 2 = high).
    pub fn rank(self) -> u64 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(format!("unknown priority `{other}` (low/normal/high)")),
        }
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is at capacity — the backpressure signal.
    /// `depth` is the queue depth the client collided with.
    QueueFull {
        /// Queued jobs at rejection time.
        depth: usize,
    },
    /// The service is shutting down and admits nothing new.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { depth } => {
                write!(f, "admission queue full ({depth} queued); retry later")
            }
            Rejected::ShuttingDown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// How a submission was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Result was already memoized; the ticket is immediately ready.
    CacheHit,
    /// Attached to an identical job already queued or running.
    Coalesced,
    /// Enqueued as a fresh run; `depth` is the queue depth after.
    Enqueued {
        /// Queued jobs after admission.
        depth: usize,
    },
}

impl Disposition {
    /// Wire label (`cached` / `coalesced` / `enqueued`).
    pub fn label(self) -> &'static str {
        match self {
            Disposition::CacheHit => "cached",
            Disposition::Coalesced => "coalesced",
            Disposition::Enqueued { .. } => "enqueued",
        }
    }
}

/// A submission handle: use it with [`JobService::status`],
/// [`JobService::wait`], and [`JobService::cancel`].
pub type Ticket = u64;

/// What [`JobService::submit`] returns on admission.
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    /// Handle for status/wait/cancel.
    pub ticket: Ticket,
    /// Content hash of the submitted spec.
    pub job: JobKey,
    /// How the submission was admitted.
    pub disposition: Disposition,
}

/// Terminal state of a job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The simulation finished (or was already memoized).
    Completed {
        /// The run's results, shared with the cache.
        result: Arc<RunResult>,
        /// True when served from the memo store without simulating.
        cached: bool,
        /// Which rung of the fidelity ladder produced the answer.
        fidelity: Fidelity,
        /// Estimated relative error of the answer for that rung.
        error_bound: f64,
        /// Nanoseconds spent queued before the run started.
        queue_ns: u64,
        /// Nanoseconds spent simulating.
        run_ns: u64,
    },
    /// The simulation errored (budget exhausted, stall, ...).
    Failed {
        /// Rendered `SimError` chain.
        error: String,
    },
    /// Every interested submission cancelled before completion.
    Cancelled,
    /// The job was still queued past its deadline and never ran.
    DeadlineExpired,
    /// The job was *running* past its deadline and was cooperatively
    /// cancelled by the reaper.
    DeadlineExceeded,
    /// The job crashed [`ServeConfig::strike_limit`] workers and was
    /// quarantined instead of retried again.
    Poisoned {
        /// Rendered fault describing the last crash.
        error: String,
    },
}

impl JobOutcome {
    /// Stable label for wire responses and [`Event::JobDone`].
    ///
    /// [`Event::JobDone`]: ra_obs::Event::JobDone
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed { cached: true, .. } => "cached",
            JobOutcome::Completed { cached: false, .. } => "completed",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::DeadlineExpired => "deadline_expired",
            JobOutcome::DeadlineExceeded => "deadline_exceeded",
            JobOutcome::Poisoned { .. } => "poisoned",
        }
    }
}

/// Non-terminal view of a job for the `status` verb.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the admission queue.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; the outcome is ready to collect.
    Done(JobOutcome),
}

impl JobStatus {
    /// Stable label for wire responses.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(outcome) => outcome.label(),
        }
    }
}

/// Why [`JobService::wait`] returned without an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// No such ticket (never issued, or already collected/cancelled).
    UnknownTicket,
    /// The timeout elapsed first; the ticket stays valid.
    TimedOut,
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitError::UnknownTicket => f.write_str("unknown ticket"),
            WaitError::TimedOut => f.write_str("timed out waiting for the job"),
        }
    }
}

impl std::error::Error for WaitError {}

/// What [`JobService::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// This was the last interested ticket of a *queued* job: it will
    /// never run.
    Cancelled,
    /// This was the last interested ticket of a *running* job: the halt
    /// flag is raised and the engine will stop at the next poll.
    Signalled,
    /// Other submissions still want the job; only this ticket detached.
    Detached,
    /// The job had already finished; the ticket was simply collected.
    AlreadyDone,
}

/// Deterministic failure injection for chaos drills and the supervisor
/// tests: matching is by workload seed, so a test can aim a crash at
/// exactly one job without touching the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Jobs whose spec seed is listed here panic the worker instead of
    /// running (every attempt — what the strike limit is for).
    pub panic_on_seeds: Vec<u64>,
    /// Jobs whose spec seed is listed here fail with a transient
    /// [`SimError::Fault`] while their attempt number is at most
    /// [`fault_attempts`](ChaosConfig::fault_attempts).
    pub fault_on_seeds: Vec<u64>,
    /// How many leading attempts of a `fault_on_seeds` job fault.
    pub fault_attempts: u32,
}

impl ChaosConfig {
    /// True when no fault injection is configured (the default).
    pub fn is_quiet(&self) -> bool {
        self.panic_on_seeds.is_empty() && self.fault_on_seeds.is_empty()
    }
}

/// Per-submission knobs beyond the spec itself. The 3-argument
/// [`JobService::submit`] fills the degradation fields with their
/// defaults (no client id, degradation not allowed), which is exactly
/// the pre-overload-control behaviour.
#[derive(Debug, Clone, Default)]
pub struct SubmitParams {
    /// Scheduling priority.
    pub priority: Priority,
    /// Whole-life deadline (queue wait + run).
    pub deadline: Option<Duration>,
    /// Client identity for per-client quota buckets (`None` = anonymous,
    /// never quota-limited).
    pub client: Option<String>,
    /// Whether the service may answer from a cheaper fidelity rung
    /// under overload instead of rejecting.
    pub allow_degraded: bool,
    /// The cheapest rung the client will accept when degraded
    /// (`None` = [`Fidelity::Hop`], i.e. anything). Ignored unless
    /// `allow_degraded`.
    pub min_fidelity: Option<Fidelity>,
}

impl SubmitParams {
    /// The cheapest fidelity this submission will accept: `Reciprocal`
    /// unless degradation is allowed (and the spec's mode has cheaper
    /// rungs at all).
    fn floor(&self, spec: &JobSpec) -> Fidelity {
        if self.allow_degraded && Fidelity::degradable(&spec.mode) {
            self.min_fidelity.unwrap_or(Fidelity::Hop)
        } else {
            Fidelity::Reciprocal
        }
    }
}

/// Tuning knobs for [`JobService::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded admission-queue capacity (queued, not running, jobs).
    pub queue_capacity: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Result-cache lock shards.
    pub cache_shards: usize,
    /// Optional framed spill log for completed results; replayed on
    /// startup to rebuild the memo cache.
    pub spill: Option<PathBuf>,
    /// Optional write-ahead job journal; replayed on startup to
    /// re-enqueue admitted-but-unfinished jobs.
    pub journal: Option<PathBuf>,
    /// fsync the journal and spill after every N records (0 = flush
    /// only, letting the OS decide when bytes reach the platter).
    pub fsync_every: u64,
    /// Rewrite the journal to just the live admissions once the file
    /// exceeds this many bytes (0 = compact only at startup). Keeps a
    /// long-running service's journal proportional to outstanding work
    /// instead of uptime.
    pub journal_compact_bytes: u64,
    /// Retries allowed for a transient (`SimError::Fault`) outcome
    /// before the job finishes as failed.
    pub retry_budget: u32,
    /// Base delay before a retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Worker crashes one job may cause before it is quarantined as
    /// [`JobOutcome::Poisoned`].
    pub strike_limit: u32,
    /// Deterministic failure injection (quiet by default).
    pub chaos: ChaosConfig,
    /// Brownout-controller thresholds and hysteresis.
    pub admission: AdmissionConfig,
    /// Per-client fresh-run quota: sustained admissions per second
    /// (0 = unlimited, the default). Applies only to submissions that
    /// carry a [`SubmitParams::client`] id.
    pub quota_rate: f64,
    /// Per-client quota burst (token-bucket capacity). Ignored when
    /// `quota_rate` is 0.
    pub quota_burst: f64,
    /// Whether idle workers drain journaled upgrade intents, re-running
    /// degraded answers at full fidelity (on by default; the
    /// determinism drills turn it off to pin per-tier results).
    pub background_upgrades: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            spill: None,
            journal: None,
            fsync_every: 8,
            journal_compact_bytes: 1 << 20,
            retry_budget: 2,
            retry_backoff: Duration::from_millis(10),
            strike_limit: 2,
            chaos: ChaosConfig::default(),
            admission: AdmissionConfig::default(),
            quota_rate: 0.0,
            quota_burst: 8.0,
            background_upgrades: true,
        }
    }
}

/// Counter snapshot for the `stats` verb and the smoke tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions received (including rejected ones).
    pub submitted: u64,
    /// Fresh runs admitted to the queue.
    pub admitted: u64,
    /// Submissions rejected with [`Rejected::QueueFull`].
    pub rejected: u64,
    /// Submissions attached to an in-flight identical job.
    pub coalesced: u64,
    /// Submissions served straight from the result store.
    pub cache_hits: u64,
    /// Runs that completed successfully.
    pub completed: u64,
    /// Runs that errored.
    pub failed: u64,
    /// Jobs cancelled before or during their run.
    pub cancelled: u64,
    /// Jobs that expired in the queue.
    pub expired: u64,
    /// Running jobs cooperatively cancelled at their deadline.
    pub deadline_exceeded: u64,
    /// Jobs quarantined after crashing too many workers.
    pub poisoned: u64,
    /// Transient-failure retries scheduled.
    pub retries: u64,
    /// Worker respawns after a caught panic.
    pub respawns: u64,
    /// Runtime journal compactions (size-threshold triggered).
    pub journal_compactions: u64,
    /// Results rebuilt from the spill log at startup.
    pub recovered_results: u64,
    /// Journaled-but-unfinished jobs re-enqueued at startup.
    pub resumed_jobs: u64,
    /// Speculative quanta committed across all completed pipelined runs.
    pub spec_commits: u64,
    /// Speculative quanta rolled back across all completed pipelined runs.
    pub spec_rollbacks: u64,
    /// Submissions shed by overload control (quota or full queue with no
    /// degradation headroom). Every shed also counts in `rejected`.
    pub shed: u64,
    /// Runs published below full fidelity.
    pub degraded: u64,
    /// Degraded answers re-run at full fidelity by the background
    /// upgrader.
    pub upgraded: u64,
    /// Upgrade intents waiting for an idle worker.
    pub upgrades_pending: u64,
    /// Current brownout level (0 = normal, 1, 2).
    pub brownout: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Result-store counters.
    pub store: StoreStats,
}

/// What startup recovery found, for the `ra-serve` banner and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Results rebuilt from the spill log.
    pub recovered_results: u64,
    /// Intact records read from the journal.
    pub journal_records: u64,
    /// Unfinished jobs re-enqueued.
    pub resumed_jobs: u64,
    /// Torn-tail bytes dropped across both logs.
    pub dropped_tail_bytes: u64,
    /// Checksum mismatches across both logs.
    pub checksum_errors: u64,
}

type JobId = u64;

#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    Done(JobOutcome),
}

struct JobCell {
    spec: JobSpec,
    key: JobKey,
    deadline: Option<Instant>,
    submitted: Instant,
    cancel: Arc<AtomicBool>,
    phase: Phase,
    /// Live submissions (tickets not yet collected or cancelled).
    interest: usize,
    /// Priority it was admitted at (retries requeue at the same one).
    priority: Priority,
    /// Times a worker has started running it.
    attempts: u32,
    /// Workers it has crashed (quarantine at `strike_limit`).
    strikes: u32,
    /// Backoff gate: not runnable before this instant.
    not_before: Option<Instant>,
    /// The reaper already raised the cancel flag for its deadline.
    deadline_fired: bool,
    /// Fidelity rung the next run will execute at (brownout planning).
    planned: Fidelity,
    /// Cheapest rung any attached submission will accept: the max of
    /// every waiter's floor. A publish below this re-enqueues the job.
    floor: Fidelity,
    /// A background upgrade re-run (interest starts at 0, results
    /// publish through the store's upgrade-only rule).
    is_upgrade: bool,
}

/// Max-heap slot: higher priority first, then FIFO by sequence number.
#[derive(PartialEq, Eq)]
struct QueueSlot {
    priority: Priority,
    seq: u64,
    job: JobId,
}

impl Ord for QueueSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueueSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct State {
    queue: BinaryHeap<QueueSlot>,
    cells: HashMap<JobId, JobCell>,
    /// key -> queued-or-running job, for single-flight coalescing.
    inflight: HashMap<u64, JobId>,
    tickets: HashMap<Ticket, JobId>,
    /// worker id -> the job it is currently running (what the panic
    /// supervisor uses to find the victim).
    running: HashMap<usize, JobId>,
    next_id: u64,
    next_seq: u64,
    /// Live (non-tombstoned) queued jobs — what `queue_capacity` bounds.
    queued: usize,
    shutting_down: bool,
    stats: ServiceStats,
    /// The brownout controller (pressure EWMA + hysteresis).
    admission: AdmissionController,
    /// Per-client fresh-run token buckets.
    quotas: HashMap<String, TokenBucket>,
    /// Upgrade intents awaiting an idle worker, FIFO.
    upgrades: VecDeque<UpgradeIntent>,
    /// Keys currently in `upgrades` (dedup on repeated degraded runs).
    upgrade_keys: HashSet<u64>,
    /// EWMA of the relative coupler drift observed on full-fidelity
    /// runs, feeding the calibrated tier's error-bound estimate.
    drift: Ewma,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers when work arrives or shutdown starts.
    work_cv: Condvar,
    /// Wakes `wait`ers whenever any job reaches a terminal phase.
    done_cv: Condvar,
    /// Wakes the deadline reaper when a deadline-bearing job arrives.
    reaper_cv: Condvar,
    store: ResultStore,
    obs: ObsSink,
    journal: Option<Journal>,
    config: ServeConfig,
    recovery: RecoveryInfo,
    /// Epoch for the token buckets' injected clock.
    started: Instant,
}

/// A multi-worker simulation-job service: canonical [`JobSpec`]s in,
/// memoized [`RunResult`]s out.
///
/// ```
/// use ra_serve::{JobService, ServeConfig};
///
/// let service = JobService::start(ServeConfig::default(), ra_obs::ObsSink::disabled())?;
/// let spec = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000"
///     .parse::<ra_serve::JobSpec>()
///     .map_err(|e| std::io::Error::other(e.to_string()))?;
/// let receipt = service.submit(spec, Default::default(), None).expect("admitted");
/// let outcome = service.wait(receipt.ticket, None).expect("completes");
/// assert_eq!(outcome.label(), "completed");
/// service.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct JobService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl JobService {
    /// Spawns the worker pool and the deadline reaper, after replaying
    /// any configured spill log and journal (warm restart): memoized
    /// results are rebuilt, admitted-but-unfinished jobs re-enqueued,
    /// and the journal compacted to exactly those jobs.
    ///
    /// # Errors
    ///
    /// Propagates spill/journal open, replay, and compaction failures.
    pub fn start(config: ServeConfig, obs: ObsSink) -> std::io::Result<JobService> {
        let mut store = ResultStore::new(config.cache_capacity, config.cache_shards);
        let mut recovery = RecoveryInfo::default();
        let mut frames = RecoveryReport::default();
        if let Some(path) = &config.spill {
            let report = store.warm_from_spill(path)?;
            recovery.recovered_results = report.recovered_records;
            frames.absorb(report);
            store = store.with_spill(path, config.fsync_every)?;
        }
        let mut journal = None;
        let mut resumed: Vec<UnfinishedJob> = Vec::new();
        let mut owed_upgrades: Vec<UpgradeIntent> = Vec::new();
        if let Some(path) = &config.journal {
            let replayed = journal::replay(path)?;
            recovery.journal_records = replayed.report.recovered_records;
            frames.absorb(replayed.report);
            // An unfinished job whose result came back with the spill
            // replay only lost its settle record; it is already done.
            resumed = replayed
                .unfinished
                .into_iter()
                .filter(|u| !store.contains(u.key))
                .collect();
            // An upgrade intent whose store entry is already full
            // fidelity (or gone — nothing to upgrade) only lost its
            // `upgraded` record; the debt is paid.
            owed_upgrades = replayed
                .pending_upgrades
                .into_iter()
                .filter(|u| store.fidelity_of(u.key).is_some_and(|f| f < Fidelity::Reciprocal))
                .collect();
            journal::compact(path, &resumed, &owed_upgrades)?;
            journal = Some(Journal::open(path, config.fsync_every)?);
        }
        // Re-parse resumed specs; a spec this build can no longer parse
        // (foreign or stale journal) is dropped rather than wedging the
        // queue forever.
        let seeds: Vec<(JobSpec, Priority)> = resumed
            .into_iter()
            .filter_map(|u| u.spec.parse::<JobSpec>().ok().map(|s| (s, u.priority)))
            .collect();
        recovery.resumed_jobs = seeds.len() as u64;
        recovery.dropped_tail_bytes = frames.dropped_tail_bytes;
        recovery.checksum_errors = frames.checksum_errors;

        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            reaper_cv: Condvar::new(),
            store,
            obs,
            journal,
            config: config.clone(),
            recovery,
            started: Instant::now(),
        });
        {
            let mut st = lock_state(&inner);
            st.admission = AdmissionController::new(config.admission.clone());
            for intent in owed_upgrades {
                st.upgrade_keys.insert(intent.key.0);
                st.upgrades.push_back(intent);
            }
            st.stats.upgrades_pending = st.upgrades.len() as u64;
            let now = Instant::now();
            for (spec, priority) in seeds {
                let key = spec.job_hash();
                let job = st.next_id;
                st.next_id += 1;
                st.cells.insert(
                    job,
                    JobCell {
                        spec,
                        key,
                        deadline: None,
                        submitted: now,
                        cancel: Arc::new(AtomicBool::new(false)),
                        phase: Phase::Queued,
                        // No ticket survives a restart; the cell frees
                        // itself when done. New submissions of the same
                        // spec coalesce onto it as usual.
                        interest: 0,
                        priority,
                        attempts: 0,
                        strikes: 0,
                        not_before: None,
                        deadline_fired: false,
                        // Resumed jobs re-run at full fidelity: the
                        // original submitter's degradation consent did
                        // not survive the restart, so the safe floor is
                        // the spec's own mode.
                        planned: Fidelity::Reciprocal,
                        floor: Fidelity::Reciprocal,
                        is_upgrade: false,
                    },
                );
                st.inflight.insert(key.0, job);
                let seq = st.next_seq;
                st.next_seq += 1;
                st.queue.push(QueueSlot { priority, seq, job });
                st.queued += 1;
            }
            st.stats.recovered_results = recovery.recovered_results;
            st.stats.resumed_jobs = recovery.resumed_jobs;
        }
        if config.spill.is_some() || config.journal.is_some() {
            inner.obs.emit(|| Event::JournalReplay {
                recovered_results: recovery.recovered_results,
                resumed_jobs: recovery.resumed_jobs,
                dropped_tail_bytes: recovery.dropped_tail_bytes,
                checksum_errors: recovery.checksum_errors,
            });
        }
        let mut workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("ra-serve-worker-{i}"))
                    .spawn(move || supervise(&inner, i))
                    .expect("spawn worker")
            })
            .collect();
        {
            let inner = inner.clone();
            workers.push(
                std::thread::Builder::new()
                    .name("ra-serve-reaper".to_owned())
                    .spawn(move || reaper_loop(&inner))
                    .expect("spawn reaper"),
            );
        }
        Ok(JobService { inner, workers })
    }

    /// Submits a job. `deadline` bounds the job's whole life: still
    /// queued when it elapses → [`JobOutcome::DeadlineExpired`] without
    /// running; still *running* when it elapses → cooperatively
    /// cancelled and [`JobOutcome::DeadlineExceeded`].
    ///
    /// Degradation is off for this entry point; see
    /// [`submit_with`](JobService::submit_with) for the overload-aware
    /// vocabulary.
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`] when the admission queue is at capacity
    /// (the backpressure signal), [`Rejected::ShuttingDown`] after
    /// [`shutdown`](JobService::shutdown) began.
    pub fn submit(
        &self,
        spec: JobSpec,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<SubmitReceipt, Rejected> {
        self.submit_with(
            spec,
            SubmitParams {
                priority,
                deadline,
                ..SubmitParams::default()
            },
        )
    }

    /// Submits a job with the full overload-control vocabulary: client
    /// identity for quota buckets, and degradation consent
    /// (`allow_degraded` + `min_fidelity`). A consenting submission is
    /// never bounced with `queue_full`: under brownout or a full queue
    /// it is planned at a cheaper fidelity rung instead (down to its
    /// floor), and the degraded answer is journaled for a background
    /// full-fidelity upgrade.
    ///
    /// # Errors
    ///
    /// As [`submit`](JobService::submit); additionally, a submission
    /// over its client quota that cannot degrade is shed with
    /// [`Rejected::QueueFull`].
    pub fn submit_with(
        &self,
        spec: JobSpec,
        params: SubmitParams,
    ) -> Result<SubmitReceipt, Rejected> {
        let key = spec.job_hash();
        let now = Instant::now();
        let priority = params.priority;
        let floor = params.floor(&spec);
        let degradable = params.allow_degraded && Fidelity::degradable(&spec.mode);
        let mut st = self.lock();
        if st.shutting_down {
            return Err(Rejected::ShuttingDown);
        }
        st.stats.submitted += 1;

        // Feed the brownout controller one pressure observation per
        // submission; its level decides the fidelity planning below.
        let capacity = self.inner.config.queue_capacity;
        let queued_now = st.queued;
        let level_change = st.admission.update(queued_now, capacity);
        if let Some(change) = level_change {
            st.stats.brownout = u64::from(change.to.level());
            self.inner.obs.emit(|| {
                if change.to.level() > change.from.level() {
                    Event::BrownoutEnter {
                        level: u64::from(change.to.level()),
                        pressure: change.pressure,
                    }
                } else {
                    Event::BrownoutExit {
                        level: u64::from(change.to.level()),
                        pressure: change.pressure,
                    }
                }
            });
        }

        // Tier 1: the memo store — a hit must meet the caller's floor.
        // (Lock order is always state -> store.)
        if let Some(stored) = self.inner.store.get(key) {
            if stored.fidelity >= floor {
                st.stats.cache_hits += 1;
                let ticket = new_cell(
                    &mut st,
                    spec,
                    key,
                    None,
                    now,
                    priority,
                    Phase::Done(JobOutcome::Completed {
                        result: stored.result,
                        cached: true,
                        fidelity: stored.fidelity,
                        error_bound: stored.error_bound,
                        queue_ns: 0,
                        run_ns: 0,
                    }),
                    floor,
                );
                drop(st);
                self.inner.obs.emit(|| Event::CacheHit { job: key.0 });
                // The outcome is already terminal; let sleeping waiters of
                // other tickets coexist — only this ticket's waiter matters,
                // and it will observe Done immediately.
                return Ok(SubmitReceipt {
                    ticket,
                    job: key,
                    disposition: Disposition::CacheHit,
                });
            }
            // A cached answer below the floor is a miss for this caller;
            // fall through to coalesce/admit a better run.
        }

        // Tier 2: single-flight — attach to an identical in-flight job,
        // raising its floor (and, while still queued, its plan) to ours.
        if let Some(&job) = st.inflight.get(&key.0) {
            let ticket = st.next_id;
            st.next_id += 1;
            st.tickets.insert(ticket, job);
            let cell = st.cells.get_mut(&job).expect("inflight cell");
            cell.interest += 1;
            if floor > cell.floor {
                cell.floor = floor;
            }
            if cell.planned < cell.floor && matches!(cell.phase, Phase::Queued) {
                cell.planned = cell.floor;
            }
            st.stats.coalesced += 1;
            drop(st);
            self.inner.obs.emit(|| Event::CacheHit { job: key.0 });
            return Ok(SubmitReceipt {
                ticket,
                job: key,
                disposition: Disposition::Coalesced,
            });
        }

        // Per-client quota: a fresh run costs one token. Over-quota
        // submissions degrade to their floor when allowed, else shed.
        let mut planned = Fidelity::Reciprocal;
        let mut degrade_cause: Option<&'static str> = None;
        if self.inner.config.quota_rate > 0.0 {
            if let Some(client) = &params.client {
                let now_ns = elapsed_ns(self.inner.started, now);
                let rate = self.inner.config.quota_rate;
                let burst = self.inner.config.quota_burst;
                let bucket = st
                    .quotas
                    .entry(client.clone())
                    .or_insert_with(|| TokenBucket::new(burst, rate));
                if !bucket.try_take(now_ns, 1.0) {
                    if degradable {
                        planned = floor;
                        degrade_cause = Some("quota");
                    } else {
                        let depth = st.queued;
                        st.stats.rejected += 1;
                        st.stats.shed += 1;
                        drop(st);
                        self.inner.obs.emit(|| Event::JobShed {
                            job: key.0,
                            client: client.clone(),
                            queue_depth: depth as u64,
                        });
                        return Err(Rejected::QueueFull { depth });
                    }
                }
            }
        }

        // Brownout planning: level 1 degrades new low-priority work to
        // the calibrated model, level 2 degrades everything consenting
        // down to its floor.
        if degradable && degrade_cause.is_none() {
            match st.admission.level() {
                BrownoutLevel::Normal => {}
                BrownoutLevel::Brownout1 if priority == Priority::Low => {
                    planned = Fidelity::Calibrated.max(floor);
                    degrade_cause = Some("brownout1");
                }
                BrownoutLevel::Brownout1 => {}
                BrownoutLevel::Brownout2 => {
                    planned = floor;
                    degrade_cause = Some("brownout2");
                }
            }
        }

        // Tier 3: a fresh run — subject to bounded admission. Degradable
        // jobs that collide with a full queue are not bounced: they are
        // forced to their floor and admitted into an overflow region
        // (4x capacity), because a floor-fidelity run costs milliseconds.
        if st.queued >= capacity {
            if degradable && st.queued < capacity.saturating_mul(4) {
                planned = floor;
                degrade_cause = Some("queue_full");
            } else {
                let depth = st.queued;
                st.stats.rejected += 1;
                st.stats.shed += 1;
                let client = params.client.clone().unwrap_or_default();
                drop(st);
                self.inner.obs.emit(|| Event::JobRejected {
                    job: key.0,
                    queue_depth: depth as u64,
                });
                self.inner.obs.emit(|| Event::JobShed {
                    job: key.0,
                    client,
                    queue_depth: depth as u64,
                });
                return Err(Rejected::QueueFull { depth });
            }
        }
        let canonical = spec.canonical();
        let has_deadline = params.deadline.is_some();
        let ticket = new_cell(
            &mut st,
            spec,
            key,
            params.deadline.map(|d| now + d),
            now,
            priority,
            Phase::Queued,
            floor,
        );
        let job = st.tickets[&ticket];
        if let Some(cell) = st.cells.get_mut(&job) {
            cell.planned = planned.max(floor);
        }
        st.inflight.insert(key.0, job);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push(QueueSlot { priority, seq, job });
        st.queued += 1;
        st.stats.admitted += 1;
        let depth = st.queued;
        // Write-ahead: the admit record lands while the state lock still
        // blocks every worker from popping the job.
        if let Some(journal) = &self.inner.journal {
            journal.admit(key, &canonical, priority);
        }
        drop(st);
        self.inner.work_cv.notify_one();
        if has_deadline {
            self.inner.reaper_cv.notify_all();
        }
        if let Some(cause) = degrade_cause {
            let fidelity = planned.name().to_owned();
            self.inner.obs.emit(|| Event::JobDegraded {
                job: key.0,
                fidelity,
                cause: cause.to_owned(),
            });
        }
        self.inner.obs.emit(|| Event::JobAdmitted {
            job: key.0,
            queue_depth: depth as u64,
            priority: priority.rank(),
        });
        Ok(SubmitReceipt {
            ticket,
            job: key,
            disposition: Disposition::Enqueued { depth },
        })
    }

    /// Non-consuming snapshot of a ticket's job, or `None` for an
    /// unknown (or already collected) ticket.
    pub fn status(&self, ticket: Ticket) -> Option<JobStatus> {
        let st = self.lock();
        let cell = st.cells.get(st.tickets.get(&ticket)?)?;
        Some(match &cell.phase {
            Phase::Queued => JobStatus::Queued,
            Phase::Running => JobStatus::Running,
            Phase::Done(outcome) => JobStatus::Done(outcome.clone()),
        })
    }

    /// Blocks until the ticket's job finishes, then *collects* the
    /// ticket (it stops resolving afterwards). `None` waits forever.
    ///
    /// # Errors
    ///
    /// [`WaitError::TimedOut`] leaves the ticket collectable later;
    /// [`WaitError::UnknownTicket`] means it never existed or was
    /// already collected.
    pub fn wait(&self, ticket: Ticket, timeout: Option<Duration>) -> Result<JobOutcome, WaitError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.lock();
        loop {
            let job = *st.tickets.get(&ticket).ok_or(WaitError::UnknownTicket)?;
            let cell = st.cells.get(&job).ok_or(WaitError::UnknownTicket)?;
            if let Phase::Done(outcome) = &cell.phase {
                let outcome = outcome.clone();
                collect_ticket(&mut st, ticket);
                return Ok(outcome);
            }
            st = match deadline {
                None => self
                    .inner
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let left = deadline
                        .checked_duration_since(Instant::now())
                        .ok_or(WaitError::TimedOut)?;
                    let (guard, timeout) = self
                        .inner
                        .done_cv
                        .wait_timeout(st, left)
                        .unwrap_or_else(|e| e.into_inner());
                    if timeout.timed_out() {
                        return Err(WaitError::TimedOut);
                    }
                    guard
                }
            };
        }
    }

    /// Withdraws this ticket's interest in its job and collects the
    /// ticket. The job itself is only cancelled when *no* submission
    /// remains interested (see the module docs). Returns `None` for an
    /// unknown ticket.
    pub fn cancel(&self, ticket: Ticket) -> Option<CancelOutcome> {
        let mut st = self.lock();
        let job = *st.tickets.get(&ticket)?;
        let (outcome, key) = {
            let cell = st.cells.get_mut(&job)?;
            let last = cell.interest <= 1;
            let outcome = match &cell.phase {
                Phase::Done(_) => CancelOutcome::AlreadyDone,
                _ if !last => CancelOutcome::Detached,
                Phase::Queued => {
                    // Tombstone: the heap slot stays; workers skip it.
                    cell.phase = Phase::Done(JobOutcome::Cancelled);
                    CancelOutcome::Cancelled
                }
                Phase::Running => {
                    cell.cancel.store(true, Ordering::Relaxed);
                    CancelOutcome::Signalled
                }
            };
            (outcome, cell.key)
        };
        if outcome == CancelOutcome::Cancelled {
            st.inflight.remove(&key.0);
            st.queued -= 1;
            st.stats.cancelled += 1;
            if let Some(journal) = &self.inner.journal {
                journal.settle(key, "cancelled");
            }
            maybe_compact_journal(&self.inner, &mut st);
        }
        collect_ticket(&mut st, ticket);
        drop(st);
        if outcome == CancelOutcome::Cancelled {
            self.inner.done_cv.notify_all();
        }
        Some(outcome)
    }

    /// Counter snapshot (service + store).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = {
            let st = self.lock();
            let mut stats = st.stats;
            stats.queue_depth = st.queued;
            stats.upgrades_pending = st.upgrades.len() as u64;
            stats.brownout = u64::from(st.admission.level().level());
            stats
        };
        stats.store = self.inner.store.stats();
        stats
    }

    /// What startup recovery found (zeroes when no state was configured).
    pub fn recovery(&self) -> RecoveryInfo {
        self.inner.recovery
    }

    /// The sink service events and per-job run spans are emitted into.
    pub fn obs(&self) -> &ObsSink {
        &self.inner.obs
    }

    /// Graceful-shutdown half: stops admissions, then waits up to
    /// `timeout` for the queue to empty and every running job to
    /// publish. Returns `true` when fully drained. Either way the
    /// journal and spill are flushed and fsynced before returning, so a
    /// follow-up exit (or even a kill) loses nothing that finished.
    ///
    /// Call [`shutdown`](JobService::shutdown) (or drop) afterwards to
    /// join the workers.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        st.shutting_down = true;
        self.inner.work_cv.notify_all();
        self.inner.reaper_cv.notify_all();
        let drained = loop {
            if st.queued == 0 && st.running.is_empty() {
                break true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break false;
            };
            let (guard, _) = self
                .inner
                .done_cv
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        };
        drop(st);
        self.sync_durability();
        drained
    }

    /// Stops admitting, drains the queue, and joins every worker.
    /// Queued jobs still run to completion; to abandon one instead,
    /// [`cancel`](JobService::cancel) it first.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        self.join_and_sync();
    }

    fn begin_shutdown(&self) {
        self.lock().shutting_down = true;
        self.inner.work_cv.notify_all();
        self.inner.reaper_cv.notify_all();
    }

    fn join_and_sync(&mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.sync_durability();
    }

    fn sync_durability(&self) {
        let _ = self.inner.store.sync_spill();
        if let Some(journal) = &self.inner.journal {
            let _ = journal.sync();
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        lock_state(&self.inner)
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.begin_shutdown();
        self.join_and_sync();
    }
}

/// Locks the service state, recovering from poison: a worker panic is a
/// supervised event here, not a reason to wedge the whole service. The
/// state is consistent at every await point inside the lock, so the
/// poisoned guard is safe to adopt.
fn lock_state(inner: &Inner) -> MutexGuard<'_, State> {
    inner.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Exponential backoff for attempt N (1-based): `base * 2^(N-1)`,
/// shift-capped so a pathological attempt count cannot overflow.
pub(crate) fn backoff_delay(base: Duration, attempts: u32) -> Duration {
    base.saturating_mul(1u32 << attempts.saturating_sub(1).min(10))
}

fn journal_settle(inner: &Inner, key: JobKey, outcome: &str) {
    if let Some(journal) = &inner.journal {
        journal.settle(key, outcome);
    }
}

/// Runtime journal compaction: once the file outgrows
/// [`ServeConfig::journal_compact_bytes`], rewrite it to just the live
/// admissions with the same tmp + fsync + rename discipline as startup.
/// Called with the state lock held, so the unfinished set cannot drift
/// between collection and the rewrite (the lock also orders this
/// against every admit/settle append).
fn maybe_compact_journal(inner: &Inner, st: &mut State) {
    let threshold = inner.config.journal_compact_bytes;
    if threshold == 0 {
        return;
    }
    let Some(journal) = &inner.journal else {
        return;
    };
    if journal.len_bytes() < threshold {
        return;
    }
    let mut live: Vec<(JobId, UnfinishedJob)> = st
        .inflight
        .values()
        .filter(|&&job| st.cells.get(&job).is_none_or(|cell| !cell.is_upgrade))
        .filter_map(|&job| {
            st.cells.get(&job).map(|cell| {
                (
                    job,
                    UnfinishedJob {
                        key: cell.key,
                        spec: cell.spec.canonical(),
                        priority: cell.priority,
                    },
                )
            })
        })
        .collect();
    // Admission order: job ids are allocated monotonically.
    live.sort_by_key(|&(job, _)| job);
    let unfinished: Vec<UnfinishedJob> = live.into_iter().map(|(_, job)| job).collect();
    // Outstanding upgrade debt survives compaction: the queued intents
    // plus any upgrade cell currently running (its `upgraded` record
    // hasn't landed yet).
    let mut upgrades: Vec<UpgradeIntent> = st.upgrades.iter().cloned().collect();
    for cell in st.cells.values() {
        if cell.is_upgrade && !matches!(cell.phase, Phase::Done(_)) {
            upgrades.push(UpgradeIntent {
                key: cell.key,
                spec: cell.spec.canonical(),
            });
        }
    }
    if journal.compact_live(&unfinished, &upgrades).is_ok() {
        st.stats.journal_compactions += 1;
    }
}

/// Allocates a cell + first ticket; returns the ticket.
#[allow(clippy::too_many_arguments)]
fn new_cell(
    st: &mut State,
    spec: JobSpec,
    key: JobKey,
    deadline: Option<Instant>,
    submitted: Instant,
    priority: Priority,
    phase: Phase,
    floor: Fidelity,
) -> Ticket {
    let job = st.next_id;
    let ticket = st.next_id + 1;
    st.next_id += 2;
    st.cells.insert(
        job,
        JobCell {
            spec,
            key,
            deadline,
            submitted,
            cancel: Arc::new(AtomicBool::new(false)),
            phase,
            interest: 1,
            priority,
            attempts: 0,
            strikes: 0,
            not_before: None,
            deadline_fired: false,
            planned: Fidelity::Reciprocal,
            floor,
            is_upgrade: false,
        },
    );
    st.tickets.insert(ticket, job);
    ticket
}

/// Removes a ticket; frees the cell once it is terminal and no ticket
/// references it (bounding service memory by *live* submissions).
fn collect_ticket(st: &mut State, ticket: Ticket) {
    let Some(job) = st.tickets.remove(&ticket) else {
        return;
    };
    if let Some(cell) = st.cells.get_mut(&job) {
        cell.interest = cell.interest.saturating_sub(1);
        if cell.interest == 0 && matches!(cell.phase, Phase::Done(_)) {
            st.cells.remove(&job);
        }
    }
}

/// The worker supervisor: runs [`worker_loop`] under `catch_unwind`,
/// and on a panic recovers the victim job and re-enters the loop as the
/// next incarnation of the same worker — the pool never shrinks. (This
/// relies on unwinding panics; the release profile must not set
/// `panic = "abort"`, which `Cargo.toml` documents.)
fn supervise(inner: &Inner, worker_id: usize) {
    let mut incarnation: u64 = 0;
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(inner, worker_id)
        })) {
            Ok(()) => return, // clean shutdown
            Err(payload) => {
                incarnation += 1;
                let detail = panic_message(payload.as_ref());
                recover_from_panic(inner, worker_id, incarnation, detail);
            }
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// Post-panic cleanup for one worker: charge a strike to the job it was
/// running, requeue it with backoff — or quarantine it as `Poisoned`
/// once it has crossed the strike limit — and account the respawn.
fn recover_from_panic(inner: &Inner, worker_id: usize, incarnation: u64, detail: String) {
    let now = Instant::now();
    let mut st = lock_state(inner);
    st.stats.respawns += 1;
    let victim = st.running.remove(&worker_id);
    let mut victim_key: u64 = 0;
    let mut quarantined: Option<(JobKey, u64, u64)> = None;
    if let Some(job) = victim {
        if let Some(cell) = st.cells.get_mut(&job) {
            victim_key = cell.key.0;
            cell.strikes += 1;
            if cell.strikes >= inner.config.strike_limit.max(1) {
                let key = cell.key;
                let strikes = u64::from(cell.strikes);
                let queue_ns = elapsed_ns(cell.submitted, now);
                cell.phase = Phase::Done(JobOutcome::Poisoned {
                    error: SimError::Fault {
                        component: format!("serve worker {worker_id}"),
                        detail: detail.clone(),
                    }
                    .to_string(),
                });
                let free = cell.interest == 0;
                if free {
                    st.cells.remove(&job);
                }
                st.inflight.remove(&key.0);
                st.stats.poisoned += 1;
                quarantined = Some((key, strikes, queue_ns));
            } else {
                cell.phase = Phase::Queued;
                cell.not_before = Some(now + backoff_delay(inner.config.retry_backoff, cell.attempts));
                let priority = cell.priority;
                let seq = st.next_seq;
                st.next_seq += 1;
                st.queue.push(QueueSlot { priority, seq, job });
                st.queued += 1;
            }
        }
    }
    // Settle *before* releasing the state lock: the journal append must
    // be ordered against any concurrent compaction snapshot (which runs
    // under this lock). Settling after `drop(st)` let a compaction
    // rewrite the file from a snapshot that no longer listed this job
    // and then have the straggling settle record appended for a key the
    // compacted journal never admitted — replay then refused the frame.
    if let Some((key, _, _)) = quarantined {
        journal_settle(inner, key, "poisoned");
        maybe_compact_journal(inner, &mut st);
    }
    drop(st);
    if let Some((key, strikes, queue_ns)) = quarantined {
        inner.obs.emit(|| Event::JobQuarantined {
            job: key.0,
            strikes,
        });
        finish(inner, key, "poisoned", queue_ns, 0, (0, 0));
    }
    inner.obs.emit(|| Event::WorkerRespawn {
        worker: worker_id as u64,
        incarnation,
        job: victim_key,
    });
    inner.work_cv.notify_all();
    inner.done_cv.notify_all();
}

fn worker_loop(inner: &Inner, worker_id: usize) {
    loop {
        // Phase 1: pop the next runnable job — skipping tombstones,
        // expiring the dead, and deferring backoff-gated retries.
        let mut st = lock_state(inner);
        let (job, key, spec, cancel, queue_ns, attempts, planned, is_upgrade) = 'pick: loop {
            let now = Instant::now();
            let mut deferred: Vec<QueueSlot> = Vec::new();
            let mut next_wake: Option<Instant> = None;
            let draining = st.shutting_down;
            let picked = loop {
                let Some(slot) = st.queue.pop() else {
                    break None;
                };
                let Some(cell) = st.cells.get_mut(&slot.job) else {
                    continue; // cancelled and fully collected
                };
                if !matches!(cell.phase, Phase::Queued) {
                    continue; // cancellation tombstone
                }
                if cell.deadline.is_some_and(|d| now > d) {
                    let key = cell.key;
                    let queue_ns = elapsed_ns(cell.submitted, now);
                    cell.phase = Phase::Done(JobOutcome::DeadlineExpired);
                    let free = cell.interest == 0;
                    if free {
                        st.cells.remove(&slot.job);
                    }
                    st.inflight.remove(&key.0);
                    st.queued -= 1;
                    st.stats.expired += 1;
                    journal_settle(inner, key, "deadline_expired");
                    maybe_compact_journal(inner, &mut st);
                    finish(inner, key, "deadline_expired", queue_ns, 0, (0, 0));
                    continue;
                }
                // A backoff-gated retry waits its turn — unless we are
                // draining, when waiting would just delay shutdown.
                if let Some(gate) = cell.not_before {
                    if now < gate && !draining {
                        next_wake = Some(next_wake.map_or(gate, |w| w.min(gate)));
                        deferred.push(slot);
                        continue;
                    }
                }
                cell.not_before = None;
                cell.attempts += 1;
                cell.phase = Phase::Running;
                break Some((
                    slot.job,
                    cell.key,
                    cell.spec.clone(),
                    cell.cancel.clone(),
                    elapsed_ns(cell.submitted, now),
                    cell.attempts,
                    cell.planned,
                    cell.is_upgrade,
                ));
            };
            for slot in deferred {
                st.queue.push(slot);
            }
            if let Some(out) = picked {
                st.queued -= 1;
                st.running.insert(worker_id, out.0);
                // Feed the measured queue delay to the brownout
                // controller — the saturation signal a depth snapshot
                // alone misses.
                st.admission.observe_queue_delay(Duration::from_nanos(out.4));
                break 'pick out;
            }
            if st.shutting_down && st.queue.is_empty() {
                return;
            }
            // The controller's observations normally arrive with
            // submissions; when a storm ends and traffic stops, the
            // ladder would wedge at its last level (and the upgrade
            // drain below, gated on Normal, would never run). Idle
            // workers with an empty queue feed zero-delay observations
            // so the pressure EWMA decays and the ladder steps down.
            if st.queued == 0 && st.admission.level() != BrownoutLevel::Normal {
                st.admission.observe_queue_delay(Duration::ZERO);
                if let Some(change) = st.admission.update(0, inner.config.queue_capacity) {
                    st.stats.brownout = u64::from(change.to.level());
                    inner.obs.emit(|| {
                        if change.to.level() > change.from.level() {
                            Event::BrownoutEnter {
                                level: u64::from(change.to.level()),
                                pressure: change.pressure,
                            }
                        } else {
                            Event::BrownoutExit {
                                level: u64::from(change.to.level()),
                                pressure: change.pressure,
                            }
                        }
                    });
                }
            }
            // Idle-priority upgrade drain: only with an empty queue, no
            // backoff-gated retry pending, and the brownout fully
            // cleared does a worker spend cycles re-earning fidelity.
            if inner.config.background_upgrades
                && st.queued == 0
                && next_wake.is_none()
                && st.admission.level() == BrownoutLevel::Normal
            {
                if let Some(intent) = st.upgrades.pop_front() {
                    st.upgrade_keys.remove(&intent.key.0);
                    if st.inflight.contains_key(&intent.key.0) {
                        // The in-flight run for this key either lands at
                        // full fidelity or re-journals the debt; retry
                        // the intent later (fall through to the wait).
                        st.upgrade_keys.insert(intent.key.0);
                        st.upgrades.push_back(intent);
                    } else if inner
                        .store
                        .fidelity_of(intent.key)
                        .is_none_or(|f| f >= Fidelity::Reciprocal)
                    {
                        // Already full fidelity, or evicted: moot.
                        if let Some(journal) = &inner.journal {
                            journal.upgraded(intent.key);
                        }
                        continue 'pick;
                    } else {
                        match intent.spec.parse::<JobSpec>() {
                            Err(_) => {
                                // A stale or foreign spec can never run;
                                // write the debt off rather than wedge.
                                if let Some(journal) = &inner.journal {
                                    journal.upgraded(intent.key);
                                }
                                continue 'pick;
                            }
                            Ok(spec) => {
                                let job = st.next_id;
                                st.next_id += 1;
                                let cancel = Arc::new(AtomicBool::new(false));
                                st.cells.insert(
                                    job,
                                    JobCell {
                                        spec: spec.clone(),
                                        key: intent.key,
                                        deadline: None,
                                        submitted: now,
                                        cancel: cancel.clone(),
                                        phase: Phase::Running,
                                        interest: 0,
                                        priority: Priority::Low,
                                        attempts: 1,
                                        strikes: 0,
                                        not_before: None,
                                        deadline_fired: false,
                                        planned: Fidelity::Reciprocal,
                                        floor: Fidelity::Hop,
                                        is_upgrade: true,
                                    },
                                );
                                st.inflight.insert(intent.key.0, job);
                                st.running.insert(worker_id, job);
                                break 'pick (
                                    job,
                                    intent.key,
                                    spec,
                                    cancel,
                                    0,
                                    1,
                                    Fidelity::Reciprocal,
                                    true,
                                );
                            }
                        }
                    }
                }
            }
            // While the post-storm ladder is still stepping down, poll
            // on a short tick so the decay observations above keep
            // flowing; once the ladder is clear (or load returns) the
            // workers park on the condvar as usual.
            let decay_tick = (st.queued == 0
                && st.admission.level() != BrownoutLevel::Normal)
                .then(|| Instant::now() + Duration::from_millis(25));
            let wake = match (next_wake, decay_tick) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            st = match wake {
                Some(at) => {
                    let wait = at
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1));
                    inner
                        .work_cv
                        .wait_timeout(st, wait)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            };
        };
        drop(st);

        // Phase 2: simulate, with per-job spans flowing into the shared
        // sink and the cancel flag armed on the engine's watchdog poll.
        // Chaos injection happens here, outside every lock, so an
        // injected panic unwinds exactly like an engine panic would.
        let chaos = &inner.config.chaos;
        if chaos.panic_on_seeds.contains(&spec.seed) {
            panic!("chaos: injected worker panic (seed {})", spec.seed);
        }
        let started = Instant::now();
        let run = if chaos.fault_on_seeds.contains(&spec.seed) && attempts <= chaos.fault_attempts {
            Err(SimError::Fault {
                component: "chaos injector".to_owned(),
                detail: format!("injected transient fault (attempt {attempts})"),
            })
        } else {
            // The planned rung decides how much machinery runs: `hop`
            // swaps the mode for the analytic model, `calibrated`
            // serves from the calibrated replay path, `reciprocal` is
            // the full co-simulation. The cache key stays the
            // original spec's in every case — that shared slot is
            // what lets a later upgrade replace the answer in place.
            let exec_spec;
            let exec = match planned {
                Fidelity::Hop => {
                    let mut s = spec.clone();
                    s.mode = ModeSpec::Hop;
                    exec_spec = s;
                    exec_spec.to_run_spec()
                }
                Fidelity::Calibrated => spec.to_run_spec().calibrated_only(true),
                Fidelity::Reciprocal => spec.to_run_spec(),
            };
            exec.cancel_flag(cancel.clone())
                .recorder(inner.obs.clone())
                .run()
        };
        let run_ns = elapsed_ns(started, Instant::now());

        // Phase 3: publish the outcome — or schedule a retry. The store
        // insert happens under the state lock (lock order is state →
        // store) because the calibrated-tier error bound reads the
        // drift EWMA that full-fidelity runs feed.
        let mut st = lock_state(inner);
        st.running.remove(&worker_id);
        let now = Instant::now();
        enum Next {
            Publish(JobOutcome),
            Retry(Instant, Priority),
            Requeue(Fidelity),
        }
        let mut prev_fidelity: Option<Fidelity> = None;
        let next = match run {
            Ok(result) => {
                let result = Arc::new(result);
                let error_bound = match planned {
                    Fidelity::Reciprocal => {
                        // Relative drift: mean coupler correction over
                        // mean observed latency. Full runs calibrate
                        // the bound the cheaper rungs will report.
                        let rel = result.coupler.as_ref().map_or(0.0, |c| {
                            let lat = result.latency.mean();
                            if lat > 0.0 {
                                (c.drift.mean() / lat).abs().min(1.0)
                            } else {
                                0.0
                            }
                        });
                        if rel.is_finite() && rel > 0.0 {
                            st.drift.observe(rel);
                        }
                        rel
                    }
                    Fidelity::Calibrated => {
                        if st.drift.primed() {
                            (2.0 * st.drift.value()).max(CALIBRATED_ERROR_FLOOR)
                        } else {
                            CALIBRATED_ERROR_FLOOR
                        }
                    }
                    Fidelity::Hop => HOP_ERROR_BOUND,
                };
                if is_upgrade {
                    prev_fidelity = inner.store.fidelity_of(key);
                }
                inner.store.insert(
                    key,
                    &spec.canonical(),
                    StoredResult {
                        result: result.clone(),
                        fidelity: planned,
                        error_bound,
                    },
                );
                // A waiter that coalesced mid-run may demand more
                // fidelity than this run delivered; go around again at
                // the raised floor instead of settling short.
                let floor = st.cells.get(&job).map_or(Fidelity::Hop, |c| c.floor);
                if !is_upgrade && planned < floor {
                    Next::Requeue(floor)
                } else {
                    Next::Publish(JobOutcome::Completed {
                        result,
                        cached: false,
                        fidelity: planned,
                        error_bound,
                        queue_ns,
                        run_ns,
                    })
                }
            }
            Err(err) => match st.cells.get_mut(&job) {
                None => Next::Publish(JobOutcome::Failed {
                    error: err.to_string(),
                }),
                Some(cell) => {
                    let deadline_fired = cell.deadline_fired;
                    if matches!(err, SimError::Cancelled { .. })
                        || cancel.load(Ordering::Relaxed)
                    {
                        Next::Publish(if deadline_fired {
                            JobOutcome::DeadlineExceeded
                        } else {
                            JobOutcome::Cancelled
                        })
                    } else if err.is_transient() && cell.attempts <= inner.config.retry_budget {
                        let resume = now + backoff_delay(inner.config.retry_backoff, cell.attempts);
                        if cell.deadline.is_some_and(|d| resume >= d) {
                            Next::Publish(JobOutcome::Failed {
                                error: format!("{err}; no retry budget left before the deadline"),
                            })
                        } else {
                            Next::Retry(resume, cell.priority)
                        }
                    } else {
                        Next::Publish(JobOutcome::Failed {
                            error: err.to_string(),
                        })
                    }
                }
            },
        };
        match next {
            Next::Retry(resume, priority) => {
                if let Some(cell) = st.cells.get_mut(&job) {
                    cell.phase = Phase::Queued;
                    cell.not_before = Some(resume);
                }
                let seq = st.next_seq;
                st.next_seq += 1;
                st.queue.push(QueueSlot { priority, seq, job });
                st.queued += 1;
                st.stats.retries += 1;
                drop(st);
                // notify_all: the retry may be gated, and only a timed
                // waiter re-arms the backoff wake-up.
                inner.work_cv.notify_all();
            }
            Next::Requeue(floor) => {
                let priority = match st.cells.get_mut(&job) {
                    Some(cell) => {
                        cell.phase = Phase::Queued;
                        cell.planned = floor;
                        cell.not_before = None;
                        cell.priority
                    }
                    None => Priority::Normal,
                };
                let seq = st.next_seq;
                st.next_seq += 1;
                st.queue.push(QueueSlot { priority, seq, job });
                st.queued += 1;
                drop(st);
                inner.work_cv.notify_all();
            }
            Next::Publish(outcome) => {
                let mut spec_counters = (0u64, 0u64);
                let mut degraded = false;
                match &outcome {
                    JobOutcome::Completed { result, fidelity, .. } => {
                        st.stats.completed += 1;
                        degraded = *fidelity < Fidelity::Reciprocal;
                        if let Some(c) = &result.coupler {
                            spec_counters = (c.spec_commits, c.spec_rollbacks);
                            st.stats.spec_commits += c.spec_commits;
                            st.stats.spec_rollbacks += c.spec_rollbacks;
                        }
                    }
                    JobOutcome::Cancelled => st.stats.cancelled += 1,
                    JobOutcome::DeadlineExceeded => st.stats.deadline_exceeded += 1,
                    _ => st.stats.failed += 1,
                }
                // A degraded answer leaves an upgrade debt: journaled
                // (so a restart re-owes it) and queued in memory for
                // the idle drain. An upgrade run — success or not —
                // clears its debt; a failed upgrade is written off
                // rather than retried forever.
                if is_upgrade {
                    if let Some(journal) = &inner.journal {
                        journal.upgraded(key);
                    }
                    if !degraded && matches!(outcome, JobOutcome::Completed { .. }) {
                        st.stats.upgraded += 1;
                        let from = prev_fidelity.unwrap_or(Fidelity::Hop);
                        inner.obs.emit(|| Event::ResultUpgraded {
                            job: key.0,
                            from: from.name().to_owned(),
                            to: Fidelity::Reciprocal.name().to_owned(),
                        });
                    }
                } else if degraded {
                    st.stats.degraded += 1;
                    if st.upgrade_keys.insert(key.0) {
                        st.upgrades.push_back(UpgradeIntent {
                            key,
                            spec: spec.canonical(),
                        });
                        if let Some(journal) = &inner.journal {
                            journal.upgrade(key, &spec.canonical());
                        }
                    }
                }
                st.stats.upgrades_pending = st.upgrades.len() as u64;
                let label = outcome.label();
                let free = match st.cells.get_mut(&job) {
                    Some(cell) => {
                        cell.phase = Phase::Done(outcome);
                        cell.interest == 0
                    }
                    None => false,
                };
                if free {
                    st.cells.remove(&job);
                }
                st.inflight.remove(&key.0);
                if !is_upgrade {
                    journal_settle(inner, key, label);
                }
                maybe_compact_journal(inner, &mut st);
                let wake_upgraders = !st.upgrades.is_empty() && st.queued == 0;
                drop(st);
                finish(inner, key, label, queue_ns, run_ns, spec_counters);
                if wake_upgraders {
                    // Idle workers only drain upgrades from inside the
                    // pick loop; make sure one looks.
                    inner.work_cv.notify_all();
                }
            }
        }
    }
}

/// The deadline reaper: expires queued jobs whose deadline passed
/// without a run, and raises the cancel flag of *running* jobs past
/// theirs (exactly once — `deadline_fired`), so the engine's watchdog
/// poll stops them cooperatively and they publish as
/// [`JobOutcome::DeadlineExceeded`].
fn reaper_loop(inner: &Inner) {
    let mut st = lock_state(inner);
    loop {
        if st.shutting_down {
            return;
        }
        let now = Instant::now();
        let mut expired: Vec<JobId> = Vec::new();
        let mut fire: Vec<JobId> = Vec::new();
        let mut next_deadline: Option<Instant> = None;
        for (&job, cell) in &st.cells {
            let Some(deadline) = cell.deadline else {
                continue;
            };
            match cell.phase {
                Phase::Queued if now > deadline => expired.push(job),
                Phase::Running if now > deadline => {
                    if !cell.deadline_fired {
                        fire.push(job);
                    }
                }
                Phase::Queued | Phase::Running => {
                    next_deadline = Some(next_deadline.map_or(deadline, |d| d.min(deadline)));
                }
                Phase::Done(_) => {}
            }
        }
        for job in expired {
            let Some(cell) = st.cells.get_mut(&job) else {
                continue;
            };
            if !matches!(cell.phase, Phase::Queued) {
                continue;
            }
            let key = cell.key;
            let queue_ns = elapsed_ns(cell.submitted, now);
            cell.phase = Phase::Done(JobOutcome::DeadlineExpired);
            let free = cell.interest == 0;
            if free {
                st.cells.remove(&job);
            }
            st.inflight.remove(&key.0);
            st.queued -= 1;
            st.stats.expired += 1;
            journal_settle(inner, key, "deadline_expired");
            maybe_compact_journal(inner, &mut st);
            finish(inner, key, "deadline_expired", queue_ns, 0, (0, 0));
        }
        for job in fire {
            let Some(cell) = st.cells.get_mut(&job) else {
                continue;
            };
            if !matches!(cell.phase, Phase::Running) || cell.deadline_fired {
                continue;
            }
            cell.deadline_fired = true;
            cell.cancel.store(true, Ordering::Relaxed);
            let key = cell.key.0;
            let overrun_ms = cell
                .deadline
                .map_or(0, |d| now.saturating_duration_since(d).as_millis() as u64);
            inner.obs.emit(|| Event::DeadlineCancel {
                job: key,
                overrun_ms,
            });
        }
        st = match next_deadline {
            Some(at) => {
                let wait = at
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                inner
                    .reaper_cv
                    .wait_timeout(st, wait)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => inner.reaper_cv.wait(st).unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// Emits `job_done` and wakes waiters. The recorder lock is a leaf in
/// the lock order (nothing holding it ever takes the state lock), so
/// this is safe to call with or without the state lock held.
fn finish(inner: &Inner, key: JobKey, label: &str, queue_ns: u64, run_ns: u64, spec: (u64, u64)) {
    inner.obs.emit(|| Event::JobDone {
        job: key.0,
        outcome: label.to_owned(),
        queue_ns,
        run_ns,
        spec_commits: spec.0,
        spec_rollbacks: spec.1,
    });
    inner.done_cv.notify_all();
}

fn elapsed_ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}
