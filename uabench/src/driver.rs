//! The load driver: closed-loop read clients, the paced open-loop writer of
//! `update_churn`, and the checks that need the whole run (replays of
//! sampled answers, content digests, restores).

use crate::clock::{thread_cpu_ns, Reference};
use crate::gen::{self, Op, OpGenerator, OpKind};
use crate::trace::SpanBuf;
use crate::workload::{self, Workload};
use algebra::parse_query;
use engine::{EngineError, EvalConfig, Request, ServingAnswer, ServingEngine};
use pdb::{Tuple, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use urel::{Condition, RelationDelta, UDatabase, URelation, URow};

/// Read clients of every workload: one.  The benchmark host has two vCPUs
/// and shares them with whatever else runs there; a second busy thread turns
/// every other process on the machine into queueing delay for one of the
/// two, and the numbers stop repeating.
pub const CLIENTS: usize = 1;
/// Read clients of the traced run's second window, which exists to measure
/// `engine.serving.session_scaling` and carries no bound.
pub const SCALING_CLIENTS: usize = 2;
/// Reads a client's log holds.  The log is allocated and touched at this
/// size before the window opens, so that `peak_rss_mb` does not grow with
/// the number of requests the host happened to let through; a client that
/// sends more keeps a uniform sample of them (no run so far has: 20 s of
/// `update_churn` are about 200 000 reads).
pub const READ_LOG_CAP: usize = 1 << 18;
/// A client runs the reference kernel ([`crate::clock::Reference`]) once per
/// this much of its own CPU time: some 800 samples of the host's speed in a
/// 20 s window, for under a hundredth of the client's time.
const REFERENCE_EVERY_NS: u64 = 25_000_000;
/// The paced writer issues one op per 40 ms and a checkpoint every 50 ops
/// (2 s) — of the reader's CPU time, not of the wall clock: on a host that
/// gives the reader a third of a CPU, wall-clock pacing would put three
/// times as many writes (and re-warms) between the same reads, and the
/// reader's numbers would follow the host's load.  On a host of its own the
/// two clocks agree.
pub const WRITE_INTERVAL: Duration = Duration::from_millis(40);
pub const OPS_PER_CHECKPOINT: u64 = 50;
/// How often the writer looks whether its next op is due.
const WRITER_POLL: Duration = Duration::from_micros(100);

/// What the reader tells the paced writer.
#[derive(Default)]
struct Pace {
    /// Ops due so far: the reader's CPU time since the window began, in
    /// [`WRITE_INTERVAL`]s.
    due_ops: AtomicU64,
    /// When the latest of them became due (wall clock, ns from the epoch).
    due_at_ns: AtomicU64,
    /// Set when the reader has left its loop.
    stop: AtomicBool,
}

/// How each attempted operation resolved.  Everything but `ok` counts as
/// failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub ok: u64,
    pub degraded: u64,
    pub shed: u64,
    pub timeout: u64,
    pub errors: u64,
    /// Full answers that failed the correctness check, misses an (ε, δ)
    /// guarantee allows included.
    pub wrong: u64,
}

impl Outcomes {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.degraded + self.shed + self.timeout + self.errors + self.wrong
    }

    fn absorb(&mut self, other: Outcomes) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.timeout += other.timeout;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }
}

/// One measured read.  Durations are 32-bit (a request of 4.29 s or longer
/// reads 4.29 s) so that the log stays at 32 bytes a read.
#[derive(Clone, Copy, Debug)]
pub struct Read {
    /// [`request_id`] of the request.
    pub request: u64,
    /// Wall-clock start, from the window's epoch.
    pub start_ns: u64,
    /// Wall time of the request.
    pub lat_ns: u32,
    /// Time of the request on its client thread's CPU clock
    /// ([`crate::clock`]): what the end-to-end latencies are made of.
    pub cpu_ns: u32,
    pub shape: u32,
}

impl Read {
    /// Wall-clock end, from the window's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + u64::from(self.lat_ns)
    }
}

fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// A sampled answer kept for replay after the window.
#[derive(Clone, Debug)]
pub struct Retained {
    pub client: usize,
    pub index: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub text: String,
    pub answer: URelation,
}

/// Everything the read clients of one window observed.
#[derive(Default)]
pub struct ReadLog {
    pub reads: Vec<Read>,
    /// Reads offered to [`ReadLog::record`]; more than `reads.len()` once
    /// the log is full.
    pub recorded: u64,
    /// CPU time the clients spent from the start of their first measured
    /// request to the start of the request after their last measured one:
    /// the requests and the loop around them (building the request, checking
    /// the answer), without the runs of the reference kernel.
    /// `throughput_qps` is requests per second of this.
    pub client_cpu_ns: u64,
    /// What each run of the reference kernel between measured requests took
    /// (ns on the client's CPU clock).
    pub reference_ns: Vec<u64>,
    pub outcomes: Outcomes,
    pub events: u64,
    pub eps_violations: u64,
    pub decisions: u64,
    pub decision_errors: u64,
    /// Σ `EvalStats::karp_luby_samples` / σ̂ counters over measured reads.
    pub samples: u64,
    pub select_decisions: u64,
    pub select_pruned: u64,
    /// The first failure of each kind, for the report.  Any of these makes
    /// the run incorrect.
    pub failures: Vec<String>,
    /// The first miss of each kind that an (ε, δ) guarantee allows.  These
    /// count as failed answers, but only their share decides correctness
    /// ([`guarantee_failures`]).
    pub misses: Vec<String>,
    pub retained: Vec<Retained>,
}

/// Keeps `item` if it is the first of its kind (the text before the first
/// colon) in `list`.
fn note_first(list: &mut Vec<String>, item: String) {
    let kind = item.split(':').next().unwrap_or("");
    if list.len() < 8 && !list.iter().any(|f| f.starts_with(kind)) {
        list.push(item);
    }
}

impl ReadLog {
    /// A log whose `reads` are allocated and resident at [`READ_LOG_CAP`].
    fn presized() -> ReadLog {
        // Written with a non-zero pattern: zeroed memory may come straight
        // from the kernel's zero page and only become resident when used.
        let filler = Read {
            request: u64::MAX,
            start_ns: u64::MAX,
            lat_ns: u32::MAX,
            cpu_ns: u32::MAX,
            shape: u32::MAX,
        };
        let mut reads = vec![filler; READ_LOG_CAP];
        reads.clear();
        ReadLog {
            reads,
            ..ReadLog::default()
        }
    }

    /// Keeps `read`, or — once [`READ_LOG_CAP`] reads are kept — lets it
    /// replace a kept one such that the kept ones stay a uniform sample.
    pub fn record(&mut self, read: Read) {
        self.recorded += 1;
        if self.reads.len() < READ_LOG_CAP {
            self.reads.push(read);
        } else {
            let slot = gen::mix64(self.recorded) % self.recorded;
            if let Some(kept) = self.reads.get_mut(slot as usize) {
                *kept = read;
            }
        }
    }

    fn note(&mut self, failure: String) {
        note_first(&mut self.failures, failure);
    }

    fn absorb(&mut self, other: ReadLog) {
        if self.reads.is_empty() {
            // The first client's log is taken over as it is: copying it
            // would cost as much memory again as it holds reads.
            self.reads = other.reads;
        } else {
            self.reads.extend(other.reads);
        }
        self.recorded += other.recorded;
        self.client_cpu_ns += other.client_cpu_ns;
        self.reference_ns.extend(other.reference_ns);
        self.outcomes.absorb(other.outcomes);
        self.events += other.events;
        self.eps_violations += other.eps_violations;
        self.decisions += other.decisions;
        self.decision_errors += other.decision_errors;
        self.samples += other.samples;
        self.select_decisions += other.select_decisions;
        self.select_pruned += other.select_pruned;
        for f in other.failures {
            self.note(f);
        }
        for m in other.misses {
            note_first(&mut self.misses, m);
        }
        self.retained.extend(other.retained);
    }
}

/// One writer operation as it ran.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    pub kind: OpKind,
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub measured: bool,
}

/// One background checkpoint as it ran.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointRecord {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything the writer did, across windows.
#[derive(Default)]
pub struct WriteLog {
    pub ops: Vec<OpRecord>,
    pub checkpoints: Vec<CheckpointRecord>,
    pub outcomes: Outcomes,
    pub failures: Vec<String>,
    /// The directory of the last complete checkpoint.
    pub last_checkpoint: Option<PathBuf>,
}

impl WriteLog {
    /// Latency (µs) of every measured op, counted from the op's due time.
    pub fn latencies_from_due(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|op| op.measured)
            .map(|op| (op.end_ns - op.due_ns) as f64 / 1000.0)
            .collect()
    }
}

/// The writer's state carried from window to window.
pub struct Writer {
    pub ops: OpGenerator,
    pub log: WriteLog,
    pub dir: PathBuf,
}

/// Where one window starts and what it measures.
#[derive(Clone, Copy)]
pub struct Window {
    pub seed: u64,
    pub clients: usize,
    pub warmup: Duration,
    pub measure: Duration,
    /// Timestamps count from here.
    pub epoch: Instant,
    /// Whether the read clients record spans: in a traced window every
    /// other request does ([`request_traced`]), so traced and untraced
    /// requests see the same minutes of a drifting host and can be compared.
    pub traced: bool,
}

/// Whether request `index` of `client` records a span in a traced window:
/// one request in two, by a hash — any fixed pattern would beat against the
/// period of the workload's shapes or of the engine's own stalls.
pub fn request_traced(seed: u64, client: usize, index: u64) -> bool {
    gen::sample_key(seed, client, index) >> 32 & 1 == 1
}

/// What one window produced.
pub struct WindowResult {
    pub log: ReadLog,
    pub clients: usize,
    pub measured: Duration,
    /// The share of the machine's CPU time, warm-up included, that its
    /// hypervisor gave to someone else (0 where `/proc/stat` does not say).
    /// On the reference VM it runs from 0.01 to 0.25 and read throughput
    /// falls with it, `update_churn`'s by twice as much: a run is only as
    /// good as this number is small.
    pub steal_share: f64,
    /// Read-client span buffers (traced windows only).
    pub spans: Vec<SpanBuf>,
}

impl WindowResult {
    /// Correct full answers completed per second of the measured window,
    /// by the wall clock.
    pub fn wall_qps(&self) -> f64 {
        self.log.outcomes.ok as f64 / self.measured.as_secs_f64()
    }

    /// Correct full answers completed per second of client CPU time: the
    /// closed loop's throughput on a host that never takes the CPU away.
    /// (With more than one client, the sum over clients.)
    pub fn qps(&self) -> f64 {
        let clients = self.clients.max(1) as f64;
        self.log.outcomes.ok as f64 * clients / (self.log.client_cpu_ns.max(1) as f64 / 1e9)
    }

    /// The share of the window's wall time the clients were on a CPU: 1 on a
    /// host of their own.
    pub fn cpu_share(&self) -> f64 {
        self.log.client_cpu_ns as f64
            / (self.measured.as_secs_f64() * 1e9 * self.clients.max(1) as f64)
    }
}

/// `(all, stolen)` CPU time of the machine so far, in clock ticks.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// The request id spans and logs use for request `index` of `client`.
pub fn request_id(client: usize, index: u64) -> u64 {
    ((client as u64) << 48) | index
}

/// The `(client, index)` a request id stands for.
pub fn request_of(id: u64) -> (usize, u64) {
    ((id >> 48) as usize, id & ((1 << 48) - 1))
}

fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Runs one window: `clients` closed-loop readers (each waits for its reply
/// before sending the next request) and, when the workload has one, the
/// paced writer.  `next_index[c]` is where client `c`'s request stream
/// resumes, so no window ever re-sends an earlier request.
pub fn run_window(
    w: &dyn Workload,
    window: Window,
    next_index: &mut [u64],
    writer: Option<&mut Writer>,
) -> WindowResult {
    let begin = Instant::now();
    let measure_from = begin + window.warmup;
    let until = measure_from + window.measure;
    let mut log = ReadLog::default();
    let mut spans = Vec::new();
    let ticks_before = cpu_ticks();
    let pace = Pace::default();
    let pace = &pace;
    std::thread::scope(|scope| {
        let paced = writer.is_some();
        if let Some(writer) = writer {
            let measure_from_ns = ns_since(window.epoch, measure_from);
            scope.spawn(move || {
                writer_loop(w.engine(), writer, window.epoch, pace, measure_from_ns)
            });
        }
        let readers: Vec<_> = (0..window.clients)
            .map(|client| {
                let from = next_index[client];
                // The first reader paces the writer.
                let pace = (paced && client == 0).then_some(pace);
                scope.spawn(move || {
                    let mut buf = window
                        .traced
                        .then(|| SpanBuf::new(window.epoch, 1 + client as u64));
                    let (log, next) = reader_loop(
                        w,
                        window,
                        client,
                        from,
                        (measure_from, until),
                        buf.as_mut(),
                        pace,
                    );
                    (log, next, buf)
                })
            })
            .collect();
        for (client, reader) in readers.into_iter().enumerate() {
            let (client_log, next, buf) = reader.join().expect("read client panicked");
            next_index[client] = next;
            log.absorb(client_log);
            spans.extend(buf);
        }
    });
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((all0, stolen0)), Some((all1, stolen1))) if all1 > all0 => {
            (stolen1 - stolen0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    };
    WindowResult {
        log,
        clients: window.clients,
        measured: window.measure,
        steal_share,
        spans,
    }
}

fn reader_loop(
    w: &dyn Workload,
    window: Window,
    client: usize,
    mut index: u64,
    (measure_from, until): (Instant, Instant),
    mut spans: Option<&mut SpanBuf>,
    pace: Option<&Pace>,
) -> (ReadLog, u64) {
    let mut log = ReadLog::presized();
    let mut session = w.engine().session();
    let retain_one_in = w.retain_one_in();
    // The client's CPU clock when the window began and when the reference
    // kernel last ran, and the CPU time the kernel has taken since the
    // window began: it counts neither as the client's time nor towards the
    // writer's pace.
    let reference = Reference::new();
    let began = thread_cpu_ns();
    let mut reference_at = began;
    let mut reference_cpu = 0;
    // `(CPU clock, reference_cpu)` at the start of the first measured
    // request, and whether the request before this one was measured.
    let mut cpu_from = None;
    let mut after_measured = false;
    // Writer ops the client's CPU time has made due.
    let mut due_ops = 0;
    loop {
        let cpu_now = thread_cpu_ns();
        if let Some(pace) = pace {
            let due = (cpu_now - began - reference_cpu) / WRITE_INTERVAL.as_nanos() as u64;
            if due > due_ops {
                due_ops = due;
                pace.due_at_ns
                    .store(ns_since(window.epoch, Instant::now()), Ordering::SeqCst);
                pace.due_ops.store(due, Ordering::SeqCst);
            }
        }
        if cpu_now - reference_at >= REFERENCE_EVERY_NS {
            let took = reference.run();
            reference_at = thread_cpu_ns();
            reference_cpu += reference_at - cpu_now;
            if cpu_from.is_some() {
                log.reference_ns.push(took);
            }
        }
        let req = w.request(client, index);
        let mut rng = gen::request_rng(window.seed, client, index);
        let mut request = Request::new(&req.text);
        if let Some((epsilon, delta)) = req.accuracy {
            request = request.with_accuracy(epsilon, delta);
        }
        let start = Instant::now();
        let cpu_start = thread_cpu_ns();
        if start >= measure_from {
            let (from, reference_from) = *cpu_from.get_or_insert((cpu_start, reference_cpu));
            if after_measured {
                log.client_cpu_ns = cpu_start - from - (reference_cpu - reference_from);
            }
        }
        if start >= until {
            break;
        }
        // The span covers the call and the release of everything but the
        // answer relation: the returned post-evaluation database is the
        // caller's to free, and freeing it costs as much as a warm request.
        let answer = session
            .evaluate_degradable(&request, &mut rng)
            .map(|answer| match answer {
                ServingAnswer::Full(out) => Some((out.result.relation, out.stats)),
                ServingAnswer::Degraded(_) => None,
            });
        let cpu_end = thread_cpu_ns();
        let end = Instant::now();
        let measured = start >= measure_from && end <= until;
        after_measured = measured;
        match answer {
            Ok(Some((relation, stats))) => {
                let verdict = workload::check(&req.expect, &relation);
                if measured {
                    log.events += verdict.events;
                    log.eps_violations += verdict.eps_violations;
                    log.decisions += verdict.decisions;
                    log.decision_errors += verdict.decision_errors;
                    log.samples += stats.karp_luby_samples;
                    log.select_decisions += stats.approx_select_decisions;
                    log.select_pruned += stats.approx_select_pruned;
                    match (verdict.failure, verdict.miss) {
                        (None, None) => {
                            log.outcomes.ok += 1;
                            log.record(Read {
                                request: request_id(client, index),
                                start_ns: ns_since(window.epoch, start),
                                lat_ns: ns32((end - start).as_nanos() as u64),
                                cpu_ns: ns32(cpu_end - cpu_start),
                                shape: req.shape,
                            });
                        }
                        (Some(failure), _) => {
                            log.outcomes.wrong += 1;
                            log.note(format!("wrong answer: {}: {failure}", req.text));
                        }
                        // A miss the guarantee allows: a failed answer, but
                        // only the share of misses can fail the run.
                        (None, Some(miss)) => {
                            log.outcomes.wrong += 1;
                            note_first(&mut log.misses, miss);
                        }
                    }
                    if gen::sampled(window.seed, client, index, retain_one_in) {
                        log.retained.push(Retained {
                            client,
                            index,
                            start_ns: ns_since(window.epoch, start),
                            end_ns: ns_since(window.epoch, end),
                            text: req.text.to_string(),
                            answer: relation,
                        });
                    }
                }
            }
            other if measured => {
                let (slot, what) = match &other {
                    Ok(_) => (&mut log.outcomes.degraded, "degraded".to_string()),
                    Err(EngineError::Overloaded { .. }) => {
                        (&mut log.outcomes.shed, "shed".to_string())
                    }
                    Err(EngineError::DeadlineExceeded { .. }) => {
                        (&mut log.outcomes.timeout, "timeout".to_string())
                    }
                    Err(e) => (&mut log.outcomes.errors, format!("error: {e}")),
                };
                *slot += 1;
                log.note(format!("{what}: {}", req.text));
            }
            _ => {}
        }
        let traced = start >= measure_from && request_traced(window.seed, client, index);
        if let Some(buf) = spans.as_deref_mut().filter(|_| traced) {
            buf.record(
                "serving.request",
                0,
                request_id(client, index),
                req.shape,
                start,
                end,
            );
        }
        index += 1;
    }
    if let Some(pace) = pace {
        pace.stop.store(true, Ordering::SeqCst);
    }
    (log, index)
}

/// The paced open-loop writer: op `k` of the window is due when the reader
/// has used `k · WRITE_INTERVAL` of CPU time, whatever happened to op
/// `k − 1`; its latency counts (on the wall clock) from the moment the reader
/// said so, and how late it started is kept as the generator's lag.  Every
/// `OPS_PER_CHECKPOINT`-th op of the log is preceded by a checkpoint into a
/// fresh directory.
fn writer_loop(
    engine: &ServingEngine,
    writer: &mut Writer,
    epoch: Instant,
    pace: &Pace,
    measure_from_ns: u64,
) {
    let mut issued = 0;
    loop {
        if issued >= pace.due_ops.load(Ordering::SeqCst) {
            if pace.stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(WRITER_POLL);
            continue;
        }
        // Of several ops that became due at once (the reader spent more than
        // one interval in a request) all count from the same moment.
        let due_ns = pace.due_at_ns.load(Ordering::SeqCst);
        if writer.ops.generated() % OPS_PER_CHECKPOINT == OPS_PER_CHECKPOINT / 2 {
            checkpoint(engine, writer, epoch);
        }
        let op = writer.ops.next_op();
        let start = Instant::now();
        let applied = apply_op(engine, &op);
        let end = Instant::now();
        let measured = due_ns >= measure_from_ns;
        match applied {
            Ok(()) if measured => writer.log.outcomes.ok += 1,
            Ok(()) => {}
            Err(e) => {
                // Counted even during warm-up: a lost write makes every
                // later content check fail, so it must not go unseen.
                writer.log.outcomes.errors += 1;
                if writer.log.failures.len() < 4 {
                    writer
                        .log
                        .failures
                        .push(format!("write error: op {issued}: {e}"));
                }
            }
        }
        writer.log.ops.push(OpRecord {
            kind: op.kind(),
            due_ns,
            start_ns: ns_since(epoch, start),
            end_ns: ns_since(epoch, end),
            measured,
        });
        issued += 1;
    }
}

/// Applies one writer op through the serving front door.
pub fn apply_op(engine: &ServingEngine, op: &Op) -> Result<(), String> {
    match op {
        Op::Delta { relation, delta } => engine.apply_deltas([(*relation, delta.clone())]),
        Op::Replace { relation, content } => {
            engine.update_relations([(*relation, content.clone())])
        }
    }
    .map_err(|e| e.to_string())
}

fn checkpoint(engine: &ServingEngine, writer: &mut Writer, epoch: Instant) {
    // Two directories alternate, so the last complete checkpoint survives
    // while the next one is being written.
    let dir = writer
        .dir
        .join(format!("ckpt-{}", writer.log.checkpoints.len() % 2));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let result = engine.checkpoint(&dir);
    let end = Instant::now();
    match result {
        Ok(()) => {
            writer.log.checkpoints.push(CheckpointRecord {
                start_ns: ns_since(epoch, start),
                end_ns: ns_since(epoch, end),
            });
            writer.log.last_checkpoint = Some(dir);
        }
        Err(e) => {
            writer.log.outcomes.errors += 1;
            writer.log.failures.push(format!("checkpoint error: {e}"));
        }
    }
}

/// The (ε, δ) guarantees over a whole window: the share of `aconf` events off
/// by more than ε, and of wrong `σ̂` decisions, may not exceed what `delta`
/// tolerates.  A single miss is within the guarantee and fails nothing.
pub fn guarantee_failures(log: &ReadLog, delta: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (kind, misses, trials) in [
        (
            "aconf: events off by more than ε",
            log.eps_violations,
            log.events,
        ),
        ("σ̂: decisions wrong", log.decision_errors, log.decisions),
    ] {
        let tolerated = workload::tolerated_share(delta, trials);
        if trials > 0 && misses as f64 / trials as f64 > tolerated {
            failures.push(format!(
                "{kind}: {misses} of {trials}, more than δ = {delta} tolerates ({tolerated:.4})"
            ));
        }
    }
    failures
}

/// Checks that the served `R`/`S` content equals a fresh database with the
/// first `ops` operations of the seed's op log applied one after another.
pub fn verify_content(
    served: &UDatabase,
    initial: &UDatabase,
    seed: u64,
    ops: u64,
) -> Result<(), String> {
    let mut reference = OpGenerator::new(initial, seed);
    for _ in 0..ops {
        reference.next_op();
    }
    for name in ["R", "S"] {
        let want = reference
            .model()
            .relation(name)
            .map_err(|e| e.to_string())?;
        let got = served.relation(name).map_err(|e| e.to_string())?;
        if got.content_digest() != want.content_digest() {
            return Err(format!(
                "content: relation {name} differs from the op log applied sequentially \
                 ({} rows served, {} expected after {ops} ops)",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Restores `rounds` engines from `dir` and checks that each answers every
/// text bit-identically to the live engine at the same RNG state.  Returns
/// the restore times and first-answer latencies (µs).
pub fn verify_restores(
    live: &ServingEngine,
    config: EvalConfig,
    dir: &Path,
    texts: &[String],
    rounds: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut restore_us = Vec::new();
    let mut first_answer_us = Vec::new();
    for round in 0..rounds {
        let start = Instant::now();
        let restored = ServingEngine::restore(config, dir).map_err(|e| format!("restore: {e}"))?;
        restore_us.push(start.elapsed().as_nanos() as f64 / 1000.0);
        for (i, text) in texts.iter().enumerate() {
            let rng_seed = gen::request_seed(round as u64, 7, i as u64);
            let start = Instant::now();
            let got = restored
                .evaluate(text, &mut gen::rng_from(rng_seed))
                .map_err(|e| format!("restore: restored engine failed {text}: {e}"))?;
            if i == 0 {
                first_answer_us.push(start.elapsed().as_nanos() as f64 / 1000.0);
            }
            let want = live
                .evaluate(text, &mut gen::rng_from(rng_seed))
                .map_err(|e| format!("restore: live engine failed {text}: {e}"))?;
            if got.result.relation != want.result.relation {
                return Err(format!(
                    "restore: restored engine {round} answers {text} differently"
                ));
            }
        }
    }
    Ok((restore_us, first_answer_us))
}

/// Replays sampled answers one-shot (`UEngine::evaluate`, same RNG): the
/// serving answer must be bit-identical.  With a writer log, a read may have
/// seen any database version between the last write that finished before it
/// started and the last write that started before it finished; it must match
/// one of them.
pub fn verify_replays(
    w: &dyn Workload,
    seed: u64,
    retained: &[Retained],
    ops: Option<&[OpRecord]>,
) -> Result<u64, String> {
    let config = *w.engine().config();
    let mut retained: Vec<&Retained> = retained.iter().collect();
    retained.sort_by_key(|r| r.start_ns);
    let mut versions = ops.map(|_| OpGenerator::new(w.database(), seed));
    let mut checked = 0;
    for r in retained {
        let query = parse_query(&r.text).map_err(|e| format!("replay: {}: {e}", r.text))?;
        let rng_seed = gen::request_seed(seed, r.client, r.index);
        let matches = |db: &UDatabase| {
            workload::one_shot(db, &query, config, rng_seed)
                .is_ok_and(|out| out.result.relation == r.answer)
        };
        let (mut first, mut last) = (0, 0);
        let matched = match (ops, versions.as_mut()) {
            (Some(ops), Some(versions)) => {
                first = ops.iter().filter(|op| op.end_ns <= r.start_ns).count() as u64;
                last = ops.iter().filter(|op| op.start_ns < r.end_ns).count() as u64;
                while versions.generated() < first {
                    versions.next_op();
                }
                let mut candidate = versions.clone();
                (first..=last).any(|version| {
                    while candidate.generated() < version {
                        candidate.next_op();
                    }
                    let mut db = w.database().clone();
                    for name in ["R", "S"] {
                        let rel = candidate.model().relation(name).expect("modelled").clone();
                        db.set_relation(name, rel, true);
                    }
                    matches(&db)
                })
            }
            _ => matches(w.database()),
        };
        if !matched {
            return Err(format!(
                "replay: request {} of client {} ({}) differs from one-shot evaluation \
                 over database versions {first}..={last}",
                r.index, r.client, r.text
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Times `rounds` single-row deltas (alternately inserting and deleting one
/// synthetic row; each sample is the mean of an insert and the delete that
/// undoes it, since the two cost differently) and `rounds / 8`
/// whole-relation replacements of `target` on a quiet engine.  Returns the
/// latencies in µs.
pub fn update_probe(
    engine: &ServingEngine,
    target: &str,
    rounds: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let base = engine
        .database()
        .relation(target)
        .map_err(|e| e.to_string())?
        .clone();
    let template = base
        .iter()
        .next()
        .ok_or("update probe: empty target")?
        .tuple
        .clone();
    let mut values = template.into_values();
    values[0] = Value::Int(1_000_000);
    let row = URow {
        condition: Condition::always(),
        tuple: Tuple::new(values),
    };
    let mut with_row = base.clone();
    with_row
        .insert(row.condition.clone(), row.tuple.clone())
        .map_err(|e| e.to_string())?;
    let insert = RelationDelta::new(&base, [row.clone()], []).map_err(|e| e.to_string())?;
    let delete = RelationDelta::new(&with_row, [], [row]).map_err(|e| e.to_string())?;
    let mut delta_us = Vec::new();
    let mut replace_us = Vec::new();
    for _ in 0..rounds / 2 {
        let start = Instant::now();
        for delta in [&insert, &delete] {
            engine
                .apply_deltas([(target, delta.clone())])
                .map_err(|e| format!("update probe: {e}"))?;
        }
        delta_us.push(start.elapsed().as_nanos() as f64 / 2000.0);
    }
    for round in 0..(rounds / 8).max(2) {
        let content = if round % 2 == 0 { &with_row } else { &base };
        let start = Instant::now();
        engine
            .update_relations([(target, content.clone())])
            .map_err(|e| format!("update probe: {e}"))?;
        replace_us.push(start.elapsed().as_nanos() as f64 / 1000.0);
    }
    Ok((delta_us, replace_us))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Exits the process non-zero, naming the workload, if it is still running
/// after `limit` — a hung run must never hang its caller.
pub fn arm_watchdog(workload: String, limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "uabench: watchdog: workload `{workload}` still running after {:.0} s; giving up",
            limit.as_secs_f64()
        );
        std::process::exit(3);
    });
}
