//! The untraced run: set-up, timed recoveries, the closed loop, and the
//! output checks, against an in-process `fleetd` at `ServeOptions::new`
//! defaults on a unix socket in a per-run directory.

use crate::stats::{median, quantile, summarize, windows, Window};
use crate::traced::{self, Basis};
use crate::workload::{fleet_config, generate_pool, Block, Shape, Workload};
use crate::Metric;
use fleetd::{Client, Reply, ServeOptions, ServerHandle};
use fleetstate::{FleetConfig, FleetRunner};
use skirental::batch::VertexKind;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Returns the process-global tracer and risk hub to their start-up
/// state: disabled and empty.
pub fn reset_globals() {
    let tracer = obsv::tracer::global();
    tracer.disable();
    tracer.clear();
    let hub = obsv::risk::global();
    hub.disable();
    hub.reset();
}

/// A per-run directory, removed on every exit path (drop runs on early
/// returns and while a panic unwinds).
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `base/<pid>`, clearing any leftover of that name.
    pub fn create(base: &Path) -> Result<Self, String> {
        let path = base.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(base) = self.path.parent() {
            // Only succeeds once no other run is using the base.
            let _ = std::fs::remove_dir(base);
        }
    }
}

/// A running daemon, stopped when dropped.
struct Daemon {
    handle: Option<ServerHandle>,
}

impl Daemon {
    fn start(
        dir: &Path,
        socket: &Path,
        config: FleetConfig,
        recover: bool,
    ) -> Result<Self, String> {
        let mut options = ServeOptions::new(dir, config);
        options.recover = recover;
        let started = fleetd::serve(&options, socket, None)
            .map_err(|e| format!("serve {}: {e}", dir.display()))?;
        Ok(Self { handle: Some(started.handle) })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

fn connect(socket: &Path, name: &str) -> Result<(Client, u64), String> {
    let mut client = Client::connect_unix(socket).map_err(|e| format!("connect: {e}"))?;
    let (_, step, _) = client.hello(name).map_err(|e| format!("hello: {e}"))?;
    Ok((client, step))
}

/// FNV-1a over a reply's threshold bits and vertex codes.
pub fn digest(thresholds: &[f64], vertices: &[VertexKind]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let words = thresholds.iter().map(|t| t.to_bits()).chain(vertices.iter().map(|&v| v as u64));
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// What one closed-loop client saw.
#[derive(Debug, Default)]
struct ClientLog {
    /// Round trips of answered Submits, µs.
    rtt_us: Vec<f64>,
    /// When each answered Submit completed, seconds after the loop began.
    done_s: Vec<f64>,
    attempted: u64,
    /// Busy replies, Error replies and transport errors.
    failed: u64,
    decisions: u64,
    /// One digest per answered Submit, in order.
    digests: Vec<u64>,
    /// Answers whose shape did not match the request.
    bad_shapes: u64,
    /// The error that ended the loop early, if any.
    fatal: Option<String>,
}

impl ClientLog {
    fn accepted(&self) -> u64 {
        self.digests.len() as u64
    }
}

/// Width of the windows a closed loop is cut into.
const WINDOW_S: f64 = 1.0;

/// The closed loop cut into [`WINDOW_S`] windows; a loop shorter than
/// one window counts as one window of its own length.
fn loop_windows(logs: &[ClientLog], shape: &Shape) -> Vec<Window> {
    let done: Vec<f64> = logs.iter().flat_map(|l| l.done_s.iter().copied()).collect();
    let rtt: Vec<f64> = logs.iter().flat_map(|l| l.rtt_us.iter().copied()).collect();
    let work = (shape.lanes * shape.steps) as f64;
    let cut = windows(&done, &rtt, work, WINDOW_S);
    if !cut.is_empty() {
        return cut;
    }
    let span = done.iter().copied().fold(0.0, f64::max);
    vec![Window { rate: done.len() as f64 * work / span, p50: median(&rtt) }]
}

/// Interference from other tenants only ever slows a window down, so the
/// daemon's own speed is read from its better windows: the upper
/// quartile of window throughput, and the lower quartile of window
/// median latency.
fn better_windows(windows: &[Window]) -> (f64, f64) {
    let rates: Vec<f64> = windows.iter().map(|w| w.rate).collect();
    let p50s: Vec<f64> = windows.iter().map(|w| w.p50).filter(|p| !p.is_nan()).collect();
    (quantile(&rates, 0.75), quantile(&p50s, 0.25))
}

/// Busy answers in a row after which a client gives up.
const MAX_BUSY_STREAK: u32 = 10_000;

/// Submits client `client`'s blocks `k = first, first + 1, …` — pool
/// block `(k * clients + client) % pool` — until `count` are answered
/// or `deadline` passes. `step` (when set) is the daemon's step, checked
/// against each answer; `None` submits without the continuity check.
#[allow(clippy::too_many_arguments)]
fn submit_loop(
    conn: &mut Client,
    pool: &[Block],
    client: usize,
    shape: &Shape,
    first: usize,
    count: Option<usize>,
    deadline: Option<Instant>,
    mut step: Option<u64>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut k = first;
    let mut busy_streak = 0;
    let origin = Instant::now();
    while count.is_none_or(|c| k < first + c) && deadline.is_none_or(|d| Instant::now() < d) {
        let rows = &pool[(k * shape.clients + client) % pool.len()];
        log.attempted += 1;
        let t = Instant::now();
        let reply = conn.submit(step.unwrap_or(u64::MAX), rows);
        let rtt = t.elapsed();
        match reply {
            Ok(Reply::Decisions { first_step, steps, lanes, thresholds, vertices }) => {
                log.rtt_us.push(rtt.as_secs_f64() * 1e6);
                log.done_s.push(origin.elapsed().as_secs_f64());
                let n = rows.len() * shape.lanes;
                let shaped = steps as usize == rows.len()
                    && lanes as usize == shape.lanes
                    && thresholds.len() == n
                    && vertices.len() == n
                    && step.is_none_or(|s| s == first_step);
                log.bad_shapes += u64::from(!shaped);
                if let Some(s) = step.as_mut() {
                    *s += u64::from(steps);
                }
                log.decisions += n as u64;
                log.digests.push(digest(&thresholds, &vertices));
                k += 1;
                busy_streak = 0;
            }
            Ok(_) => {
                log.failed += 1;
                busy_streak += 1;
                if busy_streak >= MAX_BUSY_STREAK {
                    log.fatal = Some("the daemon stayed busy".into());
                    break;
                }
            }
            Err(e) => {
                log.failed += 1;
                log.fatal = Some(format!("submit: {e}"));
                break;
            }
        }
    }
    log
}

/// Runs `shape.clients` closed-loop clients, each on its own connection,
/// released together. Returns their logs and the wall time from release
/// until the last one finished.
fn run_clients(
    socket: &Path,
    pool: &[Block],
    shape: &Shape,
    first: usize,
    count: Option<usize>,
    seconds: Option<f64>,
    check_step: bool,
) -> Result<(Vec<ClientLog>, f64), String> {
    let barrier = Barrier::new(shape.clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let connected = connect(socket, &format!("perfbench-{c}"));
                    barrier.wait();
                    let (mut conn, step) = connected?;
                    let deadline = seconds.map(|s| Instant::now() + Duration::from_secs_f64(s));
                    let step = check_step.then_some(step);
                    Ok(submit_loop(&mut conn, pool, c, shape, first, count, deadline, step))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a client thread panicked".into())))
            .collect::<Result<Vec<ClientLog>, String>>()?;
        Ok((logs, start.elapsed().as_secs_f64()))
    })
}

/// The daemon's stage telemetry, scraped with `Client::telemetry`.
#[derive(Debug, Clone)]
pub struct ServerScrape {
    /// Mean µs per stage (sum / count), in [`STAGES`] order.
    stage_mean_us: Vec<f64>,
    queue_depth_peak: f64,
    busy_rejections: f64,
}

/// Stage histograms and the metric each becomes.
const STAGES: [(&str, &str); 6] = [
    ("fleetd_stage_queue_wait_seconds", "server.queue_wait_us"),
    ("fleetd_stage_frame_decode_seconds", "server.frame_decode_us"),
    ("fleetd_stage_engine_decide_seconds", "server.engine_decide_us"),
    ("fleetd_stage_journal_append_seconds", "server.journal_append_us"),
    ("fleetd_stage_journal_fsync_seconds", "server.journal_fsync_us"),
    ("fleetd_stage_reply_write_seconds", "server.reply_write_us"),
];

impl ServerScrape {
    fn take(conn: &mut Client) -> Result<Self, String> {
        let text = conn.telemetry().map_err(|e| format!("telemetry: {e}"))?;
        let scrape = obsv::telemetry::parse(&text).map_err(|e| format!("telemetry: {e}"))?;
        let stage_mean_us = STAGES
            .iter()
            .map(|(series, _)| {
                scrape
                    .histograms
                    .get(*series)
                    .filter(|h| h.count > 0.0)
                    .map_or(0.0, |h| h.sum / h.count * 1e6)
            })
            .collect();
        Ok(Self {
            stage_mean_us,
            queue_depth_peak: scrape.gauge("fleetd_queue_depth_peak").unwrap_or(0.0),
            busy_rejections: scrape.counter("fleetd_busy_rejections_total").unwrap_or(0.0),
        })
    }

    /// The `server.*` metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m: Vec<Metric> = STAGES
            .iter()
            .zip(&self.stage_mean_us)
            .map(|((_, name), &v)| Metric::new(name, v, "us", "stage mean"))
            .collect();
        m.push(Metric::new("server.queue_depth_peak", self.queue_depth_peak, "count", "gauge"));
        m.push(Metric::new("server.busy_rejections", self.busy_rejections, "count", "counter"));
        m
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// A failed output check.
fn check(ok: bool, name: &str, detail: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("check {name} failed: {}", detail()))
    }
}

/// What every run shares.
struct Ctx<'a> {
    workload: Workload,
    shape: Shape,
    config: FleetConfig,
    pool: &'a [Block],
    work: &'a Path,
    socket: PathBuf,
}

impl Ctx<'_> {
    fn check_step(&self) -> bool {
        self.shape.clients == 1
    }

    fn name(&self, check: &str) -> String {
        format!("{}.{check}", self.workload.name())
    }
}

/// The journal the timed part reads, and what was true before it stopped.
struct Prepared {
    dir: PathBuf,
    state: Vec<u8>,
    steps: u64,
    logs: Vec<ClientLog>,
    server: ServerScrape,
    setup_s: Vec<f64>,
    /// The warm-up loops of every repetition, windowed.
    windows: Vec<Window>,
    /// Round trips of every repetition's warm-up Submits, µs.
    rtt_us: Vec<f64>,
}

/// Set-up, repeated `setup_reps` times (the last one is kept): a fresh
/// daemon, every client's warm-up blocks, a telemetry scrape and a state
/// export, then a graceful stop.
fn prepare(ctx: &Ctx) -> Result<Prepared, String> {
    let mut kept = None;
    let (mut setup_s, mut windows, mut rtt_us) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..ctx.shape.setup_reps {
        reset_globals();
        let dir = ctx.work.join(format!("fleet{rep}"));
        let start = Instant::now();
        let daemon = Daemon::start(&dir, &ctx.socket, ctx.config, false)?;
        let warmup = Some(ctx.shape.warmup_blocks);
        let (logs, _) =
            run_clients(&ctx.socket, ctx.pool, &ctx.shape, 0, warmup, None, ctx.check_step())?;
        for log in &logs {
            check(log.fatal.is_none() && log.failed == 0, &ctx.name("warmup_answered"), || {
                format!("{} failed Submits ({:?})", log.failed, log.fatal)
            })?;
            check(log.bad_shapes == 0, &ctx.name("warmup_reply_shapes"), || {
                format!("{} replies did not match their request", log.bad_shapes)
            })?;
        }
        let (mut ctl, _) = connect(&ctx.socket, "perfbench-ctl")?;
        let server = ServerScrape::take(&mut ctl)?;
        let state = ctl.export_state().map_err(|e| format!("export: {e}"))?;
        let steps = ctl.stats().map_err(|e| format!("stats: {e}"))?.step;
        drop(ctl);
        drop(daemon);
        setup_s.push(start.elapsed().as_secs_f64());
        windows.extend(loop_windows(&logs, &ctx.shape));
        rtt_us.extend(logs.iter().flat_map(|l| l.rtt_us.iter().copied()));
        if let Some((old, ..)) = kept.replace((dir, state, steps, logs, server)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (dir, state, steps, logs, server) = kept.ok_or("the shape asks for no set-up")?;
    Ok(Prepared { dir, state, steps, logs, server, setup_s, windows, rtt_us })
}

/// One timed recovery: `serve` with `recover` set, up to the first
/// `HelloAck`. The recovered state is then checked against the export
/// taken before the stop.
fn recover_once(ctx: &Ctx, prepared: &Prepared) -> Result<(f64, Daemon), String> {
    reset_globals();
    let start = Instant::now();
    let daemon = Daemon::start(&prepared.dir, &ctx.socket, ctx.config, true)?;
    let (mut conn, step) = connect(&ctx.socket, "perfbench-recover")?;
    let seconds = start.elapsed().as_secs_f64();
    check(step == prepared.steps, &ctx.name("recovered_step"), || {
        format!("resumed at step {step}, the journal holds {}", prepared.steps)
    })?;
    let state = conn.export_state().map_err(|e| format!("export: {e}"))?;
    check(state == prepared.state, &ctx.name("recovered_state_bit_identical"), || {
        "ExportState after recovery differs from the export before the stop".into()
    })?;
    Ok((seconds, daemon))
}

/// `bulk`: the daemon's decisions and final state equal an in-process
/// `FleetRunner` fed the same blocks with the same thread count.
fn check_bulk(ctx: &Ctx, digests: &[u64], state: &[u8]) -> Result<(), String> {
    reset_globals();
    let threads = ServeOptions::new(ctx.work, ctx.config).threads;
    let mut runner = FleetRunner::new(&ctx.config, threads).map_err(|e| e.to_string())?;
    for (k, &want) in digests.iter().enumerate() {
        let rows = &ctx.pool[k % ctx.pool.len()];
        let got = runner.run_block_decided(rows, false).map_err(|e| e.to_string())?;
        check(
            digest(got.thresholds(), got.vertices()) == want,
            &ctx.name("decisions_bit_identical"),
            || format!("block {k} differs from an in-process FleetRunner"),
        )?;
    }
    let reference = fleetstate::encode_fleet_state(&runner.export_state());
    check(reference == state, &ctx.name("state_bit_identical"), || {
        "the daemon's final ExportState differs from an in-process FleetRunner".into()
    })
}

/// The result of one run.
pub struct Outcome {
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Of those, the ones refused or failed.
    pub failed: u64,
    /// End-to-end metrics, always.
    pub end_to_end: Vec<Metric>,
    /// Figures printed but not reported in the result line.
    pub printed: Vec<Metric>,
    /// Per-layer metrics, when traced.
    pub per_layer: Vec<Metric>,
}

/// Runs `workload` for `seconds` on inputs made from `seed`; with
/// `trace`, follows with the traced run and writes its spans to
/// `spans_path`. Working files live under `base` and are removed before
/// returning.
pub fn run(
    workload: Workload,
    shape: Shape,
    seed: u64,
    seconds: f64,
    spans_path: Option<&Path>,
    base: &Path,
) -> Result<Outcome, String> {
    let work = WorkDir::create(base)?;
    let pool = generate_pool(seed, shape.lanes, shape.steps, shape.pool_blocks);
    let ctx = Ctx {
        workload,
        shape,
        config: fleet_config(shape.lanes),
        pool: &pool,
        work: work.path(),
        socket: work.path().join("d.sock"),
    };
    let defaults = ServeOptions::new(work.path(), ctx.config);
    let prepared = prepare(&ctx)?;
    let lanes = shape.lanes as u64;

    let mut recover_s = Vec::new();
    let (attempted, failed, decisions_per_s, submit_p50, rtt_us, server, basis, peak);
    if workload == Workload::Recover {
        let start = Instant::now();
        while recover_s.len() < shape.recoveries || start.elapsed().as_secs_f64() < seconds {
            let (s, daemon) = recover_once(&ctx, &prepared)?;
            recover_s.push(s);
            drop(daemon);
        }
        peak = peak_rss_mb()?;
        attempted = recover_s.len() as u64;
        failed = 0;
        decisions_per_s = (prepared.steps * lanes) as f64 / median(&recover_s);
        submit_p50 = better_windows(&prepared.windows).1;
        rtt_us = prepared.rtt_us.clone();
        server = prepared.server.clone();
        basis = Basis::Recover { seconds: median(&recover_s) };
    } else {
        let mut live: Option<Daemon> = None;
        for _ in 0..shape.recoveries {
            // Stopping a daemon removes its socket, so the previous one
            // goes before the next binds.
            drop(live.take());
            let (s, daemon) = recover_once(&ctx, &prepared)?;
            recover_s.push(s);
            live = Some(daemon);
        }
        let daemon = live.ok_or("the shape asks for no recovery")?;
        let (mut ctl, _) = connect(&ctx.socket, "perfbench-ctl")?;
        let before = ctl.stats().map_err(|e| format!("stats: {e}"))?;
        let first = shape.warmup_blocks;
        let (logs, wall) =
            run_clients(&ctx.socket, &pool, &shape, first, None, Some(seconds), ctx.check_step())?;
        let after = ctl.stats().map_err(|e| format!("stats: {e}"))?;
        server = ServerScrape::take(&mut ctl)?;
        let state = ctl.export_state().map_err(|e| format!("export: {e}"))?;
        drop(ctl);
        drop(daemon);
        peak = peak_rss_mb()?;

        attempted = logs.iter().map(|l| l.attempted).sum();
        failed = logs.iter().map(|l| l.failed).sum();
        let accepted: u64 = logs.iter().map(ClientLog::accepted).sum();
        (decisions_per_s, submit_p50) = better_windows(&loop_windows(&logs, &shape));
        rtt_us = logs.iter().flat_map(|l| l.rtt_us.iter().copied()).collect::<Vec<_>>();
        let decisions = logs.iter().map(|l| l.decisions).sum::<u64>() as f64;
        basis = Basis::Serve {
            rtt_ns_per_decision: rtt_us.iter().sum::<f64>() * 1e3 / decisions,
            wall_ns_per_decision: wall * 1e9 / decisions,
        };

        for log in &logs {
            check(log.fatal.is_none(), &ctx.name("every_submit_answered"), || {
                format!("{:?}", log.fatal)
            })?;
            check(log.bad_shapes == 0, &ctx.name("reply_shapes"), || {
                format!("{} replies did not match their request", log.bad_shapes)
            })?;
        }
        let ingested = after.blocks_ingested - before.blocks_ingested;
        check(ingested == accepted, &ctx.name("blocks_ingested"), || {
            format!("Stats counts {ingested} blocks ingested, clients saw {accepted} accepted")
        })?;
        let frames = after.journal_frames - before.journal_frames;
        let want = accepted * shape.steps as u64;
        check(frames == want, &ctx.name("journal_frames"), || {
            format!("Stats counts {frames} journal frames, the accepted Submits hold {want} steps")
        })?;
        if workload == Workload::Bulk {
            let digests: Vec<u64> =
                prepared.logs[0].digests.iter().chain(&logs[0].digests).copied().collect();
            check_bulk(&ctx, &digests, &state)?;
        }
    }
    let rtt = summarize(&rtt_us).ok_or("no Submit was answered")?;
    let end_to_end = vec![
        Metric::new(
            "decisions_per_s",
            decisions_per_s,
            "1/s",
            match workload {
                Workload::Recover => "journaled decisions / recover_s",
                _ => "upper quartile of 1 s windows",
            },
        ),
        Metric::new(
            "submit_p50_us",
            submit_p50,
            "us",
            format!("lower quartile of 1 s window medians, n={} Submits", rtt.n),
        ),
        Metric::new(
            "recover_s",
            median(&recover_s),
            "s",
            format!("median of n={}", recover_s.len()),
        ),
        Metric::new(
            "setup_s",
            median(&prepared.setup_s),
            "s",
            format!("median of n={}", prepared.setup_s.len()),
        ),
        Metric::new("peak_rss_mb", peak, "MB", "VmHWM"),
        Metric::new(
            "answered_frac",
            1.0 - failed as f64 / attempted as f64,
            "frac",
            format!("{failed} of {attempted} failed"),
        ),
    ];

    let mut per_layer = Vec::new();
    if let Some(spans_path) = spans_path {
        let blocks = (0..shape.traced_blocks).map(|j| &pool[j % pool.len()]).collect();
        let inputs = traced::Inputs {
            config: ctx.config,
            threads: defaults.threads,
            snapshot_every: defaults.snapshot_every,
            blocks,
            basis,
            server: &server,
        };
        per_layer = traced::run(&inputs, work.path(), spans_path)?;
    }
    reset_globals();
    let printed = vec![Metric::new(
        "submit_p99_us",
        rtt.tail,
        "us",
        format!("p{} of n={} Submits, median {}", rtt.tail_q * 100.0, rtt.n, rtt.p50),
    )];
    Ok(Outcome { attempted, failed, end_to_end, printed, per_layer })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The daemon and the checks use the process-global tracer and risk
    /// hub, so tests that touch them take turns.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn smoke_shape(workload: Workload) -> Shape {
        Shape {
            lanes: if workload == Workload::Chatty { 8 } else { 16 },
            pool_blocks: 4,
            warmup_blocks: 6,
            recoveries: 2,
            setup_reps: 2,
            traced_blocks: 8,
            ..workload.shape()
        }
    }

    #[test]
    fn every_workload_runs_and_passes_its_checks() {
        let _turn = GLOBALS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let base = Path::new("work/smoke");
        for workload in [Workload::Bulk, Workload::Chatty, Workload::Recover] {
            let spans = base.join(format!("spans-{}.jsonl", workload.name()));
            let outcome = run(workload, smoke_shape(workload), 3, 0.3, Some(&spans), base)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let names: Vec<&str> = outcome.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(
                names,
                [
                    "decisions_per_s",
                    "submit_p50_us",
                    "recover_s",
                    "setup_s",
                    "peak_rss_mb",
                    "answered_frac"
                ]
            );
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
                assert!(m.value.is_finite(), "{} {} = {}", workload.name(), m.name, m.value);
            }
            assert!(outcome.end_to_end.iter().all(|m| m.value > 0.0));
            let layer =
                |name: &str| outcome.per_layer.iter().find(|m| m.name == name).unwrap().value;
            assert_eq!(layer("runner.trace_records_per_decision"), 1.0);
            assert_eq!(layer("recovery.frames_rebuilt"), 8.0 * smoke_shape(workload).steps as f64);
            let text = std::fs::read_to_string(&spans).unwrap();
            std::fs::remove_file(&spans).unwrap();
            assert!(text.lines().any(|l| l.contains("\"name\":\"proto.encode_request\"")));
        }
        let _ = std::fs::remove_dir(base);
        // The per-run directory is gone once the run returns.
        assert!(!base.join(std::process::id().to_string()).exists());
    }

    #[test]
    fn the_work_dir_goes_when_a_panic_unwinds() {
        let base = Path::new("work/unwind");
        let unwound = std::panic::catch_unwind(|| {
            let work = WorkDir::create(base).unwrap();
            std::fs::write(work.path().join("journal"), b"x").unwrap();
            panic!("a check panicked");
        });
        assert!(unwound.is_err());
        assert!(!base.exists());
    }

    #[test]
    fn a_wrong_answer_fails_the_named_check() {
        let _turn = GLOBALS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let shape = smoke_shape(Workload::Bulk);
        let pool = generate_pool(1, shape.lanes, shape.steps, shape.pool_blocks);
        let ctx = Ctx {
            workload: Workload::Bulk,
            shape,
            config: fleet_config(shape.lanes),
            pool: &pool,
            work: Path::new("work"),
            socket: PathBuf::new(),
        };
        let err = check_bulk(&ctx, &[0], &[]).unwrap_err();
        assert!(err.starts_with("check bulk.decisions_bit_identical failed"), "{err}");
        let mut runner = FleetRunner::new(&ctx.config, 2).unwrap();
        let right = runner.run_block_decided(&pool[0], false).unwrap();
        let err =
            check_bulk(&ctx, &[digest(right.thresholds(), right.vertices())], &[]).unwrap_err();
        assert!(err.starts_with("check bulk.state_bit_identical failed"), "{err}");
    }
}
