//! The traced run: the workload's blocks replayed through each layer's
//! public functions, every call wrapped in a benchmark-side span, then
//! reduced to per-layer costs and a residual against the untraced run.
//!
//! Three kinds of pass share one span recorder:
//! * the **serve path** — what the daemon does per Submit, in order:
//!   request codec, journal append, runner with risk lit and decision
//!   trace on, tracer drain, snapshot at the cadence, reply codec. Each
//!   block is a `request` root span with one child per layer call;
//! * **differential passes** over the same blocks — the runner dark and
//!   lit with the trace off, and the bare batch kernel — whose
//!   differences isolate the risk plane and the decision trace;
//! * the **read path** on the journal the serve path wrote — what a
//!   recovering `serve` does: `PersistentFleet::recover`, reading and
//!   parsing the journal, and the full-journal risk rebuild.

use crate::harness::{reset_globals, ServerScrape};
use crate::spans::{children_self_time, self_time_by_name, Recorder};
use crate::workload::Block;
use crate::Metric;
use fleetd::proto::{self, Reply, Request};
use fleetstate::{FleetConfig, FleetRunner, Journal, PersistentFleet, JOURNAL_FILE, SNAPSHOT_FILE};
use skirental::batch::{BatchStore, CounterRng, VertexKind};
use std::path::Path;
use std::time::Instant;

/// Blocks per risk-rebuild call, as the daemon's recovering `serve` uses.
const REBUILD_CHUNK: usize = 4096;

/// What the residual is taken against.
#[derive(Debug, Clone, Copy)]
pub enum Basis {
    /// Serving.
    Serve {
        /// Mean Submit round trip of the untraced run per decision it
        /// carried: the serial path one Submit takes, which the layer
        /// self times should add up to.
        rtt_ns_per_decision: f64,
        /// `1e9 / decisions_per_s` of the untraced run.
        wall_ns_per_decision: f64,
    },
    /// Recovery: the untraced median time to the first `HelloAck`.
    Recover {
        /// `recover_s` of the untraced run.
        seconds: f64,
    },
}

/// Everything the traced run needs from the untraced one.
pub struct Inputs<'a> {
    /// The daemon's fleet configuration.
    pub config: FleetConfig,
    /// The daemon's engine threads.
    pub threads: usize,
    /// The daemon's snapshot cadence, steps.
    pub snapshot_every: u64,
    /// The blocks to replay, in submission order.
    pub blocks: Vec<&'a Block>,
    /// The untraced end-to-end figure the residual is taken against.
    pub basis: Basis,
    /// The daemon's stage telemetry from the untraced run.
    pub server: &'a ServerScrape,
}

/// Totals of one serve-path pass.
#[derive(Default)]
struct ServePass {
    wall_s: f64,
    request_bytes: u64,
    reply_bytes: u64,
    journal_bytes: u64,
    appends: u64,
    write_s: f64,
    sync_s: f64,
    records: u64,
}

fn err(what: &str) -> impl Fn(fleetstate::PersistError) -> String + '_ {
    move |e| format!("traced run: {what}: {e}")
}

/// Replays the blocks along the daemon's per-Submit path into a fresh
/// journal in `dir`.
fn serve_pass(rec: &mut Recorder, dir: &Path, inp: &Inputs) -> Result<ServePass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("traced run: {}: {e}", dir.display()))?;
    let config = &inp.config;
    let mut journal = Journal::create(&dir.join(JOURNAL_FILE), config).map_err(err("journal"))?;
    let header_bytes = journal.bytes_written();
    let snapshots = dir.join(SNAPSHOT_FILE);
    let mut runner = FleetRunner::new(config, inp.threads).map_err(err("runner"))?;
    reset_globals();
    let tracer = obsv::tracer::global();
    tracer.set_capacity((config.lanes * 8).max(1 << 16));
    tracer.enable();
    obsv::risk::global().enable();

    let mut pass = ServePass::default();
    let start = Instant::now();
    for (id, block) in inp.blocks.iter().enumerate() {
        let id = id as u64;
        let root = rec.open("request", None, id);
        let parent = Some(root);
        let step = runner.step();
        let request = Request::Submit { first_step: step, rows: block.to_vec() };
        let frame =
            rec.time("proto.encode_request", parent, id, || proto::encode_request(&request));
        let decoded =
            rec.time("proto.decode_request", parent, id, || proto::decode_request(&frame));
        let Ok(Request::Submit { rows, .. }) = decoded else {
            return Err("traced run: a Submit frame did not decode as a Submit".into());
        };
        let timing = rec
            .time("journal.append", parent, id, || journal.append_block_timed(step, &rows))
            .map_err(err("journal append"))?;
        let decisions = rec
            .time("runner.serve", parent, id, || runner.run_block_decided(&rows, true))
            .map_err(err("runner"))?;
        let records = rec.time("tracer.drain", parent, id, || tracer.drain_sorted());
        let after = runner.step();
        if inp.snapshot_every > 0 && after / inp.snapshot_every > step / inp.snapshot_every {
            let state = runner.export_state();
            rec.time("snapshot.write", parent, id, || {
                fleetstate::append_snapshot(&snapshots, &state)
            })
            .map_err(err("snapshot"))?;
        }
        let reply = Reply::Decisions {
            first_step: step,
            steps: decisions.steps() as u32,
            lanes: decisions.lanes() as u32,
            thresholds: decisions.thresholds().to_vec(),
            vertices: decisions.vertices().to_vec(),
        };
        let out = rec.time("proto.encode_reply", parent, id, || proto::encode_reply(&reply));
        let back = rec.time("proto.decode_reply", parent, id, || proto::decode_reply(&out));
        if back.as_ref() != Ok(&reply) {
            return Err("traced run: a Decisions reply did not round-trip".into());
        }
        rec.close(root);
        pass.request_bytes += frame.len() as u64;
        pass.reply_bytes += out.len() as u64;
        pass.appends += 1;
        pass.write_s += timing.write_s;
        pass.sync_s += timing.sync_s;
        pass.records += records.len() as u64;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.journal_bytes = journal.bytes_written() - header_bytes;
    reset_globals();
    Ok(pass)
}

/// The runner alone over every block, trace off, risk plane `lit` or
/// dark; one root span per block.
fn runner_pass(
    rec: &mut Recorder,
    name: &'static str,
    lit: bool,
    inp: &Inputs,
) -> Result<(), String> {
    reset_globals();
    if lit {
        obsv::risk::global().enable();
    }
    let mut runner = FleetRunner::new(&inp.config, inp.threads).map_err(err("runner"))?;
    for (id, block) in inp.blocks.iter().enumerate() {
        rec.time(name, None, id as u64, || runner.run_block_decided(block, false))
            .map_err(err(name))?;
    }
    reset_globals();
    Ok(())
}

/// The batch kernel alone, one store over the whole fleet on one thread:
/// `decide_batch` then `observe_batch` per step.
fn kernel_pass(rec: &mut Recorder, inp: &Inputs) -> Result<(), String> {
    let config = &inp.config;
    let lanes = config.lanes;
    let break_even = skirental::BreakEven::new(config.break_even)
        .map_err(|e| format!("traced run: break-even: {e}"))?;
    let store = match config.window {
        Some(w) => BatchStore::with_window(break_even, lanes, w),
        None => BatchStore::new(break_even, lanes),
    };
    let mut store = store.min_history(config.min_history);
    let mut rngs: Vec<CounterRng> =
        (0..lanes).map(|i| CounterRng::for_stream(config.seed, i as u64)).collect();
    let mut thresholds = vec![0.0; lanes];
    let mut vertices = vec![VertexKind::ColdStart; lanes];
    let kernel = |e: skirental::Error| format!("traced run: batch kernel: {e}");
    for (id, block) in inp.blocks.iter().enumerate() {
        let id = id as u64;
        for row in block.iter() {
            rec.time("batch.decide", None, id, || {
                store.decide_batch(&mut rngs, &mut thresholds, &mut vertices)
            })
            .map_err(kernel)?;
            rec.time("batch.observe", None, id, || store.observe_batch(row)).map_err(kernel)?;
        }
    }
    std::hint::black_box((&thresholds, &vertices));
    Ok(())
}

/// Counts from the read path.
struct ReadPass {
    frames_replayed: u64,
    frames_rebuilt: u64,
}

/// What a recovering `serve` does before it answers, on `dir`'s journal.
fn read_pass(rec: &mut Recorder, dir: &Path, inp: &Inputs) -> Result<ReadPass, String> {
    let config = &inp.config;
    reset_globals();
    let tracer = obsv::tracer::global();
    tracer.set_capacity((config.lanes * 8).max(1 << 16));
    tracer.enable();
    let root = rec.open("recover", None, 0);
    let parent = Some(root);
    let (fleet, outcome) = rec
        .time("recovery.replay", parent, 0, || {
            PersistentFleet::recover(dir, config, inp.threads, inp.snapshot_every)
        })
        .map_err(err("recover"))?;
    drop(fleet);
    let hub = obsv::risk::global();
    hub.reset();
    hub.enable();
    let path = dir.join(JOURNAL_FILE);
    let bytes = rec
        .time("journal.read", parent, 0, || std::fs::read(&path))
        .map_err(|e| format!("traced run: {}: {e}", path.display()))?;
    let journal = rec
        .time("journal.parse", parent, 0, || fleetstate::parse_journal(&bytes))
        .map_err(err("parse"))?;
    rec.time("recovery.risk_rebuild", parent, 0, || {
        let mut rebuild = FleetRunner::new(config, inp.threads)?;
        for chunk in journal.steps.chunks(REBUILD_CHUNK) {
            rebuild.run_block(chunk, false)?;
        }
        Ok(())
    })
    .map_err(err("risk rebuild"))?;
    rec.close(root);
    reset_globals();
    Ok(ReadPass {
        frames_replayed: outcome.frames_replayed,
        frames_rebuilt: journal.steps.len() as u64,
    })
}

/// Mean cost of recording one span, ns: the median of a few rounds of
/// empty spans on a throwaway recorder.
fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut rec = Recorder::new();
            let start = Instant::now();
            for i in 0..SPANS {
                rec.time("calibration", None, u64::from(i), || std::hint::black_box(i));
            }
            start.elapsed().as_nanos() as f64 / f64::from(SPANS)
        })
        .collect();
    crate::stats::median(&rounds)
}

/// Runs every pass, writes the span file, and returns the per-layer
/// metrics.
pub fn run(inp: &Inputs, work: &Path, spans_path: &Path) -> Result<Vec<Metric>, String> {
    let lanes = inp.config.lanes as f64;
    let decisions: f64 = inp.blocks.iter().map(|b| b.len() as f64 * lanes).sum();

    let mut rec = Recorder::new();
    let served_dir = work.join("serve-traced");
    let served = serve_pass(&mut rec, &served_dir, inp)?;
    runner_pass(&mut rec, "runner.dark", false, inp)?;
    runner_pass(&mut rec, "runner.lit", true, inp)?;
    kernel_pass(&mut rec, inp)?;
    let read = read_pass(&mut rec, &served_dir, inp)?;
    let _ = std::fs::remove_dir_all(&served_dir);
    rec.write_jsonl(spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let spans = rec.spans();
    let by_name = self_time_by_name(spans);
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let per = |name: &str| ns(name) / decisions;
    let journal_decisions = read.frames_rebuilt as f64 * lanes;

    let dark = per("runner.dark");
    let lit = per("runner.lit");
    let trace = per("runner.serve") + per("tracer.drain") - lit;
    let (e2e_ns, layers_ns, daemon_ns) = match inp.basis {
        Basis::Serve { rtt_ns_per_decision, wall_ns_per_decision } => (
            rtt_ns_per_decision,
            children_self_time(spans, "request") as f64 / decisions,
            wall_ns_per_decision,
        ),
        Basis::Recover { seconds } => {
            let ns = seconds * 1e9 / journal_decisions;
            (ns, children_self_time(spans, "recover") as f64 / journal_decisions, ns)
        }
    };
    // The spans' own cost: the clock reads of every recorded span, priced
    // by a calibration loop, against the serve path's traced wall time.
    let span_cost_s = spans.len() as f64 * span_cost_ns() / 1e9;
    let overhead = span_cost_s / (served.wall_s - span_cost_s);
    let per_append_us = |s: f64| s / served.appends as f64 * 1e6;

    let mut m = vec![
        Metric::new("proto.encode_request_ns", per("proto.encode_request"), "ns", "per decision"),
        Metric::new("proto.decode_request_ns", per("proto.decode_request"), "ns", "per decision"),
        Metric::new("proto.encode_reply_ns", per("proto.encode_reply"), "ns", "per decision"),
        Metric::new("proto.decode_reply_ns", per("proto.decode_reply"), "ns", "per decision"),
        Metric::new(
            "proto.bytes_per_decision",
            (served.request_bytes + served.reply_bytes) as f64 / decisions,
            "B",
            "request + reply frames",
        ),
        Metric::new("runner.dark_ns", dark, "ns", "per decision, risk dark, trace off"),
        Metric::new("runner.risk_ns", lit - dark, "ns", "per decision, lit minus dark"),
        Metric::new(
            "runner.trace_ns",
            trace,
            "ns",
            "per decision, emit + drain_sorted minus emit off",
        ),
        Metric::new(
            "runner.trace_records_per_decision",
            served.records as f64 / decisions,
            "count",
            "records drained",
        ),
        Metric::new("batch.decide_ns", per("batch.decide"), "ns", "per decision, one thread"),
        Metric::new("batch.observe_ns", per("batch.observe"), "ns", "per decision, one thread"),
        Metric::new("journal.write_us", per_append_us(served.write_s), "us", "per Submit frame"),
        Metric::new("journal.sync_us", per_append_us(served.sync_s), "us", "per Submit frame"),
        Metric::new(
            "journal.bytes_per_decision",
            served.journal_bytes as f64 / decisions,
            "B",
            "journal frames",
        ),
        Metric::new(
            "snapshot.write_ns",
            per("snapshot.write"),
            "ns",
            "per decision, at the cadence",
        ),
        Metric::new(
            "journal.read_ns",
            ns("journal.read") / journal_decisions,
            "ns",
            "per journaled decision",
        ),
        Metric::new(
            "journal.parse_ns",
            ns("journal.parse") / journal_decisions,
            "ns",
            "per journaled decision",
        ),
        Metric::new(
            "recovery.replay_s",
            ns("recovery.replay") / 1e9,
            "s",
            "PersistentFleet::recover",
        ),
        Metric::new(
            "recovery.risk_rebuild_s",
            ns("recovery.risk_rebuild") / 1e9,
            "s",
            "full journal",
        ),
        Metric::new(
            "recovery.frames_replayed",
            read.frames_replayed as f64,
            "count",
            "journal tail",
        ),
        Metric::new(
            "recovery.frames_rebuilt",
            read.frames_rebuilt as f64,
            "count",
            "whole journal",
        ),
    ];
    m.extend(inp.server.metrics());
    m.extend([
        Metric::new("residual_ns", e2e_ns - layers_ns, "ns", "end-to-end minus layer self times"),
        Metric::new(
            "ratio.daemon_vs_runner",
            dark / daemon_ns,
            "ratio",
            "runner-dark ns / daemon ns",
        ),
        Metric::new("ratio.risk_lit_vs_dark", dark / lit, "ratio", "dark ns / lit ns"),
        Metric::new(
            "ratio.trace_lit_vs_dark",
            lit / (lit + trace),
            "ratio",
            "trace-off ns / trace-on ns",
        ),
        Metric::new(
            "bench_trace_overhead_frac",
            overhead,
            "frac",
            "span cost / serve path untraced",
        ),
    ]);
    Ok(m)
}
