//! The fleet runner's `StopCost` records against an independent oracle.
//!
//! `FleetRunner` derives each stop's record from the decision it played
//! (`stop_cost_records`), and every golden trace in the daemon tests and
//! drills comes from that same derivation, so none of them can catch a
//! wrong cost formula. Here the oracle is the scalar
//! `AdaptiveController`, run lane by lane on the same stream ids, RNG
//! streams, window and `min_history`: its `StopCost` events are built by
//! its own online loop (eq. 3 settled per stop), so agreement on
//! `(stream, stop, event)` — bytes, at 1, 2 and 8 engine threads, across
//! block boundaries — pins the derivation to the paper's cost model.
//!
//! The four vertices never play a `+inf` threshold (N-Rand's inverse
//! CDF stays below `B`), so the never-restart branch of the cost
//! expression is covered by the runner's unit tests instead.

use automotive_idling::fleetstate::{FleetConfig, FleetRunner};
use automotive_idling::skirental::batch::{CounterRng, VertexKind};
use automotive_idling::skirental::estimator::AdaptiveController;
use automotive_idling::skirental::BreakEven;
use obsv::{TraceEvent, TraceRecord};

const LANES: usize = 16;
const STEPS: usize = 60;
const TRACE_BASE: u64 = 500;
const SEED: u64 = 2014;

/// SplitMix64: a fixed, dependency-free source of test inputs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lane `i`'s stop lengths: short stops below the 28 s break-even and
/// long ones above it, with a long-stop share that varies by lane so
/// different lanes settle on different vertices, plus stops of exactly
/// `B` and of zero length, which tie DET's and TOI's thresholds.
fn lane_stops(lane: usize) -> Vec<f64> {
    let long_share = (lane % 8) as f64 / 8.0 + 0.05;
    let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
    (0..STEPS)
        .map(|t| {
            let bits = mix((lane * STEPS + t) as u64);
            let (u, v) = (unit(bits), unit(mix(bits)));
            match unit(mix(bits ^ 1)) {
                w if w < 0.08 => 28.0,
                w if w > 0.96 => 0.0,
                _ if u < long_share => 28.0 + 200.0 * v,
                _ => 27.9 * v,
            }
        })
        .collect()
}

/// The `StopCost` records in `records`, keyed without `seq` (the scalar
/// loop emits its `StopDecision` first, so its costs sit at seq 1), as
/// canonical JSONL.
fn stop_costs_jsonl(records: Vec<TraceRecord>) -> String {
    let costs: Vec<TraceRecord> = records
        .into_iter()
        .filter(|r| matches!(r.event, TraceEvent::StopCost { .. }))
        .map(|r| TraceRecord { seq: 0, ..r })
        .collect();
    obsv::event::to_jsonl(&costs)
}

#[test]
fn runner_stop_costs_equal_scalar_controller_at_1_2_8_threads() {
    let tracer = obsv::tracer::global();
    tracer.enable();
    let by_lane: Vec<Vec<f64>> = (0..LANES).map(lane_stops).collect();
    let rows: Vec<Vec<f64>> =
        (0..STEPS).map(|t| by_lane.iter().map(|stops| stops[t]).collect()).collect();
    let b = BreakEven::new(28.0).unwrap();

    for (window, min_history) in [(Some(12), 3), (None, 1)] {
        let config = FleetConfig {
            lanes: LANES,
            break_even: b.seconds(),
            window,
            min_history,
            seed: SEED,
            trace_stream_base: TRACE_BASE,
        };

        tracer.clear();
        for (lane, stops) in by_lane.iter().enumerate() {
            let mut ctl = match window {
                Some(w) => AdaptiveController::with_window(b, w),
                None => AdaptiveController::new(b),
            }
            .min_history(min_history);
            obsv::tracer::set_stream(TRACE_BASE + lane as u64);
            ctl.run(stops, &mut CounterRng::for_stream(SEED, lane as u64)).unwrap();
        }
        assert_eq!(tracer.dropped(), 0, "the oracle run must fit the ring");
        let oracle = stop_costs_jsonl(tracer.drain_sorted());

        // Restarts, idle-throughs and stops ending exactly at their
        // threshold (eq. 3's `y >= x` boundary) all occur, and the lanes
        // play several vertices, so the comparison covers both branches
        // of eq. 3 under several policies.
        let oracle_records = obsv::event::parse_jsonl(&oracle).unwrap();
        assert_eq!(oracle_records.len(), LANES * STEPS);
        let restarted = oracle_records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::StopCost { restarted: true, .. }))
            .count();
        assert!(restarted > 0 && restarted < oracle_records.len(), "{restarted} restarts");
        let ties = oracle_records
            .iter()
            .filter(|r| match r.event {
                TraceEvent::StopCost { threshold_b, stop_s, .. } => threshold_b == stop_s,
                _ => false,
            })
            .count();
        assert!(ties > 0, "no stop ended exactly at its threshold");

        for threads in [1, 2, 8] {
            tracer.clear();
            let mut runner = FleetRunner::new(&config, threads).unwrap();
            let mut vertices = Vec::new();
            for block in [&rows[..10], &rows[10..35], &rows[35..]] {
                vertices.extend(runner.run_block_decided(block, true).unwrap().vertices().to_vec());
            }
            assert_eq!(tracer.dropped(), 0, "the runner's trace must fit the ring");
            let fleet = stop_costs_jsonl(tracer.drain_sorted());
            assert_eq!(
                fleet, oracle,
                "window {window:?}, min_history {min_history}, {threads} threads"
            );
            let played = [
                VertexKind::ColdStart,
                VertexKind::Det,
                VertexKind::Toi,
                VertexKind::BDet,
                VertexKind::NRand,
            ]
            .into_iter()
            .filter(|v| vertices.contains(v))
            .count();
            assert!(played >= 3, "only {played} vertices played");
        }
    }
    tracer.disable();
}
