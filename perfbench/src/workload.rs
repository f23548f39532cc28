//! The three workloads: their shapes and their seeded inputs.

use drivesim::{Area, VehicleProfile};
use fleetstate::FleetConfig;
use skirental::batch::CounterRng;

/// One Submit's observations, time-major: `block[t][lane]`.
pub type Block = Vec<Vec<f64>>;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, 2048 lanes × 8 steps per Submit.
    Bulk,
    /// Two clients, 64 lanes × 1 step per Submit.
    Chatty,
    /// Recovery of a journal of 4608 steps × 2048 lanes.
    Recover,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "bulk" => Some(Self::Bulk),
            "chatty" => Some(Self::Chatty),
            "recover" => Some(Self::Recover),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Bulk => "bulk",
            Self::Chatty => "chatty",
            Self::Recover => "recover",
        }
    }

    /// The shape the benchmark runs.
    pub fn shape(self) -> Shape {
        match self {
            Self::Bulk => Shape {
                lanes: 2048,
                steps: 8,
                clients: 1,
                pool_blocks: 32,
                warmup_blocks: 32,
                recoveries: 15,
                setup_reps: 5,
                traced_blocks: 640,
            },
            Self::Chatty => Shape {
                lanes: 64,
                steps: 1,
                clients: 2,
                pool_blocks: 4096,
                warmup_blocks: 256,
                recoveries: 15,
                setup_reps: 5,
                traced_blocks: 4608,
            },
            Self::Recover => Shape {
                lanes: 2048,
                steps: 8,
                clients: 1,
                pool_blocks: 32,
                warmup_blocks: 576,
                recoveries: 3,
                setup_reps: 5,
                traced_blocks: 576,
            },
        }
    }
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Vehicles in the fleet.
    pub lanes: usize,
    /// Steps per Submit.
    pub steps: usize,
    /// Closed-loop client threads, each with its own connection.
    pub clients: usize,
    /// Distinct seeded blocks, cycled through by the clients.
    pub pool_blocks: usize,
    /// Blocks each client submits during set-up; they form the journal
    /// that the timed recoveries read.
    pub warmup_blocks: usize,
    /// Timed recoveries: a fixed count before the closed loop of `bulk`
    /// and `chatty`, the minimum count of `recover`'s timed loop.
    pub recoveries: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Blocks the traced run replays.
    pub traced_blocks: usize,
}

/// The fleet configuration at the `fleetd` command-line defaults, for
/// `lanes` vehicles.
pub fn fleet_config(lanes: usize) -> FleetConfig {
    FleetConfig {
        lanes,
        break_even: 28.0,
        window: Some(64),
        min_history: 8,
        seed: 2014,
        trace_stream_base: 0,
    }
}

/// `blocks` seeded blocks of `steps` × `lanes` stop lengths. Lane `i` is
/// a vehicle of `Area::ALL[i % 3]` with its own profile and its own
/// random stream keyed by `(seed, i)`, so a lane's stops do not depend
/// on the fleet size or the block shape.
pub fn generate_pool(seed: u64, lanes: usize, steps: usize, blocks: usize) -> Vec<Block> {
    let mut pool = vec![vec![vec![0.0; lanes]; steps]; blocks];
    for lane in 0..lanes {
        let mut rng = CounterRng::for_stream(seed, lane as u64);
        let params = Area::ALL[lane % Area::ALL.len()].params();
        let vehicle = VehicleProfile::draw(&params, lane as u32, 7, &mut rng);
        for block in &mut pool {
            for row in block.iter_mut() {
                row[lane] = vehicle.sample_stop(&mut rng).0;
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in [Workload::Bulk, Workload::Chatty, Workload::Recover] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn pool_is_seeded_and_valid() {
        let a = generate_pool(7, 5, 2, 3);
        assert_eq!(a, generate_pool(7, 5, 2, 3));
        assert_ne!(a, generate_pool(8, 5, 2, 3));
        assert_eq!((a.len(), a[0].len(), a[0][0].len()), (3, 2, 5));
        assert!(a.iter().flatten().flatten().all(|y| y.is_finite() && *y >= 0.0));
        // A lane's stream is independent of the fleet size.
        let wide = generate_pool(7, 9, 2, 3);
        assert_eq!(a[2][1][4], wide[2][1][4]);
    }

    #[test]
    fn recover_journal_crosses_one_snapshot() {
        let s = Workload::Recover.shape();
        let steps = (s.warmup_blocks * s.steps) as u64;
        assert!(steps > 4096 && steps < 2 * 4096, "{steps} steps");
    }
}
