//! `fleetd` — the fleet decision daemon.
//!
//! Serves stop/start decisions for a fleet of vehicles over a unix
//! socket (TCP optional), journaling every ingested block before
//! processing so a SIGKILL at any instant is recoverable
//! bit-identically with `--recover`.
//!
//! ```text
//! fleetd --socket /tmp/fleetd.sock --dir /var/lib/fleetd --lanes 10000
//! ```

use fleetd::server::{serve, ServeOptions};
use fleetstate::FleetConfig;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fleetd --socket PATH --dir DIR [--tcp ADDR] [--telemetry-addr ADDR]\n\
         \x20       [--lanes N] [--break-even SECS] [--window N] [--min-history N]\n\
         \x20       [--seed N] [--stream-base N]\n\
         \x20       [--threads N] [--snapshot-every N] [--queue N]\n\
         \x20       [--engine-delay-ms N] [--no-trace] [--recover]\n\
         \n\
         Starts fresh in DIR (refusing an existing journal) unless --recover,\n\
         which resumes the journaled state bit-identically.\n\
         --telemetry-addr serves GET /metrics (Prometheus text exposition)\n\
         and GET /healthz over plain HTTP.\n\
         --no-trace sends subscribers (fleetctl tail) no events. With tracing\n\
         on, a block's decision records are derived only while a tail is\n\
         subscribed. fleetctl replay works either way."
    );
    ExitCode::from(2)
}

struct Cli {
    socket: Option<PathBuf>,
    tcp: Option<String>,
    telemetry_addr: Option<String>,
    dir: Option<PathBuf>,
    lanes: usize,
    break_even: f64,
    window: Option<usize>,
    min_history: usize,
    seed: u64,
    stream_base: u64,
    threads: usize,
    snapshot_every: u64,
    queue: usize,
    engine_delay_ms: u64,
    no_trace: bool,
    recover: bool,
}

impl Cli {
    fn defaults() -> Self {
        Self {
            socket: None,
            tcp: None,
            telemetry_addr: None,
            dir: None,
            lanes: 1024,
            break_even: 28.0,
            window: Some(64),
            min_history: 8,
            seed: 2014,
            stream_base: 0,
            threads: 2,
            snapshot_every: 4096,
            queue: 64,
            engine_delay_ms: 0,
            no_trace: false,
            recover: false,
        }
    }
}

#[allow(clippy::too_many_lines)]
fn parse() -> Option<Cli> {
    let mut cli = Cli::defaults();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = |a: &str, key: &str, rest: &mut dyn Iterator<Item = String>| {
            a.strip_prefix(&format!("{key}=")).map(str::to_string).or_else(|| rest.next())
        };
        macro_rules! arg {
            ($key:literal, $slot:expr, $ty:ty) => {
                if a == $key || a.starts_with(concat!($key, "=")) {
                    $slot = value(&a, $key, &mut args)?.parse::<$ty>().ok()?;
                    continue;
                }
            };
        }
        if a == "--socket" || a.starts_with("--socket=") {
            cli.socket = Some(PathBuf::from(value(&a, "--socket", &mut args)?));
            continue;
        }
        if a == "--dir" || a.starts_with("--dir=") {
            cli.dir = Some(PathBuf::from(value(&a, "--dir", &mut args)?));
            continue;
        }
        if a == "--tcp" || a.starts_with("--tcp=") {
            cli.tcp = Some(value(&a, "--tcp", &mut args)?);
            continue;
        }
        if a == "--telemetry-addr" || a.starts_with("--telemetry-addr=") {
            cli.telemetry_addr = Some(value(&a, "--telemetry-addr", &mut args)?);
            continue;
        }
        if a == "--window" || a.starts_with("--window=") {
            let v = value(&a, "--window", &mut args)?.parse::<usize>().ok()?;
            cli.window = if v == 0 { None } else { Some(v) };
            continue;
        }
        arg!("--lanes", cli.lanes, usize);
        arg!("--break-even", cli.break_even, f64);
        arg!("--min-history", cli.min_history, usize);
        arg!("--seed", cli.seed, u64);
        arg!("--stream-base", cli.stream_base, u64);
        arg!("--threads", cli.threads, usize);
        arg!("--snapshot-every", cli.snapshot_every, u64);
        arg!("--queue", cli.queue, usize);
        arg!("--engine-delay-ms", cli.engine_delay_ms, u64);
        if a == "--no-trace" {
            cli.no_trace = true;
        } else if a == "--recover" {
            cli.recover = true;
        } else {
            return None;
        }
    }
    if cli.socket.is_none() || cli.dir.is_none() || cli.lanes == 0 || cli.queue == 0 {
        return None;
    }
    Some(cli)
}

fn main() -> ExitCode {
    let Some(cli) = parse() else {
        return usage();
    };
    let (Some(socket), Some(dir)) = (cli.socket.clone(), cli.dir.clone()) else {
        return usage();
    };
    let config = FleetConfig {
        lanes: cli.lanes,
        break_even: cli.break_even,
        window: cli.window,
        min_history: cli.min_history,
        seed: cli.seed,
        trace_stream_base: cli.stream_base,
    };
    let options = ServeOptions {
        dir,
        config,
        threads: cli.threads.max(1),
        snapshot_every: cli.snapshot_every,
        queue_capacity: cli.queue,
        emit_trace: !cli.no_trace,
        engine_delay_ms: cli.engine_delay_ms,
        recover: cli.recover,
        telemetry_addr: cli.telemetry_addr.clone(),
    };
    match serve(&options, &socket, cli.tcp.as_deref()) {
        Ok(started) => {
            match &started.recovery {
                Some(outcome) => eprintln!(
                    "fleetd: recovered to step {} (snapshot at {}, {} journal steps replayed); listening on {}",
                    outcome.resumed_step,
                    outcome.snapshot_step,
                    outcome.frames_replayed,
                    socket.display()
                ),
                None => eprintln!(
                    "fleetd: fresh fleet of {} lanes; listening on {}",
                    config.lanes,
                    socket.display()
                ),
            }
            if let Some(addr) = started.telemetry_addr {
                eprintln!("fleetd: telemetry on http://{addr}/metrics");
            }
            started.handle.wait();
            eprintln!("fleetd: stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetd: {e}");
            ExitCode::FAILURE
        }
    }
}
