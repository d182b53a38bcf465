//! `fdip` — the command-line front end of the reproduction.
//!
//! ```text
//! fdip gen     --profile server --seed 1 --len 1000000 --out server.fdt
//! fdip stats   server.fdt
//! fdip run     server.fdt --prefetcher fdip --cpf remove --btb conventional:2048
//! fdip compare server.fdt
//! fdip convert server.fdt server.txt
//! fdip tables
//! fdip serve   --addr 127.0.0.1:8080 --threads 2 --queue-depth 64
//! fdip help
//! ```

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    // Pool-spawned worker processes (FDIP_WORKER=1 in the
    // environment) never reach the CLI: they speak framed IPC on
    // stdin/stdout and exit inside this call.
    fdip_sim::worker::maybe_worker_entry();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
