//! Fleet acceptance drills, driven through the real `fdip` binary: a
//! worker daemon SIGKILLed mid-run costs re-dispatch, never the run; the
//! shared on-disk result cache makes a second identical run simulate
//! nothing; `fdip workerd` drains gracefully on SIGTERM; and (behind
//! `proptest-tests`) randomized network-fault drills — drop, partition,
//! slow link, corrupt frame — all converge to fault-free output.
//!
//! These drills live here (not in `fdip-sim` unit tests) because fleet
//! dispatch self-execs worker processes on the daemon side — inside a
//! `cargo test` harness that is the libtest runner, not a worker-capable
//! binary. `CARGO_BIN_EXE_fdip` points at the real CLI, which routes
//! re-execed workers through `fdip_sim::worker::maybe_worker_entry`.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

fn fdip(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fdip"));
    cmd.args(args)
        .env_remove("FDIP_FAULTS")
        // Fast liveness detection so partition drills converge in test
        // time rather than the production 5s heartbeat window.
        .env("FDIP_FLEET_HEARTBEAT_MS", "700")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

fn run(args: &[&str]) -> Output {
    fdip(args).output().expect("spawn fdip")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The fault-free in-process rendering of e01 --quick, computed once.
fn baseline() -> &'static str {
    static BASE: OnceLock<String> = OnceLock::new();
    BASE.get_or_init(|| {
        let out = run(&["exp", "e01", "--quick"]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    })
}

/// A live `fdip workerd` child plus the address it actually bound and a
/// running capture of everything it has printed since the banner.
struct Workerd {
    child: Child,
    addr: String,
    captured: Arc<Mutex<String>>,
}

impl Workerd {
    /// Spawns `fdip workerd --listen 127.0.0.1:0` and parses the bound
    /// address from its startup banner.
    fn spawn(slots: usize) -> Workerd {
        Workerd::try_spawn("127.0.0.1:0", slots, &[]).expect("spawn workerd")
    }

    /// Spawns a daemon on a *specific* address (restart drills reuse a
    /// dead daemon's port), retrying while the OS releases the port.
    fn spawn_at(listen: &str, slots: usize, envs: &[(&str, &str)]) -> Workerd {
        for _ in 0..40 {
            if let Some(w) = Workerd::try_spawn(listen, slots, envs) {
                return w;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("workerd at {listen} never came up");
    }

    fn try_spawn(listen: &str, slots: usize, envs: &[(&str, &str)]) -> Option<Workerd> {
        let mut cmd = fdip(&["workerd", "--listen", listen, "--slots"]);
        cmd.arg(slots.to_string());
        for (key, value) in envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().expect("spawn workerd");
        let out = child.stdout.take().expect("workerd stdout");
        let mut reader = BufReader::new(out);
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read workerd banner");
            if n == 0 {
                // Bind failed (port still in TIME_WAIT teardown): reap and
                // let the caller retry.
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
            if let Some(rest) = line.strip_prefix("fdip-workerd listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address in banner")
                    .to_string();
            }
        };
        // Keep draining stdout (so the daemon never blocks on a full
        // pipe), accumulating it for assertions.
        let captured = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&captured);
        std::thread::spawn(move || {
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                sink.lock().expect("capture poisoned").push_str(&line);
                line.clear();
            }
        });
        Some(Workerd {
            child,
            addr,
            captured,
        })
    }

    /// Whether the daemon has printed `needle` yet.
    fn printed(&self, needle: &str) -> bool {
        self.captured
            .lock()
            .expect("capture poisoned")
            .contains(needle)
    }

    fn sigkill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Sends SIGTERM and waits for a clean exit.
    fn sigterm_and_wait(mut self) -> std::process::ExitStatus {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(ok.success(), "kill -TERM failed");
        self.child.wait().expect("wait workerd")
    }
}

impl Drop for Workerd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn sigkilling_a_node_mid_run_costs_redispatch_never_the_run() {
    let w1 = Workerd::spawn(2);
    let mut w2 = Workerd::spawn(2);
    let fleet = format!("{},{}", w1.addr, w2.addr);

    // Every cell sleeps 4s in its remote worker, so all four seats are
    // occupied when the kill lands and the dead node is guaranteed to
    // have cells in flight.
    let slow = "slow@client-1/base:4000,slow@client-1/fdip:4000,\
                slow@server-1/base:4000,slow@server-1/fdip:4000";
    let child = fdip(&[
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--fleet",
        &fleet,
        "--max-attempts",
        "3",
        "--cell-budget-ms",
        "30000",
        "--faults",
        slow,
    ])
    .spawn()
    .expect("spawn fdip exp");

    std::thread::sleep(Duration::from_millis(1500));
    w2.sigkill();

    let out = child.wait_with_output().expect("wait fdip exp");
    let (table, err) = (stdout(&out), stderr(&out));
    assert!(
        out.status.success(),
        "a SIGKILLed worker daemon must not fail the run:\n{err}"
    );
    assert!(!table.contains("FAILED"), "{table}");
    assert_eq!(
        baseline(),
        table,
        "fleet output must be byte-identical to the in-process run"
    );
    assert!(err.contains("node loss(es)"), "{err}");
    assert!(!err.contains("0 node loss(es)"), "{err}");
    assert!(!err.contains("0 cell(s) re-dispatched"), "{err}");
    drop(w1);
}

#[test]
fn a_second_run_against_the_shared_cache_simulates_zero_cells() {
    let w = Workerd::spawn(2);
    let cache = std::env::temp_dir().join(format!("fdip-fleet-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cache_s = cache.to_str().unwrap().to_string();
    let args = [
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--fleet",
        &w.addr,
        "--cache",
        &cache_s,
    ];

    let first = run(&args);
    let err = stderr(&first);
    assert!(first.status.success(), "{err}");
    assert!(err.contains("0 entries restored, 0 corrupt"), "{err}");
    assert_eq!(baseline(), stdout(&first), "fleet must not change results");

    let second = run(&args);
    let err = stderr(&second);
    assert!(second.status.success(), "{err}");
    // All four cells of e01 came back from the on-disk cache before any
    // dispatch: nothing was simulated, locally or remotely.
    assert!(err.contains("4 entries restored, 0 corrupt"), "{err}");
    assert!(err.contains("0 cells simulated"), "{err}");
    assert!(err.contains("4 remote cache hit(s)"), "{err}");
    assert_eq!(
        stdout(&first),
        stdout(&second),
        "a cached run must reproduce the first byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn workerd_drains_to_exit_zero_on_sigterm() {
    let w = Workerd::spawn(1);
    // Give the accept loop a beat to reach steady state before draining.
    std::thread::sleep(Duration::from_millis(200));
    let status = w.sigterm_and_wait();
    assert!(status.success(), "drain must exit 0, got {status:?}");
}

#[test]
fn fleet_flags_enforce_their_preconditions() {
    let no_isolate = run(&["exp", "e01", "--quick", "--fleet", "127.0.0.1:1"]);
    assert!(!no_isolate.status.success());
    assert!(stderr(&no_isolate).contains("--fleet requires --isolate"));

    let no_fleet = run(&[
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--faults",
        "drop@client-1/base",
    ]);
    assert!(!no_fleet.status.success());
    assert!(
        stderr(&no_fleet).contains("--fleet"),
        "{}",
        stderr(&no_fleet)
    );

    let unreachable = run(&[
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--fleet",
        "127.0.0.1:1",
    ]);
    assert!(!unreachable.status.success());
    assert!(
        stderr(&unreachable).contains("no fleet node is reachable"),
        "{}",
        stderr(&unreachable)
    );
}

#[test]
fn a_sigkilled_node_is_readmitted_and_serves_traffic_again() {
    let w1 = Workerd::spawn(2);
    let mut w2 = Workerd::spawn(2);
    let fleet = format!("{},{}", w1.addr, w2.addr);

    // Every cell sleeps 6s: the survivor's seats stay busy long past the
    // victim's readmission (~3s with a 100ms reprobe base), so the
    // re-dispatched cells can only run on the restarted daemon — proving
    // it serves traffic again, not merely that it answered a probe.
    let child = fdip(&[
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--fleet",
        &fleet,
        "--max-attempts",
        "4",
        "--cell-budget-ms",
        "30000",
        "--faults",
        "slow@*/*:6000",
    ])
    .env("FDIP_FLEET_REPROBE_MS", "100")
    .spawn()
    .expect("spawn fdip exp");

    std::thread::sleep(Duration::from_millis(1500));
    w2.sigkill();
    std::thread::sleep(Duration::from_millis(1000));
    let w2b = Workerd::spawn_at(&w2.addr, 2, &[]);

    let out = child.wait_with_output().expect("wait fdip exp");
    let (table, err) = (stdout(&out), stderr(&out));
    assert!(out.status.success(), "{err}");
    assert!(!table.contains("FAILED"), "{table}");
    assert_eq!(
        baseline(),
        table,
        "readmission must not change results by a byte"
    );
    assert!(err.contains("readmitted on probation"), "{err}");
    assert!(!err.contains("0 readmission(s)"), "{err}");
    // The survivor never went down: exactly one loss, the SIGKILL.
    assert!(err.contains("1 node loss(es)"), "{err}");
    // The restarted daemon actually ran cells after readmission.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !w2b.printed("serving cells for a registered peer") {
        assert!(
            Instant::now() < deadline,
            "restarted daemon never served a cell:\n{}",
            w2b.captured.lock().expect("capture poisoned")
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(w1);
}

#[test]
fn a_restarted_daemon_with_a_drifted_fingerprint_is_refused_readmission() {
    let w1 = Workerd::spawn(2);
    let mut w2 = Workerd::spawn(2);
    let fleet = format!("{},{}", w1.addr, w2.addr);

    let child = fdip(&[
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--fleet",
        &fleet,
        "--max-attempts",
        "4",
        "--cell-budget-ms",
        "30000",
        "--faults",
        "slow@*/*:4000",
    ])
    .env("FDIP_FLEET_REPROBE_MS", "100")
    .spawn()
    .expect("spawn fdip exp");

    std::thread::sleep(Duration::from_millis(1500));
    w2.sigkill();
    // The daemon comes back with a drifted build fingerprint (a config
    // tag the client does not share): reprobes must reach it, be refused
    // by name, and never readmit it. The run still converges on the
    // survivor.
    let w2b = Workerd::spawn_at(&w2.addr, 2, &[("FDIP_FLEET_TAG", "drifted")]);

    let out = child.wait_with_output().expect("wait fdip exp");
    let (table, err) = (stdout(&out), stderr(&out));
    assert!(out.status.success(), "{err}");
    assert!(!table.contains("FAILED"), "{table}");
    assert_eq!(baseline(), table, "drift refusal must not change results");
    assert!(
        err.contains("reprobe failed (node refused registration"),
        "{err}"
    );
    assert!(err.contains("0 readmission(s)"), "{err}");
    drop(w2b);
    drop(w1);
}

#[test]
fn fleet_tuning_flags_validate_before_dialing_and_disabled_hedging_is_inert() {
    // Nothing listens on 127.0.0.1:1, so reaching the dial phase would
    // print "unreachable at startup"; a flag error must come first.
    let bad_heartbeat = run(&[
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--fleet",
        "127.0.0.1:1",
        "--fleet-heartbeat-ms",
        "0",
    ]);
    assert!(!bad_heartbeat.status.success());
    let err = stderr(&bad_heartbeat);
    assert!(err.contains("--fleet-heartbeat-ms"), "{err}");
    assert!(!err.contains("unreachable at startup"), "{err}");

    // The env overrides follow the flag's rule and fail just as early,
    // each error naming its variable.
    for (var, value) in [
        ("FDIP_FLEET_HEARTBEAT_MS", "0"),
        ("FDIP_FLEET_CONNECT_MS", "0"),
        ("FDIP_FLEET_REPROBE_MS", "0"),
        ("FDIP_FLEET_HEARTBEAT_MS", "soon"),
        ("FDIP_FLEET_CONNECT_MS", "3s"),
        ("FDIP_FLEET_REPROBE_MS", "-5"),
    ] {
        let out = fdip(&[
            "exp",
            "e01",
            "--quick",
            "--isolate=2",
            "--fleet",
            "127.0.0.1:1",
        ])
        .env(var, value)
        .output()
        .expect("spawn fdip");
        assert!(!out.status.success(), "{var}={value} was accepted");
        let err = stderr(&out);
        assert!(err.contains(var), "{var}={value}: {err}");
        assert!(
            !err.contains("unreachable at startup"),
            "{var}={value}: {err}"
        );
    }

    // A valid heartbeat override on a real fleet run stays byte-identical.
    let w = Workerd::spawn(2);
    let out = run(&[
        "exp",
        "e01",
        "--quick",
        "--isolate=2",
        "--fleet",
        &w.addr,
        "--fleet-heartbeat-ms",
        "700",
    ]);
    let err = stderr(&out);
    assert!(out.status.success(), "{err}");
    assert_eq!(
        baseline(),
        stdout(&out),
        "fleet tuning must not change results"
    );
}

/// Randomized network-fault drills: any single injected fleet fault —
/// severed connection, silent partition, slow link, corrupt frame — is
/// absorbed by re-dispatch and the run converges to fault-free output.
#[cfg(feature = "proptest-tests")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn net_fault_drills_converge_to_fault_free_output(
            kind in prop_oneof![
                Just("drop"),
                Just("partition"),
                Just("slowlink"),
                Just("truncframe"),
            ],
            site in prop_oneof![
                Just("client-1/base"),
                Just("client-1/fdip"),
                Just("server-1/base"),
                Just("server-1/fdip"),
            ],
        ) {
            let spec = if kind == "slowlink" {
                format!("slowlink@{site}:80")
            } else {
                format!("{kind}@{site}")
            };
            let w1 = Workerd::spawn(2);
            let w2 = Workerd::spawn(2);
            let fleet = format!("{},{}", w1.addr, w2.addr);
            let out = run(&[
                "exp",
                "e01",
                "--quick",
                "--isolate=2",
                "--fleet",
                &fleet,
                "--max-attempts",
                "3",
                "--cell-budget-ms",
                "30000",
                "--faults",
                &spec,
            ]);
            let err = stderr(&out);
            prop_assert!(
                out.status.success(),
                "drill {} must not fail the run:\n{}", spec, err
            );
            let table = stdout(&out);
            prop_assert!(!table.contains("FAILED"), "{}", table);
            prop_assert_eq!(
                baseline(),
                table.as_str(),
                "drill {} must converge to fault-free output", spec
            );
        }
    }
}
