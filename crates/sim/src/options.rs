//! How a run is configured: one [`RunOptions`] value, fixed when
//! [`Harness::open`](crate::harness::Harness::open) builds the harness.
//!
//! Every knob a run can turn — worker threads, the retry policy, a fault
//! plan, the lockstep batch pass, a journal, the shared result cache, and
//! where cells execute — is a field here. The harness copies them into
//! plain fields when it is built and never changes them afterwards, so two
//! harnesses in one process (two servers, a test and its neighbour) cannot
//! see each other's configuration. `fdip exp` and `exp_all` parse their
//! flags with [`RunOptions::from_args`]; `fdip serve` and the chaos soak
//! build the value directly.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::exec::Reach;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::fleet::FleetConfig;
use crate::supervisor::{self, SupervisorConfig};
use crate::Scale;

/// Where a harness runs its cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// On the harness's own worker threads.
    InProcess,
    /// In a supervised pool of local worker processes (`--isolate`).
    Isolated(SupervisorConfig),
    /// On remote `fdip workerd` daemons (`--fleet`).
    Fleet(FleetConfig),
}

impl Dispatch {
    /// Fleet dispatch to the comma-separated `addrs`, with an optional
    /// heartbeat override in milliseconds.
    ///
    /// # Errors
    ///
    /// When `addrs` names no address, or a `FDIP_FLEET_*_MS` override is
    /// malformed (see [`FleetConfig::new`]).
    pub fn fleet(addrs: &str, heartbeat_ms: Option<u64>) -> Result<Dispatch, String> {
        let addrs: Vec<String> = addrs
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err("--fleet needs at least one HOST:PORT address".to_string());
        }
        let mut config = FleetConfig::new(addrs)?;
        if let Some(ms) = heartbeat_ms {
            config.heartbeat_timeout = Duration::from_millis(ms);
        }
        Ok(Dispatch::Fleet(config))
    }

    /// The faults this dispatch can realise.
    pub(crate) fn reach(&self) -> Reach {
        match self {
            Dispatch::InProcess => Reach::InProcess,
            Dispatch::Isolated(_) => Reach::Process,
            Dispatch::Fleet(_) => Reach::Fleet,
        }
    }
}

/// Everything that configures one harness. See the module docs.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads; `None` means one per core, or one per executor
    /// seat when cells leave the process.
    pub threads: Option<usize>,
    /// Attempts, backoff and wall-clock budget per cell.
    pub retry: RetryPolicy,
    /// Deterministic faults to inject into computing cells.
    pub faults: Option<Arc<FaultPlan>>,
    /// Whether the lockstep batch pass may run (results are identical
    /// either way; `--batch=off` exists to bisect against solo runs).
    pub batching: bool,
    /// Cell journal to replay on open and append to afterwards.
    pub journal: Option<PathBuf>,
    /// Shared on-disk result cache directory.
    pub cache: Option<PathBuf>,
    /// Where cells execute.
    pub dispatch: Dispatch,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            threads: None,
            retry: RetryPolicy::default(),
            faults: None,
            batching: true,
            journal: None,
            cache: None,
            dispatch: Dispatch::InProcess,
        }
    }
}

/// A parsed `fdip exp` / `exp_all` command line.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The run's options.
    pub options: RunOptions,
    /// The first of `--quick` / `--medium` / `--full`; full by default.
    pub scale: Scale,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

/// The flags [`RunOptions::from_args`] accepts, for its error message.
const FLAGS: &str = "--quick, --medium, --full, --batch[=on|off], --isolate[=N], \
                     --fleet ADDR,..., --fleet-heartbeat-ms N, --cache DIR, --faults SPEC, \
                     --journal FILE, --max-attempts N, --cell-budget-ms N";

impl RunOptions {
    /// Parses the run flags shared by `fdip exp` and `exp_all`. Without
    /// `--faults`, the plan comes from `$FDIP_FAULTS`.
    ///
    /// # Errors
    ///
    /// A message naming the offending flag: an unknown `--flag`, a valued
    /// flag with no value, a malformed value, or `--fleet` without
    /// `--isolate`. Nothing is dialed or opened here; that is
    /// [`Harness::open`](crate::harness::Harness::open)'s job.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<RunArgs, String> {
        let mut options = RunOptions::default();
        let mut scale = None;
        let mut positional = Vec::new();
        let mut isolate = None;
        let mut fleet = None;
        let mut heartbeat_ms = None;
        let mut budget_ms = 0u64;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--isolate" => isolate = Some(supervisor::default_worker_count()),
                "--batch" | "--batch=on" => options.batching = true,
                "--batch=off" => options.batching = false,
                "--fleet" => fleet = Some(value()?),
                "--fleet-heartbeat-ms" => heartbeat_ms = Some(parse_positive_ms(&arg, &value()?)?),
                "--cache" => options.cache = Some(PathBuf::from(value()?)),
                "--journal" => options.journal = Some(PathBuf::from(value()?)),
                "--faults" => {
                    let plan = FaultPlan::parse(&value()?)
                        .map_err(|e| format!("bad --faults spec: {e}"))?;
                    options.faults = Some(Arc::new(plan));
                }
                "--max-attempts" => {
                    options.retry.max_attempts = parse_number(&arg, &value()?, "a retry count")?;
                }
                "--cell-budget-ms" => {
                    budget_ms = parse_number(&arg, &value()?, "milliseconds (0 = no budget)")?;
                }
                flag if flag.starts_with("--isolate=") => {
                    let n = &flag["--isolate=".len()..];
                    let workers = n.parse::<usize>().ok().filter(|&w| w > 0);
                    isolate = Some(workers.ok_or_else(|| {
                        format!("bad --isolate={n:?} (want a positive worker count)")
                    })?);
                }
                flag if flag.starts_with("--batch=") => {
                    return Err(format!(
                        "unrecognized --batch value {:?} \
                         (accepted forms: --batch, --batch=on, --batch=off)",
                        &flag["--batch=".len()..]
                    ))
                }
                flag => match Scale::from_flag(flag) {
                    Some(chosen) => scale = scale.or(Some(chosen)),
                    None if flag.starts_with("--") => {
                        return Err(format!("unrecognized flag {flag:?} (accepted: {FLAGS})"))
                    }
                    None => positional.push(arg.clone()),
                },
            }
        }
        if options.faults.is_none() {
            options.faults = FaultPlan::from_env()
                .map_err(|e| format!("bad FDIP_FAULTS spec: {e}"))?
                .map(Arc::new);
        }
        options.retry.cell_budget = (budget_ms > 0).then(|| Duration::from_millis(budget_ms));
        options.dispatch = match (fleet, isolate) {
            // Fleet dispatch is the distributed form of process isolation;
            // requiring the flag keeps "cells leave this process" explicit.
            (Some(_), None) => {
                return Err(
                    "--fleet requires --isolate (cells run in remote worker daemons)".to_string(),
                )
            }
            (Some(addrs), Some(_)) => Dispatch::fleet(&addrs, heartbeat_ms)?,
            (None, Some(workers)) => Dispatch::Isolated(SupervisorConfig {
                workers,
                ..SupervisorConfig::default()
            }),
            (None, None) => Dispatch::InProcess,
        };
        Ok(RunArgs {
            options,
            scale: scale.unwrap_or_else(Scale::full),
            positional,
        })
    }
}

/// Parses the millisecond value `raw` of the flag or variable `name`
/// (`--fleet-heartbeat-ms`, also `fdip serve`'s, and the
/// `FDIP_FLEET_*_MS` overrides), checked before anything dials.
///
/// # Errors
///
/// When `raw` is not a positive integer; the message names `name`.
pub fn parse_positive_ms(name: &str, raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .ok()
        .filter(|&ms| ms > 0)
        .ok_or_else(|| format!("bad {name} {raw:?} (want a positive millisecond count)"))
}

fn parse_number<T: std::str::FromStr>(flag: &str, raw: &str, expected: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} {raw:?}: expected {expected}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatch and batching a command line parses to, or the
    /// substring its rejection must carry.
    type Expected = Result<(Dispatch, bool), &'static str>;

    fn parse(line: &str) -> Result<RunArgs, String> {
        RunOptions::from_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn run_flags_parse_or_fail_with_the_message_ci_greps() {
        let default_isolated = Dispatch::Isolated(SupervisorConfig {
            workers: supervisor::default_worker_count(),
            ..SupervisorConfig::default()
        });
        let two_workers = Dispatch::Isolated(SupervisorConfig {
            workers: 2,
            ..SupervisorConfig::default()
        });
        let table: [(&str, Expected); 14] = [
            ("", Ok((Dispatch::InProcess, true))),
            ("--isolate", Ok((default_isolated, true))),
            ("--isolate=2", Ok((two_workers, true))),
            (
                "--isolate=0",
                Err("bad --isolate=\"0\" (want a positive worker count)"),
            ),
            ("--batch", Ok((Dispatch::InProcess, true))),
            ("--batch=off", Ok((Dispatch::InProcess, false))),
            ("--batch=maybe", Err("unrecognized --batch value \"maybe\"")),
            ("--fleet 127.0.0.1:1", Err("--fleet requires --isolate")),
            (
                "--isolate --fleet 127.0.0.1:1 --fleet-heartbeat-ms 0",
                Err("--fleet-heartbeat-ms"),
            ),
            ("--isolate --fleet ,", Err("--fleet needs at least one")),
            ("--quick --cache", Err("--cache needs a value")),
            ("--quick --journal", Err("--journal needs a value")),
            ("--quick --faults", Err("--faults needs a value")),
            ("--qiuck", Err("unrecognized flag \"--qiuck\"")),
        ];
        for (line, expected) in table {
            match (parse(line), expected) {
                (Ok(args), Ok((dispatch, batching))) => {
                    assert_eq!(args.options.dispatch, dispatch, "{line}");
                    assert_eq!(args.options.batching, batching, "{line}");
                }
                (Err(message), Err(needle)) => {
                    assert!(message.contains(needle), "{line}: {message}");
                }
                (got, want) => panic!("{line}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn values_scale_and_positionals_land_in_their_fields() {
        let args = parse(
            "e01 --medium --quick --isolate=3 --fleet a:1,b:2 --fleet-heartbeat-ms 700 \
             --cache dir --journal j.jsonl --faults seed=9,panic@w/c \
             --max-attempts 5 --cell-budget-ms 250",
        )
        .unwrap();
        assert_eq!(args.positional, ["e01"]);
        assert_eq!(args.scale, Scale::medium(), "the first scale flag wins");
        let options = args.options;
        let Dispatch::Fleet(fleet) = &options.dispatch else {
            panic!("{:?}", options.dispatch);
        };
        assert_eq!(fleet.addrs, ["a:1", "b:2"]);
        assert_eq!(fleet.heartbeat_timeout, Duration::from_millis(700));
        assert_eq!(options.cache, Some(PathBuf::from("dir")));
        assert_eq!(options.journal, Some(PathBuf::from("j.jsonl")));
        assert_eq!(options.faults.as_ref().map(|p| p.seed()), Some(9));
        assert_eq!(options.retry.max_attempts, 5);
        assert_eq!(options.retry.cell_budget, Some(Duration::from_millis(250)));

        let defaults = parse("").unwrap();
        assert_eq!(defaults.scale, Scale::full());
        assert_eq!(defaults.options.retry, RetryPolicy::default());
        assert!(parse("--max-attempts many")
            .unwrap_err()
            .contains("expected a retry count"));
    }
}
