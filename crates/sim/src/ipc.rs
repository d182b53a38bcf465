//! The pool ↔ worker wire protocol: the messages a worker exchanges over
//! its stdin/stdout (or a daemon over TCP), plus the full machine-config
//! codec.
//!
//! Messages travel in [`crate::net`]'s frames: a 4-byte big-endian length
//! followed by that many bytes of JSON (the workspace's hand-rolled
//! [`Json`], no external deps), bounded by
//! [`MAX_FRAME_BYTES`](crate::net::MAX_FRAME_BYTES) on both sides, so a
//! corrupted length prefix can never drive an unbounded allocation.
//!
//! Three message shapes travel the pipe:
//!
//! * pool → worker: [`RunRequest`] (`op: "run"`) — one cell to
//!   simulate: workload, trace length, config, wall-clock budget, and an
//!   optional injected fault;
//! * worker → pool: [`WorkerReply::Heartbeat`] (`op: "hb"`) on a
//!   steady timer, so the pool can distinguish *slow* from *dead*;
//! * worker → pool: [`WorkerReply::Ok`] / [`WorkerReply::Err`]
//!   carrying the finished [`SimStats`] or a typed failure.
//!
//! The config codec ([`config_to_json`] / [`config_from_json`]) covers
//! every field of [`FrontendConfig`] — BTB variants, predictors, the
//! memory hierarchy, all five prefetchers. Fidelity is load-bearing: the
//! cell cache and journal key cells by the config's full `Debug`
//! fingerprint, so a lossy codec would silently fork a cell's identity
//! between pool and worker. `tests` proves the round trip
//! fingerprint-exact over a battery of representative configs.

use fdip::{
    BtbVariant, CpfMode, FdipConfig, FrontendConfig, PifConfig, PredictorKind, PrefetcherKind,
    ShotgunConfig, SimStats,
};
use fdip_btb::{BtbConfig, PartitionConfig, TagScheme};
use fdip_mem::{CacheGeometry, HierarchyConfig, ReplacementPolicy, StreamBufferConfig};
use fdip_types::{FromJson, Json, ToJson};

use crate::fault::CellError;
use crate::workload::{WorkloadSource, WorkloadSpec};

/// A fault the supervisor asks the worker to realize *inside* the worker
/// process, so isolation drills exercise the real containment path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// Panic before simulating (caught in the worker, reported as `err`).
    Panic,
    /// Sleep this many milliseconds before simulating.
    Slow(u64),
    /// `std::process::abort()`.
    Abort,
    /// Busy-loop forever without polling anything.
    Hang,
    /// Abort via an impossible allocation (`handle_alloc_error`).
    BigAlloc,
}

impl WorkerFault {
    fn to_wire(&self) -> String {
        match self {
            WorkerFault::Panic => "panic".to_string(),
            WorkerFault::Slow(ms) => format!("slow:{ms}"),
            WorkerFault::Abort => "abort".to_string(),
            WorkerFault::Hang => "hang".to_string(),
            WorkerFault::BigAlloc => "bigalloc".to_string(),
        }
    }

    fn from_wire(raw: &str) -> Option<WorkerFault> {
        if let Some(ms) = raw.strip_prefix("slow:") {
            return ms.parse().ok().map(WorkerFault::Slow);
        }
        match raw {
            "panic" => Some(WorkerFault::Panic),
            "abort" => Some(WorkerFault::Abort),
            "hang" => Some(WorkerFault::Hang),
            "bigalloc" => Some(WorkerFault::BigAlloc),
            _ => None,
        }
    }
}

/// One cell for a worker to simulate.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Correlation id; the worker echoes it in its reply.
    pub id: u64,
    /// The workload whose trace to (re)generate.
    pub workload: WorkloadSpec,
    /// Trace length in instructions.
    pub trace_len: usize,
    /// Wall-clock budget in milliseconds (0 = unbounded). The *supervisor*
    /// enforces it with SIGKILL; it rides along so logs can show it.
    pub budget_ms: u64,
    /// Fault to realize inside the worker, if the drill asks for one.
    pub fault: Option<WorkerFault>,
    /// The machine configuration to simulate.
    pub config: FrontendConfig,
}

impl RunRequest {
    /// Encodes the request as its wire document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("op", Json::str("run")),
            ("id", Json::uint(self.id)),
            (
                "workload",
                Json::obj([
                    ("name", Json::str(&self.workload.name)),
                    ("source", Json::str(self.workload.source.to_wire())),
                    ("seed", Json::uint(self.workload.seed)),
                ]),
            ),
            ("trace_len", Json::uint(self.trace_len as u64)),
            ("budget_ms", Json::uint(self.budget_ms)),
        ];
        if let Some(fault) = &self.fault {
            pairs.push(("fault", Json::str(fault.to_wire())));
        }
        pairs.push(("config", config_to_json(&self.config)));
        Json::obj(pairs)
    }

    /// Decodes a wire document produced by [`to_json`](Self::to_json).
    pub fn from_json(doc: &Json) -> Option<RunRequest> {
        if doc.get("op")?.as_str()? != "run" {
            return None;
        }
        let w = doc.get("workload")?;
        let source = WorkloadSource::from_wire(w.get("source")?.as_str()?)?;
        let fault = match doc.get("fault") {
            Some(raw) => Some(WorkerFault::from_wire(raw.as_str()?)?),
            None => None,
        };
        Some(RunRequest {
            id: doc.get("id")?.as_u64()?,
            workload: WorkloadSpec {
                name: String::from_json(w.get("name")?)?,
                source,
                seed: w.get("seed")?.as_u64()?,
            },
            trace_len: usize::try_from(doc.get("trace_len")?.as_u64()?).ok()?,
            budget_ms: doc.get("budget_ms")?.as_u64()?,
            fault,
            config: config_from_json(doc.get("config")?)?,
        })
    }
}

/// What a worker sends back up the pipe.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerReply {
    /// "Still alive" — sent on a steady timer regardless of cell state.
    Heartbeat,
    /// The cell finished; `id` echoes the request.
    Ok {
        /// Correlation id from the request.
        id: u64,
        /// The finished statistics (boxed: `SimStats` is hundreds of
        /// bytes and would dwarf the other variants).
        stats: Box<SimStats>,
    },
    /// The cell failed inside the worker (panic or injected transient);
    /// the worker survives and can take another cell. A worker daemon
    /// also sends this with `kind: "crashed"` when its child dies,
    /// carrying the exit signal or code so the dialer can classify the
    /// loss exactly as a local pool would.
    Err {
        /// Correlation id from the request.
        id: u64,
        /// Failure class: `"panic"`, `"transient"`, or `"crashed"`.
        kind: String,
        /// Human-readable description.
        message: String,
        /// Fatal signal number, for `"crashed"` replies (unix).
        signal: Option<i32>,
        /// Exit code, for `"crashed"` replies that exited abnormally.
        code: Option<i32>,
    },
}

impl WorkerReply {
    /// Encodes the reply as its wire document.
    pub fn to_json(&self) -> Json {
        match self {
            WorkerReply::Heartbeat => Json::obj([("op", Json::str("hb"))]),
            WorkerReply::Ok { id, stats } => Json::obj([
                ("op", Json::str("ok")),
                ("id", Json::uint(*id)),
                ("stats", stats.to_json()),
            ]),
            WorkerReply::Err {
                id,
                kind,
                message,
                signal,
                code,
            } => {
                let mut pairs = vec![
                    ("op", Json::str("err")),
                    ("id", Json::uint(*id)),
                    ("kind", Json::str(kind)),
                    ("message", Json::str(message)),
                ];
                // Signals (1..=64) and unix exit codes (0..=255) are
                // non-negative; clamp defensively rather than panic.
                if let Some(signal) = signal {
                    pairs.push(("signal", Json::uint(u64::try_from(*signal).unwrap_or(0))));
                }
                if let Some(code) = code {
                    pairs.push(("code", Json::uint(u64::try_from(*code).unwrap_or(0))));
                }
                Json::obj(pairs)
            }
        }
    }

    /// Decodes a wire document produced by [`to_json`](Self::to_json).
    pub fn from_json(doc: &Json) -> Option<WorkerReply> {
        match doc.get("op")?.as_str()? {
            "hb" => Some(WorkerReply::Heartbeat),
            "ok" => Some(WorkerReply::Ok {
                id: doc.get("id")?.as_u64()?,
                stats: Box::new(SimStats::from_json(doc.get("stats")?)?),
            }),
            "err" => Some(WorkerReply::Err {
                id: doc.get("id")?.as_u64()?,
                kind: String::from_json(doc.get("kind")?)?,
                message: String::from_json(doc.get("message")?)?,
                signal: match doc.get("signal") {
                    Some(raw) => Some(i32::try_from(raw.as_u64()?).ok()?),
                    None => None,
                },
                code: match doc.get("code") {
                    Some(raw) => Some(i32::try_from(raw.as_u64()?).ok()?),
                    None => None,
                },
            }),
            _ => None,
        }
    }

    /// The reply that reports `outcome` for cell `id`: the inverse of
    /// [`outcome`](Self::outcome). A `crashed` reply carries the child's
    /// exit evidence, so a worker daemon's client classifies the loss
    /// exactly as a local pool would.
    pub(crate) fn from_outcome(id: u64, outcome: Result<SimStats, CellError>) -> WorkerReply {
        let (kind, message, signal, code) = match outcome {
            Ok(stats) => {
                return WorkerReply::Ok {
                    id,
                    stats: Box::new(stats),
                }
            }
            Err(CellError::Panic { message, .. }) => ("panic", message, None, None),
            Err(CellError::Transient { message, .. }) => ("transient", message, None, None),
            Err(CellError::Crashed { signal, code, .. }) => {
                let message = match (signal, code) {
                    (Some(sig), _) => format!("remote worker killed by signal {sig}"),
                    (None, Some(code)) => format!("remote worker exited with code {code}"),
                    (None, None) => "remote worker died without a status".to_string(),
                };
                ("crashed", message, signal, code)
            }
            Err(other) => ("transient", other.to_string(), None, None),
        };
        WorkerReply::Err {
            id,
            kind: kind.to_string(),
            message,
            signal,
            code,
        }
    }

    /// What this reply means to the attempt waiting on cell `id`: `None`
    /// for a heartbeat or a reply to a superseded id (a kill raced a
    /// completion), else the attempt's outcome. This is the one place the
    /// wire's `panic`/`crashed`/`transient` kinds become [`CellError`]s,
    /// for the pipe and the TCP transport alike.
    pub(crate) fn outcome(self, id: u64, attempts: u32) -> Option<Result<SimStats, CellError>> {
        match self {
            WorkerReply::Ok { id: rid, stats } if rid == id => Some(Ok(*stats)),
            WorkerReply::Err {
                id: rid,
                kind,
                message,
                signal,
                code,
            } if rid == id => Some(Err(match kind.as_str() {
                "panic" => CellError::Panic { message, attempts },
                "crashed" => CellError::Crashed {
                    signal,
                    code,
                    attempts,
                },
                _ => CellError::Transient { message, attempts },
            })),
            _ => None,
        }
    }
}

fn get_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key)?.as_u64()
}

fn get_usize(doc: &Json, key: &str) -> Option<usize> {
    usize::try_from(get_u64(doc, key)?).ok()
}

fn get_u32(doc: &Json, key: &str) -> Option<u32> {
    u32::try_from(get_u64(doc, key)?).ok()
}

fn get_bool(doc: &Json, key: &str) -> Option<bool> {
    doc.get(key)?.as_bool()
}

fn tag_scheme_to_json(scheme: TagScheme) -> Json {
    Json::str(match scheme {
        TagScheme::Full => "full",
        TagScheme::Compressed16 => "compressed16",
    })
}

fn tag_scheme_from_json(doc: &Json) -> Option<TagScheme> {
    match doc.as_str()? {
        "full" => Some(TagScheme::Full),
        "compressed16" => Some(TagScheme::Compressed16),
        _ => None,
    }
}

fn btb_to_json(btb: &BtbVariant) -> Json {
    let plain = |kind: &str, c: &BtbConfig| {
        Json::obj([
            ("kind", Json::str(kind)),
            ("sets", Json::uint(c.sets as u64)),
            ("ways", Json::uint(c.ways as u64)),
            ("tags", tag_scheme_to_json(c.tag_scheme)),
        ])
    };
    match btb {
        BtbVariant::Conventional(c) => plain("conventional", c),
        BtbVariant::BasicBlock(c) => plain("basic_block", c),
        BtbVariant::Partitioned(p) => Json::obj([
            ("kind", Json::str("partitioned")),
            (
                "entries",
                Json::arr(p.entries.iter().map(|&e| Json::uint(e as u64))),
            ),
            ("ways", Json::uint(p.ways as u64)),
            ("tags", tag_scheme_to_json(p.tag_scheme)),
        ]),
        BtbVariant::Ideal => Json::obj([("kind", Json::str("ideal"))]),
    }
}

fn btb_from_json(doc: &Json) -> Option<BtbVariant> {
    let plain = |doc: &Json| {
        Some(BtbConfig {
            sets: get_usize(doc, "sets")?,
            ways: get_usize(doc, "ways")?,
            tag_scheme: tag_scheme_from_json(doc.get("tags")?)?,
        })
    };
    match doc.get("kind")?.as_str()? {
        "conventional" => Some(BtbVariant::Conventional(plain(doc)?)),
        "basic_block" => Some(BtbVariant::BasicBlock(plain(doc)?)),
        "partitioned" => {
            let raw = doc.get("entries")?.as_array()?;
            if raw.len() != 4 {
                return None;
            }
            let mut entries = [0usize; 4];
            for (slot, value) in entries.iter_mut().zip(raw) {
                *slot = usize::try_from(value.as_u64()?).ok()?;
            }
            Some(BtbVariant::Partitioned(PartitionConfig {
                entries,
                ways: get_usize(doc, "ways")?,
                tag_scheme: tag_scheme_from_json(doc.get("tags")?)?,
            }))
        }
        "ideal" => Some(BtbVariant::Ideal),
        _ => None,
    }
}

fn predictor_to_json(predictor: &PredictorKind) -> Json {
    match predictor {
        PredictorKind::Bimodal { log2_entries } => Json::obj([
            ("kind", Json::str("bimodal")),
            ("log2_entries", Json::uint(u64::from(*log2_entries))),
        ]),
        PredictorKind::Gshare {
            log2_entries,
            history_bits,
        } => Json::obj([
            ("kind", Json::str("gshare")),
            ("log2_entries", Json::uint(u64::from(*log2_entries))),
            ("history_bits", Json::uint(u64::from(*history_bits))),
        ]),
        PredictorKind::Hybrid {
            log2_entries,
            history_bits,
        } => Json::obj([
            ("kind", Json::str("hybrid")),
            ("log2_entries", Json::uint(u64::from(*log2_entries))),
            ("history_bits", Json::uint(u64::from(*history_bits))),
        ]),
        PredictorKind::TwoLevelLocal {
            log2_branches,
            history_bits,
        } => Json::obj([
            ("kind", Json::str("local")),
            ("log2_branches", Json::uint(u64::from(*log2_branches))),
            ("history_bits", Json::uint(u64::from(*history_bits))),
        ]),
        PredictorKind::Tage {
            log2_base,
            log2_tagged,
            tables,
        } => Json::obj([
            ("kind", Json::str("tage")),
            ("log2_base", Json::uint(u64::from(*log2_base))),
            ("log2_tagged", Json::uint(u64::from(*log2_tagged))),
            ("tables", Json::uint(*tables as u64)),
        ]),
        PredictorKind::Perfect => Json::obj([("kind", Json::str("perfect"))]),
    }
}

fn predictor_from_json(doc: &Json) -> Option<PredictorKind> {
    match doc.get("kind")?.as_str()? {
        "bimodal" => Some(PredictorKind::Bimodal {
            log2_entries: get_u32(doc, "log2_entries")?,
        }),
        "gshare" => Some(PredictorKind::Gshare {
            log2_entries: get_u32(doc, "log2_entries")?,
            history_bits: get_u32(doc, "history_bits")?,
        }),
        "hybrid" => Some(PredictorKind::Hybrid {
            log2_entries: get_u32(doc, "log2_entries")?,
            history_bits: get_u32(doc, "history_bits")?,
        }),
        "local" => Some(PredictorKind::TwoLevelLocal {
            log2_branches: get_u32(doc, "log2_branches")?,
            history_bits: get_u32(doc, "history_bits")?,
        }),
        "tage" => Some(PredictorKind::Tage {
            log2_base: get_u32(doc, "log2_base")?,
            log2_tagged: get_u32(doc, "log2_tagged")?,
            tables: get_usize(doc, "tables")?,
        }),
        "perfect" => Some(PredictorKind::Perfect),
        _ => None,
    }
}

fn geometry_to_json(g: &CacheGeometry) -> Json {
    Json::obj([
        ("sets", Json::uint(g.sets as u64)),
        ("ways", Json::uint(g.ways as u64)),
        ("block_bytes", Json::uint(g.block_bytes)),
    ])
}

fn geometry_from_json(doc: &Json) -> Option<CacheGeometry> {
    Some(CacheGeometry {
        sets: get_usize(doc, "sets")?,
        ways: get_usize(doc, "ways")?,
        block_bytes: get_u64(doc, "block_bytes")?,
    })
}

fn policy_to_json(policy: ReplacementPolicy) -> Json {
    Json::str(match policy {
        ReplacementPolicy::Lru => "lru",
        ReplacementPolicy::Fifo => "fifo",
        ReplacementPolicy::Random => "random",
    })
}

fn policy_from_json(doc: &Json) -> Option<ReplacementPolicy> {
    match doc.as_str()? {
        "lru" => Some(ReplacementPolicy::Lru),
        "fifo" => Some(ReplacementPolicy::Fifo),
        "random" => Some(ReplacementPolicy::Random),
        _ => None,
    }
}

fn mem_to_json(mem: &HierarchyConfig) -> Json {
    Json::obj([
        ("l1", geometry_to_json(&mem.l1)),
        ("l1_policy", policy_to_json(mem.l1_policy)),
        ("l2", geometry_to_json(&mem.l2)),
        ("l2_latency", Json::uint(mem.l2_latency)),
        ("mem_latency", Json::uint(mem.mem_latency)),
        ("bus_transfer_cycles", Json::uint(mem.bus_transfer_cycles)),
        ("mshrs", Json::uint(mem.mshrs as u64)),
        (
            "prefetch_buffer_blocks",
            Json::uint(mem.prefetch_buffer_blocks as u64),
        ),
        ("tag_ports", Json::uint(u64::from(mem.tag_ports))),
        (
            "prefetch_mshr_reserve",
            Json::uint(mem.prefetch_mshr_reserve as u64),
        ),
        ("victim_blocks", Json::uint(mem.victim_blocks as u64)),
    ])
}

fn mem_from_json(doc: &Json) -> Option<HierarchyConfig> {
    Some(HierarchyConfig {
        l1: geometry_from_json(doc.get("l1")?)?,
        l1_policy: policy_from_json(doc.get("l1_policy")?)?,
        l2: geometry_from_json(doc.get("l2")?)?,
        l2_latency: get_u64(doc, "l2_latency")?,
        mem_latency: get_u64(doc, "mem_latency")?,
        bus_transfer_cycles: get_u64(doc, "bus_transfer_cycles")?,
        mshrs: get_usize(doc, "mshrs")?,
        prefetch_buffer_blocks: get_usize(doc, "prefetch_buffer_blocks")?,
        tag_ports: get_u32(doc, "tag_ports")?,
        prefetch_mshr_reserve: get_usize(doc, "prefetch_mshr_reserve")?,
        victim_blocks: get_usize(doc, "victim_blocks")?,
    })
}

fn cpf_to_json(cpf: CpfMode) -> Json {
    Json::str(match cpf {
        CpfMode::None => "none",
        CpfMode::Enqueue => "enqueue",
        CpfMode::Remove => "remove",
        CpfMode::Both => "both",
    })
}

fn cpf_from_json(doc: &Json) -> Option<CpfMode> {
    match doc.as_str()? {
        "none" => Some(CpfMode::None),
        "enqueue" => Some(CpfMode::Enqueue),
        "remove" => Some(CpfMode::Remove),
        "both" => Some(CpfMode::Both),
        _ => None,
    }
}

fn fdip_engine_to_json(c: &FdipConfig) -> Json {
    Json::obj([
        ("piq_entries", Json::uint(c.piq_entries as u64)),
        ("cpf", cpf_to_json(c.cpf)),
        (
            "recent_filter_entries",
            Json::uint(c.recent_filter_entries as u64),
        ),
        ("require_idle_bus", Json::Bool(c.require_idle_bus)),
        (
            "max_issue_per_cycle",
            Json::uint(u64::from(c.max_issue_per_cycle)),
        ),
        (
            "scan_blocks_per_cycle",
            Json::uint(u64::from(c.scan_blocks_per_cycle)),
        ),
        (
            "stall_path_lines",
            Json::uint(u64::from(c.stall_path_lines)),
        ),
    ])
}

fn fdip_engine_from_json(doc: &Json) -> Option<FdipConfig> {
    Some(FdipConfig {
        piq_entries: get_usize(doc, "piq_entries")?,
        cpf: cpf_from_json(doc.get("cpf")?)?,
        recent_filter_entries: get_usize(doc, "recent_filter_entries")?,
        require_idle_bus: get_bool(doc, "require_idle_bus")?,
        max_issue_per_cycle: get_u32(doc, "max_issue_per_cycle")?,
        scan_blocks_per_cycle: get_u32(doc, "scan_blocks_per_cycle")?,
        stall_path_lines: get_u32(doc, "stall_path_lines")?,
    })
}

fn prefetcher_to_json(prefetcher: &PrefetcherKind) -> Json {
    match prefetcher {
        PrefetcherKind::None => Json::obj([("kind", Json::str("none"))]),
        PrefetcherKind::NextLine => Json::obj([("kind", Json::str("next_line"))]),
        PrefetcherKind::StreamBuffers(c) => Json::obj([
            ("kind", Json::str("stream")),
            ("buffers", Json::uint(c.buffers as u64)),
            ("depth", Json::uint(c.depth as u64)),
            ("block_bytes", Json::uint(c.block_bytes)),
        ]),
        PrefetcherKind::Fdip(c) => Json::obj([
            ("kind", Json::str("fdip")),
            ("engine", fdip_engine_to_json(c)),
        ]),
        PrefetcherKind::Shotgun(s, f) => Json::obj([
            ("kind", Json::str("shotgun")),
            ("regions", Json::uint(s.regions as u64)),
            ("footprint_lines", Json::uint(u64::from(s.footprint_lines))),
            (
                "max_issue_per_cycle",
                Json::uint(u64::from(s.max_issue_per_cycle)),
            ),
            ("engine", fdip_engine_to_json(f)),
        ]),
        PrefetcherKind::Pif(c) => Json::obj([
            ("kind", Json::str("pif")),
            ("history_blocks", Json::uint(c.history_blocks as u64)),
            ("lookahead", Json::uint(c.lookahead as u64)),
            (
                "max_issue_per_cycle",
                Json::uint(u64::from(c.max_issue_per_cycle)),
            ),
        ]),
    }
}

fn prefetcher_from_json(doc: &Json) -> Option<PrefetcherKind> {
    match doc.get("kind")?.as_str()? {
        "none" => Some(PrefetcherKind::None),
        "next_line" => Some(PrefetcherKind::NextLine),
        "stream" => Some(PrefetcherKind::StreamBuffers(StreamBufferConfig {
            buffers: get_usize(doc, "buffers")?,
            depth: get_usize(doc, "depth")?,
            block_bytes: get_u64(doc, "block_bytes")?,
        })),
        "fdip" => Some(PrefetcherKind::Fdip(fdip_engine_from_json(
            doc.get("engine")?,
        )?)),
        "shotgun" => Some(PrefetcherKind::Shotgun(
            ShotgunConfig {
                regions: get_usize(doc, "regions")?,
                footprint_lines: get_u32(doc, "footprint_lines")?,
                max_issue_per_cycle: get_u32(doc, "max_issue_per_cycle")?,
            },
            fdip_engine_from_json(doc.get("engine")?)?,
        )),
        "pif" => Some(PrefetcherKind::Pif(PifConfig {
            history_blocks: get_usize(doc, "history_blocks")?,
            lookahead: get_usize(doc, "lookahead")?,
            max_issue_per_cycle: get_u32(doc, "max_issue_per_cycle")?,
        })),
        _ => None,
    }
}

/// Encodes a complete [`FrontendConfig`] as its wire document.
pub fn config_to_json(config: &FrontendConfig) -> Json {
    Json::obj([
        ("fetch_width", Json::uint(u64::from(config.fetch_width))),
        ("retire_width", Json::uint(u64::from(config.retire_width))),
        (
            "fetch_block_insts",
            Json::uint(u64::from(config.fetch_block_insts)),
        ),
        ("ftq_entries", Json::uint(config.ftq_entries as u64)),
        ("instr_buffer", Json::uint(config.instr_buffer as u64)),
        (
            "decode_redirect_penalty",
            Json::uint(config.decode_redirect_penalty),
        ),
        (
            "exec_redirect_penalty",
            Json::uint(config.exec_redirect_penalty),
        ),
        ("btb", btb_to_json(&config.btb)),
        ("predictor", predictor_to_json(&config.predictor)),
        ("ras_entries", Json::uint(config.ras_entries as u64)),
        ("mem", mem_to_json(&config.mem)),
        ("prefetcher", prefetcher_to_json(&config.prefetcher)),
        ("predecode_btb_fill", Json::Bool(config.predecode_btb_fill)),
    ])
}

/// Decodes a document produced by [`config_to_json`]. `None` on any
/// missing field, bad type, or unknown discriminant — the supervisor and
/// worker are always the same binary, so a decode failure means a
/// corrupted stream, not a version skew to paper over.
pub fn config_from_json(doc: &Json) -> Option<FrontendConfig> {
    Some(FrontendConfig {
        fetch_width: get_u32(doc, "fetch_width")?,
        retire_width: get_u32(doc, "retire_width")?,
        fetch_block_insts: get_u32(doc, "fetch_block_insts")?,
        ftq_entries: get_usize(doc, "ftq_entries")?,
        instr_buffer: get_usize(doc, "instr_buffer")?,
        decode_redirect_penalty: get_u64(doc, "decode_redirect_penalty")?,
        exec_redirect_penalty: get_u64(doc, "exec_redirect_penalty")?,
        btb: btb_from_json(doc.get("btb")?)?,
        predictor: predictor_from_json(doc.get("predictor")?)?,
        ras_entries: get_usize(doc, "ras_entries")?,
        mem: mem_from_json(doc.get("mem")?)?,
        prefetcher: prefetcher_from_json(doc.get("prefetcher")?)?,
        predecode_btb_fill: get_bool(doc, "predecode_btb_fill")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::config_fingerprint;
    use crate::net::{read_frame, write_frame};
    use std::io::Cursor;

    /// A battery of configs covering every enum arm the codec must carry.
    fn battery() -> Vec<FrontendConfig> {
        let base = FrontendConfig::default;
        let mut configs = vec![
            base(),
            base().with_prefetcher(PrefetcherKind::NextLine),
            base().with_prefetcher(PrefetcherKind::StreamBuffers(StreamBufferConfig::default())),
            base().with_prefetcher(PrefetcherKind::fdip()),
            base().with_prefetcher(PrefetcherKind::fdip_with_cpf(CpfMode::Enqueue)),
            base().with_prefetcher(PrefetcherKind::fdip_with_cpf(CpfMode::Remove)),
            base().with_prefetcher(PrefetcherKind::fdip_with_cpf(CpfMode::Both)),
            base().with_prefetcher(PrefetcherKind::shotgun()),
            base().with_prefetcher(PrefetcherKind::Pif(PifConfig::default())),
            base().with_btb(BtbVariant::Ideal),
            base().with_btb(BtbVariant::basic_block(512)),
            base().with_btb(BtbVariant::partitioned(1024)),
            base().with_btb(BtbVariant::Partitioned(PartitionConfig {
                entries: [768, 256, 128, 64],
                ways: 4,
                tag_scheme: TagScheme::Full,
            })),
            base().with_predictor(PredictorKind::Bimodal { log2_entries: 12 }),
            base().with_predictor(PredictorKind::Gshare {
                log2_entries: 14,
                history_bits: 10,
            }),
            base().with_predictor(PredictorKind::TwoLevelLocal {
                log2_branches: 10,
                history_bits: 8,
            }),
            base().with_predictor(PredictorKind::Tage {
                log2_base: 12,
                log2_tagged: 9,
                tables: 5,
            }),
            base().with_predictor(PredictorKind::Perfect),
            base().with_predecode_btb_fill(true),
            base().with_ftq_entries(4),
        ];
        configs.push(base().with_mem(HierarchyConfig {
            l1_policy: ReplacementPolicy::Random,
            victim_blocks: 8,
            prefetch_buffer_blocks: 0,
            ..HierarchyConfig::default()
        }));
        configs.push(base().with_mem(HierarchyConfig {
            l1_policy: ReplacementPolicy::Fifo,
            mem_latency: 250,
            ..HierarchyConfig::default()
        }));
        configs
    }

    #[test]
    fn config_codec_round_trips_fingerprint_exact() {
        for config in battery() {
            let doc = config_to_json(&config);
            let back = config_from_json(&doc).expect("decode");
            assert_eq!(
                config_fingerprint(&config),
                config_fingerprint(&back),
                "codec forked the fingerprint for {config:?}"
            );
        }
    }

    #[test]
    fn config_decode_rejects_garbage() {
        assert!(config_from_json(&Json::parse("{}").unwrap()).is_none());
        let mut doc = config_to_json(&FrontendConfig::default());
        // Break one nested discriminant.
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "predictor" {
                    *v = Json::obj([("kind", Json::str("oracle9000"))]);
                }
            }
        }
        assert!(config_from_json(&doc).is_none());
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_at_boundaries() {
        let mut buf = Vec::new();
        let doc = config_to_json(&FrontendConfig::default());
        write_frame(&mut buf, &doc).unwrap();
        write_frame(&mut buf, &Json::obj([("op", Json::str("hb"))])).unwrap();

        let mut cursor = Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(doc));
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        // EOF inside a frame is an error, not a silent None.
        let torn = &buf[..buf.len() - 3];
        let mut cursor = Cursor::new(torn.to_vec());
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).is_err());

        // A corrupted length prefix cannot drive a huge allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        huge.extend_from_slice(b"xxxx");
        assert!(read_frame(&mut Cursor::new(huge)).is_err());
    }

    #[test]
    fn request_and_reply_round_trip() {
        use fdip_trace::gen::Profile;
        let req = RunRequest {
            id: 42,
            workload: WorkloadSpec::new(Profile::Server, 1),
            trace_len: 60_000,
            budget_ms: 2_000,
            fault: Some(WorkerFault::Slow(250)),
            config: FrontendConfig::default().with_prefetcher(PrefetcherKind::fdip()),
        };
        let back = RunRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(req, back);

        let plain = RunRequest {
            fault: None,
            ..req.clone()
        };
        assert_eq!(RunRequest::from_json(&plain.to_json()).unwrap().fault, None);

        for fault in [
            WorkerFault::Panic,
            WorkerFault::Abort,
            WorkerFault::Hang,
            WorkerFault::BigAlloc,
            WorkerFault::Slow(9),
        ] {
            assert_eq!(WorkerFault::from_wire(&fault.to_wire()), Some(fault));
        }

        let ok = WorkerReply::Ok {
            id: 42,
            stats: Box::new(SimStats {
                cycles: 10,
                instructions: 40,
                ..SimStats::default()
            }),
        };
        assert_eq!(WorkerReply::from_json(&ok.to_json()), Some(ok));
        let err = WorkerReply::Err {
            id: 7,
            kind: "panic".to_string(),
            message: "injected".to_string(),
            signal: None,
            code: None,
        };
        assert_eq!(WorkerReply::from_json(&err.to_json()), Some(err.clone()));
        // A proxy-synthesized crash reply carries the exit evidence.
        let crashed = WorkerReply::Err {
            id: 8,
            kind: "crashed".to_string(),
            message: "worker killed by signal 9".to_string(),
            signal: Some(9),
            code: None,
        };
        assert_eq!(
            WorkerReply::from_json(&crashed.to_json()),
            Some(crashed.clone())
        );
        let doc = crashed.to_json();
        assert_eq!(doc.get("signal").and_then(Json::as_u64), Some(9));
        assert!(doc.get("code").is_none());
        assert_eq!(
            WorkerReply::from_json(&WorkerReply::Heartbeat.to_json()),
            Some(WorkerReply::Heartbeat)
        );
        assert!(WorkerReply::from_json(&Json::obj([("op", Json::str("??"))])).is_none());
    }

    #[test]
    fn reply_outcomes_decode_every_error_kind_and_drop_stale_ids() {
        let err = |kind: &str| WorkerReply::Err {
            id: 5,
            kind: kind.to_string(),
            message: "m".to_string(),
            signal: Some(6),
            code: None,
        };
        assert_eq!(WorkerReply::Heartbeat.outcome(5, 1), None);
        let ok = WorkerReply::Ok {
            id: 5,
            stats: Box::default(),
        };
        assert_eq!(ok.clone().outcome(4, 1), None, "stale id");
        assert_eq!(ok.outcome(5, 1), Some(Ok(SimStats::default())));
        assert_eq!(
            err("panic").outcome(5, 2),
            Some(Err(CellError::Panic {
                message: "m".to_string(),
                attempts: 2
            }))
        );
        assert_eq!(
            err("crashed").outcome(5, 2),
            Some(Err(CellError::Crashed {
                signal: Some(6),
                code: None,
                attempts: 2
            }))
        );
        assert_eq!(
            err("transient").outcome(5, 2),
            Some(Err(CellError::Transient {
                message: "m".to_string(),
                attempts: 2
            }))
        );
        assert_eq!(err("panic").outcome(6, 2), None, "stale id");
    }
}
