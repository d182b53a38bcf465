//! Request routing and the JSON endpoint handlers.
//!
//! Everything here sits behind the trust boundary: request bodies are
//! attacker-shaped, so every parse returns an [`ApiError`] (rendered as a
//! JSON error document with the right status) and no handler path may
//! panic or index blindly. Simulation is sourced exclusively through the
//! server's [`Harness`], so concurrent and repeated requests share traces
//! and finished cells instead of recomputing them.

use std::sync::Arc;
use std::time::Duration;

use fdip::{spec, FrontendConfig};
use fdip_sim::experiments::{self, RESULTS_SCHEMA_VERSION};
use fdip_sim::harness::Harness;
use fdip_sim::workload::{WorkloadSource, WorkloadSpec};
use fdip_trace::gen::Profile;
use fdip_types::{Json, ToJson};

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::sched::{valid_tenant, CoalesceKey};
use crate::ServeConfig;

/// The tenant bucket for requests without an `x-fdip-tenant` header.
pub const DEFAULT_TENANT: &str = "default";

/// True for the routes whose handlers run simulations — the ones that go
/// through the scheduler instead of being answered on the event loop.
pub fn is_sim_route(req: &Request) -> bool {
    req.method == "POST" && (req.path == "/v1/run" || req.path == "/v1/compare")
}

/// True for the routes the event loop hands to the worker pool rather
/// than answering inline: the simulation POSTs plus
/// `GET /v1/experiments/{id}`, whose handler does blocking filesystem
/// reads of arbitrarily large persisted documents — disk latency
/// belongs on a worker seat, never on the loop thread that keeps
/// `/healthz` and `/metrics` live.
pub fn is_pooled_route(req: &Request) -> bool {
    is_sim_route(req) || (req.method == "GET" && req.path.starts_with("/v1/experiments/"))
}

/// The coalescing identity of a simulation request: exact path and body
/// bytes. Headers are deliberately excluded — deadline and tenant shape
/// *admission*, not the computed document, so byte-identical bodies may
/// share one simulation.
pub fn sim_coalesce_key(req: &Request) -> Option<CoalesceKey> {
    is_sim_route(req).then(|| CoalesceKey {
        path: req.path.clone(),
        body: req.body.clone(),
    })
}

/// The request's tenant: a validated `x-fdip-tenant` header, or
/// [`DEFAULT_TENANT`].
///
/// # Errors
///
/// 400 when the header is present but not a valid tenant name (empty,
/// over 64 bytes, or outside `[A-Za-z0-9._-]`).
pub fn tenant_of(req: &Request) -> Result<String, ApiError> {
    match req.header("x-fdip-tenant") {
        None => Ok(DEFAULT_TENANT.to_string()),
        Some(raw) if valid_tenant(raw) => Ok(raw.to_string()),
        Some(raw) => Err(ApiError::bad(format!(
            "invalid x-fdip-tenant {raw:?}: 1..=64 chars of [A-Za-z0-9._-]"
        ))),
    }
}

/// The client's requested deadline budget from `x-fdip-deadline-ms`.
///
/// Strict by design (this is the malformed-deadline bugfix): the header
/// must be a positive decimal integer of milliseconds. `"500ms"`,
/// negatives, zero, and overflow are all 400s — previously they were
/// silently ignored and the request ran with the server default, so a
/// client asking for a tight deadline could wait 30s instead.
///
/// # Errors
///
/// 400 with a structured message naming the header and the accepted form.
pub fn parse_deadline_ms(req: &Request) -> Result<Option<Duration>, ApiError> {
    match req.header("x-fdip-deadline-ms") {
        None => Ok(None),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Some(Duration::from_millis(ms))),
            _ => Err(ApiError::bad(format!(
                "invalid x-fdip-deadline-ms {raw:?}: must be a positive integer of milliseconds"
            ))),
        },
    }
}

/// An endpoint failure: status code plus a human-readable message that
/// becomes the `{"error": …}` body.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Problem description.
    pub message: String,
}

impl ApiError {
    fn bad(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }

    fn not_found(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 404,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            message: message.into(),
        }
    }
}

impl From<ApiError> for Response {
    fn from(err: ApiError) -> Response {
        Response::error(err.status, &err.message)
    }
}

type ApiResult<T> = Result<T, ApiError>;

/// The route table plus everything handlers need. One instance is shared
/// by all worker threads.
pub struct Service {
    config: ServeConfig,
    metrics: Arc<Metrics>,
    harness: Arc<Harness>,
}

impl Service {
    /// A service answering through `harness`.
    pub fn new(config: ServeConfig, metrics: Arc<Metrics>, harness: Arc<Harness>) -> Service {
        Service {
            config,
            metrics,
            harness,
        }
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Routes one request. `queue_depth` is the live queue occupancy, for
    /// the `/metrics` gauges.
    pub fn route(&self, req: &Request, queue_depth: usize) -> Response {
        const ROUTES: [&str; 4] = ["/healthz", "/metrics", "/v1/run", "/v1/compare"];
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::json(200, r#"{"status":"ok"}"#),
            ("GET", "/metrics") => Response::text(
                200,
                self.metrics.render(
                    queue_depth,
                    self.config.queue_depth,
                    &self.harness.stats(),
                    &self.harness.fleet_node_health(),
                ),
            ),
            ("POST", "/v1/run") => self.run(req).unwrap_or_else(Response::from),
            ("POST", "/v1/compare") => self.compare(req).unwrap_or_else(Response::from),
            ("GET", path) if path.starts_with("/v1/experiments/") => {
                let id = &path["/v1/experiments/".len()..];
                self.experiment(id).unwrap_or_else(Response::from)
            }
            (_, path) if ROUTES.contains(&path) || path.starts_with("/v1/experiments/") => {
                Response::error(405, "method not allowed for this path")
            }
            _ => Response::error(404, "no such endpoint"),
        }
    }

    /// `POST /v1/run` — simulate one `(workload, config)` cell.
    fn run(&self, req: &Request) -> ApiResult<Response> {
        let doc = parse_body(req)?;
        reject_unknown_keys(&doc, &["workload", "trace_len", "config"], "request")?;
        let spec = parse_workload(doc.get("workload"))?;
        let trace_len = parse_trace_len(doc.get("trace_len"), self.config.max_trace_len)?;
        let config = match doc.get("config") {
            Some(c) => parse_config(c)?,
            None => FrontendConfig::default(),
        };

        let configs = vec![("run".to_string(), config)];
        let results = self
            .harness
            .run_matrix(std::slice::from_ref(&spec), trace_len, &configs);
        // `get`, never `cell`: a missing cell must surface as a JSON 500,
        // not a panic that kills the worker.
        let cell = results
            .get(&spec.name, "run")
            .ok_or_else(|| ApiError::internal("simulation produced no result cell"))?;
        if let Some(err) = &cell.error {
            return Ok(cell_failure_response(&spec.name, "run", err));
        }
        let body = Json::obj([
            ("schema_version", Json::uint(RESULTS_SCHEMA_VERSION)),
            ("workload", Json::str(&spec.name)),
            ("trace_len", Json::uint(trace_len as u64)),
            ("ipc", Json::num(cell.stats.ipc())),
            ("l1i_mpki", Json::num(cell.stats.l1i_mpki())),
            ("cell", cell.to_json()),
            ("harness", self.harness.stats().to_json()),
        ]);
        Ok(Response::json(200, body.to_string()))
    }

    /// `POST /v1/compare` — a config list against the no-prefetch baseline.
    fn compare(&self, req: &Request) -> ApiResult<Response> {
        let doc = parse_body(req)?;
        reject_unknown_keys(&doc, &["workload", "trace_len", "configs"], "request")?;
        let spec = parse_workload(doc.get("workload"))?;
        let trace_len = parse_trace_len(doc.get("trace_len"), self.config.max_trace_len)?;
        let raw_configs = doc
            .get("configs")
            .and_then(Json::as_array)
            .ok_or_else(|| ApiError::bad("\"configs\" must be an array of config objects"))?;
        if raw_configs.is_empty() || raw_configs.len() > self.config.max_configs {
            return Err(ApiError::bad(format!(
                "\"configs\" must hold 1..={} entries",
                self.config.max_configs
            )));
        }

        // One batched matrix: the baseline and every candidate share the
        // workload's trace, and identical candidates collapse in the
        // content-keyed cell cache.
        let mut configs = vec![("baseline".to_string(), FrontendConfig::default())];
        for (i, raw) in raw_configs.iter().enumerate() {
            let label = match raw.get("label") {
                Some(l) => l
                    .as_str()
                    .ok_or_else(|| ApiError::bad("config \"label\" must be a string"))?
                    .to_string(),
                None => format!("config-{i}"),
            };
            if configs.iter().any(|(l, _)| *l == label) {
                return Err(ApiError::bad(format!(
                    "duplicate or reserved config label {label:?}"
                )));
            }
            configs.push((label, parse_config(raw)?));
        }

        let results = self
            .harness
            .run_matrix(std::slice::from_ref(&spec), trace_len, &configs);
        let baseline = results
            .get(&spec.name, "baseline")
            .ok_or_else(|| ApiError::internal("baseline cell missing from results"))?;
        // Without a baseline nothing downstream is computable: the whole
        // request degrades to a structured 502. A failed *candidate*, by
        // contrast, only poisons its own row below.
        if let Some(err) = &baseline.error {
            return Ok(cell_failure_response(&spec.name, "baseline", err));
        }
        let mut rows = Vec::new();
        for (label, _) in configs.iter().skip(1) {
            let cell = results
                .get(&spec.name, label)
                .ok_or_else(|| ApiError::internal("config cell missing from results"))?;
            if let Some(err) = &cell.error {
                rows.push(Json::obj([
                    ("label", Json::str(label)),
                    ("error", err.to_json()),
                ]));
                continue;
            }
            rows.push(Json::obj([
                ("label", Json::str(label)),
                // `try_speedup_over` reports an incomparable or degenerate
                // pair as null rather than panicking mid-request.
                (
                    "speedup",
                    cell.stats.try_speedup_over(&baseline.stats).to_json(),
                ),
                (
                    "miss_coverage",
                    Json::num(cell.stats.miss_coverage_vs(&baseline.stats)),
                ),
                ("ipc", Json::num(cell.stats.ipc())),
                ("l1i_mpki", Json::num(cell.stats.l1i_mpki())),
                ("bus_utilization", Json::num(cell.stats.bus_utilization())),
            ]));
        }
        let body = Json::obj([
            ("schema_version", Json::uint(RESULTS_SCHEMA_VERSION)),
            ("workload", Json::str(&spec.name)),
            ("trace_len", Json::uint(trace_len as u64)),
            (
                "baseline",
                Json::obj([
                    ("ipc", Json::num(baseline.stats.ipc())),
                    ("l1i_mpki", Json::num(baseline.stats.l1i_mpki())),
                ]),
            ),
            ("results", Json::Arr(rows)),
            ("harness", self.harness.stats().to_json()),
        ]);
        Ok(Response::json(200, body.to_string()))
    }

    /// `GET /v1/experiments/{id}` — a persisted `results/` document.
    fn experiment(&self, id: &str) -> ApiResult<Response> {
        // Resolving through the registry (never the filesystem) makes path
        // traversal structurally impossible: only known ids reach `join`.
        if experiments::find(id).is_none() {
            return Err(ApiError::not_found(format!(
                "unknown experiment {id:?} (one of: {})",
                experiments::all()
                    .iter()
                    .map(|e| e.id())
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
        let path = self.config.results_dir.join(format!("{id}.json"));
        let content = std::fs::read_to_string(&path).map_err(|_| {
            ApiError::not_found(format!(
                "experiment {id} has no persisted results; run its exp_ binary first"
            ))
        })?;
        let doc = Json::parse(&content).map_err(|e| {
            ApiError::internal(format!(
                "persisted document for {id} is not valid json: {e}"
            ))
        })?;
        match doc.get("schema_version").and_then(Json::as_u64) {
            Some(RESULTS_SCHEMA_VERSION) => Ok(Response::json(200, content)),
            Some(v) => Err(ApiError::internal(format!(
                "persisted document has schema_version {v}, this server understands {RESULTS_SCHEMA_VERSION}"
            ))),
            None => Err(ApiError::internal(
                "persisted document is missing schema_version",
            )),
        }
    }
}

/// A structured 502 for a simulation cell that failed inside the harness
/// (injected fault, panic, or wall-clock timeout). The `cell_error` object
/// carries the typed [`fdip_sim::fault::CellError`] so clients can branch
/// on `kind` and decide whether a retry is worthwhile.
fn cell_failure_response(
    workload: &str,
    config: &str,
    err: &fdip_sim::fault::CellError,
) -> Response {
    let body = Json::obj([
        ("error", Json::str(format!("simulation cell failed: {err}"))),
        ("workload", Json::str(workload)),
        ("config", Json::str(config)),
        ("cell_error", err.to_json()),
    ]);
    Response::json(502, body.to_string())
}

/// Parses the request body as a JSON object.
fn parse_body(req: &Request) -> ApiResult<Json> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| ApiError::bad("request body is not utf-8"))?;
    if text.trim().is_empty() {
        return Err(ApiError::bad("request body must be a json object"));
    }
    let doc = Json::parse(text).map_err(|e| ApiError::bad(format!("invalid json body: {e}")))?;
    if doc.as_object().is_none() {
        return Err(ApiError::bad("request body must be a json object"));
    }
    Ok(doc)
}

/// Rejects keys outside `allowed` so typos fail loudly instead of being
/// silently ignored (the JSON analogue of `Args::reject_unknown`).
fn reject_unknown_keys(doc: &Json, allowed: &[&str], what: &str) -> ApiResult<()> {
    for (key, _) in doc.as_object().into_iter().flatten() {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::bad(format!(
                "unknown {what} key {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Parses a workload document into a [`WorkloadSpec`]. Exactly one of
/// three source keys selects the trace pipeline:
///
/// * `{"profile": "...", "seed": N}` — the synthetic CFG generator;
/// * `{"program": "..."}` — an assembled `fdip-isa` library program;
/// * `{"scenario": "...", "seed": N}` — a multi-phase scenario.
///
/// The spec's name encodes source *and* seed where the seed matters: the
/// harness trace store is keyed by `(name, trace_len)`, so every distinct
/// generator input must map to a distinct name for cache sharing to stay
/// sound. (Program execution ignores the seed, so programs reject it
/// rather than silently fork cache identities.)
fn parse_workload(raw: Option<&Json>) -> ApiResult<WorkloadSpec> {
    let raw = raw.ok_or_else(|| ApiError::bad("\"workload\" is required"))?;
    reject_unknown_keys(raw, &["profile", "program", "scenario", "seed"], "workload")?;
    let sources: Vec<&str> = ["profile", "program", "scenario"]
        .into_iter()
        .filter(|k| raw.get(k).is_some())
        .collect();
    let key = match sources.as_slice() {
        [one] => *one,
        _ => {
            return Err(ApiError::bad(
                "workload needs exactly one of \"profile\", \"program\", \"scenario\"",
            ))
        }
    };
    let name = raw
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad(format!("workload {key:?} must be a string")))?;
    let seed = match raw.get("seed") {
        None => 0,
        Some(s) => s
            .as_u64()
            .ok_or_else(|| ApiError::bad("workload \"seed\" must be an unsigned integer"))?,
    };
    match key {
        "profile" => {
            let profile = Profile::ALL
                .into_iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| {
                    ApiError::bad(format!(
                        "unknown profile {name:?} (client|server|microloop|jumpy)"
                    ))
                })?;
            Ok(WorkloadSpec {
                name: format!("{}~s{}", profile.name(), seed),
                source: WorkloadSource::Profile(profile),
                seed,
            })
        }
        "program" => {
            if raw.get("seed").is_some() {
                return Err(ApiError::bad(
                    "workload \"seed\" does not apply to programs (execution is deterministic)",
                ));
            }
            WorkloadSpec::program(name).ok_or_else(|| {
                ApiError::bad(format!(
                    "unknown program {name:?} ({})",
                    fdip_isa::library::names().join("|")
                ))
            })
        }
        _ => WorkloadSpec::scenario(name, seed).ok_or_else(|| {
            ApiError::bad(format!(
                "unknown scenario {name:?} ({})",
                fdip_isa::scenario::names().join("|")
            ))
        }),
    }
}

/// Validates `trace_len` against the server's configured ceiling.
fn parse_trace_len(raw: Option<&Json>, max: usize) -> ApiResult<usize> {
    const DEFAULT: usize = 60_000;
    const MIN: usize = 1_000;
    let len = match raw {
        None => DEFAULT as u64,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ApiError::bad("\"trace_len\" must be an unsigned integer"))?,
    };
    if (len as usize) < MIN || len as usize > max {
        return Err(ApiError::bad(format!(
            "\"trace_len\" must be in {MIN}..={max}"
        )));
    }
    Ok(len as usize)
}

/// Parses a config object in the CLI's spec mini-language (string fields
/// use the same `kind:size` specs as the `fdip run` flags).
fn parse_config(raw: &Json) -> ApiResult<FrontendConfig> {
    reject_unknown_keys(
        raw,
        &[
            "label",
            "prefetcher",
            "cpf",
            "btb",
            "predictor",
            "ftq",
            "l1_kb",
            "l2_latency",
            "mem_latency",
        ],
        "config",
    )?;
    let str_field = |key: &str| -> ApiResult<Option<&str>> {
        match raw.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| ApiError::bad(format!("config {key:?} must be a string"))),
        }
    };
    let uint_field = |key: &str| -> ApiResult<Option<u64>> {
        match raw.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                ApiError::bad(format!("config {key:?} must be an unsigned integer"))
            }),
        }
    };

    let cpf = match str_field("cpf")? {
        Some(raw) => spec::parse_cpf(raw).map_err(ApiError::bad)?,
        None => fdip::CpfMode::None,
    };
    let mut config = FrontendConfig::default();
    if let Some(raw) = str_field("prefetcher")? {
        config.prefetcher = spec::parse_prefetcher(raw, cpf).map_err(ApiError::bad)?;
    }
    if let Some(raw) = str_field("btb")? {
        config.btb = spec::parse_btb(raw).map_err(ApiError::bad)?;
    }
    if let Some(raw) = str_field("predictor")? {
        config.predictor = spec::parse_predictor(raw).map_err(ApiError::bad)?;
    }
    if let Some(ftq) = uint_field("ftq")? {
        config.ftq_entries = ftq as usize;
    }
    if let Some(l1_kb) = uint_field("l1_kb")? {
        spec::set_l1_kb(&mut config, l1_kb).map_err(ApiError::bad)?;
    }
    if let Some(l2) = uint_field("l2_latency")? {
        config.mem.l2_latency = l2;
    }
    if let Some(mem) = uint_field("mem_latency")? {
        config.mem.mem_latency = mem;
    }
    config.check().map_err(ApiError::bad)?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use fdip_sim::fault::FaultPlan;

    fn service() -> Service {
        service_in("shared")
    }

    /// A service whose results dir is private to `tag` (tests that write
    /// documents must not race each other).
    fn service_in(tag: &str) -> Service {
        service_with(tag, None)
    }

    /// A service over a harness of its own, injecting the fault plan
    /// `faults`: no other test can see its plan, cells, or counters.
    fn service_with(tag: &str, faults: Option<&str>) -> Service {
        let dir = std::env::temp_dir().join(format!("fdip-serve-service-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let config = ServeConfig {
            results_dir: dir,
            faults: faults.map(|spec| Arc::new(FaultPlan::parse(spec).expect("plan"))),
            ..ServeConfig::default()
        };
        let harness = config.open_harness().expect("open the harness").harness;
        Service::new(config, Arc::new(Metrics::default()), Arc::new(harness))
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn body_str(resp: &Response) -> String {
        let mut buf = Vec::new();
        resp.write_to(&mut buf, false).unwrap();
        let text = String::from_utf8(buf).unwrap();
        text.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let s = service();
        assert_eq!(s.route(&get("/healthz"), 0).status, 200);
        assert_eq!(s.route(&get("/nope"), 0).status, 404);
        assert_eq!(s.route(&post("/healthz", ""), 0).status, 405);
        assert_eq!(s.route(&get("/v1/run"), 0).status, 405);
    }

    #[test]
    fn metrics_render_through_the_route() {
        let s = service();
        let resp = s.route(&get("/metrics"), 3);
        assert_eq!(resp.status, 200);
        let body = body_str(&resp);
        assert!(body.contains("fdip_serve_queue_depth 3"), "{body}");
        assert!(body.contains("fdip_serve_harness_cells_simulated_total"));
    }

    #[test]
    fn run_simulates_and_reports() {
        let s = service();
        let resp = s.route(
            &post(
                "/v1/run",
                r#"{"workload": {"profile": "microloop", "seed": 9},
                   "trace_len": 1000,
                   "config": {"prefetcher": "fdip", "cpf": "remove"}}"#,
            ),
            0,
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        let doc = Json::parse(&body_str(&resp)).unwrap();
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("microloop~s9")
        );
        assert_eq!(doc.get("trace_len").and_then(Json::as_u64), Some(1000));
        assert!(doc.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
        let cell = doc.get("cell").unwrap();
        assert!(cell.get("stats").unwrap().get("instructions").is_some());
    }

    #[test]
    fn run_simulates_program_and_scenario_workloads() {
        let s = service();
        let resp = s.route(
            &post(
                "/v1/run",
                r#"{"workload": {"program": "fib"}, "trace_len": 1000}"#,
            ),
            0,
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        let doc = Json::parse(&body_str(&resp)).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("fib"));
        assert!(doc.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);

        let resp = s.route(
            &post(
                "/v1/run",
                r#"{"workload": {"scenario": "irq-vm", "seed": 5}, "trace_len": 1000}"#,
            ),
            0,
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        let doc = Json::parse(&body_str(&resp)).unwrap();
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("irq-vm~s5")
        );
    }

    #[test]
    fn run_rejects_bad_bodies_with_400() {
        let s = service();
        for (body, needle) in [
            ("", "must be a json object"),
            ("[1,2]", "must be a json object"),
            ("{\"workload\"", "invalid json"),
            (r#"{"trace_len": 1000}"#, "is required"),
            (r#"{"workload": {"profile": "warp9"}}"#, "unknown profile"),
            (
                r#"{"workload": {"profile": "microloop"}, "trace_len": 10}"#,
                "trace_len",
            ),
            (
                r#"{"workload": {"profile": "microloop"}, "frobnicate": 1}"#,
                "unknown request key",
            ),
            (
                r#"{"workload": {"profile": "microloop", "nope": 2}}"#,
                "unknown workload key",
            ),
            (
                r#"{"workload": {"profile": "microloop"}, "config": {"btb": "conventional:1001"}}"#,
                "multiple of 8",
            ),
            (
                r#"{"workload": {"profile": "microloop"}, "config": {"ftq": 0}}"#,
                "ftq",
            ),
            (r#"{"workload": {"program": "warp9"}}"#, "unknown program"),
            (r#"{"workload": {"scenario": "warp9"}}"#, "unknown scenario"),
            (
                r#"{"workload": {"profile": "microloop", "program": "bubble"}}"#,
                "exactly one of",
            ),
            (r#"{"workload": {"seed": 4}}"#, "exactly one of"),
            (
                r#"{"workload": {"program": "bubble", "seed": 4}}"#,
                "does not apply to programs",
            ),
        ] {
            let resp = s.route(&post("/v1/run", body), 0);
            assert_eq!(resp.status, 400, "{body}");
            let text = body_str(&resp);
            assert!(text.contains(needle), "{body} -> {text}");
        }
    }

    #[test]
    fn compare_reports_speedups_against_baseline() {
        let s = service();
        let resp = s.route(
            &post(
                "/v1/compare",
                r#"{"workload": {"profile": "microloop", "seed": 3},
                   "trace_len": 1000,
                   "configs": [{"label": "fdip", "prefetcher": "fdip"},
                               {"label": "nlp", "prefetcher": "nlp"}]}"#,
            ),
            0,
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        let doc = Json::parse(&body_str(&resp)).unwrap();
        let rows = doc.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("label").and_then(Json::as_str), Some("fdip"));
        assert!(rows[0].get("speedup").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(doc.get("baseline").unwrap().get("ipc").is_some());
    }

    #[test]
    fn compare_rejects_reserved_and_duplicate_labels() {
        let s = service();
        for configs in [
            r#"[{"label": "baseline"}]"#,
            r#"[{"label": "x"}, {"label": "x"}]"#,
            r#"[]"#,
        ] {
            let body = format!(
                r#"{{"workload": {{"profile": "microloop"}}, "trace_len": 1000, "configs": {configs}}}"#
            );
            assert_eq!(
                s.route(&post("/v1/compare", &body), 0).status,
                400,
                "{configs}"
            );
        }
    }

    #[test]
    fn experiments_endpoint_validates_through_the_registry() {
        let s = service_in("registry");
        // Unknown id: 404 listing valid ids, and no filesystem access at
        // all for traversal-shaped input.
        for id in ["zz", "../../etc/passwd", "x2/../x3", ""] {
            let resp = s.route(&get(&format!("/v1/experiments/{id}")), 0);
            assert_eq!(resp.status, 404, "{id}");
            assert!(body_str(&resp).contains("unknown experiment"), "{id}");
        }
        // Known id without a persisted document: 404 with a hint.
        let no_doc = s.route(&get("/v1/experiments/e01"), 0);
        assert_eq!(no_doc.status, 404);
        assert!(body_str(&no_doc).contains("no persisted results"));
    }

    #[test]
    fn experiments_endpoint_serves_schema_checked_documents() {
        let s = service_in("documents");
        let dir = s.config().results_dir.clone();
        std::fs::write(
            dir.join("e01.json"),
            r#"{"schema_version": 1, "id": "e01", "tables": []}"#,
        )
        .unwrap();
        let ok = s.route(&get("/v1/experiments/e01"), 0);
        assert_eq!(ok.status, 200);
        assert!(
            body_str(&ok).contains("\"id\": \"e01\"") || body_str(&ok).contains("\"id\":\"e01\"")
        );

        std::fs::write(dir.join("e02.json"), r#"{"schema_version": 99}"#).unwrap();
        let bad_version = s.route(&get("/v1/experiments/e02"), 0);
        assert_eq!(bad_version.status, 500);
        assert!(body_str(&bad_version).contains("schema_version 99"));

        std::fs::write(dir.join("e03.json"), "not json at all").unwrap();
        let bad_json = s.route(&get("/v1/experiments/e03"), 0);
        assert_eq!(bad_json.status, 500);
    }

    #[test]
    fn failed_cells_become_structured_502s() {
        let s = service_with(
            "shared",
            Some("panic@microloop~s404/run,panic@microloop~s405/baseline"),
        );
        let run = s.route(
            &post(
                "/v1/run",
                r#"{"workload": {"profile": "microloop", "seed": 404}, "trace_len": 1000}"#,
            ),
            0,
        );
        let compare = s.route(
            &post(
                "/v1/compare",
                r#"{"workload": {"profile": "microloop", "seed": 405},
                   "trace_len": 1000,
                   "configs": [{"label": "fdip", "prefetcher": "fdip"}]}"#,
            ),
            0,
        );

        assert_eq!(run.status, 502, "{}", body_str(&run));
        let doc = Json::parse(&body_str(&run)).unwrap();
        assert_eq!(
            doc.get("cell_error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("panic")
        );
        assert_eq!(doc.get("config").and_then(Json::as_str), Some("run"));

        assert_eq!(compare.status, 502, "{}", body_str(&compare));
        let doc = Json::parse(&body_str(&compare)).unwrap();
        assert_eq!(doc.get("config").and_then(Json::as_str), Some("baseline"));
    }

    #[test]
    fn compare_marks_failed_candidates_without_failing_the_request() {
        let s = service_with("shared", Some("panic@microloop~s406/bad"));
        let resp = s.route(
            &post(
                "/v1/compare",
                r#"{"workload": {"profile": "microloop", "seed": 406},
                   "trace_len": 1000,
                   "configs": [{"label": "bad", "prefetcher": "fdip"},
                               {"label": "ok", "prefetcher": "nlp"}]}"#,
            ),
            0,
        );
        assert_eq!(resp.status, 200, "{}", body_str(&resp));
        let doc = Json::parse(&body_str(&resp)).unwrap();
        let rows = doc.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("panic")
        );
        assert!(rows[0].get("speedup").is_none());
        assert!(rows[1].get("speedup").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn deadline_header_parses_strictly() {
        let with = |value: &str| Request {
            method: "POST".to_string(),
            path: "/v1/run".to_string(),
            headers: vec![("x-fdip-deadline-ms".to_string(), value.to_string())],
            body: Vec::new(),
        };
        assert_eq!(parse_deadline_ms(&post("/v1/run", "")).unwrap(), None);
        assert_eq!(
            parse_deadline_ms(&with("250")).unwrap(),
            Some(Duration::from_millis(250))
        );
        assert_eq!(
            parse_deadline_ms(&with(" 250 ")).unwrap(),
            Some(Duration::from_millis(250))
        );
        // The bugfix: every malformed shape is a 400, never silence.
        for bad in ["500ms", "-1", "0", "1e3", "", "18446744073709551616"] {
            let err = parse_deadline_ms(&with(bad)).unwrap_err();
            assert_eq!(err.status, 400, "{bad:?}");
            assert!(err.message.contains("x-fdip-deadline-ms"), "{bad:?}");
        }
    }

    #[test]
    fn tenant_header_validates_or_defaults() {
        let with = |value: &str| Request {
            method: "POST".to_string(),
            path: "/v1/run".to_string(),
            headers: vec![("x-fdip-tenant".to_string(), value.to_string())],
            body: Vec::new(),
        };
        assert_eq!(tenant_of(&post("/v1/run", "")).unwrap(), DEFAULT_TENANT);
        assert_eq!(tenant_of(&with("team-a")).unwrap(), "team-a");
        for bad in ["", "has space", "quote\""] {
            assert_eq!(tenant_of(&with(bad)).unwrap_err().status, 400, "{bad:?}");
        }
    }

    #[test]
    fn pooled_routes_cover_sims_and_experiment_reads() {
        // Experiment reads touch the filesystem, so they must leave the
        // loop thread — but they are not sim routes and never coalesce.
        assert!(is_pooled_route(&post("/v1/run", "{}")));
        assert!(is_pooled_route(&post("/v1/compare", "{}")));
        assert!(is_pooled_route(&get("/v1/experiments/e01")));
        assert!(!is_sim_route(&get("/v1/experiments/e01")));
        assert!(sim_coalesce_key(&get("/v1/experiments/e01")).is_none());
        assert!(!is_pooled_route(&get("/healthz")));
        assert!(!is_pooled_route(&get("/metrics")));
        assert!(!is_pooled_route(&post("/v1/experiments/e01", "")));
    }

    #[test]
    fn coalesce_keys_cover_sim_routes_only() {
        let a = post("/v1/run", r#"{"workload": {"profile": "microloop"}}"#);
        let b = post("/v1/run", r#"{"workload": {"profile": "microloop"}}"#);
        let c = post("/v1/run", r#"{"workload": {"profile": "jumpy"}}"#);
        assert!(is_sim_route(&a));
        assert_eq!(sim_coalesce_key(&a), sim_coalesce_key(&b));
        assert_ne!(sim_coalesce_key(&a), sim_coalesce_key(&c));
        assert!(sim_coalesce_key(&get("/metrics")).is_none());
        assert!(!is_sim_route(&get("/healthz")));
    }

    #[test]
    fn identical_requests_hit_the_cell_cache() {
        let s = service();
        let body = r#"{"workload": {"profile": "microloop", "seed": 77},
                       "trace_len": 1200}"#;
        let first = s.route(&post("/v1/run", body), 0);
        assert_eq!(first.status, 200);
        let before = s.harness.stats();
        let second = s.route(&post("/v1/run", body), 0);
        assert_eq!(second.status, 200);
        let after = s.harness.stats();
        // The service's own harness saw exactly one simulation, and the
        // repeat simulated nothing new.
        assert_eq!((before.cells_simulated, before.traces_generated), (1, 1));
        assert_eq!(after.cells_simulated, before.cells_simulated);
        assert_eq!(after.traces_generated, before.traces_generated);
        assert_eq!(after.cell_hits, before.cell_hits + 1);
    }
}
