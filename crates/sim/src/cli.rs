//! Argument parsing and execution for the `smcsim` command-line tool.
//!
//! ```text
//! smcsim --kernel daxpy --n 1024 --memory cli --order smc --fifo 64
//! smcsim --kernel vaxpy --stride 4 --memory pi --order natural --json
//! smcsim --kernel copy --record-trace copy.trace.json
//! smcsim check copy.trace.json
//! ```

use std::fmt::Display;

use checker::TraceFile;
use kernels::Kernel;
use telemetry::Profiler;

use crate::{metrics, run_kernel, AccessOrder, Alignment, MemorySystem, RunResult, SystemConfig};

/// A fully parsed simulation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Kernel to run.
    pub kernel: Kernel,
    /// Elements per stream.
    pub n: u64,
    /// Stride in 64-bit words.
    pub stride: u64,
    /// System configuration.
    pub config: SystemConfig,
    /// Emit JSON instead of a text summary.
    pub json: bool,
    /// Print the analytic bound derivation alongside the measurement.
    pub explain: bool,
    /// Write the recorded command stream to this path as a
    /// [`TraceFile`] for later `smcsim check` runs.
    pub record_trace: Option<String>,
    /// Write the run's metrics registry to this path as JSON Lines
    /// (implies telemetry collection). On a failed run the livelock /
    /// failure registry is written instead.
    pub metrics_out: Option<String>,
    /// Write a Chrome trace-event / Perfetto JSON timeline to this path
    /// (implies telemetry collection). Load it at `ui.perfetto.dev`.
    pub perfetto_out: Option<String>,
    /// Write the run's exclusive cycle attribution to this path as JSON
    /// (implies telemetry collection); render it with
    /// `smcsim report --attribution`.
    pub attribution_out: Option<String>,
    /// Write the run's metric registry to this path as Prometheus-style
    /// text exposition (implies telemetry collection).
    pub prom_out: Option<String>,
}

impl Default for Job {
    fn default() -> Self {
        Job {
            kernel: Kernel::Daxpy,
            n: 1024,
            stride: 1,
            config: SystemConfig::smc(MemorySystem::CacheLineInterleaved, 64),
            json: false,
            explain: false,
            record_trace: None,
            metrics_out: None,
            perfetto_out: None,
            attribution_out: None,
            prom_out: None,
        }
    }
}

/// Usage text for `--help`.
pub const USAGE: &str = "\
usage: smcsim [OPTIONS]
       smcsim check TRACE.json   replay a recorded trace through the
                                 timing-conformance checker
       smcsim report [--metrics METRICS.jsonl] [--perfetto TRACE.json]
                     [--attribution ATTR.json] [--percentiles TRACE.jsonl]
                     [--prom METRICS.prom]
                                 render a metrics dump as a table, a cycle
                                 attribution as category/bank tables, a
                                 serve trace stream as exact per-tenant
                                 latency/slack percentiles; validate a
                                 Perfetto trace or a Prometheus exposition
       smcsim bench [--n N] [--out FILE] [--baseline FILE]
                                 [--floor-permille P]
                                 profile simulated-cycles-per-second for
                                 the paper suite  [BENCH_telemetry.json];
                                 with --baseline, fail if any kernel's rate
                                 drops below P/1000 of the committed profile
       smcsim serve --tenants MIX [--arb POLICY] [--memory ORG] [--fifo D]
                                 [--channels C] [--placement P]
                                 [--remote-penalty L]
                                 [--queue-cap N] [--budget-permille P]
                                 [--faults SPEC] [--fault-seed S]
                                 [--chaos PLAN] [--chaos-seed S]
                                 [--retry-budget N]
                                 [--metrics-out F] [--trace-out F]
                                 [--perfetto-out F] [--json]
                                 multiplex a multi-tenant mix onto the SMC:
                                 MIX is '+'-separated class:count:kernel:n[:stride]
                                 groups (class ls|bh), e.g.
                                 ls:2:daxpy:256+bh:6:copy:1024; POLICY is
                                 fcfs|rr|bank-aware|regulated [fcfs]; PLAN is
                                 ';'-separated channel-fault clauses from:
                                   brownout:<ch>:<from>:<len>:<mult>
                                   outage:<ch>:<from>:<len>
                                   devfail:<ch>:<dev>:<from>:<mult>
                                 windows slide to each request's submission;
                                 --retry-budget N grants each rejected
                                 request N seeded backoff resubmissions
       smcsim campaign run SPEC.json [--workers N] [--out FILE.jsonl]
                                 [--bench-out FILE.json] [--bench-baseline FILE]
                                 [--bench-floor-permille P] [--quiet]
                                 expand a campaign spec and run its grid on
                                 N worker threads (default: all cores),
                                 writing a schema-versioned JSONL store
       smcsim campaign list SPEC.json
                                 print the expanded grid (run ID + config
                                 fingerprint per line) without running it
       smcsim campaign diff GOLDEN.jsonl CURRENT.jsonl
                                 [--cycles-tol-permille P] [--peak-tol-milli M]
                                 gate a results store against a committed
                                 golden; exits nonzero on regression
  --kernel NAME     copy|daxpy|hydro|vaxpy|fill|scale|triad|swap  [daxpy]
  --n N             elements per stream                           [1024]
  --stride S        stride in 64-bit words                        [1]
  --memory ORG      cli|pi                                        [cli]
  --order KIND      smc|natural                                   [smc]
  --fifo DEPTH      SMC FIFO depth in elements                    [64]
  --policy P        rr|bank-aware                                 [rr]
  --devices D       RDRAM devices on the channel                  [1]
  --channels C      independent memory channels                   [1]
  --placement P     cross-channel address placement:
                      interleaved[:bytes] | sequential | numa[:home]
                                                                  [interleaved]
  --remote-penalty L  comma-separated per-channel ROW-delivery
                    penalties in cycles (NUMA asymmetry), e.g. 0,40
  --cpu-cycles C    CPU cycles per stream access                  [2]
  --aligned         place all vectors in the same bank
  --spec            speculative page activation
  --refresh         honour DRAM refresh
  --write-allocate  charge write-allocate fetches + writebacks (natural order)
  --cache           model a real 16 KB 4-way cache with conflicts (natural order)
  --faults SPEC     inject faults; ';'-separated clauses from:
                      busy:<bank|*>:<period>:<len>  nack:<permille>:<retries>
                      storm:<period>:<len>          stall:<period>:<len>
  --fault-seed S    seed for the fault injector's random draws         [0]
  --record-trace F  write the issued command stream to F (JSON) for `check`
  --metrics-out F   write the run's metric registry to F as JSON Lines
  --perfetto-out F  write a Perfetto/Chrome trace-event timeline to F;
                    for serve, the request-lifecycle timeline (one track
                    per tenant)
  --attribution-out F  write the run's exclusive cycle attribution to F
                    (render with `smcsim report --attribution F`)
  --prom-out F      write the run's metrics as Prometheus text exposition
  --trace-out F     (serve) write the request-lifecycle trace stream to F
                    as JSONL (render with `smcsim report --percentiles F`)
  --json            JSON output
  --explain         print the analytic bound derivation (Eqs. 5.15-5.18)
  --help";

/// The flags one command accepts: each flag's name and whether it takes a
/// value.
pub type FlagTable = [(&'static str, bool)];

/// Command-line arguments parsed against a [`FlagTable`]: the flags given,
/// in order, and the arguments that are not flags.
#[derive(Debug)]
pub struct Flags<'a> {
    given: Vec<(&'static str, &'a str)>,
    /// The arguments that are not flags, in order.
    pub positionals: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parse `args` against `table`. A flag that takes a value consumes the
    /// next argument, which must not itself start with `--`. With
    /// `positionals`, other arguments that do not start with `--` are
    /// collected; any other argument is an unknown option of command `cmd`
    /// (empty for a program's top-level form).
    ///
    /// # Errors
    ///
    /// `{flag} needs a value`, or `{cmd}: unknown option {arg:?}` followed
    /// by `usage`.
    pub fn parse(
        cmd: &str,
        usage: &str,
        table: &FlagTable,
        positionals: bool,
        args: &'a [String],
    ) -> Result<Self, String> {
        let mut flags = Flags {
            given: Vec::new(),
            positionals: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match table.iter().find(|(name, _)| name == arg) {
                Some(&(name, true)) => {
                    let value = args
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{name} needs a value"))?;
                    flags.given.push((name, value));
                }
                Some(&(name, false)) => flags.given.push((name, "")),
                None if positionals && !arg.starts_with("--") => flags.positionals.push(arg),
                None => {
                    let sep = if cmd.is_empty() { "" } else { ": " };
                    return Err(format!("{cmd}{sep}unknown option {arg:?}\n{usage}"));
                }
            }
        }
        Ok(flags)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|&(name, _)| name == flag)
    }

    /// The value of the last `flag` given.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.given
            .iter()
            .rev()
            .find(|&&(name, _)| name == flag)
            .map(|&(_, value)| value)
    }

    /// The value of the last `flag` given, converted by `parse`.
    ///
    /// # Errors
    ///
    /// `{flag}: {err}` when `parse` rejects the value.
    pub fn get<T, E: Display>(
        &self,
        flag: &str,
        parse: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| parse(v).map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }
}

/// The system flags the single-run form and `serve` share, applied by
/// [`apply_system_flags`].
const SYSTEM_FLAGS: &FlagTable = &[
    ("--memory", true),
    ("--fifo", true),
    ("--channels", true),
    ("--placement", true),
    ("--remote-penalty", true),
    ("--faults", true),
    ("--fault-seed", true),
];

/// Apply [`SYSTEM_FLAGS`] to `cfg`; `--fifo` sets the depth of an SMC
/// ordering.
fn apply_system_flags(f: &Flags, cfg: &mut SystemConfig) -> Result<(), String> {
    cfg.memory = f
        .get("--memory", |v| match v {
            "cli" => Ok(MemorySystem::CacheLineInterleaved),
            "pi" => Ok(MemorySystem::PageInterleaved),
            other => Err(format!("must be cli or pi, got {other:?}")),
        })?
        .unwrap_or(cfg.memory);
    if let AccessOrder::Smc { fifo_depth } = &mut cfg.ordering {
        *fifo_depth = f.get("--fifo", str::parse)?.unwrap_or(*fifo_depth);
    }
    cfg.channels = f.get("--channels", str::parse)?.unwrap_or(cfg.channels);
    cfg.placement = f
        .get("--placement", memsys::Placement::parse)?
        .unwrap_or(cfg.placement);
    if let Some(penalties) = f.get("--remote-penalty", |v| {
        v.split(',').map(|p| p.trim().parse()).collect()
    })? {
        cfg.remote_penalty = penalties;
    }
    if let Some(plan) = f.get("--faults", faults::FaultPlan::parse)? {
        cfg.faults = Some(plan);
    }
    cfg.fault_seed = f.get("--fault-seed", str::parse)?.unwrap_or(cfg.fault_seed);
    Ok(())
}

/// The single-run form's flags besides [`SYSTEM_FLAGS`].
const RUN_FLAGS: &FlagTable = &[
    ("--kernel", true),
    ("--n", true),
    ("--stride", true),
    ("--order", true),
    ("--policy", true),
    ("--devices", true),
    ("--cpu-cycles", true),
    ("--aligned", false),
    ("--spec", false),
    ("--refresh", false),
    ("--write-allocate", false),
    ("--cache", false),
    ("--record-trace", true),
    ("--metrics-out", true),
    ("--perfetto-out", true),
    ("--attribution-out", true),
    ("--prom-out", true),
    ("--json", false),
    ("--explain", false),
];

/// Parse command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// invalid parameter combinations.
pub fn parse(args: &[String]) -> Result<Job, String> {
    let f = Flags::parse("", USAGE, &[SYSTEM_FLAGS, RUN_FLAGS].concat(), false, args)?;
    let mut job = Job::default();
    let c = &mut job.config;
    apply_system_flags(&f, c)?;
    match f.value("--order").unwrap_or("smc") {
        "smc" => {}
        "natural" => c.ordering = AccessOrder::NaturalOrder,
        other => return Err(format!("--order must be smc or natural, got {other:?}")),
    }
    c.policy = f
        .get("--policy", |v| match v {
            "rr" | "round-robin" => Ok(smc::Policy::RoundRobin),
            "bank-aware" | "ba" => Ok(smc::Policy::BankAware),
            other => Err(format!("unknown policy {other:?}")),
        })?
        .unwrap_or(c.policy);
    c.device.devices = f.get("--devices", str::parse)?.unwrap_or(c.device.devices);
    c.cpu_access_cycles = f
        .get("--cpu-cycles", str::parse)?
        .unwrap_or(c.cpu_access_cycles);
    if f.has("--aligned") {
        c.alignment = Alignment::Aligned;
    }
    c.speculative = f.has("--spec");
    c.refresh = f.has("--refresh");
    c.write_allocate = f.has("--write-allocate");
    if f.has("--cache") {
        c.cache = Some(baseline::cache::CacheConfig::i860xp());
    }
    job.kernel = f
        .get("--kernel", |v| {
            Kernel::ALL
                .into_iter()
                .find(|k| k.name() == v)
                .ok_or_else(|| format!("unknown kernel {v:?}"))
        })?
        .unwrap_or(job.kernel);
    job.n = f.get("--n", str::parse)?.unwrap_or(job.n);
    job.stride = f.get("--stride", str::parse)?.unwrap_or(job.stride);
    let path = |flag| f.value(flag).map(String::from);
    job.record_trace = path("--record-trace");
    job.metrics_out = path("--metrics-out");
    job.perfetto_out = path("--perfetto-out");
    job.attribution_out = path("--attribution-out");
    job.prom_out = path("--prom-out");
    job.config.record_commands = job.record_trace.is_some();
    job.config.telemetry = job.metrics_out.is_some()
        || job.perfetto_out.is_some()
        || job.attribution_out.is_some()
        || job.prom_out.is_some();
    job.json = f.has("--json");
    job.explain = f.has("--explain");
    if job.n == 0 || job.stride == 0 {
        return Err("--n and --stride must be positive".into());
    }
    Ok(job)
}

/// A parsed command line, ready to run.
type Action<'a> = Box<dyn FnOnce() -> Result<String, String> + 'a>;

/// A subcommand's name and the function that parses its arguments.
type Command = (&'static str, fn(&[String]) -> Result<Action<'_>, String>);

const COMMANDS: &[Command] = &[
    ("check", check_cmd),
    ("report", report_cmd),
    ("bench", bench_cmd),
    ("serve", serve_cmd),
    ("campaign", campaign_cmd),
];

/// Run one `smcsim` command line (without the program name).
///
/// # Errors
///
/// The exit status and the message for stderr: 2 for bad arguments, 1 for
/// a failed run, a conformance violation, or a gate regression.
pub fn run(args: &[String]) -> Result<String, (u8, String)> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(format!("{USAGE}\n"));
    }
    let action = match COMMANDS
        .iter()
        .find(|(name, _)| args.first().is_some_and(|a| a == name))
    {
        Some((_, command)) => command(&args[1..]),
        None => parse(args).map(|job| Box::new(move || execute(&job)) as Action),
    }
    .map_err(|e| (2, e))?;
    action().map_err(|e| (1, e))
}

/// Run the job and format its result.
///
/// # Errors
///
/// A human-readable message when the run fails — an invalid configuration,
/// or a structured fault-injection failure (livelock, exhausted retries,
/// blown cycle budget).
pub fn execute(job: &Job) -> Result<String, String> {
    let result = match run_kernel(job.kernel, job.n, job.stride, &job.config) {
        Ok(r) => r,
        Err(e) => {
            // Even a failed run leaves evidence: the livelock report and
            // recovery counters go out through the same metric catalog.
            if let Some(path) = &job.metrics_out {
                let registry = metrics::failure_metrics(&e);
                std::fs::write(path, registry.to_jsonl())
                    .map_err(|werr| format!("cannot write metrics to {path}: {werr}"))?;
            }
            let mut msg = e.to_string();
            if let Some(plan) = &job.config.faults {
                msg.push_str(&format!(
                    " (faults '{}', seed {})",
                    plan.to_spec(),
                    job.config.fault_seed
                ));
            }
            return Err(msg);
        }
    };
    if let Some(tel) = &result.telemetry {
        if let Some(path) = &job.metrics_out {
            std::fs::write(path, tel.registry.to_jsonl())
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        }
        if let Some(path) = &job.perfetto_out {
            std::fs::write(path, tel.perfetto_json())
                .map_err(|e| format!("cannot write Perfetto trace to {path}: {e}"))?;
        }
        if let Some(path) = &job.attribution_out {
            std::fs::write(path, tel.attribution.to_json())
                .map_err(|e| format!("cannot write attribution to {path}: {e}"))?;
        }
        if let Some(path) = &job.prom_out {
            std::fs::write(path, telemetry::exposition::to_prometheus(&tel.registry))
                .map_err(|e| format!("cannot write exposition to {path}: {e}"))?;
        }
    }
    if let Some(path) = &job.record_trace {
        let trace = TraceFile {
            device: job.config.device.clone(),
            commands: result.commands.clone(),
        };
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    }
    if job.json {
        return serde_json::to_string_pretty(&result).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    if job.explain {
        let sys = job.config.stream_system();
        let org = job.config.memory.organization();
        out.push_str(&format!(
            "{}\n\n",
            analytic::explain::explain_cache(
                &sys,
                org,
                job.kernel.total_streams(),
                job.n,
                job.stride
            )
        ));
        if let AccessOrder::Smc { fifo_depth } = job.config.ordering {
            let w = analytic::smc::Workload {
                reads: job.kernel.reads(),
                writes: job.kernel.writes(),
                length: job.n,
                stride: job.stride,
            };
            out.push_str(&format!(
                "{}\n\n",
                analytic::explain::explain_smc(&sys, org, &w, fifo_depth as u64)
            ));
        }
    }
    out.push_str(&summarize(&result));
    Ok(out)
}

/// Replay a recorded trace file through the timing-conformance checker.
///
/// Returns the rendered report on a clean trace.
///
/// # Errors
///
/// A human-readable message when the file cannot be read or parsed, or the
/// full violation report when the trace breaks any timing rule.
pub fn run_check(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let trace: TraceFile = text.parse().map_err(|e| format!("{path}: {e}"))?;
    let violations = checker::check(&trace.device, &trace.commands);
    let report = format!(
        "{path}: {} command(s), {}",
        trace.commands.len(),
        checker::report(&violations)
    );
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(report)
    }
}

fn check_cmd(args: &[String]) -> Result<Action<'_>, String> {
    let f = Flags::parse("check", USAGE, &[], true, args)?;
    let &[path] = f.positionals.as_slice() else {
        return Err(format!("check needs a trace file\n{USAGE}"));
    };
    Ok(Box::new(move || {
        run_check(path).map(|report| report + "\n")
    }))
}

/// `smcsim report`: render a metrics JSONL dump as a table and, optionally,
/// validate a Perfetto trace file's structure.
///
/// # Errors
///
/// A human-readable message for bad flags, when a file cannot be read, the
/// metrics dump is malformed, or the Perfetto trace fails schema validation.
pub fn run_report(args: &[String]) -> Result<String, String> {
    report_cmd(args)?()
}

fn report_cmd(args: &[String]) -> Result<Action<'_>, String> {
    let f = Flags::parse(
        "report",
        USAGE,
        &[
            ("--metrics", true),
            ("--perfetto", true),
            ("--attribution", true),
            ("--percentiles", true),
            ("--prom", true),
        ],
        false,
        args,
    )?;
    if f.given.is_empty() {
        return Err(format!(
            "report needs --metrics, --attribution, --percentiles, --prom, \
             and/or --perfetto\n{USAGE}"
        ));
    }
    Ok(Box::new(move || {
        let mut out = String::new();
        let section = |out: &mut String, text: &str| {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(text);
        };
        if let Some(path) = f.value("--metrics") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read metrics {path}: {e}"))?;
            let table = metrics::table_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            section(&mut out, &table.render());
        }
        if let Some(path) = f.value("--attribution") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read attribution {path}: {e}"))?;
            let attr = telemetry::CycleAttribution::from_json(&text)
                .map_err(|e| format!("{path}: {e}"))?;
            section(&mut out, &crate::observe::render_attribution(&attr));
        }
        if let Some(path) = f.value("--percentiles") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace stream {path}: {e}"))?;
            let trace =
                crate::observe::trace_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            let (completed, failed, shed, rejected) = trace.outcome_totals();
            section(
                &mut out,
                &format!(
                    "{path}: {} spans ({completed} completed, {failed} failed, {shed} shed, \
                     {rejected} rejected), {} incidents\n{}",
                    trace.spans().len(),
                    trace.incidents().len(),
                    crate::observe::percentiles_table(&trace).render(),
                ),
            );
        }
        if let Some(path) = f.value("--prom") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read exposition {path}: {e}"))?;
            let summary =
                telemetry::exposition::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            section(
                &mut out,
                &format!(
                    "{path}: OK ({} families, {} samples, {} histograms)\n",
                    summary.families, summary.samples, summary.histograms,
                ),
            );
        }
        if let Some(path) = f.value("--perfetto") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read Perfetto trace {path}: {e}"))?;
            let summary =
                telemetry::perfetto::validate(&text).map_err(|e| format!("{path}: {e}"))?;
            section(
                &mut out,
                &format!(
                    "{path}: OK ({} events over {} tracks: {} spans, {} counter samples, \
                     {} instants)\n",
                    summary.events,
                    summary.tracks,
                    summary.complete_events,
                    summary.counter_events,
                    summary.instant_events,
                ),
            );
        }
        Ok(out)
    }))
}

/// `smcsim bench`: run the paper's four kernels under both orderings,
/// recording simulated-cycles-per-wall-second for each, and write the
/// profile as JSON (default `BENCH_telemetry.json`).
///
/// # Errors
///
/// A human-readable message for bad arguments, a failed run, an
/// unwritable output file, or a rate below the baseline's floor.
pub fn run_bench(args: &[String]) -> Result<String, String> {
    bench_cmd(args)?()
}

fn bench_cmd(args: &[String]) -> Result<Action<'_>, String> {
    let f = Flags::parse(
        "bench",
        USAGE,
        &[
            ("--n", true),
            ("--out", true),
            ("--baseline", true),
            ("--floor-permille", true),
        ],
        false,
        args,
    )?;
    let n: u64 = f.get("--n", str::parse)?.unwrap_or(1024);
    if n == 0 {
        return Err("--n must be positive".into());
    }
    let floor_permille: u64 = f.get("--floor-permille", str::parse)?.unwrap_or(50);
    Ok(Box::new(move || {
        let mut profiler = Profiler::new();
        let mut out = String::from("kernel  ordering  cycles  sim-cycles/s\n");
        for kernel in Kernel::PAPER_SUITE {
            for (cfg, ordering) in [
                (
                    SystemConfig::smc(MemorySystem::CacheLineInterleaved, 64),
                    "smc",
                ),
                (
                    SystemConfig::natural_order(MemorySystem::CacheLineInterleaved),
                    "natural",
                ),
            ] {
                let start = std::time::Instant::now();
                let r = run_kernel(kernel, n, 1, &cfg)
                    .map_err(|e| format!("bench {} ({ordering}): {e}", kernel.name()))?;
                let percent_peak_milli = crate::sweep::stats_of(&r).percent_peak_milli;
                profiler.record(
                    kernel.name(),
                    ordering,
                    r.cycles,
                    percent_peak_milli,
                    start.elapsed(),
                );
                let rec = profiler
                    .records()
                    .last()
                    .ok_or_else(|| "profiler recorded nothing".to_string())?;
                out.push_str(&format!(
                    "{}  {}  {}  {}\n",
                    rec.kernel, rec.ordering, rec.cycles, rec.cycles_per_sec
                ));
            }
        }
        let out_path = f.value("--out").unwrap_or("BENCH_telemetry.json");
        std::fs::write(out_path, profiler.to_json())
            .map_err(|e| format!("cannot write profile to {out_path}: {e}"))?;
        out.push_str(&format!("profile written to {out_path}\n"));
        if let Some(baseline_path) = f.value("--baseline") {
            let text = std::fs::read_to_string(baseline_path)
                .map_err(|e| format!("cannot read bench baseline {baseline_path}: {e}"))?;
            let verdict = telemetry::bench::compare_to_baseline(&text, &profiler, floor_permille)
                .map_err(|e| format!("{baseline_path}: {e}"))?;
            out.push_str(&verdict);
            out.push('\n');
        }
        Ok(out)
    }))
}

/// `smcsim serve`: multiplex a multi-tenant mix onto the SMC through the
/// `tenancy` serving layer (see [`crate::serve`]).
///
/// # Errors
///
/// A human-readable message for bad flags, a malformed tenant mix, an
/// invalid serve configuration, or a serve run that blew its cycle budget.
pub fn run_serve_cmd(args: &[String]) -> Result<String, String> {
    serve_cmd(args)?()
}

/// `serve`'s flags besides [`SYSTEM_FLAGS`].
const SERVE_FLAGS: &FlagTable = &[
    ("--tenants", true),
    ("--arb", true),
    ("--queue-cap", true),
    ("--budget-permille", true),
    ("--chaos", true),
    ("--chaos-seed", true),
    ("--retry-budget", true),
    ("--metrics-out", true),
    ("--trace-out", true),
    ("--perfetto-out", true),
    ("--json", false),
];

fn serve_cmd(args: &[String]) -> Result<Action<'_>, String> {
    let f = Flags::parse(
        "serve",
        USAGE,
        &[SYSTEM_FLAGS, SERVE_FLAGS].concat(),
        false,
        args,
    )?;
    let mix_spec = f
        .value("--tenants")
        .ok_or_else(|| format!("serve needs --tenants MIX\n{USAGE}"))?;
    let mix = tenancy::TenantMix::parse(mix_spec).map_err(|e| e.to_string())?;
    if mix.is_empty() {
        return Err("serve needs a non-empty tenant mix".to_string());
    }
    crate::serve::validate_mix(&mix)?;
    let mut base = SystemConfig::smc(MemorySystem::CacheLineInterleaved, 64);
    apply_system_flags(&f, &mut base)?;
    let chaos_seed = f.get("--chaos-seed", str::parse)?.unwrap_or(0);
    if let Some(plan) = f.get("--chaos", faults::FaultPlan::parse)? {
        base = base.with_chaos(plan, chaos_seed);
    }
    let banks = base.device.total_banks() * base.channels.max(1);
    let budget_permille = f.get("--budget-permille", str::parse)?.unwrap_or(0);
    let mut cfg = crate::serve::serve_config_for(banks, budget_permille, base.device.timing.t_pack);
    cfg.policy = f.value("--arb").unwrap_or("fcfs").to_string();
    tenancy::policy_by_name(&cfg.policy)?;
    cfg.queue_capacity = f
        .get("--queue-cap", str::parse)?
        .unwrap_or(cfg.queue_capacity);
    let retry_budget = f.get("--retry-budget", str::parse)?.unwrap_or(0);
    if retry_budget != 0 {
        cfg.retry = tenancy::RetryPolicy::with_budget(retry_budget, chaos_seed);
    }
    Ok(Box::new(move || {
        let (trace_out, perfetto_out) = (f.value("--trace-out"), f.value("--perfetto-out"));
        // Tracing is opt-in: the untraced path stays byte-identical to what
        // it produced before the trace surfaces existed. Chaos and
        // closed-loop retries route through the chaos runner so the
        // degraded-mode totals come back; a plain serve never touches that
        // path, so its output is byte-identical to builds without the chaos
        // layer.
        let tracing = trace_out.is_some() || perfetto_out.is_some();
        let chaotic = base.chaos_active() || retry_budget != 0;
        let (report, trace, chaos_total) = if chaotic {
            let (report, trace, total) = crate::serve::run_serve_chaos(&mix, &cfg, &base)?;
            (report, tracing.then_some(trace), Some(total))
        } else if tracing {
            let (report, trace) = crate::serve::run_serve_traced(&mix, &cfg, &base)?;
            (report, Some(trace), None)
        } else {
            (crate::serve::run_serve(&mix, &cfg, &base)?, None, None)
        };
        if let Some(trace) = &trace {
            if let Some(path) = trace_out {
                std::fs::write(path, crate::observe::trace_jsonl(trace))
                    .map_err(|e| format!("cannot write trace stream to {path}: {e}"))?;
            }
            if let Some(path) = perfetto_out {
                std::fs::write(path, crate::observe::serve_perfetto(trace))
                    .map_err(|e| format!("cannot write Perfetto trace to {path}: {e}"))?;
            }
        }
        if let Some(path) = f.value("--metrics-out") {
            let mut registry = telemetry::Registry::new();
            crate::serve::record_serve_metrics(&report, &mut registry);
            if let Some(trace) = &trace {
                crate::serve::record_trace_metrics(trace, &mut registry);
            }
            if let Some(total) = &chaos_total {
                crate::serve::record_chaos_metrics(total, &mut registry);
            }
            std::fs::write(path, registry.to_jsonl())
                .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        }
        if f.has("--json") {
            return Ok(serve_report_json(&report, chaos_total.as_ref()));
        }
        Ok(render_serve_report(&report, chaos_total.as_ref()))
    }))
}

/// Render a serve report as the CLI's text summary. The chaos block only
/// exists when the run injected channel faults or armed the closed loop,
/// so fault-free output is byte-identical to pre-chaos builds.
fn render_serve_report(
    report: &tenancy::ServeReport,
    chaos: Option<&memsys::ChannelFaultStats>,
) -> String {
    let (submitted, completed, failed, shed, rejected, misses, words) = report.totals();
    let mut out = format!(
        "serve: {} tenants, {} cycles, {} dispatches ({} policy)\n\
         requests: {submitted} submitted, {completed} completed, {failed} failed, \
         {shed} shed, {rejected} rejected, {misses} deadline misses\n\
         moved {words} useful words; fairness {} milli; peak degradation {}\n",
        report.tenants.len(),
        report.cycles,
        report.dispatches,
        report.policy,
        report.fairness_milli(),
        report.peak_level.label(),
    );
    if report.budget_violations > 0 {
        out.push_str(&format!(
            "BUDGET VIOLATIONS: {} dispatches granted while over budget\n",
            report.budget_violations
        ));
    }
    if let Some(total) = chaos {
        let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
        let exhausted: u64 = report.tenants.iter().map(|t| t.retry_exhausted).sum();
        out.push_str(&format!(
            "chaos: {} degraded commands, {} deferred ({} cycles); \
             penalties {} brownout + {} devfail cycles\n\
             recovery: {} outages observed, MTTR {} cycles\n\
             retries: {retries} scheduled, {exhausted} exhausted\n",
            total.degraded_commands,
            total.deferred_commands,
            total.deferred_cycles,
            total.brownout_penalty_cycles,
            total.devfail_penalty_cycles,
            total.outages_observed,
            total.mttr_cycles,
        ));
    }
    for s in &report.starvation {
        out.push_str(&format!(
            "starvation: tenant {} ({}) waited {} cycles at cycle {} \
             (queue {}, level {})\n",
            s.name,
            s.class.label(),
            s.waited,
            s.now,
            s.queue_len,
            s.level.label(),
        ));
    }
    out.push_str(
        "tenant  class  submitted  completed  failed  shed  rejected  misses  \
         words  max-wait\n",
    );
    for t in &report.tenants {
        out.push_str(&format!(
            "{}  {}  {}  {}  {}  {}  {}  {}  {}  {}\n",
            t.name,
            t.class,
            t.submitted,
            t.completed,
            t.failed,
            t.shed,
            t.rejected,
            t.deadline_misses,
            t.useful_words,
            t.max_wait,
        ));
    }
    out
}

/// Hand-rolled JSON for a serve report (stable field order). The `chaos`
/// object only appears when channel faults or the closed loop were armed,
/// keeping fault-free output byte-identical to pre-chaos builds.
fn serve_report_json(
    report: &tenancy::ServeReport,
    chaos: Option<&memsys::ChannelFaultStats>,
) -> String {
    let tenants: Vec<String> = report
        .tenants
        .iter()
        .map(|t| {
            format!(
                "  {{\"name\":\"{}\",\"class\":\"{}\",\"submitted\":{},\"completed\":{},\
                 \"failed\":{},\"shed\":{},\"rejected\":{},\"deadline_misses\":{},\
                 \"useful_words\":{},\"service_cycles\":{},\"max_wait\":{}}}",
                t.name,
                t.class,
                t.submitted,
                t.completed,
                t.failed,
                t.shed,
                t.rejected,
                t.deadline_misses,
                t.useful_words,
                t.service_cycles,
                t.max_wait,
            )
        })
        .collect();
    let chaos_section = chaos.map_or_else(String::new, |total| {
        let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
        let exhausted: u64 = report.tenants.iter().map(|t| t.retry_exhausted).sum();
        format!(
            "\"chaos\":{{\"degraded_commands\":{},\"deferred_commands\":{},\
             \"deferred_cycles\":{},\"brownout_penalty_cycles\":{},\
             \"devfail_penalty_cycles\":{},\"outages_observed\":{},\
             \"mttr_cycles\":{},\"retries\":{retries},\
             \"retry_exhausted\":{exhausted}}},",
            total.degraded_commands,
            total.deferred_commands,
            total.deferred_cycles,
            total.brownout_penalty_cycles,
            total.devfail_penalty_cycles,
            total.outages_observed,
            total.mttr_cycles,
        )
    });
    format!(
        "{{\"kind\":\"serve-report\",\"cycles\":{},\"dispatches\":{},\"policy\":\"{}\",\
         \"fairness_milli\":{},\"peak_level\":\"{}\",\"budget_violations\":{},\
         \"starvation_reports\":{},{}\"tenants\":[\n{}\n]}}\n",
        report.cycles,
        report.dispatches,
        report.policy,
        report.fairness_milli(),
        report.peak_level.label(),
        report.budget_violations,
        report.starvation.len(),
        chaos_section,
        tenants.join(",\n"),
    )
}

/// `smcsim campaign ...`: run, list, or diff declarative parameter-sweep
/// campaigns (see [`campaign`] and [`crate::sweep`]).
///
/// # Errors
///
/// A human-readable message for an unknown subcommand, a malformed spec or
/// store, an unwritable output file — or the rendered diff report when the
/// gate finds a regression.
pub fn run_campaign_cmd(args: &[String]) -> Result<String, String> {
    campaign_cmd(args)?()
}

fn campaign_cmd(args: &[String]) -> Result<Action<'_>, String> {
    match args.first().map(String::as_str) {
        Some("run") => campaign_run(&args[1..]),
        Some("list") => campaign_list(&args[1..]),
        Some("diff") => campaign_diff(&args[1..]),
        Some(other) => Err(format!("campaign: unknown subcommand {other:?}\n{USAGE}")),
        None => Err(format!("campaign needs run, list, or diff\n{USAGE}")),
    }
}

fn load_spec(path: &str) -> Result<campaign::CampaignSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    campaign::CampaignSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn campaign_run(args: &[String]) -> Result<Action<'_>, String> {
    let f = Flags::parse(
        "campaign run",
        USAGE,
        &[
            ("--workers", true),
            ("--out", true),
            ("--bench-out", true),
            ("--bench-baseline", true),
            ("--bench-floor-permille", true),
            ("--quiet", false),
        ],
        true,
        args,
    )?;
    let &[spec_path] = f.positionals.as_slice() else {
        return Err(format!("campaign run needs a spec file\n{USAGE}"));
    };
    let workers = f
        .get("--workers", str::parse)?
        .unwrap_or_else(default_workers);
    if workers == 0 {
        return Err("--workers must be positive".into());
    }
    let bench_floor_permille = f.get("--bench-floor-permille", str::parse)?.unwrap_or(50);
    if f.has("--bench-baseline") && !f.has("--bench-out") {
        return Err("--bench-baseline needs --bench-out (a fresh benchmark to compare)".into());
    }
    Ok(Box::new(move || {
        let spec = load_spec(spec_path)?;
        let points = campaign::expand(&spec);
        let progress = |done: usize, total: usize| {
            eprintln!("campaign {}: {done}/{total} runs complete", spec.name);
        };
        let store = campaign::run_points(
            &spec.name,
            &points,
            workers,
            &crate::sweep::run_point,
            if f.has("--quiet") {
                None
            } else {
                Some(&progress)
            },
        );
        let out_path = f
            .value("--out")
            .map_or_else(|| format!("{}.results.jsonl", spec.name), String::from);
        std::fs::write(&out_path, store.to_jsonl())
            .map_err(|e| format!("cannot write results to {out_path}: {e}"))?;
        let mut out = format!(
            "campaign {}: {} runs ({} ok, {} failed) on {} workers\nresults written to {}\n",
            spec.name,
            store.records.len(),
            store.completed(),
            store.errored(),
            workers,
            out_path
        );
        for record in &store.records {
            if let campaign::Outcome::Error(e) = &record.outcome {
                out.push_str(&format!(
                    "  failed {} ({}): {e}\n",
                    record.run_id,
                    record.point.key()
                ));
            }
        }
        if let Some(bench_path) = f.value("--bench-out") {
            // Measure runs/second at a 1 .. N/2 .. N worker ladder so the
            // executor speedup is a recorded artifact.
            let mut ladder = vec![1usize];
            for w in [workers.div_ceil(2), workers] {
                if !ladder.contains(&w) {
                    ladder.push(w);
                }
            }
            let report = campaign::bench_campaign(&spec, &ladder, &crate::sweep::run_point);
            std::fs::write(bench_path, report.to_json())
                .map_err(|e| format!("cannot write bench profile to {bench_path}: {e}"))?;
            for sample in &report.samples {
                out.push_str(&format!(
                    "bench: {} workers -> {} runs/s\n",
                    sample.workers,
                    campaign::milli_percent(sample.runs_per_sec_milli)
                ));
            }
            out.push_str(&format!("bench profile written to {bench_path}\n"));
            if let Some(baseline_path) = f.value("--bench-baseline") {
                let text = std::fs::read_to_string(baseline_path)
                    .map_err(|e| format!("cannot read bench baseline {baseline_path}: {e}"))?;
                let verdict =
                    campaign::bench::compare_to_baseline(&text, &report, bench_floor_permille)
                        .map_err(|e| format!("{baseline_path}: {e}"))?;
                out.push_str(&verdict);
                out.push('\n');
            }
        }
        Ok(out)
    }))
}

fn campaign_list(args: &[String]) -> Result<Action<'_>, String> {
    let f = Flags::parse("campaign list", USAGE, &[], true, args)?;
    let &[spec_path] = f.positionals.as_slice() else {
        return Err(format!(
            "campaign list needs exactly one spec file\n{USAGE}"
        ));
    };
    Ok(Box::new(move || {
        let spec = load_spec(spec_path)?;
        let points = campaign::expand(&spec);
        let mut out = format!("campaign {}: {} runs\n", spec.name, points.len());
        for point in &points {
            out.push_str(&format!("{}  {}\n", point.run_id(), point.key()));
        }
        Ok(out)
    }))
}

fn load_store(path: &str) -> Result<campaign::ResultsStore, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read store {path}: {e}"))?;
    campaign::ResultsStore::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn campaign_diff(args: &[String]) -> Result<Action<'_>, String> {
    let f = Flags::parse(
        "campaign diff",
        USAGE,
        &[("--cycles-tol-permille", true), ("--peak-tol-milli", true)],
        true,
        args,
    )?;
    let &[golden_path, current_path] = f.positionals.as_slice() else {
        return Err(format!(
            "campaign diff needs GOLDEN.jsonl and CURRENT.jsonl\n{USAGE}"
        ));
    };
    let mut tol = campaign::Tolerance::default();
    tol.cycles_permille = f
        .get("--cycles-tol-permille", str::parse)?
        .unwrap_or(tol.cycles_permille);
    tol.peak_milli = f
        .get("--peak-tol-milli", str::parse)?
        .unwrap_or(tol.peak_milli);
    Ok(Box::new(move || {
        let golden = load_store(golden_path)?;
        let current = load_store(current_path)?;
        let report = campaign::diff_stores(&golden, &current, tol);
        let rendered = report.render();
        if report.is_clean() {
            Ok(rendered)
        } else {
            Err(rendered)
        }
    }))
}

fn summarize(r: &RunResult) -> String {
    let s = r.summary();
    let mut out = format!(
        "{} x {} elements (stride {}): {} cycles, {:.1}% of peak ({:.2} GB/s effective)\n",
        r.kernel, r.n, r.stride, r.cycles, s.percent_peak, s.effective_gbps,
    );
    if r.stride > 1 {
        out.push_str(&format!(
            "  {:.1}% of attainable (50% cap for non-unit strides)\n",
            s.percent_attainable
        ));
    }
    let d = &r.device_stats;
    out.push_str(&format!(
        "  device: {} activates, {} reads, {} writes, {} turnarounds, page-hit rate {}\n",
        d.activates,
        d.read_packets,
        d.write_packets,
        d.turnarounds,
        s.page_hit_rate
            .map_or("n/a".into(), |h| format!("{:.1}%", 100.0 * h)),
    ));
    if let Some(m) = &r.msu_stats {
        out.push_str(&format!(
            "  msu: {} fifo switches, {} idle cycles, {} speculative row commands\n",
            m.fifo_switches, m.idle_cycles, m.speculative_activates
        ));
        if m.data_nacks > 0 || m.injected_stall_cycles > 0 || m.degraded_banks > 0 {
            out.push_str(&format!(
                "  recovery: {} data NACKs retried, {} injected stall cycles absorbed, \
                 {} banks degraded to closed-page\n",
                m.data_nacks, m.injected_stall_cycles, m.degraded_banks
            ));
        }
    }
    if let Some(b) = &r.baseline {
        if b.data_nacks > 0 {
            out.push_str(&format!(
                "  recovery: {} data NACKs retried\n",
                b.data_nacks
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn topology_flags_parse() {
        let job = parse(&args(
            "--channels 2 --placement numa:1 --remote-penalty 0,40",
        ))
        .unwrap();
        assert_eq!(job.config.channels, 2);
        assert_eq!(job.config.placement, memsys::Placement::Numa { home: 1 });
        assert_eq!(job.config.remote_penalty, vec![0, 40]);
        let job = parse(&args("--channels 4 --placement interleaved:1024")).unwrap();
        assert_eq!(
            job.config.placement,
            memsys::Placement::ChannelInterleaved { block_bytes: 1024 }
        );
        assert!(parse(&args("--placement warp")).is_err());
        assert!(parse(&args("--remote-penalty 0,x")).is_err());
    }

    #[test]
    fn defaults_parse() {
        let job = parse(&[]).unwrap();
        assert_eq!(job.kernel, Kernel::Daxpy);
        assert_eq!(job.n, 1024);
        assert_eq!(job.config.ordering, AccessOrder::Smc { fifo_depth: 64 });
    }

    #[test]
    fn full_flag_set_parses() {
        let job = parse(&args(
            "--kernel vaxpy --n 256 --stride 4 --memory pi --order smc --fifo 32 \
             --policy bank-aware --devices 2 --cpu-cycles 1 --aligned --spec \
             --refresh --write-allocate --json",
        ))
        .unwrap();
        assert_eq!(job.kernel, Kernel::Vaxpy);
        assert_eq!(job.n, 256);
        assert_eq!(job.stride, 4);
        assert_eq!(job.config.memory, MemorySystem::PageInterleaved);
        assert_eq!(job.config.ordering, AccessOrder::Smc { fifo_depth: 32 });
        assert_eq!(job.config.policy, smc::Policy::BankAware);
        assert_eq!(job.config.device.devices, 2);
        assert_eq!(job.config.cpu_access_cycles, 1);
        assert_eq!(job.config.alignment, Alignment::Aligned);
        assert!(job.config.speculative && job.config.refresh && job.json);
        assert!(job.config.write_allocate);
    }

    #[test]
    fn natural_order_parses() {
        let job = parse(&args("--order natural --memory cli")).unwrap();
        assert_eq!(job.config.ordering, AccessOrder::NaturalOrder);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&args("--kernel bogus"))
            .unwrap_err()
            .contains("unknown kernel"));
        assert!(parse(&args("--frobnicate"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse(&args("--n")).unwrap_err().contains("needs a value"));
        assert!(parse(&args("--n 0")).unwrap_err().contains("positive"));
        assert!(parse(&args("--memory tape"))
            .unwrap_err()
            .contains("cli or pi"));
        assert!(parse(&args("--order chaos"))
            .unwrap_err()
            .contains("smc or natural"));
    }

    #[test]
    fn execute_produces_a_summary_and_json() {
        let mut job = parse(&args("--kernel copy --n 64 --fifo 16")).unwrap();
        let text = execute(&job).unwrap();
        assert!(text.contains("% of peak"), "{text}");
        assert!(text.contains("fifo switches"));
        job.json = true;
        let json = execute(&job).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kernel"], "Copy");
        assert_eq!(v["n"], 64);
    }

    #[test]
    fn record_trace_round_trips_through_check() {
        let dir = std::env::temp_dir().join("smcsim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("copy.trace.json");
        let path = path.to_str().unwrap().to_string();
        let mut job = parse(&args("--kernel copy --n 64 --fifo 16")).unwrap();
        job.config.record_commands = true;
        job.record_trace = Some(path.clone());
        execute(&job).unwrap();

        let report = run_check(&path).expect("recorded trace is conformant");
        assert!(report.contains("OK"), "{report}");

        // Corrupt the trace: pull one command 8 cycles earlier and verify
        // the checker rejects it through the same entry point.
        let text = std::fs::read_to_string(&path).unwrap();
        let trace: TraceFile = text.parse().unwrap();
        let mut bad = trace.clone();
        let mid = bad.commands.len() / 2;
        bad.commands[mid].cycle = bad.commands[mid].cycle.saturating_sub(8);
        std::fs::write(&path, bad.to_json()).unwrap();
        let err = run_check(&path).expect_err("mutated trace must fail");
        assert!(err.contains("violation"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_reports_unreadable_and_malformed_traces() {
        assert!(run_check("/nonexistent/trace.json")
            .unwrap_err()
            .contains("cannot read"));
        let dir = std::env::temp_dir().join("smcsim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = run_check(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("parse error"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_flags_write_metrics_and_perfetto_files() {
        let dir = std::env::temp_dir().join("smcsim-cli-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.jsonl").to_str().unwrap().to_string();
        let perfetto = dir.join("t.json").to_str().unwrap().to_string();
        let job = parse(&args(&format!(
            "--kernel copy --n 64 --fifo 16 --metrics-out {metrics} --perfetto-out {perfetto}"
        )))
        .unwrap();
        assert!(job.config.telemetry, "flags imply telemetry collection");
        execute(&job).unwrap();

        let report = run_report(&args(&format!("--metrics {metrics} --perfetto {perfetto}")))
            .expect("both artifacts validate");
        assert!(report.contains("run.cycles"), "{report}");
        assert!(report.contains("OK ("), "{report}");

        // A failing run still writes the failure registry.
        let mut job = parse(&args(&format!(
            "--kernel copy --n 32 --faults busy:*:1:1 --metrics-out {metrics}"
        )))
        .unwrap();
        job.config.check_conformance = false;
        execute(&job).unwrap_err();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            text.contains(
                "\"metric\":\"livelock.watchdog_trips\",\"kind\":\"counter\",\
                 \"unit\":\"events\",\"value\":1"
            ),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_rejects_bad_inputs() {
        assert!(run_report(&[]).unwrap_err().contains("--metrics"));
        assert!(run_report(&args("--metrics /nonexistent/m.jsonl"))
            .unwrap_err()
            .contains("cannot read"));
        assert!(run_report(&args("--bogus"))
            .unwrap_err()
            .contains("unknown option"));
        let dir = std::env::temp_dir().join("smcsim-cli-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"traceEvents\":7}").unwrap();
        let err = run_report(&args(&format!("--perfetto {}", bad.to_str().unwrap())))
            .expect_err("invalid trace must fail");
        assert!(err.contains("traceEvents"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_profiles_the_paper_suite() {
        let dir = std::env::temp_dir().join("smcsim-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json").to_str().unwrap().to_string();
        let text = run_bench(&args(&format!("--n 64 --out {out}"))).unwrap();
        assert!(text.contains("sim-cycles/s"), "{text}");
        let json = std::fs::read_to_string(&out).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let benches = v["benchmarks"].as_array().unwrap();
        assert_eq!(benches.len(), 2 * Kernel::PAPER_SUITE.len());
        for b in benches {
            assert!(b["simulated_cycles_per_sec"].as_u64().unwrap() > 0);
        }
        assert!(run_bench(&args("--n 0")).unwrap_err().contains("positive"));
        assert!(run_bench(&args("--what")).unwrap_err().contains("unknown"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_run_list_and_diff_round_trip() {
        let dir = std::env::temp_dir().join("smcsim-cli-campaign-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json").to_str().unwrap().to_string();
        std::fs::write(
            &spec_path,
            "{\"schema\": 1, \"name\": \"cli-test\", \
             \"axes\": {\"kernel\": [\"copy\", \"daxpy\"], \"fifo\": [16], \"n\": [64]}}",
        )
        .unwrap();

        let listing = run_campaign_cmd(&args(&format!("list {spec_path}"))).unwrap();
        assert!(listing.contains("2 runs"), "{listing}");
        assert!(listing.contains("copy|smc:16|cli"), "{listing}");

        let golden = dir.join("golden.jsonl").to_str().unwrap().to_string();
        let out = run_campaign_cmd(&args(&format!(
            "run {spec_path} --workers 2 --out {golden} --quiet"
        )))
        .unwrap();
        assert!(out.contains("2 runs (2 ok, 0 failed)"), "{out}");

        // A re-run at a different worker count produces the identical store
        // and the diff gate reports it clean.
        let current = dir.join("current.jsonl").to_str().unwrap().to_string();
        run_campaign_cmd(&args(&format!(
            "run {spec_path} --workers 1 --out {current} --quiet"
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(&golden).unwrap(),
            std::fs::read(&current).unwrap(),
            "stores are byte-identical across worker counts"
        );
        let verdict = run_campaign_cmd(&args(&format!("diff {golden} {current}"))).unwrap();
        assert!(verdict.contains("CLEAN"), "{verdict}");

        // Corrupt one cycle count: the gate must fail with a rendered report.
        let text = std::fs::read_to_string(&current).unwrap();
        let mut store = campaign::ResultsStore::from_jsonl(&text).unwrap();
        if let campaign::Outcome::Ok(stats) = &mut store.records[0].outcome {
            stats.cycles += 1;
        }
        std::fs::write(&current, store.to_jsonl()).unwrap();
        let err = run_campaign_cmd(&args(&format!("diff {golden} {current}")))
            .expect_err("drifted store must fail the gate");
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(err.contains("cycles"), "{err}");
        // ...and a loose-enough tolerance lets it pass.
        let ok = run_campaign_cmd(&args(&format!(
            "diff {golden} {current} --cycles-tol-permille 1000"
        )))
        .unwrap();
        assert!(ok.contains("CLEAN"), "{ok}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_bench_writes_the_profile() {
        let dir = std::env::temp_dir().join("smcsim-cli-campaign-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json").to_str().unwrap().to_string();
        std::fs::write(
            &spec_path,
            "{\"schema\": 1, \"name\": \"bench-test\", \"axes\": {\"n\": [32, 64]}}",
        )
        .unwrap();
        let out = dir.join("r.jsonl").to_str().unwrap().to_string();
        let bench = dir
            .join("BENCH_campaign.json")
            .to_str()
            .unwrap()
            .to_string();
        let text = run_campaign_cmd(&args(&format!(
            "run {spec_path} --workers 4 --out {out} --bench-out {bench} --quiet"
        )))
        .unwrap();
        assert!(text.contains("bench profile written"), "{text}");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&bench).unwrap()).unwrap();
        assert_eq!(v["kind"], "campaign-bench");
        let samples = v["samples"].as_array().unwrap();
        // Ladder at 4 workers: 1, 2, 4.
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0]["workers"], 1u64);
        assert_eq!(samples[2]["workers"], 4u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_rejects_bad_invocations() {
        assert!(run_campaign_cmd(&[])
            .unwrap_err()
            .contains("run, list, or diff"));
        assert!(run_campaign_cmd(&args("explode"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(run_campaign_cmd(&args("run"))
            .unwrap_err()
            .contains("needs a spec file"));
        assert!(run_campaign_cmd(&args("run /nonexistent/spec.json"))
            .unwrap_err()
            .contains("cannot read spec"));
        assert!(run_campaign_cmd(&args("diff only-one.jsonl"))
            .unwrap_err()
            .contains("GOLDEN.jsonl and CURRENT.jsonl"));
        assert!(run_campaign_cmd(&args("run spec.json --workers 0"))
            .unwrap_err()
            .contains("positive"));
        let dir = std::env::temp_dir().join("smcsim-cli-campaign-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json").to_str().unwrap().to_string();
        std::fs::write(&bad, "{\"schema\": 1, \"axes\": {\"warp\": [1]}}").unwrap();
        let err = run_campaign_cmd(&args(&format!("list {bad}"))).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_runs_a_mix_and_renders_both_formats() {
        let text = run_serve_cmd(&args("--tenants ls:1:daxpy:64+bh:2:copy:64 --fifo 16")).unwrap();
        assert!(text.contains("serve: 3 tenants"), "{text}");
        assert!(text.contains("ls0"), "{text}");
        assert!(text.contains("bh1"), "{text}");
        assert!(text.contains("fairness"), "{text}");

        let json = run_serve_cmd(&args(
            "--tenants bh:2:copy:64 --fifo 16 --arb regulated --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kind"], "serve-report");
        assert_eq!(v["policy"], "regulated");
        assert_eq!(v["budget_violations"].as_u64(), Some(0));
        assert_eq!(v["tenants"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn serve_writes_metrics_and_rejects_bad_flags() {
        let dir = std::env::temp_dir().join("smcsim-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("serve.jsonl").to_str().unwrap().to_string();
        run_serve_cmd(&args(&format!(
            "--tenants bh:1:copy:64 --fifo 16 --metrics-out {metrics}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("serve.submitted"), "{text}");
        assert!(text.contains("serve.fairness_milli"), "{text}");
        std::fs::remove_dir_all(&dir).ok();

        assert!(run_serve_cmd(&[]).unwrap_err().contains("--tenants"));
        assert!(run_serve_cmd(&args("--tenants xx:1:copy:64"))
            .unwrap_err()
            .contains("unknown tenant class"));
        assert!(run_serve_cmd(&args("--tenants ls:1:warp:64"))
            .unwrap_err()
            .contains("warp"));
        assert!(run_serve_cmd(&args("--tenants ls:1:copy:64 --arb lifo"))
            .unwrap_err()
            .contains("lifo"));
        assert!(run_serve_cmd(&args("--tenants ls:1:copy:64 --frob"))
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn serve_accepts_a_multi_channel_topology() {
        let json = run_serve_cmd(&args(
            "--tenants ls:1:daxpy:64+bh:2:copy:128 --fifo 16 --arb regulated \
             --budget-permille 500 --channels 2 --placement interleaved:1024 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kind"], "serve-report");
        assert_eq!(v["budget_violations"].as_u64(), Some(0));
        let completed: u64 = v["tenants"]
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t["completed"].as_u64().unwrap())
            .sum();
        assert!(completed > 0, "{json}");

        assert!(
            run_serve_cmd(&args("--tenants ls:1:copy:64 --placement warp"))
                .unwrap_err()
                .contains("--placement")
        );
        assert!(
            run_serve_cmd(&args("--tenants ls:1:copy:64 --remote-penalty 0,x"))
                .unwrap_err()
                .contains("--remote-penalty")
        );
    }

    #[test]
    fn serve_with_faults_stays_deterministic() {
        let cmd = "--tenants ls:1:daxpy:64+bh:1:copy:64 --fifo 16 \
                   --faults nack:50:6 --fault-seed 5 --json";
        let a = run_serve_cmd(&args(cmd)).unwrap();
        let b = run_serve_cmd(&args(cmd)).unwrap();
        assert_eq!(a, b, "serve runs are bit-reproducible");
    }

    #[test]
    fn serve_chaos_reports_degradation_and_stays_inert_when_absent() {
        // No chaos flags: not a byte of chaos output anywhere.
        let plain = run_serve_cmd(&args(
            "--tenants ls:1:daxpy:64+bh:1:copy:64 --fifo 16 --json",
        ))
        .unwrap();
        assert!(!plain.contains("chaos"), "{plain}");
        // A channel brownout shows up in the JSON chaos block and in the
        // fault/recovery metrics, deterministically.
        let cmd = "--tenants ls:1:daxpy:64+bh:1:copy:64 --fifo 16 --channels 2 \
                   --chaos brownout:0:0:4000:4;outage:1:500:900 --chaos-seed 3 --json";
        let chaotic = run_serve_cmd(&args(cmd)).unwrap();
        let v: serde_json::Value = serde_json::from_str(&chaotic).unwrap();
        assert!(
            v["chaos"]["degraded_commands"].as_u64().unwrap() > 0,
            "{chaotic}"
        );
        assert_eq!(
            v["chaos"]["mttr_cycles"].as_u64().unwrap(),
            v["chaos"]["outages_observed"].as_u64().unwrap() * 900,
            "{chaotic}"
        );
        assert_eq!(run_serve_cmd(&args(cmd)).unwrap(), chaotic);
        // The chaos metrics land in the registry dump.
        let dir = std::env::temp_dir().join("smcsim-cli-serve-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("chaos.jsonl").to_str().unwrap().to_string();
        run_serve_cmd(&args(&format!("{cmd} --metrics-out {metrics}"))).unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("fault.degraded_requests"), "{text}");
        assert!(text.contains("recovery.mttr_cycles"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
        // Bad plans and the text renderer's chaos block both work.
        assert!(
            run_serve_cmd(&args("--tenants ls:1:copy:64 --chaos gremlins:9"))
                .unwrap_err()
                .contains("--chaos")
        );
        let text = run_serve_cmd(&args(
            "--tenants bh:1:copy:64 --fifo 16 --channels 2 --chaos outage:0:100:300",
        ))
        .unwrap();
        assert!(text.contains("recovery:"), "{text}");
    }

    #[test]
    fn bench_baseline_gate_works_end_to_end() {
        let dir = std::env::temp_dir().join("smcsim-cli-bench-gate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json").to_str().unwrap().to_string();
        run_bench(&args(&format!("--n 64 --out {out}"))).unwrap();
        // Re-profile against the just-written baseline at a 1-permille
        // floor: the same machine cannot be 1000x slower.
        let out2 = dir.join("bench2.json").to_str().unwrap().to_string();
        let text = run_bench(&args(&format!(
            "--n 64 --out {out2} --baseline {out} --floor-permille 1"
        )))
        .unwrap();
        assert!(text.contains("bench gate: CLEAN"), "{text}");
        // An impossible floor fails the gate.
        let err = run_bench(&args(&format!(
            "--n 64 --out {out2} --baseline {out} --floor-permille 1000000000"
        )))
        .unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_flags_parse_and_reject_bad_specs() {
        let job = parse(&args("--faults busy:0:128:16;nack:50:4 --fault-seed 9")).unwrap();
        let plan = job.config.faults.expect("plan parsed");
        assert_eq!(plan.clauses.len(), 2);
        assert_eq!(job.config.fault_seed, 9);
        assert!(parse(&args("--faults bogus:1:2"))
            .unwrap_err()
            .contains("bad fault clause"));
    }

    #[test]
    fn faulted_runs_report_recovery_counters() {
        let job = parse(&args(
            "--kernel copy --n 128 --fifo 16 --faults nack:200:10 --fault-seed 3",
        ))
        .unwrap();
        let text = execute(&job).unwrap();
        assert!(text.contains("recovery:"), "{text}");
        assert!(text.contains("data NACKs retried"), "{text}");
    }

    #[test]
    fn hopeless_faults_surface_as_errors_not_panics() {
        let job = parse(&args("--kernel copy --n 32 --faults busy:*:1:1")).unwrap();
        let err = execute(&job).unwrap_err();
        assert!(
            err.contains("livelock") || err.contains("no forward progress"),
            "{err}"
        );
        assert!(err.contains("busy:*:1:1"), "error names the plan: {err}");
    }

    #[test]
    fn a_flag_never_takes_the_next_flag_as_its_value() {
        let err = parse(&args("--n 64 --record-trace --json")).unwrap_err();
        assert!(err.contains("--record-trace needs a value"), "{err}");
        type Run = fn(&[String]) -> Result<String, String>;
        let cases: [(Run, &str, &str); 5] = [
            (
                run_serve_cmd,
                "--tenants ls:1:daxpy:64 --metrics-out --json",
                "--metrics-out",
            ),
            (run_report, "--metrics --prom m.prom", "--metrics"),
            (run_bench, "--out --n 64", "--out"),
            (run_campaign_cmd, "run spec.json --out --quiet", "--out"),
            (
                run_campaign_cmd,
                "diff a.jsonl b.jsonl --cycles-tol-permille --peak-tol-milli 1",
                "--cycles-tol-permille",
            ),
        ];
        for (run, line, flag) in cases {
            let err = run(&args(line)).unwrap_err();
            assert!(
                err.contains(&format!("{flag} needs a value")),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn shallow_fifos_and_zero_cycle_cpus_are_configuration_errors() {
        for line in ["--fifo 0", "--fifo 1", "--cpu-cycles 0"] {
            let job = parse(&args(&format!("--kernel copy --n 64 {line}"))).unwrap();
            let err = execute(&job).unwrap_err();
            assert!(err.contains("invalid configuration"), "{line}: {err}");
        }
        // serve absorbs each request's failure instead of aborting.
        let text = run_serve_cmd(&args("--tenants ls:1:daxpy:64 --fifo 1")).unwrap();
        assert!(text.contains(", 0 completed,"), "{text}");

        let dir = std::env::temp_dir().join("smcsim-cli-shallow-fifo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json").to_str().unwrap().to_string();
        std::fs::write(
            &spec_path,
            "{\"schema\": 1, \"name\": \"shallow\", \
             \"axes\": {\"kernel\": [\"copy\"], \"fifo\": [1, 64], \"n\": [64]}}",
        )
        .unwrap();
        let store = dir.join("r.jsonl").to_str().unwrap().to_string();
        let out = run_campaign_cmd(&args(&format!(
            "run {spec_path} --workers 1 --out {store} --quiet"
        )))
        .unwrap();
        assert!(out.contains("2 runs (1 ok, 1 failed)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
