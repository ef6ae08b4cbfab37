//! The four workloads. Each is one fixed op, built once during set-up and
//! then run unchanged for the whole measurement, so every timed sample is
//! of identical work and medians and tails compare like with like.

use kernels::Kernel;
use memsys::{ChannelFaultStats, Placement};
use rdram::DeviceStats;
use sim::{MemorySystem, RunResult, SystemConfig};
use smc::MsuStats;
use tenancy::{RetryPolicy, ServeConfig, ServeReport, TenantMix};

/// The stream workloads' kernel.
pub const STREAM_KERNEL: Kernel = Kernel::Daxpy;
/// Elements per stream in the stream workloads.
pub const STREAM_N: u64 = 8192;
/// Stride of the stream workloads, in words.
pub const STREAM_STRIDE: u64 = 1;
/// SMC FIFO depth, in elements.
pub const FIFO_DEPTH: usize = 64;
/// Channels of the multi-channel workloads.
pub const CHANNELS: usize = 2;
/// Cross-channel placement of the multi-channel workloads.
pub const PLACEMENT: &str = "interleaved:1024";
/// The `serve-chaos` tenant mix: two latency-sensitive and four
/// bandwidth-hungry clients.
pub const MIX: &str = "ls:2:daxpy:256+bh:4:copy:512";
/// Arbitration policy of `serve-chaos`.
pub const ARBITRATION: &str = "regulated";
/// Bandwidth-hungry budget of `serve-chaos`, per 1000 of the default.
pub const BUDGET_PERMILLE: u64 = 500;
/// Channel 1's outage in `serve-chaos`: first cycle and length.
pub const OUTAGE: (u64, u64) = (2000, 900);
/// Retries granted to each rejected `serve-chaos` request.
pub const RETRY_BUDGET: u32 = 2;

/// The `serve-chaos` fault plan: a 4x brownout of channel 0 over the whole
/// serve and one outage of channel 1.
pub fn chaos_plan() -> String {
    format!("brownout:0:0:40000:4;outage:1:{}:{}", OUTAGE.0, OUTAGE.1)
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Daxpy on the paper's SMC system, one channel.
    SmcStream,
    /// The same kernel in natural order, bypassing the SMC.
    NaturalStream,
    /// The SMC op on two channels with conformance checking, telemetry and
    /// command capture on.
    Audit,
    /// A closed-loop multi-tenant serve through a brownout and an outage.
    ServeChaos,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SmcStream,
        Workload::NaturalStream,
        Workload::Audit,
        Workload::ServeChaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmcStream => "smc-stream",
            Workload::NaturalStream => "natural-stream",
            Workload::Audit => "audit",
            Workload::ServeChaos => "serve-chaos",
        }
    }

    /// Look a workload up by its command-line name.
    ///
    /// # Errors
    ///
    /// Names the known workloads when `name` is not one of them.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (known: {})", known.join(", "))
            })
    }

    /// Build the workload's op at full size. The stream workloads use no
    /// seed; `serve-chaos` derives its chaos and retry seeds from `seed`.
    ///
    /// # Errors
    ///
    /// A malformed built-in mix, plan or placement.
    pub fn op(self, seed: u64) -> Result<Op, String> {
        self.op_sized(seed, STREAM_N)
    }

    /// [`Workload::op`] with `n` elements per stream for the stream
    /// workloads (the serve mix is fixed).
    ///
    /// # Errors
    ///
    /// A malformed built-in mix, plan or placement.
    pub fn op_sized(self, seed: u64, n: u64) -> Result<Op, String> {
        let cli = MemorySystem::CacheLineInterleaved;
        let placement = Placement::parse(PLACEMENT)?;
        let stream = |cfg: SystemConfig| Op::Stream {
            cfg: SystemConfig {
                check_conformance: false,
                ..cfg
            },
            n,
        };
        Ok(match self {
            Workload::SmcStream => stream(SystemConfig::smc(cli, FIFO_DEPTH)),
            Workload::NaturalStream => stream(SystemConfig::natural_order(cli)),
            Workload::Audit => Op::Stream {
                cfg: SystemConfig {
                    check_conformance: true,
                    record_commands: true,
                    telemetry: true,
                    ..SystemConfig::smc(cli, FIFO_DEPTH)
                        .with_channels(CHANNELS)
                        .with_placement(placement)
                },
                n,
            },
            Workload::ServeChaos => {
                let mix = TenantMix::parse(MIX).map_err(|e| e.to_string())?;
                sim::serve::validate_mix(&mix)?;
                let plan = faults::FaultPlan::parse(&chaos_plan()).map_err(|e| e.to_string())?;
                let base = SystemConfig::smc(cli, FIFO_DEPTH)
                    .with_channels(CHANNELS)
                    .with_placement(placement)
                    .with_chaos(plan, derive_seed(seed, 1));
                let banks = base.device.total_banks() * base.channels;
                let mut cfg =
                    sim::serve::serve_config_for(banks, BUDGET_PERMILLE, base.device.timing.t_pack);
                cfg.policy = ARBITRATION.to_string();
                cfg.retry = RetryPolicy::with_budget(RETRY_BUDGET, derive_seed(seed, 2));
                Op::Serve { mix, cfg, base }
            }
        })
    }
}

/// A seed for one consumer, derived from the benchmark seed by SplitMix64
/// so neighbouring benchmark seeds give unrelated streams.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A workload's op: everything one run needs, parsed and built up front.
// Built once per set-up, so the unequal variant sizes cost nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Op {
    /// One `run_kernel` of [`STREAM_KERNEL`] at `n` elements.
    Stream {
        /// The system the kernel runs on.
        cfg: SystemConfig,
        /// Elements per stream.
        n: u64,
    },
    /// One `run_serve_chaos`.
    Serve {
        /// The tenant mix.
        mix: TenantMix,
        /// Serving-layer configuration.
        cfg: ServeConfig,
        /// The system each request runs on, chaos plan included.
        base: SystemConfig,
    },
}

/// What one op returned, before its checks.
#[derive(Debug)]
pub enum Raw {
    /// A kernel run.
    Stream(Box<RunResult>),
    /// A serve: its report and fault accounting.
    Serve(Box<ServeReport>, ChannelFaultStats),
}

/// The simulated state every op of a workload must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum SimState {
    /// A kernel run's counters.
    Stream {
        /// Simulated cycles.
        cycles: u64,
        /// Device counters.
        device: DeviceStats,
        /// MSU counters (SMC runs).
        msu: Option<MsuStats>,
        /// Controller summary (natural-order runs).
        baseline: Option<baseline::BaselineResult>,
        /// Measured DATA-bus cycles per global bank.
        bank_data_cycles: Vec<u64>,
    },
    /// A serve's full report and summed fault accounting.
    Serve {
        /// The serve report.
        report: Box<ServeReport>,
        /// Degraded-mode accounting over every request.
        chaos: ChannelFaultStats,
    },
}

/// A checked op: the state to compare plus the numbers the metrics use.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// State that must equal the first op's.
    pub state: SimState,
    /// Simulated cycles the op executed: the run's cycles, or for a serve
    /// the device cycles summed over its requests.
    pub sim_cycles: u64,
    /// Effective bandwidth by Eq. 5.1; for a serve, useful words over the
    /// serve's cycles.
    pub percent_peak: f64,
    /// Requests the op completed (1 for a kernel run).
    pub served: u64,
    /// Requests the op was offered (1 for a kernel run).
    pub submitted: u64,
    /// Completed requests that missed their deadline plus requests shed,
    /// rejected or failed (0 for a kernel run).
    pub deadline_misses: u64,
}

impl Op {
    /// Run the op: the timed part of a sample.
    ///
    /// # Errors
    ///
    /// The simulator's error, rendered.
    pub fn run(&self) -> Result<Raw, String> {
        match self {
            Op::Stream { cfg, n } => sim::run_kernel(STREAM_KERNEL, *n, STREAM_STRIDE, cfg)
                .map(|r| Raw::Stream(Box::new(r)))
                .map_err(|e| e.to_string()),
            Op::Serve { mix, cfg, base } => sim::serve::run_serve_chaos(mix, cfg, base)
                .map(|(report, _trace, chaos)| Raw::Serve(Box::new(report), chaos)),
        }
    }

    /// Check a finished op's output and reduce it to an [`Outcome`].
    ///
    /// # Errors
    ///
    /// Names the first check the output failed.
    pub fn check(&self, raw: Raw) -> Result<Outcome, String> {
        match (self, raw) {
            (Op::Stream { cfg, .. }, Raw::Stream(r)) => check_stream(cfg, *r),
            (Op::Serve { base, .. }, Raw::Serve(report, chaos)) => {
                check_serve(*report, chaos, base.device.timing.t_pack)
            }
            _ => Err("op returned the wrong kind of result".to_string()),
        }
    }
}

fn check_stream(cfg: &SystemConfig, r: RunResult) -> Result<Outcome, String> {
    if cfg.check_conformance && r.commands.is_empty() {
        return Err("conformance-checked run recorded no commands".to_string());
    }
    if cfg.telemetry {
        let tel = r
            .telemetry
            .as_ref()
            .ok_or("telemetry requested but not collected")?;
        tel.attribution
            .check_exact()
            .map_err(|e| format!("cycle attribution is not exact: {e}"))?;
        let mut mismatches = tel.attribution.reconcile(&r.device_stats);
        mismatches.extend(telemetry::reconcile(&tel.derived_counts(), &r.device_stats));
        if let Some(first) = mismatches.first() {
            return Err(format!(
                "telemetry does not reconcile with DeviceStats: {first}"
            ));
        }
    }
    Ok(Outcome {
        sim_cycles: r.cycles,
        percent_peak: r.percent_peak(),
        served: 1,
        submitted: 1,
        deadline_misses: 0,
        state: SimState::Stream {
            cycles: r.cycles,
            device: r.device_stats,
            msu: r.msu_stats,
            baseline: r.baseline,
            bank_data_cycles: r.bank_data_cycles,
        },
    })
}

fn check_serve(
    report: ServeReport,
    chaos: ChannelFaultStats,
    t_pack: u64,
) -> Result<Outcome, String> {
    report.check_conservation()?;
    if report.budget_violations != 0 {
        return Err(format!(
            "{} dispatches granted over budget",
            report.budget_violations
        ));
    }
    let (submitted, completed, failed, shed, rejected, misses, words) = report.totals();
    if failed != 0 {
        return Err(format!("{failed} requests failed in the simulator"));
    }
    // Each observed outage charges the part of the window still ahead of
    // the request that met it; the exact per-request reconciliation is in
    // the traced run.
    if chaos.outages_observed == 0 || chaos.degraded_commands == 0 {
        return Err("the chaos plan was never exercised".to_string());
    }
    if chaos.mttr_cycles > chaos.outages_observed * OUTAGE.1 {
        return Err(format!(
            "MTTR {} exceeds {} outages x {}-cycle window",
            chaos.mttr_cycles, chaos.outages_observed, OUTAGE.1
        ));
    }
    let sim_cycles = report.tenants.iter().map(|t| t.service_cycles).sum();
    Ok(Outcome {
        sim_cycles,
        percent_peak: sim::percent_peak_of(words, report.cycles, t_pack),
        served: completed,
        submitted,
        deadline_misses: misses + shed + rejected + failed,
        state: SimState::Serve {
            report: Box::new(report),
            chaos,
        },
    })
}
