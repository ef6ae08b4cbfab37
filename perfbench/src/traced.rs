//! The traced run: each workload's op rebuilt from the public functions of
//! the layers it passes through, with every call into a layer timed from
//! outside. The rebuilt op must reproduce the untraced op's simulated
//! result exactly, or the per-layer numbers are withheld.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use baseline::{BaselineController, WritePolicy};
use faults::FaultInjector;
use kernels::{Coefficients, Kernel, ReferenceMachine};
use memsys::{split_by_channel, ChannelFaultStats, MemorySystem, SystemMap};
use rdram::{
    sink::drain_trace, AddressMap, CommandRecord, CommandTrace, DeviceConfig, DeviceStats,
    MemoryImage, SharedSink,
};
use sim::serve::SimExecutor;
use sim::{vector_bases, AccessOrder, StreamCpu, SystemConfig};
use smc::{MsuConfig, MsuStats, SmcController};
use telemetry::{CycleAttribution, Event, SharedTelemetry, Timeline};
use tenancy::{Executor, Request, ServiceReport, TenantSpec};

use crate::workload::{Op, SimState, OUTAGE, STREAM_KERNEL, STREAM_STRIDE};

/// Host time and work counted at each layer boundary of one traced op.
/// Times are nanoseconds summed over every call into the layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Controller ticks of SMC runs.
    pub smc_ticks: u64,
    /// `SmcController::tick`.
    pub smc_tick_ns: u64,
    /// MSU cycles with memory work left but nothing schedulable.
    pub msu_idle_cycles: u64,
    /// MSU moves of service to another FIFO.
    pub fifo_switches: u64,
    /// `StreamCpu::tick`.
    pub cpu_tick_ns: u64,
    /// Controller ticks of natural-order runs.
    pub baseline_ticks: u64,
    /// `BaselineController::tick`.
    pub baseline_tick_ns: u64,
    /// `MemoryImage` writes seeding the run's and the reference's vectors.
    pub seed_ns: u64,
    /// `ReferenceMachine::run`.
    pub reference_ns: u64,
    /// `MemoryImage` reads comparing the result with the reference.
    pub verify_ns: u64,
    /// Replay of the op's commands through `MemorySystem::earliest` and
    /// `MemorySystem::issue_at`.
    pub replay_ns: u64,
    /// Commands replayed.
    pub replayed_commands: u64,
    /// Replayed COL packets that hit an open row.
    pub page_hits: u64,
    /// Replayed COL packets.
    pub col_packets: u64,
    /// DATA-bus busy cycles of the replay.
    pub data_busy_cycles: u64,
    /// Simulated cycles the replayed runs spanned.
    pub run_cycles: u64,
    /// `checker::check`.
    pub check_ns: u64,
    /// Commands checked.
    pub checked_commands: u64,
    /// Conformance violations found.
    pub violations: u64,
    /// `memsys::split_by_channel`.
    pub split_ns: u64,
    /// `Timeline::from_commands`.
    pub timeline_ns: u64,
    /// Commands replayed into timelines.
    pub timeline_commands: u64,
    /// `CycleAttribution::from_run` and `merge`.
    pub attribution_ns: u64,
    /// SMC tick cost per cycle with telemetry attached minus without.
    pub emit_ns_per_cycle: f64,
    /// Serve wall time minus the executor calls inside it.
    pub serve_self_ns: u64,
    /// Executor calls.
    pub executor_ns: u64,
    /// Requests the executor ran.
    pub requests_executed: u64,
    /// Closed-loop resubmissions.
    pub retries: u64,
    /// Requests rejected with backpressure.
    pub rejected: u64,
    /// Requests offered to the serve.
    pub submitted: u64,
    /// Deadline misses, counting shed, rejected and failed requests.
    pub deadline_misses: u64,
    /// Commands delivered in degraded mode.
    pub degraded_commands: u64,
    /// Cycles deliveries were deferred past outages.
    pub deferred_cycles: u64,
    /// Summed outage recovery time.
    pub mttr_cycles: u64,
}

impl Layers {
    /// Add the fields a kernel rebuild fills (ticks, storage, checker and
    /// telemetry) from `o` into `self`; replay and serve fields are summed
    /// where they are measured.
    fn absorb(&mut self, o: &Layers) {
        self.smc_ticks += o.smc_ticks;
        self.smc_tick_ns += o.smc_tick_ns;
        self.msu_idle_cycles += o.msu_idle_cycles;
        self.fifo_switches += o.fifo_switches;
        self.cpu_tick_ns += o.cpu_tick_ns;
        self.baseline_ticks += o.baseline_ticks;
        self.baseline_tick_ns += o.baseline_tick_ns;
        self.seed_ns += o.seed_ns;
        self.reference_ns += o.reference_ns;
        self.verify_ns += o.verify_ns;
        self.check_ns += o.check_ns;
        self.checked_commands += o.checked_commands;
        self.violations += o.violations;
        self.split_ns += o.split_ns;
        self.timeline_ns += o.timeline_ns;
        self.timeline_commands += o.timeline_commands;
        self.attribution_ns += o.attribution_ns;
    }
}

/// Unit of every per-layer metric, by name, in output order.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("smc.tick_ns_per_cycle", "ns/cycle"),
    ("smc.ticks", "count"),
    ("smc.idle_tick_permille", "permille"),
    ("smc.fifo_switches", "count"),
    ("cpu.tick_ns_per_cycle", "ns/cycle"),
    ("baseline.tick_ns_per_cycle", "ns/cycle"),
    ("baseline.ticks", "count"),
    ("storage.seed_ns", "ns"),
    ("kernels.reference_ns", "ns"),
    ("storage.verify_ns", "ns"),
    ("memsys.replay_ns_per_cmd", "ns/cmd"),
    ("memsys.commands", "count"),
    ("rdram.page_hit_permille", "permille"),
    ("rdram.data_bus_util_permille", "permille"),
    ("checker.check_ns_per_cmd", "ns/cmd"),
    ("checker.violations", "count"),
    ("memsys.split_ns", "ns"),
    ("telemetry.timeline_ns_per_cmd", "ns/cmd"),
    ("telemetry.attribution_ns", "ns"),
    ("telemetry.emit_ns_per_cycle", "ns/cycle"),
    ("tenancy.serve_self_ns", "ns"),
    ("tenancy.executor_ns_per_request", "ns"),
    ("tenancy.requests_executed", "count"),
    ("tenancy.retries", "count"),
    ("tenancy.rejected", "count"),
    ("tenancy.deadline_miss_permille", "permille"),
    ("faults.degraded_commands", "count"),
    ("faults.deferred_cycles", "cycles"),
    ("faults.mttr_cycles", "cycles"),
    ("trace.overhead_permille", "permille"),
];

impl Layers {
    /// The per-layer metric values of this op, in [`PER_LAYER`] order, up
    /// to `trace.overhead_permille`, which is a property of the whole
    /// traced run. A layer that does not run on the workload reads 0.
    pub fn metrics(&self) -> [f64; PER_LAYER.len() - 1] {
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        [
            per(self.smc_tick_ns, self.smc_ticks),
            self.smc_ticks as f64,
            1000.0 * per(self.msu_idle_cycles, self.smc_ticks),
            self.fifo_switches as f64,
            per(self.cpu_tick_ns, self.smc_ticks),
            per(self.baseline_tick_ns, self.baseline_ticks),
            self.baseline_ticks as f64,
            self.seed_ns as f64,
            self.reference_ns as f64,
            self.verify_ns as f64,
            per(self.replay_ns, self.replayed_commands),
            self.replayed_commands as f64,
            1000.0 * per(self.page_hits, self.col_packets),
            1000.0 * per(self.data_busy_cycles, self.run_cycles),
            per(self.check_ns, self.checked_commands),
            self.violations as f64,
            self.split_ns as f64,
            per(self.timeline_ns, self.timeline_commands),
            self.attribution_ns as f64,
            self.emit_ns_per_cycle,
            self.serve_self_ns as f64,
            per(self.executor_ns, self.requests_executed),
            self.requests_executed as f64,
            self.retries as f64,
            self.rejected as f64,
            1000.0 * per(self.deadline_misses, self.submitted),
            self.degraded_commands as f64,
            self.deferred_cycles as f64,
            self.mttr_cycles as f64,
        ]
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f` and add its wall time to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += elapsed_ns(start);
    out
}

/// The result of a rebuilt kernel run.
#[derive(Debug)]
pub struct Rebuilt {
    /// Simulated cycles.
    pub cycles: u64,
    /// Device counters.
    pub device: DeviceStats,
    /// MSU counters (SMC runs).
    pub msu: Option<MsuStats>,
    /// Degraded-mode accounting (chaos runs).
    pub chaos: ChannelFaultStats,
    /// Whether every vector word equals the scalar reference's.
    pub image_matches: bool,
    /// Commands captured, when the configuration records them.
    pub commands: Vec<CommandRecord>,
    /// Layer times and counts.
    pub layers: Layers,
}

/// Seed the kernel's vectors exactly as `run_kernel` does.
fn seed(mem: &mut MemoryImage, kernel: Kernel, bases: &[u64], n: u64, stride: u64) {
    for (v, &base) in bases.iter().enumerate() {
        for e in 0..kernel.vector_len(v, n, stride) {
            let value = (v as f64 + 1.0) * 1_000_000.0 + e as f64 * 0.5;
            mem.write_f64(base + e * rdram::ELEM_BYTES, value);
        }
    }
}

/// `run_kernel` rebuilt from the layers' public functions, for the
/// configurations the workloads use: no device faults, refresh, cache or
/// packet trace (rejected), optionally multi-channel, chaos, conformance
/// checking, command capture and telemetry.
///
/// # Errors
///
/// A configuration outside that subset, or the simulator's error.
pub fn rebuild_kernel(
    kernel: Kernel,
    n: u64,
    stride: u64,
    cfg: &SystemConfig,
) -> Result<Rebuilt, String> {
    if cfg.faults.is_some() || cfg.refresh || cfg.cache.is_some() || cfg.trace {
        return Err("the traced rebuild covers no faults, refresh, cache or trace".into());
    }
    let mut l = Layers::default();
    let inner_map = AddressMap::new(cfg.memory.interleave(cfg.line_bytes), &cfg.device)
        .map_err(|e| e.to_string())?;
    let topo = cfg.topology();
    let map = if topo.is_single() {
        SystemMap::single(inner_map)
    } else {
        SystemMap::new(inner_map, &cfg.device, &topo, cfg.placement).map_err(|e| e.to_string())?
    };
    let bases = vector_bases(kernel, n, stride, cfg);
    let coeffs = Coefficients::default();
    let device_cfg = cfg.device.clone();
    let mut dev = if topo.is_single() {
        MemorySystem::single(device_cfg.clone())
    } else {
        MemorySystem::new(device_cfg.clone(), topo)
    };
    let mut mem = MemoryImage::new();
    timed(&mut l.seed_ns, || seed(&mut mem, kernel, &bases, n, stride));
    let chaos_plan = cfg.chaos.as_ref().filter(|p| p.has_channel_faults());
    if let Some(plan) = chaos_plan {
        dev.set_chaos(FaultInjector::new(plan, cfg.chaos_seed));
    }
    let cmd_trace = (cfg.record_commands || cfg.check_conformance || cfg.telemetry)
        .then(|| Arc::new(Mutex::new(CommandTrace::new())));
    let tel = cfg.telemetry.then(SharedTelemetry::new);
    let streams = kernel.stream_descriptors(&bases, n, stride);
    let useful_words = streams.len() as u64 * n;

    let (cycles, msu) = match cfg.ordering {
        AccessOrder::NaturalOrder => {
            let write_policy = if cfg.write_allocate {
                WritePolicy::WriteAllocate
            } else {
                WritePolicy::StoreDirect
            };
            let mut ctl =
                BaselineController::new(streams, map, cfg.memory.line_policy(), cfg.line_bytes)
                    .with_write_policy(write_policy);
            if let Some(trace) = &cmd_trace {
                ctl.set_trace_sink(SharedSink::from_trace(Arc::clone(trace)));
            }
            if let Some(t) = &tel {
                ctl.set_telemetry(t.clone());
            }
            let mut now = 0;
            while !ctl.done() {
                timed(&mut l.baseline_tick_ns, || ctl.tick(now, &mut dev))
                    .map_err(|e| e.to_string())?;
                now += 1;
            }
            l.baseline_ticks = now;
            timed(&mut l.reference_ns, || {
                ReferenceMachine::new(kernel, coeffs).run(&mut mem, &bases, n, stride);
            });
            (ctl.last_data_cycle(), None)
        }
        AccessOrder::Smc { fifo_depth } => {
            let msu_cfg = MsuConfig {
                fifo_depth,
                policy: cfg.policy,
                page_policy: cfg.memory.page_policy(),
                speculative_activate: cfg.speculative,
                degrade_after: 0,
                ..MsuConfig::default()
            };
            let mut ctl = SmcController::new(streams, map, msu_cfg);
            if let Some(trace) = &cmd_trace {
                ctl.set_trace_sink(SharedSink::from_trace(Arc::clone(trace)));
            }
            if let Some(t) = &tel {
                ctl.set_telemetry(t.clone());
            }
            let mut cpu =
                StreamCpu::new(kernel, coeffs, n).with_access_cycles(cfg.cpu_access_cycles);
            let mut budget = 400 * (useful_words + 1024) + 2_000_000;
            if let Some(plan) = chaos_plan {
                let (max_mult, window_sum) = plan.chaos_bounds();
                budget = budget
                    .saturating_mul(max_mult)
                    .saturating_add(2 * window_sum);
            }
            let mut now = 0;
            while !(cpu.done() && ctl.mem_complete()) {
                let t0 = Instant::now();
                let ticked = ctl.tick(now, &mut dev, &mut mem);
                let t1 = Instant::now();
                cpu.tick(now, &mut ctl);
                let t2 = Instant::now();
                ticked.map_err(|e| e.to_string())?;
                l.smc_tick_ns += u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
                l.cpu_tick_ns += u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX);
                now += 1;
                if now >= budget {
                    return Err(format!("rebuilt run exceeded its {budget}-cycle budget"));
                }
            }
            l.smc_ticks = now;
            let stats = *ctl.msu_stats();
            l.msu_idle_cycles = stats.idle_cycles;
            l.fifo_switches = stats.fifo_switches;
            (ctl.last_data_cycle().max(cpu.finish_cycle()), Some(stats))
        }
    };

    let commands = cmd_trace.as_ref().map(drain_trace).unwrap_or_default();
    let channels = cfg.channels.max(1);
    let banks = device_cfg.total_banks();
    if cfg.check_conformance && !cfg.chaos_active() {
        let per_channel = if channels > 1 {
            timed(&mut l.split_ns, || {
                split_by_channel(&commands, channels, banks)
            })
        } else {
            vec![commands.clone()]
        };
        for local in &per_channel {
            let found = timed(&mut l.check_ns, || checker::check(&device_cfg, local));
            l.violations += found.len() as u64;
        }
        l.checked_commands = commands.len() as u64;
    }

    let mut image_matches = true;
    if cfg.verify {
        let mut expect = MemoryImage::new();
        timed(&mut l.seed_ns, || {
            seed(&mut expect, kernel, &bases, n, stride)
        });
        timed(&mut l.reference_ns, || {
            ReferenceMachine::new(kernel, coeffs).run(&mut expect, &bases, n, stride);
        });
        timed(&mut l.verify_ns, || {
            for (v, &base) in bases.iter().enumerate() {
                for e in 0..kernel.vector_len(v, n, stride) {
                    let addr = base + e * rdram::ELEM_BYTES;
                    image_matches &= mem.read_u64(addr) == expect.read_u64(addr);
                }
            }
        });
    }

    let device = dev.stats();
    if let Some(t) = tel {
        let events = t.drain();
        let timelines: Vec<Timeline> = if channels > 1 {
            let split = timed(&mut l.split_ns, || {
                split_by_channel(&commands, channels, banks)
            });
            timed(&mut l.timeline_ns, || {
                split
                    .iter()
                    .map(|local| Timeline::from_commands(&device_cfg, local))
                    .collect()
            })
        } else {
            timed(&mut l.timeline_ns, || {
                vec![Timeline::from_commands(&device_cfg, &commands)]
            })
        };
        l.timeline_commands = commands.len() as u64;
        let attribution = timed(&mut l.attribution_ns, || {
            attribute(&device_cfg, &timelines, &events, cycles)
        });
        let mut counts = telemetry::DerivedCounts::default();
        for tl in &timelines {
            counts.absorb(tl.counts());
        }
        if !cfg.chaos_active() {
            attribution.check_exact()?;
            let mut mismatches = attribution.reconcile(&device);
            mismatches.extend(telemetry::reconcile(&counts, &device));
            if let Some(first) = mismatches.first() {
                return Err(format!("rebuilt telemetry does not reconcile: {first}"));
            }
        }
    }

    Ok(Rebuilt {
        cycles,
        device,
        msu,
        chaos: if dev.has_chaos() {
            dev.chaos_stats_total()
        } else {
            ChannelFaultStats::default()
        },
        image_matches,
        commands,
        layers: l,
    })
}

/// Cycle attribution per channel, merged, as `RunTelemetry::collect`
/// computes it: fault incidents naming a bank go to its channel, the rest
/// to channel 0.
fn attribute(
    device: &DeviceConfig,
    timelines: &[Timeline],
    events: &[Event],
    cycles: u64,
) -> CycleAttribution {
    if timelines.len() == 1 {
        return CycleAttribution::from_run(device, &timelines[0], events, cycles);
    }
    let banks = device.total_banks();
    let parts: Vec<CycleAttribution> = timelines
        .iter()
        .enumerate()
        .map(|(ch, tl)| {
            let local: Vec<Event> = events
                .iter()
                .filter_map(|e| match *e {
                    Event::InjectedStall { cycle } => {
                        (ch == 0).then_some(Event::InjectedStall { cycle })
                    }
                    Event::DataNack { cycle, bank } => match bank {
                        Some(b) if b / banks == ch => Some(Event::DataNack {
                            cycle,
                            bank: Some(b % banks),
                        }),
                        Some(_) => None,
                        None => (ch == 0).then_some(Event::DataNack { cycle, bank: None }),
                    },
                    _ => None,
                })
                .collect();
            CycleAttribution::from_run(device, tl, &local, cycles)
        })
        .collect();
    CycleAttribution::merge(&parts)
}

/// Replay `commands` into a fresh memory system through `earliest` and
/// `issue_at`, timing the calls; each command must be accepted at its
/// recorded cycle. Returns the replayed system's counters.
///
/// # Errors
///
/// The first command the fresh system would not accept at its cycle.
pub fn replay(
    cfg: &SystemConfig,
    commands: &[CommandRecord],
    l: &mut Layers,
) -> Result<DeviceStats, String> {
    let topo = cfg.topology();
    let mut sys = if topo.is_single() {
        MemorySystem::single(cfg.device.clone())
    } else {
        MemorySystem::new(cfg.device.clone(), topo)
    };
    let start = Instant::now();
    for rec in commands {
        let at = sys.earliest(&rec.cmd, rec.cycle);
        if at != rec.cycle {
            return Err(format!(
                "replay: {:?} recorded at cycle {} is not accepted before {at}",
                rec.cmd, rec.cycle
            ));
        }
        sys.issue_at(&rec.cmd, at)
            .map_err(|e| format!("replay: {e}"))?;
    }
    l.replay_ns += elapsed_ns(start);
    l.replayed_commands += commands.len() as u64;
    let stats = sys.stats();
    l.page_hits += stats.read_hits + stats.write_hits;
    l.col_packets += stats.col_packets();
    l.data_busy_cycles += stats.data_busy_cycles;
    Ok(stats)
}

/// State a traced op must reproduce, and what it replays.
#[derive(Debug)]
pub struct TraceSetup {
    /// The first untraced op's state.
    pub reference: SimState,
    /// Commands of the op, for workloads whose op does not record them.
    pub commands: Vec<CommandRecord>,
}

impl TraceSetup {
    /// Capture what the traced ops of `op` need, given the first untraced
    /// op's state.
    ///
    /// # Errors
    ///
    /// The simulator's error, or a capture run whose counters differ from
    /// the reference (command capture must be inert).
    pub fn new(op: &Op, reference: SimState) -> Result<TraceSetup, String> {
        let mut commands = Vec::new();
        if let (Op::Stream { cfg, n }, SimState::Stream { device, .. }) = (op, &reference) {
            if !cfg.record_commands {
                let recorded = cfg.clone().with_command_recording();
                let r = sim::run_kernel(STREAM_KERNEL, *n, STREAM_STRIDE, &recorded)
                    .map_err(|e| e.to_string())?;
                if r.device_stats != *device {
                    return Err("command capture changed the device counters".to_string());
                }
                commands = r.commands;
            }
        }
        Ok(TraceSetup {
            reference,
            commands,
        })
    }
}

/// Run one traced op of `op`.
///
/// # Errors
///
/// The simulator's error, or the first way the rebuilt op departs from
/// the untraced op's result (its faithfulness check).
pub fn traced_op(op: &Op, setup: &TraceSetup) -> Result<Layers, String> {
    match op {
        Op::Stream { cfg, n } => traced_stream(cfg, *n, setup),
        Op::Serve { mix, cfg, base } => traced_serve(mix, cfg, base, &setup.reference),
    }
}

fn traced_stream(cfg: &SystemConfig, n: u64, setup: &TraceSetup) -> Result<Layers, String> {
    let SimState::Stream {
        cycles,
        device,
        msu,
        ..
    } = &setup.reference
    else {
        return Err("stream op with a serve reference".to_string());
    };
    let rb = rebuild_kernel(STREAM_KERNEL, n, STREAM_STRIDE, cfg)?;
    faithful(&rb, *cycles, device, msu)?;
    let mut layers = rb.layers;
    let commands = if rb.commands.is_empty() {
        &setup.commands
    } else {
        &rb.commands
    };
    if replay(cfg, commands, &mut layers)? != *device {
        return Err("replayed counters differ from the op's".to_string());
    }
    layers.run_cycles = *cycles;
    if cfg.telemetry {
        // The control: the same rebuilt op with no telemetry attached.
        let bare = rebuild_kernel(
            STREAM_KERNEL,
            n,
            STREAM_STRIDE,
            &SystemConfig {
                telemetry: false,
                ..cfg.clone()
            },
        )?;
        faithful(&bare, *cycles, device, msu)?;
        let per_tick = |l: &Layers| l.smc_tick_ns as f64 / l.smc_ticks.max(1) as f64;
        layers.emit_ns_per_cycle = per_tick(&layers) - per_tick(&bare.layers);
    }
    Ok(layers)
}

fn faithful(
    rb: &Rebuilt,
    cycles: u64,
    device: &DeviceStats,
    msu: &Option<MsuStats>,
) -> Result<(), String> {
    if rb.cycles != cycles {
        return Err(format!("rebuilt op ran {} cycles, not {cycles}", rb.cycles));
    }
    if rb.device != *device {
        return Err("rebuilt op's DeviceStats differ".to_string());
    }
    if rb.msu != *msu {
        return Err("rebuilt op's MsuStats differ".to_string());
    }
    if !rb.image_matches {
        return Err("rebuilt op's memory image differs from the reference".to_string());
    }
    Ok(())
}

/// One executor call seen by [`TimedExecutor`].
struct Call {
    tenant: TenantSpec,
    req: Request,
    report: ServiceReport,
    chaos: ChannelFaultStats,
}

/// Times every call into the simulator-backed executor and keeps what it
/// needs to rebuild each request afterwards.
struct TimedExecutor {
    inner: SimExecutor,
    ns: Cell<u64>,
    calls: RefCell<Vec<Call>>,
}

impl Executor for TimedExecutor {
    fn execute(&self, tenant: &TenantSpec, req: &Request) -> Result<ServiceReport, String> {
        let before = self.inner.chaos_totals();
        let start = Instant::now();
        let out = self.inner.execute(tenant, req);
        self.ns.set(self.ns.get() + elapsed_ns(start));
        let after = self.inner.chaos_totals();
        if let Ok(report) = &out {
            self.calls.borrow_mut().push(Call {
                tenant: tenant.clone(),
                req: *req,
                report: report.clone(),
                chaos: ChannelFaultStats {
                    degraded_commands: after.degraded_commands - before.degraded_commands,
                    outages_observed: after.outages_observed - before.outages_observed,
                    mttr_cycles: after.mttr_cycles - before.mttr_cycles,
                    ..ChannelFaultStats::default()
                },
            });
        }
        out
    }
}

/// The part of the outage window still ahead of a request submitted at
/// `submitted_at` (request plans are shifted to the submission instant).
pub fn outage_remaining(submitted_at: u64) -> u64 {
    let end = OUTAGE.0 + OUTAGE.1;
    end.saturating_sub(OUTAGE.0.max(submitted_at))
}

fn traced_serve(
    mix: &tenancy::TenantMix,
    cfg: &tenancy::ServeConfig,
    base: &SystemConfig,
    reference: &SimState,
) -> Result<Layers, String> {
    let SimState::Serve {
        report: ref_report,
        chaos: ref_chaos,
    } = reference
    else {
        return Err("serve op with a stream reference".to_string());
    };
    let mut l = Layers::default();
    let exec = TimedExecutor {
        inner: SimExecutor::new(base.clone()),
        ns: Cell::new(0),
        calls: RefCell::new(Vec::new()),
    };
    let mut trace = tenancy::ServeTrace::new();
    let start = Instant::now();
    let report =
        tenancy::serve_traced(mix, cfg, &exec, Some(&mut trace)).map_err(|e| e.to_string())?;
    let wall = elapsed_ns(start);
    l.executor_ns = exec.ns.get();
    l.serve_self_ns = wall.saturating_sub(l.executor_ns);
    if report != **ref_report || exec.inner.chaos_totals() != *ref_chaos {
        return Err("traced serve differs from the untraced serve".to_string());
    }
    let calls = exec.calls.into_inner();
    l.requests_executed = calls.len() as u64;
    let (submitted, _completed, failed, shed, rejected, misses, _words) = report.totals();
    l.submitted = submitted;
    l.deadline_misses = misses + shed + rejected + failed;
    l.rejected = rejected;
    l.retries = report.tenants.iter().map(|t| t.retries).sum();
    l.degraded_commands = ref_chaos.degraded_commands;
    l.deferred_cycles = ref_chaos.deferred_cycles;
    l.mttr_cycles = ref_chaos.mttr_cycles;

    // Rebuild every request the serve executed, exactly as the executor
    // configured it, and replay its commands.
    let mut recovered = 0;
    for call in &calls {
        if call.chaos.mttr_cycles
            != call.chaos.outages_observed * outage_remaining(call.req.submitted_at)
        {
            return Err(format!(
                "request submitted at {}: MTTR {} is not {} outages x the remaining window",
                call.req.submitted_at, call.chaos.mttr_cycles, call.chaos.outages_observed
            ));
        }
        recovered += call.chaos.mttr_cycles;
        let kernel = Kernel::ALL
            .into_iter()
            .find(|k| k.name() == call.tenant.kernel)
            .ok_or("unknown kernel")?;
        let mut rcfg = base.clone();
        rcfg.record_commands = true;
        if let Some(plan) = base.chaos.as_ref() {
            rcfg.chaos = Some(plan.shifted(call.req.submitted_at));
        }
        let rb = rebuild_kernel(kernel, call.tenant.n, call.tenant.stride, &rcfg)?;
        if rb.cycles != call.report.cycles || !rb.image_matches {
            return Err(format!(
                "rebuilt request ran {} cycles, executor reported {}",
                rb.cycles, call.report.cycles
            ));
        }
        if rb.chaos.degraded_commands != call.chaos.degraded_commands
            || rb.chaos.mttr_cycles != call.chaos.mttr_cycles
        {
            return Err("rebuilt request's fault accounting differs".to_string());
        }
        l.absorb(&rb.layers);
        if replay(&rcfg, &rb.commands, &mut l)? != rb.device {
            return Err("replayed request counters differ".to_string());
        }
        l.run_cycles += rb.cycles;
    }
    if recovered != ref_chaos.mttr_cycles {
        return Err("per-request MTTR does not sum to the serve's".to_string());
    }
    Ok(l)
}
