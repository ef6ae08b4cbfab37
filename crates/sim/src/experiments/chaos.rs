//! Robustness extension study: effective bandwidth and deadline slack
//! through a channel brownout, and the recovery cliff as severity grows.
//!
//! The paper measures a healthy Direct Rambus channel. This experiment
//! injects channel-scoped faults into a two-channel system and sweeps the
//! brownout severity (DATA-delivery cost multiplier on channel 0, plus a
//! fixed outage window on channel 1) from healthy to 8x. Two views per
//! severity, each for both controllers:
//!
//! - **device view**: one long `copy` run whose mid-life covers the fault
//!   windows; effective bandwidth integrates the healthy lead-in, the
//!   degraded middle, and the recovered tail. Natural-order cacheline
//!   fills have no slack to hide the slowdown; the SMC keeps more banks
//!   in flight and retains a visibly larger fraction of its healthy
//!   bandwidth.
//! - **serving view**: a closed-loop multi-tenant mix served through a
//!   per-request fault plan (windows slide to each request's submission),
//!   with a small retry budget; p99 deadline slack over completed requests
//!   shows the latency cliff the brownout carves. Under chaos the
//!   degradation ladder escalates on fault pressure and sheds
//!   bandwidth-hungry arrivals before queues overflow, so the closed loop
//!   retries in the healthy row and the ladder sheds in the chaotic ones —
//!   a retry storm can never form.
//!
//! Measured MTTR comes back from the degraded-mode accounting and must
//! reconcile exactly with the injected outage window per observation.

use serde::Serialize;

use crate::report::{pct, Table};
use crate::{MemorySystem, SystemConfig};

/// Elements per stream in the device view.
pub const N: u64 = 2048;

/// SMC FIFO depth in elements.
pub const FIFO: usize = 64;

/// Brownout severity sweep: DATA-delivery cost multipliers (1 = healthy).
pub const MULTS: [u64; 4] = [1, 2, 4, 8];

/// Outage window length injected on channel 1, in cycles — the number
/// measured MTTR must reconcile against.
pub const OUTAGE_LEN: u64 = 900;

/// Closed-loop retry budget per rejected request in the serving view.
pub const RETRY_BUDGET: u32 = 2;

/// Tenant mix served in the serving view.
pub const MIX: &str = "ls:2:daxpy:64+bh:4:copy:64";

/// Fault plan for the device view at severity `mult`: a sustained
/// brownout on channel 0 (the window outlives the run for both
/// controllers, so their effective bandwidths are comparable) plus one
/// mid-run outage on channel 1 whose recovery the accounting timestamps.
/// Healthy (`mult == 1`) injects nothing.
fn device_plan(mult: u64) -> Option<String> {
    (mult > 1).then(|| format!("brownout:0:0:1000000:{mult};outage:1:2000:{OUTAGE_LEN}"))
}

/// Fault plan for the serving view: windows slide to each request's
/// submission, so both start at 0 to cover the short per-request runs.
fn serve_plan(mult: u64) -> Option<String> {
    (mult > 1).then(|| format!("brownout:0:0:4000:{mult};outage:1:0:{OUTAGE_LEN}"))
}

/// One severity step of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Brownout DATA-delivery cost multiplier (1 = healthy).
    pub mult: u64,
    /// Natural order effective bandwidth through the fault windows, in
    /// percent of the healthy two-channel peak.
    pub natural_pct: f64,
    /// SMC effective bandwidth through the fault windows.
    pub smc_pct: f64,
    /// p99 deadline slack over completed requests, natural-order base.
    pub natural_p99_slack: u64,
    /// p99 deadline slack over completed requests, SMC base.
    pub smc_p99_slack: u64,
    /// Outage windows observed by the SMC device run (absolute timeline).
    pub outages_observed: u64,
    /// Summed repair time those observations measured.
    pub mttr_cycles: u64,
    /// Closed-loop resubmissions the serving view scheduled (SMC base).
    /// Chaos drives the ladder's fault escalation, which sheds
    /// bandwidth-hungry arrivals before queues ever overflow — so retries
    /// concentrate in the healthy row and shedding in the chaotic ones.
    pub retries: u64,
    /// Requests the degradation ladder shed at arrival (SMC base).
    pub shed: u64,
}

impl ChaosRow {
    /// Fraction of the healthy bandwidth retained at this severity, in
    /// percent, for (natural, smc).
    pub fn retained(&self, healthy: &ChaosRow) -> (f64, f64) {
        (
            100.0 * self.natural_pct / healthy.natural_pct,
            100.0 * self.smc_pct / healthy.smc_pct,
        )
    }
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosCliff {
    /// One row per severity, healthy first.
    pub rows: Vec<ChaosRow>,
}

fn base_config(order_smc: bool, plan: Option<&str>) -> SystemConfig {
    let base = if order_smc {
        SystemConfig::smc(MemorySystem::CacheLineInterleaved, FIFO)
    } else {
        SystemConfig::natural_order(MemorySystem::CacheLineInterleaved)
    };
    let base = base.with_channels(2);
    match plan {
        Some(spec) => {
            let plan = faults::FaultPlan::parse(spec).expect("experiment plans parse");
            base.with_chaos(plan, 0)
        }
        None => base,
    }
}

/// Device view: effective bandwidth through the fault windows, plus the
/// run's degraded-mode accounting.
fn device_view(order_smc: bool, mult: u64) -> (f64, memsys::ChannelFaultStats) {
    let cfg = base_config(order_smc, device_plan(mult).as_deref());
    let result = crate::run_kernel(kernels::Kernel::Copy, N, 1, &cfg).expect("clean run");
    (result.percent_peak(), result.chaos_total())
}

/// Nearest-rank p99 over an unsorted sample population (0 when empty).
fn p99(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (u128::from(samples.len() as u64) * 990)
        .div_ceil(1000)
        .max(1) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Serve the mix through the fault plan; returns (p99 deadline slack over
/// completed requests, scheduled retries, requests shed at arrival).
fn serve_view(order_smc: bool, mult: u64) -> (u64, u64, u64) {
    let base = base_config(order_smc, serve_plan(mult).as_deref());
    let mix = tenancy::TenantMix::parse(MIX).expect("experiment mix parses");
    let banks = base.device.total_banks() * base.channels.max(1);
    let mut cfg = crate::serve::serve_config_for(banks, 0, base.device.timing.t_pack);
    cfg.retry = tenancy::RetryPolicy::with_budget(RETRY_BUDGET, 7);
    // A tight admission queue with shedding disabled pushes overload into
    // `Rejected {retry_after}` responses, so the closed loop actually
    // exercises its backoff instead of the ladder shedding BH on arrival.
    cfg.queue_capacity = 2;
    cfg.ladder.shed_fill_permille = 1001;
    cfg.ladder.critical_fill_permille = 1002;
    let (report, trace, _) = crate::serve::run_serve_chaos(&mix, &cfg, &base).expect("clean serve");
    let slacks: Vec<u64> = trace
        .spans()
        .iter()
        .filter(|s| s.outcome == tenancy::RequestOutcome::Completed)
        .map(tenancy::RequestSpan::slack)
        .collect();
    let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
    let (_, _, _, shed, _, _, _) = report.totals();
    (p99(slacks), retries, shed)
}

/// Run the experiment: both controllers at every severity.
pub fn run() -> ChaosCliff {
    let rows = MULTS
        .iter()
        .map(|&mult| {
            let (natural_p99_slack, _, _) = serve_view(false, mult);
            let (smc_p99_slack, retries, shed) = serve_view(true, mult);
            let (natural_pct, _) = device_view(false, mult);
            let (smc_pct, totals) = device_view(true, mult);
            ChaosRow {
                mult,
                natural_pct,
                smc_pct,
                natural_p99_slack,
                smc_p99_slack,
                outages_observed: totals.outages_observed,
                mttr_cycles: totals.mttr_cycles,
                retries,
                shed,
            }
        })
        .collect();
    ChaosCliff { rows }
}

impl ChaosCliff {
    /// Render the severity table plus the retained-bandwidth summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "mult".into(),
            "nat bw %".into(),
            "smc bw %".into(),
            "nat retained %".into(),
            "smc retained %".into(),
            "nat p99 slack".into(),
            "smc p99 slack".into(),
            "outages".into(),
            "mttr cyc".into(),
            "retries".into(),
            "shed".into(),
        ]);
        let healthy = &self.rows[0];
        for r in &self.rows {
            let (nat_ret, smc_ret) = r.retained(healthy);
            t.row(vec![
                format!("{}x", r.mult),
                pct(r.natural_pct),
                pct(r.smc_pct),
                pct(nat_ret),
                pct(smc_ret),
                r.natural_p99_slack.to_string(),
                r.smc_p99_slack.to_string(),
                r.outages_observed.to_string(),
                r.mttr_cycles.to_string(),
                r.retries.to_string(),
                r.shed.to_string(),
            ]);
        }
        format!(
            "Chaos cliff: two channels; brownout multiplier sweep on channel 0 \
             plus a {OUTAGE_LEN}-cycle outage on channel 1\n\
             device view: copy n={N}, sustained brownout + mid-run outage\n\
             serving view: {MIX}, retry budget {RETRY_BUDGET}, windows per request\n\
             (bw = percent of healthy two-channel peak; retained = vs 1x row;\n\
              slack in cycles over completed requests; MTTR reconciles as\n\
              outages x {OUTAGE_LEN})\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep, computed once for every test in this module.
    fn run() -> &'static ChaosCliff {
        static CLIFF: std::sync::OnceLock<ChaosCliff> = std::sync::OnceLock::new();
        CLIFF.get_or_init(super::run)
    }

    #[test]
    fn bandwidth_degrades_monotonically_with_severity() {
        let cliff = run();
        for pair in cliff.rows.windows(2) {
            assert!(
                pair[1].natural_pct <= pair[0].natural_pct,
                "{}x -> {}x: natural {} !<= {}",
                pair[0].mult,
                pair[1].mult,
                pair[1].natural_pct,
                pair[0].natural_pct
            );
            assert!(
                pair[1].smc_pct <= pair[0].smc_pct,
                "{}x -> {}x: smc {} !<= {}",
                pair[0].mult,
                pair[1].mult,
                pair[1].smc_pct,
                pair[0].smc_pct
            );
        }
        // The worst brownout is a real cliff, not a rounding artifact.
        let (healthy, worst) = (&cliff.rows[0], cliff.rows.last().unwrap());
        assert!(worst.natural_pct < 0.95 * healthy.natural_pct);
        assert!(worst.smc_pct < 0.95 * healthy.smc_pct);
    }

    #[test]
    fn smc_beats_natural_order_at_every_severity() {
        for r in &run().rows {
            assert!(r.smc_pct > r.natural_pct, "{}x", r.mult);
        }
    }

    #[test]
    fn mttr_reconciles_with_the_injected_outage_window() {
        let cliff = run();
        let healthy = &cliff.rows[0];
        assert_eq!(healthy.outages_observed, 0, "healthy row injects nothing");
        assert_eq!(healthy.mttr_cycles, 0);
        for r in &cliff.rows[1..] {
            assert!(r.outages_observed > 0, "{}x observes its outage", r.mult);
            assert_eq!(
                r.mttr_cycles,
                r.outages_observed * OUTAGE_LEN,
                "{}x: MTTR must be exactly the injected window per outage",
                r.mult
            );
        }
    }

    #[test]
    fn the_closed_loop_retries_when_healthy_and_the_ladder_sheds_under_chaos() {
        let cliff = run();
        let healthy = &cliff.rows[0];
        assert!(
            healthy.retries > 0,
            "healthy overload drives the closed loop"
        );
        assert_eq!(healthy.shed, 0, "no fault pressure, no shedding");
        for r in &cliff.rows[1..] {
            assert!(
                r.shed > 0,
                "{}x: fault escalation sheds BH arrivals before a retry storm",
                r.mult
            );
        }
    }

    #[test]
    fn deadline_slack_collapses_under_the_worst_brownout() {
        let cliff = run();
        let (healthy, worst) = (&cliff.rows[0], cliff.rows.last().unwrap());
        assert!(
            worst.smc_p99_slack < healthy.smc_p99_slack,
            "p99 slack {} !< {}",
            worst.smc_p99_slack,
            healthy.smc_p99_slack
        );
    }
}
