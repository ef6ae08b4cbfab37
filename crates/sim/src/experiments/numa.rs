//! Multi-channel extension study: the NUMA bandwidth cliff and how much
//! of it access ordering recovers.
//!
//! The paper's system is one Direct Rambus channel. This experiment runs
//! the same stream kernels on a two-channel system where channel 1 pays a
//! ROW-delivery penalty (the "remote node" of a NUMA machine) and
//! compares three placements: all-local (`numa:0`), channel-interleaved
//! at 1 KB blocks, and all-remote (`numa:1`). Natural-order cacheline
//! fills pay the penalty on every activate, so their bandwidth falls off
//! a cliff as placement moves remote; the SMC amortizes activates over
//! FIFO-deep bursts and keeps more banks in flight, so it retains a
//! visibly larger fraction of its local bandwidth.

use serde::Serialize;

use crate::report::{pct, Table};
use crate::{MemorySystem, SystemConfig};

/// ROW-delivery penalty on the remote channel, in interface-clock cycles.
pub const REMOTE_PENALTY: u64 = 40;

/// Channel-interleaving granularity used for the balanced placement.
pub const BLOCK_BYTES: u64 = 1024;

/// Elements per stream.
pub const N: u64 = 1024;

/// SMC FIFO depth in elements.
pub const FIFO: usize = 64;

/// Kernels the cliff is measured on.
pub const KERNELS: [kernels::Kernel; 3] = [
    kernels::Kernel::Copy,
    kernels::Kernel::Daxpy,
    kernels::Kernel::Vaxpy,
];

/// One kernel's bandwidth (percent of single-channel peak) across the
/// three placements, for both controllers.
#[derive(Debug, Clone, Serialize)]
pub struct NumaRow {
    /// Kernel name.
    pub kernel: String,
    /// Natural order, all traffic on the local channel (`numa:0`).
    pub natural_local: f64,
    /// Natural order, 1 KB channel-interleaved placement.
    pub natural_interleaved: f64,
    /// Natural order, all traffic on the remote channel (`numa:1`).
    pub natural_remote: f64,
    /// SMC, all traffic on the local channel.
    pub smc_local: f64,
    /// SMC, 1 KB channel-interleaved placement.
    pub smc_interleaved: f64,
    /// SMC, all traffic on the remote channel.
    pub smc_remote: f64,
}

impl NumaRow {
    /// Fraction of local natural-order bandwidth retained at the remote
    /// end of the cliff, in percent.
    pub fn natural_retained(&self) -> f64 {
        100.0 * self.natural_remote / self.natural_local
    }

    /// Fraction of local SMC bandwidth retained at the remote end.
    pub fn smc_retained(&self) -> f64 {
        100.0 * self.smc_remote / self.smc_local
    }
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize)]
pub struct NumaCliff {
    /// One row per kernel.
    pub rows: Vec<NumaRow>,
}

fn config(order_smc: bool, placement: memsys::Placement) -> SystemConfig {
    let base = if order_smc {
        SystemConfig::smc(MemorySystem::CacheLineInterleaved, FIFO)
    } else {
        SystemConfig::natural_order(MemorySystem::CacheLineInterleaved)
    };
    base.with_channels(2)
        .with_placement(placement)
        .with_remote_penalty(vec![0, REMOTE_PENALTY])
}

fn bandwidth(kernel: kernels::Kernel, order_smc: bool, placement: memsys::Placement) -> f64 {
    let cfg = config(order_smc, placement);
    let result = crate::run_kernel(kernel, N, 1, &cfg).expect("clean run");
    result.percent_peak()
}

/// Run the experiment: both controllers on every kernel across the three
/// placements.
pub fn run() -> NumaCliff {
    let local = memsys::Placement::Numa { home: 0 };
    let spread = memsys::Placement::ChannelInterleaved {
        block_bytes: BLOCK_BYTES,
    };
    let remote = memsys::Placement::Numa { home: 1 };
    let rows = KERNELS
        .iter()
        .map(|&kernel| NumaRow {
            kernel: kernel.name().to_string(),
            natural_local: bandwidth(kernel, false, local),
            natural_interleaved: bandwidth(kernel, false, spread),
            natural_remote: bandwidth(kernel, false, remote),
            smc_local: bandwidth(kernel, true, local),
            smc_interleaved: bandwidth(kernel, true, spread),
            smc_remote: bandwidth(kernel, true, remote),
        })
        .collect();
    NumaCliff { rows }
}

impl NumaCliff {
    /// Render the placement table plus the retained-bandwidth summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "kernel".into(),
            "nat local %".into(),
            "nat ilv %".into(),
            "nat remote %".into(),
            "smc local %".into(),
            "smc ilv %".into(),
            "smc remote %".into(),
            "nat retained %".into(),
            "smc retained %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.kernel.clone(),
                pct(r.natural_local),
                pct(r.natural_interleaved),
                pct(r.natural_remote),
                pct(r.smc_local),
                pct(r.smc_interleaved),
                pct(r.smc_remote),
                pct(r.natural_retained()),
                pct(r.smc_retained()),
            ]);
        }
        format!(
            "NUMA cliff: two channels, {REMOTE_PENALTY}-cycle ROW penalty on channel 1\n\
             placements: local = numa:0, ilv = interleaved:{BLOCK_BYTES}, remote = numa:1\n\
             (percent of single-channel peak; retained = remote / local)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep, computed once for every test in this module.
    fn run() -> &'static NumaCliff {
        static CLIFF: std::sync::OnceLock<NumaCliff> = std::sync::OnceLock::new();
        CLIFF.get_or_init(super::run)
    }

    #[test]
    fn remote_placement_falls_off_a_cliff_on_every_kernel() {
        for r in &run().rows {
            // Asymmetric remote placement loses bandwidth against the
            // interleaved placement for both controllers...
            assert!(
                r.natural_remote < r.natural_interleaved,
                "{}: natural {} !< {}",
                r.kernel,
                r.natural_remote,
                r.natural_interleaved
            );
            assert!(
                r.smc_remote < r.smc_interleaved,
                "{}: smc {} !< {}",
                r.kernel,
                r.smc_remote,
                r.smc_interleaved
            );
            // ...and the all-local placement tops both (nothing pays the
            // penalty there).
            assert!(r.natural_local > r.natural_interleaved, "{}", r.kernel);
            assert!(r.smc_local > r.smc_interleaved, "{}", r.kernel);
        }
    }

    #[test]
    fn smc_retains_more_of_its_local_bandwidth_than_natural_order() {
        for r in &run().rows {
            assert!(
                r.smc_retained() > r.natural_retained(),
                "{}: smc retains {:.1}% vs natural {:.1}%",
                r.kernel,
                r.smc_retained(),
                r.natural_retained()
            );
            // The recovery is measurable, not a rounding artifact.
            assert!(
                r.smc_retained() - r.natural_retained() > 2.0,
                "{}: margin {:.2}",
                r.kernel,
                r.smc_retained() - r.natural_retained()
            );
        }
    }

    #[test]
    fn smc_beats_natural_order_at_every_placement() {
        for r in &run().rows {
            assert!(r.smc_local > r.natural_local, "{}", r.kernel);
            assert!(r.smc_interleaved > r.natural_interleaved, "{}", r.kernel);
            assert!(r.smc_remote > r.natural_remote, "{}", r.kernel);
        }
    }
}
