//! Figure 9: vaxpy with non-unit strides — SMC vs. natural-order cacheline
//! accesses on both organizations, as percent of *attainable* bandwidth
//! (50% of peak for non-unit strides, because each 128-bit packet carries
//! only one useful element).

use serde::Serialize;

use kernels::Kernel;

use crate::report::{pct, Table};
use crate::{run_kernel, MemorySystem, SystemConfig};

/// Vector length used by the paper for this figure.
pub const LENGTH: u64 = 1024;

/// FIFO depth used by the paper for this figure.
pub const FIFO_DEPTH: usize = 128;

/// One stride sample (percent of attainable bandwidth).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig9Row {
    /// Stride in 64-bit words.
    pub stride: u64,
    /// Simulated SMC on PI.
    pub pi_smc: f64,
    /// Simulated SMC on CLI.
    pub cli_smc: f64,
    /// Natural-order cacheline bound on PI.
    pub pi_cache: f64,
    /// Natural-order cacheline bound on CLI.
    pub cli_cache: f64,
    /// Analytic bank-coverage limit for the CLI SMC (Hong's thesis).
    pub cli_smc_bound: f64,
}

/// The figure's data.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// Samples at each stride.
    pub rows: Vec<Fig9Row>,
}

/// Strides plotted (4 to 64 in steps of 4, matching the paper's axis).
pub fn strides() -> Vec<u64> {
    (1..=16).map(|k| k * 4).collect()
}

/// Run the sweep (one worker job per stride).
pub fn run() -> Fig9 {
    let kernel = Kernel::Vaxpy;
    let s = kernel.total_streams();
    let rows = super::grid::sweep(&strides(), |&stride| {
        let smc = |memory| {
            run_kernel(
                kernel,
                LENGTH,
                stride,
                &SystemConfig::smc(memory, FIFO_DEPTH),
            )
            .expect("fault-free run")
            .percent_attainable()
        };
        let cache = |memory: MemorySystem| {
            let sys = SystemConfig::natural_order(memory).stream_system();
            // Percent of peak -> percent of the 50% attainable ceiling.
            2.0 * sys.multi_stream(memory.organization(), s, LENGTH, stride)
        };
        let sys = SystemConfig::natural_order(MemorySystem::CacheLineInterleaved).stream_system();
        Fig9Row {
            stride,
            pi_smc: smc(MemorySystem::PageInterleaved),
            cli_smc: smc(MemorySystem::CacheLineInterleaved),
            pi_cache: cache(MemorySystem::PageInterleaved),
            cli_cache: cache(MemorySystem::CacheLineInterleaved),
            cli_smc_bound: sys.smc_strided_cli_attainable(stride, 8),
        }
    });
    Fig9 { rows }
}

impl Fig9 {
    /// Render the figure as an SVG line chart.
    pub fn to_svg(&self) -> String {
        use crate::plot::{LineChart, Series};
        let series = |name: &str, f: &dyn Fn(&Fig9Row) -> f64| {
            Series::new(
                name,
                self.rows.iter().map(|r| (r.stride as f64, f(r))).collect(),
            )
        };
        LineChart::new(
            "Figure 9: vaxpy with non-unit strides (1024 elems, 128-deep FIFOs)",
            "stride (64-bit words)",
            "% of attainable bandwidth",
        )
        .with_y_range(0.0, 100.0)
        .with_series(series("PI SMC", &|r| r.pi_smc))
        .with_series(series("CLI SMC", &|r| r.cli_smc))
        .with_series(series("PI cache", &|r| r.pi_cache))
        .with_series(series("CLI cache", &|r| r.cli_cache))
        .render_svg()
    }

    /// Render the stride table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "stride".into(),
            "PI SMC %".into(),
            "CLI SMC %".into(),
            "PI cache %".into(),
            "CLI cache %".into(),
            "CLI SMC bound %".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.stride.to_string(),
                pct(r.pi_smc),
                pct(r.cli_smc),
                pct(r.pi_cache),
                pct(r.cli_cache),
                pct(r.cli_smc_bound),
            ]);
        }
        format!(
            "Figure 9: vaxpy with non-unit strides (1024 elements, 128-deep FIFOs)\n\
             values are percent of attainable bandwidth (= 50% of peak)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep, computed once for every test in this module.
    fn run() -> &'static Fig9 {
        static FIG9: std::sync::OnceLock<Fig9> = std::sync::OnceLock::new();
        FIG9.get_or_init(super::run)
    }

    #[test]
    fn smc_beats_cache_for_moderate_strides() {
        let f = run();
        // "For smaller strides ... the SMC delivers significantly better
        // performance than the cache can - up to 2.2 times" (PI).
        let r4 = f.rows.iter().find(|r| r.stride == 4).unwrap();
        assert!(r4.pi_smc > 1.5 * r4.pi_cache, "{r4:?}");
        assert!(r4.cli_smc > r4.cli_cache, "{r4:?}");
    }

    #[test]
    fn cli_sim_tracks_the_bank_coverage_bound() {
        for r in &run().rows {
            assert!(
                r.cli_smc <= r.cli_smc_bound + 3.0,
                "stride {}: sim {} above bound {}",
                r.stride,
                r.cli_smc,
                r.cli_smc_bound
            );
            assert!(
                r.cli_smc > 0.8 * r.cli_smc_bound,
                "stride {}: sim {} far below bound {}",
                r.stride,
                r.cli_smc,
                r.cli_smc_bound
            );
        }
    }

    #[test]
    fn cli_smc_dips_at_bank_degenerate_strides() {
        // Strides that are multiples of 16 words map every element of a
        // stream to at most two banks under CLI, so the SMC loses its bank
        // parallelism ("performs worse for strides that are multiples of
        // 16").
        let f = run();
        let at = |s: u64| f.rows.iter().find(|r| r.stride == s).copied().unwrap();
        assert!(
            at(16).cli_smc < at(12).cli_smc,
            "stride 16 ({}) should dip below stride 12 ({})",
            at(16).cli_smc,
            at(12).cli_smc
        );
        assert!(at(32).cli_smc < at(28).cli_smc);
    }
}
