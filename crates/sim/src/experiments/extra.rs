//! Extension experiment: SMC robustness across stream populations.
//!
//! The paper concludes that "SMC performance is robust: an SMC's ability to
//! exploit memory bandwidth is relatively independent of the processor's
//! access pattern or the number of streams in the computation." The paper's
//! own suite only covers 2–4 streams with exactly one write-stream; this
//! experiment adds the extension kernels — fill (pure write), scale, triad,
//! and swap (two write-streams) — and contrasts the SMC against the
//! natural-order limit, whose efficiency *does* depend on the stream count.

use serde::Serialize;

use kernels::Kernel;

use super::grid::{run_all, KernelJob};
use crate::report::{pct, Table};
use crate::{MemorySystem, SystemConfig};

/// One kernel's comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct ExtraRow {
    /// Kernel name.
    pub kernel: String,
    /// Total streams.
    pub streams: u64,
    /// Write-streams.
    pub writes: u64,
    /// Natural-order simulation, percent of peak.
    pub natural: f64,
    /// SMC simulation (128-deep FIFOs), percent of peak.
    pub smc: f64,
}

/// The experiment's data: one table per memory organization.
#[derive(Debug, Clone, Serialize)]
pub struct Extra {
    /// (organization label, rows).
    pub tables: Vec<(String, Vec<ExtraRow>)>,
}

/// Run all kernels (paper suite + extensions) on both organizations as
/// one flat parallel grid: a (natural, SMC) job pair per kernel per
/// organization, reassembled into the two tables afterwards.
pub fn run() -> Extra {
    let n = 1024;
    let memories = [
        MemorySystem::CacheLineInterleaved,
        MemorySystem::PageInterleaved,
    ];
    let jobs: Vec<KernelJob> = memories
        .into_iter()
        .flat_map(|memory| {
            Kernel::ALL.into_iter().flat_map(move |kernel| {
                [
                    KernelJob::new(kernel, n, SystemConfig::natural_order(memory)),
                    KernelJob::new(kernel, n, SystemConfig::smc(memory, 128)),
                ]
            })
        })
        .collect();
    let results = run_all(&jobs);
    let tables = memories
        .into_iter()
        .zip(results.chunks_exact(2 * Kernel::ALL.len()))
        .map(|(memory, chunk)| {
            let rows = Kernel::ALL
                .into_iter()
                .zip(chunk.chunks_exact(2))
                .map(|(kernel, pair)| ExtraRow {
                    kernel: kernel.name().to_string(),
                    streams: kernel.total_streams(),
                    writes: kernel.writes(),
                    natural: pair[0].percent_peak(),
                    smc: pair[1].percent_peak(),
                })
                .collect();
            (memory.label().to_string(), rows)
        })
        .collect();
    Extra { tables }
}

impl Extra {
    /// Render both tables.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Extension: SMC robustness across stream populations (1024 elements)\n\n");
        for (label, rows) in &self.tables {
            out.push_str(&format!("{label}:\n"));
            let mut t = Table::new(vec![
                "kernel".into(),
                "streams".into(),
                "writes".into(),
                "natural %".into(),
                "SMC %".into(),
            ]);
            for r in rows {
                t.row(vec![
                    r.kernel.clone(),
                    r.streams.to_string(),
                    r.writes.to_string(),
                    pct(r.natural),
                    pct(r.smc),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep, computed once for every test in this module.
    fn run() -> &'static Extra {
        static EXTRA: std::sync::OnceLock<Extra> = std::sync::OnceLock::new();
        EXTRA.get_or_init(super::run)
    }

    #[test]
    fn smc_is_uniformly_good_while_natural_order_varies() {
        let e = run();
        for (label, rows) in &e.tables {
            let smc_min = rows.iter().map(|r| r.smc).fold(f64::INFINITY, f64::min);
            let smc_max = rows.iter().map(|r| r.smc).fold(0.0, f64::max);
            let nat_min = rows.iter().map(|r| r.natural).fold(f64::INFINITY, f64::min);
            let nat_max = rows.iter().map(|r| r.natural).fold(0.0, f64::max);
            // "Performance for the SMC is uniformly good": the SMC's spread
            // is much narrower than the natural order's.
            assert!(
                smc_max - smc_min < 0.5 * (nat_max - nat_min),
                "{label}: SMC spread {smc_min:.1}-{smc_max:.1} vs natural \
                 {nat_min:.1}-{nat_max:.1}"
            );
            assert!(smc_min > 85.0, "{label}: SMC worst case {smc_min:.1}");
        }
    }

    #[test]
    fn two_write_kernel_is_covered() {
        let e = run();
        let swap = e.tables[0].1.iter().find(|r| r.kernel == "swap").unwrap();
        assert_eq!(swap.writes, 2);
        assert!(swap.smc > swap.natural);
    }
}
