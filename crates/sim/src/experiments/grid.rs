//! Shared grid helpers for the experiment drivers: every figure used to
//! hand-roll its own serial `run_kernel` loop; they now submit flat job
//! lists to the `campaign` crate's order-preserving parallel executor and
//! get their results back in submission order, so the rendered tables,
//! CSVs, and SVGs are byte-identical to the serial versions while the
//! simulations fan out across cores.

use kernels::Kernel;

use crate::{run_kernel, RunResult, SystemConfig};

/// One simulation of the experiment grid: a kernel on a fully specified
/// system.
#[derive(Debug, Clone)]
pub struct KernelJob {
    /// Kernel to run.
    pub kernel: Kernel,
    /// Elements per stream (unit stride).
    pub n: u64,
    /// System configuration.
    pub config: SystemConfig,
}

impl KernelJob {
    /// A unit-stride job.
    pub fn new(kernel: Kernel, n: u64, config: SystemConfig) -> Self {
        KernelJob { kernel, n, config }
    }
}

/// Worker count for experiment sweeps: all available cores.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` in parallel, preserving input order in the
/// output. The experiment figures build their rows through this so a
/// sweep saturates the machine without changing any rendered byte.
///
/// # Panics
///
/// Propagates a panic from `f` (experiment closures assert fault-free
/// runs; a failure here is a bug, not an operational condition).
pub fn sweep<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    campaign::parallel_map(items, workers(), &|_, item| f(item), None)
        .into_iter()
        .map(|slot| slot.expect("sweep worker produced no result"))
        .collect()
}

/// Run every job, in parallel, returning results in job order.
///
/// # Panics
///
/// Panics if any simulation fails, naming the job that did — the
/// experiment grids are all fault-free by construction.
pub fn run_all(jobs: &[KernelJob]) -> Vec<RunResult> {
    sweep(jobs, |job| {
        run_kernel(job.kernel, job.n, 1, &job.config).unwrap_or_else(|e| {
            panic!(
                "experiment job failed: {} n={}: {e}",
                job.kernel.name(),
                job.n
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySystem;

    #[test]
    fn run_all_matches_serial_execution_in_order() {
        let jobs: Vec<KernelJob> = [16u64, 32, 64]
            .into_iter()
            .map(|fifo| {
                KernelJob::new(
                    Kernel::Copy,
                    128,
                    SystemConfig::smc(MemorySystem::CacheLineInterleaved, fifo as usize),
                )
            })
            .collect();
        let parallel = run_all(&jobs);
        for (job, got) in jobs.iter().zip(&parallel) {
            let serial = run_kernel(job.kernel, job.n, 1, &job.config).unwrap();
            assert_eq!(got.cycles, serial.cycles);
            assert_eq!(got.useful_words, serial.useful_words);
        }
        // Deeper FIFOs change the outcome, so order mixups would be caught.
        assert_ne!(parallel[0].cycles, parallel[2].cycles);
    }

    #[test]
    fn sweep_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(
            sweep(&items, |&x| x * 2),
            (0..50).map(|x| x * 2).collect::<Vec<_>>()
        );
    }
}
