//! Host-time benchmark of the rambus-smc simulator: four fixed-op
//! workloads timed end to end, and a traced run that rebuilds each op from
//! the layers' public functions to time every layer. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod stats;
pub mod traced;
pub mod workload;

/// Name and unit of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ns_per_sim_cycle", "ns/cycle"),
    ("op_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("percent_peak", "%"),
    ("served_permille", "permille"),
];
