//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each submodule computes one experiment as a value. [`run`] runs an
//! experiment once by name and renders that value to every file it has:
//! plain text always, and where the experiment has them, JSON, CSV and SVG
//! figures. The `repro` binary (`cargo run -p sim --bin repro --release`)
//! prints each experiment's text and, with `--out DIR`, writes its files;
//! `tests/figures.rs` checks those files byte for byte against the
//! committed `results/`.

use std::fmt;

use serde::Serialize;
use serde_json::Value;

use crate::report::Table;

pub mod chaos;
pub mod extra;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod grid;
pub mod headline;
pub mod numa;

/// Names of all experiments, in paper order (`extra`, `numa`, and `chaos`
/// are this reproduction's extension studies; `headline` holds the
/// Section 6 numbers).
pub const ALL: [&str; 12] = [
    "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "extra", "numa", "chaos",
    "headline",
];

/// Everything one experiment produces, rendered from a single run.
#[derive(Debug, Clone)]
pub struct Output {
    /// The plain-text rendering, as `repro` prints it.
    pub text: String,
    /// Every file the experiment writes, as `(file name, contents)`:
    /// `name.txt`, then `name.json`, `name.csv` and the SVG figures where
    /// the experiment has them.
    pub files: Vec<(String, String)>,
}

/// An experiment name that is not in [`ALL`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known = ALL.join(" ");
        write!(f, "unknown experiment {:?}; known: {known}", self.0)
    }
}

impl std::error::Error for UnknownExperiment {}

/// Run one experiment by name, once, and render it to every file it has.
///
/// # Errors
///
/// [`UnknownExperiment`] if `name` is not in [`ALL`].
pub fn run(name: &str) -> Result<Output, UnknownExperiment> {
    let (text, json, csv, svgs) = match name {
        "fig1" => (fig1::render(), None, None, Vec::new()),
        "fig2" => (fig2::render(), None, None, Vec::new()),
        "fig4" => (fig4::render(), None, None, Vec::new()),
        "fig5" => (fig56::render_fig5(), None, None, Vec::new()),
        "fig6" => (fig56::render_fig6(), None, None, Vec::new()),
        "fig7" => {
            let f = fig7::run();
            (f.render(), json(&f), Some(csv(&f.flat_rows())), f.to_svgs())
        }
        "fig8" => {
            let f = fig8::run();
            let svg = ("fig8.svg".to_string(), f.to_svg());
            (f.render(), json(&f), Some(csv(&f.rows)), vec![svg])
        }
        "fig9" => {
            let f = fig9::run();
            let svg = ("fig9.svg".to_string(), f.to_svg());
            (f.render(), json(&f), Some(csv(&f.rows)), vec![svg])
        }
        "extra" => {
            let e = extra::run();
            (e.render(), json(&e), None, Vec::new())
        }
        "numa" => {
            let n = numa::run();
            (n.render(), json(&n), Some(csv(&n.rows)), Vec::new())
        }
        "chaos" => {
            let c = chaos::run();
            (c.render(), json(&c), Some(csv(&c.rows)), Vec::new())
        }
        "headline" => {
            let h = headline::run();
            (h.render(), json(&h), None, Vec::new())
        }
        other => return Err(UnknownExperiment(other.to_string())),
    };
    let mut files = vec![(format!("{name}.txt"), text.clone())];
    files.extend(json.map(|json| (format!("{name}.json"), json)));
    files.extend(csv.map(|csv| (format!("{name}.csv"), csv)));
    files.extend(svgs);
    Ok(Output { text, files })
}

fn json(data: &impl Serialize) -> Option<String> {
    Some(serde_json::to_string_pretty(data).expect("serializable"))
}

/// Rows as CSV: one column per serialized field in declaration order,
/// floats to three decimals.
fn csv<R: Serialize>(rows: &[R]) -> String {
    let mut table: Option<Table> = None;
    for row in rows {
        let Value::Object(fields) = serde_json::to_value(row).expect("serializable") else {
            panic!("CSV rows serialize to objects");
        };
        let headers = || fields.iter().map(|(key, _)| key.clone()).collect();
        let table = table.get_or_insert_with(|| Table::new(headers()));
        table.row(fields.into_iter().map(|(_, v)| cell(v)).collect());
    }
    table.map_or_else(String::new, |t| t.to_csv())
}

fn cell(value: Value) -> String {
    match value {
        Value::Float(x) => format!("{x:.3}"),
        Value::String(s) => s,
        other => other.to_string(),
    }
}
