//! The experiment registry: every figure renders, serializes, and exports
//! consistently through `sim::experiments`, and the committed `results/`
//! are exactly what `repro --out results` writes.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::OnceLock;

use sim::experiments::{self, Output, UnknownExperiment, ALL};

/// One experiment's output; every experiment runs once per test binary.
fn output(name: &str) -> &'static Output {
    static OUTPUTS: OnceLock<Vec<Output>> = OnceLock::new();
    let outputs = OUTPUTS.get_or_init(|| {
        ALL.iter()
            .map(|name| experiments::run(name).expect("ALL lists known experiments"))
            .collect()
    });
    &outputs[ALL.iter().position(|n| *n == name).expect("name in ALL")]
}

/// The named file as a fresh run writes it, if some experiment writes it.
fn file(name: &str) -> Option<&'static str> {
    let mut files = ALL.iter().flat_map(|experiment| &output(experiment).files);
    let (_, contents) = files.find(|(file, _)| file == name)?;
    Some(contents)
}

#[test]
fn every_experiment_renders_nonempty_text() {
    assert!(ALL.contains(&"headline"));
    for name in ALL {
        let text = &output(name).text;
        assert!(
            text.len() > 100,
            "{name} rendered only {} bytes",
            text.len()
        );
    }
}

#[test]
fn structured_experiments_serialize_to_json() {
    for name in ["fig7", "fig8", "fig9", "extra", "headline"] {
        let json = file(&format!("{name}.json")).unwrap_or_else(|| panic!("{name} has JSON"));
        let v: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
        assert!(v.is_object(), "{name} must serialize to an object");
    }
    for name in ["fig1", "fig2", "fig4", "fig5", "fig6"] {
        assert_eq!(output(name).files.len(), 1, "{name} is text-only");
    }
}

#[test]
fn csv_experiments_have_headers_and_rows() {
    for name in ["fig7", "fig8", "fig9"] {
        let csv = file(&format!("{name}.csv")).unwrap_or_else(|| panic!("{name} has CSV"));
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines.len() > 5, "{name} CSV too small");
        let cols = lines[0].split(',').count();
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.split(',').count(), cols, "{name} row {i} ragged");
        }
    }
    assert!(file("headline.csv").is_none());
}

#[test]
fn svg_experiments_produce_well_formed_documents() {
    let svgs = |name| {
        let files = &output(name).files;
        files.iter().filter(|(file, _)| file.ends_with(".svg"))
    };
    assert_eq!(svgs("fig7").count(), 16, "one SVG per Figure 7 panel");
    for (file, svg) in svgs("fig7").chain(svgs("fig8")) {
        assert!(svg.starts_with("<svg"), "{file}");
        assert!(svg.trim_end().ends_with("</svg>"), "{file}");
        assert!(svg.contains("polyline"), "{file} has no series");
    }
    assert_eq!(svgs("headline").count(), 0);
}

#[test]
fn unknown_experiment_names_are_an_error() {
    let err = experiments::run("fig99").expect_err("fig99 is not an experiment");
    assert_eq!(err, UnknownExperiment("fig99".into()));
    let msg = err.to_string();
    assert!(msg.contains("unknown experiment \"fig99\""), "{msg}");
    for name in ALL {
        assert!(msg.contains(name), "{msg} does not list {name}");
    }
}

#[test]
fn committed_results_match_a_fresh_run_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut committed: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").file_name().into_string())
        .collect::<Result<_, _>>()
        .expect("UTF-8 file names");
    for (file, contents) in ALL.iter().flat_map(|name| &output(name).files) {
        assert!(committed.remove(file), "results/{file} is missing");
        let on_disk = std::fs::read_to_string(dir.join(file)).expect("readable result");
        assert!(
            on_disk == *contents,
            "results/{file} differs from a fresh run; regenerate with \
             `cargo run -p sim --bin repro --release -- --out results`"
        );
    }
    assert!(
        committed.is_empty(),
        "results/ holds files no experiment writes: {committed:?}"
    );
}
