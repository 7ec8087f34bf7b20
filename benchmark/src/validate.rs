//! `--validate BENCHMARK.json`: the file keeps to the driver's limits and
//! declares exactly the workloads and metrics this binary produces.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::shapes::Workload;
use std::process::ExitCode;
use univistor_obs::Json;

const KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn charset(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn name_ok(s: &str) -> bool {
    charset(s, 64, "_.-") && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn keys_of(j: &Json) -> Vec<&str> {
    j.as_object()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default()
}

fn check_metrics(
    errs: &mut Vec<String>,
    doc: &Json,
    section: &str,
    max: usize,
    bounded: bool,
    table: &[MetricDef],
) {
    let items = doc.get(section).and_then(Json::as_array).unwrap_or(&[]);
    if items.is_empty() || items.len() > max {
        errs.push(format!(
            "{section}: {} metrics, want 1..={max}",
            items.len()
        ));
    }
    let want_keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    for item in items {
        let name = item.get("name").and_then(Json::as_str).unwrap_or("?");
        if keys_of(item) != want_keys {
            errs.push(format!(
                "{section}.{name}: keys must be exactly {want_keys:?}"
            ));
        }
        if !name_ok(name) {
            errs.push(format!("{section}.{name}: bad name"));
        }
        let unit = item.get("unit").and_then(Json::as_str).unwrap_or("");
        if !charset(unit, 16, "_/%.-") {
            errs.push(format!("{section}.{name}: bad unit '{unit}'"));
        }
        let better = item.get("better").and_then(Json::as_str).unwrap_or("");
        if !["higher", "lower"].contains(&better) {
            errs.push(format!("{section}.{name}: better must be higher or lower"));
        }
        if bounded {
            let bound = item.get("bound").and_then(Json::as_f64).unwrap_or(-1.0);
            if !(bound > 0.0 && bound <= 0.25) {
                errs.push(format!("{section}.{name}: bound must be in (0, 0.25]"));
            }
        }
        match table.iter().find(|m| m.name == name) {
            None => errs.push(format!(
                "{section}.{name}: the benchmark prints no such metric"
            )),
            Some(m) if m.unit != unit || m.better != better => errs.push(format!(
                "{section}.{name}: the benchmark prints it as {} / {}",
                m.unit, m.better
            )),
            Some(_) => {}
        }
    }
    for m in table {
        if !items
            .iter()
            .any(|i| i.get("name").and_then(Json::as_str) == Some(m.name))
        {
            errs.push(format!("{section}: {} is printed but not declared", m.name));
        }
    }
}

/// All the problems with the document; empty when it is valid.
pub fn problems(text: &str) -> Vec<String> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not JSON: {e:?}")],
    };
    let mut errs = Vec::new();
    if text.len() > 64 << 10 {
        errs.push("larger than 64 KiB".into());
    }
    let mut keys = keys_of(&doc);
    keys.sort_unstable();
    let mut want = KEYS.to_vec();
    want.sort_unstable();
    if keys != want {
        errs.push(format!("top-level keys must be exactly {KEYS:?}"));
    }

    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect()
    };
    let command = strings("command");
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        errs.push("command: 1..=32 strings of at most 200 characters".into());
    }
    if command
        .iter()
        .any(|s| s.starts_with('/') || s.contains(".."))
    {
        errs.push("command: no absolute path and no '..'".into());
    }
    let paths = strings("paths");
    if paths.is_empty() || paths.len() > 16 || !paths.iter().all(|p| charset(p, 200, "_.-/")) {
        errs.push("paths: 1..=16 relative directory names".into());
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(0.0);
    if !(1.0..=60.0).contains(&seconds) || seconds.fract() != 0.0 {
        errs.push("run_seconds: a whole number from 1 to 60".into());
    }

    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap_or(&[]);
    if !(2..=8).contains(&workloads.len()) {
        errs.push(format!("workloads: {} listed, want 2..=8", workloads.len()));
    }
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let why = w.get("why").and_then(Json::as_str).unwrap_or("");
        if keys_of(w) != ["name", "why"] {
            errs.push(format!("workloads.{name}: keys must be exactly name, why"));
        }
        if !name_ok(name) || Workload::parse(name).is_none() {
            errs.push(format!(
                "workloads.{name}: the benchmark has no such workload"
            ));
        }
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            errs.push(format!(
                "workloads.{name}: why is one line of 1..=200 characters"
            ));
        }
    }
    for w in Workload::ALL {
        if !workloads
            .iter()
            .any(|j| j.get("name").and_then(Json::as_str) == Some(w.name()))
        {
            errs.push(format!("workloads: {} is not declared", w.name()));
        }
    }

    check_metrics(&mut errs, &doc, "end_to_end", 16, true, END_TO_END);
    check_metrics(&mut errs, &doc, "per_layer", 128, false, PER_LAYER);
    errs
}

pub fn run(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let errs = problems(&text);
    for e in &errs {
        eprintln!("{path}: {e}");
    }
    if errs.is_empty() {
        println!("{path}: valid");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in file, when the crate sits in the repo.
    #[test]
    fn checked_in_file_is_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(problems(&text), Vec::<String>::new());
    }

    #[test]
    fn rejects_what_the_driver_would() {
        assert!(!problems("{").is_empty());
        let errs = problems(
            r#"{"command":["/bin/sh"],"paths":["benchmark"],"run_seconds":0.5,
                "workloads":[{"name":"vpic_ckpt","why":""}],
                "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.5}],
                "per_layer":[{"name":"no such","unit":"count","better":"up"}]}"#,
        );
        for needle in [
            "absolute",
            "run_seconds",
            "want 2..=8",
            "why is one line",
            "bound must be",
            "bad name",
            "higher or lower",
            "ops_per_s is printed but not declared",
        ] {
            assert!(
                errs.iter().any(|e| e.contains(needle)),
                "no error mentions '{needle}': {errs:#?}"
            );
        }
    }
}
