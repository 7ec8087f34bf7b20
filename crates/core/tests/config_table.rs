//! The configuration audit: DESIGN.md lists every `pub` field of the
//! config structs with what needs it (a figure bin, a `BENCHMARK.json`
//! workload or metric, an example, or a named behaviour test). A field
//! added, renamed or dropped in `config.rs` fails here until the table
//! between the `config-fields` markers says who needs it.

const CONFIG_RS: &str = include_str!("../src/config.rs");
const DESIGN_MD: &str = include_str!("../../../DESIGN.md");

/// `Struct::field` for every `pub` field of every `pub struct` in
/// `config.rs`, in source order.
fn pub_fields() -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Option<&str> = None;
    for line in CONFIG_RS.lines() {
        if let Some(rest) = line.strip_prefix("pub struct ") {
            current = rest.split([' ', '{', '<']).next();
        } else if line == "}" {
            current = None;
        } else if let (Some(ty), Some(rest)) = (current, line.strip_prefix("    pub ")) {
            if let Some((field, _)) = rest.split_once(':') {
                out.push(format!("{ty}::{field}"));
            }
        }
    }
    out
}

/// `(field, needed by)` for every row of DESIGN.md's table.
fn table_rows() -> Vec<(String, String)> {
    let block = DESIGN_MD
        .split_once("<!-- config-fields:begin -->\n")
        .and_then(|(_, rest)| rest.split_once("<!-- config-fields:end -->"))
        .map(|(block, _)| block)
        .expect("DESIGN.md has the config-fields markers");
    block
        .lines()
        .filter_map(|row| {
            let row = row.strip_prefix("| `")?;
            let (field, rest) = row.split_once("` |")?;
            let needed_by = rest.trim().trim_end_matches('|').trim();
            Some((field.to_string(), needed_by.to_string()))
        })
        .collect()
}

#[test]
fn design_table_lists_every_pub_config_field() {
    let fields = pub_fields();
    let rows = table_rows();
    let listed: Vec<String> = rows.iter().map(|(f, _)| f.clone()).collect();
    let missing: Vec<&String> = fields.iter().filter(|f| !listed.contains(f)).collect();
    let stale: Vec<&String> = listed.iter().filter(|f| !fields.contains(f)).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN.md's config table is out of date: missing {missing:?}, stale {stale:?}"
    );
    assert_eq!(listed, fields, "rows follow config.rs's order, once each");
    for (field, needed_by) in &rows {
        assert!(
            !needed_by.is_empty(),
            "`{field}` names nothing that needs it"
        );
    }
    // The settable surface: every new knob moves this number and the table.
    assert_eq!(fields.len(), 44);
}
