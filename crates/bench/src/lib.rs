//! Shared plumbing for the catalogue binary (`exp_all`): persist an
//! experiment's CSVs, text and markdown renders, and machine-readable JSON
//! document under `results/`. Single experiments run through the CLI
//! (`fdip exp ID`, `fdip tables ID`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use fdip_sim::experiments::{Experiment, ExperimentResult};
use fdip_sim::persist::write_atomic_str;

/// Writes each table as `results/<id>_<k>.csv`, the full text render as
/// `results/<id>.txt`, a markdown render as `results/<id>.md`, and the
/// versioned machine-readable document as `results/<id>.json`.
///
/// Every file goes through [`fdip_sim::persist::write_atomic`]'s
/// temp + fsync + rename path, so a crash (or `kill -9`) mid-persist
/// leaves each document whole-or-absent, never torn.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn persist(exp: &dyn Experiment, result: &ExperimentResult) -> std::io::Result<()> {
    let id = exp.id();
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let mut markdown = String::new();
    for (k, table) in result.tables.iter().enumerate() {
        write_atomic_str(&dir.join(format!("{id}_{k}.csv")), &table.to_csv())?;
        markdown.push_str(&table.to_markdown());
        markdown.push('\n');
    }
    write_atomic_str(&dir.join(format!("{id}.txt")), &result.to_text())?;
    write_atomic_str(&dir.join(format!("{id}.md")), &markdown)?;
    write_atomic_str(
        &dir.join(format!("{id}.json")),
        &result.to_json(id, exp.title()).to_string_pretty(),
    )?;
    Ok(())
}

/// `results/` next to the workspace root when run via cargo, else the
/// current directory.
pub fn results_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    if manifest.is_empty() {
        PathBuf::from("results")
    } else {
        PathBuf::from(manifest).join("../../results")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_sim::experiments;
    use fdip_sim::harness::Harness;
    use fdip_sim::Scale;

    #[test]
    fn persist_writes_csv_text_and_json() {
        let exp = experiments::find("x2").unwrap();
        let result = exp.run(Harness::global(), Scale::quick());
        persist(exp, &result).unwrap();
        let dir = results_dir();
        assert!(dir.join("x2_0.csv").exists());
        assert!(dir.join("x2.txt").exists());
        let json = std::fs::read_to_string(dir.join("x2.json")).unwrap();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"id\": \"x2\""));
    }
}
