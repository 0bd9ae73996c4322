//! Run manifests: the provenance record a bench binary writes next to
//! its results so a number can always be traced back to the code, seed
//! and configuration that produced it.
//!
//! One manifest per `(binary, scenario)` pair, written to
//! `results/<bin>-<scenario>.json`. The caller supplies environment
//! facts (git rev, wall-clock) — this module only assembles and writes.

use crate::json;
use std::io;
use std::path::{Path, PathBuf};

/// Builder for one run-manifest JSON file.
pub struct RunManifest {
    bin: String,
    scenario: String,
    fields: Vec<(String, String)>, // key -> serialized JSON value
}

impl RunManifest {
    /// A manifest for `bin` running `scenario`.
    pub fn new(bin: &str, scenario: &str) -> Self {
        RunManifest { bin: bin.to_string(), scenario: scenario.to_string(), fields: Vec::new() }
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields.push((key.to_string(), json::quote(v)));
        self
    }

    /// Adds a numeric field (or any value whose `Display` output is
    /// already valid JSON).
    pub fn num(&mut self, key: &str, v: impl std::fmt::Display) -> &mut Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// Adds a field whose value is pre-serialized JSON (e.g. a metrics
    /// dump or a nested config object).
    pub fn raw(&mut self, key: &str, v: String) -> &mut Self {
        self.fields.push((key.to_string(), v));
        self
    }

    /// The file name this manifest writes to: `<bin>-<scenario>.json`,
    /// with the scenario slugified (lowercase, `/ ()` -> `-`).
    pub fn file_name(&self) -> String {
        let slug: String = self
            .scenario
            .chars()
            .map(|c| match c {
                'A'..='Z' => c.to_ascii_lowercase(),
                'a'..='z' | '0'..='9' | '-' | '_' | '.' => c,
                _ => '-',
            })
            .collect();
        let slug = slug.trim_matches('-').to_string();
        if slug.is_empty() {
            format!("{}.json", self.bin)
        } else {
            format!("{}-{}.json", self.bin, slug)
        }
    }

    /// Serializes the manifest (pretty-ish: one field per line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bin\": {},\n", json::quote(&self.bin)));
        out.push_str(&format!("  \"scenario\": {}", json::quote(&self.scenario)));
        for (k, v) in &self.fields {
            out.push_str(",\n  ");
            out.push_str(&json::quote(k));
            out.push_str(": ");
            out.push_str(v);
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the manifest under `dir`, creating it if needed.
    /// Returns the path written.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_is_slugified() {
        let m = RunManifest::new("fig3_iperf_rtt", "LSI(IPv4)");
        assert_eq!(m.file_name(), "fig3_iperf_rtt-lsi-ipv4.json");
        let m = RunManifest::new("perf_gates", "quick");
        assert_eq!(m.file_name(), "perf_gates-quick.json");
    }

    #[test]
    fn json_contains_fields_in_order() {
        let mut m = RunManifest::new("b", "s");
        m.num("seed", 42u64).str_field("git_rev", "abc123").raw("metrics", "{\"counters\":{}}".into());
        let j = m.to_json();
        assert!(j.contains("\"bin\": \"b\""));
        assert!(j.contains("\"seed\": 42"));
        assert!(j.contains("\"git_rev\": \"abc123\""));
        assert!(j.contains("\"metrics\": {\"counters\":{}}"));
        assert!(j.find("seed").unwrap() < j.find("git_rev").unwrap());
    }
}
