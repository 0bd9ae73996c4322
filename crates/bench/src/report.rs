//! Small text-table helpers for the experiment binaries, plus the one
//! shared command-line / run-manifest / trace-export path every binary
//! goes through: [`Args::parse`] reads the flags a binary declares,
//! [`manifest`] seeds an [`obs::RunManifest`] with provenance (seed,
//! git revision), [`write_manifest`] finishes it with wall-clock, event
//! count and the full metrics dump, and [`write_trace`] exports a typed
//! trace as JSONL.

use netsim::trace::Trace;
use obs::{Histogram, MetricsRegistry, RunManifest};
use std::path::{Path, PathBuf};

/// A command-line flag an experiment binary may declare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the short pass CI runs.
    Quick,
    /// `--trace-out <path>` or `--trace-out=<path>`: export a traced
    /// representative run as JSONL.
    TraceOut,
}

/// The parsed command line of an experiment binary.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--quick` was given.
    pub quick: bool,
    /// The `--trace-out` path, if given.
    pub trace_out: Option<PathBuf>,
}

impl Args {
    /// Parses the process arguments, accepting only the flags in
    /// `takes`. Anything else prints the error and usage to stderr and
    /// exits with status 2.
    pub fn parse(takes: &[Flag]) -> Args {
        Args::parse_from(takes, std::env::args().skip(1)).unwrap_or_else(|e| {
            let arg0 = std::env::args().next().unwrap_or_default();
            let bin = Path::new(&arg0).file_name().and_then(|b| b.to_str()).unwrap_or("bench");
            let flags: Vec<&str> = takes
                .iter()
                .map(|f| match f {
                    Flag::Quick => "[--quick]",
                    Flag::TraceOut => "[--trace-out <path>]",
                })
                .collect();
            eprintln!("{bin}: {e}\nusage: {bin} {}", flags.join(" "));
            std::process::exit(2)
        })
    }

    /// Parses `args` (without the program name), accepting only the
    /// flags in `takes`.
    fn parse_from(takes: &[Flag], args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--quick" && takes.contains(&Flag::Quick) {
                out.quick = true;
            } else if a == "--trace-out" && takes.contains(&Flag::TraceOut) {
                let path = args.next().filter(|p| !p.is_empty()).ok_or("--trace-out needs a path")?;
                out.trace_out = Some(PathBuf::from(path));
            } else if let Some(path) =
                a.strip_prefix("--trace-out=").filter(|p| !p.is_empty() && takes.contains(&Flag::TraceOut))
            {
                out.trace_out = Some(PathBuf::from(path));
            } else {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok(out)
    }
}

/// Renders an ASCII table: header row + data rows, columns padded.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Quotes a CSV cell per RFC 4180 when it contains a comma, quote or
/// line break (inner quotes doubled); plain cells pass through as-is.
pub fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Writes rows as a CSV file under `results/` (creating the directory),
/// so figures can be re-plotted externally. Cells are escaped with
/// [`csv_cell`]. Returns the path written.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    let join = |cells: &mut dyn Iterator<Item = &str>| -> String {
        cells.map(csv_cell).collect::<Vec<_>>().join(",")
    };
    out.push_str(&join(&mut headers.iter().copied()));
    out.push('\n');
    for row in rows {
        out.push_str(&join(&mut row.iter().map(String::as_str)));
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// The short git revision of the working tree, or `"unknown"` when git
/// is unavailable (e.g. running from an exported tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Starts a run manifest for `bin`/`scenario` with the common
/// provenance fields every experiment records: seed and git revision.
pub fn manifest(bin: &str, scenario: &str, seed: u64) -> RunManifest {
    let mut m = RunManifest::new(bin, scenario);
    m.num("seed", seed).str_field("git_rev", &git_rev());
    m
}

/// Finishes a manifest with the run outcome — wall-clock seconds,
/// dispatched event count, and the full metrics dump — writes it under
/// `results/`, and reports the path written (or the error) on stderr.
pub fn write_manifest(mut m: RunManifest, wall_secs: f64, events: u64, metrics: &MetricsRegistry) {
    m.num("wall_secs", format!("{wall_secs:.3}"))
        .num("events", events)
        .raw("metrics", metrics.to_json());
    match m.write_to(Path::new("results")) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("manifest write failed: {e}"),
    }
}

/// Writes `trace` to `path` as JSONL and reports the record count (or
/// the error) on stderr.
pub fn write_trace(trace: &Trace, path: &Path) {
    match trace.write_jsonl(path) {
        Ok(()) => eprintln!(
            "wrote {} trace records to {} ({} dropped at cap)",
            trace.entries().len(),
            path.display(),
            trace.truncated()
        ),
        Err(e) => eprintln!("trace write failed: {e}"),
    }
}

/// One table/CSV row summarizing a nanosecond-valued latency histogram
/// in milliseconds: `[stage, count, p50, p90, p99, max]`.
pub fn hist_row_ms(stage: &str, h: &Histogram) -> Vec<String> {
    let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
    vec![
        stage.to_string(),
        h.count().to_string(),
        ms(h.quantile(0.50)),
        ms(h.quantile(0.90)),
        ms(h.quantile(0.99)),
        ms(h.max()),
    ]
}

/// Renders the per-stage latency-quantile table for the protocol stages
/// found in `metrics` (listed in `stages` order; absent stages are
/// skipped). Returns `None` when none of the stages were observed.
pub fn stage_table(metrics: &MetricsRegistry, stages: &[&str]) -> Option<String> {
    let rows: Vec<Vec<String>> = stages
        .iter()
        .filter_map(|s| metrics.hist_get(s).map(|h| hist_row_ms(s, h)))
        .filter(|r| r[1] != "0")
        .collect();
    if rows.is_empty() {
        return None;
    }
    Some(table(&["stage", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"], &rows))
}

/// A crude horizontal bar for terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    "█".repeat(filled.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(takes: &[Flag], args: &[&str]) -> Result<Args, String> {
        Args::parse_from(takes, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_accept_declared_flags() {
        let both = [Flag::Quick, Flag::TraceOut];
        assert_eq!(parse(&both, &[]), Ok(Args::default()));
        let traced = |quick, path: &str| Ok(Args { quick, trace_out: Some(PathBuf::from(path)) });
        assert_eq!(parse(&both, &["--quick", "--trace-out", "t.jsonl"]), traced(true, "t.jsonl"));
        assert_eq!(parse(&both, &["--trace-out=t.jsonl"]), traced(false, "t.jsonl"));
        assert_eq!(parse(&[Flag::Quick], &["--quick"]), Ok(Args { quick: true, trace_out: None }));
    }

    #[test]
    fn args_reject_everything_else() {
        let both = [Flag::Quick, Flag::TraceOut];
        for bad in [&["quick"][..], &["--quik"], &["--trace-out"], &["--trace-out="], &["--quick", "extra"]] {
            assert!(parse(&both, bad).is_err(), "{bad:?} accepted");
        }
        // A flag the binary does not declare is as unknown as a typo.
        assert!(parse(&[Flag::Quick], &["--trace-out", "t.jsonl"]).is_err());
        assert!(parse(&[Flag::Quick], &["--trace-out=t.jsonl"]).is_err());
        assert!(parse(&[Flag::TraceOut], &["--quick"]).is_err());
    }

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{t}");
        assert!(t.contains("longer-name"));
    }

    #[test]
    fn csv_cells_are_escaped() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_cell("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_cell(""), "");
    }

    #[test]
    fn hist_row_converts_ns_to_ms() {
        let mut h = obs::Histogram::new();
        h.record(2_000_000); // 2 ms
        let row = hist_row_ms("stage", &h);
        assert_eq!(row[0], "stage");
        assert_eq!(row[1], "1");
        assert_eq!(row[2], "2.00");
    }

    #[test]
    fn stage_table_skips_absent_stages() {
        let mut m = obs::MetricsRegistry::new();
        m.observe_name("hip.bex", 5_000_000);
        let t = stage_table(&m, &["hip.bex", "esp.encrypt"]).expect("one stage present");
        assert!(t.contains("hip.bex"));
        assert!(!t.contains("esp.encrypt"));
        assert!(stage_table(&m, &["tcp.connect"]).is_none());
    }

    #[test]
    fn bar_scaling() {
        assert_eq!(bar(50.0, 100.0, 10).chars().count(), 5);
        assert_eq!(bar(0.0, 100.0, 10), "");
        assert_eq!(bar(200.0, 100.0, 10).chars().count(), 10, "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
