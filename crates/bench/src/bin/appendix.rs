//! Collect every CSV artifact under `target/experiments/` into one
//! Markdown appendix (`target/experiments/APPENDIX.md`) — a single
//! reviewable record of the last full regeneration.

use std::fmt::Write as _;
use std::fs;

fn main() -> Result<(), mnemo_bench::HarnessError> {
    mnemo_bench::harness_args()?;
    let dir = mnemo_bench::out_dir()?;
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .map_err(|e| format!("cannot read experiment dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!(
            "no CSVs found in {} — run `cargo run --release -p mnemo-bench --bin all` first",
            dir.display()
        ));
    }

    let mut md = String::from(
        "# Experiment appendix\n\nGenerated from the CSV artifacts of the last full run.\n",
    );
    for path in &entries {
        let name = path
            .file_stem()
            .unwrap_or(path.as_os_str())
            .to_string_lossy();
        let content =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut lines = content.lines();
        let header = match lines.next() {
            Some(h) => h,
            None => continue,
        };
        let _ = writeln!(md, "\n## {name}\n");
        let cols = header.split(',').count();
        let _ = writeln!(
            md,
            "| {} |",
            header.split(',').collect::<Vec<_>>().join(" | ")
        );
        let _ = writeln!(md, "|{}", "---|".repeat(cols));
        let rows: Vec<&str> = lines.collect();
        // Large tables are elided to head+tail to keep the appendix readable.
        const HEAD: usize = 12;
        const TAIL: usize = 4;
        if rows.len() <= HEAD + TAIL + 2 {
            for row in &rows {
                let _ = writeln!(md, "| {} |", row.split(',').collect::<Vec<_>>().join(" | "));
            }
        } else {
            for row in &rows[..HEAD] {
                let _ = writeln!(md, "| {} |", row.split(',').collect::<Vec<_>>().join(" | "));
            }
            let _ = writeln!(md, "| … ({} rows elided) … |", rows.len() - HEAD - TAIL);
            for row in &rows[rows.len() - TAIL..] {
                let _ = writeln!(md, "| {} |", row.split(',').collect::<Vec<_>>().join(" | "));
            }
        }
    }
    let out = dir.join("APPENDIX.md");
    fs::write(&out, md).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "appendix with {} tables -> {}",
        entries.len(),
        out.display()
    );
    Ok(())
}
