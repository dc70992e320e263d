//! Tee'd output: print to stdout and capture into `results/<id>.txt`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Collects everything an experiment prints and saves it under `results/`.
pub struct Out {
    id: String,
    pub(crate) buf: String,
}

impl Out {
    /// Start an output capture for experiment `id` (e.g. `"fig10"`).
    pub fn new(id: &str) -> Out {
        let mut o = Out {
            id: id.to_string(),
            buf: String::new(),
        };
        o.line(&format!(
            "# {} — TLB reproduction ({} scale, seed {})",
            id,
            match crate::Scale::from_env() {
                crate::Scale::Quick => "quick",
                crate::Scale::Full => "full",
            },
            crate::scale::base_seed()
        ));
        o
    }

    /// Print one line and record it.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        let _ = writeln!(self.buf, "{s}");
    }

    /// Print a blank line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Where the capture will be written.
    pub fn path(&self) -> PathBuf {
        results_dir().join(format!("{}.txt", self.id))
    }

    /// Write the capture to `results/<id>.txt`.
    pub fn save(&self) {
        let dir = results_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = self.path();
        if let Err(e) = fs::write(&path, &self.buf) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// `results/` at the workspace root (or cwd as a fallback).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/bench at compile time.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_accumulates() {
        let mut o = Out::new("selftest");
        o.line("hello");
        o.blank();
        assert!(o.buf.contains("hello"));
        assert!(o.buf.contains("selftest"));
        assert!(o.path().ends_with("results/selftest.txt"));
    }
}
