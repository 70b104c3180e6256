//! Expected-output files: one `key value` pair per line, `#` comments.
//!
//! Each file is written once by `--bless`, after the workload's output
//! has been cross-checked against a second path already in the
//! repository; every later run compares each op's output with it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub struct Expected {
    path: PathBuf,
    entries: BTreeMap<String, String>,
}

impl Expected {
    /// Loads `<dir>/<workload>.txt`; a missing file is an error.
    pub fn load(dir: &Path, workload: &str) -> Result<Expected, String> {
        let path = dir.join(format!("{workload}.txt"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| format!("{}:{}: expected `key value`", path.display(), n + 1))?;
            entries.insert(k.to_owned(), v.trim().to_owned());
        }
        Ok(Expected { path, entries })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// The entry for `key`, or an error naming the file.
    pub fn need(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("{} has no `{key}` entry", self.path.display()))
    }

    /// Compares `actual` with the entry for `key`.
    pub fn check(&self, key: &str, actual: &str) -> Result<(), String> {
        let want = self.need(key)?;
        if want == actual {
            Ok(())
        } else {
            Err(format!("{key}: expected {want}, got {actual}"))
        }
    }
}

/// Writes an expected file from `(key, value)` pairs.
pub fn write(
    dir: &Path,
    workload: &str,
    header: &str,
    pairs: &[(String, String)],
) -> Result<(), String> {
    let mut text = String::new();
    for line in header.lines() {
        let _ = writeln!(text, "# {line}");
    }
    for (k, v) in pairs {
        let _ = writeln!(text, "{k} {v}");
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.txt"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
