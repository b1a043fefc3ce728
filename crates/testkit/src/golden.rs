//! Golden-snapshot files with byte-stable formatting.
//!
//! A golden test renders a result into a canonical text form, compares it
//! byte-for-byte against a committed file, and regenerates the file when the
//! `GOLDEN_UPDATE=1` environment variable is set:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -q golden   # refresh tests/golden/*.txt
//! cargo test -q golden                   # verify against committed files
//! ```
//!
//! Byte stability rests on two pillars:
//!
//! * floats are rendered with Rust's `{:?}`, the shortest decimal that
//!   round-trips the exact bit pattern — deterministic across runs,
//!   platforms, and optimization levels;
//! * results themselves come from worker-count-invariant seeded Monte
//!   Carlo, so the rendered values are identical for any worker pool the
//!   caller passes.
//!
//! For serde-serializable values, [`Snapshot::serde_hex`] additionally pins
//! the binary encoding (hex-dumped), so format drift in `vendor/serde` or
//! in a type's derived layout is caught by the same mechanism.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Environment variable that switches golden assertions into record mode.
pub const GOLDEN_UPDATE_ENV: &str = "GOLDEN_UPDATE";

/// A canonical, byte-stable text rendering of a test result.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    out: String,
}

impl Snapshot {
    /// Starts a snapshot with a `# title` header line.
    pub fn new(title: &str) -> Self {
        let mut s = Snapshot { out: String::new() };
        let _ = writeln!(s.out, "# {title}");
        s
    }

    /// Appends a `[section]` divider.
    pub fn section(&mut self, name: &str) -> &mut Self {
        let _ = writeln!(self.out, "[{name}]");
        self
    }

    /// Appends `key = value` for a display-formatted value (integers,
    /// strings, booleans — anything whose `Display` is already stable).
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        let _ = writeln!(self.out, "{key} = {value}");
        self
    }

    /// Appends `key = value` with the float rendered via `{:?}` (shortest
    /// round-trip form, bit-stable).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let _ = writeln!(self.out, "{key} = {value:?}");
        self
    }

    /// Appends `key = hex(serde::to_bytes(value))`, pinning the value's
    /// binary serde encoding.
    pub fn serde_hex<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        let bytes = serde::to_bytes(value);
        let mut hex = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            let _ = write!(hex, "{b:02x}");
        }
        let _ = writeln!(self.out, "{key} = {hex}");
        self
    }

    /// Appends `text` verbatim — for pinning a program's printed output.
    pub fn text(&mut self, text: &str) -> &mut Self {
        self.out.push_str(text);
        self
    }

    /// The rendered snapshot text.
    pub fn render(&self) -> &str {
        &self.out
    }
}

/// True when golden assertions should record instead of compare.
pub fn update_mode() -> bool {
    std::env::var(GOLDEN_UPDATE_ENV).is_ok_and(|v| v == "1")
}

/// Compares `snapshot` against the golden file `dir/name.txt`.
///
/// In update mode ([`GOLDEN_UPDATE_ENV`] set to `1`) the file is
/// (re)written and the assertion passes. Otherwise the file must exist and
/// match byte-for-byte; the failure message pinpoints the first divergent
/// line and explains the regeneration workflow.
///
/// # Panics
///
/// Panics on a missing golden file, a byte mismatch, or an I/O error.
#[track_caller]
pub fn assert_golden(dir: &Path, name: &str, snapshot: &Snapshot) {
    let path: PathBuf = dir.join(format!("{name}.txt"));
    let rendered = snapshot.render();
    if update_mode() {
        std::fs::create_dir_all(dir).expect("create golden directory");
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let committed = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing golden file {path:?} ({e}); record it with \
             {GOLDEN_UPDATE_ENV}=1 cargo test -q {name}"
        ),
    };
    if committed != rendered {
        let diff = first_divergence(&committed, rendered);
        panic!(
            "golden mismatch for {path:?}:\n{diff}\n\
             If the change is intentional, regenerate with \
             {GOLDEN_UPDATE_ENV}=1 cargo test -q and review the diff."
        );
    }
}

/// Renders the first line where two texts diverge.
fn first_divergence(committed: &str, actual: &str) -> String {
    let mut committed_lines = committed.lines();
    let mut actual_lines = actual.lines();
    let mut line_no = 1usize;
    loop {
        match (committed_lines.next(), actual_lines.next()) {
            (Some(c), Some(a)) if c == a => line_no += 1,
            (Some(c), Some(a)) => {
                return format!("line {line_no}:\n  committed: {c}\n  actual:    {a}")
            }
            (Some(c), None) => return format!("line {line_no}: committed has extra: {c}"),
            (None, Some(a)) => return format!("line {line_no}: actual has extra: {a}"),
            (None, None) => return "identical texts (whitespace-only difference?)".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hetarch-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_floats_are_shortest_roundtrip() {
        let mut s = Snapshot::new("demo");
        s.f64("third", 1.0 / 3.0).f64("whole", 2.0);
        let text = s.render();
        assert!(text.contains("third = 0.3333333333333333\n"), "{text}");
        assert!(text.contains("whole = 2.0\n"), "{text}");
    }

    #[test]
    fn serde_hex_is_deterministic() {
        let mut a = Snapshot::new("x");
        a.serde_hex("v", &(1u32, 0.5f64));
        let mut b = Snapshot::new("x");
        b.serde_hex("v", &(1u32, 0.5f64));
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn roundtrip_matches_after_record() {
        let dir = tmp_dir("roundtrip");
        let mut s = Snapshot::new("roundtrip");
        s.field("answer", 42).f64("pi", std::f64::consts::PI);
        // Record by writing directly (equivalent to update mode, without
        // mutating the process environment).
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("case.txt"), s.render()).unwrap();
        assert_golden(&dir, "case", &s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatch_reports_first_divergent_line() {
        let dir = tmp_dir("mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("case.txt"), "# t\na = 1\n").unwrap();
        let mut s = Snapshot::new("t");
        s.field("a", 2);
        let err = std::panic::catch_unwind(|| assert_golden(&dir, "case", &s)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("GOLDEN_UPDATE=1"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_explains_workflow() {
        let dir = tmp_dir("missing");
        let s = Snapshot::new("t");
        let err = std::panic::catch_unwind(|| assert_golden(&dir, "nope", &s)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("GOLDEN_UPDATE=1"), "{msg}");
    }
}
