//! `BENCH_*.json` (schema 2) read-migrate-append helpers, shared by every
//! bin that records a perf-trajectory entry.
//!
//! Schema 2 is an append-style document:
//!
//! ```json
//! { "schema": 2, "bench": "fleet", "entries": [ { "bench": "...", ... } ] }
//! ```
//!
//! [`read_entries`] loads the prior entries (wrapping a legacy schema-1
//! single-record file as the first entry) and applies in-place
//! migrations; [`write()`] re-seals the document. Entries deliberately
//! carry wall-clock fields — they are the one non-deterministic part of
//! the repo's committed artifacts.

use serde::json::{self, Value};

/// The workspace root's `BENCH_fleet.json`, the file
/// `tests/bench_schema.rs` validates. The path is absolute, so a bin
/// appends to it from whatever directory it runs in.
pub const FLEET_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

/// Annotation recorded in place of `speedup` when the host has a single
/// core — serial vs parallel wall times compare time-slicing overhead,
/// not parallel speedup.
pub const SPEEDUP_NOTE: &str =
    "host_parallelism=1: workers time-slice one core; speedup not measurable";

/// Loads the entry array from a schema-2 bench file, migrating legacy
/// shapes: a schema-1 single-record document becomes the first entry,
/// and any `parallel-sweep` entry recorded on a single-core host has its
/// meaningless sub-1.0 `speedup` replaced by [`SPEEDUP_NOTE`]. Returns
/// an empty vector when the file is missing or unparsable.
pub fn read_entries(path: &str) -> Vec<Value> {
    let mut entries: Vec<Value> = match std::fs::read_to_string(path)
        .ok()
        .and_then(|s| json::parse(&s).ok())
    {
        Some(Value::Obj(mut top)) => {
            if let Some(Value::Arr(prior)) = top.remove("entries") {
                prior
            } else {
                top.remove("schema");
                vec![Value::Obj(top)]
            }
        }
        _ => Vec::new(),
    };
    for entry in &mut entries {
        let Value::Obj(e) = entry else { continue };
        let single_core = matches!(e.get("host_parallelism"), Some(Value::UInt(1)));
        if single_core && e.remove("speedup").is_some() {
            e.insert("speedup_note".into(), Value::Str(SPEEDUP_NOTE.into()));
        }
    }
    entries
}

/// Writes a schema-2 bench document with the given entry array.
///
/// # Errors
///
/// Propagates the filesystem error when the file cannot be written.
pub fn write(path: &str, bench: &str, entries: Vec<Value>) -> std::io::Result<()> {
    let doc = Value::obj([
        ("schema".into(), Value::UInt(2)),
        ("bench".into(), Value::Str(bench.into())),
        ("entries".into(), Value::Arr(entries)),
    ]);
    std::fs::write(path, doc.to_pretty_string(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_path_is_the_committed_root_file() {
        let path = std::path::Path::new(FLEET_PATH);
        assert!(path.is_absolute(), "{FLEET_PATH}");
        assert!(path.exists(), "{FLEET_PATH}");
        assert!(path.parent().unwrap().join("Cargo.lock").exists());
    }

    #[test]
    fn migrates_schema1_and_scrubs_single_core_speedup() {
        let legacy = Value::obj([
            ("bench".into(), Value::Str("fleet".into())),
            ("wall_s".into(), Value::Float(0.01)),
            ("schema".into(), Value::UInt(1)),
        ]);
        let dir = std::env::temp_dir().join("lat-benchfile-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, legacy.to_pretty_string(2)).expect("seed file");
        let entries = read_entries(path);
        assert_eq!(entries.len(), 1, "schema-1 record wraps into entries");

        let sweep = Value::obj([
            ("bench".into(), Value::Str("parallel-sweep".into())),
            ("host_parallelism".into(), Value::UInt(1)),
            ("speedup".into(), Value::Float(0.78)),
        ]);
        write(path, "test", vec![sweep]).expect("write schema-2");
        let migrated = read_entries(path);
        let Value::Obj(e) = &migrated[0] else {
            panic!("entry is an object")
        };
        assert!(
            e.get("speedup").is_none(),
            "single-core speedup must be scrubbed"
        );
        assert_eq!(
            e.get("speedup_note"),
            Some(&Value::Str(SPEEDUP_NOTE.into()))
        );
        // Multi-core entries keep their speedup.
        let ok = Value::obj([
            ("bench".into(), Value::Str("parallel-sweep".into())),
            ("host_parallelism".into(), Value::UInt(8)),
            ("speedup".into(), Value::Float(3.2)),
        ]);
        write(path, "test", vec![ok]).expect("write schema-2");
        let kept = read_entries(path);
        let Value::Obj(e) = &kept[0] else {
            panic!("entry is an object")
        };
        assert!(e.get("speedup").is_some());
        let _ = std::fs::remove_file(path);
    }
}
