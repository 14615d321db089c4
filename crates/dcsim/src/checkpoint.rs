//! The one on-disk codec for [`EngineState`] checkpoints, shared by the
//! batch runner (`repro --resume`) and the resident service
//! (`coca-serve run --resume`).
//!
//! A checkpoint file is one JSON object: a format marker, a version, and
//! the engine state,
//!
//! ```text
//! {"format":"coca-engine-checkpoint","version":2,"state":{"t":…,"lanes":[…]}}
//! ```
//!
//! Files written before the marker existed (a bare `EngineState` whose
//! lanes carried their whole record history and COCA's `q_history`) are
//! rejected with [`CheckpointError::UnsupportedVersion`] rather than
//! half-parsed. Writes are durable ([`write_atomic`]): the JSON goes to
//! `<path>.tmp`, which is `fsync`ed, renamed over `path`, and then the
//! parent directory is `fsync`ed so the rename itself survives a power
//! loss.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Value};

use crate::engine::EngineState;
use crate::SimError;

/// Format marker at the head of every checkpoint file.
const CHECKPOINT_FORMAT: &str = "coca-engine-checkpoint";

/// Current checkpoint format version. Version 1 is the unmarked format
/// whose lanes carried their full record history.
const CHECKPOINT_VERSION: i64 = 2;

/// Why a checkpoint could not be written, read, or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// File or directory the operation was on.
        path: PathBuf,
        /// What was attempted (`read`, `write`, `rename`, …).
        op: &'static str,
        /// The OS error.
        message: String,
    },
    /// The text is not a checkpoint (truncated, not JSON, wrong shape),
    /// or the state cannot be written as one (a non-finite float).
    Malformed(String),
    /// The file lacks the format marker or carries another version.
    UnsupportedVersion {
        /// The version found, or `None` for an unmarked (version 1) file.
        found: Option<i64>,
        /// The version this build reads.
        expected: i64,
    },
    /// A lane whose sink keeps its history got a state whose record count
    /// is not the checkpoint slot — typically a state-only service
    /// checkpoint resumed into a batch lane, which would silently lose the
    /// run's prefix.
    HistoryLength {
        /// Lane (policy) name.
        lane: String,
        /// Records the state carries for the lane.
        records: usize,
        /// Slot the state was taken at.
        t: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, op, message } => {
                write!(f, "cannot {op} {}: {message}", path.display())
            }
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::UnsupportedVersion { found, expected } => {
                let found = found.map_or_else(
                    || "an unmarked (version 1)".to_string(),
                    |v| format!("version {v}"),
                );
                write!(
                    f,
                    "{found} checkpoint; this build reads `{CHECKPOINT_FORMAT}` version \
                     {expected} only"
                )
            }
            CheckpointError::HistoryLength { lane, records, t } => write!(
                f,
                "lane `{lane}` keeps its record history but the checkpoint at slot {t} \
                 carries {records} records for it"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

/// The text in front of the state's JSON; the file ends with one `}`
/// after it. Splicing the marker around the state's JSON, rather than
/// serializing one wrapper value, keeps a batch checkpoint's record
/// history from being held as two value trees or two strings at once.
fn header() -> String {
    format!(r#"{{"format":"{CHECKPOINT_FORMAT}","version":{CHECKPOINT_VERSION},"state":"#)
}

/// Parses checkpoint-file text written by [`write_checkpoint`].
fn decode_checkpoint(text: &str) -> Result<EngineState, CheckpointError> {
    let file: Value =
        serde_json::from_str(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    if file.as_map().is_none() {
        return Err(CheckpointError::Malformed("top level is not an object".to_string()));
    }
    let version = match file.get_field("format") {
        Some(Value::Str(f)) if f == CHECKPOINT_FORMAT => file.get_field("version"),
        _ => None,
    };
    match version {
        Some(Value::Int(v)) if *v == CHECKPOINT_VERSION => {}
        Some(Value::Int(v)) => {
            return Err(CheckpointError::UnsupportedVersion {
                found: Some(*v),
                expected: CHECKPOINT_VERSION,
            })
        }
        _ => {
            return Err(CheckpointError::UnsupportedVersion {
                found: None,
                expected: CHECKPOINT_VERSION,
            })
        }
    }
    let state = file
        .get_field("state")
        .ok_or_else(|| CheckpointError::Malformed("missing `state`".to_string()))?;
    EngineState::deserialize_value(state).map_err(|e| CheckpointError::Malformed(e.to_string()))
}

/// Writes `state` to `path` durably and atomically through
/// [`write_atomic`]. A crash at any point leaves either the previous
/// checkpoint or the new one, never a torn file.
pub fn write_checkpoint(path: &Path, state: &EngineState) -> Result<(), CheckpointError> {
    let json =
        serde_json::to_string(state).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    write_atomic(path, &[header().as_bytes(), json.as_bytes(), b"}"])
}

/// Writes the concatenation of `parts` to `path` durably and atomically:
/// `<path>.tmp` is written and `fsync`ed, renamed over `path`, and the
/// parent directory is `fsync`ed. Creates the parent directory if needed.
/// The one atomic-write implementation behind engine checkpoints and the
/// batch runner's result and status files.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> Result<(), CheckpointError> {
    let io = |path: &Path, op: &'static str| {
        let path = path.to_path_buf();
        move |e: std::io::Error| CheckpointError::Io { path, op, message: e.to_string() }
    };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(io(dir, "create"))?;
    }
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut file = File::create(&tmp).map_err(io(&tmp, "create"))?;
    parts.iter().try_for_each(|part| file.write_all(part)).map_err(io(&tmp, "write"))?;
    file.sync_all().map_err(io(&tmp, "fsync"))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io(&tmp, "rename"))?;
    sync_dir(dir.unwrap_or(Path::new(".")))
}

/// `fsync`s a directory so a rename inside it is durable. Directories
/// cannot be opened as files on every platform; there this is a no-op.
fn sync_dir(dir: &Path) -> Result<(), CheckpointError> {
    if cfg!(unix) {
        File::open(dir).and_then(|d| d.sync_all()).map_err(|e| CheckpointError::Io {
            path: dir.to_path_buf(),
            op: "fsync",
            message: e.to_string(),
        })?;
    }
    Ok(())
}

/// Reads a checkpoint written by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<EngineState, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
        path: path.to_path_buf(),
        op: "read",
        message: e.to_string(),
    })?;
    decode_checkpoint(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LaneState;

    fn state(records: usize) -> EngineState {
        let record = crate::metrics::SlotRecord {
            t: 0,
            arrival_rate: 1.0,
            price: 0.05,
            onsite: 0.0,
            offsite: 1.0,
            facility_energy: 2.0,
            brown_energy: 2.0,
            switching_energy: 0.0,
            electricity_cost: 0.1,
            delay_cost: 0.1,
            total_cost: 0.2,
            delay: 0.5,
            servers_on: 4,
        };
        EngineState {
            t: 7,
            rec_total: 10.0,
            overestimation: 1.0,
            lanes: vec![LaneState {
                policy: "coca".to_string(),
                prev_levels: vec![1, 0],
                policy_state: Value::Map(vec![("deficit".to_string(), Value::Float(3.5))]),
                records: vec![record; records],
            }],
        }
    }

    fn encode_checkpoint(state: &EngineState) -> Result<String, serde::Error> {
        Ok(format!("{}{}}}", header(), serde_json::to_string(state)?))
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("coca-dcsim-checkpoint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("engine.ckpt.json")
    }

    #[test]
    fn round_trips_through_a_file_and_leaves_no_temp_file() {
        let path = scratch("roundtrip");
        let st = state(7);
        write_checkpoint(&path, &st).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), st);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(r#"{"format":"coca-engine-checkpoint","version":2,"#), "{text}");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("engine.ckpt.json")]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn truncated_file_is_malformed() {
        let text = encode_checkpoint(&state(0)).unwrap();
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            match decode_checkpoint(&text[..cut]) {
                Err(CheckpointError::Malformed(_)) => {}
                other => panic!("cut at {cut}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn pre_marker_checkpoint_names_the_expected_version() {
        // The old format: a bare EngineState with the lane's record history.
        let old = serde_json::to_string(&state(7)).unwrap();
        let err = decode_checkpoint(&old).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion { found: None, expected: 2 });
        let msg = SimError::from(err).to_string();
        assert!(msg.contains("version 2"), "{msg}");

        let newer =
            encode_checkpoint(&state(0)).unwrap().replace(r#""version":2"#, r#""version":3"#);
        assert_eq!(
            decode_checkpoint(&newer).unwrap_err(),
            CheckpointError::UnsupportedVersion { found: Some(3), expected: 2 }
        );
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = scratch("missing");
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::Io { op: "read", .. })));
    }
}
