//! On-disk format for `tierctl snapshot` / `tierctl resume`.
//!
//! A machine-level [`MachineSnapshot`] frame is self-describing about
//! *machine* state (format version, configuration fingerprint,
//! checksum — see `tiersim::snapshot` and DESIGN.md §14) but knows
//! nothing about the *cell* that produced it: which workload at which
//! scale and seed, which policy, how large the fast tier was. A
//! [`CellSnapshot`] wraps the frame with exactly that metadata so
//! `tierctl resume --from FILE` can rebuild the cell without the
//! operator re-typing (and possibly mistyping) the original flags.
//!
//! The wrapper deliberately stores the *recipe* (workload name, scale,
//! seed), not workload data: workloads are deterministic functions of
//! the recipe, and the machine frame's fast-forward restore replays
//! the consumed prefix of each stream.

use pact_stats::{ByteReader, ByteWriter, CodecError};
use pact_tiersim::MachineSnapshot;
use pact_workloads::suite;

/// File magic for cell snapshots (`tierctl snapshot` output).
pub const CELL_MAGIC: [u8; 8] = *b"PACTCELL";

/// Cell-wrapper format version. Bumped when the metadata layout
/// changes; readers reject other versions with a structured error.
pub const CELL_VERSION: u32 = 1;

/// A machine snapshot frame plus the cell recipe that produced it.
#[derive(Debug, Clone)]
pub struct CellSnapshot {
    /// Workload name (`pact_workloads::suite::build` key).
    pub workload: String,
    /// Policy name (`make_policy` key).
    pub policy: String,
    /// Workload scale: `"smoke"` or `"paper"`.
    pub scale: String,
    /// Base RNG seed of the cell.
    pub seed: u64,
    /// Fast-tier capacity in base pages.
    pub fast_pages: u64,
    /// Whether the cell ran with 2 MiB huge pages.
    pub thp: bool,
    /// Whether the `[fast, slow]` page-stall oracle was armed.
    pub track_stalls: bool,
    /// The machine-level snapshot frame.
    pub frame: MachineSnapshot,
}

impl CellSnapshot {
    /// Serializes the cell snapshot for writing to disk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for b in CELL_MAGIC {
            w.put_u8(b);
        }
        w.put_u32(CELL_VERSION);
        w.put_str(&self.workload);
        w.put_str(&self.policy);
        w.put_str(&self.scale);
        w.put_u64(self.seed);
        w.put_u64(self.fast_pages);
        w.put_bool(self.thp);
        w.put_bool(self.track_stalls);
        w.put_bytes(self.frame.as_bytes());
        w.into_bytes()
    }

    /// Parses a cell snapshot file.
    ///
    /// # Errors
    ///
    /// Returns a one-line description on bad magic, an unsupported
    /// wrapper version, an unknown workload or scale, a truncated
    /// file, or an embedded machine frame whose own header does not
    /// parse (full frame verification — checksum, configuration
    /// fingerprint — happens at restore).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let e = |e: CodecError| format!("cell snapshot: {e}");
        let mut r = ByteReader::new(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.get_u8().map_err(e)?;
        }
        if magic != CELL_MAGIC {
            return Err("not a cell snapshot (bad magic)".into());
        }
        let version = r.get_u32().map_err(e)?;
        if version != CELL_VERSION {
            return Err(format!(
                "unsupported cell snapshot version {version} (this build reads {CELL_VERSION})"
            ));
        }
        let workload = r.get_str().map_err(e)?.to_string();
        suite::check_known(&workload).map_err(|e| format!("cell snapshot: {e}"))?;
        let policy = r.get_str().map_err(e)?.to_string();
        let scale = r.get_str().map_err(e)?.to_string();
        if scale != "smoke" && scale != "paper" {
            return Err(format!("unknown workload scale {scale:?} in cell snapshot"));
        }
        let seed = r.get_u64().map_err(e)?;
        let fast_pages = r.get_u64().map_err(e)?;
        let thp = r.get_bool().map_err(e)?;
        let track_stalls = r.get_bool().map_err(e)?;
        let frame = MachineSnapshot::from_bytes(r.get_bytes().map_err(e)?.to_vec());
        r.finish().map_err(e)?;
        // Light header validation now; the restore path re-verifies the
        // checksum and configuration fingerprint over the full frame.
        frame
            .window()
            .map_err(|err| format!("embedded machine frame is invalid: {err}"))?;
        Ok(Self {
            workload,
            policy,
            scale,
            seed,
            fast_pages,
            thp,
            track_stalls,
            frame,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_tiersim::{FirstTouch, Machine, MachineConfig, Tracer};
    use pact_workloads::suite::{build, Scale};

    fn sample_frame() -> MachineSnapshot {
        let wl = build("gups", Scale::Smoke, 3);
        let mut cfg = MachineConfig::skylake_cxl(64);
        cfg.snapshot_every = 2;
        let m = Machine::new(cfg).unwrap();
        let mut frames = Vec::new();
        let mut tracer = Tracer::disabled();
        m.try_run_snapshotting(
            &[wl.as_ref()],
            &mut FirstTouch::new(),
            &mut tracer,
            &mut |s| frames.push(s),
        )
        .unwrap();
        frames.remove(0)
    }

    #[test]
    fn cell_snapshot_round_trips() {
        let frame = sample_frame();
        let cell = CellSnapshot {
            workload: "gups".into(),
            policy: "firsttouch".into(),
            scale: "smoke".into(),
            seed: 3,
            fast_pages: 64,
            thp: false,
            track_stalls: true,
            frame,
        };
        let bytes = cell.to_bytes();
        let back = CellSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.workload, "gups");
        assert_eq!(back.policy, "firsttouch");
        assert_eq!(back.scale, "smoke");
        assert_eq!(back.seed, 3);
        assert_eq!(back.fast_pages, 64);
        assert!(!back.thp);
        assert!(back.track_stalls);
        assert_eq!(back.frame.as_bytes(), cell.frame.as_bytes());
    }

    /// A PACT cell on `workload` around [`sample_frame`].
    fn sample_cell(workload: &str) -> CellSnapshot {
        CellSnapshot {
            workload: workload.into(),
            policy: "pact".into(),
            scale: "smoke".into(),
            seed: 1,
            fast_pages: 32,
            thp: false,
            track_stalls: false,
            frame: sample_frame(),
        }
    }

    #[test]
    fn corrupt_cells_are_rejected() {
        let cell = sample_cell("gups");
        let good = cell.to_bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(CellSnapshot::from_bytes(&bad)
            .unwrap_err()
            .contains("magic"));
        // Future wrapper version.
        let mut bumped = good.clone();
        bumped[8] = 0x7f;
        let err = CellSnapshot::from_bytes(&bumped).unwrap_err();
        assert!(err.contains("version"), "{err}");
        // Truncation anywhere fails closed.
        for cut in [10, good.len() / 2, good.len() - 1] {
            assert!(CellSnapshot::from_bytes(&good[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected.
        let mut long = good.clone();
        long.push(0);
        assert!(CellSnapshot::from_bytes(&long).is_err());
        // A gutted machine frame is caught by the embedded header check.
        let mut cell2 = cell.clone();
        cell2.frame = MachineSnapshot::from_bytes(vec![0; 10]);
        assert!(CellSnapshot::from_bytes(&cell2.to_bytes())
            .unwrap_err()
            .contains("machine frame"));
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let bytes = sample_cell("nope").to_bytes();
        let err = CellSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("unknown workload 'nope'"), "{err}");
    }
}
