//! Storage-tier cost model: where a snapshot lands decides how long the
//! write drains and how long a restore read blocks the replacement pod.
//!
//! Numbers are deliberately coarse — the subsystem's experiments care about
//! the *shape* of the tradeoff (fast-but-local vs slow-but-durable), not
//! about any particular device.

/// A checkpoint storage target with asymmetric read/write bandwidth and
/// fixed per-operation latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageTier {
    /// Node-local NVMe-class disk: fast, but a lost node loses it too —
    /// in a real system this tier is paired with background upload; here it
    /// simply models the cheap end of the spectrum.
    LocalDisk,
    /// Remote object store (S3/OSS-class): durable, high-latency, modest
    /// per-stream bandwidth.
    ObjectStore,
}

impl StorageTier {
    /// (write bw B/s, read bw B/s, write latency s, read latency s)
    fn model(&self) -> (f64, f64, f64, f64) {
        match *self {
            StorageTier::LocalDisk => (1.2e9, 2.0e9, 0.002, 0.001),
            StorageTier::ObjectStore => (150.0e6, 300.0e6, 0.12, 0.08),
        }
    }

    /// Seconds for a `bytes`-sized snapshot write to fully drain.
    pub fn write_secs(&self, bytes: u64) -> f64 {
        let (wbw, _, wlat, _) = self.model();
        wlat + bytes as f64 / wbw
    }

    /// Seconds for a restore to read a `bytes`-sized snapshot back.
    pub fn read_secs(&self, bytes: u64) -> f64 {
        let (_, rbw, _, rlat) = self.model();
        rlat + bytes as f64 / rbw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_disk_beats_object_store() {
        let (disk, obj) = (StorageTier::LocalDisk, StorageTier::ObjectStore);
        let bytes = 512 << 20;
        assert!(disk.write_secs(bytes) < obj.write_secs(bytes));
        assert!(disk.read_secs(bytes) < obj.read_secs(bytes));
    }

    #[test]
    fn latency_floors_small_writes() {
        let t = StorageTier::ObjectStore;
        assert!(t.write_secs(0) >= 0.12);
        assert!(t.read_secs(0) >= 0.08);
    }
}
