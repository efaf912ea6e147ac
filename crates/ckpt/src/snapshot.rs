//! The checkpoint snapshot model.
//!
//! A [`Snapshot`] captures everything a replacement pod needs to resume a
//! job: the parameter-server state (real model parameters when the job runs
//! in real-math mode, a sizing figure either way), the DDS shard queue with
//! per-slot TODO/DOING/DONE states, and per-worker progress watermarks.
//! Snapshots live in memory; [`Snapshot::digest`] hashes their fields so the
//! determinism tests can compare same-seed captures across runs.

/// Identity and progress marks of the run that took the snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotMeta {
    /// Job seed — a restore into a different seed is almost certainly a bug.
    pub seed: u64,
    /// Virtual time (µs) at which the snapshot was captured.
    pub taken_at_us: u64,
    /// Global iteration counter at capture.
    pub iteration: u64,
    /// Samples committed at capture.
    pub samples_done: u64,
}

/// Parameter-server state. `params` is empty in simulated-math mode (there
/// are no real parameters to save); `model_bytes` carries the modeled
/// parameter footprint either way so the storage-tier cost is realistic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PsState {
    /// Real model parameters (real-math mode), bit-exact across a round-trip.
    pub params: Vec<f32>,
    /// Modeled size of the parameter block in bytes (drives I/O cost).
    pub model_bytes: u64,
}

/// The DDS shard queue frozen at capture: which slots were pending and the
/// state of every slot materialized so far. Slot indexing matches the DDS
/// (`slot = epoch * K + shard`); `state` uses 0=TODO, 1=DOING, 2=DONE.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DdsSnapshot {
    /// Epochs whose shards had been enqueued at capture.
    pub epochs_enqueued: u32,
    /// Slots DONE at capture.
    pub done_total: u64,
    /// Pending queue (slot ids, front first).
    pub queue: Vec<u64>,
    /// Per-slot state byte for every slot materialized at capture.
    pub state: Vec<u8>,
}

/// Per-worker progress watermark at capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerMark {
    /// Worker index.
    pub worker: u32,
    /// Incarnation (generation) at capture.
    pub gen: u32,
    /// Samples this worker had consumed at capture (DDS consumption stat).
    pub samples: u64,
}

/// A full checkpoint: meta + PS state + optional DDS queue + worker marks.
/// `dds` is `None` when the job runs even-partition data (nothing to rewind).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub meta: SnapshotMeta,
    pub ps: PsState,
    pub dds: Option<DdsSnapshot>,
    pub workers: Vec<WorkerMark>,
}

impl Snapshot {
    /// Modeled on-storage footprint in bytes: the parameter block plus the
    /// queue/state tables and fixed per-record overheads. This is what the
    /// [`StorageTier`](crate::StorageTier) cost model charges for.
    pub fn size_bytes(&self) -> u64 {
        let mut b = 64; // header + meta
        b += self.ps.model_bytes.max(self.ps.params.len() as u64 * 4);
        if let Some(d) = &self.dds {
            b += 16 + d.queue.len() as u64 * 8 + d.state.len() as u64;
        }
        b += self.workers.len() as u64 * 16;
        b
    }

    /// Heap bytes this in-memory image owns (its lists' capacities) — what
    /// a run holding it is charged in memory accounting, as opposed to the
    /// modeled storage footprint [`Snapshot::size_bytes`].
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let dds = self
            .dds
            .as_ref()
            .map_or(0, |d| d.queue.capacity() * size_of::<u64>() + d.state.capacity());
        self.ps.params.capacity() * size_of::<f32>()
            + dds
            + self.workers.capacity() * size_of::<WorkerMark>()
    }

    /// FNV-1a 64-bit digest over every field's little-endian bytes, lists
    /// prefixed by their length and the optional DDS section by a presence
    /// byte — cheap, deterministic and stable across platforms; used to
    /// assert same-seed runs capture identical snapshots.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        let m = &self.meta;
        for v in [m.seed, m.taken_at_us, m.iteration, m.samples_done, self.ps.model_bytes] {
            h.u64(v);
        }
        h.u64(self.ps.params.len() as u64);
        for p in &self.ps.params {
            h.bytes(&p.to_bits().to_le_bytes());
        }
        match &self.dds {
            None => h.bytes(&[0]),
            Some(d) => {
                h.bytes(&[1]);
                h.bytes(&d.epochs_enqueued.to_le_bytes());
                h.u64(d.done_total);
                h.u64(d.queue.len() as u64);
                for &q in &d.queue {
                    h.u64(q);
                }
                h.u64(d.state.len() as u64);
                h.bytes(&d.state);
            }
        }
        h.u64(self.workers.len() as u64);
        for w in &self.workers {
            h.bytes(&w.worker.to_le_bytes());
            h.bytes(&w.gen.to_le_bytes());
            h.u64(w.samples);
        }
        h.0
    }
}

/// FNV-1a, 64-bit.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            meta: SnapshotMeta {
                seed: 11,
                taken_at_us: 600_000_000,
                iteration: 42,
                samples_done: 172_032,
            },
            ps: PsState {
                params: vec![0.5, -1.25, 3.0e-7, f32::MIN_POSITIVE],
                model_bytes: 1 << 20,
            },
            dds: Some(DdsSnapshot {
                epochs_enqueued: 2,
                done_total: 3,
                queue: vec![5, 6, 9],
                state: vec![2, 2, 2, 1, 0, 0, 1, 0, 0, 0],
            }),
            workers: vec![
                WorkerMark { worker: 0, gen: 0, samples: 90_112 },
                WorkerMark { worker: 1, gen: 1, samples: 81_920 },
            ],
        }
    }

    /// The digest covers every field: flipping any one of them, or moving a
    /// value across a list boundary, changes it.
    #[test]
    fn digest_sees_every_field_and_list_boundary() {
        let base = sample().digest();
        let edits: Vec<fn(&mut Snapshot)> = vec![
            |s| s.meta.seed += 1,
            |s| s.meta.taken_at_us += 1,
            |s| s.meta.iteration += 1,
            |s| s.meta.samples_done += 1,
            |s| s.ps.model_bytes += 1,
            |s| s.ps.params[1] = -s.ps.params[1],
            |s| s.dds = None,
            |s| s.dds.as_mut().unwrap().epochs_enqueued += 1,
            |s| s.dds.as_mut().unwrap().done_total += 1,
            |s| s.dds.as_mut().unwrap().queue[0] += 1,
            |s| {
                // One queue slot traded for a state byte.
                let d = s.dds.as_mut().unwrap();
                d.queue.pop();
                d.state.insert(0, 9);
            },
            |s| s.dds.as_mut().unwrap().state[3] = 2,
            |s| s.workers[1].worker += 1,
            |s| s.workers[1].gen += 1,
            |s| s.workers[0].samples += 1,
            |s| {
                s.workers.pop();
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut s = sample();
            edit(&mut s);
            assert_ne!(s.digest(), base, "edit {i} left the digest unchanged");
        }
    }

    #[test]
    fn size_accounts_for_params_and_queue() {
        let s = sample();
        let base = s.size_bytes();
        let mut bigger = sample();
        bigger.dds.as_mut().unwrap().queue.push(17);
        assert_eq!(bigger.size_bytes(), base + 8);
    }
}
