//! The checkpoint snapshot model and its deterministic wire format.
//!
//! A [`Snapshot`] captures everything a replacement pod needs to resume a
//! job: the parameter-server state (real model parameters when the job runs
//! in real-math mode, a sizing figure either way), the DDS shard queue with
//! per-slot TODO/DOING/DONE states, and per-worker progress watermarks.
//!
//! Serialization is a hand-rolled line-oriented text format — the workspace
//! has no serde, and byte-determinism is a contract here: two
//! same-seed runs must export byte-identical snapshots, and the determinism
//! tests compare digests across runs. Floats are encoded as IEEE-754 bit
//! patterns in hex so the round-trip is lossless. The digest hashes the
//! fields directly, so a capture never renders the text.

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

    /// Deterministic line-oriented serialization. Every list line carries its
    /// element count up front so the parser can validate without lookahead.
    pub fn serialize(&self) -> String {
        let mut out = String::with_capacity(256 + self.ps.params.len() * 9);
        out.push_str("antdt-ckpt v1\n");
        let m = &self.meta;
        out.push_str(&format!(
            "meta {} {} {} {}\n",
            m.seed, m.taken_at_us, m.iteration, m.samples_done
        ));
        out.push_str(&format!("ps {} {}", self.ps.model_bytes, self.ps.params.len()));
        for p in &self.ps.params {
            out.push_str(&format!(" {:08x}", p.to_bits()));
        }
        out.push('\n');
        match &self.dds {
            None => out.push_str("dds none\n"),
            Some(d) => {
                out.push_str(&format!(
                    "dds {} {} {} {}\n",
                    d.epochs_enqueued,
                    d.done_total,
                    d.queue.len(),
                    d.state.len()
                ));
                out.push_str("queue");
                for q in &d.queue {
                    out.push_str(&format!(" {q}"));
                }
                out.push('\n');
                out.push_str("state");
                for s in &d.state {
                    out.push_str(&format!(" {s}"));
                }
                out.push('\n');
            }
        }
        out.push_str(&format!("workers {}\n", self.workers.len()));
        for w in &self.workers {
            out.push_str(&format!("w {} {} {}\n", w.worker, w.gen, w.samples));
        }
        out.push_str("end\n");
        out
    }

    /// Parse a serialized snapshot. Errors are strings (no error-type dep in
    /// a leaf crate) and name the offending line.
    pub fn deserialize(text: &str) -> Result<Snapshot, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty snapshot")?;
        if header != "antdt-ckpt v1" {
            return Err(format!("bad header: {header:?}"));
        }

        let meta_line = lines.next().ok_or("missing meta line")?;
        let mv = tagged_ints(meta_line, "meta", 4)?;
        let meta =
            SnapshotMeta { seed: mv[0], taken_at_us: mv[1], iteration: mv[2], samples_done: mv[3] };

        let ps_line = lines.next().ok_or("missing ps line")?;
        let mut it = ps_line.split_whitespace();
        expect_tag(&mut it, "ps", ps_line)?;
        let model_bytes = next_u64(&mut it, ps_line)?;
        let n_params = next_u64(&mut it, ps_line)? as usize;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let hex = it.next().ok_or_else(|| format!("short params line: {ps_line:?}"))?;
            let bits =
                u32::from_str_radix(hex, 16).map_err(|e| format!("bad param hex {hex:?}: {e}"))?;
            params.push(f32::from_bits(bits));
        }
        if it.next().is_some() {
            return Err(format!("trailing tokens on ps line: {ps_line:?}"));
        }

        let dds_line = lines.next().ok_or("missing dds line")?;
        let dds = if dds_line == "dds none" {
            None
        } else {
            let dv = tagged_ints(dds_line, "dds", 4)?;
            let queue = tagged_list(lines.next().ok_or("missing queue line")?, "queue", dv[2])?;
            let state_raw = tagged_list(lines.next().ok_or("missing state line")?, "state", dv[3])?;
            let state = state_raw
                .into_iter()
                .map(|s| u8::try_from(s).map_err(|_| format!("state byte out of range: {s}")))
                .collect::<Result<Vec<u8>, String>>()?;
            Some(DdsSnapshot { epochs_enqueued: dv[0] as u32, done_total: dv[1], queue, state })
        };

        let wl = lines.next().ok_or("missing workers line")?;
        let n_workers = tagged_ints(wl, "workers", 1)?[0];
        let mut workers = Vec::with_capacity(n_workers as usize);
        for _ in 0..n_workers {
            let line = lines.next().ok_or("missing worker mark line")?;
            let wv = tagged_ints(line, "w", 3)?;
            workers.push(WorkerMark { worker: wv[0] as u32, gen: wv[1] as u32, samples: wv[2] });
        }

        match lines.next() {
            Some("end") => {}
            other => return Err(format!("missing end marker, got {other:?}")),
        }
        if lines.next().is_some() {
            return Err("trailing content after end marker".into());
        }
        Ok(Snapshot { meta, ps: PsState { params, model_bytes }, dds, workers })
    }

    /// FNV-1a 64-bit digest over every field's little-endian bytes, lists
    /// prefixed by their length and the optional DDS section by a presence
    /// byte — cheap, deterministic and stable across platforms; used to
    /// assert same-seed runs capture identical snapshots without building
    /// the serialized text on every capture.
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

fn expect_tag<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    tag: &str,
    line: &str,
) -> Result<(), String> {
    match it.next() {
        Some(t) if t == tag => Ok(()),
        _ => Err(format!("expected {tag:?} line, got {line:?}")),
    }
}

fn next_u64<'a>(it: &mut impl Iterator<Item = &'a str>, line: &str) -> Result<u64, String> {
    it.next()
        .ok_or_else(|| format!("short line: {line:?}"))?
        .parse()
        .map_err(|e| format!("bad integer on {line:?}: {e}"))
}

/// Parse `tag v1 v2 ... vN` with exactly `n` integer fields.
fn tagged_ints(line: &str, tag: &str, n: usize) -> Result<Vec<u64>, String> {
    let mut it = line.split_whitespace();
    expect_tag(&mut it, tag, line)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(next_u64(&mut it, line)?);
    }
    if it.next().is_some() {
        return Err(format!("trailing tokens on {tag:?} line: {line:?}"));
    }
    Ok(vals)
}

/// Parse `tag v1 ... vN` where N was announced on a prior line.
fn tagged_list(line: &str, tag: &str, n: u64) -> Result<Vec<u64>, String> {
    let mut it = line.split_whitespace();
    expect_tag(&mut it, tag, line)?;
    let mut vals = Vec::with_capacity(n as usize);
    for _ in 0..n {
        vals.push(next_u64(&mut it, line)?);
    }
    if it.next().is_some() {
        return Err(format!("trailing tokens on {tag:?} line: {line:?}"));
    }
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_sim::rng::StdRng;

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

    #[test]
    fn round_trip_identity() {
        let s = sample();
        let text = s.serialize();
        let back = Snapshot::deserialize(&text).unwrap();
        assert_eq!(s, back);
        assert_eq!(text, back.serialize());
    }

    #[test]
    fn round_trip_without_dds() {
        let mut s = sample();
        s.dds = None;
        s.ps.params.clear();
        let back = Snapshot::deserialize(&s.serialize()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn serialization_is_deterministic_and_digest_stable() {
        let s = sample();
        assert_eq!(s.serialize(), s.serialize());
        assert_eq!(s.digest(), s.digest());
        let mut other = sample();
        other.meta.samples_done += 1;
        assert_ne!(s.digest(), other.digest());
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

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(Snapshot::deserialize("").is_err());
        assert!(Snapshot::deserialize("antdt-ckpt v2\n").is_err());
        let good = sample().serialize();
        let truncated = &good[..good.len() - 5];
        assert!(Snapshot::deserialize(truncated).is_err());
        let tampered = good.replace("state 2", "state 9999");
        assert!(Snapshot::deserialize(&tampered).is_err());
    }

    fn arb_snapshot(rng: &mut StdRng) -> Snapshot {
        let params =
            (0..rng.gen_range(0..64usize)).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
        let dds = rng.gen_bool(0.5).then(|| DdsSnapshot {
            epochs_enqueued: rng.next_u64() as u32,
            done_total: rng.next_u64(),
            queue: (0..rng.gen_range(0..32usize)).map(|_| rng.next_u64()).collect(),
            state: (0..rng.gen_range(0..64usize)).map(|_| rng.gen_range(0u32..3) as u8).collect(),
        });
        let workers = (0..rng.gen_range(0..8usize))
            .map(|_| WorkerMark {
                worker: rng.next_u64() as u32,
                gen: rng.next_u64() as u32,
                samples: rng.next_u64(),
            })
            .collect();
        Snapshot {
            meta: SnapshotMeta {
                seed: rng.next_u64(),
                taken_at_us: rng.next_u64(),
                iteration: rng.next_u64(),
                samples_done: rng.next_u64(),
            },
            ps: PsState { params, model_bytes: rng.next_u64() },
            dds,
            workers,
        }
    }

    /// The satellite guarantee: serialize -> deserialize is identity for
    /// arbitrary snapshots, including NaN parameter bit patterns (the hex
    /// encoding is bit-exact, and `PartialEq` on `f32` would lie for NaN, so
    /// compare re-serialized bytes instead). 256 seeded cases.
    #[test]
    fn prop_round_trip_identity() {
        for seed in 0..256 {
            let s = arb_snapshot(&mut StdRng::seed_from_u64(seed));
            let text = s.serialize();
            let back = Snapshot::deserialize(&text).unwrap();
            assert_eq!(text, back.serialize(), "seed {seed}");
        }
    }
}
