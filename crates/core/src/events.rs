//! The discrete-event vocabulary shared by the PS and AllReduce runtimes.
//! Every node-scoped event carries the node's *generation* (incarnation
//! counter); events addressed to a previous generation are stale — the node was
//! killed after they were scheduled — and are dropped on receipt.

/// The engine type every runtime drives.
pub type RtEngine = antdt_sim::Engine<Ev>;

// No equality derives: the engine orders events by its packed `(time, seq)`
// key alone, and nothing in the runtimes compares `Ev` values.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Worker `w` attempts to begin its next iteration.
    WorkerStart { w: u32, gen: u32 },
    /// Worker `w` finished computing iteration `iter`.
    WorkerComputeDone { w: u32, gen: u32, iter: u64 },
    /// Worker `w`'s pull of fresh parameters completed (ASP path).
    WorkerReady { w: u32, gen: u32 },
    /// Monitor aggregation + Controller decision tick.
    MonitorTick,
    /// A `KILL_RESTART` signal reached worker `w`.
    WorkerKill { w: u32, gen: u32 },
    /// Worker `w`'s replacement pod is up.
    WorkerRestart { w: u32, gen: u32 },
    /// A kill signal reached server `s`.
    ServerKill { s: u32, gen: u32 },
    /// Server `s`'s replacement pod is up (parameters restored).
    ServerRestart { s: u32, gen: u32 },
    /// Periodic checkpoint save.
    Checkpoint,
    /// Replay failover: the staged snapshot finished streaming back from the
    /// storage tier; apply the rewind (DDS queue, model parameters) at the
    /// restore instant, just before the replacement pod starts.
    CkptRestore,
    /// AllReduce round `round` ends (all ranks synchronized).
    RoundEnd { round: u64 },
    /// Injected chaos fault fires; `k` indexes `JobConfig::injections`.
    /// The target generation is resolved at fire time so a drill plan written
    /// against node ids stays valid across restarts.
    ChaosFault { k: u32 },
    /// A windowed chaos fault ends: restore the degraded link, lift the DDS
    /// outage, or stop dropping reports.
    ChaosLift { k: u32 },
    /// Liveness watchdog probe: abort the run (loudly, as `stalled`) when no
    /// progress has been made for `JobConfig::liveness_timeout`.
    LivenessCheck,
    /// A control-bus message (report, directive, ack) arrives or retries;
    /// `seq` keys the bus's in-flight envelope table. Only scheduled under a
    /// `Modeled` control channel — the `Ideal` channel delivers inline.
    BusMsg { seq: u64 },
}

impl Ev {
    /// Every kind's name, in declaration order: [`Ev::kind`] indexes it.
    pub const KINDS: [&'static str; 15] = [
        "WorkerStart",
        "WorkerComputeDone",
        "WorkerReady",
        "MonitorTick",
        "WorkerKill",
        "WorkerRestart",
        "ServerKill",
        "ServerRestart",
        "Checkpoint",
        "CkptRestore",
        "RoundEnd",
        "ChaosFault",
        "ChaosLift",
        "LivenessCheck",
        "BusMsg",
    ];

    /// This event's index in [`Ev::KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Ev::WorkerStart { .. } => 0,
            Ev::WorkerComputeDone { .. } => 1,
            Ev::WorkerReady { .. } => 2,
            Ev::MonitorTick => 3,
            Ev::WorkerKill { .. } => 4,
            Ev::WorkerRestart { .. } => 5,
            Ev::ServerKill { .. } => 6,
            Ev::ServerRestart { .. } => 7,
            Ev::Checkpoint => 8,
            Ev::CkptRestore => 9,
            Ev::RoundEnd { .. } => 10,
            Ev::ChaosFault { .. } => 11,
            Ev::ChaosLift { .. } => 12,
            Ev::LivenessCheck => 13,
            Ev::BusMsg { .. } => 14,
        }
    }
}
