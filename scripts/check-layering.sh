#!/usr/bin/env bash
# Control-plane layering lint: the crate DAG and the bus seam.
#
# Two properties, both load-bearing for the control-bus refactor:
#
#  1. Crate DAG — the component crates (monitor, controller, agent) are
#     leaves the runtime composes; none of them may depend on antdt-core,
#     and only antdt-core and antdt-agent may use the bus message types
#     (antdt_agent::bus) — every other crate talks to the runtime through
#     JobConfig/JobReport.
#
#  2. Bus seam — inside crates/core/src/runtime/, every Monitor, Controller
#     and Agent interaction goes through the ControlBus (runtime/bus.rs).
#     Direct calls on MetricStore / MitigationPolicy / Agent endpoints
#     anywhere else in runtime/ are forbidden, including constructing them.
#
# Grow the bus API rather than poking endpoints directly; the grep patterns
# below name the endpoint methods, so a new direct call fails loudly here.
set -euo pipefail

cd "$(dirname "$0")/.."
status=0

fail() {
    echo "FAIL  $1" >&2
    status=1
}

# ---- 1. Crate DAG ----------------------------------------------------------

for crate in monitor controller agent; do
    if grep -En 'antdt-core' "crates/$crate/Cargo.toml" >/dev/null; then
        fail "crates/$crate depends on antdt-core (component crates are leaves)"
    fi
done
# antdt-par is the fan-out under the whole experiment fabric: it must stay a
# std-only leaf (no workspace crates, no external deps) so nothing above it
# can leak back in and every layer may use it freely.
if grep -En '^\s*antdt-' crates/par/Cargo.toml >/dev/null; then
    fail "crates/par depends on a workspace crate (the fan-out is a std-only leaf)"
fi
# Its scoped fan-out joins every thread before returning and hands results
# back through one slot per input, so it needs no lifetime erasure, no
# sleep/wake protocol and no channel.
hits=$(grep -REn '\b(unsafe|Condvar|mpsc)\b' crates/par/src || true)
if [ -n "$hits" ]; then
    fail "unsafe, Condvar or mpsc in crates/par (the scoped fan-out needs none):
$hits"
fi
# `unsafe` is fenced to two files: the SSE lane backend of the FM kernels
# (crates/ml/src/lanes.rs), kept because the portable backend measured
# slower on the `dd_real` workload (DESIGN.md, the antdt-ml row), and the
# counting `GlobalAlloc` behind the allocation counts
# (crates/bench/src/alloc.rs), which cannot be written without it.
hits=$(grep -REn '\bunsafe\b' crates src tests examples --include='*.rs' \
    | grep -Ev '^(crates/ml/src/lanes\.rs|crates/bench/src/alloc\.rs):' || true)
if [ -n "$hits" ]; then
    fail "unsafe outside crates/ml/src/lanes.rs and crates/bench/src/alloc.rs:
$hits"
fi
# A run is one concrete type: the strategies are a closed enum, so the run
# (runtime/strategy.rs) and the what-if code that forks it hold no trait
# object. The mitigation policy, the one open seam, is the only `dyn` they
# may name.
hits=$(grep -Ewn 'dyn' crates/core/src/runtime/strategy.rs crates/core/src/whatif.rs \
    | grep -v 'dyn MitigationPolicy' || true)
if [ -n "$hits" ]; then
    fail "dyn in the run or the what-if fork path (a run is one concrete type over the closed Strategy enum):
$hits"
fi
# antdt-ckpt is the snapshot/cost-model leaf shared by the runtime and the
# DDS: like antdt-par it must stay std-only (dev-deps excluded) so a
# checkpoint format change can never drag runtime types into the leaves.
if sed -n '/^\[dependencies\]/,/^\[/p' crates/ckpt/Cargo.toml \
    | grep -E '^\s*[a-zA-Z]' >/dev/null; then
    fail "crates/ckpt has runtime dependencies (the checkpoint model is a std-only leaf)"
fi
# antdt-attr is the attribution ledger/blame leaf shared by the runtime and
# the analysis tooling: std-only (dev-deps excluded) so cause taxonomy and
# blame math stay importable from any layer without dragging runtime types.
if sed -n '/^\[dependencies\]/,/^\[/p' crates/attr/Cargo.toml \
    | grep -E '^\s*[a-zA-Z]' >/dev/null; then
    fail "crates/attr has runtime dependencies (the attribution ledger is a std-only leaf)"
fi

# antdt-whatif is the query-service layer ABOVE the runtime: it may depend
# only on antdt-core, antdt-attr, antdt-sim, antdt-par and antdt-telemetry,
# and nothing in the workspace may depend on it except the facade and the
# bench harness — the runtime must never know the cache exists (service
# disabled == zero behavior change).
whatif_deps=$(sed -n '/^\[dependencies\]/,/^\[/p' crates/whatif/Cargo.toml \
    | grep -oE '^\s*antdt-[a-z]+' | tr -d ' ' | sort)
whatif_allowed=$(printf 'antdt-attr\nantdt-core\nantdt-par\nantdt-sim\nantdt-telemetry\n')
if [ "$whatif_deps" != "$whatif_allowed" ]; then
    fail "crates/whatif dependency set changed (allowed: core, attr, sim, par, telemetry): $whatif_deps"
fi
offenders=$(grep -ln 'antdt-whatif' crates/*/Cargo.toml \
    | grep -v '^crates/bench/' | grep -v '^crates/whatif/' || true)
if [ -n "$offenders" ]; then
    fail "antdt-whatif imported below the service layer (only the facade and bench may): $offenders"
fi

# The workspace is hermetic: every dependency, dev and build ones included,
# resolves to a path inside the repository, so a clean checkout builds and
# tests with no registry. An entry must carry `path = ...` or inherit a
# `[workspace.dependencies]` entry (which is itself checked here). Dotted
# `[dependencies.<name>]` tables are rejected so this check can stay a
# line-by-line scan.
hits=$(awk '
    /^\[/ {
        deps = ($0 ~ /dependencies\]$/)
        if ($0 ~ /dependencies\.[^]]+\]$/) print FILENAME ":" FNR ": " $0
        next
    }
    deps && /^[[:space:]]*[A-Za-z0-9_-]/ \
        && !/path[[:space:]]*=/ && !/workspace[[:space:]]*=[[:space:]]*true/ {
        print FILENAME ":" FNR ": " $0
    }' Cargo.toml crates/*/Cargo.toml)
if [ -n "$hits" ]; then
    fail "dependency that does not resolve to a path (the workspace builds offline):
$hits"
fi

# The bus endpoint types live in antdt-agent; only the runtime (antdt-core)
# and the agent crate itself may import them.
offenders=$(grep -Rln 'antdt_agent::bus' crates --include='*.rs' \
    | grep -v '^crates/core/' | grep -v '^crates/agent/' || true)
if [ -n "$offenders" ]; then
    fail "antdt_agent::bus imported outside crates/core and crates/agent: $offenders"
fi

# A job is single-threaded: its DES loop runs on one thread, and threads
# meet only at `par_map` joins, where whole jobs (or their reports) move
# between workers. So the state inside a job — engine, DDS, Monitor, Agents,
# the runtime kernel, the span tracer and flight recorder — is plain owned
# data: no locks and no atomics. Shared handles would also make a forked job
# write into its parent's state.
lockfree_files=$(find crates/sim/src crates/dds/src crates/monitor/src crates/agent/src \
    crates/core/src/runtime -name '*.rs' | sort)
lockfree_files="$lockfree_files crates/telemetry/src/trace.rs crates/telemetry/src/flight.rs"
hits=$(for f in $lockfree_files; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
done | grep -E '\b(Mutex|RwLock)\b|std::sync::atomic' || true)
if [ -n "$hits" ]; then
    fail "lock or atomic inside a job's state (a job is single-threaded; threads meet only at par_map joins):
$hits"
fi

# ---- 2. Bus seam inside runtime/ -------------------------------------------

# Endpoint constructors and methods that only runtime/bus.rs may touch.
# `.store.` / `.policy.` / `.ctx.` / `.agent.` also catch field access on a
# resurrected direct endpoint handle.
endpoint_patterns=(
    'MetricStore::new\('
    'Agent::new\('
    '\.store\.'
    '\.policy\.'
    '\.ctx\.'
    '\.agent\.'
    '\.report_bpt\('
    '\.report_event\('
    '\.set_cluster_info\('
    '\.snapshot\('
    '\.drain_audit\('
    '\.take_due_into\('
    '\.has_due\('
    '\.deliver_directive\('
    '\.on_iteration\('
    '\.decide\('
)
runtime_files=$(find crates/core/src/runtime -name '*.rs' ! -name 'bus.rs' | sort)
for pat in "${endpoint_patterns[@]}"; do
    hits=$(grep -En "$pat" $runtime_files || true)
    if [ -n "$hits" ]; then
        fail "direct control-plane endpoint call in runtime/ outside bus.rs (pattern '$pat'):
$hits"
    fi
done

# One render per Controller decision: inside runtime/, an action is turned
# into text only by `render` in bus.rs, and the directive audit, the chaos
# application log and the telemetry instant share that one `Arc<str>`. A
# `{action:?}`-style render anywhere else in non-test runtime code would
# bring back a per-target render of an n-entry payload.
render_line=$(grep -n '^pub(crate) fn render(action: &Action)' crates/core/src/runtime/bus.rs \
    | cut -d: -f1 || true)
if [ -z "$render_line" ]; then
    fail "runtime/bus.rs lost its action render helper (pub(crate) fn render(action: &Action))"
fi
render_pat='\{(action|a|other|global):#?\?\}|"\{:#?\?\}", *&?(action|a|other|global)\b'
hits=$(for f in $(find crates/core/src/runtime -name '*.rs' | sort); do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
done | grep -E "$render_pat" \
    | grep -v "^crates/core/src/runtime/bus.rs:$((render_line + 1)):" || true)
if [ -n "$hits" ]; then
    fail "Controller action rendered in runtime/ outside bus::render (render once per decision):
$hits"
fi

if [ "$status" -ne 0 ]; then
    echo "layering check failed: route control-plane traffic through runtime/bus.rs" >&2
    exit "$status"
fi
echo "layering OK: crate DAG intact, all control-plane traffic goes through the bus"
