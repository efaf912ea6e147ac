#!/usr/bin/env python3
"""Write the committed perf trajectory point, BENCH_perfbench.json.

    python3 scripts/perfbench-trajectory.py                # both sections
    python3 scripts/perfbench-trajectory.py --deterministic-only
    python3 scripts/perfbench-trajectory.py --check        # what CI runs

Run from the repository root. The file has two sections:

* "deterministic": the `--record` fields of seeds 0-31 for every benchmark
  workload, the Rust line counts, a digest of tests/golden/ and a sha256 of
  each experiment id's `experiments --frozen-wall <id>` report (every id
  `experiments all` runs). The same source always gives the same bytes, so
  CI regenerates this section with --check and fails on any difference: a
  change that moves an event count, a line count, a golden or a printed
  figure must commit the new numbers.
* "calibrated": the median and IQR of every end-to-end metric over RUNS
  runs of SECONDS each at the held-out seed SEED, with the host's core
  count and the rustc version. Host timings are noisy, so nothing gates
  this section; compare it in paired runs.

--deterministic-only refreshes the first section and keeps the committed
calibrated one. The benchmark binary is built the way perfbench/run.py
builds it, into $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

OUT = "BENCH_perfbench.json"
WORKLOADS = ["nd_fleet", "asp_failover", "whatif_session", "dd_real"]
SEEDS = range(32)
RUST_DIRS = ["crates", "src", "tests", "examples"]
GOLDEN = os.path.join("tests", "golden")
# The calibrated runs: a held-out seed, about 2.5 min in all.
SEED, SECONDS, RUNS = 23, 5, 7


def build():
    """Build the benchmark and the `experiments` binary; return both paths."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml"), "--target-dir", target],
        check=True,
    )
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "antdt-bench", "--bin", "experiments", "--target-dir", target],
        check=True,
    )
    release = os.path.join(target, "release")
    return os.path.join(release, "antdt-perfbench"), os.path.join(release, "experiments")


def experiment_digests(experiments):
    """sha256 of each id's frozen-wall report, for the ids `all` runs."""
    listing = subprocess.run([experiments, "list"], check=True, capture_output=True,
                             text=True).stdout.splitlines()[1:]
    ids = [line.split()[0] for line in listing if line.split()[0] not in ("all", "perf")]
    out = {}
    for eid in ids:
        report = subprocess.run([experiments, "--frozen-wall", eid], check=True,
                                capture_output=True).stdout
        out[eid] = {"sha256": hashlib.sha256(report).hexdigest()}
    return out


def scalar(token):
    """An integer field as a number; anything else (the AUC's fixed
    6-decimal text) as the exact string the record prints."""
    try:
        return int(token)
    except ValueError:
        return token


def records(binary):
    out = {}
    for workload in WORKLOADS:
        per_seed = {}
        for seed in SEEDS:
            line = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed), "--record"],
                check=True, capture_output=True, text=True,
            ).stdout.strip().splitlines()[-1]
            name, got_seed, *fields = line.split()
            assert (name, got_seed) == (workload, str(seed)), line
            per_seed[str(seed)] = {k: scalar(v) for k, v in (f.split("=", 1) for f in fields)}
        out[workload] = per_seed
    return out


def rust_files():
    for top in RUST_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".rs"):
                    yield os.path.join(root, f)


def test_module_files(path, lines):
    """Files that `path` declares as `#[cfg(test)] mod name;`."""
    here = os.path.dirname(path)
    stem = os.path.basename(path)[:-3]
    if stem not in ("lib", "main", "mod"):
        here = os.path.join(here, stem)
    for i, line in enumerate(lines[:-1]):
        decl = lines[i + 1].strip()
        if line.strip() == "#[cfg(test)]" and decl.startswith("mod ") and decl.endswith(";"):
            name = decl[4:-1].strip()
            yield os.path.join(here, name + ".rs")
            yield os.path.join(here, name, "mod.rs")


def non_test_lines(path, lines, test_files):
    """Lines outside test code: files under a tests/ directory or declared
    as `#[cfg(test)] mod name;` count zero, and a file stops counting at its
    first inline `#[cfg(test)] mod name {` block (the repository keeps unit
    tests last in a file)."""
    if "tests" in path.split(os.sep)[:-1] or path in test_files:
        return 0
    count = len(lines)
    for i, line in enumerate(lines[:-1]):
        decl = lines[i + 1].strip()
        if line.strip() == "#[cfg(test)]" and decl.startswith("mod "):
            if decl.endswith(";"):
                count -= 2
            else:
                return count - (len(lines) - i)
    return count


def line_counts():
    files = {}
    for path in rust_files():
        with open(path, encoding="utf-8") as f:
            files[path] = f.read().split("\n")[:-1]
    test_files = {t for path, lines in files.items() for t in test_module_files(path, lines)}
    return {
        "rust_lines": sum(len(lines) for lines in files.values()),
        "rust_lines_command": "find crates src tests examples -name '*.rs' | xargs cat | wc -l",
        "rust_non_test_lines": sum(
            non_test_lines(path, lines, test_files) for path, lines in files.items()
        ),
    }


def golden_digest():
    files = sorted(os.listdir(GOLDEN))
    total = hashlib.sha256()
    per_file = {}
    for name in files:
        with open(os.path.join(GOLDEN, name), "rb") as f:
            data = f.read()
        per_file[name] = {"sha256": hashlib.sha256(data).hexdigest()}
        total.update(name.encode() + b"\0" + data + b"\0")
    return {"sha256": total.hexdigest(), "files": per_file}


def deterministic(binary, experiments):
    return {
        "records": records(binary),
        "lines": line_counts(),
        "golden": golden_digest(),
        "experiments": experiment_digests(experiments),
    }


def sig(x):
    """`x` to 6 significant digits."""
    return float(f"{x:.6g}")


def calibrated(binary):
    metrics = {}
    for workload in WORKLOADS:
        samples = {}
        for _ in range(RUNS):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(SEED),
                 "--seconds", str(SECONDS), "--trace", "0"],
                check=True, capture_output=True, text=True,
            ).stdout.strip().splitlines()[-1]
            for name, m in json.loads(out)["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        summary = {}
        for name, xs in samples.items():
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            summary[name] = {"median": sig(statistics.median(xs)), "iqr": sig(q3 - q1)}
        metrics[workload] = summary
    rustc = subprocess.run(["rustc", "--version"], check=True, capture_output=True,
                           text=True).stdout.strip()
    return {
        "seed": SEED,
        "seconds": SECONDS,
        "runs": RUNS,
        "cores": os.cpu_count(),
        "rustc": rustc,
        "metrics": metrics,
    }


def render(value, indent=0):
    """JSON with one line per innermost object, so a moved figure shows as a
    one-line diff."""
    pad = "  " * indent
    if isinstance(value, dict) and any(isinstance(v, dict) for v in value.values()):
        items = [f'{pad}  {json.dumps(k)}: {render(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    return json.dumps(value, ensure_ascii=False)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="regenerate the deterministic section; exit 1 if it differs")
    mode.add_argument("--deterministic-only", action="store_true",
                      help="refresh the deterministic section, keep the calibrated one")
    args = ap.parse_args()

    binary, experiments = build()
    fresh = deterministic(binary, experiments)
    committed = None
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as f:
            committed = json.load(f)

    if args.check:
        if committed is None or render(committed["deterministic"]) != render(fresh):
            old = (render(committed["deterministic"]) if committed else "").splitlines()
            new = render(fresh).splitlines()
            for line in sorted(set(old) ^ set(new))[:40]:
                print(("+ " if line in new else "- ") + line.strip())
            print(f"{OUT}: the deterministic section differs from the source; "
                  "rerun scripts/perfbench-trajectory.py --deterministic-only and commit it")
            return 1
        print(f"{OUT}: the deterministic section matches the source")
        return 0

    if args.deterministic_only:
        if committed is None:
            sys.exit(f"{OUT} does not exist yet; run without --deterministic-only first")
        cal = committed["calibrated"]
    else:
        cal = calibrated(binary)
    with open(OUT, "w", encoding="utf-8") as f:
        f.write(render({"deterministic": fresh, "calibrated": cal}) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
