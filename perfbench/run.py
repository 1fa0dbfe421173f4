"""Carbon Explorer sweep benchmark: one workload, fresh processes, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_batched --seed 0 --seconds 36 --trace 0

Workloads (see ``workloads.py``): ``fleet_batched``, ``fine_pool``,
``coverage_probe``.  Every measured run of the workload is a fresh
``python3 perfbench/child.py`` process that imports repro, builds its
inputs from ``--seed`` and times the sweep.  Runs follow one another
while the next one is expected to end inside the ``--seconds`` window.

``--trace 0`` prints the end-to-end metrics::

    setup_s        s     process start to the first timed call
    sweep_s        s     wall time of every sweep or probe of the workload
    designs_per_s  1/s   designs evaluated (investments probed) per second
    cpu_s          s     CPU of the process and its pool workers while timed
    peak_rss_mb    MB    peak resident memory of the benchmark process

The timings are scaled to a fixed host speed and are medians over the
run's processes.  On a shared host the benchmark's core slows by up to
~1.6x for minutes at a time while neighbours contend for caches and
memory, and a plain median moves with it (on a 2-vCPU Xeon VM the same
sweep read 3.0-5.0 s within five minutes).  So every measured process
also times a fixed host-speed kernel (``hostspeed.py``) before and after
its timed phase, and each of its timings is multiplied by
``hostspeed.NOMINAL_S`` over the mean of the two: the seconds the work
would take on a host where the kernel takes ``NOMINAL_S``.  The raw
median sweep time and the kernel's median time are logged and stamped
with the result.

``--trace 1`` runs the workload three times -- tracing off, the
program's own ``repro.obs`` tracing on, and with the benchmark's
outside-in layer spans (``layers.py``) -- and prints the per-layer
metrics and the layer self-time ledger, whose rows add up to the traced
``sweep_s``.  Spans and the layer table are written under
``perfbench/out/``.

Every run checks its outputs against ``known_answers.json`` (digests of
every evaluation per site and strategy, and every probe answer, computed
from the serial per-design path).  For a seed with no stored answers the
reference is computed once, untimed, and cached under ``perfbench/out/``.
An operation -- one (site, strategy) sweep or one probe -- fails if its
site is not ``complete``, its process fails, or its answer differs.

The last line of standard output is the JSON result; every run is also
stamped with the commit, seed, CPUs, Python/NumPy versions and the host's
steal ticks over the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples per measured run; set-up-only processes top up the
#: timed ones so that ``setup_s`` is always a median of this many.
SETUP_SAMPLES = 9

#: Wall-clock cap on one benchmark invocation, seconds.
HARD_LIMIT_S = 170.0


def log(message: str) -> None:
    print(message, flush=True)


def steal_ticks() -> Optional[int]:
    """Host steal time (USER_HZ ticks, all CPUs) from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit_id() -> Optional[str]:
    """The git commit when run from a clone; checkouts without .git have none."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/`` file paths and contents: the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


class Children:
    """Starts ``child.py`` processes one at a time, within the hard limit."""

    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.started = started
        self.env = workloads.child_env(str(SRC))

    def run(self, mode: str, spans_out: Optional[Path] = None) -> Optional[Dict[str, Any]]:
        """One child process; its JSON result, or ``None`` if it failed."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        command = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--mode",
            mode,
            "--tmp-dir",
            str(OUT),
        ]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        spawned_at = time.monotonic()
        command += ["--spawned-at", repr(spawned_at)]
        # Its own session, so that a child which overruns is killed
        # together with any pool workers it started.
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            log(f"child {mode} killed after {remaining:.0f} s")
            return None
        finally:
            # On a timeout, or when this process is itself interrupted or
            # terminated, the child and its pool workers go too.
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
        if process.returncode != 0:
            log(f"child {mode} failed with code {process.returncode}:\n{stderr[-3000:]}")
            return None
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            log(f"child {mode} printed no result:\n{stdout[-1000:]}{stderr[-2000:]}")
            return None


def known_answers(workload: workloads.Workload, seed: int, children: Children) -> Dict[str, Any]:
    """Stored answers for this seed, else a cached or fresh reference run."""
    with open(HERE / "known_answers.json") as handle:
        stored = json.load(handle)
    answers = stored["seeds"].get(str(seed), {}).get(workload.grid)
    if answers is not None:
        return answers
    cache = OUT / f"answers-{workload.name}-seed{seed}.json"
    if cache.exists():
        with open(cache) as handle:
            return json.load(handle)
    log(f"no stored answers for seed {seed}; computing the reference (untimed)")
    reference = children.run("reference")
    if reference is None:
        raise RuntimeError("the reference run failed")
    with open(cache, "w") as handle:
        json.dump(reference["answers"], handle)
    return reference["answers"]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = workloads.WORKLOADS[args.workload]
    children = Children(workload.name, args.seed, started)
    steal_start = steal_ticks()
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
    }
    known = known_answers(workload, args.seed, children)

    attempted = 0
    failures: List[str] = []

    def check(result: Optional[Dict[str, Any]], label: str) -> Optional[Dict[str, Any]]:
        nonlocal attempted
        if result is None:
            # Nothing is known about a crashed run's operations.
            attempted += 1
            failures.append(f"{label}: process failed")
            return None
        if "observed" not in result:  # a set-up run performs no operation
            return result
        attempted += result["operations"]
        wrong = workloads.count_failures(workload, result["observed"], known)
        failures.extend(f"{label}: {message}" for message in wrong)
        return result

    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace == 0:
        children.run("setup")  # warm-up: bytecode and page caches; discarded
        runs: List[Dict[str, Any]] = []
        timed_from = time.monotonic()
        longest = 0.0
        while not runs or time.monotonic() - timed_from + longest <= args.seconds:
            run_from = time.monotonic()
            result = check(children.run("plain"), f"run {len(runs)}")
            if result is None:
                break
            longest = max(longest, time.monotonic() - run_from)
            runs.append(result)
            log(
                f"run {len(runs) - 1}: setup_s {result['setup_s']:.4f}  sweep_s "
                f"{result['sweep_s']:.4f}  cpu_s {result['cpu_s']:.4f}  "
                f"peak_rss_mb {result['peak_rss_mb']:.1f}  host-speed kernel "
                f"{statistics.mean(result['hostspeed_s']):.4f}"
            )
        setups = list(runs)
        while runs and len(setups) < SETUP_SAMPLES:
            probe = check(children.run("setup"), "set-up run")
            if probe is None:
                break
            setups.append(probe)
        if runs:

            def scaled(samples: List[Dict[str, Any]], value) -> float:
                """Median of ``value(sample)`` at the nominal host speed."""
                return statistics.median(
                    value(sample) * hostspeed.NOMINAL_S / statistics.mean(sample["hostspeed_s"])
                    for sample in samples
                )

            values = {
                "setup_s": scaled(setups, lambda run: run["setup_s"]),
                "sweep_s": scaled(runs, lambda run: run["sweep_s"]),
                "designs_per_s": 1.0 / scaled(runs, lambda run: run["sweep_s"] / run["designs"]),
                "cpu_s": scaled(runs, lambda run: run["cpu_s"]),
                "peak_rss_mb": statistics.median([run["peak_rss_mb"] for run in runs]),
            }
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in end_to_end_units.items()
            }
            stamp["raw_sweep_s_median"] = statistics.median(run["sweep_s"] for run in runs)
            stamp["hostspeed_s_median"] = statistics.median(
                t for sample in setups for t in sample["hostspeed_s"]
            )
            log(
                f"{workload.name}: {len(runs)} measured runs, {len(setups)} set-up samples, "
                f"{runs[0]['designs']} designs per run; raw sweep_s median "
                f"{stamp['raw_sweep_s_median']:.4f}, host-speed kernel median "
                f"{stamp['hostspeed_s_median']:.4f} s (nominal {hostspeed.NOMINAL_S} s)"
            )
    else:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        plain = check(children.run("plain"), "untraced")
        traced = check(children.run("traced", spans_out=spans_path), "traced")
        obs = check(children.run("obs"), "repro.obs tracing")
        if plain and traced and obs:
            layer_values = dict(traced["layers"])
            layer_values["trace.sweep_s"] = traced["sweep_s"]
            layer_values["trace.overhead_frac"] = traced["sweep_s"] / plain["sweep_s"] - 1.0
            layer_values["obs.tracing_overhead_frac"] = obs["sweep_s"] / plain["sweep_s"] - 1.0
            metrics = {
                name: {"value": layer_values[name], "unit": unit}
                for name, unit in layer_units.items()
            }
            log(
                layers.format_ledger(
                    workload.name, traced["sweep_s"], traced["ledger"], layer_values
                )
            )
            if traced["missing_patches"]:
                log(f"layers not found (not traced): {traced['missing_patches']}")
            with open(OUT / f"layers-{workload.name}-seed{args.seed}.json", "w") as handle:
                json.dump(
                    {
                        "stamp": stamp,
                        "ledger": traced["ledger"],
                        "metrics": layer_values,
                        "counters": traced["counters"],
                    },
                    handle,
                    indent=1,
                )

    steal_end = steal_ticks()
    stamp["steal_ticks"] = (
        steal_end - steal_start if steal_start is not None and steal_end is not None else None
    )
    stamp["wall_s"] = time.monotonic() - started
    log("stamp " + json.dumps(stamp))
    for message in failures[:20]:
        log(f"FAILED {message}")
    if not metrics:
        print("error: no run completed; nothing was measured", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
