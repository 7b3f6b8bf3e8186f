"""Benchmark of the ppboot CLI: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload boot-small --seed 1 --seconds 15 --trace 0

Run from anywhere; the ppboot sources are taken from ``src/`` next to
this directory.  The run makes the workload's inputs from the seed,
times set-up (a fresh interpreter importing ppboot, plus input
generation) several times, then calls ``ppboot.cli.main(argv)``
in-process with ``--threads 1`` until ``--seconds`` have passed (at
least three times).  Times are put on a fixed reference core speed by
``probe.py``.  The run checks the outputs against oracles and checks
that every rerun gives byte-identical files, and prints as its last
stdout line

    {"correct": ..., "attempted": <checks>, "failed": <failed checks>, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` two untimed iterations follow: one with ``--threads 2``,
whose files must match too, and one with ppboot's functions wrapped by
``tracing.py``; the metrics are then the per-layer ones.  Work
files, the run record and the span dump go to ``.perfbench_run/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# single-threaded BLAS, set before numpy loads: the benchmark runs pinned
# to one core, and the boot-var quadratic form goes through BLAS
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
MIN_ITERATIONS = 3


def _setup_once(workload, seed: int, inputs: Path) -> None:
    subprocess.run([sys.executable, "-c", "import ppboot"], check=True, cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    workload.make_inputs(inputs, seed)


def _run_cli(cli, argv: list[str], threads: int) -> None:
    rc = cli.main(argv + ["--threads", str(threads)])
    if rc != 0:
        raise RuntimeError(f"ppboot {argv[0]} exited with code {rc}")


def _iteration(cli, argvs: list[list[str]], threads: int, probe) -> tuple[list[float], list[float]]:
    """Run each command once: (wall seconds, reference-speed seconds) per command."""
    walls, refs = zip(*(probe.time_call(_run_cli, cli, argv, threads) for argv in argvs))
    return list(walls), list(refs)


def _digest(outputs: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outputs.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas_name = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "ppboot").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
    }


def _declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_run" / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe = SpeedProbe(workdir / "probe.txt")
    try:
        return _run(workload_name, seed, seconds, trace, workdir, probe)
    finally:
        probe.close()


def _run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path,
         probe: SpeedProbe) -> dict:
    import ppboot.cli as cli
    from tracing import Tracer, install, layer_metrics
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[workload_name]
    inputs = workdir / "inputs"
    setup = [probe.time_call(_setup_once, workload, seed, inputs)[1] for _ in range(SETUP_REPEATS)]

    def commands(name: str) -> list[list[str]]:
        out = workdir / name
        out.mkdir(parents=True)
        return workload.commands(inputs, out, seed)

    argvs = commands("outputs")
    walls, works, rates, digests = [], [], [], []
    start = perf_counter()
    while len(walls) < MIN_ITERATIONS or perf_counter() - start + statistics.median(walls) <= seconds:
        wall, ref = _iteration(cli, argvs, 1, probe)
        walls.append(sum(wall))
        works.append(sum(ref))
        rates.append(workload.items(ref))
        digests.append(_digest(workdir / "outputs"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work_s = statistics.median(works)

    checks = Checks()
    workload.check(inputs, workdir / "outputs", checks)
    checks.expect(len(set(digests)) == 1, "outputs differ between reruns")

    if trace:
        with probe.unpinned():
            threads2_wall_s = sum(_iteration(cli, commands("outputs-threads2"), 2, probe)[0])
        checks.expect(_digest(workdir / "outputs-threads2") == digests[0],
                      "outputs differ under --threads 2")
        tracer = Tracer()
        argvs_traced = commands("outputs-traced")
        install(tracer)
        try:
            traced_work_s = sum(_iteration(cli, argvs_traced, 1, probe)[1])
        finally:
            tracer.uninstall()
        checks.expect(_digest(workdir / "outputs-traced") == digests[0],
                      "outputs differ with tracing on")
        tracer.write_spans(workdir / "spans.json")
        metrics = layer_metrics(tracer)
        metrics["rng.parallel_speedup"] = (statistics.median(walls) / threads2_wall_s, "1")
        metrics["trace.overhead_s"] = (traced_work_s - work_s, "s")
        declared = _declared_metrics("per_layer")
    else:
        metrics = {
            "work_s": (work_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "items_per_s": (statistics.median(rates), "1/s"),
        }
        declared = _declared_metrics("end_to_end")
    if {k: u for k, (_, u) in metrics.items()} != declared:
        raise RuntimeError("metrics disagree with BENCHMARK.json")

    record = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "fingerprint": _fingerprint(),
        "iterations_wall_s": walls, "iterations_work_s": works, "setup_runs_s": setup,
        "failures": checks.failures,
        "result": {
            "correct": not checks.failures,
            "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "ppboot" / "__init__.py").is_file():
        print(f"perfbench: no ppboot package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import ppboot

    if Path(ppboot.__file__).resolve().parent != SRC / "ppboot":
        print(f"perfbench: imported ppboot from {ppboot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, m in record["result"]["metrics"].items():
        print(f"{record['workload']} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
