"""Benchmark entry point.

    python3 perfbench/run.py --workload roundtrip-pipeline --seed 1 --seconds 10 --trace 0

Runs one workload from the checkout it sits in, against the program under
``src/``, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, measured with tracing off;
with ``--trace 1`` they are the per-layer ones, taken from a traced pass.
Work files go to ``.perfbench-work/`` at the checkout root; each run leaves
its run record there (and, when traced, its spans).

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
program or the benchmark definition cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"


def code_hash() -> str:
    """Hash of the program and of the benchmark code that makes its inputs."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "tactwin").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS library and its thread count, as numpy sees them."""
    import ctypes

    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError) as exc:  # builds report differently
        info = {"error": repr(exc)}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                get = getattr(dll, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                info["threads"] = get()
                return info
    info["threads"] = None
    return info


def machine_record(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tactwin" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program under {ROOT / 'src'} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tactwin
    if Path(tactwin.__file__).resolve().parent != (ROOT / "src" / "tactwin").resolve():
        print(f"error: imported tactwin from {tactwin.__file__}", file=sys.stderr)
        return 2

    from layers import layer_metrics
    from workloads import WORKLOADS, Run
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"options: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    cache_path = WORK / "digests.json"
    WORK.mkdir(exist_ok=True)
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = Run(args.seed, args.seconds, bool(args.trace), work, cache, code_hash())
    t0 = time.perf_counter()
    end_to_end, traced = WORKLOADS[args.workload](run)
    wall = time.perf_counter() - t0

    if traced is None:
        wanted = spec["end_to_end"]
        values = end_to_end
    else:
        tracer, extra = traced
        wanted = spec["per_layer"]
        values = layer_metrics(tracer.spans, extra, [m["name"] for m in wanted])
        tracer.write(work / "spans.jsonl")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "wall_s": wall,
              "machine": machine_record(args.seed), "code": run.code_hash,
              "notes": run.notes, "failures": run.failures, "result": result}
    (work / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if not run.failures:    # a failed run must not become the reference
        cache_path.write_text(json.dumps(cache, sort_keys=True) + "\n")

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    for key, value in sorted(run.notes.items()):
        print(f"note {key}: {value}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
