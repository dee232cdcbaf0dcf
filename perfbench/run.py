"""lcmsec benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload pubsub --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people. ``--trace 0`` reports the end-to-end metrics with no
instrumentation installed. ``--trace 1`` runs the same workload with a span
around every call into each layer and reports the per-layer metrics. The
result, with the run's metadata (Python, cryptography and OpenSSL versions,
nproc), is also kept in ``perfbench/out/result-<workload>-<seed>-trace<n>.json``.
The exit status is nonzero when a correctness check fails or the checkout
holds no package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import ssl
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("pubsub", "hostile", "membership")

def _import_package():
    """Import lcmsec from this checkout's sources, never from elsewhere."""
    if not (SRC / "lcmsec" / "__init__.py").is_file():
        sys.exit(f"no lcmsec package under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lcmsec
    if Path(lcmsec.__file__).resolve().parent != SRC / "lcmsec":
        sys.exit(f"lcmsec imported from {lcmsec.__file__}, not {SRC}")


def run_metadata() -> dict:
    import cryptography
    from cryptography.hazmat.backends.openssl.backend import backend
    return {"python": platform.python_version(),
            "cryptography": cryptography.__version__,
            "openssl_cryptography": backend.openssl_version_text(),
            "openssl_ssl": ssl.OPENSSL_VERSION,
            "nproc": len(os.sched_getaffinity(0))}


def run_workload(workload: str, seed: int, seconds: float, workdir: Path,
                 tracer=None) -> dict:
    if workload == "membership":
        import membership
        return membership.run(seed, seconds, workdir, tracer)
    import udp_paths
    return udp_paths.run(workload, seed, seconds, workdir, tracer)


def traced_run(workload: str, seed: int, seconds: float,
               workdir: Path) -> tuple[dict, dict, list]:
    """The workload under spans.

    Returns the workload result, the per-layer metrics and the spans the
    workload never called, whose metrics read 0.
    """
    import layers
    from spans import Tracer

    overhead = layers.span_overhead_ns()
    tracer = Tracer()
    seen, undo = layers.install(tracer)
    try:
        t0 = time.perf_counter_ns()
        result = run_workload(workload, seed, seconds, workdir, tracer)
        t1 = time.perf_counter_ns()
    finally:
        layers.uninstall(undo)
    metrics, not_called = layers.layer_metrics(
        tracer, seen, result["layer_counts"], (t0, t1), overhead)
    spans_file = workdir.parent / f"spans-{workload}.csv.gz"
    tracer.write(spans_file)
    print(f"spans: {len(tracer)} written to {spans_file.relative_to(ROOT)}"
          f"; span overhead {overhead:.0f} ns")
    return result, metrics, not_called


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    from common import OUT_DIR

    run_info = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                **run_metadata()}
    print("run: " + json.dumps(run_info))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            result, values, not_called = traced_run(
                args.workload, args.seed, args.seconds, workdir)
            if not_called:
                print("not called (their metrics read 0): "
                      + ", ".join(not_called))
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  workdir)
            values = result["e2e"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # names and units as BENCHMARK.json lists them for this mode
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    print("samples: " + json.dumps(result["samples"]))
    print("info: " + json.dumps(result["info"]))
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:>14.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in result["ungated"].items():
            print(f"  {name:36s} {value:>14.6g} {unit}  (not gated)")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    for check, ok in result["checks"].items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    correct = all(result["checks"].values())
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    # the result line holds only these four keys; the record adds the run
    record = OUT_DIR / (f"result-{args.workload}-{args.seed}"
                        f"-trace{args.trace}.json")
    OUT_DIR.mkdir(exist_ok=True)
    record.write_text(json.dumps({**run_info, **summary}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
