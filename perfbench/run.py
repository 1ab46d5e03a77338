"""Pipeline benchmark for the ``repro`` trace compressors.

Run from the repository root::

    python3 perfbench/run.py --workload archive --seed 1 --seconds 10 --trace 0

Workloads: ``archive``, ``fallback``, ``query``, ``serve`` (see
``workloads.py`` and ``BENCHMARK.json``).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced
run that reports the per-layer metrics and writes the layer table to
``perfbench/.work/layers/<workload>.json`` (render it with
``python3 perfbench/report.py``).  The last line of standard output is
the result as one JSON object; every line before it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("archive", "fallback", "query", "serve")

#: End-to-end metrics (``--trace 0``) with their units.
END_TO_END = {
    "setup_s": "s",
    "compress_MBps": "MB/s",
    "decompress_MBps": "MB/s",
    "compression_ratio": "ratio",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_MB": "MB",
}

#: Per-layer metrics (``--trace 1``) with their units.  ``_s``, byte and
#: count figures are per op (set-up figures: per set-up, median).
PER_LAYER = {
    "spec.parse_s": "s",
    "model.build_s": "s",
    "codegen.generate_c_s": "s",
    "codegen.verify_s": "s",
    "codegen.compile_s": "s",
    "codegen.load_s": "s",
    "codegen.c_source_bytes": "bytes",
    "codegen.py_source_bytes": "bytes",
    "kernel.compress_s": "s",
    "kernel.decompress_s": "s",
    "kernel.calls": "count",
    "kernel.setup_s": "s",
    "traceformat.unpack_s": "s",
    "traceformat.pack_s": "s",
    "codec.compress_s": "s",
    "codec.decompress_s": "s",
    "codec.bytes_in": "bytes",
    "codec.bytes_out": "bytes",
    "crc.encode_s": "s",
    "crc.decode_s": "s",
    "crc.bytes": "bytes",
    "container.encode_s": "s",
    "container.decode_s": "s",
    "skipindex.build_s": "s",
    "skipindex.bytes": "bytes",
    "skipindex.decode_s": "s",
    "predicate.parse_s": "s",
    "query.filter_s": "s",
    "query.chunks_decoded": "count",
    "query.chunks_total": "count",
    "query.match_ratio": "ratio",
    "server.request_s": "s",
    "client.wire_s": "s",
    "enginecache.hit_rate": "ratio",
    "server.backpressure": "count",
    "engine.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Set-up phase layers: reported per set-up (median over the run's set-ups).
SETUP_LAYERS = {
    "spec.parse_s": "spec.parse",
    "model.build_s": "model.build",
    "codegen.generate_c_s": "codegen.generate_c",
    "codegen.verify_s": "codegen.verify",
    "codegen.compile_s": "codegen.compile",
    "codegen.load_s": "codegen.load",
}

#: Call phase layers: self seconds per op.
CALL_LAYERS = {
    "kernel.compress_s": "kernel.compress",
    "kernel.decompress_s": "kernel.decompress",
    "kernel.setup_s": "kernel.setup",
    "traceformat.unpack_s": "traceformat.unpack",
    "traceformat.pack_s": "traceformat.pack",
    "codec.compress_s": "codec.compress",
    "codec.decompress_s": "codec.decompress",
    "crc.encode_s": "crc.encode",
    "crc.decode_s": "crc.decode",
    "container.encode_s": "container.encode",
    "container.decode_s": "container.decode",
    "skipindex.decode_s": "skipindex.decode",
    "predicate.parse_s": "predicate.parse",
    "query.filter_s": "query.filter",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer run"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiplies the draw size (default 1.0)"
    )
    return parser.parse_args(argv)


def add_import_paths() -> bool:
    """Put ``src/`` (the program) and ``benchmarks/`` (its harness) on the path."""
    if not (ROOT / "src" / "repro").is_dir():
        return False
    for path in (str(ROOT / "benchmarks"), str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_import_paths():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    work = HERE / ".work" / f"run-{os.getpid()}"
    saved_cache = os.environ.get("TCGEN_CACHE_DIR")
    work.mkdir(parents=True, exist_ok=True)
    # A terminated run still unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        ctx = workloads.Context(args.seed, args.seconds, args.scale, bool(args.trace), work)
        result = workloads.WORKLOADS[args.workload](ctx)
        if args.trace:
            from repro.codegen import generate_python
            from repro.model import build_model

            model = build_model(workloads.parse_spec_text())
            result.extra["py_source_bytes"] = len(generate_python(model))
            metrics = layer_metrics(result)
        else:
            metrics = end_to_end(result)  # before anything else can raise the peak RSS
        provenance = host_provenance(result)
        if args.trace:
            write_layers(args, provenance, metrics, layer_table(result))
    finally:
        if saved_cache is None:
            os.environ.pop("TCGEN_CACHE_DIR", None)
        else:
            os.environ["TCGEN_CACHE_DIR"] = saved_cache
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, scale {args.scale:g}, "
          f"trace {args.trace}")
    for line in provenance:
        print(f"# {line}")
    print(f"ops: {len(result.latencies)} timed, {result.attempted} attempted, "
          f"{result.failed} failed")
    if result.compress_rates:
        print("repetitions: compress MB/s " + " ".join(
            f"{rate / 1e6:.3g}" for rate in result.compress_rates))
    for note in result.notes:
        print(f"note: {note}")
    for name, unit in units.items():
        print(f"{name:<24} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(result) -> dict:
    import workloads

    return {
        "setup_s": _median(result.setup_s),
        "compress_MBps": _median(result.compress_rates) / 1e6,
        "decompress_MBps": _median(result.decompress_rates) / 1e6,
        "compression_ratio": result.ratio_raw / result.ratio_stored if result.ratio_stored else 0.0,
        "op_p50_ms": _percentile(result.latencies, 50) * 1e3,
        "op_p90_ms": _percentile(result.latencies, 90) * 1e3,
        "ops_per_s": _median(result.op_rates),
        "peak_rss_MB": workloads.peak_rss_mb(result),
    }


def layer_metrics(result) -> dict:
    layers = result.call_layers.get("layers", {})
    ops = max(1, result.traced_ops)

    def per_op(layer: str, key: str = "s") -> float:
        return layers.get(layer, {}).get(key, 0) / ops

    def setup_median(layer: str, key: str = "s") -> float:
        values = [summary["layers"].get(layer, {}).get(key, 0) for summary in result.setup_layers]
        return float(statistics.median(values)) if values else 0.0

    metrics = {name: setup_median(layer) for name, layer in SETUP_LAYERS.items()}
    metrics["codegen.c_source_bytes"] = setup_median("codegen.generate_c", "out")
    metrics["codegen.py_source_bytes"] = float(result.extra.get("py_source_bytes", 0))
    metrics.update({name: per_op(layer) for name, layer in CALL_LAYERS.items()})
    metrics["kernel.calls"] = (
        per_op("kernel.compress", "calls") + per_op("kernel.decompress", "calls")
    )
    metrics["codec.bytes_in"] = per_op("codec.compress", "in") + per_op("codec.decompress", "in")
    metrics["codec.bytes_out"] = per_op("codec.compress", "out") + per_op("codec.decompress", "out")
    metrics["crc.bytes"] = per_op("crc.encode", "in") + per_op("crc.decode", "in")
    # The query workload builds its index once, in set-up; archive builds none.
    metrics["skipindex.build_s"] = (
        setup_median("skipindex.build") + setup_median("skipindex.encode")
    )
    metrics["skipindex.bytes"] = setup_median("skipindex.encode", "out")

    planner = result.extra.get("planner")
    queries = max(1, planner["queries"]) if planner else 1
    metrics["query.chunks_decoded"] = planner["chunks_decoded"] / queries if planner else 0.0
    metrics["query.chunks_total"] = planner["chunks_total"] / queries if planner else 0.0
    metrics["query.match_ratio"] = (
        planner["matched"] / planner["scanned"] if planner and planner["scanned"] else 0.0
    )

    wall = result.call_layers.get("wall_s", 0.0)
    self_s = layers.get("engine.self", {}).get("s", 0.0)
    server = result.extra.get("server")
    if server:
        # serve: the client sees the whole request, the server reports its
        # own time; the rest is framing, loopback TCP and client work.
        # Both sides are averaged over every roundtrip of the window.
        request_s, wire_s = _serve_split(result, server)
        lookups = server["cache_hits"] + server["cache_misses"]
        metrics["server.request_s"] = request_s
        metrics["client.wire_s"] = wire_s
        metrics["enginecache.hit_rate"] = server["cache_hits"] / lookups if lookups else 0.0
        metrics["server.backpressure"] = server["backpressure"] / max(1.0, server["requests"] / 2)
        self_s = wire_s * ops
    else:
        for name in ("server.request_s", "client.wire_s", "enginecache.hit_rate",
                     "server.backpressure"):
            metrics[name] = 0.0
    metrics["engine.self_s"] = self_s / ops
    metrics["trace.coverage"] = 1.0 - self_s / wall if wall else 0.0
    metrics["trace.overhead_frac"] = (
        (result.traced_s / result.traced_ops) / (result.untraced_s / result.untraced_ops) - 1.0
        if result.traced_ops and result.untraced_ops else 0.0
    )
    return metrics


def _serve_split(result, server: dict) -> tuple[float, float]:
    """Server seconds and the rest (wire) per roundtrip, over the whole window."""
    roundtrips = result.traced_ops + result.untraced_ops
    client = (result.traced_s + result.untraced_s) / max(1, roundtrips)
    request = server["request_s"] / max(1.0, server["requests"] / 2)
    return request, client - request


def layer_table(result) -> dict:
    """Every traced layer: seconds, raw-side bytes and calls per op."""
    ops = max(1, result.traced_ops)
    rows = {}
    for name, entry in sorted(result.call_layers.get("layers", {}).items()):
        rows[name] = {
            "s_per_op": entry["s"] / ops,
            "bytes_per_op": max(entry["in"], entry["out"]) / ops,
            "calls_per_op": entry["calls"] / ops,
        }
    server = result.extra.get("server")
    if server:
        request_s, wire_s = _serve_split(result, server)
        rows.pop("engine.self", None)
        rows["server.request"] = {"s_per_op": request_s, "bytes_per_op": 0, "calls_per_op": 2.0}
        rows["client.wire"] = {"s_per_op": wire_s, "bytes_per_op": 0, "calls_per_op": 2.0}
    setups = result.setup_layers
    for name in sorted({layer for summary in setups for layer in summary["layers"]}):
        values = [summary["layers"].get(name, {"s": 0, "in": 0, "out": 0}) for summary in setups]
        rows[f"setup:{name}"] = {
            "s_per_op": statistics.median(entry["s"] for entry in values),
            "bytes_per_op": statistics.median(max(entry["in"], entry["out"]) for entry in values),
            "calls_per_op": statistics.median(entry.get("calls", 0) for entry in values),
        }
    return {"ops": ops, "wall_s_per_op": result.call_layers.get("wall_s", 0.0) / ops, "rows": rows}


def write_layers(args, provenance, metrics, table) -> None:
    out = HERE / ".work" / "layers"
    out.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "provenance": provenance,
        "metrics": metrics,
        "table": table,
    }
    (out / f"{args.workload}.json").write_text(json.dumps(document, indent=1, sort_keys=True))


def _compiler_version() -> str:
    from repro.codegen.compile import find_c_compiler

    compiler = find_c_compiler()
    if compiler is None:
        return "no C compiler"
    try:
        done = subprocess.run([compiler, "--version"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{compiler}: {exc}"
    lines = done.stdout.splitlines()
    return lines[0] if lines else compiler


def host_provenance(result) -> list[str]:
    """Host, toolchain and resolved backend, stamped into every result."""
    import numpy
    from harness import host_provenance as harness_provenance

    lines = [line.lstrip("# ") for line in harness_provenance().splitlines()]
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    lines.append(
        f"nproc {nproc}; python {platform.python_version()}; numpy {numpy.__version__}; "
        f"{_compiler_version()}"
    )
    lines.append(f"workload backend {result.backend}: {result.backend_reason}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
