"""Render the traced runs as one per-layer table.

Each ``python3 perfbench/run.py --workload W --trace 1 ...`` leaves
``perfbench/.work/layers/W.json``.  This script folds those files into
``perfbench/results/layers.txt`` (workload x layer: seconds, bytes and
MB/s per op, with ``trace.coverage`` and ``trace.overhead_frac``) and
``perfbench/results/layers.json`` (the same data, machine-readable, with
the host provenance of the runs)::

    for w in archive fallback query serve; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 10 --trace 1
    done
    python3 perfbench/report.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def render(documents: list[dict]) -> str:
    lines = ["Per-layer attribution (traced runs; self time per op)", ""]
    provenance = documents[0]["provenance"] if documents else []
    lines += [f"# {line}" for line in provenance[:3]]
    for doc in documents:
        table, metrics = doc["table"], doc["metrics"]
        wall = table["wall_s_per_op"]
        lines += [
            "",
            f"== {doc['workload']} (seed {doc['seed']}, {doc['seconds']:g} s, "
            f"scale {doc['scale']:g}; {table['ops']} traced ops, "
            f"{wall * 1e3:.3f} ms per op)",
            f"   {doc['provenance'][-1]}",
            f"   trace.coverage {metrics['trace.coverage']:.3f}   "
            f"trace.overhead_frac {metrics['trace.overhead_frac']:+.3f}",
            f"   {'layer':<26} {'ms/op':>10} {'% op':>6} {'bytes/op':>12} {'MB/s':>9} "
            f"{'calls/op':>9}",
        ]
        rows = sorted(
            ((name, row) for name, row in table["rows"].items() if not name.startswith("setup:")),
            key=lambda item: -item[1]["s_per_op"],
        )
        setup = [(name, row) for name, row in table["rows"].items() if name.startswith("setup:")]
        for name, row in rows + sorted(setup, key=lambda item: -item[1]["s_per_op"]):
            seconds, nbytes = row["s_per_op"], row["bytes_per_op"]
            setup_row = name.startswith("setup:")
            share = f"{100 * seconds / wall:5.1f}%" if wall and not setup_row else ""
            rate = f"{nbytes / seconds / 1e6:9.2f}" if seconds and nbytes else f"{'-':>9}"
            lines.append(
                f"   {name:<26} {seconds * 1e3:10.3f} {share:>6} {nbytes:12.0f} {rate} "
                f"{row['calls_per_op']:9.2f}"
            )
        if doc["workload"] == "serve":
            lines.append(
                f"   enginecache.hit_rate {metrics['enginecache.hit_rate']:.3f}; the layers "
                "inside the server process are not visible from outside it"
            )
        if doc["workload"] == "query":
            lines.append(
                f"   query.chunks_decoded {metrics['query.chunks_decoded']:.2f} of "
                f"{metrics['query.chunks_total']:.0f} per query, "
                f"query.match_ratio {metrics['query.match_ratio']:.3f}"
            )
    lines += [
        "",
        "ms/op: self time per op (op = compress+decompress roundtrip on archive,",
        "fallback and serve; one query on query).  setup:* rows are per set-up",
        "(median of the run's set-ups).  engine.self is time inside the public",
        "call not covered by any traced layer.  MB/s = bytes/op over ms/op.",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    source = HERE / ".work" / "layers"
    documents = []
    for workload in WORKLOADS:
        path = source / f"{workload}.json"
        if path.exists():
            documents.append(json.loads(path.read_text()))
    if not documents:
        print(f"report: no traced runs under {source}", file=sys.stderr)
        return 1
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    text = render(documents)
    (out / "layers.txt").write_text(text)
    (out / "layers.json").write_text(json.dumps(documents, indent=1, sort_keys=True) + "\n")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
