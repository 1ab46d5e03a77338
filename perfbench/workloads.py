"""The four benchmark workloads and the measurement loops that drive them.

Every workload goes through ``repro``'s public API only
(``TraceEngine.compress/decompress/query`` and ``repro.client.TraceClient``
against a ``python -m repro.server`` subprocess) and checks every output
it gets back.  A wrong output or an exception is one failed operation; it
is counted, never raised past the run.

Inputs come from ``repro.traces.build_trace`` seeded by the benchmark's
``--seed``; generating them is not timed.  Which programs and trace kinds
each workload draws is fixed, so the seed changes the trace contents but
not the mix, and figures from different seeds stay comparable.

One *operation* (op) is the workload's unit of work: a compress+decompress
roundtrip of one trace on ``archive``, ``fallback`` and ``serve``, one
query on ``query``.  Rates are taken per repetition (a pass over the
workload's inputs, a time slice on ``serve``) and reported as the median
over the run's repetitions, so one slow stretch does not move the figure.
"""

from __future__ import annotations

import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer

#: Set-ups per run; ``setup_s`` is their median.  Each one starts from
#: an empty native artifact cache, so every one pays the compile.
SETUPS = 5

#: Every ``archive`` trace is cut to the same length, so raw bytes over
#: seconds equals the paper's harmonic mean over equally weighted traces;
#: 24 x 17 500 records is ~5 MB per pass.
ARCHIVE_RECORDS = 17_500
#: ``fallback`` draws traces of every kind from programs whose compression
#: ratio barely moves with the seed at this size (5000 records, 60 KB).
FALLBACK_TRACES = (
    ("gcc", "cache_miss_addresses"),
    ("art", "store_addresses"),
    ("art", "load_values"),
    ("swim", "load_values"),
    ("gcc", "load_values"),
    ("mcf", "load_values"),
)
FALLBACK_RECORDS = 5000
#: gcc is the one suite program whose store PCs are phase-local, so PC
#: predicates can skip chunks.  The trace joins QUERY_SEGMENTS
#: independently seeded gcc runs, each relocated to its own code and data
#: range (as if loaded at another address), so its shape and every figure
#: vary little from seed to seed; ~1.15 MB in 47 chunks of 2048 records.
QUERY_TRACE = ("gcc", "store_addresses")
QUERY_RECORDS = 96_000
QUERY_SEGMENTS = 8
QUERY_PC_STRIDE = 0x0100_0000  # segment k's PCs move up by k strides
QUERY_ADDRESS_SHIFT = 40  # segment k's addresses move up by k << 40
QUERY_CHUNK_RECORDS = 2048
QUERY_NEEDLES = 6  # needles per predicate kind in the mix
QUERY_REBUILDS = 2  # archive rebuilds and full decompresses after each pass
SERVE_TRACE = ("art", "store_addresses")
SERVE_RECORDS = 14_000  # ~170 KB per request
SERVE_CHUNK_RECORDS = 4096  # a few chunks per request
SERVE_CONNECTIONS = 2
SERVE_SLICES = 5  # untraced time slices per run (rates are their median)


def _spec_text() -> str:
    from repro.spec.presets import TCGEN_A_SPEC

    return TCGEN_A_SPEC


def parse_spec_text():
    import repro.spec as spec_api

    return spec_api.parse_spec(_spec_text())


@dataclass
class Result:
    """Everything one run measured; ``run.py`` turns it into metrics."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    #: One rate per repetition (bytes/s, ops/s); metrics are the medians.
    compress_rates: list[float] = field(default_factory=list)
    decompress_rates: list[float] = field(default_factory=list)
    op_rates: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    ratio_raw: int = 0
    ratio_stored: int = 0
    server_rss_kb: int = 0
    backend: str = ""
    backend_reason: str = ""
    notes: list[str] = field(default_factory=list)
    # traced runs only
    setup_layers: list[dict] = field(default_factory=list)
    call_layers: dict = field(default_factory=dict)
    traced_ops: int = 0
    traced_s: float = 0.0
    untraced_ops: int = 0
    untraced_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def count_traced(self, traced: bool, latency: float) -> None:
        """Tally one op of a traced run as traced or untraced."""
        if traced:
            self.traced_ops += 1
            self.traced_s += latency
        else:
            self.untraced_ops += 1
            self.untraced_s += latency

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"failed: {what}")


@dataclass
class Sample:
    """One completed op: its latency and the bytes and seconds inside it."""

    latency: float
    raw_bytes: int = 0
    compress_s: float = 0.0
    decompress_s: float = 0.0


class Repetition:
    """Sums over one pass or slice, folded into the run's rate lists."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.samples: list[Sample] = []

    def add(self, sample: Sample) -> None:
        self.samples.append(sample)

    def fold(self, result: Result) -> None:
        wall = time.perf_counter() - self.start
        samples = self.samples
        result.latencies += [sample.latency for sample in samples]
        compress_s = sum(sample.compress_s for sample in samples)
        decompress_s = sum(sample.decompress_s for sample in samples)
        nbytes = sum(sample.raw_bytes for sample in samples)
        if compress_s:
            result.compress_rates.append(nbytes / compress_s)
        if decompress_s:
            result.decompress_rates.append(nbytes / decompress_s)
        if samples:
            result.op_rates.append(len(samples) / wall)


class Context:
    """Run-wide settings plus the per-run scratch directory."""

    def __init__(self, seed: int, seconds: float, scale: float, trace: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.trace = trace
        self.work = work
        self._caches = 0

    def fresh_cache(self) -> None:
        """Point the native artifact cache at a new empty directory."""
        from repro.codegen.compile import clear_compiler_cache
        from repro.codegen.native import clear_native_cache

        self._caches += 1
        path = self.work / f"cache{self._caches}"
        path.mkdir(parents=True)
        os.environ["TCGEN_CACHE_DIR"] = str(path)
        clear_native_cache()
        clear_compiler_cache()

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])

    def records(self, count: int, floor: int = 1) -> int:
        return max(floor, int(count * self.scale))


# -- shared helpers ----------------------------------------------------------


def _sized_trace(program: str, kind: str, records: int, seed: int) -> bytes:
    """A trace cut to exactly ``records`` records (its header kept)."""
    from repro.tio.traceformat import VPC_FORMAT
    from repro.traces import build_trace

    scale = 1.0
    raw = build_trace(program, kind, scale=scale, seed=seed)
    while VPC_FORMAT.record_count(raw) < records:
        scale *= 1.25 * records / max(1, VPC_FORMAT.record_count(raw))
        raw = build_trace(program, kind, scale=scale, seed=seed)
    return raw[: VPC_FORMAT.header_bytes + records * VPC_FORMAT.record_bytes]


def _seeded_order(ctx: Context, traces: list[bytes]) -> list[bytes]:
    return [traces[i] for i in ctx.rng(1).permutation(len(traces))]


def _setups(ctx: Context, result: Result, build, teardown=None):
    """Run ``build(tracer)`` SETUPS times from an empty cache; keep the last.

    ``build`` goes from spec text to the first result and returns the
    workload state; its engines come back with untraced codecs.
    ``teardown(state)`` releases every state but the last, untimed.
    """
    from repro.postcompress import codec_by_name

    state = None
    for _ in range(SETUPS):
        if state is not None and teardown is not None:
            teardown(state)
        ctx.fresh_cache()
        tracer = Tracer()
        if ctx.trace:
            tracer.install()
        try:
            start = time.perf_counter()
            with tracer.span("setup"):
                state = build(tracer)
            result.setup_s.append(time.perf_counter() - start)
        finally:
            if ctx.trace:
                tracer.uninstall()
                for engine in getattr(state, "engines", ()):
                    engine.codec = codec_by_name(engine.codec.name)
        if ctx.trace:
            result.setup_layers.append(tracer.summary("setup"))
    return state


def _passes(ctx: Context, result: Result, items, run_op, engines=(), after_pass=None) -> None:
    """Closed loop, one caller: whole passes over ``items`` for ``seconds``.

    ``run_op(item, tracer)`` performs one op and returns its
    :class:`Sample`, or ``None`` when it failed.  Traced runs perform
    every op twice in a row, untraced and traced (the order flips from
    op to op), so ``trace.overhead_frac`` compares like with like.
    ``after_pass()`` runs untraced between passes, outside their time.
    """
    tracer = Tracer()
    if ctx.trace:
        tracer.install(engines)
    try:
        start = time.perf_counter()
        flip = False
        while True:
            repetition = Repetition()
            for item in items:
                if not ctx.trace:
                    sample = run_op(item, tracer)
                    if sample is not None:
                        repetition.add(sample)
                    continue
                for traced in (True, False) if flip else (False, True):
                    tracer.enabled = traced
                    sample = run_op(item, tracer)
                    if sample is not None:
                        result.count_traced(traced, sample.latency)
                flip = not flip
            repetition.fold(result)
            tracer.enabled = False
            if after_pass is not None:
                after_pass()
            if time.perf_counter() - start >= ctx.seconds:
                break
    finally:
        if ctx.trace:
            tracer.uninstall()
    if ctx.trace:
        result.call_layers = tracer.summary("call.")


def _roundtrip_op(result: Result, engine, blobs: dict):
    """Compress then decompress one trace; the output must equal the input."""

    def run_op(raw: bytes, tracer) -> Sample | None:
        result.attempted += 1
        try:
            t0 = time.perf_counter()
            with tracer.span("call.compress"):
                blob = engine.compress(raw)
            t1 = time.perf_counter()
            with tracer.span("call.decompress"):
                out = engine.decompress(blob)
            t2 = time.perf_counter()
        except Exception as exc:  # a failed op is counted, not raised
            result.fail(f"roundtrip raised {type(exc).__name__}: {exc}")
            return None
        if out != raw:
            result.fail("roundtrip output differs from its input")
            return None
        blobs.setdefault(id(raw), blob)
        return Sample(t2 - t0, len(raw), t1 - t0, t2 - t1)

    return run_op


@dataclass
class _State:
    engines: list
    extra: dict = field(default_factory=dict)


def _engine_setup(backend: str, probe: bytes):
    """Spec text -> parsed spec -> engine -> backend resolved -> first blob."""

    def build(tracer) -> _State:
        from repro.runtime.engine import TraceEngine

        engine = TraceEngine(
            parse_spec_text(), codec="bzip2", chunk_records="auto", workers=1, backend=backend
        )
        engine.backend  # resolve: for native, generate, compile and load the kernel
        with tracer.span("call.compress"):
            engine.compress(probe)
        return _State([engine])

    return build


def _record_backend(result: Result, engine) -> None:
    result.backend = engine.backend
    result.backend_reason = engine.backend_reason


def _roundtrips(ctx: Context, result: Result, traces: list[bytes], backend: str) -> dict:
    """Set up (probe = first trace), then roundtrip passes; returns the blobs."""
    items = _seeded_order(ctx, traces)
    reset_peak_rss()
    state = _setups(ctx, result, _engine_setup(backend, traces[0]))
    engine = state.engines[0]
    _record_backend(result, engine)
    blobs: dict = {}
    _passes(ctx, result, items, _roundtrip_op(result, engine, blobs), state.engines)
    done = [raw for raw in traces if id(raw) in blobs]
    result.ratio_raw = sum(len(raw) for raw in done)
    result.ratio_stored = sum(len(blobs[id(raw)]) for raw in done)
    return blobs


# -- archive / fallback ------------------------------------------------------


def run_archive(ctx: Context) -> Result:
    """The paper's evaluation: native backend, bzip2, v3, all 24 suite traces."""
    from repro.traces import TRACE_KINDS, default_suite

    pairs = [(program, kind) for program in default_suite() for kind in TRACE_KINDS]
    records = ctx.records(ARCHIVE_RECORDS)
    traces = [
        _sized_trace(program, kind, records, ctx.seed * 1000 + i)
        for i, (program, kind) in enumerate(pairs)
    ]
    result = Result()
    _roundtrips(ctx, result, traces, "auto")
    return result


def run_fallback(ctx: Context) -> Result:
    """The no-compiler path: the same pipeline on the pure-Python kernels."""
    records = ctx.records(FALLBACK_RECORDS)
    traces = [
        _sized_trace(program, kind, records, ctx.seed * 1000 + i)
        for i, (program, kind) in enumerate(FALLBACK_TRACES)
    ]
    result = Result()
    blobs = _roundtrips(ctx, result, traces, "python")
    _check_backend_identity(result, traces[0], blobs.get(id(traces[0])))
    return result


def _check_backend_identity(result: Result, raw: bytes, python_blob) -> None:
    """The archive (native) container must equal the fallback (python) one."""
    from repro.runtime.engine import TraceEngine

    native = TraceEngine(parse_spec_text(), codec="bzip2", chunk_records="auto", workers=1)
    if native.backend != "native":
        result.notes.append(f"backend identity check skipped: {native.backend_reason}")
        return
    result.attempted += 1
    try:
        native_blob = native.compress(raw)
    except Exception as exc:
        result.fail(f"native compress raised {type(exc).__name__}: {exc}")
        return
    if python_blob is None or native_blob != python_blob:
        result.fail("native and python containers differ on a shared trace")


# -- query ---------------------------------------------------------------------


def _query_trace(ctx: Context) -> bytes:
    """QUERY_SEGMENTS relocated gcc store traces joined into one trace."""
    from repro.tio.traceformat import VPC_FORMAT

    records = ctx.records(QUERY_RECORDS, QUERY_CHUNK_RECORDS) // QUERY_SEGMENTS
    record = np.dtype([("pc", "<u4"), ("address", "<u8")])
    header = VPC_FORMAT.header_bytes
    parts = []
    for k in range(QUERY_SEGMENTS):
        raw = _sized_trace(*QUERY_TRACE, records, ctx.seed * 100 + k)
        body = np.frombuffer(raw, dtype=record, offset=header).copy()
        body["pc"] += k * QUERY_PC_STRIDE
        body["address"] += k << QUERY_ADDRESS_SHIFT
        parts.append(body.tobytes())
    return raw[:header] + b"".join(parts)


def _chunk_presence(values: np.ndarray, chunk_of: np.ndarray) -> np.ndarray:
    """For each record, how many chunks hold its value."""
    order = np.lexsort((chunk_of, values))
    ordered, chunks = values[order], chunk_of[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]) | (chunks[1:] != chunks[:-1])
    distinct, presence = np.unique(ordered[first], return_counts=True)
    return presence[np.searchsorted(distinct, values)]


def _query_mix(ctx: Context, raw: bytes, fmt) -> list[tuple[str, str, object]]:
    """A seeded, fixed mix: pc point, pc range, f2 point, record range.

    Needles are picked so each predicate can skip most chunks: the PCs
    and data values held by the fewest chunks (data values are pruned by
    the bloom filters), and 1000-record spans.  Each predicate runs as
    ``count``, ``select`` and ``stats``.  Returns ``(where, op,
    expected)`` with the expected answer from a NumPy filter over the raw
    trace.
    """
    from repro.tio.traceformat import unpack_records

    _, (pcs, data) = unpack_records(fmt, raw)
    n = len(pcs)
    chunk_of = np.arange(n) // QUERY_CHUNK_RECORDS
    # The PCs and data values held by the fewest chunks are the needles
    # that let pushdown skip most chunks.  PCs are taken by rank and data
    # values at evenly spread positions with seeded jitter, so the mix
    # costs the same from seed to seed while its needles change.
    pc_presence = _chunk_presence(pcs, chunk_of)
    unique_pcs, first = np.unique(pcs, return_index=True)
    rarest = unique_pcs[np.argsort(pc_presence[first], kind="stable")][:QUERY_NEEDLES]
    data_presence = _chunk_presence(data, chunk_of)
    rare_values = np.flatnonzero(data_presence == data_presence.min())
    rng = ctx.rng(2)
    records = np.arange(n)
    spread = (np.arange(QUERY_NEEDLES) + rng.random(QUERY_NEEDLES)) / QUERY_NEEDLES
    predicates = []
    for i, position in enumerate(spread):
        pc = int(rarest[i % rarest.size])
        predicates.append((f"pc == {pc:#x}", pcs == pc))
        pc = int(rarest[(i + 1) % rarest.size])
        predicates.append((f"pc >= {pc:#x} and pc < {pc + 4:#x}", (pcs >= pc) & (pcs < pc + 4)))
        at = rare_values[np.searchsorted(rare_values, int(position * n)) % rare_values.size]
        value = int(data[at])
        predicates.append((f"f2 == {value:#x}", data == value))
        start = int(position * max(1, n - 1000))
        span = (records >= start) & (records < start + 1000)
        predicates.append((f"record >= {start} and record < {start + 1000}", span))
    mix = []
    for where, mask in predicates:
        mix.append((where, "count", int(mask.sum())))
        mix.append((where, "select", list(zip(pcs[mask].tolist(), data[mask].tolist()))))
        stats = [
            {"min": int(col[mask].min()), "max": int(col[mask].max()), "count": int(mask.sum())}
            for col in (pcs, data)
        ] if mask.any() else []
        mix.append((where, "stats", stats))
    return [mix[i] for i in rng.permutation(len(mix))]


def run_query(ctx: Context) -> Result:
    """The read path: predicate pushdown over an indexed v3 archive."""
    result = Result()
    raw = _query_trace(ctx)
    reset_peak_rss()

    def build(tracer) -> _State:
        from repro.runtime.engine import TraceEngine

        engine = TraceEngine(
            parse_spec_text(), codec="bzip2", workers=1,
            chunk_records=QUERY_CHUNK_RECORDS, skip_index=True,
        )
        engine.backend
        with tracer.span("call.compress"):
            blob = engine.compress(raw)
        with tracer.span("call.query"):
            engine.query(blob, "record < 1", op="count")
        return _State([engine], {"blob": blob})

    state = _setups(ctx, result, build)
    engine, blob = state.engines[0], state.extra["blob"]
    _record_backend(result, engine)
    result.ratio_raw, result.ratio_stored = len(raw), len(blob)
    mix = _query_mix(ctx, raw, engine.format)
    planner = {"queries": 0, "chunks_decoded": 0, "chunks_total": 0, "matched": 0, "scanned": 0}
    result.extra["planner"] = planner

    def run_op(item, tracer) -> Sample | None:
        where, op, expected = item
        result.attempted += 1
        try:
            start = time.perf_counter()
            with tracer.span("call.query"):
                answer = engine.query(blob, where, op=op)
            latency = time.perf_counter() - start
        except Exception as exc:
            result.fail(f"query {where!r} raised {type(exc).__name__}: {exc}")
            return None
        if op == "count":
            got = answer.count
        elif op == "select":
            got = [tuple(record) for record in answer.records]
        else:
            got = answer.field_stats
        if got != expected:
            result.fail(f"{op} {where!r} differs from the NumPy filter")
            return None
        stats = answer.stats
        planner["queries"] += 1
        planner["chunks_decoded"] += stats.decoded_chunks
        planner["chunks_total"] += stats.total_chunks
        planner["matched"] += answer.count
        planner["scanned"] += stats.records_scanned
        return Sample(latency)

    def rebuild() -> None:
        """Archive+index rebuilds and the full-decompress baseline every
        pushdown query is measured against; spread over the run, one
        batch per pass.  They also prove the archive is reproducible and
        decodes back to the trace."""
        for _ in range(QUERY_REBUILDS):
            result.attempted += 1
            try:
                t0 = time.perf_counter()
                again = engine.compress(raw)
                t1 = time.perf_counter()
                out = engine.decompress(blob)
                t2 = time.perf_counter()
            except Exception as exc:
                result.fail(f"rebuild or decompress raised {type(exc).__name__}: {exc}")
                continue
            if again != blob or out != raw:
                result.fail("archive rebuild differs, or the archive does not decode to its trace")
                continue
            result.compress_rates.append(len(raw) / (t1 - t0))
            result.decompress_rates.append(len(raw) / (t2 - t1))

    _passes(ctx, result, mix, run_op, state.engines, after_pass=rebuild)
    return result


# -- serve ---------------------------------------------------------------------


class Server:
    """One ``python -m repro.server --workers 1 --no-http`` subprocess."""

    START_TIMEOUT_S = 60

    def __init__(self, work: Path) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server", "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--no-http", "--stream-dir", str(work / "streams"),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.port = None
        self.log: list[str] = []
        self._drain = None
        # A server that hangs without printing must not hang the run.
        watchdog = threading.Timer(self.START_TIMEOUT_S, self._kill_if_not_listening)
        watchdog.start()
        try:
            while self.port is None:
                line = self.process.stderr.readline()
                if not line:
                    self.stop()
                    log = "".join(self.log)[-2000:]
                    raise RuntimeError(f"server exited before listening: {log}")
                self.log.append(line)
                if "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
        # Keep reading so a chatty server never blocks on a full pipe.
        self._drain = threading.Thread(target=self._discard_log, daemon=True)
        self._drain.start()

    def _kill_if_not_listening(self) -> None:
        if self.port is None:
            self.process.kill()

    def _discard_log(self) -> None:
        for _ in self.process.stderr:
            pass

    def peak_rss_kb(self) -> int:
        """Largest VmHWM of the supervisor and its worker processes."""
        pids = [self.process.pid]
        try:
            with open(f"/proc/{self.process.pid}/task/{self.process.pid}/children") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass
        peak = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.process.stderr.close()


_BACKEND_LINE = re.compile(
    r'^tcgen_backend_requests_total\{backend="([a-z]+)"\} ([0-9.e+]+)$', re.M
)
_METRIC_LINE = re.compile(r'^(tcgen_[a-z_]+?)(?:\{op="([a-z-]+)"\})? ([0-9.e+-]+)$')
_TOTALS = ("request_s", "requests", "cache_hits", "cache_misses", "backpressure")
_COUNTERS = {
    "tcgen_compressor_cache_hits_total": "cache_hits",
    "tcgen_compressor_cache_misses_total": "cache_misses",
    "tcgen_backpressure_total": "backpressure",
}


def server_counters(client) -> dict:
    """Server time and count of compress+decompress requests, cache and
    backpressure counters, read from the server's own metrics op."""
    totals = dict.fromkeys(_TOTALS, 0.0)
    for line in client.metrics_text().splitlines():
        match = _METRIC_LINE.match(line)
        if not match:
            continue
        name, op, value = match.group(1), match.group(2), float(match.group(3))
        if op in ("compress", "decompress") and name == "tcgen_request_seconds_sum":
            totals["request_s"] += value
        elif op in ("compress", "decompress") and name == "tcgen_request_seconds_count":
            totals["requests"] += value
        elif name in _COUNTERS:
            totals[_COUNTERS[name]] += value
    return totals


def run_serve(ctx: Context) -> Result:
    """Closed loop of two connections against one single-worker server."""
    from repro.client import TraceClient
    from repro.runtime.engine import TraceEngine

    result = Result()
    records = ctx.records(SERVE_RECORDS)
    traces = [
        _sized_trace(*SERVE_TRACE, records, ctx.seed * 10 + conn)
        for conn in range(SERVE_CONNECTIONS)
    ]
    spec_text = _spec_text()
    servers: list[Server] = []
    reset_peak_rss()

    @dataclass
    class _ServeState:
        server: Server

    def build(tracer) -> _ServeState:
        server = Server(ctx.work)
        servers.append(server)
        with TraceClient("127.0.0.1", server.port, retries=0) as client:
            with tracer.span("call.request"):
                client.compress(spec_text, traces[0], chunk_records=SERVE_CHUNK_RECORDS)
        return _ServeState(server)

    try:
        server = _setups(ctx, result, build, teardown=lambda state: state.server.stop()).server
        local = TraceEngine(parse_spec_text(), codec="bzip2", workers=1)
        expected = [local.compress(raw, chunk_records=SERVE_CHUNK_RECORDS) for raw in traces]
        with TraceClient("127.0.0.1", server.port, retries=0) as control:
            _serve_loop(ctx, result, server, control, traces, expected, spec_text)
            backends = _BACKEND_LINE.findall(control.metrics_text())
        if backends:
            result.backend = max(backends, key=lambda pair: float(pair[1]))[0]
        result.backend_reason = "resolved by the server (tcgen-serve --backend default auto)"
        result.server_rss_kb = server.peak_rss_kb()
        result.ratio_raw = sum(len(raw) for raw in traces)
        result.ratio_stored = sum(len(blob) for blob in expected)
    finally:
        for server in servers:
            server.stop()
    return result


def _serve_loop(ctx, result, server, control, traces, expected, spec_text) -> None:
    """Each connection: compress, check against the local blob, decompress.

    The window is cut into SERVE_SLICES equal time slices (rates are
    their median).  In traced runs every other roundtrip of a connection
    records its spans, and the server's own request time comes from its
    metrics, read before and after the window.
    """
    from repro.client import TraceClient

    lock = threading.Lock()
    tracer = Tracer()
    tracer.enabled = ctx.trace

    def connection(index: int, deadline: float, repetition: Repetition) -> None:
        raw, want, client = traces[index], expected[index], clients[index]
        traced = False
        while time.perf_counter() < deadline:
            traced = ctx.trace and not traced
            error = None
            try:
                t0 = time.perf_counter()
                with tracer.span("call.request", on=traced):
                    blob = client.compress(spec_text, raw, chunk_records=SERVE_CHUNK_RECORDS)
                t1 = time.perf_counter()
                with tracer.span("call.request", on=traced):
                    out = client.decompress(spec_text, blob)
                t2 = time.perf_counter()
                if blob != want:
                    error = "compress reply differs from the local engine's blob"
                elif out != raw:
                    error = "decompress reply differs from the trace"
            except Exception as exc:  # refused or failed: counted as missing
                error = f"request raised {type(exc).__name__}: {exc}"
                client.close()
            with lock:
                result.attempted += 1
                if error:
                    result.fail(error)
                    continue
                repetition.add(Sample(t2 - t0, len(raw), t1 - t0, t2 - t1))
                if ctx.trace:
                    result.count_traced(traced, t2 - t0)

    clients = [TraceClient("127.0.0.1", server.port, retries=0) for _ in traces]
    before = server_counters(control)
    try:
        for _ in range(SERVE_SLICES):
            repetition = Repetition()
            deadline = time.perf_counter() + ctx.seconds / SERVE_SLICES
            threads = [
                threading.Thread(target=connection, args=(i, deadline, repetition))
                for i in range(len(traces))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            repetition.fold(result)
    finally:
        for client in clients:
            client.close()
    if ctx.trace:
        after = server_counters(control)
        result.extra["server"] = {key: after[key] - before[key] for key in after}
        result.call_layers = tracer.summary("call.")


WORKLOADS = {
    "archive": run_archive,
    "fallback": run_fallback,
    "query": run_query,
    "serve": run_serve,
}


def reset_peak_rss() -> None:
    """Start the peak-RSS window here: input generation is not measured.

    Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
    ``VmHWM``; where that is unavailable the window is the whole process.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _own_peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb(result: Result) -> float:
    return max(_own_peak_rss_kb(), result.server_rss_kb) / 1024.0
