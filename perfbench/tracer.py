"""Span tracing of the ``repro`` layers, applied from outside the program.

No code under ``src/`` knows about this module.  :class:`Tracer` replaces
each layer's public entry points (module functions wherever they were
imported by name, kernel and container methods on their classes, the
codec objects in the registry and on the engines it is handed) with thin
wrappers that record one span per call, then puts the originals back.

A span is ``[name, start_ns, end_ns, parent, bytes_in, bytes_out]``:
``parent`` is the index of the span that was open on the same thread
when it started (ultimately the public call the benchmark made), so a
layer's *self time* is its duration minus the time its children cover.  Spans stay in
memory until :meth:`Tracer.summary` folds them into per-layer totals.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

def _len(value) -> int:
    return len(value) if isinstance(value, (bytes, bytearray, memoryview, str)) else 0


# Byte counters: each returns (bytes in, bytes out) of one call.


def _in_arg(position: int):
    def count(args, kwargs, result) -> tuple[int, int]:
        return (_len(args[position]) if len(args) > position else 0), 0

    return count


def _out(args, kwargs, result) -> tuple[int, int]:
    return 0, _len(result)


def _in_arg_out(position: int):
    def count(args, kwargs, result) -> tuple[int, int]:
        return (_len(args[position]) if len(args) > position else 0), _len(result)

    return count


def _streams_out(result) -> int:
    streams, _usage = result
    return sum(len(stream) for stream in streams)


def _kernel_chunk(args, kwargs, result) -> tuple[int, int]:
    # NativeKernel.compress_chunk/compress_trace(self, raw) -> (streams, usage)
    return _len(args[1]), _streams_out(result)


def _kernel_batch(args, kwargs, result) -> tuple[int, int]:
    # NativeKernel.compress_batch(self, [raw, ...]) -> [(streams, usage), ...]
    return sum(len(raw) for raw in args[1]), sum(_streams_out(item) for item in result)


def _kernel_columns(args, kwargs, result) -> tuple[int, int]:
    # engine._compress_chunk(model, policy, columns) -> (streams, usage)
    return sum(getattr(column, "nbytes", 0) for column in args[2]), _streams_out(result)


def _kernel_records(args, kwargs, result) -> tuple[int, int]:
    # engine._decompress_chunk(model, policy, count, codes, values) -> columns
    model, count = args[0], args[2]
    return 0, count * sum(layout.value_bytes for layout in model.fields)


def _kernel_pieces(args, kwargs, result) -> tuple[int, int]:
    # NativeKernel.decompress_chunk -> bytes; decompress_batch -> [bytes, ...]
    if isinstance(result, (bytes, bytearray)):
        return 0, len(result)
    return 0, sum(len(piece) for piece in result)


class Tracer:
    """Record spans around calls into the ``repro`` layers.

    :meth:`install` patches, :meth:`uninstall` restores.  While
    :attr:`enabled` is true every wrapped call appends one span; while it
    is false the wrappers call straight through, so a run can interleave
    traced and untraced ops without re-patching.  :meth:`span` opens a
    span from the benchmark's own code (set-up phases, public API calls).
    """

    def __init__(self) -> None:
        #: Record spans now?  Off until :meth:`install`.
        self.enabled = False
        self.spans: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str | None, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0, 0])
        stack.append(index)
        return index

    def _close(self, index: int, nbytes: tuple[int, int] = (0, 0)) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4], span[5] = nbytes
        self._stack().pop()

    def span(self, name: str, on: bool = True):
        """Context manager recording one span named ``name``, if enabled and ``on``."""
        return _SpanContext(self, name) if self.enabled and on else _NULL_CONTEXT

    def wrap(self, name: str, fn, nbytes=None):
        """Return ``fn`` wrapped to record a span per call while enabled."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counted = nbytes and result is not None
                tracer._close(index, nbytes(args, kwargs, result) if counted else (0, 0))

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # A class keeps its own attribute (not an inherited one) for restore.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch_function(self, original, name: str, nbytes=None) -> None:
        """Replace ``original`` in every ``repro`` module that imported it."""
        traced = self.wrap(name, original, nbytes)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, traced)

    def _patch_method(self, cls: type, attr: str, name: str, nbytes=None) -> None:
        if attr in cls.__dict__:
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr], nbytes))

    def install(self, engines=()) -> None:
        """Patch every layer entry point and enable recording.

        ``engines`` get traced codec objects (an engine binds its codec
        when it is built, before the registry is patched).
        """
        # Import every traced module first so name scans see all importers.
        import repro.codegen.c_backend as c_backend
        import repro.codegen.native as native
        import repro.lint.genverify as genverify
        import repro.model.layout as layout
        import repro.postcompress.codecs as codecs
        import repro.query.exec  # noqa: F401
        import repro.query.predicate as predicate
        import repro.runtime.engine as engine_mod
        import repro.runtime.kernel as kernel_mod
        import repro.runtime.streaming  # noqa: F401
        import repro.spec.parser as parser
        import repro.tio.checksum as checksum
        import repro.tio.container as container
        import repro.tio.skipindex as skipindex
        import repro.tio.traceformat as traceformat

        fn = self._patch_function
        fn(parser.parse_spec, "spec.parse")
        fn(layout.build_model, "model.build")
        fn(c_backend.generate_c_library, "codegen.generate_c", _out)
        fn(genverify.assert_verified, "codegen.verify")
        fn(native.build_artifact, "codegen.compile")
        fn(native._load_library, "codegen.load")
        fn(engine_mod._compress_chunk, "kernel.compress", _kernel_columns)
        fn(engine_mod._decompress_chunk, "kernel.decompress", _kernel_records)
        fn(traceformat.unpack_records, "traceformat.unpack", _in_arg(1))
        fn(traceformat.pack_records, "traceformat.pack", _out)
        fn(codecs.decompress_bounded, "codec.decompress", _in_arg_out(1))
        fn(checksum.crc32c, "crc", _in_arg(0))
        fn(container.decode_container, "container.decode", _in_arg(0))
        fn(skipindex.build_index, "skipindex.build", _in_arg(1))
        fn(skipindex.encode_index_frame, "skipindex.encode", _out)
        fn(skipindex.parse_index_frame, "skipindex.decode")
        fn(predicate.parse_predicate, "predicate.parse")

        method = self._patch_method
        method(kernel_mod.FieldKernel, "__init__", "kernel.setup")
        for attr in ("compress_chunk", "compress_trace"):
            method(native.NativeKernel, attr, "kernel.compress", _kernel_chunk)
        method(native.NativeKernel, "compress_batch", "kernel.compress", _kernel_batch)
        for attr in ("decompress_chunk", "decompress_batch"):
            method(native.NativeKernel, attr, "kernel.decompress", _kernel_pieces)
        for cls in (container.StreamContainer, container.ChunkedContainer):
            method(cls, "encode", "container.encode", _out)
        for cls in (predicate.Comparison, predicate.And, predicate.Or):
            for attr in ("maybe", "mask"):
                method(cls, attr, "query.filter")

        traced_codecs = {}
        for codec_id, codec in list(codecs._BY_ID.items()):
            traced_codecs[codec_id] = dataclasses.replace(
                codec, compress=self.wrap("codec.compress", codec.compress, _in_arg_out(0))
            )
        for registry in (codecs._BY_ID, codecs._BY_NAME):
            self._restore.append((registry, None, dict(registry)))
        for codec_id, codec in traced_codecs.items():
            codecs._BY_ID[codec_id] = codec
            codecs._BY_NAME[codec.name] = codec
        for engine in engines:
            self._set(engine, "codec", traced_codecs[engine.codec.codec_id])
        self.enabled = True

    def uninstall(self) -> None:
        """Disable recording and put back every original :meth:`install` patched."""
        self.enabled = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)

    # -- folding ---------------------------------------------------------

    def summary(self, roots: str) -> dict:
        """Fold spans under top-level spans starting with ``roots``.

        Returns ``{"roots": n, "wall_s": total, "layers": {name: {"s":
        self seconds, "in": bytes, "out": bytes, "calls": n}}}``.  ``crc`` splits into
        ``crc.encode``/``crc.decode`` by its nearest encode/decode
        ancestor; the top-level spans' own self time is ``engine.self``.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        top = [-1] * len(spans)
        for index, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                top[index] = top[parent]
            else:
                top[index] = index
        layers: dict[str, dict] = {}
        wall_ns = 0
        root_count = 0
        for index, (name, start, end, parent, bytes_in, bytes_out) in enumerate(spans):
            if not spans[top[index]][0].startswith(roots):
                continue
            if parent < 0:
                root_count += 1
                wall_ns += end - start
                name = "engine.self"
            elif name == "crc":
                name = "crc." + self._direction(index)
            entry = layers.setdefault(name, {"s": 0.0, "in": 0, "out": 0, "calls": 0})
            entry["s"] += (end - start - child_ns[index]) / 1e9
            entry["in"] += bytes_in
            entry["out"] += bytes_out
            entry["calls"] += 1
        return {"roots": root_count, "wall_s": wall_ns / 1e9, "layers": layers}

    def _direction(self, index: int) -> str:
        spans = self.spans
        parent = spans[index][3]
        while parent >= 0:
            name = spans[parent][0]
            if name.endswith(".encode") or name == "skipindex.build":
                return "encode"
            if name.endswith(".decode"):
                return "decode"
            parent = spans[parent][3]
        return "decode"


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.index)


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()
