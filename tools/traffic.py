"""Which statements and which parameter defaults the svtc product paths use.

Run from a checkout:

    python3 tools/traffic.py > traffic.txt

Inside a temporary directory, at tiny size, it runs every product entry
point: the three perfbench workloads in both modes (``--trace 0`` and
``--trace 1``); ``svtc gen-data``, plain and with ``--heatmaps``; ``svtc
train`` with mlp, conv, attn and none fusion, and with attn at batch 1 on
the heatmap corpus; ``svtc eval`` and ``svtc decode`` with the ``avg`` and
``c`` heads; ``svtc align``; and ``svtc gradcheck``.  Only code under
``src/svtc`` is traced, and nothing is written into the checkout.

It prints sorted lines, so the outputs of two trees can be diffed:

    default ndgrad.log_softmax(axis) used 0 of 10346
    unrun src/svtc/align.py:0042

A ``default`` line counts, for one parameter with a default of a function or
method defined at module level, the product calls that left it at its
default, out of all product calls.  An ``unrun`` line is a statement that no
product path executed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import dis
import functools
import importlib
import inspect
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread before numpy loads, as the CLI and the benchmark pin it
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "svtc"
# the perfbench smoke test's tiny size
TINY = dict(n_train=4, n_dev=2, n_test=3)
# opcodes a line may hold without being a statement of its own
_BOOKKEEPING = {"RESUME", "NOP", "CACHE", "MAKE_CELL", "COPY_FREE_VARS", "RETURN_GENERATOR"}


class LineTracer:
    """Records the (file, line) pairs executed under ``src/svtc``; a code
    object stops being traced once every line of it has run."""

    def __init__(self):
        self.hit = set()
        self._open = {}  # code object -> lines not yet hit

    def _pending(self, code):
        if code not in self._open:
            self._open[code] = {(code.co_filename, n) for n in _code_lines(code)} - self.hit
        return self._open[code]

    def _local(self, frame, event, arg):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            self.hit.add(key)
            self._open[frame.f_code].discard(key)
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(str(PACKAGE)) or not self._pending(code):
            return None
        return self._local

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def _code_lines(code) -> set:
    return {
        ins.positions.lineno
        for ins in dis.get_instructions(code)
        if ins.opname not in _BOOKKEEPING and ins.positions.lineno is not None
    }


def statements(path: Path) -> set:
    """(file, line) of every statement compiled from ``path``."""
    out, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        out |= {(str(path), n) for n in _code_lines(code)}
        stack += [c for c in code.co_consts if inspect.iscode(c)]
    return out


class DefaultCounter:
    """Wraps every module-level function and method of svtc that has a
    parameter default, and counts per such parameter the calls that left it
    at its default and the calls in all."""

    def __init__(self):
        self.counts = {}  # "module.qualname(param)" -> [used default, calls]

    def _wrap(self, func, label):
        sig = inspect.signature(func)
        names = [p.name for p in sig.parameters.values() if p.default is not p.empty]
        keys = [(f"{label}({n})", n) for n in names]
        for key, _ in keys:
            self.counts[key] = [0, 0]
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            passed = sig.bind(*args, **kwargs).arguments
            for key, name in keys:
                rec = counts[key]
                rec[0] += name not in passed
                rec[1] += 1
            return func(*args, **kwargs)

        return wrapper if names else None

    def install(self, modules):
        swaps = {}  # original function -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for obj in list(vars(mod).values()):
                if _ours(obj) and obj not in swaps:
                    swaps[obj] = self._wrap(obj, f"{short}.{obj.__qualname__}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, raw in list(vars(obj).items()):
                        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                        func = raw.__func__ if kind else raw
                        if _ours(func):
                            wrapped = self._wrap(func, f"{short}.{func.__qualname__}")
                            if wrapped is not None:
                                setattr(obj, attr, kind(wrapped) if kind else wrapped)
        # rebind every module's reference, imported names included
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and swaps.get(obj) is not None:
                    setattr(mod, name, swaps[obj])


def _ours(obj) -> bool:
    return inspect.isfunction(obj) and obj.__code__.co_filename.startswith(str(PACKAGE))


def _cli(cli, *argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"error: svtc {' '.join(argv)} exited {code}: {err.getvalue()}")


def run_products(bench, cli):
    """Every product entry point, at tiny size, in the current directory."""
    bench.WORKLOADS = {
        name: dataclasses.replace(wl, gen={**wl.gen, **TINY}, epochs=1)
        for name, wl in bench.WORKLOADS.items()
    }
    for name in sorted(bench.WORKLOADS):
        for trace in ("0", "1"):
            argv = ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                bench.main(argv)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"error: perfbench {' '.join(argv)} reported {result}")

    Path("tiny.json").write_text(json.dumps(TINY))
    _cli(cli, "gen-data", "--out", "corpus", "--config", "tiny.json")
    _cli(cli, "gen-data", "--out", "corpus-hm", "--config", "tiny.json", "--heatmaps")
    short = ("--epochs", "2", "--align-warmup", "1")
    for fusion in ("mlp", "conv", "attn", "none"):
        _cli(cli, "train", "--corpus", "corpus", "--out", f"run-{fusion}", "--fusion", fusion,
             *short)
    _cli(cli, "train", "--corpus", "corpus-hm", "--out", "run-hm", "--fusion", "attn",
         "--batch-size", "1", *short)
    ckpt = "run-mlp/checkpoint"
    for head in ("avg", "c"):
        _cli(cli, "eval", "--corpus", "corpus", "--checkpoint", ckpt, "--head", head)
        _cli(cli, "decode", "--corpus", "corpus", "--checkpoint", ckpt, "--head", head,
             "--split", "test")
    _cli(cli, "align", "--corpus", "corpus", "--checkpoint", ckpt, "--out", "align")
    _cli(cli, "gradcheck")


def main() -> int:
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout either
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    lines = LineTracer()
    counter = DefaultCounter()
    start = os.getcwd()
    with lines.active(), tempfile.TemporaryDirectory(prefix="svtc-traffic-") as tmp:
        names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
        modules = [importlib.import_module(f"svtc.{name}") for name in names]
        bench = importlib.import_module("bench")
        counter.install(modules)
        os.chdir(tmp)
        try:
            run_products(bench, importlib.import_module("svtc.cli"))
        finally:
            os.chdir(start)

    report = []
    for key, (used, calls) in counter.counts.items():
        report.append(f"default {key} used {used} of {calls}")
    for path in sorted(PACKAGE.glob("*.py")):
        for file, line in statements(path) - lines.hit:
            report.append(f"unrun {Path(file).relative_to(ROOT)}:{line:04d}")
    print("\n".join(sorted(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
