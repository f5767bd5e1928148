"""Line-oriented text serialization for factor graphs.

Format, one record per line ('#' starts a comment):

    VAR <num_vars>
    FACTOR <type> <idx...> <params...>

Built-in types and their fields:

    FACTOR prior  i  mean var
    FACTOR odom   i j  u var
    FACTOR range  i j  z var offset
    FACTOR stereo i  z f b var

Additional types may be registered with :func:`register_factor_type` and are
serialized under their registered id.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .gvi import _KINDS, Factor, FactorGraph

_Builder = Callable[[Sequence[int], Sequence[float]], Factor]

_REGISTRY: Dict[str, Tuple[int, int, _Builder]] = {}


def register_factor_type(kind: str, arity: int, nparams: int, builder: _Builder):
    """Register a factor type id for text round-tripping: one token of the
    format, with no whitespace and no '#'."""
    if kind.split() != [kind] or "#" in kind:
        raise ValueError(f"factor type id {kind!r} is not one token without '#'")
    _REGISTRY[kind] = (arity, nparams, builder)


for _kind in _KINDS.values():
    register_factor_type(_kind.name, _kind.arity, _kind.nparams, _kind.factor)


def _column(values: np.ndarray, fmt: Callable) -> List[str]:
    """``fmt`` of each entry of an int64 or float64 column; a column of one
    value (a shared noise variance, say) is formatted once."""
    bits = values.view(np.int64)  # bitwise, so 0.0 and -0.0 differ
    if (bits == bits[0]).all():
        return [fmt(values[0].item())] * len(values)
    return list(map(fmt, values.tolist()))


def dumps_graph(graph: FactorGraph) -> str:
    """The text of ``graph``; a built-in kind's block is formatted column by
    column."""
    lines = [""] * sum(len(b.at) for b in graph.blocks)
    for b in graph.blocks:
        if b.kind is None:
            rows = [[f.kind, *map(str, f.indices), *(repr(float(p)) for p in f.params)]
                    for f in b.factors]
        else:
            columns = [_column(c, str) for c in b.idx.T] + [_column(c, repr) for c in b.params.T]
            rows = [[b.kind.name, *row] for row in zip(*columns)]
        for at, row in zip(b.at.tolist(), rows):
            lines[at] = "FACTOR " + " ".join(row)
    unregistered = sorted((at, f.kind) for b in graph.blocks if b.kind is None
                          for at, f in zip(b.at.tolist(), b.factors) if f.kind not in _REGISTRY)
    if unregistered:
        raise ValueError(f"factor kind {unregistered[0][1]!r} "
                         "is not registered for serialization")
    return "\n".join([f"VAR {graph.num_vars}", *lines]) + "\n"


def loads_graph(text: str) -> FactorGraph:
    """Parse the text format; a malformed record raises ValueError naming its line."""
    num_vars = None
    factors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = line.split()
            tag = tokens[0].upper()
            if tag == "VAR":
                if num_vars is not None:
                    raise ValueError("duplicate VAR record")
                if len(tokens) != 2:
                    raise ValueError(f"VAR expects 1 field, got {len(tokens) - 1}")
                num_vars = int(tokens[1])
                if num_vars < 0:
                    raise ValueError(f"VAR must be nonnegative, got {num_vars}")
            elif tag == "FACTOR":
                kind = tokens[1] if len(tokens) > 1 else ""
                if kind not in _REGISTRY:
                    raise ValueError(f"unknown factor type {kind!r}")
                arity, nparams, builder = _REGISTRY[kind]
                fields = tokens[2:]
                if len(fields) != arity + nparams:
                    raise ValueError(f"{kind} expects {arity} indices and "
                                     f"{nparams} params, got {len(fields)} fields")
                idx = [int(t) for t in fields[:arity]]
                params = [float(t) for t in fields[arity:]]
                factors.append(builder(idx, params))
            else:
                raise ValueError(f"unknown record {tokens[0]!r}")
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if num_vars is None:
        raise ValueError("missing VAR record")
    return FactorGraph(num_vars=num_vars, factors=tuple(factors))


def write_new_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as a new file.

    An existing file is unlinked, not truncated: ext4 (auto_da_alloc) flushes
    a truncated and rewritten file to the device when it is closed, so every
    rewrite of one path would wait on one disk write.  A new file is left to
    ordinary delayed writeback.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8")


def dump_graph(graph: FactorGraph, path) -> None:
    write_new_text(path, dumps_graph(graph))


def load_graph(path) -> FactorGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())
