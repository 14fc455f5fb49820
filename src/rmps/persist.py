"""CSV/JSON persistence: record tables, run summaries, complex matrices.

Float fields are written with ``repr`` (shortest round-trip form), so a file
produced from identical records is byte-identical regardless of worker count.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(records: Sequence, path: str | Path) -> None:
    """Per-sample records, one line each; the columns are the fields of the
    record dataclass, in declaration order."""
    fields = list(records[0].__dataclass_fields__)
    lines = [",".join(fields)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, f)) for f in fields))
    _write_text(path, "\n".join(lines) + "\n")


def write_summary(path: str | Path, subcommand: str, config: dict, results) -> None:
    """Run summary JSON embedding {version, config, seed} verbatim.

    Re-running the embedded config reproduces the file byte-identically
    except for the ``timestamp`` field.
    """
    doc = {
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "seed": config.get("seed"),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "results": jsonable(results),
    }
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def jsonable(obj):
    """Recursively convert dataclass-ish report objects into JSON trees."""
    if isinstance(obj, dict):
        return {_json_key(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return None if obj != obj else float(obj)  # NaN has no JSON literal
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if hasattr(obj, "__dataclass_fields__"):
        return {f: jsonable(getattr(obj, f)) for f in obj.__dataclass_fields__}
    return obj


def _json_key(key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(x) for x in key)
    return str(key)


def _write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# complex matrices as row-major [re, im] pairs


def matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_matrix(pairs: Sequence[Sequence[float]], rows: int, cols: int) -> np.ndarray:
    if len(pairs) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(pairs)}")
    flat = np.array([complex(re, im) for re, im in pairs])
    return flat.reshape(rows, cols)


def vector_to_list(vec: np.ndarray) -> list[float]:
    return [float(x) for x in np.asarray(vec, dtype=float)]
