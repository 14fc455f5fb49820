"""Outside-in layer tracing: timing wrappers rebound over the rmps layers.

Run as a script, this is the traced execution of one workload::

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.npz -- \
        -m rmps.cli experiment purity --d 2 --D 4,8 --n 20 --l 2 \
        --samples 100 --seed 1

It imports the workload's entry point, rebinds every name in ``PATCHES`` to
a wrapper in the module that calls it, runs the entry point in this process
under a root span ``workload``, and writes all spans to ``--spans`` when it
ends.  A span is (name, parent, start, end, value); ``value`` carries the
count a boundary adds, such as a cache hit or the bytes a write produced.
:func:`summarize` turns a spans file into calls, self time and values per
span name.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

ROOT_SPAN = "workload"

# (module that calls the function, attribute, span name)
PATCHES = (
    ("rmps.cli", "mean_trace_experiment", "experiments.aggregate"),
    ("rmps.cli", "purity_scaling_experiment", "experiments.aggregate"),
    ("rmps.cli", "concentration_tail_experiment", "experiments.aggregate"),
    ("rmps.cli", "write_records_csv", "persist.write_records_csv"),
    ("rmps.cli", "write_summary", "persist.write_summary"),
    ("rmps.experiments", "collect_records", "experiments.collect_records"),
    ("rmps.experiments", "stream", "ensembles.stream"),
    ("rmps.experiments", "haar_unitary", "ensembles.haar_unitary"),
    ("rmps.experiments", "sample_mps", "ensembles.sample_mps"),
    ("rmps.experiments", "reduced_density", "engine.reduced_density"),
    ("rmps.experiments", "normalize", "engine.normalize"),
    ("rmps.experiments", "purity", "engine.purity"),
    ("rmps.experiments", "renyi2", "engine.renyi2"),
    ("rmps.experiments", "sup_distance_to_mixed", "engine.sup_distance_to_mixed"),
    ("rmps.ensembles", "haar_unitary", "ensembles.haar_unitary"),
    ("rmps.ensembles", "assemble_sample", "ensembles.assemble_sample"),
    ("rmps.engine", "channel_apply", "engine.channel_apply"),
    ("rmps.engine", "channel_apply_adjoint", "engine.channel_apply_adjoint"),
    ("rmps.engine", "window_products", "engine.window_products"),
    ("rmps.engine", "purity", "engine.purity"),
    ("rmps.weingarten", "wg_from_cycle_type", "weingarten.wg_from_cycle_type"),
    ("rmps.weingarten", "integrate_monomial", "weingarten.integrate_monomial"),
    ("rmps.weingarten", "evaluate_trace_expression",
     "weingarten.evaluate_trace_expression"),
    ("rmps.weingarten", "WeingartenCache.__init__", "weingarten.cache.load"),
    ("rmps.weingarten", "WeingartenCache.lookup", "weingarten.cache.lookup"),
    ("rmps.weingarten", "WeingartenCache.store", "weingarten.cache.store"),
    ("rmps.weingarten", "character", "symgroup.character"),
    ("rmps.weingarten", "schur_dim", "symgroup.schur_dim"),
    ("exact_wg", "monomial", "exact_wg.monomial"),
    ("exact_wg", "expression", "exact_wg.expression"),
    ("exact_wg", "cold_pass", "exact_wg.cold_pass"),
    ("exact_wg", "warm_pass", "exact_wg.warm_pass"),
)


def _cache_hit(args, result) -> float:
    return float(result is not None)


def _written_bytes(path_arg: int):
    return lambda args, result: float(os.path.getsize(args[path_arg]))


# span value taken from the call's arguments and result
SPAN_VALUES = {
    "weingarten.cache.lookup": _cache_hit,
    "persist.write_records_csv": _written_bytes(1),
    "persist.write_summary": _written_bytes(0),
}


class Tracer:
    """Spans kept in flat arrays, one entry per call, in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, value=None, flag=()):
        """``fn`` recording one span per call.

        ``value(args, result)`` sets the span's value after a return; an
        exception of type ``flag`` sets it to 1 and propagates.
        """
        nid = self.name_id(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        values, stack, clock = self.values, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except flag:
                values[index] = 1.0
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if value is not None:
                values[index] = value(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every name in ``PATCHES`` whose module is imported."""
        from rmps.engine import DegenerateSampleError

        for module_name, attr, span in PATCHES:
            self.name_id(span)  # every layer is reported, called or not
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            flag = DegenerateSampleError if span == "engine.normalize" else ()
            setattr(target, leaf,
                    self.wrap(span, getattr(target, leaf), SPAN_VALUES.get(span), flag))

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
            values=np.frombuffer(self.values),
        )


def summarize(path: Path) -> dict:
    """Per span name: calls, self time and summed value, overall and by phase.

    A phase is a child of the root span; ``by_phase`` attributes every span
    to the phase it ran under.  ``base_s`` is the root span's duration.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        ids, parents = data["name_ids"], data["parents"]
        durations = data["ends"] - data["starts"]
        values = data["values"]
    if ids.size == 0 or names[ids[0]] != ROOT_SPAN:
        raise ValueError(f"{path}: no root span {ROOT_SPAN!r}")
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=durations[nested],
                          minlength=ids.size)
    self_s = durations - covered
    k = len(names)

    def table(keys, size):
        calls = np.bincount(keys, minlength=size)
        selfs = np.bincount(keys, weights=self_s, minlength=size)
        vals = np.bincount(keys, weights=values, minlength=size)
        return calls, selfs, vals

    calls, selfs, vals = table(ids, k)
    spans = {name: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                    "value": float(vals[i])} for i, name in enumerate(names)}

    # climb to the ancestor just below the root (index 0)
    phase = np.arange(ids.size)
    while True:
        up = parents[phase]
        move = up > 0
        if not move.any():
            break
        phase = np.where(move, up, phase)
    calls, _, vals = table(ids[phase] * k + ids, k * k)
    by_phase: dict[str, dict] = {}
    for key in np.flatnonzero(calls):
        outer, inner = divmod(int(key), k)
        if outer != ids[0]:
            by_phase.setdefault(names[outer], {})[names[inner]] = {
                "calls": int(calls[key]), "value": float(vals[key])}
    return {"base_s": float(durations[0]), "spans": spans, "by_phase": by_phase}


def _entry(command: list[str]):
    """The workload's entry point and its arguments, imported here."""
    if command[:2] == ["-m", "rmps.cli"]:
        import rmps.cli

        return rmps.cli.main, command[2:]
    if command and Path(command[0]).name == "exact_wg.py":
        import exact_wg

        return exact_wg.main, command[1:]
    raise SystemExit(f"no traced entry point for {command[:2]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", type=Path, required=True,
                        help="where to write the spans (.npz)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- then the workload's interpreter arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    entry, entry_args = _entry(command)
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap(ROOT_SPAN, entry)(entry_args)
    finally:
        tracer.save(args.spans)


if __name__ == "__main__":
    sys.exit(main())
