"""Per-layer numbers: profiler self time by layer, and the modelled work
counters read from a metrics session's exported rows.

Layers are the packages of ``src/repro``.  Functions outside it
(builtins such as ``heapq.heappush``, the standard library) have no
layer of their own: their self time is charged to the layer that called
them, through the profiler's per-caller edges, so ``bytes`` work done
for TCP framing is ``net`` time and heap pushes are ``sim`` time.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS = ("sim", "pcie", "memory", "net", "devices.nvme", "devices.nic",
          "devices.gpu", "core", "host", "algos", "apps", "schemes",
          "trace", "metrics", "other")

_PACKAGES = {"sim", "pcie", "memory", "net", "core", "host", "algos", "apps",
             "schemes", "trace", "metrics"}

# The layer self times must add up to the profiled total within this
# share of it: charging foreign time to callers moves time, never drops
# or duplicates it.
SUM_TOLERANCE = 0.005

Func = Tuple[str, int, str]   # pstats key: (file, line, function)


def layer_of(filename: str, src_root: str, bench_root: str) -> Optional[str]:
    """The layer of a profiled function's file; ``None`` for a function
    outside the simulator and the benchmark (charged to its callers)."""
    if filename.startswith(bench_root):
        return "other"
    if not filename.startswith(src_root):
        return None
    parts = os.path.relpath(filename, src_root).split(os.sep)
    if parts[0] in _PACKAGES:
        return parts[0]
    if parts[0] == "devices" and parts[1] in ("nvme", "nic", "gpu"):
        return f"devices.{parts[1]}"
    return "other"


class LayerProfile:
    """Self time, share and incoming cross-layer calls per layer, from
    ``pstats.Stats(...).stats``."""

    def __init__(self, stats: Dict[Func, tuple], src_root: str,
                 bench_root: str):
        self._stats = stats
        self._layer = {func: layer_of(func[0], src_root, bench_root)
                       for func in stats}
        self._owners: Dict[Tuple[Func, bool], Dict[str, float]] = {}
        self.total_s = sum(entry[2] for entry in stats.values())
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls_in = {layer: 0 for layer in LAYERS}
        for func, (_, _, tottime, _, callers) in stats.items():
            layer = self._layer[func]
            if layer is not None:
                self.self_s[layer] += tottime
                for caller, edge in callers.items():
                    if self._main_owner(caller) != layer:
                        self.calls_in[layer] += edge[1]
                continue
            for owner, share in self._foreign_owners(func, True).items():
                self.self_s[owner] += tottime * share

    def share(self, layer: str) -> float:
        return self.self_s[layer] / self.total_s if self.total_s else 0.0

    def calls(self, funcname: str, file_suffix: str) -> int:
        """Primitive call count of one profiled function."""
        return sum(entry[1] for func, entry in self._stats.items()
                   if func[2] == funcname and func[0].endswith(file_suffix))

    def _main_owner(self, func: Func) -> str:
        layer = self._layer.get(func)
        if layer is not None:
            return layer
        owners = self._foreign_owners(func, False)
        return max(sorted(owners), key=owners.__getitem__)

    def _foreign_owners(self, func: Func,
                        for_self_time: bool) -> Dict[str, float]:
        """How a foreign function's time splits over the layers whose
        code called it, directly or through other foreign functions.

        Direct callers are weighted by the edge's self time (the callee's
        self time spent on that caller's behalf); callers further up by
        the edge's cumulative time.  Edges without time are weighted by
        call count; a function with no callers, or one reached only
        through a cycle of foreign functions, belongs to ``other``.
        """
        key = (func, for_self_time)
        cached = self._owners.get(key)
        if cached is not None:
            return cached
        self._owners[key] = {"other": 1.0}   # cycle guard
        callers = self._stats[func][4]
        owners: Dict[str, float] = defaultdict(float)
        for weight_index in ((2, 3, 1) if for_self_time else (3, 2, 1)):
            total = sum(edge[weight_index] for edge in callers.values())
            if total > 0:
                break
        else:
            total = 0
        for caller, edge in callers.items():
            weight = edge[weight_index] / total if total else 0.0
            if weight == 0.0:
                continue
            layer = self._layer.get(caller)
            if layer is not None:
                owners[layer] += weight
                continue
            for owner, share in self._foreign_owners(caller, False).items():
                owners[owner] += weight * share
        result = dict(owners) if owners else {"other": 1.0}
        self._owners[key] = result
        return result


# -- modelled counters from exported metric rows ---------------------------

def parse_rows(lines: Iterable[str]) -> List[Tuple[str, int, str, str, float]]:
    """Rows of the CSV export (``repro.metrics.csv_lines``)."""
    rows = []
    for line in lines:
        fields = line.split(",")
        if fields[0] == "sim":
            continue
        if len(fields) != 5:
            raise ValueError(f"malformed metrics row: {line!r}")
        sim, tick, metric, labels, value = fields
        rows.append((sim, int(tick), metric, labels, float(value)))
    return rows


class RowCounters:
    """Aggregates of exported metric rows.

    Rows are change-compressed samples: a series holds its value from a
    row's tick until its next row, starting at 0 at tick 0, and every
    series has a final row at its simulator's last tick.
    """

    def __init__(self, rows: List[Tuple[str, int, str, str, float]]):
        self.series: Dict[Tuple[str, str, str], List[Tuple[int, float]]] = (
            defaultdict(list))
        self.end: Dict[str, int] = {}
        for sim, tick, metric, labels, value in rows:
            self.series[(sim, metric, labels)].append((tick, value))
            self.end[sim] = max(self.end.get(sim, 0), tick)

    def final_sum(self, metric: str, label: str = "") -> float:
        """Sum over series (optionally only those carrying ``label``) of
        each series' last value: the total of a counter."""
        return sum(points[-1][1]
                   for (_, name, labels), points in self.series.items()
                   if name == metric
                   and (not label or label in labels.split(";")))

    def final_mean(self, metric: str) -> float:
        """Mean over series of each series' last value."""
        finals = [points[-1][1]
                  for (_, name, _), points in self.series.items()
                  if name == metric]
        return sum(finals) / len(finals) if finals else 0.0

    def peak(self, metric: str) -> float:
        """Largest sampled value of any series."""
        return max((value for (_, name, _), points in self.series.items()
                    if name == metric for _, value in points), default=0.0)

    def time_mean(self, metric: str) -> float:
        """Time-weighted mean of the metric summed over its series (e.g.
        the bytes in flight on all links together), averaged over the
        simulators by their simulated length."""
        integral = 0.0
        for (sim, name, _), points in self.series.items():
            if name != metric:
                continue
            for (tick, value), (next_tick, _) in zip(
                    points, points[1:] + [(self.end[sim], 0.0)]):
                integral += value * (next_tick - tick)
        duration = sum(self.end.values())
        return integral / duration if duration else 0.0

    def categories(self, metric: str) -> List[str]:
        return sorted({label.split("=", 1)[1]
                       for (_, name, labels) in self.series if name == metric
                       for label in labels.split(";")
                       if label.startswith("category=")})
