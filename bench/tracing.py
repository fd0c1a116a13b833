"""Traced in-process run: spans around the calls into each timescore layer.

Each module-level reference to a layer function inside the ``timescore``
package is rebound to a recording wrapper, at the name the caller looks up
(``segment`` is bound in ``timeline``, ``scoring`` and ``standings``).
Wrappers exist only while a :class:`Tracer` is installed and are restored
when it is removed. A function that no longer exists is listed in
``Tracer.missing`` instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# (layer, defining module, function): the public calls timed per layer.
LAYER_FUNCTIONS = (
    ("ingest", "ingest", "parse_season"),
    ("timeline", "timeline", "segment"),
    ("scoring", "scoring", "match_points"),
    ("scoring", "scoring", "classic_points"),
    ("scoring", "scoring", "time_points"),
    ("scoring", "scoring", "mixed_points"),
    ("scoring", "scoring", "goaldiff_points"),
    ("standings", "standings", "final_table"),
    ("standings", "standings", "evolution"),
    ("indicators", "indicators", "compute_bundle"),
    ("indicators", "indicators", "points_ecdf"),
    ("indicators", "indicators", "minutes_to_upper"),
    ("indicators", "indicators", "draws_to_wins"),
    ("display", "cli", "build_comparison_csv"),
    ("display", "standings", "evolution_to_csv"),
    ("display", "indicators", "indicators_to_csv"),
    ("display", "indicators", "indicators_to_json"),
    ("display", "indicators", "ecdf_to_csv"),
    ("display", "display", "format_decimal"),
)
LAYERS = ("ingest", "timeline", "scoring", "standings", "indicators", "display", "cli")


class Tracer:
    """Records one span per wrapped call: (name, layer, parent, start, end, command).

    ``parent`` indexes ``spans`` (-1 for a command span); all spans of one
    command share its command id. Spans stay in memory until :meth:`reset`.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.command_id = 0
        self.missing: set[str] = set()
        self.counts: Counter = Counter()
        self._patched: list = []

    def _wrap(self, name, layer, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, parent, start, end, self.command_id)
            if observe is not None:
                try:
                    observe(result)
                except (AttributeError, TypeError, IndexError):
                    self.missing.add(f"result of {name}")
            return result

        return traced

    def install(self) -> None:
        """Rebind every package-level reference to each layer function."""
        package = [
            m for n, m in list(sys.modules.items())
            if n == "timescore" or n.startswith("timescore.")
        ]
        observers = {
            "parse_season": self._observe_parse,
            "final_table": self._observe_table,
            "evolution": self._observe_evolution,
            "points_ecdf": self._observe_ecdf,
        }
        for layer, module, name in LAYER_FUNCTIONS:
            fn = getattr(sys.modules.get(f"timescore.{module}"), name, None)
            if not callable(fn):
                self.missing.add(f"{module}.{name}")
                continue
            wrapper = self._wrap(name, layer, fn, observers.get(name))
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def command(self, name: str, call):
        """Run one CLI command as a ``cli`` span with a fresh command id."""
        self.command_id += 1
        return self._wrap(name, "cli", call)()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _observe_parse(self, dataset) -> None:
        self.counts["fixtures"] = len(dataset.matches)
        self.counts["goals"] = sum(len(m.goals) for m in dataset.matches)

    def _observe_leader(self, table) -> None:
        digits = len(str(table.rows[0].points.denominator))
        self.counts["leader_den_digits"] = max(self.counts["leader_den_digits"], digits)

    def _observe_table(self, table) -> None:
        self.counts["tables_built"] += 1
        self._observe_leader(table)

    def _observe_evolution(self, evo) -> None:
        self.counts["tables_built"] += len(evo.tables)
        self._observe_leader(evo.tables[-1])

    def _observe_ecdf(self, steps) -> None:
        self.counts["ecdf_steps"] += len(steps)

    def summarize(self) -> tuple[dict[str, float], Counter]:
        """Self time per layer and call count per function over the recorded spans.

        A span's self time is its duration minus the time its direct child
        spans cover; children of one span never overlap, so they add up.
        """
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls: Counter = Counter()
        for index, (name, layer, _, start, end, _) in enumerate(self.spans):
            self_s[layer] += end - start - covered[index]
            calls[name] += 1
        return self_s, calls

    def dump(self) -> dict:
        """The recorded spans in a JSON-ready form, times in microseconds from the first."""
        origin = self.spans[0][3] if self.spans else 0.0
        return {
            "fields": ["name", "layer", "parent", "start_us", "end_us", "command"],
            "spans": [
                [name, layer, parent, round((start - origin) * 1e6, 1),
                 round((end - origin) * 1e6, 1), command]
                for name, layer, parent, start, end, command in self.spans
            ],
        }


@contextlib.contextmanager
def installed(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.remove()
