"""In-memory call tracing for the benchmark's traced runs.

`Tracer.install` replaces public functions of the tcamtree modules with
timing wrappers, in the namespaces that call them by name (a function
imported with `from .x import f` must be patched in the importer), and
`Tracer.uninstall` puts the originals back.  Untraced runs never install it,
so they execute the program unmodified.

Two kinds of calls are recorded:
- span calls keep one span each, (name, start_ns, end_ns, parent, self_ns),
  where parent is the index of the enclosing span or -1;
- hot calls (per-lookup functions, called millions of times) are only
  aggregated into calls / total_ns / self_ns per name, so tracing them does
  not fill memory.
Self time is a call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import json
import time

from tcamtree import bounds, cli, packing, pipeline, prefixdb, tiler

# (name, owner, attribute, hot).  Names are <module>.<function> of the
# definition; owners are every namespace the planner, runtime or benchmark
# calls the function through.
TARGETS = [
    ("prefixdb.parse_file", prefixdb, "parse_file", False),
    ("cli.build_plan", cli, "build_plan", False),
    ("cli.render_report", cli, "_render_report", False),
    ("cli.render_json", cli, "render_json", False),
    ("trie.build_unibit_trie", cli, "build_unibit_trie", False),
    ("trie.compute_lean_levels", cli, "compute_lean_levels", False),
    ("bounds.build_report", bounds, "build_report", False),
    ("tiler.build_tree", pipeline, "build_tree", False),
    ("packing.hybridize", pipeline, "hybridize", False),
    ("packing.sram_rows_for_table", pipeline, "sram_rows_for_table", True),
    ("packing.sram_rows_for_table", packing, "sram_rows_for_table", True),
    ("packing.tag_and_pack", pipeline, "tag_and_pack", False),
    ("pipeline.map_to_pipeline", pipeline, "map_to_pipeline", False),
    ("tiler.tree_insert", pipeline, "tree_insert", False),
    ("tiler.tree_delete", pipeline, "tree_delete", False),
    ("pipeline.insert", pipeline.PipelineState, "insert", False),
    ("pipeline.delete", pipeline.PipelineState, "delete", False),
    ("pipeline.search", pipeline.PipelineState, "search", True),
    ("tiler.lookup", tiler.TreeTable, "lookup", True),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.hot: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self._frames: list[list[int]] = []    # child-time accumulators, innermost last
        self._open: list[int] = []            # indices of open spans
        self._saved: list = []

    def install(self):
        for name, owner, attr, hot in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hot))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hot):
        clock = time.perf_counter_ns
        frames = self._frames
        if hot:
            agg = self.hot.setdefault(name, [0, 0, 0])

            @functools.wraps(fn)
            def traced_hot(*args, **kwargs):
                frame = [0]
                frames.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    frames.pop()
                    if frames:
                        frames[-1][0] += dur
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]

            return traced_hot

        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_.pop()
                dur = end - start
                if frames:
                    frames[-1][0] += dur
                spans[index] = (name, start, end, parent, dur - frame[0])

        return traced

    # -- queries ------------------------------------------------------------

    def mark(self) -> int:
        """Position in the span list; pass to `self_s`/`durations` to select later spans."""
        return len(self.spans)

    def self_s(self, name: str, since: int = 0) -> float:
        """Summed self time of the span calls named `name` since `since`, in seconds."""
        return sum(s[4] for s in self.spans[since:] if s[0] == name) / 1e9

    def durations(self, name: str, since: int = 0) -> list:
        """[(duration_ns, self_ns)] of the span calls named `name` since `since`."""
        return [(s[2] - s[1], s[4]) for s in self.spans[since:] if s[0] == name]

    def hot_snapshot(self) -> dict:
        return {name: list(v) for name, v in self.hot.items()}

    def write(self, path):
        """Spans one JSON array per line, then one line of hot-call aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"hot": self.hot}) + "\n")
