"""In-memory span recorder and the arithmetic over recorded spans.

A span is (id, name, start_ns, end_ns, thread, parent, key). ``parent`` is
the span open on the same thread when this one began (-1 for none), so
nesting follows the call stack of one thread. ``key`` carries one integer
the analysis needs: the logical thread id of a spawn, task, join or wait,
whether a pop found a worker, or how many workers a reap culled.

Spans are kept in flat integer arrays while the run lasts and written out
once, when it ends.
"""

from __future__ import annotations

import gzip
import itertools
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns


_WIDTH = 7


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._stacks = threading.local()
        self._buf = array("q")

    def name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _stack(self):
        st = getattr(self._stacks, "st", None)
        if st is None:
            st = self._stacks.st = []
        return st

    def record(self, sid, name, start, end, parent, key):
        # one extend of a tuple of ints runs no bytecode, so it holds the
        # GIL throughout and rows from concurrent threads never interleave
        self._buf.extend((sid, name, start, end, threading.get_ident(),
                          parent, key))

    def wrap(self, name: str, fn, key=None):
        """Return fn wrapped in a span; key(args, result) -> int, or None."""
        nid = self.name_id(name)
        ids = self._ids
        stack = self._stack
        record = self.record

        def traced(*args, **kwargs):
            st = stack()
            parent = st[-1] if st else -1
            sid = next(ids)
            st.append(sid)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                st.pop()
                record(sid, nid, t0, t1, parent,
                       key(args, result) if key is not None else 0)

        return traced

    def rows(self):
        """Recorded spans as (id, name, start, end, thread, parent, key)."""
        b = self._buf
        names = self.names
        return [(b[i], names[b[i + 1]], *b[i + 2:i + 7])
                for i in range(0, len(b), _WIDTH)]

    def write(self, path: str):
        with gzip.open(path, "wt") as f:
            f.write("id,name,start_ns,end_ns,thread,parent,key\n")
            for r in self.rows():
                f.write(",".join(map(str, r)) + "\n")


def self_times(rows):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, _, parent, _ in rows:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in rows:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = end - start - covered
    return out
