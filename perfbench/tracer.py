"""Run one amipoly command with a span recorded around each call into its layers.

Usage: python tracer.py TRACE_FILE OP_ID ARGS...

The tracer times `import amipoly.cli`, replaces the public functions listed
in TRACED with wrappers, wherever a module holds them as an attribute (so
names one module imports from another are covered), and then calls
`amipoly.cli.main(ARGS)`.  Each call records a span: name, start, end and
parent span; all spans of the process share OP_ID.  Spans stay in memory
and are written to TRACE_FILE with marshal when the command returns.  The
exit code is the command's.

Before `amipoly.cli` the tracer imports only modules the interpreter loads
at start-up, and `array`, which amipoly does not use, so the import time is
that of a fresh process.
"""

import array
import marshal
import sys
import time
from math import isqrt

# (module, attribute) of every traced function, named "<module>.<attribute>".
TRACED = (
    ("cli", "main"),
    ("matching", "assemble_report"),
    ("matching", "SearchReport.to_canonical_dict"),
    ("triangles", "enumerate_heronian"),
    ("triangles", "as_heronian"),
    ("triangles", "find_amicable_triangle_pairs"),
    ("triangles", "find_equable_triangles"),
    ("triangles", "embed_triangle"),
    ("triangles", "sum_two_squares_reps"),
    ("rectangles", "brute_force_pairs"),
    ("rectangles", "small_side_candidates"),
    ("rectangles", "equable_rectangles"),
    ("rectangles", "enumerate_by_divisors"),
    ("lattice", "is_perfect_square"),
    ("lattice", "twice_area"),
    ("lattice", "transform_point"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rects(args, kwargs, result):
    n = _arg(args, kwargs, 0, "max_side")
    return (("rectangles.rects_scanned", n * (n + 1) // 2),)


# Work counters taken from the arguments and results of a traced call.
COUNTERS = {
    "triangles.enumerate_heronian": lambda args, kwargs, result: (("triangles.heronian_found", len(result)),),
    "triangles.sum_two_squares_reps": lambda args, kwargs, result: (
        ("triangles.two_squares_scanned", isqrt(_arg(args, kwargs, 0, "n")) + 1),
        ("triangles.two_squares_reps", len(result)),
    ),
    "matching.assemble_report": lambda args, kwargs, result: (
        (
            "matching.records_verified",
            len(_arg(args, kwargs, 2, "shapes")) + 2 * len(_arg(args, kwargs, 3, "pairs")),
        ),
    ),
    "rectangles.brute_force_pairs": _rects,
    "rectangles.small_side_candidates": _rects,
    "rectangles.equable_rectangles": _rects,
}


class Tracer:
    """The spans of one process, in parallel arrays indexed by span id, and its counters."""

    def __init__(self):
        self.names = []
        self.name_ids = array.array("H")
        self.parents = array.array("l")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.stack = [-1]
        self.counters = {}

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack,
        )
        clock = time.perf_counter_ns
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                for key, n in count(args, kwargs, result):
                    self.counters[key] = self.counters.get(key, 0) + n
            return result

        return traced

    def install(self, package):
        """Wrap every TRACED function present; a missing one is skipped."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == package]
        for module_name, attr in TRACED:
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def dump(self, path, op_id, import_ns):
        record = {
            "op": op_id,
            "import_ns": import_ns,
            "names": self.names,
            "name_ids": self.name_ids.tobytes(),
            "parents": self.parents.tobytes(),
            "starts": self.starts.tobytes(),
            "ends": self.ends.tobytes(),
            "counters": self.counters,
        }
        with open(path, "wb") as f:
            marshal.dump(record, f)


def load(path):
    """The record a traced process wrote, with its span arrays rebuilt."""
    with open(path, "rb") as f:
        record = marshal.load(f)
    for key, code in (("name_ids", "H"), ("parents", "l"), ("starts", "q"), ("ends", "q")):
        record[key] = array.array(code, record[key])
    return record


def main(argv):
    trace_path, op_id, args = argv[0], int(argv[1]), argv[2:]
    start = time.perf_counter_ns()
    import amipoly.cli

    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.install("amipoly")
    try:
        return amipoly.cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, op_id, import_ns)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
