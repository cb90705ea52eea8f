"""Span tracing of cyclotomy's public functions, installed from outside.

:func:`install` replaces module attributes with timing wrappers, so callers
inside the package that look a function up through its module (``poly_prod``
calling ``poly_mul``, ``cli`` calling ``verify.sweep_*``) are traced too.
Private helpers are not wrapped; their time lands in the public caller's
self time.

Every span is kept in memory as (name, start, end, parent span, call id) and
written to disk by :meth:`Tracer.write_spans` when the run ends.  Self time
is a span's duration minus the durations of its direct child spans, which
in this single-threaded program are nested inside it.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

# (module, attribute) pairs wrapped by install(); cyclotomic and ramanujan_sum
# are split per algorithm / method in the span name.
TRACED = (
    ("cli", "run_cli"),
    ("verify", "sweep_polynomial"),
    ("verify", "sweep_totient"),
    ("verify", "sweep_ramanujan"),
    ("verify", "sweep_coefficients"),
    ("verify", "check_polynomial_identities"),
    ("verify", "check_totient_identities"),
    ("verify", "check_ramanujan_identities"),
    ("verify", "check_coefficient_facts"),
    ("cyclo", "cyclotomic"),
    ("cyclo", "cyclotomic_poly"),
    ("cyclo", "cyclotomic_of_power"),
    ("intpoly", "poly_mul"),
    ("intpoly", "poly_prod"),
    ("intpoly", "poly_exact_div"),
    ("intpoly", "substitute_power"),
    ("intpoly", "power_sums"),
    ("intpoly", "coeffs_from_power_sums"),
    ("arith", "factorize"),
    ("arith", "divisors"),
    ("arith", "mobius"),
    ("arith", "totient"),
    ("arith", "is_prime"),
    ("arith", "ramanujan_sum"),
)

CYCLO_ALGORITHMS = ("recursive", "mobius_product", "radical", "dual_form", "newton_ramanujan")
RAMANUJAN_METHODS = ("kluyver", "hoelder", "newton", "definition")


def layer_names() -> list:
    """Every span name the tracer can produce, in reporting order."""
    names = []
    for mod, attr in TRACED:
        if attr == "cyclotomic":
            names += ["cyclo.cyclotomic.%s" % a for a in CYCLO_ALGORITHMS]
        elif attr == "ramanujan_sum":
            names += ["arith.ramanujan_sum.%s" % m for m in RAMANUJAN_METHODS]
        else:
            names.append("%s.%s" % (mod, attr))
    return names


# Size buckets for poly_mul (len(p)*len(q)) and poly_exact_div (quotient
# length * divisor length): upper bounds 2**12, 2**16, 2**20, then the rest.
# The first edge is intpoly's schoolbook cutoff of 4096.
SIZE_BUCKETS = ("le2e12", "le2e16", "le2e20", "gt2e20")
DIVISOR_SHAPES = ("const", "binomial", "dense")
_TRIAL_BOUND = 10**6


def size_bucket(size: int) -> str:
    if size <= 1 << 12:
        return "le2e12"
    if size <= 1 << 16:
        return "le2e16"
    if size <= 1 << 20:
        return "le2e20"
    return "gt2e20"


def _slot_bytes(p) -> int:
    """Bytes per coefficient of ``p`` stored densely at its widest signed coefficient."""
    return max(map(abs, p), default=0).bit_length() // 8 + 1


def _nonzero_len(p) -> int:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return n


class Tracer:
    """Collects spans and the per-layer counts derived from call arguments."""

    def __init__(self):
        self._names = {name: i for i, name in enumerate(layer_names())}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.call_id = 0
        self._stack = []  # [span index, child nanoseconds] per open span
        n = len(self._names)
        self.calls = [0] * n
        self.busy_ns = [0] * n
        self.self_ns = [0] * n
        self.counts = {}  # derived counters, name -> number
        self._seen_cyclo = set()

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name_of, fn, observe=None):
        """Wrapper around ``fn`` recording one span per call.

        ``name_of(args, kwargs)`` gives the span name; ``observe(args,
        result, self_ns)`` derives counters from the call outside its span.
        """
        names = self._names
        stack = self._stack

        def traced(*args, **kwargs):
            nid = names[name_of(args, kwargs)]
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_call.append(self.call_id)
            self.span_start.append(0)
            self.span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.span_start[sid] = start
                self.span_end[sid] = end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[nid] += 1
                self.busy_ns[nid] += dur
                self.self_ns[nid] += dur - frame[1]
            if observe is not None:
                observe(args, result, dur - frame[1])
            return result

        return traced

    # -- observers: counts computed from arguments and results ------------

    def _observe_mul(self, args, result, self_ns) -> None:
        p, q = args[0], args[1]
        size = len(p) * len(q)
        self._add("intpoly.poly_mul.ops", size)
        self._add("intpoly.poly_mul.bytes_in", len(p) * _slot_bytes(p) + len(q) * _slot_bytes(q))
        bucket = "intpoly.poly_mul.size.%s" % size_bucket(size)
        self._add(bucket + ".calls", 1)
        self._add(bucket + ".self_ns", self_ns)

    def _observe_div(self, args, result, self_ns) -> None:
        p, q = args[0], args[1]
        plen, qlen = _nonzero_len(p), _nonzero_len(q)
        size = max(plen - qlen + 1, 0) * qlen
        bucket = "intpoly.poly_exact_div.size.%s" % size_bucket(size)
        self._add(bucket + ".calls", 1)
        self._add(bucket + ".self_ns", self_ns)
        terms = qlen - q[:qlen].count(0)
        shape = "const" if qlen == 1 else "binomial" if terms == 2 else "dense"
        key = "intpoly.poly_exact_div.divisor.%s" % shape
        self._add(key + ".calls", 1)
        self._add(key + ".self_ns", self_ns)

    def _observe_cyclotomic_poly(self, args, result, self_ns) -> None:
        n = args[0]
        if n in self._seen_cyclo:
            self._add("cyclo.cyclotomic_poly.repeats", 1)
        self._seen_cyclo.add(n)

    def _observe_factorize(self, args, result, self_ns) -> None:
        large = sum(e for p, e in result if p > _TRIAL_BOUND)
        if large >= 2:
            self._add("arith.factorize.rho_inputs", 1)

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Replace each traced attribute of ``modules`` (name -> module) with a wrapper."""
        observers = {
            "poly_mul": self._observe_mul,
            "poly_exact_div": self._observe_div,
            "cyclotomic_poly": self._observe_cyclotomic_poly,
            "factorize": self._observe_factorize,
        }
        for mod, attr in TRACED:
            module = modules[mod]
            fn = getattr(module, attr)
            if attr == "cyclotomic":
                name_of = _by_arg("cyclo.cyclotomic.", 1, "algorithm", "recursive")
            elif attr == "ramanujan_sum":
                name_of = _by_arg("arith.ramanujan_sum.", 2, "method", "kluyver")
            else:
                name_of = _fixed("%s.%s" % (mod, attr))
            setattr(module, attr, self.wrap(name_of, fn, observers.get(attr)))

    # -- output ------------------------------------------------------------

    def layer_stats(self) -> dict:
        """``{layer: (calls, busy_s, self_s)}`` for every traceable layer."""
        return {
            name: (self.calls[i], self.busy_ns[i] / 1e9, self.self_ns[i] / 1e9)
            for name, i in self._names.items()
        }

    def write_spans(self, path: str) -> int:
        """Write all spans: a JSON header line, then the five raw int arrays."""
        columns = (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_call)
        header = {
            "names": list(self._names),
            "spans": len(self.span_name),
            "columns": list(SPAN_COLUMNS),
            "typecodes": [c.typecode for c in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(fh)
        return len(self.span_name)


SPAN_COLUMNS = ("name", "start_ns", "end_ns", "parent", "call_id")


def read_spans(path: str):
    """Read a file written by :meth:`Tracer.write_spans`: ``(names, {column: array})``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for column, code in zip(header["columns"], header["typecodes"]):
            columns[column] = array(code)
            columns[column].fromfile(fh, header["spans"])
    return header["names"], columns


def _fixed(name: str):
    return lambda args, kwargs: name


def _by_arg(prefix: str, pos: int, key: str, default: str):
    def name_of(args, kwargs):
        return prefix + (args[pos] if len(args) > pos else kwargs.get(key, default))

    return name_of
