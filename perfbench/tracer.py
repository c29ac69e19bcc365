"""Outside-in tracer: wraps public ``resum`` functions from the benchmark's side.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces each
traced function in every ``resum.*`` module namespace that binds it (and
``mp.quad`` on the mpmath context), records one span per call in memory, and
:meth:`Tracer.restore` puts every original back, so the untraced run measures
the unmodified program.  Self time is derived from the spans afterwards.
"""

import json
import sys
import time
from collections import Counter, defaultdict

from mpmath import mp

# (layer name, module that defines it, attribute).  ``mpmath.polyroots`` is
# the function as bound in ``resum.odm``; ``mpmath.quad`` lives on the context.
TRACED = (
    ("cli.main", "resum.cli", "main"),
    ("benchmarks.run_benchmark", "resum.benchmarks", "run_benchmark"),
    ("odm.select_rho", "resum.odm", "select_rho"),
    ("odm.polynomial_real_roots", "resum.odm", "polynomial_real_roots"),
    ("mpmath.polyroots", "resum.odm", "polyroots"),
    ("odm.odm_value", "resum.odm", "odm_value"),
    ("odm.convergence_study", "resum.odm", "convergence_study"),
    ("odm.fixed_point", "resum.odm", "fixed_point"),
    ("odm.exponents_at", "resum.odm", "exponents_at"),
    ("mapping.build_rho_table", "resum.mapping", "build_rho_table"),
    ("mapping.lambda_of_g", "resum.mapping", "lambda_of_g"),
    ("borel.borel_sum", "resum.borel", "borel_sum"),
    ("borel.conformal_map_coeffs", "resum.borel", "conformal_map_coeffs"),
    ("series.compose", "resum.series", "compose"),
    ("mpmath.quad", None, "quad"),
    ("borel.borel_pade_sum", "resum.borel", "borel_pade_sum"),
    ("pade.pade_fit", "resum.pade", "pade_fit"),
    ("pade.pade_eval", "resum.pade", "pade_eval"),
    ("models.d0_partition_coeffs", "resum.models", "d0_partition_coeffs"),
    ("models.anharmonic_ground_coeffs", "resum.models", "anharmonic_ground_coeffs"),
    ("models.rg_series", "resum.models", "rg_series"),
    ("models.d0_partition_value", "resum.models", "d0_partition_value"),
    ("models.anharmonic_ground_value", "resum.models", "anharmonic_ground_value"),
    ("saddle.solve_saddle", "resum.saddle", "solve_saddle"),
    ("saddle.d0_exact_rate", "resum.saddle", "d0_exact_rate"),
    ("saddle.predicted_R", "resum.saddle", "predicted_R"),
)

# Operation boundaries: their spans also report total (inclusive) time.
BOUNDARIES = ("cli.main", "benchmarks.run_benchmark")


def _resum_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "resum" or name.startswith("resum."))]


class Tracer:
    """Span recorder plus the per-call hooks of the layers with extra counts."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op key]
        self.counts = Counter()
        self.picks = []          # (op key, [select_rho pick, ...]) per operation
        self._stack = []
        self._op = None
        self._op_picks = None
        self._patched = []       # (namespace, attribute, original)
        self._quad_was_instance_attr = False

    # -- operations -------------------------------------------------------
    def begin_op(self, key):
        """Tag the following spans and select_rho picks with ``key``."""
        self._op = key
        self._op_picks = []
        self.picks.append((key, self._op_picks))

    # -- install / restore ------------------------------------------------
    def install(self):
        modules = _resum_modules()
        for name, module_name, attr in TRACED:
            if module_name is None:
                self._quad_was_instance_attr = "quad" in vars(mp)
                self._patch(mp, "quad", self._wrap(name, mp.quad))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def restore(self):
        for namespace, attr, original in reversed(self._patched):
            if namespace is mp and attr == "quad" and not self._quad_was_instance_attr:
                del mp.quad
            else:
                setattr(namespace, attr, original)
        self._patched = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self._op]
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before_mpmath_quad(self, args):
        integrand = args[0]
        counts = self.counts

        def counted(*xs):
            counts["mpmath.quad.integrand_evals"] += 1
            return integrand(*xs)

        return (counted,) + tuple(args[1:])

    def _before_mpmath_polyroots(self, args):
        self.counts["mpmath.polyroots.degree_sum"] += len(args[0]) - 1
        return args

    def _after_odm_select_rho(self, args, kwargs, report):
        self.counts["odm.select_rho.candidates"] += len(report.candidates)
        self.counts["odm.select_rho.flagged"] += int(report.flagged)
        self.counts["odm.select_rho.complex"] += int(report.is_complex)
        if self._op_picks is not None:
            self._op_picks.append(pick_record(report))

    # -- derived numbers --------------------------------------------------
    def layer_times(self):
        """Per layer: calls, self time, and inclusive time by operation key.

        Inclusive time counts only the outermost span of a layer, so a layer
        that recurses into itself is not counted twice.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            if not self._has_ancestor(index, name):
                total_s[name, op] += end - start
        return calls, self_s, total_s

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def pick_record(report):
    """A select_rho result as plain data: k, rho (real, imag), mode, flags."""
    rho = report.rho
    imag = mp.im(rho) if report.is_complex else None
    return {
        "k": report.k,
        "rho": mp.nstr(mp.re(rho), 64),
        "rho_imag": None if imag is None else mp.nstr(imag, 64),
        "mode": report.mode.value,
        "flagged": report.flagged,
        "is_complex": report.is_complex,
    }
