"""The benchmark's workloads: what one operation is, and how it is verified.

``odm-trajectory``: the three ODM tables ``odm-d0-strong`` (alpha=2, g=inf),
``odm-d0-g5`` (alpha=4, g=5) and ``odm-oscillator`` (alpha=3/2, g=inf) at
their default 64 digits and K=60.  180 scale selections on rho polynomials
of degree up to 60, dominated by the positive-root scan; Borel is idle.  The
alpha=2 table flags about half its orders and needs the full scan, the other
two mostly pass early, so a lazy scan would move their times differently.

``rg-tables``: ``saddle-table``, ``phi4-fixed-point``, ``phi4-exponents`` and
``borel-map-exponents`` at their defaults.  Almost all time is the Laplace
quadrature inside the bisection of ``_borel_zero``; the ODM work is degree <= 7
and goes through ``polyroots``.  The high-degree scan never runs here.

``sum-mix``: a closed loop with one client over in-process
``resum.cli.main(["sum", FILE, ...])`` requests on generator series files.
Each request regenerates its coefficients (and, for odm, its rho table), so
per-request set-up weighs here and nowhere else.  Every value is checked
after the timed loop against the independent oracle.

One operation is one table (table workloads) or one request (``sum-mix``).
"""

import contextlib
import io
import random
import time
import traceback
from dataclasses import dataclass

from mpmath import mp, mpf

import resum.benchmarks
import resum.cli
import resum.models

TABLES = {
    "odm-trajectory": ("odm-d0-strong", "odm-d0-g5", "odm-oscillator"),
    "rg-tables": ("saddle-table", "phi4-fixed-point", "phi4-exponents",
                  "borel-map-exponents"),
}
# Tables whose latency enters op_p50_s and op_tail_s.  The three sub-second
# tables vary by 20 % between runs on a shared host even as the fastest of
# five executions, so they count only in wall_s and in the traced spans.
TIMED_TABLES = ("odm-d0-strong", "odm-d0-g5", "odm-oscillator", "borel-map-exponents")
# Cheap table that exercises the ODM selection, mapping and root code.
WARMUP_TABLE = "phi4-exponents"

WORKLOADS = tuple(TABLES) + ("sum-mix",)

# Digits carried by the CLI's printed values, and the cap on digits_min.
PRINTED_DIGITS = 17


@dataclass
class Op:
    """One timed operation and what came out of it."""

    item: object             # table id, or the sum-mix Request
    stamp: tuple             # (start, end) perf_counter values
    output: object = None    # plain data, compared between traced and untraced runs
    failure: str = None      # reason, when the operation failed
    digits: list = None      # digits of agreement with the independent reference
    seconds: float = None    # latency in reference seconds, set after the run

    @property
    def key(self):
        return getattr(self.item, "key", self.item)


def _raised(exc):
    return "raised %s" % traceback.format_exception_only(exc)[-1].strip()


def _digits(value, reference):
    """``-log10(|value - reference| / |reference|)``, capped at PRINTED_DIGITS."""
    rel = abs(value - reference) / abs(reference)
    if rel == 0:
        return float(PRINTED_DIGITS)
    return min(float(-mp.log10(rel)), float(PRINTED_DIGITS))


# ---------------------------------------------------------------------------
# Table workloads
# ---------------------------------------------------------------------------

class TableWorkload:
    """A fixed set of graded tables run through ``benchmarks.run_benchmark``.

    The seed is recorded and otherwise ignored: the tables take no input.
    """

    def __init__(self, name, seed):
        self.seed = seed
        self.tables = TABLES[name]

    def prepare(self):
        unknown = [t for t in self.tables if t not in resum.benchmarks.TABLE_IDS]
        if unknown:
            raise KeyError("unknown table ids %s" % unknown)

    def warmup(self):
        start = time.perf_counter()
        resum.benchmarks.run_benchmark(WARMUP_TABLE)
        return WARMUP_TABLE, (start, time.perf_counter())

    def pass_items(self, index):
        return list(self.tables)

    @staticmethod
    def input_key(table_id):
        return table_id

    describe = input_key

    @staticmethod
    def latencies(ops):
        return [op.seconds for op in ops if op.item in TIMED_TABLES]

    def run_op(self, table_id, begin_op=None):
        if begin_op is not None:
            begin_op(table_id)
        start = time.perf_counter()
        try:
            result = resum.benchmarks.run_benchmark(table_id)
        except Exception as exc:
            return Op(table_id, (start, time.perf_counter()), failure=_raised(exc))
        output = {
            "rows": result.rows,
            "checks": [(c.name, c.passed, c.observed, c.target) for c in result.checks],
        }
        op = Op(table_id, (start, time.perf_counter()), output)
        failed = [c.name for c in result.checks if not c.passed]
        if failed:
            op.failure = "failed checks: %s" % "; ".join(failed)
        return op

    def verify(self, ops):
        """Graded checks ran inside each table; add digits of agreement."""
        with mp.workdps(64):
            for op in ops:
                if op.output is not None:
                    op.digits = _table_digits(op.item, op.output["rows"])

    @staticmethod
    def checks_failed(ops):
        return sum(1 for op in ops if op.output is not None
                   for check in op.output["checks"] if not check[1])

    @staticmethod
    def probe_defects():
        return []


def _table_digits(table_id, rows):
    """Digits of agreement at the table's final order.

    ODM tables: against the independent oracle behind their deltas.  The
    other tables: against the stored reference values they are graded on.
    """
    last = rows[-1]
    if table_id == "odm-oscillator":
        return [min(float(-mpf(last["ln_rel_error"]) / mp.log(10)), float(PRINTED_DIGITS))]
    if table_id in ("odm-d0-strong", "odm-d0-g5"):
        g = mp.inf if table_id == "odm-d0-strong" else 5
        oracle = resum.models.d0_partition_value(g)
        rel_ln = mpf(last["ln_delta"]) - mp.log(abs(oracle))
        return [min(float(-rel_ln / mp.log(10)), float(PRINTED_DIGITS))]
    pairs = {
        "saddle-table": [("mu", "mu_ref"), ("neg_lambda", "neg_lambda_ref")],
        "phi4-fixed-point": [("g_star", "g_star_ref"), ("omega", "omega_ref")],
        "phi4-exponents": [("gamma", "gamma_ref"), ("nu", "nu_ref"), ("eta", "eta_ref")],
        "borel-map-exponents": [("g_star", "g_star_ref"), ("nu", "nu_ref"),
                                ("gamma", "gamma_ref")],
    }[table_id]
    final = rows if table_id == "saddle-table" else [last]
    return [_digits(mpf(row[got]), mpf(row[ref]))
            for row in final for got, ref in pairs if row[got] and row[ref]]


# ---------------------------------------------------------------------------
# sum-mix
# ---------------------------------------------------------------------------

# Generator -> (large_order_A written into the series file, odm flags, oracle).
GENERATORS = {
    "d0": ("1.5", ("--alpha", "2", "--prefactor-p", "0.5"),
           "d0_partition_value"),
    "anharmonic": ("8", ("--alpha", "1.5", "--prefactor-p", "-0.5", "--tau", "1e6"),
                   "anharmonic_ground_value"),
}
ORDERS = (8, 16, 24)
COUPLINGS = ("0.5", "2", "5")
PADE_DEGREE = 4
# Relative oracle tolerance per method.  Plain Pade at [4/4] is the weak
# baseline on these factorially divergent series (under two digits at g=5).
TOLERANCE = {"odm": mpf("1e-3"), "borel-map": mpf("1e-3"),
             "borel-pade": mpf("1e-3"), "pade": mpf("5e-2")}


@dataclass(frozen=True)
class Request:
    generator: str
    order: int
    method: str
    g: str
    flags: tuple

    @property
    def key(self):
        return "%s:%d:%s:g=%s" % (self.generator, self.order, self.method, self.g)


def _requests(generator, order):
    _, odm_flags, _ = GENERATORS[generator]
    half = str(order // 2)
    out = [Request(generator, order, "odm", g, ("--order", str(order - 1)) + odm_flags)
           for g in COUPLINGS + ("inf",)]
    out += [Request(generator, order, "borel-map", g, ("--order", str(order)))
            for g in COUPLINGS]
    out += [Request(generator, order, "borel-pade", g, ("--L", half, "--M", half))
            for g in COUPLINGS]
    out += [Request(generator, order, "pade", g,
                    ("--L", str(PADE_DEGREE), "--M", str(PADE_DEGREE)))
            for g in COUPLINGS]
    return out


# Every combination once.  A pass is one deck in a seeded order, so every run
# covers the whole space and runs with different seeds stay comparable.
DECK = tuple(r for gen in GENERATORS for order in ORDERS for r in _requests(gen, order))

# Known defect kept visible outside the gated draw: Pade at g=inf prints
# ``value: nan`` and exits 0.  Run after the timed loop and reported.
DEFECT_PROBES = tuple(
    Request(gen, ORDERS[0], "pade", "inf",
            ("--L", str(PADE_DEGREE), "--M", str(PADE_DEGREE)))
    for gen in GENERATORS)


class SumMix:
    """Seeded closed loop of ``resum sum`` requests with oracle checks."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.deck = DECK

    def _path(self, generator, order):
        return self.inputs / ("%s-%d.series" % (generator, order))

    def prepare(self):
        """Write one generator series file per (generator, order)."""
        self.inputs.mkdir(parents=True, exist_ok=True)
        for gen, order in sorted({(r.generator, r.order) for r in self.deck + DEFECT_PROBES}):
            text = "name: %s-%d\ngenerator: %s\norder: %d\nlarge_order_A: %s\n" % (
                gen, order, gen, order, GENERATORS[gen][0])
            self._path(gen, order).write_text(text, encoding="utf-8")

    def warmup(self):
        request = random.Random("%s:warmup" % self.seed).choice(self.deck)
        return request.key, self.run_op(request).stamp

    def pass_items(self, index):
        deck = list(self.deck)
        random.Random("%s:%d" % (self.seed, index)).shuffle(deck)
        return deck

    @staticmethod
    def input_key(request):
        return (request.generator, request.order)

    @staticmethod
    def latencies(ops):
        return [op.seconds for op in ops]

    def argv(self, request):
        return (["sum", str(self._path(request.generator, request.order)),
                 "--method", request.method, "--g", request.g] + list(request.flags))

    def describe(self, request):
        return "resum " + " ".join(self.argv(request))

    def run_op(self, request, begin_op=None):
        if begin_op is not None:
            begin_op(request.key)
        argv = self.argv(request)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = resum.cli.main(argv, stdout=out)
        except Exception as exc:
            return Op(request, (start, time.perf_counter()), failure=_raised(exc))
        return Op(request, (start, time.perf_counter()), (code, out.getvalue(), err.getvalue()))

    def verify(self, ops):
        """Check every request against the oracle at its coupling."""
        oracles = {}
        with mp.workdps(64):
            for op in ops:
                request = op.item
                if op.output is None:
                    continue
                code, stdout, stderr = op.output
                if code != 0:
                    op.failure = "exit code %d: %s" % (code, stderr.strip())
                    continue
                value = _printed_value(stdout)
                if value is None or not mp.isfinite(value):
                    op.failure = "non-finite value: %s" % _printed_text(stdout)
                    continue
                where = (request.generator, request.g)
                if where not in oracles:
                    oracle = getattr(resum.models, GENERATORS[request.generator][2])
                    oracles[where] = oracle(mp.inf if request.g == "inf" else mpf(request.g))
                reference = oracles[where]
                rel = abs(value - reference) / abs(reference)
                if rel > TOLERANCE[request.method]:
                    op.failure = "oracle miss: relative error %s > %s" % (
                        mp.nstr(rel, 3), mp.nstr(TOLERANCE[request.method], 3))
                    continue
                op.digits = [_digits(value, reference)]

    def probe_defects(self):
        """Run the known-defect requests once; return (argv, reason) of failures."""
        ops = [self.run_op(r) for r in DEFECT_PROBES]
        self.verify(ops)
        return [(self.describe(op.item), op.failure) for op in ops if op.failure]

    @staticmethod
    def checks_failed(ops):
        return None


def _printed_text(stdout):
    for line in stdout.splitlines():
        if line.startswith("value:"):
            return line.partition(":")[2].strip()
    return None


def _printed_value(stdout):
    text = _printed_text(stdout)
    if text is None:
        return None
    try:
        return mpf(text)
    except ValueError:
        return None


def make(name, seed, workdir):
    """The workload called ``name``, with its inputs under ``workdir``."""
    if name in TABLES:
        return TableWorkload(name, seed)
    if name == "sum-mix":
        return SumMix(seed, workdir)
    raise KeyError(name)
