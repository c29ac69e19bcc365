"""Command line front end: series files in, summed values and tables out.

Three subcommands:

``resum sum FILE --method {odm,borel-map,borel-pade,pade} ...``
    Sum one series at a coupling (``--g`` accepts ``inf``) with the chosen
    method and print the value, error estimate and diagnostics.

``resum reproduce TABLE-ID``
    Rebuild one of the stored benchmark tables, emit it as CSV, and exit
    nonzero when any graded check misses its tolerance.

``resum study FILE --max-order K``
    Run the mapped summation at every order up to K against an oracle and
    report the per-order records plus the scale and error-decay fits.

Series files are plain UTF-8 key/value text; coefficients are decimal (or
rational ``p/q``) strings so no precision is lost in transit::

    name: quartic-partition
    variable: g
    large_order_A: 1.5
    coefficients: 1, -1/8, 35/384

    # or, generated on the fly:
    generator: d0
    order: 60

Exit codes: 0 all good, 2 a reproduce tolerance was violated, 1 operational
error (bad file, bad flags, solver failure, stdout closed by its reader).
"""

import argparse
import csv
import dataclasses
import json
import os
import re
import sys
import time

from mpmath import mp

from . import benchmarks
from .borel import borel_pade_sum, borel_sum
from .errors import ParseError, ResumError, UsageError
from .mapping import MappingFamily, MappingSpec, build_rho_table
from .models import (
    anharmonic_ground_coeffs,
    anharmonic_ground_value,
    d0_partition_coeffs,
    d0_partition_value,
    rg_series,
)
from .odm import (
    RhoSelectionCriterion,
    SelectionMode,
    convergence_study,
    odm_value,
)
from .pade import pade_eval, pade_fit
from .precision import (
    DEFAULT_DIGITS, MIN_DIGITS, finite_mpf, nstr, positive_mpf, to_mpf, whole_number, workdps,
)
from .series import PowerSeries

SCHEMA_VERSION = 1

# Significant digits of every number the CLI prints.
DIGITS = 17

GENERATORS = {
    "d0": lambda order: d0_partition_coeffs(order),
    "anharmonic": lambda order: anharmonic_ground_coeffs(order),
    "rg_beta": lambda order: rg_series().beta.truncate(order),
    "rg_gamma_inv": lambda order: rg_series().gamma_inv.truncate(order),
    "rg_eta": lambda order: rg_series().eta.truncate(order),
}

# --oracle choice: (its generator, its value at g); the lambdas bind at call time.
_ORACLES = {
    "quadrature": ("d0", lambda g: d0_partition_value(g)),
    "diagonalization": ("anharmonic", lambda g: anharmonic_ground_value(g)),
}


@dataclasses.dataclass(frozen=True)
class SeriesFile:
    """Parsed series file, one field per key: explicit coefficients or a named generator."""

    name: str
    variable: str
    coefficients: list = None
    generator: str = None
    order: int = None
    large_order_A: str = None

    def build(self):
        """Materialize the series at the active working precision."""
        if self.generator is not None:
            return GENERATORS[self.generator](self.order)
        return PowerSeries(tuple(self.coefficients), self.variable)

    def spec_dict(self):
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


_KNOWN_KEYS = {f.name for f in dataclasses.fields(SeriesFile)}


def parse_series_file(path):
    """Parse a series file; raises :class:`ParseError` with line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    # key -> (its text, its line); the coefficients' text is their list of
    # (value, line), which indented lines after the key continue.
    fields = {}
    key = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if key == "coefficients" and line[0] in " \t":
            fields[key][0].extend(_split_values(line, lineno))
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value', got %r" % line.strip(), lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ParseError("unknown field %r" % key, lineno)
        if key in fields:
            raise ParseError("duplicate field %r" % key, lineno)
        fields[key] = (_split_values(value, lineno) if key == "coefficients" else value, lineno)

    def take(key, default=None):
        return fields[key][0] if key in fields else default

    name = take("name", os.path.basename(path))
    variable = take("variable", "g")
    generator = take("generator")
    coeff_values = take("coefficients", [])
    if generator is not None and coeff_values:
        raise ParseError("exactly one of 'coefficients' and 'generator' is allowed",
                         fields["generator"][1])
    if generator is None and not coeff_values:
        raise ParseError("series file needs 'coefficients' or 'generator'")
    if generator is None and "order" in fields:  # a coefficients file sums all it lists
        raise ParseError("'order' belongs to the generator form", fields["order"][1])
    order = None
    if generator is not None:
        if generator not in GENERATORS:
            raise ParseError("unknown generator %r (choices: %s)"
                             % (generator, ", ".join(sorted(GENERATORS))),
                             fields["generator"][1])
        order_text = take("order")
        if order_text is None:
            raise ParseError("generator form needs an 'order' field")
        try:
            order = int(order_text)
        except ValueError:
            raise ParseError("order must be an integer, got %r" % order_text,
                             fields["order"][1])
        if order < 0:
            raise ParseError("order must be >= 0", fields["order"][1])
    for text, lineno in coeff_values:
        try:
            to_mpf(text)
        except Exception:
            raise ParseError("cannot parse coefficient %r" % text, lineno)
    if "large_order_A" in fields:
        text, lineno = fields["large_order_A"]
        try:
            value = to_mpf(text)
        except Exception:
            raise ParseError("cannot parse large_order_A value %r" % text, lineno)
        if value == 0 or not mp.isfinite(value):
            # borel-map takes a = 1/large_order_A by default.
            raise ParseError("large_order_A must be finite and nonzero, got %r" % text,
                             lineno)
    return SeriesFile(
        name=name, variable=variable, coefficients=[text for text, _ in coeff_values] or None,
        generator=generator, order=order, large_order_A=take("large_order_A"),
    )


def _split_values(text, lineno):
    return [(p, lineno) for p in text.replace(",", " ").split()]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1/2, -1e6 and -inf are values, not options (argparse knows only -5 and -0.5).
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan|oo)", re.IGNORECASE)

    # Operational errors must exit 1; argparse defaults to 2, which this
    # tool reserves for tolerance violations.
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="resum",
                     description="Summation toolkit for divergent power series")
    parser.add_argument("--precision", "-p", type=int,
                        help="decimal working digits (default %d, and each table's "
                        "own digits for reproduce)" % DEFAULT_DIGITS)
    sub = parser.add_subparsers(dest="command", required=True)

    # The mapping and scale-selection flags that ``sum`` and ``study`` share.
    odm_flags = argparse.ArgumentParser(add_help=False)
    odm_flags.add_argument("--family", choices=tuple(f.value for f in MappingFamily),
                           default="power-cut")
    odm_flags.add_argument("--alpha", default="2")
    odm_flags.add_argument("--prefactor-p", default="0")
    odm_flags.add_argument("--criterion", choices=tuple(m.value for m in SelectionMode),
                           default="mixed")
    odm_flags.add_argument("--tau", default="0.5", help="smallness threshold")

    p_sum = sub.add_parser("sum", parents=[odm_flags], help="sum one series at a coupling")
    p_sum.add_argument("series_file")
    p_sum.add_argument("--method", required=True,
                       choices=("odm", "borel-map", "borel-pade", "pade"))
    p_sum.add_argument("--g", required=True, help="coupling value, or 'inf'")
    p_sum.add_argument("--order", type=int, help="truncation order k")
    p_sum.add_argument("--sigma", default="0", help="Leroy parameter")
    p_sum.add_argument("--a", help="Borel singularity parameter (default 1/large_order_A)")
    p_sum.add_argument("--L", type=int, help="numerator degree")
    p_sum.add_argument("--M", type=int, help="denominator degree")
    p_sum.add_argument("--out", help="write a JSON run report here")

    p_rep = sub.add_parser("reproduce", help="rebuild a stored benchmark table")
    p_rep.add_argument("table_id", choices=benchmarks.TABLE_IDS)
    p_rep.add_argument("--csv", help="write the CSV here instead of stdout")
    p_rep.add_argument("--out", help="write a JSON run report here")

    p_study = sub.add_parser("study", parents=[odm_flags],
                             help="order-by-order convergence study")
    p_study.add_argument("series_file")
    p_study.add_argument("--max-order", type=int, required=True)
    p_study.add_argument("--g", default="inf", help="coupling value, or 'inf'")
    p_study.add_argument("--oracle", choices=(*_ORACLES, "none"), default="none")
    p_study.add_argument("--csv", help="write the CSV here instead of stdout")
    p_study.add_argument("--out", help="write a JSON run report here")
    return parser


def parse_coupling(text):
    """A ``--g`` value: a finite number, or ``inf``/``infinity``/``oo``."""
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return mp.inf
    try:
        g = to_mpf(text)
    except UsageError:
        g = None
    if g is None or not (mp.isfinite(g) or g == mp.inf):
        raise UsageError("--g must be a finite number or inf, got %r" % text)
    return g


def _mapping_from_args(args):
    return MappingSpec(MappingFamily(args.family), finite_mpf(args.alpha, "--alpha"),
                       finite_mpf(args.prefactor_p, "--prefactor-p"))


def _criterion_from_args(args):
    return RhoSelectionCriterion(mode=SelectionMode(args.criterion),
                                 smallness_factor=positive_mpf(args.tau, "--tau"))


def _write_csv(path, rows, stdout):
    """Write ``rows`` (dicts whose keys, in order, are the columns) as CSV to
    ``path``, or to ``stdout`` without one; return the stream that takes the
    notes."""
    def write(stream):
        writer = csv.DictWriter(stream, rows[0], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if not path:
        write(stdout)
        return sys.stderr
    with _open_output(path) as handle:
        write(handle)
    return stdout


def _open_output(path):
    """``path`` opened for writing text; an unwritable path is a UsageError."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc)) from None


# The ``sum`` flags without a default, and the methods that read each.
_READ_BY = {"order": ("odm", "borel-map"), "a": ("borel-map",),
            "L": ("pade", "borel-pade"), "M": ("pade", "borel-pade")}


def cmd_sum(args, stdout):
    for flag, methods in _READ_BY.items():
        if getattr(args, flag) is not None and args.method not in methods:
            raise UsageError("--%s is not read by --method %s" % (flag, args.method))
    spec_file = parse_series_file(args.series_file)
    series = spec_file.build()
    g = parse_coupling(args.g)
    result = {"series": spec_file.name, "method": args.method}
    diagnostics = {}
    order = None if args.order is None else whole_number(args.order, "--order", 1, series.order)
    if args.method in ("pade", "borel-pade") and (args.L is None or args.M is None):
        raise UsageError("%s needs --L and --M" % args.method)
    # Every method reads the ODM flags and --sigma, whose defaults are valid.
    mapping, criterion = _mapping_from_args(args), _criterion_from_args(args)
    sigma = finite_mpf(args.sigma, "--sigma")
    if args.method == "pade":
        approx = pade_fit(series, args.L, args.M)
        value, error = pade_eval(approx, g), None
        diagnostics["denominator"] = [nstr(c, DIGITS) for c in approx.denominator]
    elif args.method == "borel-pade":
        value, error = borel_pade_sum(series, sigma, args.L, args.M, g)
        diagnostics["sigma"] = args.sigma
    elif args.method == "borel-map":
        if args.a is not None:
            a = positive_mpf(args.a, "--a")
        elif spec_file.large_order_A is None:
            raise UsageError("borel-map needs --a or a large_order_A field")
        else:
            a = 1 / positive_mpf(spec_file.large_order_A, "large_order_A")
        value, error = borel_sum(series if order is None else series.truncate(order),
                                 a, sigma, g)
        diagnostics["sigma"] = args.sigma
        diagnostics["a"] = nstr(a, DIGITS)
    else:  # odm
        if order is None:
            raise UsageError("odm needs --order")
        rep = odm_value(build_rho_table(series, mapping), order, criterion, g)
        value, error = rep.value, rep.error_estimate
        diagnostics.update({
            "rho": nstr(rep.rho, DIGITS), "lambda": nstr(rep.lam, DIGITS),
            "mode": rep.mode.value, "flagged": rep.flagged,
        })
    result["g"] = "inf" if g == mp.inf else nstr(g, DIGITS)
    result["value"] = nstr(value, DIGITS)
    result["error_estimate"] = None if error is None else nstr(error, DIGITS)
    result["diagnostics"] = diagnostics
    print("value: %s" % result["value"], file=stdout)
    if error is not None:
        print("error_estimate: %s" % result["error_estimate"], file=stdout)
    for key in sorted(diagnostics):
        print("%s: %s" % (key, diagnostics[key]), file=stdout)
    return result, 0


def cmd_reproduce(args, stdout):
    result = benchmarks.run_benchmark(args.table_id, args.precision)
    args.precision = result.config["digits"]  # echo the digits the table ran at
    sink = _write_csv(args.csv, result.rows, stdout)
    for check in result.checks:
        print("%s: %s (observed %s, target %s)"
              % ("PASS" if check.passed else "FAIL", check.name,
                 check.observed, check.target), file=sink)
    return {**dataclasses.asdict(result), "passed": result.passed}, 0 if result.passed else 2


def cmd_study(args, stdout):
    spec_file = parse_series_file(args.series_file)
    series = spec_file.build()
    if series.order < 2:
        raise UsageError("study needs a series of order >= 2, got order %d" % series.order)
    max_order = whole_number(args.max_order, "--max-order", 1, series.order - 1)
    g = parse_coupling(args.g)
    table = build_rho_table(series, _mapping_from_args(args))
    oracle = oracle_note = None
    if args.oracle in _ORACLES:
        generator, value_at = _ORACLES[args.oracle]
        if spec_file.generator != generator:
            raise UsageError("the %s oracle belongs to the %s generator"
                             % (args.oracle, generator))
        oracle = value_at(g)
    elif spec_file.generator is None:
        oracle_note = "no oracle for custom coefficients; deltas are error estimates"
    study = convergence_study(table, _criterion_from_args(args), max_order, g, oracle=oracle)
    rows = [{
        "k": str(rep.k), "rho": nstr(rep.rho, DIGITS), "inv_rho": nstr(1 / rep.rho, DIGITS),
        "value": nstr(rep.value, DIGITS), "delta": nstr(rep.delta, DIGITS),
        "error_estimate": nstr(rep.error_estimate, DIGITS),
        "lambda": nstr(rep.lam, DIGITS), "flagged": "1" if rep.flagged else "0",
    } for rep in study.reports]
    sink = _write_csv(args.csv, rows, stdout)
    fits = {
        "inv_rho_slope": nstr(study.inv_rho_fit.slope, DIGITS),
        "inv_rho_slope_even": nstr(study.inv_rho_fit.slope_even, DIGITS),
        "inv_rho_slope_odd": nstr(study.inv_rho_fit.slope_odd, DIGITS),
        "r_estimate": nstr(study.r_estimate, DIGITS),
        "r_slope": nstr(study.r_slope, DIGITS),
        "r_corrected": nstr(study.r_corrected, DIGITS),
        "rate_abscissa": study.rate_abscissa,
        "rate_slope": nstr(study.rate_fit.slope, DIGITS),
        "rate_slope_even": nstr(study.rate_fit.slope_even, DIGITS),
        "rate_slope_odd": nstr(study.rate_fit.slope_odd, DIGITS),
    }
    for key, val in fits.items():
        print("%s: %s" % (key, val), file=sink)
    if oracle_note:
        print("note: %s" % oracle_note, file=sink)
    report = {"series": spec_file.spec_dict(), "rows": rows, "fits": fits,
              "oracle": args.oracle, "note": oracle_note}
    return report, 0


def main(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.precision is None and args.command != "reproduce":  # tables keep their own
        args.precision = DEFAULT_DIGITS
    started = time.time()
    try:
        if args.precision is not None:  # reproduce without it runs at each table's own
            whole_number(args.precision, "--precision", MIN_DIGITS)
        if args.command == "reproduce":
            payload, code = cmd_reproduce(args, stdout)
        else:
            with workdps(args.precision):
                command = cmd_sum if args.command == "sum" else cmd_study
                payload, code = command(args, stdout)
        if getattr(args, "out", None):
            report = {
                "schema": SCHEMA_VERSION,
                "command": args.command,
                "config": {k: v for k, v in vars(args).items() if k not in ("out", "csv")},
                "report": payload,
                "exit_code": code,
                "wall_time_s": round(time.time() - started, 3),
            }
            with _open_output(args.out) as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        stdout.flush()
    except ResumError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader left: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
