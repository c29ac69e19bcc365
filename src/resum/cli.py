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
error (bad file, bad flags, solver failure).
"""

import argparse
import csv
import io
import json
import os
import sys
import time

from mpmath import mp

from . import benchmarks
from .borel import BorelConfig, borel_pade_sum, borel_sum
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
from .precision import DEFAULT_DIGITS, Precision, to_mpf
from .series import PowerSeries

SCHEMA_VERSION = 1

GENERATORS = {
    "d0": lambda order: d0_partition_coeffs(order),
    "anharmonic": lambda order: anharmonic_ground_coeffs(order),
    "rg_beta": lambda order: rg_series().beta.truncate(min(order, 7)),
    "rg_gamma_inv": lambda order: rg_series().gamma_inv.truncate(min(order, 7)),
    "rg_eta": lambda order: rg_series().eta.truncate(min(order, 7)),
}

_KNOWN_KEYS = {"name", "variable", "coefficients", "generator", "order",
               "large_order_A"}


class SeriesFile:
    """Parsed series file: explicit coefficients or a named generator."""

    def __init__(self, name, variable, coefficients=None, generator=None,
                 order=None, large_order_A=None):
        self.name = name
        self.variable = variable
        self.coefficients = coefficients
        self.generator = generator
        self.order = order
        self.large_order_A = large_order_A

    def build(self):
        """Materialize the series at the active working precision."""
        if self.generator is not None:
            return GENERATORS[self.generator](self.order)
        return PowerSeries(tuple(self.coefficients), self.variable)

    def spec_dict(self):
        out = {"name": self.name, "variable": self.variable}
        if self.generator is not None:
            out["generator"] = self.generator
            out["order"] = self.order
        else:
            out["coefficients"] = list(self.coefficients)
        if self.large_order_A is not None:
            out["large_order_A"] = self.large_order_A
        return out


def parse_series_file(path):
    """Parse a series file; raises :class:`ParseError` with line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    fields = {}
    coeff_lines = []
    in_coeffs = False
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_coeffs and (line.startswith(" ") or line.startswith("\t")):
            coeff_lines.extend(_split_values(line, lineno))
            continue
        in_coeffs = False
        if ":" not in line:
            raise ParseError("expected 'key: value', got %r" % line.strip(), lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ParseError("unknown field %r" % key, lineno)
        if key in fields or (key == "coefficients" and coeff_lines):
            raise ParseError("duplicate field %r" % key, lineno)
        if key == "coefficients":
            in_coeffs = True
            if value:
                coeff_lines.extend(_split_values(value, lineno))
            fields["coefficients"] = True
            continue
        fields[key] = (value, lineno)

    def take(key, default=None):
        if key in fields and key != "coefficients":
            return fields[key][0]
        return default

    name = take("name", os.path.basename(path))
    variable = take("variable", "g")
    generator = take("generator")
    has_coeffs = bool(coeff_lines)
    if generator is not None and has_coeffs:
        raise ParseError("exactly one of 'coefficients' and 'generator' is allowed",
                         fields["generator"][1])
    if generator is None and not has_coeffs:
        raise ParseError("series file needs 'coefficients' or 'generator'")
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
    coefficients = None
    if has_coeffs:
        coefficients = []
        for text, lineno in coeff_lines:
            try:
                to_mpf(text)
            except Exception:
                raise ParseError("cannot parse coefficient %r" % text, lineno)
            coefficients.append(text)
    if "large_order_A" in fields:
        text, lineno = fields["large_order_A"]
        try:
            to_mpf(text)
        except Exception:
            raise ParseError("cannot parse large_order_A value %r" % text, lineno)
    return SeriesFile(
        name=name, variable=variable, coefficients=coefficients,
        generator=generator, order=order, large_order_A=take("large_order_A"),
    )


def _split_values(text, lineno):
    parts = [p.strip() for p in text.replace(",", " ").split()]
    return [(p, lineno) for p in parts if p]


class _Parser(argparse.ArgumentParser):
    # Operational errors must exit 1; argparse defaults to 2, which this
    # tool reserves for tolerance violations.
    def error(self, message):
        raise UsageError(message)


def _num(value):
    if hasattr(value, "_mpf_") or hasattr(value, "_mpc_"):
        return mp.nstr(value, 17)
    return str(value)


def build_parser():
    parser = _Parser(prog="resum",
                     description="Summation toolkit for divergent power series")
    parser.add_argument("--precision", "-p", type=int,
                        help="decimal working digits (env RESUM_PRECISION; default %d)"
                        % DEFAULT_DIGITS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="sum one series at a coupling")
    p_sum.add_argument("series_file")
    p_sum.add_argument("--method", required=True,
                       choices=("odm", "borel-map", "borel-pade", "pade"))
    p_sum.add_argument("--g", required=True, help="coupling value, or 'inf'")
    p_sum.add_argument("--order", type=int, help="truncation order k")
    p_sum.add_argument("--family", choices=tuple(f.value for f in MappingFamily),
                       default="power-cut")
    p_sum.add_argument("--alpha", default="2")
    p_sum.add_argument("--prefactor-p", default="0")
    p_sum.add_argument("--beta-covariant", action="store_true")
    p_sum.add_argument("--criterion", choices=tuple(m.value for m in SelectionMode),
                       default="mixed")
    p_sum.add_argument("--tau", default="0.5", help="smallness threshold")
    p_sum.add_argument("--sigma", default="0", help="Leroy parameter")
    p_sum.add_argument("--a", help="Borel singularity parameter (default 1/large_order_A)")
    p_sum.add_argument("--L", type=int, help="numerator degree")
    p_sum.add_argument("--M", type=int, help="denominator degree")
    p_sum.add_argument("--out", help="write a JSON run report here")

    p_rep = sub.add_parser("reproduce", help="rebuild a stored benchmark table")
    p_rep.add_argument("table_id", choices=benchmarks.TABLE_IDS)
    p_rep.add_argument("--digits", type=int, help="override the runner's precision")
    p_rep.add_argument("--csv", help="write the CSV here instead of stdout")
    p_rep.add_argument("--out", help="write a JSON run report here")

    p_study = sub.add_parser("study", help="order-by-order convergence study")
    p_study.add_argument("series_file")
    p_study.add_argument("--max-order", type=int, required=True)
    p_study.add_argument("--g", default="inf", help="coupling value, or 'inf'")
    p_study.add_argument("--family", choices=tuple(f.value for f in MappingFamily),
                         default="power-cut")
    p_study.add_argument("--alpha", default="2")
    p_study.add_argument("--prefactor-p", default="0")
    p_study.add_argument("--criterion", choices=tuple(m.value for m in SelectionMode),
                         default="mixed")
    p_study.add_argument("--tau", default="0.5")
    p_study.add_argument("--oracle", choices=("quadrature", "diagonalization", "none"),
                         default="none")
    p_study.add_argument("--csv", help="write the CSV here instead of stdout")
    p_study.add_argument("--out", help="write a JSON run report here")
    return parser


def parse_coupling(text):
    """A ``--g`` value: a finite number, or ``inf``/``infinity``/``oo``."""
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return mp.inf
    try:
        g = to_mpf(text)
    except (ValueError, ZeroDivisionError):
        g = None
    if g is None or not (mp.isfinite(g) or g == mp.inf):
        raise UsageError("--g must be a finite number or inf, got %r" % text)
    return g


def _env_precision():
    text = os.environ.get("RESUM_PRECISION")
    if text is None:
        return DEFAULT_DIGITS
    try:
        return int(text)
    except ValueError:
        raise UsageError("RESUM_PRECISION must be an integer, got %r" % text) from None


def _mapping_from_args(args):
    return MappingSpec(
        family=MappingFamily(args.family),
        alpha=to_mpf(args.alpha),
        prefactor_p=to_mpf(args.prefactor_p),
        beta_covariant=getattr(args, "beta_covariant", False),
    )


def _criterion_from_args(args):
    return RhoSelectionCriterion(mode=SelectionMode(args.criterion),
                                 smallness_factor=to_mpf(args.tau))


def cmd_sum(args, stdout):
    spec_file = parse_series_file(args.series_file)
    series = spec_file.build()
    g = parse_coupling(args.g)
    result = {"series": spec_file.name, "method": args.method}
    diagnostics = {}
    if args.method == "pade":
        if args.L is None or args.M is None:
            raise UsageError("pade needs --L and --M")
        approx = pade_fit(series, args.L, args.M)
        value = pade_eval(approx, g)
        diagnostics["denominator"] = [_num(c) for c in approx.denominator]
        error = None
    elif args.method == "borel-pade":
        if args.L is None or args.M is None:
            raise UsageError("borel-pade needs --L and --M")
        out = borel_pade_sum(series, to_mpf(args.sigma), args.L, args.M, g,
                             full_output=True)
        value, error = out.value, out.quadrature_error
        diagnostics["sigma"] = args.sigma
    elif args.method == "borel-map":
        a = args.a
        if a is None:
            if spec_file.large_order_A is None:
                raise UsageError("borel-map needs --a or a large_order_A field")
            a = 1 / to_mpf(spec_file.large_order_A)
        cfg = BorelConfig(a=to_mpf(a), sigma=to_mpf(args.sigma),
                          truncation=args.order)
        out = borel_sum(series, cfg, g, full_output=True)
        value, error = out.value, out.truncation_error + out.quadrature_error
        diagnostics["sigma"] = args.sigma
        diagnostics["a"] = _num(to_mpf(a))
    else:  # odm
        if args.order is None:
            raise UsageError("odm needs --order")
        mapping = _mapping_from_args(args)
        table = build_rho_table(series, mapping)
        rep = odm_value(table, args.order, _criterion_from_args(args), g)
        value, error = rep.value, rep.error_estimate
        diagnostics.update({
            "rho": _num(rep.rho), "lambda": _num(rep.lam),
            "mode": rep.mode.value, "flagged": rep.flagged,
        })
    result["g"] = "inf" if g == mp.inf else _num(g)
    result["value"] = _num(value)
    result["error_estimate"] = _num(error) if error is not None else None
    result["diagnostics"] = diagnostics
    print("value: %s" % result["value"], file=stdout)
    if error is not None:
        print("error_estimate: %s" % result["error_estimate"], file=stdout)
    for key in sorted(diagnostics):
        print("%s: %s" % (key, diagnostics[key]), file=stdout)
    return result, 0


def cmd_reproduce(args, stdout):
    result = benchmarks.run_benchmark(args.table_id, digits=args.digits)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([row.get(col, "") for col in result.columns])
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(buf.getvalue())
        sink = stdout
    else:
        stdout.write(buf.getvalue())
        sink = sys.stderr
    for check in result.checks:
        print("%s: %s (observed %s, target %s)"
              % ("PASS" if check.passed else "FAIL", check.name,
                 check.observed, check.target), file=sink)
    report = {
        "table_id": result.table_id,
        "config": result.config,
        "rows": result.rows,
        "checks": [{"name": c.name, "passed": c.passed, "observed": c.observed,
                    "target": c.target} for c in result.checks],
        "passed": result.passed,
    }
    return report, 0 if result.passed else 2


def cmd_study(args, stdout):
    spec_file = parse_series_file(args.series_file)
    series = spec_file.build()
    if args.max_order > series.order - 1:
        raise UsageError("--max-order must be at most series order - 1 (%d)"
                         % (series.order - 1))
    g = parse_coupling(args.g)
    mapping = _mapping_from_args(args)
    table = build_rho_table(series, mapping)
    oracle = None
    oracle_note = None
    if args.oracle == "quadrature":
        if spec_file.generator != "d0":
            raise UsageError("the quadrature oracle belongs to the d0 generator")
        oracle = d0_partition_value(g)
    elif args.oracle == "diagonalization":
        if spec_file.generator != "anharmonic":
            raise UsageError("the diagonalization oracle belongs to the anharmonic generator")
        oracle = anharmonic_ground_value(g)
    elif spec_file.generator is None:
        oracle_note = "no oracle for custom coefficients; deltas are error estimates"
    study = convergence_study(table, _criterion_from_args(args), args.max_order,
                              g, oracle=oracle)
    columns = ("k", "rho", "inv_rho", "value", "delta", "error_estimate",
               "lambda", "flagged")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    rows = []
    for rep in study.reports:
        row = {
            "k": str(rep.k), "rho": _num(rep.rho), "inv_rho": _num(1 / rep.rho),
            "value": _num(rep.value),
            "delta": _num(rep.delta) if rep.delta is not None else "",
            "error_estimate": _num(rep.error_estimate) if rep.error_estimate is not None else "",
            "lambda": _num(rep.lam), "flagged": "1" if rep.flagged else "0",
        }
        rows.append(row)
        writer.writerow([row[c] for c in columns])
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(buf.getvalue())
        sink = stdout
    else:
        stdout.write(buf.getvalue())
        sink = sys.stderr
    fits = {
        "inv_rho_slope": _num(study.inv_rho_fit.slope),
        "inv_rho_slope_even": _num(study.inv_rho_fit.slope_even),
        "inv_rho_slope_odd": _num(study.inv_rho_fit.slope_odd),
        "r_estimate": _num(study.r_estimate),
        "r_slope": _num(study.r_slope),
        "r_corrected": _num(study.r_corrected),
        "rate_abscissa": study.rate_abscissa,
        "rate_slope": _num(study.rate_fit.slope),
        "rate_slope_even": _num(study.rate_fit.slope_even),
        "rate_slope_odd": _num(study.rate_fit.slope_odd),
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
        if args.precision is None:
            args.precision = _env_precision()
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    started = time.time()
    try:
        with Precision(args.precision).workdps():
            if args.command == "sum":
                payload, code = cmd_sum(args, stdout)
            elif args.command == "reproduce":
                payload, code = cmd_reproduce(args, stdout)
            else:
                payload, code = cmd_study(args, stdout)
    except ResumError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if getattr(args, "out", None):
        report = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "config": _config_echo(args),
            "report": payload,
            "exit_code": code,
            "wall_time_s": round(time.time() - started, 3),
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return code


def _config_echo(args):
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in ("out", "csv"):
            continue
        echo[key] = value
    return echo


if __name__ == "__main__":
    sys.exit(main())
