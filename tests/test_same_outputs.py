"""The comparison of ``tools/same_outputs.py`` on synthetic dumps."""

import copy
import importlib.util
from pathlib import Path

from mpmath import mp

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

DUMP = {
    "tables": {"odm-d0-strong": {
        "rows": [{"k": "1", "rho": "4.0"}, {"k": "2", "rho": "1.44"}],
        "config": {"digits": 64},
        "checks": [["rho within 1e-3", True, "2.1e-4", "<= 1e-3"]]}},
    "picks": {"odm-d0-strong": [
        [1, "root", False, "mpf('4.0')", [["mpf('4.0')", "mpf('0.0')", "mpf('0.125')"]]],
        ["raised", "SelectionError('no admissible root at order 3')"]]},
    "sum_mix": {"d0:8:odm:g=2": [0, "value: 0.87\n", ""]},
    "out_reports": {"d0:8:odm:g=2": {"exit_code": 0, "report": {"value": "0.87"}}},
}


def test_identical_dumps_have_no_differences():
    assert same_outputs.differences(DUMP, copy.deepcopy(DUMP)) == []
    assert same_outputs.sizes(DUMP) == {"tables": 1, "picks": 2, "sum_mix": 1,
                                        "out_reports": 1}


def test_a_changed_leaf_is_reported_with_its_path():
    change = copy.deepcopy(DUMP)
    change["picks"]["odm-d0-strong"][0][4][0][1] = "mpf('1.0e-70')"
    change["sum_mix"]["d0:8:odm:g=2"][1] = "value: 0.88\n"
    assert same_outputs.differences(DUMP, change) == [
        "picks/odm-d0-strong/0/4/0/1: \"mpf('0.0')\" != \"mpf('1.0e-70')\"",
        "sum_mix/d0:8:odm:g=2/1: 'value: 0.87\\n' != 'value: 0.88\\n'",
    ]


def test_differing_picks_are_counted_with_their_largest_rho_difference():
    assert same_outputs.pick_differences(DUMP, copy.deepcopy(DUMP)) == (0, None)
    change = copy.deepcopy(DUMP)
    # A candidate triple alone, then rho and its triple, 64 digits apart.
    change["picks"]["odm-d0-strong"][0][4][0][2] = "mpf('0.126')"
    assert same_outputs.pick_differences(DUMP, change) == (1, 0)
    rho = "mpf('4.%s3')" % ("0" * 62)
    change["picks"]["odm-d0-strong"][0][3] = change["picks"]["odm-d0-strong"][0][4][0][0] = rho
    change["picks"]["odm-d0-strong"][1] = ["raised", "ResourceError('64 digits')"]
    count, largest = same_outputs.pick_differences(DUMP, change)
    assert count == 2 and mp.nstr(largest, 3) == "7.5e-64"


def test_missing_keys_extra_items_and_column_order_are_reported():
    change = copy.deepcopy(DUMP)
    del change["tables"]["odm-d0-strong"]["config"]
    change["picks"]["odm-d0-strong"].append(["raised", "SelectionError('again')"])
    change["sum_mix"]["d0:8:pade:g=2"] = [0, "value: 0.9\n", ""]
    change["tables"]["odm-d0-strong"]["rows"][0] = {"rho": "4.0", "k": "1"}
    assert same_outputs.differences(DUMP, change) == [
        "tables/odm-d0-strong/rows/0: key order ['k', 'rho'] != ['rho', 'k']",
        "tables/odm-d0-strong/config: only in parent",
        "picks/odm-d0-strong: 2 items != 3",
        "sum_mix/d0:8:pade:g=2: only in change",
    ]


TMP = "/scratch/tmpq1x9"
REPORT = """{
  "command": "sum",
  "config": {"g": "2", "method": "odm", "series_file": "%s/inputs/d0-8.series"},
  "exit_code": 0,
  "report": {"error_estimate": "1.2e-3", "value": "0.87"},
  "schema": 1,
  "wall_time_s": %s
}
"""


def test_a_report_loses_its_wall_time_and_temporary_directory():
    got = same_outputs.normalized_report(REPORT % (TMP, "0.012"), TMP)
    assert got == {
        "command": "sum",
        "config": {"g": "2", "method": "odm", "series_file": "<tmp>/inputs/d0-8.series"},
        "exit_code": 0, "report": {"error_estimate": "1.2e-3", "value": "0.87"}, "schema": 1}
    assert same_outputs.normalized_report(None, TMP) is None


def test_reports_differing_only_in_time_and_directory_compare_equal():
    runs = [same_outputs.normalized_report(REPORT % (tmp, seconds), tmp)
            for tmp, seconds in ((TMP, "0.012"), ("/scratch/tmpzz07", "1.5"))]
    assert runs[0] == runs[1]
    changed = same_outputs.normalized_report(
        (REPORT % (TMP, "0.012")).replace('"0.87"', '"0.88"'), TMP)
    parent, change = (dict(DUMP, out_reports={"d0:8:odm:g=2": r}) for r in (runs[0], changed))
    assert same_outputs.differences(parent, change) == [
        "out_reports/d0:8:odm:g=2/report/value: '0.87' != '0.88'"]


def test_differences_are_counted_by_section():
    change = copy.deepcopy(DUMP)
    change["sum_mix"]["d0:8:odm:g=2"][1] = "value: 0.88\n"
    change["out_reports"]["d0:8:odm:g=2"]["report"]["value"] = "0.88"
    change["out_reports"]["d0:8:pade:g=2"] = None
    found = same_outputs.differences(DUMP, change)
    assert same_outputs.section_counts(found, DUMP) == {
        "tables": 0, "picks": 0, "sum_mix": 1, "out_reports": 2}
    assert same_outputs.section_counts([], DUMP) == dict.fromkeys(DUMP, 0)
