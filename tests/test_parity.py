import os
import shutil

import parity

_CANNED = [(name, name) for name in ("fig1_freshness_spectral", "fig1_uniform_baseline")]


def test_parity_of_a_tree_with_itself(tmp_path):
    assert parity.compare(parity.ROOT, parity.ROOT, _CANNED, str(tmp_path)) == []


def _copy_with(tmp_path, old, new):
    """A copy of the package whose cli.py has its one ``old`` replaced by ``new``."""
    other = tmp_path / "other"
    shutil.copytree(os.path.join(parity.ROOT, "src"), other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "src" / "freshtrack" / "cli.py"
    text = cli.read_text()
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new))
    return str(other)


def test_parity_names_a_config_whose_report_differs(tmp_path):
    # A copy whose reports end in one more blank line differs in its report
    # file only, and in no JSON field; stdout and the exit codes stay the same.
    other = _copy_with(tmp_path, '+ "\\n}\\n"', '+ "\\n}\\n\\n"')
    assert parity.compare(parity.ROOT, other, _CANNED[:1], str(tmp_path / "work")) == [
        ("fig1_freshness_spectral", ["fig1_freshness_spectral_report.json"])]


def test_parity_names_the_report_fields_that_differ(tmp_path):
    # A copy that reports another transform residue differs in that one
    # field of the report, named down to the transform's own.
    other = _copy_with(tmp_path, '("transform", trace.ts)',
                       '("transform", trace.ts and dataclasses.replace(trace.ts, residue=0.5))')
    assert parity.compare(parity.ROOT, other, _CANNED[:1], str(tmp_path / "work")) == [
        ("fig1_freshness_spectral", ["fig1_freshness_spectral_report.json: transform.residue"])]


def test_parity_names_a_config_whose_error_message_differs(tmp_path):
    # A missing config: run refuses it, and check names the missing trace
    # under each side's own output directory, which the comparison masks.
    missing = [("missing", str(tmp_path / "missing.json"))]
    assert parity.compare(parity.ROOT, parity.ROOT, missing, str(tmp_path / "same")) == []
    other = _copy_with(tmp_path, "no such config file or canned scenario",
                       "no such config or canned scenario")
    assert parity.compare(parity.ROOT, other, missing, str(tmp_path / "work")) == [
        ("missing", ["stderr"])]
