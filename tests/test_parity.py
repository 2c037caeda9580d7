import os
import shutil

import parity

_CANNED = [(name, name) for name in ("fig1_freshness_spectral", "fig1_uniform_baseline")]


def test_parity_of_a_tree_with_itself(tmp_path):
    assert parity.compare(parity.ROOT, parity.ROOT, _CANNED, str(tmp_path)) == []


def test_parity_names_a_config_whose_report_differs(tmp_path):
    # A copy whose reports end in one more blank line differs in its report
    # file only; stdout and the exit codes stay the same.
    other = tmp_path / "other"
    shutil.copytree(os.path.join(parity.ROOT, "src"), other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "src" / "freshtrack" / "cli.py"
    text = cli.read_text()
    assert text.count('+ "\\n}\\n"') == 1
    cli.write_text(text.replace('+ "\\n}\\n"', '+ "\\n}\\n\\n"'))
    assert parity.compare(parity.ROOT, str(other), _CANNED[:1], str(tmp_path / "work")) == [
        ("fig1_freshness_spectral", ["files"])]
