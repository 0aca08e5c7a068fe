"""The `examples --seed 1 --json` report, compared byte for byte with the
committed golden copy.

The golden report pins every estimate, count and history of the worked
examples.  A change that moves any of them on purpose re-pins it with

    PYTHONPATH=src python -m certint.cli examples --seed 1 \
        --json tests/golden/examples_seed1.json

and explains each changed field in CHANGES.md.  The numpy and scipy
versions it was made with are in ``tests/golden/VERSIONS``; other versions
may round differently.
"""

import os

from certint.cli import run as cli_run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_examples_report_matches_golden(tmp_path):
    path = tmp_path / "examples.json"
    assert cli_run(["examples", "--seed", "1", "--json", str(path)]) == 0
    with open(os.path.join(GOLDEN, "examples_seed1.json"), "rb") as fh:
        golden = fh.read()
    with open(os.path.join(GOLDEN, "VERSIONS")) as fh:
        versions = fh.read().strip()
    assert path.read_bytes() == golden, \
        f"report differs from the golden copy made with: {versions}"
