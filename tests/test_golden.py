"""Byte equality of CLI outputs with the recorded files in tests/golden.

Each case runs `qgauss` on a scenario of tests/golden and compares its
standard output, byte for byte, with the file of the same stem.  The
outputs are exact (rationals, integers, fixed check lists); the
Monte Carlo suite, which prints floats, is left out.  To record a new
case, run the same command and write its output to the expected file.
"""

from pathlib import Path

import pytest

from qgauss.cli import main

GOLDEN = Path(__file__).parent / "golden"

MOMENTS = ("free_uu", "nonorth", "perm_d2", "perm_combination",
           "tensor_z2z3", "qmatrix_two_colour", "finite_n")
DIMS = ("dims_free", "dims_perm")

CASES = ([(f"{s}.moment.json", ["moment", "--scenario", f"{s}.json"])
          for s in MOMENTS]
         + [(f"{s}.csv", ["dims", "--scenario", f"{s}.json", "--format", "csv"])
            for s in DIMS]
         + [(f"verify_{s}.jsonl", ["verify", s])
            for s in ("oracle", "axioms", "semigroup")])


@pytest.mark.parametrize("expected, argv", CASES,
                         ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(capsys, expected, argv):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / expected).read_bytes()
