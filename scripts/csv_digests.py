"""Print a sha256 digest of every CSV the CLI writes for the bundled scenarios.

Run from the repository root, with the package importable:

    PYTHONPATH=src python3 scripts/csv_digests.py > digests.txt

For each scenarios/*.json (given by its relative path, which the CSV header
records) it runs, in-process through `cli.main`: `solve` in both modes, every
`verify --which` suite, and `simulate --samples 300` for the null, full,
optimal, sigma_star and couple:0.9 strategies. Each line reads
`sha256 exit-code command`, where the digest covers the CSV written to
stdout. Run it on two checkouts and diff the outputs to list exactly which
CSVs a change moves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from persuasionlab import cli

STRATEGIES = ("null", "full", "optimal", "sigma_star", "couple:0.9")


def commands(scenario: str) -> list[list[str]]:
    """The CLI argument lists run on one scenario file."""
    runs = [["solve", "--mode", mode] for mode in cli.MODES]
    runs += [["verify", "--which", which] for which in sorted(cli._VERIFIERS)]
    runs += [["simulate", "--samples", "300", "--strategy", name] for name in STRATEGIES]
    return [[*run, "--scenario", scenario] for run in runs]


def main() -> int:
    for path in sorted(Path("scenarios").glob("*.json")):
        for argv in commands(path.as_posix()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(digest, code, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
