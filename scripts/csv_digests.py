"""Print a sha256 digest of every CSV the CLI writes for the bundled scenarios.

Run from the repository root, with the package importable:

    PYTHONPATH=src python3 scripts/csv_digests.py > digests.txt

For each scenarios/*.json (given by its relative path, which the CSV header
records) it runs, in-process through `cli.main`: `solve` in both modes, at the
scenario's discount and at 0.9999, every `verify --which` suite, and
`simulate --samples 300` for the null, full, optimal, sigma_star and
couple:0.9 strategies. Each line reads
`sha256 exit-code command`, where the digest covers the CSV written to
stdout. Run it on two checkouts and diff the outputs to list exactly which
CSVs a change moves. After every line is printed it exits 1 if a command
exited nonzero, unless it is a pair in KNOWN_FAILURES that exited 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from persuasionlab import cli

STRATEGIES = ("null", "full", "optimal", "sigma_star", "couple:0.9")

# (verify suite, scenario name) pairs whose suite reports fail where its claim holds, with the ROADMAP
# item that mends each; the change that mends one removes it here, and then this script and
# `test_every_verify_suite_passes_on_bundled_scenarios` in tests/test_cli.py hold that pair to a pass.
# - kink3 is the k=3 scenario whose envelope is not affine: ROADMAP item 3, reading the continuation
#   value through its concave envelope when k >= 3.
KNOWN_FAILURES = {("lemma1", "kink3"): 3}


def commands(scenario: str) -> list[list[str]]:
    """The CLI argument lists run on one scenario file."""
    runs = [["solve", "--mode", mode] for mode in cli.MODES]
    runs += [["solve", "--mode", mode, "--lambda", "0.9999"] for mode in cli.MODES]
    runs += [["verify", "--which", which] for which in sorted(cli._VERIFIERS)]
    runs += [["simulate", "--samples", "300", "--strategy", name] for name in STRATEGIES]
    return [[*run, "--scenario", scenario] for run in runs]


def main() -> int:
    unexpected = []
    for path in sorted(Path("scenarios").glob("*.json")):
        for argv in commands(path.as_posix()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(digest, code, " ".join(argv), flush=True)
            known = argv[0] == "verify" and (argv[2], path.stem) in KNOWN_FAILURES and code == cli.EXIT_FAIL
            if code != cli.EXIT_PASS and not known:
                unexpected.append(f"{code} {' '.join(argv)}")
    for line in unexpected:
        print("unexpected exit code:", line, file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
