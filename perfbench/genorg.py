"""Generate one planted organisation and write it as JSON.

Usage: ``python3 perfbench/genorg.py DIVISOR SEED OUT.json`` with the
program's ``src/`` on ``PYTHONPATH``.  The benchmark runs this in a
child process during set-up.
"""

import sys

from repro.datagen.orggen import OrgProfile, generate_org
from repro.io import save_json


def main(argv: list[str]) -> int:
    divisor, seed, out = int(argv[0]), int(argv[1]), argv[2]
    save_json(generate_org(OrgProfile.small(divisor, seed=seed)).state, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
