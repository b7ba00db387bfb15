"""``python3 -m benchmarks.spine`` — see ``runner.py`` and ``README.md``.

Puts ``src/`` (beside ``benchmarks/``) on the import path first, so the
command needs no ``PYTHONPATH``.
"""

import os
import sys

if __name__ == "__main__":
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("benchmarks.spine: no src/repro beside benchmarks/; run it from a checkout")
    sys.path.insert(0, os.path.abspath(src))
    from benchmarks.spine.runner import main

    sys.exit(main())
