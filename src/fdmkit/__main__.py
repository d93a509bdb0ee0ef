"""The ``fdmkit`` command: ``python -m fdmkit`` and the installed script.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads, so
:func:`main` sets the command's default of one BLAS thread (the ``fdmkit.cli``
docstring says why) before anything imports numpy.  A program that imports
fdmkit as a library keeps its own BLAS set-up.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
