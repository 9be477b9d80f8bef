"""python -m spectramono: the command line interface, as the `spectramono`
entry point runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
