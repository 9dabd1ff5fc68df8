"""`python -m lct3`: the command-line interface of lct3.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
