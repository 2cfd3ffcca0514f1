"""`python -m clarith`: the command line the `clarith` script runs."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
