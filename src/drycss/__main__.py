"""`python -m drycss <stage> --out ws ...` runs the drycss command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
