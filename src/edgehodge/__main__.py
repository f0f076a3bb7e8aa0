"""``python -m edgehodge``: the command line front end (see ``cli``)."""

import sys

from edgehodge.cli import main

if __name__ == "__main__":
    sys.exit(main())
