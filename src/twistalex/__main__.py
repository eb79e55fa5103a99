"""``python -m twistalex``: the command line front end of twistalex.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
