"""``python -m repro.experiments gate`` — check the committed trajectories."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
