"""python -m klforge: the command line of klforge.cli."""

import sys

from .cli import main

sys.exit(main())
