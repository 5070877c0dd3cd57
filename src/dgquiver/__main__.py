"""`python -m dgquiver <command> ...` runs the same entry point as the
installed `dgquiver` script."""

import sys

from .cli import main

sys.exit(main())
