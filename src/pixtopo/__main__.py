"""``python -m pixtopo``: the same command line as the ``pixtopo`` script."""

import sys

from .cli import main

sys.exit(main())
