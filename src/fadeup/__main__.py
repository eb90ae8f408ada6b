"""``python -m fadeup``: the same CLI as the ``fadeup`` script."""

import sys

from .cli import main

sys.exit(main())
