"""``python -m querysort``: the command-line interface (`querysort.cli`)."""

import sys

from .cli import main

sys.exit(main())
