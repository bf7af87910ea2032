import os
import sys

# ``python -m bench`` from the repo root: the program's sources are beside us.
sys.path.insert(1, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from .cli import main  # noqa: E402

sys.exit(main())
