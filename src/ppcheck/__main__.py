"""`python -m ppcheck`: the `ppcheck` command line."""
from .cli import main

raise SystemExit(main())
