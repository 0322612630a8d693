"""`python -m filiform`: the `filiform` command, as `python -m filiform.cli` runs it."""

from .cli import main

raise SystemExit(main())
