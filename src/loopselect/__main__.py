"""``python -m loopselect ...`` runs the command-line front end, :func:`loopselect.cli.main`."""

from .cli import main

raise SystemExit(main())
