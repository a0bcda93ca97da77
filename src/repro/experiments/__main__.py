"""``python -m repro.experiments [ids...] --scale S --workers N --out FILE``."""

from repro.experiments.figures import cli

raise SystemExit(cli())
