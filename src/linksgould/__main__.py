"""``python -m linksgould``: the ``lgpoly`` command, through the same
``cli.launch`` as the installed script."""

from .cli import launch

launch()
