"""Interactive machines, bounded games, and the strategy transformers
that turn premise solvers into conclusion solvers."""

__version__ = "0.1.0"
