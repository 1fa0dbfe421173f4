"""Worker roots for the graph fixtures: reachability starts here."""

from wproj.core import helpers


def _init_worker(ctx):
    helpers.stamp(ctx)


def _evaluate_window(chunk):
    return helpers.fold(chunk)
