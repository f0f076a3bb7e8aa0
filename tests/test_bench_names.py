"""Every per-layer label the traced benchmark declares still resolves.

``perfbench/layertrace.py`` finds its named layers by module and
function name and reports a label whose targets are all gone as absent,
dropping its metrics from the traced result.  A refactor that deletes or
renames such a function fails here instead, and so does one that routes
IH queries around ``elim.rank``'s targets, whose metrics would then read 0.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402

from edgehodge import stratified  # noqa: E402


def test_every_named_layer_resolves():
    tracer = layertrace.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []


def test_ih_query_reaches_the_rank_layer():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        stratified.ih_dims(stratified.builtin_space("cone-circle"), 0)
    finally:
        tracer.uninstall()
    m = tracer.metrics(1.0)
    assert m["elim.rank.calls"] > 0 and m["elim.rank.cells"] > 0
