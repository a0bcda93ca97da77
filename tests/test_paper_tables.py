"""Tables 1 and 2 are data the paper prints: their rendered bytes are pinned.

Each digest is the sha256 of the table exactly as the figure runner prints it
(``format_table`` over the ``FIGURES`` entry's rows with its title).  A change
that alters either table on purpose re-records the digest here, with a reason.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figures import run_figures

TABLE_DIGESTS = {
    "table1": "86c2f9a6fc43a199a808beb593411cce713050749fcba7656ad6c16e29be6451",
    "table2": "1eab4b229a71427383270fa88b374c33d5f72de2fb5b95bf46512f51daea909e",
}


@pytest.mark.parametrize("name", ["table1", "table2"])
def test_table_is_the_bytes_recorded(name, capsys):
    run_figures([name])
    rendered = capsys.readouterr().out.removesuffix("\n")
    assert hashlib.sha256(rendered.encode("utf-8")).hexdigest() == TABLE_DIGESTS[name]
