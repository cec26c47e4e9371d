"""The service client's transport: a failed connect leaks nothing."""

from __future__ import annotations

import gc
import warnings

from repro.service import ServiceClient


def test_failed_connect_closes_the_socket(tmp_path):
    client = ServiceClient(tmp_path / "absent.sock")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert client.alive() is False
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
