"""The package's public name list."""

import z4dc


def test_every_exported_name_resolves():
    assert len(set(z4dc.__all__)) == len(z4dc.__all__)
    missing = [name for name in z4dc.__all__ if not hasattr(z4dc, name)]
    assert not missing
