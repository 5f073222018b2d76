"""The package's public name list."""

import latgauss


def test_all_is_sorted_unique_and_resolvable():
    names = latgauss.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    for name in names:
        assert hasattr(latgauss, name), name
