import simplexuq


def test_every_exported_name_resolves():
    assert len(set(simplexuq.__all__)) == len(simplexuq.__all__)
    missing = [name for name in simplexuq.__all__ if not hasattr(simplexuq, name)]
    assert missing == []
