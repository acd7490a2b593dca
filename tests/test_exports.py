import fdbf


def test_every_exported_name_resolves():
    assert [name for name in fdbf.__all__ if not hasattr(fdbf, name)] == []
    assert len(set(fdbf.__all__)) == len(fdbf.__all__)
