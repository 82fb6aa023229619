import docrag


def test_every_exported_name_resolves():
    missing = [name for name in docrag.__all__ if not hasattr(docrag, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(docrag.__all__) == len(set(docrag.__all__))
