import fermatvol


def test_all_exports_resolve():
    missing = [name for name in fermatvol.__all__ if not hasattr(fermatvol, name)]
    assert missing == []
