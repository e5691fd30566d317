"""The package's export list."""

import cdgen


def test_export_list_resolves():
    assert len(set(cdgen.__all__)) == len(cdgen.__all__)
    for name in cdgen.__all__:
        assert hasattr(cdgen, name), name
    namespace = {}
    exec("from cdgen import *", namespace)
    assert set(cdgen.__all__) <= set(namespace)
    for gone in ("lex_compare", "condition_code", "triple_index"):
        assert gone not in cdgen.__all__
        assert not hasattr(cdgen, gone), gone
