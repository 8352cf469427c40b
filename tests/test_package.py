"""Package surface: the names ``qcla`` re-exports."""

import qcla


def test_all_names_resolve():
    missing = [name for name in qcla.__all__ if not hasattr(qcla, name)]
    assert not missing
    assert len(set(qcla.__all__)) == len(qcla.__all__)
