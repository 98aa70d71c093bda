import gpsrb


def test_every_export_resolves():
    assert [name for name in gpsrb.__all__ if not hasattr(gpsrb, name)] == []
    assert len(set(gpsrb.__all__)) == len(gpsrb.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gpsrb import *", namespace)
    assert set(gpsrb.__all__) <= set(namespace)
