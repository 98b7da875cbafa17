"""Every error survives the pickle round trip that carries it out of a
worker process."""

import pickle

import pytest

from launderbench import errors

CUSTOM = {
    errors.MalformedLine: ((3, "expected 5 fields, got 4"),
                           {"line_no": 3,
                            "reason": "expected 5 fields, got 4"}),
    errors.MissingScore: ((["t2", "t1"],), {"ids": ["t2", "t1"]}),
    errors.OrphanScore: (({"s9"},), {"ids": {"s9"}}),
}


def error_classes():
    return sorted((obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)),
                  key=lambda cls: cls.__name__)


def test_custom_classes_are_in_errors():
    assert set(CUSTOM) <= set(error_classes())


@pytest.mark.parametrize("cls", error_classes(), ids=lambda c: c.__name__)
def test_round_trip(cls):
    args, attrs = CUSTOM.get(cls, (("source u0001.flac is truncated",), {}))
    err = cls(*args)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    for name, value in attrs.items():
        assert getattr(back, name) == value


def test_os_error_round_trip():
    err = FileNotFoundError(2, "No such file or directory", "u0001.flac")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is FileNotFoundError
    assert str(back) == str(err)
    assert (back.errno, back.filename) == (2, "u0001.flac")
