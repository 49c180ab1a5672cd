import os

import pytest

from glemiml.atomic import atomic_open


def test_clean_exit_replaces_the_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old")
    with atomic_open(path) as fh:
        fh.write("new")
        assert path.read_text() == "old"  # unchanged until the block ends
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_exception_leaves_no_file_and_no_temp(tmp_path):
    path = tmp_path / "a.txt"
    with pytest.raises(ValueError):
        with atomic_open(path) as fh:
            fh.write("half")
            raise ValueError("stop")
    assert list(tmp_path.iterdir()) == []


def test_permissions_match_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write("x")
    with atomic_open(tmp_path / "atomic.txt") as fh:
        fh.write("x")
    mode = os.stat(tmp_path / "atomic.txt").st_mode
    assert mode == os.stat(plain).st_mode


def test_newline_passed_through(tmp_path):
    path = tmp_path / "a.csv"
    with atomic_open(path, newline="") as fh:
        fh.write("a\r\nb\n")
    assert path.read_bytes() == b"a\r\nb\n"
