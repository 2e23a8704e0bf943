"""QAPLIB parsing, bundled fixtures, bounds table, and fetch."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sawt_qap.qaplib as ql
from sawt_qap import generate_instance, objective
from sawt_qap.core import QapInstance, is_permutation
from sawt_qap.errors import ParseError, ValidationError


SIMPLE_DAT = """
3

0 1 2
1 0 3
2 3 0

0 5 4
5 0 6
4 6 0
"""


class TestParser:
    def test_basic(self):
        inst = ql.parse_qaplib(SIMPLE_DAT, name="t3")
        assert inst.n == 3
        assert inst.flow[0, 2] == 2.0  # first matrix is flow
        assert inst.distance[0, 2] == 4.0
        assert inst.name == "t3"

    def test_flow_first_order(self):
        # Asymmetric marker makes any matrix-order mixup detectable.
        text = "2  0 7 0 0   0 1 2 0"
        inst = ql.parse_qaplib(text)
        assert inst.flow[0, 1] == 7.0 and inst.flow[1, 0] == 0.0
        assert inst.distance[0, 1] == 1.0 and inst.distance[1, 0] == 2.0

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.sampled_from([" ", "\n", "\t", "  ", "\n\n"]), min_size=18, max_size=18))
    def test_whitespace_insensitive(self, seps):
        tokens = ["3", "0", "1", "2", "1", "0", "3", "2", "3", "0",
                  "0", "5", "4", "5", "0", "6", "4", "6", "0"]
        text = tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))
        inst = ql.parse_qaplib(text)
        ref = ql.parse_qaplib(SIMPLE_DAT)
        assert np.array_equal(inst.flow, ref.flow)
        assert np.array_equal(inst.distance, ref.distance)

    def test_non_numeric_token_offset(self):
        text = "2 0 1 1 0 0 x 2 0"
        with pytest.raises(ParseError) as err:
            ql.parse_qaplib(text)
        assert err.value.offset == text.index("x")

    def test_truncated(self):
        text = "3 0 1 2 1 0 3"
        with pytest.raises(ParseError) as err:
            ql.parse_qaplib(text)
        assert "truncated" in str(err.value)
        assert err.value.offset == len(text.encode())

    def test_trailing_tokens(self):
        text = "2 0 1 1 0 0 2 2 0 99"
        with pytest.raises(ParseError) as err:
            ql.parse_qaplib(text)
        assert "trailing" in str(err.value)
        assert err.value.offset == text.index("99")

    def test_bad_n(self):
        with pytest.raises(ParseError):
            ql.parse_qaplib("0")
        with pytest.raises(ParseError):
            ql.parse_qaplib("2.5 0 0 0 0 0 0 0 0")
        with pytest.raises(ParseError):
            ql.parse_qaplib("   ")

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            ql.parse_qaplib("2 0 -1 1 0 0 2 2 0")

    def test_format_round_trip(self):
        inst = generate_instance(6, p=0.5, seed=4)
        text = ql.format_qaplib(inst)
        back = ql.parse_qaplib(text)
        assert np.array_equal(back.flow, inst.flow)  # bitwise (repr floats)
        assert np.array_equal(back.distance, inst.distance)
        int_inst = ql.parse_qaplib(SIMPLE_DAT, name="t3")
        assert ql.parse_qaplib(ql.format_qaplib(int_inst)).flow.tolist() == int_inst.flow.tolist()


class TestNameAndBounds:
    def test_parse_name(self):
        assert ql.parse_name("nug12") == ("nug", 12, "")
        assert ql.parse_name("sko100a") == ("sko", 100, "a")
        assert ql.parse_name("tai64c") == ("tai", 64, "c")
        assert ql.parse_name("esc128") == ("esc", 128, "")
        with pytest.raises(ValidationError):
            ql.parse_name("12nug")
        with pytest.raises(ValidationError):
            ql.parse_name("nug")
        with pytest.raises(ValidationError):
            ql.parse_name("nug12_extra")

    def test_known_bounds_required_entries(self):
        bounds = ql.known_bounds()
        assert bounds["nug12"] == 578
        assert bounds["had12"] == 1652
        assert bounds["chr12a"] == 9552
        assert bounds["tai12a"] == 224416
        assert bounds["esc16f"] == 0
        assert bounds["chr12c"] == 11156
        assert len(bounds) > 100

    def test_known_bounds_is_a_copy(self):
        ql.known_bounds()["nug12"] = 1
        assert ql.known_bounds()["nug12"] == 578


class TestSolutionParser:
    def test_one_based(self):
        n, value, sigma = ql.parse_solution("3 42\n2 3 1\n")
        assert (n, value) == (3, 42.0)
        assert sigma.tolist() == [1, 2, 0]

    def test_zero_based(self):
        _, _, sigma = ql.parse_solution("3 42\n1 2 0\n")
        assert sigma.tolist() == [1, 2, 0]

    def test_not_a_permutation(self):
        with pytest.raises(ParseError):
            ql.parse_solution("3 42\n1 1 2\n")
        with pytest.raises(ParseError):
            ql.parse_solution("3 42\n5 6 7\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            ql.parse_solution("4 42\n1 2 3\n")

    def test_format_round_trip(self):
        sigma = np.array([2, 0, 1])
        n, value, back = ql.parse_solution(ql.format_solution(17.0, sigma))
        assert n == 3 and value == 17.0
        assert np.array_equal(back, sigma)


class TestFixtures:
    def test_expected_fixtures_ship(self):
        names = ql.list_fixtures()
        assert {"chr12c", "esc16f", "had12"} <= set(names)

    @pytest.mark.parametrize("name", ["chr12c", "esc16f", "had12"])
    def test_fixture_parses_and_matches_name(self, name):
        entry = ql.load_entry(name)
        assert entry.instance.n == ql.parse_name(name)[1]
        assert entry.category == ql.parse_name(name)[0]
        assert entry.upper_bound is not None

    @pytest.mark.parametrize("name", ["chr12c", "had12"])
    def test_shipped_solution_reproduces_bound_exactly(self, name):
        entry = ql.load_entry(name)
        n, value, sigma = ql.load_solution(name)
        assert n == entry.instance.n
        assert value == entry.upper_bound
        assert objective(entry.instance, sigma) == entry.upper_bound

    def test_esc16f_everything_is_optimal(self, rng):
        entry = ql.load_entry("esc16f")
        assert entry.upper_bound == 0.0
        assert np.all(entry.instance.flow == 0.0)
        for _ in range(5):
            sigma = rng.permutation(16).astype(np.int64)
            assert objective(entry.instance, sigma) == 0.0

    def test_fixture_round_trip(self):
        # Every bundled file is in canonical form: formatting what it parses
        # to gives back its exact bytes.
        for name in ql.list_fixtures():
            dat = ql.fixture_dir().joinpath(f"{name}.dat").read_bytes()
            inst = ql.parse_qaplib(dat, name=name)
            assert ql.format_qaplib(inst).encode() == dat, name
            sln = ql.fixture_dir().joinpath(f"{name}.sln").read_bytes()
            _, value, sigma = ql.parse_solution(sln, name=name)
            assert ql.format_solution(value, sigma).encode() == sln, name

    def test_missing_instance(self):
        with pytest.raises(FileNotFoundError):
            ql.load_instance("doesnotexist99", data_dir="/nonexistent")


class TestDataDirAndFetch:
    def test_data_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAWT_QAP_DATA_DIR", str(tmp_path))
        inst = generate_instance(4, seed=8)
        (tmp_path / "toy4.dat").write_text(ql.format_qaplib(inst))
        loaded = ql.load_instance("toy4")
        assert np.array_equal(loaded.flow, inst.flow)

    def test_explicit_dir_wins(self, tmp_path):
        inst = generate_instance(4, seed=9)
        (tmp_path / "toy4b.dat").write_text(ql.format_qaplib(inst))
        loaded = ql.load_instance("toy4b", data_dir=tmp_path)
        assert np.array_equal(loaded.distance, inst.distance)

    def _make_remote(self, tmp_path):
        remote = tmp_path / "remote"
        (remote / "data.d").mkdir(parents=True)
        (remote / "soln.d").mkdir()
        inst = generate_instance(5, seed=10)
        (remote / "data.d" / "toy5.dat").write_text(ql.format_qaplib(inst))
        (remote / "soln.d" / "toy5.sln").write_text("5 1.5\n1 2 3 4 5\n")
        return remote, inst

    def test_fetch_file_url(self, tmp_path):
        remote, inst = self._make_remote(tmp_path)
        dest = tmp_path / "cache"
        written = ql.fetch("toy5", data_dir=dest, base_url=remote.as_uri())
        assert [p.name for p in written] == ["toy5.dat", "toy5.sln"]
        assert np.array_equal(ql.load_instance("toy5", dest).flow, inst.flow)
        n, value, sigma = ql.load_solution("toy5", dest)
        assert (n, value) == (5, 1.5) and is_permutation(sigma, 5)

    def test_fetch_env_base_url(self, tmp_path, monkeypatch):
        remote, _ = self._make_remote(tmp_path)
        monkeypatch.setenv("SAWT_QAPLIB_URL", remote.as_uri())
        dest = tmp_path / "cache2"
        written = ql.fetch("toy5", data_dir=dest)
        assert (dest / "toy5.dat").exists()
        assert len(written) == 2

    def test_fetch_missing_solution_is_nonfatal(self, tmp_path):
        remote, _ = self._make_remote(tmp_path)
        (remote / "soln.d" / "toy5.sln").unlink()
        dest = tmp_path / "cache3"
        written = ql.fetch("toy5", data_dir=dest, base_url=remote.as_uri())
        assert [p.name for p in written] == ["toy5.dat"]

    def test_fetch_validates_before_writing(self, tmp_path):
        remote = tmp_path / "remote"
        (remote / "data.d").mkdir(parents=True)
        (remote / "data.d" / "bad7.dat").write_text("3 0 1")
        dest = tmp_path / "cache4"
        with pytest.raises(ParseError):
            ql.fetch("bad7", data_dir=dest, base_url=remote.as_uri())
        assert not (dest / "bad7.dat").exists()

    def test_load_entry_size_contradiction(self, tmp_path):
        inst = generate_instance(4, seed=8)
        (tmp_path / "toy9.dat").write_text(ql.format_qaplib(inst))
        with pytest.raises(ValidationError):
            ql.load_entry("toy9", data_dir=tmp_path)
