import math

import numpy as np
import pytest

from oracles import find_codeword
from skybeam.cli import CODEBOOK_CSV, _codebook_rows, _RunDir
from skybeam.codebook import (
    build_dl_codebook,
    build_ssb_codebook,
    dft_subbook,
)
from skybeam.config import RadioConfig
from skybeam.scenario import UpaGeometry

RADIO = RadioConfig()


class TestDftSubbook:
    def test_single_element_single_codeword(self):
        weights, _, _ = dft_subbook(1, 1, 1, 1, 1)
        assert len(weights) == 1
        assert np.allclose(weights[0], [1.0])

    def test_two_columns_orthogonal(self):
        weights, _, _ = dft_subbook(2, 2, 1, 1, 1)
        assert len(weights) == 2
        inner = weights[0] @ np.conj(weights[1])
        assert abs(inner) < 1e-12

    def test_full_grid_gram_identity(self):
        # 4 columns x 8 rows at no oversampling: 32 mutually orthogonal codewords
        w, _, _ = dft_subbook(4, 4, 8, 1, 1)
        assert len(w) == 32
        gram = w @ np.conj(w).T
        assert np.allclose(gram, np.eye(32), atol=1e-12)

    def test_deactivated_columns_exactly_zero(self):
        weights, _, _ = dft_subbook(2, 4, 8, 1, 1)
        for w in weights:
            assert np.all(w[2 * 8 :] == 0.0)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_their_own_kronecker_beams(self):
        # each row rebuilt from its own (ih, iv), one np.kron per codeword
        active, m_h, m_v, o_h, o_v = 3, 4, 2, 2, 3
        weights, beam_h, beam_v = dft_subbook(active, m_h, m_v, o_h, o_v)
        n_h, n_v = o_h * active, o_v * m_v
        # vertical-major: iv varies slowest
        assert [(int(v), int(h)) for v, h in zip(beam_v, beam_h)] == [
            (iv, ih) for iv in range(n_v) for ih in range(n_h)
        ]
        expected = np.zeros((n_v * n_h, m_h * m_v), dtype=complex)
        for k, (ih, iv) in enumerate(zip(beam_h.tolist(), beam_v.tolist())):
            a_h = np.exp(2j * np.pi * np.arange(active) * ih / n_h) / math.sqrt(active)
            a_v = np.exp(2j * np.pi * np.arange(m_v) * iv / n_v) / math.sqrt(m_v)
            expected[k, : active * m_v] = np.kron(a_h, a_v)
        assert np.array_equal(weights, expected)


class TestSsbCodebook:
    def test_counting_rule_8x4_panel(self):
        # 8 rows x 4 columns, O=(1,1): 8 * (4 + 3 + 2 + 1) = 80
        panel = UpaGeometry(m_h=4, m_v=8)
        book = build_ssb_codebook(panel, 1, 1)
        assert len(book) == 80

    def test_single_element_panel(self):
        book = build_ssb_codebook(UpaGeometry(m_h=1, m_v=1), 1, 1)
        assert len(book) == 1

    def test_default_oversampling_count(self):
        book = build_ssb_codebook(UpaGeometry(m_h=4, m_v=8), 4, 1)
        assert len(book) == sum(4 * k * 8 for k in range(1, 5))  # 320

    def test_unit_norm_all(self):
        book = build_ssb_codebook(UpaGeometry(m_h=4, m_v=8), 4, 1)
        norms = np.linalg.norm(book.weights, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_configuration_order(self):
        book = build_ssb_codebook(UpaGeometry(m_h=4, m_v=8), 1, 1)
        # configuration-major: active columns decrease from m_h to 1
        assert list(np.unique(book.active_columns)) == [1, 2, 3, 4]
        changes = np.flatnonzero(np.diff(book.active_columns))
        assert np.all(np.diff(book.active_columns)[changes] == -1)


class TestDlCodebook:
    def test_grid_sizes(self):
        panel = UpaGeometry(m_h=4, m_v=8)
        assert len(build_dl_codebook(panel, 1, 1)) == 32
        assert len(build_dl_codebook(panel, 4, 4)) == 512
        book = build_dl_codebook(panel, 4, 4)
        assert np.all(book.active_columns == panel.m_h)
        assert np.all(np.abs(book.weights) > 0.0)

    def test_matched_direction_gain_is_m(self):
        """The steering vector built from a codeword's own direction cosines
        gets the codeword's full array gain, its active element count: for
        12 random data codewords and for every SSB codeword of the default
        panel, each deactivated sub-book included. This pins the
        half-wavelength wrap of `directions` that `baseline_plan` relies on."""
        panel = UpaGeometry(m_h=4, m_v=8)
        coords = panel.element_coords(RADIO.wavelength_m)
        lam = RADIO.wavelength_m
        dl = build_dl_codebook(panel, 4, 4)
        ssb = build_ssb_codebook(panel, 4, 1)
        gen = np.random.default_rng(0)
        checked = {"dl": 0, "ssb": 0}
        for name, book, indices in (("dl", dl, gen.integers(0, len(dl), 12)), ("ssb", ssb, range(len(ssb)))):
            for idx in indices:
                u, w = book.directions[idx]
                if u**2 + w**2 >= 1.0:
                    continue  # invisible-region beam has no physical direction
                kvec = np.array([math.sqrt(1 - u**2 - w**2), u, w])
                h = np.exp(1j * 2 * np.pi / lam * (kvec @ coords))
                gain = abs(h @ book.weights[idx]) ** 2
                assert gain == pytest.approx(book.active_columns[idx] * panel.m_v, rel=1e-9), (name, idx)
                checked[name] += 1
        assert checked["ssb"] == 228  # of 320; every sub-book has visible codewords
        assert set(ssb.active_columns[np.sum(ssb.directions**2, axis=1) < 1.0].tolist()) == {1, 2, 3, 4}


def test_deactivation_widens_beams():
    # half-power width of the azimuth pattern, sampled on a fine direction grid
    panel = UpaGeometry(m_h=4, m_v=8)
    book = build_ssb_codebook(panel, 1, 1)
    lam = RADIO.wavelength_m
    coords = panel.element_coords(lam)

    def azimuth_halfpower_width(index):
        us = np.linspace(-0.999, 0.999, 2001)
        gains = []
        for u in us:
            kvec = np.array([math.sqrt(1 - u**2), u, 0.0])
            h = np.exp(1j * 2 * np.pi / lam * (kvec @ coords))
            gains.append(abs(h @ book.weights[index]) ** 2)
        gains = np.array(gains)
        return np.mean(gains >= gains.max() / 2)

    full = find_codeword(book, 4, 0, 0)
    narrow_width = azimuth_halfpower_width(full)
    two_col = find_codeword(book, 2, 0, 0)
    wide_width = azimuth_halfpower_width(two_col)
    assert wide_width > narrow_width


def test_export_csv(tmp_path):
    book = build_ssb_codebook(UpaGeometry(m_h=2, m_v=2), 1, 1)
    path = tmp_path / "codebook.csv"
    _RunDir(str(tmp_path), 0.0).write_csv(path.name, CODEBOOK_CSV, _codebook_rows(book))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,active_cols,ih,iv,weights_re_im"
    assert len(lines) == 1 + len(book)
    first_weight = lines[1].split(",")[4].split(";")[0]
    re, im = (float(x) for x in first_weight.split(":"))
    assert complex(re, im) == pytest.approx(book.weights[0][0])


FORMAT_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0,
                   123456789012.0, 1e-7, 0.1 + 0.2, 2.0**53 + 1.0, 9.9999999995, 1e16, 1e-5]


def test_percent_format_matches_fstring():
    """The CSV writers' "%.10g" gives the text of f"{x:.10g}", on special
    values and on random doubles, as Python floats and as NumPy scalars."""
    values = FORMAT_SPECIALS + np.random.default_rng(0).standard_normal(2000).tolist()
    values += (10.0 ** np.random.default_rng(1).uniform(-320, 300, 2000)).tolist()
    for x in values:
        assert "%.10g" % x == f"{x:.10g}", x
        assert "%.10g" % np.float64(x) == f"{np.float64(x):.10g}", x


def test_codebook_csv_rows_match_fstring_formatting(tmp_path):
    """One %-format per row writes what per-value f-strings wrote."""
    book = build_ssb_codebook(UpaGeometry(m_h=4, m_v=2), 2, 1)
    path = tmp_path / "cb.csv"
    _RunDir(str(tmp_path), 0.0).write_csv(path.name, CODEBOOK_CSV, _codebook_rows(book))
    want = ["index,active_cols,ih,iv,weights_re_im"]
    for i in range(len(book)):
        w = ";".join(f"{x.real:.10g}:{x.imag:.10g}" for x in book.weights[i])
        want.append(f"{i},{book.active_columns[i]},{book.beam_index_h[i]},{book.beam_index_v[i]},{w}")
    assert path.read_text() == "\n".join(want) + "\n"
