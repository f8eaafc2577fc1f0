import hashlib

import pytest

from nfeq import svgplot


def test_loglog_svg(tmp_path):
    path = tmp_path / "plot.svg"
    hs = [2.0 ** -k for k in range(4, 9)]
    errs = [0.3 * h ** 0.5 for h in hs]
    svgplot.write_svg(path, [("errors", hs, errs)], log=True, title="study",
                      reference_slope=0.5)
    text = path.read_text()
    assert text.startswith("<svg")
    assert 'width="800"' in text and 'height="600"' in text
    assert "polyline" in text
    assert "reference slope 0.5" in text


def test_loglog_rejects_nonpositive_data(tmp_path):
    with pytest.raises(ValueError):
        svgplot.write_svg(tmp_path / "bad.svg", [("x", [0.0], [-1.0])], log=True)


def test_xy_svg(tmp_path):
    path = tmp_path / "fn.svg"
    ts = [i / 10 for i in range(11)]
    svgplot.write_svg(path, [("f", ts, [t * t for t in ts])], log=False, title="f")
    text = path.read_text()
    assert "<svg" in text and "polyline" in text


def test_xy_svg_empty_series(tmp_path):
    with pytest.raises(ValueError):
        svgplot.write_svg(tmp_path / "bad.svg", [("f", [], [])], log=False)


def test_study_svg_bytes(tmp_path):
    # pins the study plot byte for byte: the linear plot shares its writer
    path = tmp_path / "study.svg"
    svgplot.write_svg(path, [("cusp gamma=0.5", [0.0625, 0.03125, 0.015625],
                              [0.2, 0.14, 0.1])],
                      log=True, title="convergence study", xlabel="h",
                      ylabel="error", reference_slope=0.5)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "d2ee4afc07ac069fe6b173666bda424fa2b2d6ed8fa2a038c3befff9ae50f608"


def test_linear_svg_has_grid_lines_and_markers(tmp_path):
    path = tmp_path / "fn.svg"
    svgplot.write_svg(path, [("f", [0.0, 0.5, 1.0], [1.0, 1.0, 1.0])], log=False)
    text = path.read_text()
    assert text.count("<circle") == 3
    assert text.count('stroke="#dddddd"') == 10  # five ticks per axis
    assert ">0.45<" in text and ">1.55<" in text  # constant data: unit range, 5% pad
