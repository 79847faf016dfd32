import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import conleylab
from conleylab import (attractor, blocks, catalog, cli, complexes as cxm,
                       flow as flm, flowfile as ffm, spaces as spm, svgplot)
from test_algebra import LOOP_D2, determinantal_invariants, loop_complex


def src_env():
    """Environment for a child python that imports this checkout."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(conleylab.__file__)))


def test_analyze_text(capsys):
    assert cli.main(["analyze", "catalog:example22-torus"]) == 0
    out = capsys.readouterr().out
    assert "classification: NoExternalExplosions" in out
    assert "r = 1 homoclinic, s = 1 total" in out


def test_analyze_json(tmp_path):
    path = tmp_path / "rep.json"
    rc = cli.main(["analyze", "north-south", "--format", "json",
                   "--out", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["classification"] == "Stable"
    assert data["schema"] == "1"
    assert data["refinements"] == 0
    assert data["k"] == sorted(data["k"])


class CountingWriter(io.StringIO):
    """A text stream that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_a_json_report_is_written_in_batches(tmp_path, monkeypatch):
    # one write per batch of encoder chunks: one write per chunk is a
    # syscall each on unbuffered stdout, and one write for the whole report
    # holds it as one string
    entry = catalog.build("example22-torus", 24)
    payload = attractor.analyze(entry["flow"], entry["k"]).to_json()
    payload["refinements"] = 0
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    chunks = 1 + sum(1 for _ in json.JSONEncoder(
        sort_keys=True, indent=2).iterencode(payload))
    argv = ["analyze", "catalog:example22-torus", "--resolution", "24",
            "--format", "json"]
    out = CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == 0
    assert out.getvalue().encode() == want.encode()
    assert out.writes > 1
    assert chunks > cli._BATCH
    assert out.writes <= -(-chunks // cli._BATCH) + 1
    path = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == want.encode()


def test_an_svg_plot_is_written_in_batches(tmp_path, monkeypatch):
    # the picture is streamed as a JSON report is, _BATCH chunks per
    # write: a header, a chunk per rectangle or label, the title and the
    # closing tag; the digest pins its bytes
    argv = ["plot", "catalog:example22-torus", "--resolution", "32"]
    out = CountingWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "bfb9f11517a1dd24fdae87d57288a99d8f856ef5126e0e7513a533836bb5ae56"
    chunks = text.count("<rect") + text.count("<text ") + 2
    assert chunks > cli._BATCH
    assert out.writes == -(-chunks // cli._BATCH)
    path = tmp_path / "plot.svg"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == text.encode()


def test_analyze_error_exits(capsys):
    assert cli.main(["analyze", "capped-annulus"]) == 1
    assert "error[not-isolated]" in capsys.readouterr().err
    assert cli.main(["analyze", "rest-torus"]) == 1
    assert "error[no-candidate]" in capsys.readouterr().err
    assert cli.main(["analyze", "no-such-flow"]) == 1
    assert "error[unreadable-input]" in capsys.readouterr().err
    assert cli.main(["analyze", "catalog:no-such-flow"]) == 1
    assert "error[unknown-flow]" in capsys.readouterr().err


# arrays nested past the JSON parser's depth
DEEP = "[" * 200000 + "]" * 200000


def test_malformed_flow_file_exits(tmp_path, capsys):
    for i, body in enumerate(('{"successors": {}}', '[1, 2]', DEEP)):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(body)
        for command in ("analyze", "homology"):
            assert cli.main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error[unreadable-input]: "), (i, command)
            assert err.count("\n") == 1, (i, command)


def test_malformed_complex_file_exits(tmp_path, capsys):
    body = flm.rest_flow(spm.sphere(3, 6)).to_json()
    top = min(body["successors"])
    vertex = min(c for c, d in body["complex"]["cells"] if d == 0)

    def unknown_face(bnd):
        bnd[top].append(["nowhere", 1])

    def wrong_face_dimension(bnd):
        bnd[top].append([vertex, 1])

    def zero_coefficient(bnd):
        bnd[top][0][1] = 0

    def dd_nonzero(bnd):
        bnd[top][0][1] *= -1

    def undeclared_boundary(bnd):
        bnd["ghost:1"] = [["nowhere", 1]]

    def repeated_face(bnd):
        bnd[top].append([bnd[top][0][0], 1])

    # a float or a bool coefficient in a cell whose coefficients, as ints,
    # an earlier cell has: 1.0 and True equal 1, and the reader shares
    # equal coefficient tuples
    seen = {}
    for later, pairs in body["complex"]["boundary"].items():
        shape = tuple(k for _, k in pairs)
        if 1 in shape and shape in seen:
            break
        seen[shape] = later
    face, k = body["complex"]["boundary"][later][0]
    at_one = next(f for f, n in body["complex"]["boundary"][later] if n == 1)

    def float_after_int(bnd):
        bnd[later][0][1] = float(k)

    def bool_after_int(bnd):
        bnd[later][[f for f, _ in bnd[later]].index(at_one)][1] = True

    def float_read_first(bnd):
        # the float cell read first, though a cell of its shape comes
        # before it in the cells' order
        pairs = bnd.pop(later)
        pairs[0][1] = float(k)
        rest = list(bnd.items())
        bnd.clear()
        bnd[later] = pairs
        bnd.update(rest)

    cases = [(unknown_face, "unknown cell nowhere"),
             (wrong_face_dimension, "(dim 0)"),
             (zero_coefficient, "zero coefficient"),
             (dd_nonzero, "del del != 0 at %s" % top),
             (undeclared_boundary, "undeclared cell ghost:1"),
             (repeated_face, "boundary of %s names %s twice"
              % (top, body["complex"]["boundary"][top][0][0])),
             (float_after_int, "coefficient of %s in %s is not an integer: "
              "%r" % (face, later, float(k))),
             (bool_after_int, "coefficient of %s in %s is not an integer: "
              "True" % (at_one, later)),
             (float_read_first, "coefficient of %s in %s is not an integer: "
              "%r" % (face, later, float(k)))]
    for edit, message in cases:
        bad = json.loads(json.dumps(body))
        edit(bad["complex"]["boundary"])
        path = tmp_path / (edit.__name__ + ".json")
        path.write_text(json.dumps(bad))
        for cmd in ("analyze", "homology"):
            assert cli.main([cmd, str(path)]) == 1, (edit.__name__, cmd)
            err = capsys.readouterr().err
            assert err.startswith("error[bad-complex]: "), (edit.__name__, err)
            assert message in err, (edit.__name__, err)
    # the loop v - v = 0 names v twice; read as a dict, it kept the last
    # coefficient and gave H_0 rank 1 and H_1 rank 0 for ranks 2 and 1
    path = tmp_path / "repeated-face.json"
    path.write_text('{"complex": {"cells": [["e", 1], ["v", 0], ["w", 0]], '
                    '"boundary": {"e": [["v", 1], ["v", -1]]}}, '
                    '"successors": {"e": ["e"]}}')
    for cmd in ("analyze", "homology"):
        assert cli.main([cmd, str(path)]) == 1, cmd
        assert capsys.readouterr().err == \
            "error[bad-complex]: boundary of e names v twice\n", cmd
    # a cells list that names an id twice was read as one cell, with the
    # last dimension: here one 1-cell, of H_1 rank 1
    path = tmp_path / "repeated-cell.json"
    path.write_text('{"complex": {"cells": [["a", 0], ["a", 1]]}, '
                    '"successors": {"a": ["a"]}}')
    for cmd in ("analyze", "homology"):
        assert cli.main([cmd, str(path)]) == 1, cmd
        assert capsys.readouterr().err == \
            "error[bad-complex]: cells name a twice\n", cmd


def test_malformed_complex_shapes_exit(tmp_path, capsys):
    # the loader hands the file's lists to the constructor, so a mapping or
    # a wrong-sized pair must not pass through dict() as if it were pairs
    body = flm.rest_flow(spm.sphere(3, 6)).to_json()
    top = min(body["successors"])

    def mapping_boundary(cx):
        cx["boundary"][top] = dict(cx["boundary"][top])

    def short_pair(cx):
        cx["boundary"][top][0] = cx["boundary"][top][0][:1]

    def long_pair(cx):
        cx["boundary"][top][0].append(1)

    def cells_mapping(cx):
        cx["cells"] = dict(cx["cells"])

    def cell_not_a_pair(cx):
        cx["cells"][0] = cx["cells"][0][0]

    def two_char_cell(cx):
        cx["cells"].append("ab")

    def fractional_dimension(cx):
        cx["cells"][0][1] = 1.5

    def string_dimension(cx):
        cx["cells"][0][1] = str(cx["cells"][0][1])

    def string_coefficient(cx):
        cx["boundary"][top][0][1] = "1"

    def bool_coefficient(cx):
        cx["boundary"][top][0][1] = True

    for edit in (mapping_boundary, short_pair, long_pair, cells_mapping,
                 cell_not_a_pair, two_char_cell, fractional_dimension,
                 string_dimension, string_coefficient, bool_coefficient):
        bad = json.loads(json.dumps(body))
        edit(bad["complex"])
        path = tmp_path / (edit.__name__ + ".json")
        path.write_text(json.dumps(bad))
        errs = []
        for cmd in ("analyze", "homology"):
            assert cli.main([cmd, str(path)]) == 1, (edit.__name__, cmd)
            err = capsys.readouterr().err
            assert err.startswith("error["), (edit.__name__, cmd, err)
            assert "Traceback" not in err, (edit.__name__, cmd)
            errs.append(err)
        # homology names the load failure of a file as analyze does
        assert errs[0] == errs[1], (edit.__name__, errs)


def test_malformed_k_exits(tmp_path, capsys):
    # k must be a list of cell ids; any other shape is unreadable input
    body = flm.rest_flow(spm.sphere(3, 6)).to_json()
    for i, k in enumerate((5, [1, "cap:s"], [["cap:s"]])):
        path = tmp_path / ("k%d.json" % i)
        path.write_text(json.dumps(dict(body, k=k)))
        errs = []
        for cmd in ("analyze", "homology"):
            assert cli.main([cmd, str(path)]) == 1, (k, cmd)
            err = capsys.readouterr().err
            assert err.startswith("error[unreadable-input]"), (k, cmd, err)
            assert "Traceback" not in err, (k, cmd)
            errs.append(err)
        assert errs[0] == errs[1], (k, errs)


def test_k_outside_the_top_cells_exits(tmp_path, capsys):
    # homology checks k as analyze does, instead of looking the id up
    body = flm.rest_flow(spm.sphere(3, 6)).to_json()
    # with several such ids, both name the least, whatever the hash seed
    for k in (["nowhere"], ["zzz", "nowhere", "xyz"]):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(dict(body, k=k)))
        for cmd in ("analyze", "homology"):
            assert cli.main([cmd, str(path)]) == 1, cmd
            assert capsys.readouterr().err == (
                "error[not-isolated]: k contains nowhere which is not a top "
                "cell\n"), (k, cmd)


@pytest.mark.parametrize("command, dim, message", [
    ("homology", 10 ** 8, "error[too-large]: dimension of a is 100000000; "
     "the limit is %d\n" % cxm.MAX_CELLS),
    ("analyze", -3, "error[bad-complex]: dimension of a is negative: -3\n"),
    ("homology", -3, "error[bad-complex]: dimension of a is negative: -3\n")],
    ids=["homology-huge", "analyze-negative", "homology-negative"])
def test_an_out_of_range_dimension_is_refused(tmp_path, command, dim, message):
    # homology walks every degree up to the top one, and no cell has a
    # negative dimension: both are refused as the complex is built
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({
        "complex": {"name": "one-cell", "cells": [["a", dim]]},
        "successors": {"a": ["a"]}, "k": ["a"]}))
    assert run_cli([command, str(path)]) == (1, "", message)


def json_message(text):
    """json.loads's own message for a text it refuses."""
    with pytest.raises(ValueError) as ei:
        json.loads(text)
    return str(ei.value)


def structural_faults():
    """(name, text) for a small flow file with one structural fault, at the
    top level and inside its complex object."""
    text = json.dumps(flm.rest_flow(spm.circle(3)).to_json())
    inner = text.index('"identifications": []') + len('"identifications": []')
    assert text[inner] == "}"
    edits = {
        "top-missing-colon": text.replace('"successors": ', '"successors" '),
        "top-missing-comma": text.replace(', "successors"', ' "successors"'),
        "top-trailing-comma": text[:-1] + ", }",
        "top-unterminated": text[:-1],
        "data-after-object": text + " {}",
        "empty": "",
        "complex-missing-colon": text.replace('"cells": ', '"cells" '),
        "complex-missing-comma": text.replace(', "cells"', ' "cells"'),
        "complex-trailing-comma": text[:inner] + ", " + text[inner:],
        "complex-unterminated": text[:inner],
    }
    for name, bad in edits.items():
        assert bad != text, name
        yield name, bad


def test_a_structural_fault_reports_the_parsers_message(tmp_path, capsys):
    # the reader hands a text it cannot parse to json.loads, so the line
    # carries the message of the running Python's own parser
    for name, text in structural_faults():
        path = tmp_path / (name + ".json")
        path.write_text(text)
        want = ("error[unreadable-input]: cannot read flow file %s: %s\n"
                % (path, json_message(text)))
        for cmd in ("analyze", "homology"):
            assert cli.main([cmd, str(path)]) == 1, (name, cmd)
            assert capsys.readouterr().err == want, (name, cmd)


def test_a_flow_piped_on_stdin_is_read_whole(tmp_path):
    # a pipe cannot be read again from its start, so it is read whole: a
    # flow loads from it, and a structural fault reports the parser's own
    # message
    text = json.dumps(flm.rest_flow(spm.sphere(3, 6)).to_json())
    bad = text.replace(', "successors"', ' "successors"')
    for body, code in ((text, 0), (bad, 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "conleylab.cli", "homology", "/dev/stdin"],
            input=body, capture_output=True, text=True, env=src_env(),
            timeout=60)
        assert proc.returncode == code, proc.stderr
    assert proc.stderr == ("error[unreadable-input]: cannot read flow file "
                           "/dev/stdin: %s\n" % json_message(bad))


@pytest.mark.parametrize("argv", [
    ["analyze", "catalog:example22-torus", "--resolution", "48",
     "--format", "json"],
    ["construct", "example22-torus", "--resolution", "16"],
    ["plot", "catalog:example22-torus", "--resolution", "32",
     "--format", "svg"],
])
def test_a_closed_stdout_is_one_error_line(argv):
    # the reader closes the pipe after a few bytes, as `| head -c 8` does,
    # of an output larger than the pipe buffer (64 KiB on Linux): each of
    # these writes over 100 KB
    with subprocess.Popen([sys.executable, "-m", "conleylab.cli"] + argv,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=src_env()) as proc:
        assert len(proc.stdout.read(8)) == 8
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    # one line and no traceback, nor an "Exception ignored" at exit
    assert err == ("error[unwritable-output]: cannot write stdout: "
                   "Broken pipe\n"), err


def test_a_stdout_closed_from_the_start_is_one_error_line():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m conleylab.cli analyze catalog:north-south '
         '>&-', sys.executable],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ("error[unwritable-output]: cannot write stdout: "
                           "it is closed\n"), proc.stderr


@pytest.mark.parametrize("span", [4, None])
def test_a_space_json_does_not_take_is_refused_next_to_a_cut(
        tmp_path, capsys, monkeypatch, span):
    # a form feed or a no-break space is not JSON whitespace: around the
    # comma after a boundary entry, where the reader cuts its spans, the
    # file is refused with the parser's own message, as json.loads refuses
    # it
    if span:
        monkeypatch.setattr(ffm, "_SPAN", span)
    text = json.dumps(flm.rest_flow(spm.sphere(3, 6)).to_json())
    comma = text.index("]], ", text.index('"boundary": ')) + 2
    for odd in ("\x0c", "\xa0"):
        for at in (comma, comma + 1):
            bad = text[:at] + odd + text[at:]
            path = tmp_path / "odd.json"
            path.write_text(bad)
            want = ("error[unreadable-input]: cannot read flow file %s: %s\n"
                    % (path, json_message(bad)))
            for cmd in ("analyze", "homology"):
                assert cli.main([cmd, str(path)]) == 1, (odd, at, cmd)
                assert capsys.readouterr().err == want, (odd, at, cmd)


def test_members_in_any_order_load_the_same_flow(tmp_path, capsys):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["construct", "example22-circle"]) == 0
    body = json.loads(out.getvalue())
    # successors before the complex, cells before the boundary
    cx = body.pop("complex")
    moved = dict(successors=body.pop("successors"), **body)
    moved["complex"] = {"cells": cx["cells"], "name": cx["name"],
                        "boundary": cx["boundary"],
                        "identifications": cx["identifications"]}
    assert list(moved)[0] == "successors" and list(moved)[-1] == "complex"
    paths = [tmp_path / "sorted.json", tmp_path / "moved.json"]
    paths[0].write_text(out.getvalue())
    paths[1].write_text(json.dumps(moved))
    flows = [ffm.load_file(str(p))["flow"] for p in paths]
    assert (flows[0].cx.cells, flows[0].cx.boundary, flows[0].succ) == \
        (flows[1].cx.cells, flows[1].cx.boundary, flows[1].succ)
    reports = []
    for p in paths:
        assert cli.main(["analyze", str(p), "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_of_two_faults_the_first_in_the_file_is_reported(tmp_path, capsys):
    # the complex is built when its object closes, and each field is
    # checked as it is read, so the fault met first in the file is the one
    # reported, a syntax error after it included
    body = json.loads(json.dumps(flm.rest_flow(spm.sphere(3, 6)).to_json()))
    top = min(body["successors"])
    body["complex"]["boundary"][top][0][1] *= -1
    bad_complex = "error[bad-complex]: del del != 0 at %s" % top
    bad_successors = ("error[unreadable-input]: malformed flow data: "
                      "successors is not a mapping from cell ids to lists "
                      "of cell ids\n")
    complex_first = dict(body, successors="cap:n")
    successors_first = {"successors": "cap:n", "complex": body["complex"]}
    texts = {"complex-then-successors": json.dumps(complex_first),
             "successors-then-complex": json.dumps(successors_first),
             "complex-then-syntax": json.dumps(body)[:-1]}
    for name, text in texts.items():
        path = tmp_path / (name + ".json")
        path.write_text(text)
        assert cli.main(["analyze", str(path)]) == 1, name
        err = capsys.readouterr().err
        if name == "successors-then-complex":
            assert err == bad_successors, name
        else:
            assert err.startswith(bad_complex), (name, err)


def assert_field_refused(tmp_path, capsys, field, value, message):
    body = flm.rest_flow(spm.sphere(3, 6)).to_json()
    if field == "successors":
        top = min(body["successors"])
        body["successors"][top] = value
    else:
        body[field] = value
    path = tmp_path / (field + ".json")
    path.write_text(json.dumps(body))
    for cmd in ("analyze", "homology"):
        assert cli.main([cmd, str(path)]) == 1, (field, cmd)
        assert capsys.readouterr().err == (
            "error[unreadable-input]: malformed flow data: %s\n" % message), \
            (field, cmd)


@pytest.mark.parametrize("complex_", [[1], None, 5, True, "absent"])
def test_a_complex_that_is_not_an_object_is_named(tmp_path, capsys,
                                                  complex_):
    # these were a Python TypeError, or a KeyError for a body without
    # `complex`, behind "malformed flow data"
    body = {"complex": complex_, "successors": {"a": ["a"]}}
    if complex_ == "absent":
        del body["complex"]
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body))
    for cmd in ("analyze", "homology"):
        assert cli.main([cmd, str(path)]) == 1, cmd
        assert capsys.readouterr() == ("", (
            "error[unreadable-input]: malformed flow data: complex is not "
            "an object\n")), cmd


def test_successors_field_must_map_cells_to_lists(tmp_path, capsys):
    # a string used to be read one character at a time
    assert_field_refused(
        tmp_path, capsys, "successors", "cap:n",
        "successors is not a mapping from cell ids to lists of cell ids")


@pytest.mark.parametrize("succ, message", [
    ({"e:0": ["v:0"]}, "e:0 -> v:0 is not a top cell"),
    ({"v:0": ["e:0"]}, "successors given for non top cells: ['v:0']"),
])
def test_successors_must_name_top_cells(tmp_path, capsys, succ, message):
    cx = spm.circle(3)
    body = {"complex": cx.to_json(),
            "successors": dict({c: [c] for c in cx.top_cells()}, **succ)}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body))
    for command in ("analyze", "homology"):
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr().err == \
            "error[bad-successor]: %s\n" % message


def test_fixed_field_must_be_a_list_of_cells(tmp_path, capsys):
    assert_field_refused(tmp_path, capsys, "fixed", 7,
                         "fixed is not a list of cell ids")


# two edges between two vertices, e0 fixed: an empty `fixed` disagrees
# with the successors as a nonempty wrong one does
EMPTY_FIXED = (
    '{"complex": {"cells": [["v0",0],["v1",0],["e0",1],["e1",1]], '
    '"boundary": {"e0": [["v1",1],["v0",-1]], "e1": [["v0",1],["v1",-1]]}}, '
    '"successors": {"e0": ["e0"], "e1": ["e0"]}, "fixed": [], "k": ["e0"]}')


@pytest.mark.parametrize("fixed", ["[]", '["e1"]'])
def test_a_fixed_set_that_disagrees_is_refused(tmp_path, capsys, fixed):
    path = tmp_path / "flow.json"
    path.write_text(EMPTY_FIXED.replace('"fixed": []', '"fixed": ' + fixed))
    for command in ("analyze", "homology"):
        assert cli.main([command, str(path)]) == 1, command
        assert capsys.readouterr() == ("", (
            "error[unreadable-input]: fixed set disagrees with "
            "successors\n")), command


# a list pair with a string coefficient, or with an unknown face, then a
# missing comma: the complex's fault, met first, is reported, not the
# parser's
@pytest.mark.parametrize("pair, message", [
    ('["b", "1"]', "coefficient of b in a is not an integer: '1'"),
    ('["c", 1]', "boundary of a mentions unknown cell c"),
])
def test_a_bad_pair_before_a_syntax_fault_is_reported(tmp_path, capsys,
                                                      pair, message):
    path = tmp_path / "flow.json"
    path.write_text('{"complex": {"cells": [["a", 1], ["b", 0]], '
                    '"boundary": {"a": [%s]}}, "successors": {"a": ["a"]} '
                    '"k": ["a"]}' % pair)
    for command in ("analyze", "homology"):
        assert cli.main([command, str(path)]) == 1, command
        assert capsys.readouterr() == (
            "", "error[bad-complex]: %s\n" % message), command


def test_ring_field_must_be_z_or_z2(tmp_path, capsys):
    assert_field_refused(tmp_path, capsys, "ring", "q",
                         "ring is not z or z2")


@functools.lru_cache(maxsize=None)
def fuzz_text():
    """The construct output the fuzz test mutates: the smallest
    example22-circle that analyzes."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["construct", "example22-circle",
                         "--resolution", "5"]) == 0
    return out.getvalue()


def json_paths(node, path=()):
    """The path of every value below node, as tuples of keys and indexes."""
    items = (node.items() if type(node) is dict
             else enumerate(node) if type(node) is list else ())
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


_DROP = object()
_NEST = "@@nest@@"


def replace_at(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


@st.composite
def malformed_flow_texts(draw):
    """A construct output with one of: a key dropped, a value replaced by
    a random JSON value or by deeply nested arrays, the text truncated."""
    doc = json.loads(fuzz_text())
    kind = draw(st.sampled_from(["drop", "replace", "nest", "truncate"]))
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    paths = list(json_paths(doc))
    if kind == "drop":
        paths = [p for p in paths if type(p[-1]) is str]
    path = draw(st.sampled_from(paths))
    value = {"drop": _DROP, "replace": draw(json_values),
             "nest": _NEST}[kind]
    replace_at(doc, path, value)
    text = json.dumps(doc)
    if kind == "nest":
        depth = draw(st.sampled_from([10, 500, 990, 5000, 200000]))
        text = text.replace(json.dumps(_NEST), "[" * depth + "]" * depth)
    return text


_ERROR_LINE = re.compile(r"error\[[a-z-]+\]: [^\n]*\n")


@settings(max_examples=60, deadline=None)
@given(malformed_flow_texts(), st.sampled_from(["analyze", "homology"]))
def test_a_malformed_flow_file_ends_in_one_error_line(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flow.json")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        # a traceback would be an exception escaping main, failing the example
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main([command, path])
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert rc == 1
        assert _ERROR_LINE.fullmatch(err.getvalue()), err.getvalue()


def test_verify_single_check(capsys):
    assert cli.main(["verify", "--only", "cor3.3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] cor3.3")
    assert "result: 1/1 checks passed" in out


def test_verify_unknown_id(capsys):
    assert cli.main(["verify", "--only", "nope"]) == 1
    assert "error[unknown-check]" in capsys.readouterr().err


def test_verify_full_suite(capsys):
    assert cli.main(["verify"]) == 0
    assert "result: 16/16 checks passed" in capsys.readouterr().out


def test_verify_json_matches_pinned_output(monkeypatch, capsys):
    monkeypatch.delenv("CONLEYLAB_CATALOG", raising=False)
    want = (pathlib.Path(__file__).parent / "data" / "verify.json").read_bytes()
    assert cli.main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == want


def test_verify_skips_unreadable_catalog_files_with_a_note(
        tmp_path, monkeypatch, capsys):
    body = catalog.build("example22-circle")["flow"].to_json()
    body["successors"] = {}
    (tmp_path / "nosucc.json").write_text(json.dumps(body))
    (tmp_path / "notjson.json").write_text("not json")
    body = catalog.build("example22-circle")["flow"].to_json()
    (tmp_path / "badk.json").write_text(json.dumps(dict(body, k=[1, "x"])))
    (tmp_path / "deep.json").write_text(DEEP)
    monkeypatch.setenv("CONLEYLAB_CATALOG", str(tmp_path))
    assert cli.main(["verify", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in results] == ["pass"] * 16
    notes = [d for r in results for d in r["details"] if d.startswith("note ")]
    for name in ("nosucc.json", "notjson.json", "badk.json", "deep.json"):
        assert any(name in n for n in notes), name
        assert cli.main(["analyze", "catalog:" + name[:-5]]) == 1
        assert "error[unreadable-input]" in capsys.readouterr().err


HUGE = {"complex": {"name": "huge", "cells": [["a", 100000000]]},
        "successors": {"a": ["a"]}, "k": ["a"]}


def test_a_too_large_or_misnamed_catalog_file_is_skipped_with_a_note(
        tmp_path, monkeypatch, capsys):
    # a complex past the dimension limit, or named by a number, is an
    # unreadable catalog file: every check keeps its status and its
    # details, and notes the file, and `analyze` on it is one error line
    from conleylab import theorems
    monkeypatch.delenv("CONLEYLAB_CATALOG", raising=False)
    alone = theorems.run()
    misnamed = dict(HUGE, complex={"name": 5, "cells": [["a", 0]]})
    for name, body, why in (
            ("huge", HUGE, "dimension of a is 100000000; the limit is "
             "524288"),
            ("misnamed", misnamed, "the complex's name is not a string")):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(body))
        monkeypatch.setenv("CONLEYLAB_CATALOG", str(tmp_path))
        message = "malformed flow file %s: %s" % (path, why)
        line = "skipped catalog entry %s: %s" % (name, message)
        results = theorems.run()
        assert [r.id for r in results] == [r.id for r in alone]
        for r, before in zip(results, alone):
            assert r.status == before.status, r.id
            kept = [d for d in r.details if d != "note " + line]
            assert kept == before.details, r.id
        assert any("note " + line in r.details for r in results), name
        assert cli.main(["analyze", name]) == 1
        assert capsys.readouterr() == ("", "error[unreadable-input]: %s\n"
                                       % message)
        path.unlink()
    # a file that does not parse keeps the reader's own line, not wrapped
    bad = tmp_path / "notjson.json"
    bad.write_text("not json")
    assert cli.main(["analyze", "notjson"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[unreadable-input]: cannot read flow file "
                          "%s: " % bad), err
    assert err.count("\n") == 1


def test_plot_csv_row_per_top_cell(capsys):
    assert cli.main(["plot", "example22-torus", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "cell,role"
    tops = catalog.build("example22-torus")["flow"].tops
    assert len(lines) - 1 == len(tops)


def test_plot_text_legend(capsys):
    assert cli.main(["plot", "north-south", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "legend:" in out and "K=k" in out


def test_plot_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert cli.main(["plot", "example22-torus", "--out", str(a)]) == 0
    assert cli.main(["plot", "example22-torus", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_the_svg_title_has_a_row_below_the_legend(capsys):
    # the title's baseline is below the bottom edge of the last legend
    # swatch (a rect with no <title>), and inside the picture
    for name in ("north-south", "homoclinic-sphere"):
        assert cli.main(["plot", name, "--format", "svg"]) == 0
        svg = capsys.readouterr().out
        height = int(re.match(r'<svg [^>]* height="(\d+)"', svg).group(1))
        swatches = re.findall(r'<rect x="\d+" y="(\d+)" width="\d+" '
                              r'height="(\d+)" fill="#[0-9a-f]+"></rect>', svg)
        top, size = map(int, swatches[-1])
        titles = re.findall(r'<text x="\d+" y="(\d+)" font-size="13"', svg)
        assert len(titles) == 1, name
        assert top + size < int(titles[0]) < height, name


def test_an_svg_plot_without_a_block_draws_no_outline(tmp_path, capsys):
    # a flow found by search: e:0 is isolated, yet no neighbourhood the
    # block builder grows within its budget is a block
    c = spm.circle(10)
    succ = {"e:0": ["e:0"], "e:1": ["e:2"], "e:2": ["e:2"], "e:3": ["e:2"],
            "e:4": ["e:3", "e:4"], "e:5": ["e:6"], "e:6": ["e:7", "e:6"],
            "e:7": ["e:7"], "e:8": ["e:8"], "e:9": ["e:0"]}
    flow = flm.CombinatorialFlow(c, succ, name="noblock")
    with pytest.raises(blocks.NoBlockError):
        blocks.build_block(flow, ["e:0"])
    body = flow.to_json()
    body["k"] = ["e:0"]
    path = tmp_path / "noblock.json"
    path.write_text(json.dumps(body))
    assert cli.main(["plot", str(path), "--format", "svg"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "".join(svgplot.svg_chunks(attractor.analyze(flow, ["e:0"])))


@pytest.mark.parametrize("command, target, why", [
    ("analyze", "", "cannot read flow file {path}: [Errno 21] Is a "
     "directory: '{path}'"),
    ("plot", "", "cannot read flow file {path}: [Errno 21] Is a directory: "
     "'{path}'"),
    ("analyze", "{}", "malformed flow data: successors is not a mapping from "
     "cell ids to lists of cell ids"),
], ids=["analyze-directory", "plot-directory", "empty-object"])
def test_a_target_that_is_no_flow_file_is_one_error_line(tmp_path, capsys,
                                                         command, target, why):
    # an empty target names the directory itself
    path = tmp_path
    if target:
        path = tmp_path / "flow.json"
        path.write_text(target)
    assert cli.main([command, str(path)]) == 1
    assert capsys.readouterr().err == \
        "error[unreadable-input]: %s\n" % why.format(path=path)


def test_plot_json_roles(capsys):
    assert cli.main(["plot", "homoclinic-sphere", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "witness" in set(data["roles"].values())


def test_construct_round_trip(tmp_path, capsys):
    path = tmp_path / "flow.json"
    assert cli.main(["construct", "example22-klein", "--out", str(path)]) == 0
    # a `catalog:` prefix names the same recipe
    again = tmp_path / "again.json"
    assert cli.main(["construct", "catalog:example22-klein", "--out",
                     str(again)]) == 0
    assert path.read_bytes() == again.read_bytes()
    body = json.loads(path.read_text())
    assert body["name"] == "example22-klein"
    assert body["ring"] == "z2"
    assert cli.main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "classification: NoExternalExplosions" in out


def test_construct_bad_resolution(capsys):
    assert cli.main(["construct", "example22-circle", "--resolution", "2"]) == 1
    assert "error[bad-resolution]" in capsys.readouterr().err


def test_construct_output_is_pinned():
    # sha256 of every catalog entry's construct output at its default and
    # its minimum resolution
    pinned = json.loads((pathlib.Path(__file__).parent / "data" /
                         "construct.json").read_text())
    assert sorted(pinned) == sorted(catalog._RECIPES)
    for name, by_res in pinned.items():
        for res, digest in by_res.items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["construct", name, "--resolution", res]) == 0
            got = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert got == digest, (name, res)


PINNED_COMMANDS = {
    "analyze": ["analyze", "--format", "json"],
    "plot": ["plot", "--format", "json"],
    "homology-z": ["homology", "--format", "json", "--ring", "z"],
    "homology-z2": ["homology", "--format", "json", "--ring", "z2"],
}


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def pinned_outputs():
    """For every catalog entry at its default resolution and each command
    of PINNED_COMMANDS: the sha256 of its stdout, or [exit code, stderr]
    when it ends in an error. tests/data/outputs.json holds these values,
    written by `json.dumps(pinned_outputs(), indent=2, sort_keys=True)`."""
    table = {}
    for name in sorted(catalog._RECIPES):
        row = table[name] = {}
        for key, (command, *opts) in PINNED_COMMANDS.items():
            rc, out, err = run_cli([command, "catalog:" + name] + opts)
            if rc == 0 and not err:
                row[key] = hashlib.sha256(out.encode()).hexdigest()
            else:
                assert out == "", (name, key)
                row[key] = [rc, err]
    return table


def test_catalog_outputs_are_pinned():
    pinned = json.loads((pathlib.Path(__file__).parent / "data" /
                         "outputs.json").read_text())
    assert pinned_outputs() == pinned


@pytest.mark.parametrize("name, res", [
    ("torus", 2), ("torus", 0), ("annulus", 1), ("annulus", 2),
    ("s2xs1", 2), ("t3", -1), ("sphere", 1)])
def test_homology_refuses_a_resolution_below_three(capsys, name, res):
    assert cli.main(["homology", name, "--resolution", str(res)]) == 1
    err = capsys.readouterr().err
    assert err == "error[bad-resolution]: %s needs resolution >= 3\n" % name


@pytest.mark.parametrize("argv", [
    ["analyze", "catalog:north-south"], ["verify", "--only", "cor3.3"],
    ["plot", "catalog:north-south"], ["construct", "north-south"],
    ["homology", "torus"]])
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_an_unwritable_out_is_one_error_line(tmp_path, argv, where):
    out = tmp_path if where == "directory" else tmp_path / "none" / "x.txt"
    rc, text, err = run_cli(argv + ["--out", str(out)])
    assert (rc, text) == (1, "")
    assert err.startswith("error[unwritable-output]: cannot write %s: "
                          % out)
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["homology", "torus"], ["homology", "t3"], ["homology", "sphere"],
    ["construct", "example22-torus"], ["construct", "example22-circle"],
    ["analyze", "catalog:ns-annulus-strip"], ["plot", "planar-disc"]])
def test_a_huge_resolution_is_refused(capsys, argv):
    assert cli.main(argv + ["--resolution", str(10 ** 6)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[too-large]: ")
    assert captured.err.endswith(" cells; the limit is %d\n" % cxm.MAX_CELLS)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name, refused", [
    ("torus", "torus(100000,100000)"), ("klein", "klein(100000,100000)"),
    ("t3", "t3(100000,100000)"),
    ("genus2", "sum(torus(100000,100000),torus(100000,100000))")])
def test_a_refused_grid_builds_no_fiber(capsys, monkeypatch, name, refused):
    built = []
    real_circle = spm.circle

    def circle(n):
        built.append(n)
        return real_circle(n)

    monkeypatch.setattr(spm, "circle", circle)
    assert cli.main(["homology", name, "--resolution", str(10 ** 5)]) == 1
    assert built == []
    assert capsys.readouterr().err.startswith(
        "error[too-large]: %s would have " % refused)


def test_genus2_is_refused_before_its_torus(capsys, monkeypatch):
    # torus(257, 257) is within the limit, and the sum of two is not
    monkeypatch.setattr(spm, "torus", None)
    assert cli.main(["homology", "genus2", "--resolution", "257"]) == 1
    assert capsys.readouterr().err == (
        "error[too-large]: sum(torus(257,257),torus(257,257)) would have "
        "528382 cells; the limit is %d\n" % cxm.MAX_CELLS)


def test_homology_of_rp2_ignores_the_resolution(capsys):
    assert cli.main(["homology", "rp2", "--resolution", "1"]) == 0
    rp2_at_1 = capsys.readouterr().out
    assert cli.main(["homology", "rp2"]) == 0
    assert capsys.readouterr().out == rp2_at_1


def test_homology_named_complexes(capsys):
    assert cli.main(["homology", "torus"]) == 0
    out = capsys.readouterr().out
    assert "H_1: rank 2" in out
    assert cli.main(["homology", "klein"]) == 0
    out = capsys.readouterr().out
    assert "H_1: rank 1  torsion 2" in out
    assert cli.main(["homology", "klein", "--ring", "z2"]) == 0
    assert "H_1: rank 2" in capsys.readouterr().out
    assert cli.main(["homology", "genus2", "--resolution", "6"]) == 0
    assert "H_1: rank 4" in capsys.readouterr().out


def test_space_names_are_not_catalog_names(monkeypatch):
    # homology resolves a bare space name before it consults the catalog,
    # which this keeps from changing the flow a name means
    monkeypatch.delenv("CONLEYLAB_CATALOG", raising=False)
    assert set(cxm.SPACES).isdisjoint(catalog.names())


def test_homology_of_an_unknown_name_is_one_error_line(capsys):
    assert cli.main(["homology", "nosuch"]) == 1
    assert capsys.readouterr().err == (
        "error[unreadable-input]: 'nosuch' is neither a file, a catalog "
        "flow nor a named complex\n")


def test_homology_csv(capsys):
    assert cli.main(["homology", "rp2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "degree,rank,torsion\n0,1,\n1,0,2\n2,0,\n"


def test_homology_over_z_ends_on_loop_complex(tmp_path):
    cx = loop_complex(LOOP_D2)
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(flm.rest_flow(cx).to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "conleylab.cli", "homology", str(path),
         "--ring", "z", "--format", "json"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    rank, factors = determinantal_invariants(LOOP_D2)
    rows = json.loads(proc.stdout)["homology"]
    assert rows[1] == {"degree": 1, "rank": 0, "torsion": factors}
    assert rows[2] == {"degree": 2, "rank": len(LOOP_D2) - rank,
                       "torsion": []}


def test_homology_of_flow_includes_pair_polynomial(capsys):
    assert cli.main(["homology", "catalog:example22-torus",
                     "--ring", "z2"]) == 0
    assert "pair polynomial relative to k: t^2 + t" in capsys.readouterr().out


def test_external_catalog_env(tmp_path, monkeypatch, capsys):
    src = catalog.build("example22-circle")["flow"]
    body = src.to_json()
    body["k"] = sorted(catalog.build("example22-circle")["k"])
    (tmp_path / "ext.json").write_text(json.dumps(body))
    monkeypatch.setenv("CONLEYLAB_CATALOG", str(tmp_path))
    assert cli.main(["analyze", "ext"]) == 0
    assert "classification: NoExternalExplosions" in capsys.readouterr().out


def hug_file(tmp_path, **extra):
    """A hand-built flow on circle(6) whose candidate analyzes as Unknown."""
    c = spm.circle(6)
    succ = {"e:0": ["e:0"], "e:1": ["e:2"], "e:2": ["e:3"],
            "e:3": ["e:4"], "e:4": ["e:5"], "e:5": ["e:4"]}
    body = flm.CombinatorialFlow(c, succ, name="hug").to_json()
    body["k"] = ["e:0"]
    body.update(extra)
    path = tmp_path / "hug.json"
    path.write_text(json.dumps(body))
    return path


def test_refine_unavailable_leaves_note(tmp_path):
    # a hand-built flow with no recipe cannot refine, so the Unknown
    # verdict stays open and says so
    out = tmp_path / "rep.json"
    assert cli.main(["analyze", str(hug_file(tmp_path)), "--refine", "2",
                     "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classification"] == "Unknown"
    assert any("refinement unavailable" in n for n in data["notes"])


def test_a_flow_is_named_as_its_entry(tmp_path, capsys):
    # a nameless file's flow is named after the file stem, as its entry is
    path = hug_file(tmp_path)
    assert "name" not in json.loads(path.read_text())
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.startswith("flow: hug\n")
    assert cli.main(["plot", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["flow"] == "hug"
    assert ffm.load_file(str(path), "other")["flow"].name == "other"
    # the file's own name comes before the stem
    assert cli.main(["analyze", str(hug_file(tmp_path, name="loop")),
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["flow"] == "loop"


def test_analyze_text_shows_witness_notes_and_refinements(
        tmp_path, monkeypatch, capsys):
    head = ("classification: %s\nglobal attractor: yes\n"
            "components: r = %d homoclinic, s = 1 total\n")
    assert cli.main(["analyze", str(hug_file(tmp_path)), "--refine", "1"]) \
        == 0
    assert capsys.readouterr().out == (
        "flow: hug\n" + head % ("Unknown", 0)
        + "cells: k 1, stabilization 3, basin 6, unstable manifold 1\n"
        "note: enclosures leave the collar but no out-of-collar cycle was "
        "certified; refine and retry\n"
        "note: refinement unavailable, verdict stays open\n")
    rep = catalog.analysis(catalog.build("homoclinic-sphere"))
    assert cli.main(["analyze", "homoclinic-sphere"]) == 0
    assert capsys.readouterr().out.endswith(
        "\nwitness: %s via cycle of %d cells\n"
        % (rep.witness, len(rep.witness_cycle)))
    # the coarse entry is made to come back Unknown, the finer one settles
    coarse = catalog.build("example22-circle")
    real_analyze = attractor.analyze

    def analyze(flow, k):
        rep = real_analyze(flow, k)
        if flow.meta["recipe"]["resolution"] == coarse["resolution"]:
            rep.classification = "Unknown"
        return rep

    monkeypatch.setattr(attractor, "analyze", analyze)
    assert cli.main(["analyze", "example22-circle", "--refine", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("flow: example22-circle\n"
                          + head % ("NoExternalExplosions", 1))
    assert out.endswith("\nrefinements used: 1\n")


def test_plot_lists_every_cell_of_a_loaded_file_in_the_side_strip(
        tmp_path, capsys):
    from conleylab import blocks, svgplot
    # a loaded complex carries no grid, so each top cell gets a strip line
    # of text and an SVG label, and the block's cells are outlined there
    path = tmp_path / "circle.json"
    assert cli.main(["construct", "example22-circle", "--out", str(path)]) \
        == 0
    entry = ffm.load_file(str(path))
    report = attractor.analyze(entry["flow"], entry["k"])
    roles = svgplot.cell_roles(report)
    tops = sorted(entry["flow"].tops)
    assert cli.main(["plot", str(path), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    letters = {"k": "K", "homoclinic": "H", "uniform": "U"}
    assert lines[:-1] == ["%s %s" % (letters[roles[c]], c) for c in tops]
    assert lines[-1].startswith("legend: ")
    assert cli.main(["plot", str(path), "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    labels = re.findall(r'<text [^>]*font-size="11"[^>]*>([^<]*)</text>', svg)
    assert labels == tops
    block = blocks.build_block(entry["flow"], entry["k"])
    outlined = re.findall(r'stroke="#000000"[^>]*><title>(.*?): \w+</title>',
                          svg)
    assert outlined == sorted(block.n) and block.n < entry["flow"].tops


def test_refine_never_swaps_in_the_recipe_flow(tmp_path):
    # a file is analysed as it stands: the recipe it names is provenance,
    # not a flow to refine into
    path = hug_file(tmp_path, recipe={"name": "example22-circle",
                                      "resolution": 6})
    out = tmp_path / "rep.json"
    assert cli.main(["analyze", str(path), "--refine", "1",
                     "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classification"] == "Unknown"
    assert data["refinements"] == 0
    assert any("refinement unavailable" in n for n in data["notes"])


def test_catalog_target_refines(tmp_path, monkeypatch):
    # the coarse entry is made to come back Unknown; the entry rebuilt at
    # twice its resolution settles it, and plot draws that same flow
    from conleylab import attractor, blocks
    coarse = catalog.build("example22-torus")
    real_analyze, real_block = attractor.analyze, blocks.build_block

    def resolution(flow):
        return flow.meta["recipe"]["resolution"]

    def analyze(flow, k):
        rep = real_analyze(flow, k)
        if resolution(flow) == coarse["resolution"]:
            rep.classification = "Unknown"
        return rep

    drawn = []

    def build_block(flow, k):
        drawn.append(resolution(flow))
        return real_block(flow, k)

    monkeypatch.setattr(attractor, "analyze", analyze)
    monkeypatch.setattr(blocks, "build_block", build_block)
    out = tmp_path / "rep.json"
    assert cli.main(["analyze", "catalog:example22-torus", "--refine", "1",
                     "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["refinements"] == 1
    assert data["classification"] == "NoExternalExplosions"
    assert len(data["k"]) == 2 * len(coarse["k"])
    assert cli.main(["plot", "catalog:example22-torus", "--refine", "1",
                     "--format", "svg",
                     "--out", str(tmp_path / "plot.svg")]) == 0
    assert drawn == [2 * coarse["resolution"]]


def test_external_catalog_file_keeps_its_ring(tmp_path, monkeypatch, capsys):
    path = tmp_path / "myklein.json"
    assert cli.main(["construct", "example22-klein", "--out", str(path)]) == 0
    assert cli.main(["homology", str(path)]) == 0
    by_path = capsys.readouterr().out
    assert "over z2" in by_path
    monkeypatch.setenv("CONLEYLAB_CATALOG", str(tmp_path))
    assert cli.main(["homology", "catalog:myklein"]) == 0
    assert capsys.readouterr().out == by_path


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (["analyze", "north-south", "--ring", "z2"],
                 ["plot", "north-south", "--ring", "z2"],
                 ["verify", "--ring", "z2"],
                 ["homology", "torus", "--refine", "1"]):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_cli_loads_only_the_layers_its_command_runs(tmp_path):
    entry = catalog.build("example22-torus")
    body = entry["flow"].to_json()
    body["k"] = entry["k"]
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(body))
    # a file with no candidate fails without compiling the catalog
    nok = tmp_path / "nok.json"
    nok.write_text(json.dumps(entry["flow"].to_json()))
    # the modules loaded, then the builders any of them defines
    script = ("import sys\n"
              "from conleylab import cli\n"
              "rc = cli.main(sys.argv[1:])\n"
              "mods = [m for m in sys.modules if m.startswith('conleylab.')]\n"
              "print(' '.join(mods))\n"
              "print(' '.join(b for b in ('torus', 'mapping_torus',"
              " 'connected_sum') for m in mods"
              " if hasattr(sys.modules[m], b)))\n"
              "sys.exit(rc)\n")
    out = str(tmp_path / "out.json")

    def run(args, rc):
        proc = subprocess.run(
            [sys.executable, "-c", script] + args
            + ["--format", "json", "--out", out],
            capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == rc, proc.stderr
        mods, builders = proc.stdout.split("\n")[:2]
        return {m[len("conleylab."):] for m in mods.split()}, builders

    for args, layer, rc in (
            (["analyze", str(path)], "attractor", 0),
            (["analyze", str(nok)], "attractor", 1),
            (["homology", str(path), "--ring", "z2"], "algebra", 0),
            (["homology", str(path)], "algebra", 0)):
        loaded, builders = run(args, rc)
        assert loaded == {"cli", "complexes", "flow", "flowfile", layer}, args
        # a file command compiles no builder
        assert builders == "", args
    # a bare space name builds its space without the catalog
    loaded, builders = run(["homology", "torus", "--resolution", "4"], 0)
    assert loaded == {"cli", "complexes", "flow", "spaces", "algebra"}
    assert "torus" in builders.split()


def test_only_a_command_that_reads_a_file_imports_the_reader(tmp_path):
    # verify, construct and a bare space name read no flow file, so they
    # never compile the reader; a file command imports it
    path = tmp_path / "circle.json"
    assert cli.main(["construct", "example22-circle", "--out",
                     str(path)]) == 0
    script = ("import sys\n"
              "from conleylab import cli\n"
              "rc = cli.main(sys.argv[1:])\n"
              "print('conleylab.flowfile' in sys.modules)\n"
              "sys.exit(rc)\n")
    for args, reads in (
            (["verify", "--only", "ex3.5"], False),
            (["construct", "example22-torus"], False),
            (["homology", "torus"], False),
            (["analyze", str(path)], True)):
        proc = subprocess.run(
            [sys.executable, "-c", script] + args
            + ["--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout == "%s\n" % reads, args


def test_public_names_resolve_on_first_use():
    listed = dir(conleylab)
    for name in conleylab.__all__:
        assert getattr(conleylab, name) is not None, name
        assert name in listed, name
    assert conleylab.analyze is conleylab.attractor.analyze
    with pytest.raises(AttributeError):
        conleylab.no_such_name


def test_main_leaves_the_collector_as_it_found_it(monkeypatch, capsys):
    inside = []
    real_analyze = cli.cmd_analyze

    def cmd_analyze(args):
        inside.append(gc.isenabled())
        return real_analyze(args)

    monkeypatch.setattr(cli, "cmd_analyze", cmd_analyze)
    was = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            # a success and an error[...] exit
            assert cli.main(["analyze", "north-south"]) == 0
            assert gc.isenabled() is state
            assert cli.main(["analyze", "rest-torus"]) == 1
            assert gc.isenabled() is state
            # only the process entry freezes
            assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False] * 4
    assert "error[no-candidate]" in capsys.readouterr().err


def run_console_script():
    """What the installed `conleylab` console script runs: the function
    pyproject.toml names, its return value the exit code."""
    root = pathlib.Path(conleylab.__file__).parents[2]
    text = (root / "pyproject.toml").read_text()
    target = re.search(r'^conleylab = "([\w.]+):(\w+)"$', text, re.M)
    return "from %s import %s as entry\nsys.exit(entry())\n" % target.groups()


# what `python -m conleylab.cli` runs
RUN_MODULE = ("import runpy\n"
              "runpy.run_module('conleylab.cli', run_name='__main__', "
              "alter_sys=True)\n")


@pytest.mark.parametrize("entry", ["module", "console-script"])
def test_a_process_exits_with_its_objects_frozen(entry):
    # both process entries freeze what the command leaves, so the
    # collection at interpreter exit walks nothing; the exit code and the
    # output are main's. An atexit hook, registered before the command
    # runs, prints how many objects are frozen as the interpreter exits.
    script = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print(gc.get_freeze_count()))\n"
              + (RUN_MODULE if entry == "module" else run_console_script()))
    for args, rc in ((["analyze", "north-south"], 0),
                     (["analyze", "rest-torus"], 1)):
        proc = subprocess.run(
            [sys.executable, "-c", script] + args,
            capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == rc, proc.stderr
        *report, frozen = proc.stdout.splitlines()
        assert int(frozen) > 0, proc.stdout
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(args) == rc
        assert report == out.getvalue().splitlines()


def test_a_cycle_a_command_leaves_is_finalized_before_exit():
    # the process entry collects the young generation before it freezes:
    # a cycle that holds a file, left by the paused command, is finalized
    # and -X dev reports the unclosed file, before the atexit hooks run
    script = ("import atexit, os, sys\n"
              "from conleylab import cli\n"
              "class Held:\n"
              "    def __del__(self):\n"
              "        print('finalized')\n"
              "def cmd_verify(args):\n"
              "    held = Held()\n"
              "    held.me = held\n"
              "    held.fh = open(os.devnull)\n"
              "    return 0\n"
              "cli.cmd_verify = cmd_verify\n"
              "atexit.register(print, 'exit')\n" + run_console_script())
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", script, "verify"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "finalized\nexit\n"
    assert "ResourceWarning: unclosed file" in proc.stderr, proc.stderr


def cyclic_garbage(argv):
    """Objects the cyclic collector finds unreachable after one command
    run with it off."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return gc.collect()
    finally:
        if was:
            gc.enable()


def test_a_command_leaves_cycles_that_do_not_grow_with_its_input(tmp_path):
    # the command runs with the collector paused, which is safe only while
    # the cycles it leaves behind stay bounded by the parser, not the input
    argvs = [["verify", "--only", "jduality"]]
    for res in (8, 16):
        entry = catalog.build("example22-torus", res)
        body = dict(entry["flow"].to_json(), k=entry["k"])
        path = tmp_path / ("torus%d.json" % res)
        path.write_text(json.dumps(body))
        argvs += [["analyze", str(path)], ["homology", str(path)]]
    for argv in argvs:
        cyclic_garbage(argv)  # imports and caches fill on the first run
    counts = {tuple(argv): cyclic_garbage(argv) for argv in argvs}
    assert len(set(counts.values())) == 1, counts
