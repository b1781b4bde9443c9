"""Command-line interface, driven through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import isingtree
from conftest import folded_grid, off_center_triangle
from isingtree import correspondence as co
from isingtree.cli import EXPORT_TARGETS, _skipped_text, main
from isingtree.generators import cycle
from isingtree.report import Skip
from isingtree.serialize import dumps_map


def test_generate_then_verify_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    assert main(["generate", "cycle", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "identities hold" in out
    assert out.count("[ok  ]") == 15
    assert out.endswith("15/15 identities hold, 0 routes skipped\n")
    assert "FAIL" not in out


def test_verify_an_off_center_face_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(dumps_map(off_center_triangle()))
    assert main(["verify", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    # it names the face and the cause, not only the symptom
    assert err == "error: face 1 does not contain its circumcenter\n"


def test_verify_an_off_center_face_inside_the_graph_is_one_error_line(
        tmp_path, capsys):
    path = tmp_path / "folded.json"
    path.write_text(dumps_map(folded_grid()))
    assert main(["verify", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: face 10 does not contain its circumcenter\n"


def test_generate_rejects_degenerate_cycle(capsys):
    assert main(["generate", "cycle", "2"]) == 1
    assert "error:" in capsys.readouterr().err


# numbers past float range (the rhombic angle) or past index range (a grid
# side): each is one error line, not a traceback
OVERFLOWING_SPECS = {
    "verify-rhombic-1e400": ["verify", "--generator", "rhombic:2,2,1e400"],
    "generate-rhombic-1e400": ["generate", "rhombic", "2", "2", "1e400"],
    "verify-grid-past-index-range": [
        "verify", "--generator", "grid:2,99999999999999999999999"],
}


@pytest.mark.parametrize("argv", OVERFLOWING_SPECS.values(),
                         ids=OVERFLOWING_SPECS)
def test_overflowing_generator_numbers_fail_cleanly(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad parameters for ")
    assert captured.err.count("\n") == 1


def test_generate_rejects_unknown_name(capsys):
    assert main(["generate", "banana", "3"]) == 1
    assert "unknown generator" in capsys.readouterr().err


def test_verify_inline_generator(capsys):
    assert main(["verify", "--generator", "grid:3,3"]) == 0
    assert "identities hold" in capsys.readouterr().out


def test_verify_fails_at_impossible_tolerance(capsys):
    assert main(["verify", "--generator", "cycle:3",
                 "--tolerance", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "abc"])
def test_verify_rejects_a_tolerance_that_cannot_fail_or_pass(tol, capsys):
    # inf would pass every identity of C4 and nan or -1 none of them
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--generator", "cycle:4", "--tolerance", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tolerance: expected a finite number >= 0, not %r" % tol in err


def test_verify_json_format(capsys):
    assert main(["verify", "--generator", "cycle:3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert {c["name"] for c in data["checks"]} >= {
        "main-theorem[spin-route]", "main-theorem[determinant-route]"}


def test_verify_json_is_strict_past_float_overflow(capsys):
    # on grid 20x20, 2^V |Z_tree-pairs| is about 10^317: the Kac-Ward value
    # and the unit corner-tree count overflow, and each non-finite value is
    # written as null, never as the NaN or Infinity RFC 8259 forbids
    def refuse(token):
        raise ValueError("%s is not JSON" % token)

    assert main(["verify", "--generator", "grid:20,20", "--format",
                 "json"]) == 1
    rep = json.loads(capsys.readouterr().out, parse_constant=refuse)
    failed = [c for c in rep["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["squared-ising[critical]",
                                           "main-theorem[spin-route]"]
    assert all(c["rel_err"] is None and c["lhs"]["re"] is None
               for c in failed)
    assert [s["count"] for s in rep["skipped"]
            if s["route"] == "corner-trees"] == [None]


def test_skipped_counts_past_float_range_keep_the_g_form():
    # 2^1100 spins and 1.8e308 matchings cannot become floats: each is
    # rounded from its digits to what '%.3g' writes, as a count below float
    # range and a nan count from an overflowed determinant are
    why = "predicted count exceeds the cap"
    skipped = [Skip("spins", 2 ** 1100, 2 ** 24, why),
               Skip("matchings[double]", 18 * 10 ** 307, 10 ** 7, why),
               Skip("tree-pairs", 2 ** 1023, 10 ** 7, why),
               Skip("corner-trees", float("nan"), 50000, why)]
    assert _skipped_text(skipped) == (
        " (spins 1.36e+331 > 16777216, matchings[double] 1.8e+308 > 10000000,"
        " tree-pairs 8.99e+307 > 10000000, corner-trees nan > 50000)")


def test_verify_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--generator", "cycle:4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert "constants" in data


def test_verify_alternate_root(capsys):
    m, _ = cycle(3)
    alt = max(m.outer_orbit)
    assert main(["verify", "--generator", "cycle:3",
                 "--root-s", str(alt)]) == 0


def test_verify_interior_root_is_an_error(capsys):
    m, _ = cycle(3)
    bad = next(d for d in range(6) if not m.is_outer_dart(d))
    assert main(["verify", "--generator", "cycle:3",
                 "--root-s", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_isoradial_input_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "c4.json"
    main(["generate", "cycle", "4", "--out", str(path)])
    data = json.loads(path.read_text())
    for v in data["vertices"]:
        v["x"] *= 1.4
        v["y"] *= 1.4
    del data["angles"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    assert main(["verify", "--input", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_shapeless_json_input_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "broke.json"
    path.write_text('{"not": "a map"}')
    assert main(["verify", "--input", str(path)]) == 1
    assert "malformed graph document" in capsys.readouterr().err
    # a vertex that no dart reaches
    main(["generate", "cycle", "3", "--out", str(path)])
    data = json.loads(path.read_text())
    data["vertices"].append(dict(data["vertices"][0], id=3))
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: more vertices than sigma orbits\n"


def test_zero_denominator_angle_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "c4.json"
    main(["generate", "cycle", "4", "--out", str(path)])
    data = json.loads(path.read_text())
    data["angles"]["0"]["pi_rational"] = "1/0"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: malformed graph document: ")


def _edit(change):
    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return edit


def _angle_key(key):
    return _edit(lambda d: d["angles"].update({key: d["angles"]["0"]}))


# C4 documents that loads_map must turn into MapError
MALFORMED = {
    "angle-key-999": _angle_key("999"),
    "angle-key-minus-1": _angle_key("-1"),
    "not-json": lambda text: text[:len(text) // 2],
    "too-deep": lambda text: "[" * 100000,
    "angles-list": _edit(lambda d: d.update(angles=[])),
    "angle-not-object": _edit(lambda d: d.update(angles={"0": 5})),
    "tag-list": _edit(lambda d: d["vertices"][0].update(tag=[1])),
    "tag-object": _edit(lambda d: d["vertices"][0].update(tag={"a": 1})),
    "x-true": _edit(lambda d: d["vertices"][0].update(x=True)),
    "vertex-float": _edit(lambda d: d["darts"][0].update(vertex=0.0)),
    "pi-rational-true": _edit(
        lambda d: d["angles"]["0"].update(pi_rational=True)),
    "pi-rational-huge": _edit(
        lambda d: d["angles"]["0"].update(pi_rational="1e400")),
    "pi-rational-half": _edit(
        lambda d: d["angles"]["0"].update(pi_rational="1/2")),
    "id-float": _edit(lambda d: d["darts"][0].update(id=0.0)),
    "next-float": _edit(lambda d: d["darts"][0].update(
        next=float(d["darts"][0]["next"]))),
    "outer-face-float": _edit(
        lambda d: d.update(outer_face=float(d["outer_face"]))),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_fails_cleanly(edit, tmp_path, capsys):
    path = tmp_path / "c4.json"
    main(["generate", "cycle", "4", "--out", str(path)])
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    for command in (["verify"], ["export", "primal"]):
        assert main(command + ["--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_export_is_deterministic(capsys):
    assert main(["export", "extended_double", "--generator", "cycle:4",
                 "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["export", "extended_double", "--generator", "cycle:4",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == first
    tags = {v["tag"] for v in json.loads(first)["vertices"]}
    assert tags == {"white", "black-primal", "black-dual"}


def test_export_primal_json_carries_angles(capsys):
    assert main(["export", "primal", "--generator", "cycle:3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["angles"]["0"]["pi_rational"] == "1/6"


def test_export_quadri_tiling_dot(capsys):
    assert main(["export", "quadri_tiling", "--generator", "cycle:4",
                 "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph")
    assert dot.count("shape=") == 16


def test_export_directed_stages(tmp_path, capsys):
    assert main(["export", "G0", "--generator", "cycle:3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {a["kind"] for a in data["arcs"]} == {"cos", "sin", "root"}
    assert main(["export", "G", "--generator", "cycle:3",
                 "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_verify_calls_in_one_process_share_no_options(capsys):
    assert main(["verify", "--generator", "cycle:4",
                 "--tolerance", "1e-300"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["verify", "--generator", "cycle:4"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_export_without_out_after_one_with_out_writes_stdout(tmp_path,
                                                             capsys):
    path = tmp_path / "g0.json"
    argv = ["export", "G0", "--generator", "cycle:4", "--format", "json"]
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == path.read_text()


def test_export_unknown_target_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["export", "octagon", "--generator", "cycle:3"])
    assert exc.value.code == 2


# sha256 of `export <kind> --format json`, recorded before the derived builds
# moved their outer face with PlanarMap.with_outer_dart instead of a second
# map_from_rotations call; any change to a derived map's numbering, outer
# face, coordinates, tags or keys changes these digests.  The dual and quad
# ones were re-recorded when the outer face's vertex left the centroid, and
# the dual ones again when grid and rhombic came to root their map at the
# outer face's least dart, which moves the dual's outer face.
EXPORT_DIGESTS = {
    ("grid:3,3", "primal"):
        "6426296d733a695284de3e72713ccda47a929301a936c51e625859d0eace6469",
    ("grid:3,3", "dual"):
        "64459e8bed392d859d566d096ed05cda47e9749cc4a7ac6344a9939e055b9385",
    ("grid:3,3", "quad"):
        "59a129d1c8d542ab4d2796bacfc05ad178e1543f5d188701bdfd673b214048b7",
    ("grid:3,3", "quadri_tiling"):
        "5eb22d78b71959139be8d1811ba10daefa6e5212a81e5044cc130bdbc2ca3786",
    ("grid:3,3", "extended_double"):
        "54f388e34885bab438f7868a598f7c0f776a4e00c74ff8c87a190bb029096da6",
    ("grid:3,3", "G0"):
        "9094ca47ef6c44e22ce400887b990daed8f9bbcf3b6307129eed255121b8432f",
    ("grid:3,3", "G"):
        "f623360268fae9e0f3fe435dbaf6e5c5189fed6c636abc72472e6a75d8d59567",
    # recorded from the hand-numbered cycle, before cycle called build_map
    ("cycle:5", "primal"):
        "c5fa504c294d683e779cde83b37832bdb9081224ddffb180b3cbf3369155315f",
    ("rhombic:3,3,1/6", "primal"):
        "1f558a9788f2a03e12657641346ea52b1b4d49aca11066ca5c07780826fd287d",
    ("rhombic:3,3,1/6", "dual"):
        "e645f955ee83924d57c8d2faa262062a187784f70a83ee05369ee86cef2b26f5",
    ("rhombic:3,3,1/6", "quad"):
        "5324fcad6d9647c3e5eb7bd531fc243f0360d24bebd0e72404bc263a35765d0f",
    ("rhombic:3,3,1/6", "quadri_tiling"):
        "5eb22d78b71959139be8d1811ba10daefa6e5212a81e5044cc130bdbc2ca3786",
    ("rhombic:3,3,1/6", "extended_double"):
        "54f388e34885bab438f7868a598f7c0f776a4e00c74ff8c87a190bb029096da6",
    ("rhombic:3,3,1/6", "G0"):
        "1c87e32fb12d81cbb3c037811f56dbaf40b88d14c73c0b9396859ebf75a94505",
    ("rhombic:3,3,1/6", "G"):
        "e18dfb3ebe677f4ae6655deb539901797319503a94b55b62f1ae9bfbdd76f5ad",
    # recorded under CPython 3.11; a compensated sum() (CPython 3.12 on) in
    # the boundary angles changed the root-arc digits of these two
    ("rhombic:6,6,1/6", "G0"):
        "d14721f450f21cf807f18074fc7fd53b1a751a0898158ae296d053828594310f",
    ("rhombic:6,6,1/6", "G"):
        "f6422132d8000bff1ee7d2adb9748c29a0bd0fa924f0f7ea1cd1ec2e65e06e69",
}


@pytest.mark.parametrize("generator,what", sorted(EXPORT_DIGESTS))
def test_export_json_matches_golden_digest(generator, what, capsys):
    assert main(["export", what, "--generator", generator,
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == EXPORT_DIGESTS[generator, what])


# sha256 of `export <kind> --format dot`, recorded before map_to_dot and
# digraph_to_dot wrote each line from one template; any change to a label,
# style, position or line order changes these digests (dual and quad
# re-recorded as above).
DOT_DIGESTS = {
    ("grid:3,3", "primal"):
        "667636dcac2049de5966e924c6a85ffc5aff1bac6b521f4c6e5ee99d51977dfd",
    ("grid:3,3", "dual"):
        "f24a87ca363bf2d9cc8aa3492a233039835bab5569e5d7e7e7168955c556287b",
    ("grid:3,3", "quad"):
        "63b010b249c618773fe0b06c8adad4ee8fd978a73a1e35da5eb697f51804105d",
    ("grid:3,3", "quadri_tiling"):
        "80fbf179a2951e50baa9c496bc79674f5fbebbf63613097bee99a121b0e5db55",
    ("grid:3,3", "extended_double"):
        "8384b0f80a32de2e2c06c5781884e6db44fc88905d6b80e7bf61e275a2e61252",
    ("grid:3,3", "G0"):
        "b1bf49f93aff6d54b42ae5c3a7bce727d89041832dc199b3dbfe64414552841a",
    ("grid:3,3", "G"):
        "6f0e5b57c86397b0b9f65f24169b71c64996005ffadf158f06c96d4f1abeca99",
    ("rhombic:3,3,1/6", "primal"):
        "cd7eab9c4d83ba8f552053a7f4f7afb139745bca184f3926cfd2a642e841e878",
    ("rhombic:3,3,1/6", "dual"):
        "58020e45d6be913df2e6d62bd69117e1c54681837ddb9159ee51ba62b878fbf7",
    ("rhombic:3,3,1/6", "quad"):
        "74afc5472e2b69eccc0d8252e55514251de1ce184d30fd0ab94c7b8eb7983b66",
    ("rhombic:3,3,1/6", "quadri_tiling"):
        "80fbf179a2951e50baa9c496bc79674f5fbebbf63613097bee99a121b0e5db55",
    ("rhombic:3,3,1/6", "extended_double"):
        "8384b0f80a32de2e2c06c5781884e6db44fc88905d6b80e7bf61e275a2e61252",
    ("rhombic:3,3,1/6", "G0"):
        "b1bf49f93aff6d54b42ae5c3a7bce727d89041832dc199b3dbfe64414552841a",
    ("rhombic:3,3,1/6", "G"):
        "6f0e5b57c86397b0b9f65f24169b71c64996005ffadf158f06c96d4f1abeca99",
}


@pytest.mark.parametrize("generator,what", sorted(DOT_DIGESTS))
def test_export_dot_matches_golden_digest(generator, what, capsys):
    assert main(["export", what, "--generator", generator,
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == DOT_DIGESTS[generator, what])


# sha256 of every `export` the benchmark writes, on its two graphs: the
# seven kinds as JSON and the five maps as DOT.  Recorded before the
# Kasteleyn matrix and its phases were computed from the primal darts, the
# corner graphs came to share one key tuple per node, and the JSON writers
# filled each record list with one `%`; those changes keep every byte.
BENCH_EXPORT_DIGESTS = {
    ("grid:20,20", "primal", "json"):
        "63d7d41093dee4cb25999eeace2324c9cb8309f6098d07da70d800359dab9089",
    ("grid:20,20", "dual", "json"):
        "ad89f261701d755b0775451aa22f04edaec1321b1df392236f947443b9e2f479",
    ("grid:20,20", "quad", "json"):
        "5cb42ddc94a5698f531b4a2790cca2792d8347594873a7e09ac699cb59ed2640",
    ("grid:20,20", "quadri_tiling", "json"):
        "6b7a57ad9dd9f49661112aeedba7b6223530098af77d58eba715ad99ff093c03",
    ("grid:20,20", "extended_double", "json"):
        "78539753ad36883b72a37eabc828c4c1f2714fc9f7162ba1ac4f06bdadb097cf",
    ("grid:20,20", "G0", "json"):
        "fc50dcb7c439e26ba1f633584e5abe099a291c85fd67e8c6c43775137a13627d",
    ("grid:20,20", "G", "json"):
        "034ebec0c0240a54f1b560c173ddd669eb720a9876fae9c7f4deb3b8745490c8",
    ("grid:20,20", "primal", "dot"):
        "8a99e5e7e930dab5226d036bb7fd5e47759be861ecb84770d5774ef786fa03f6",
    ("grid:20,20", "dual", "dot"):
        "affeee464b68065430933b963b791113cc30c955d6c5901c770a46fab3013219",
    ("grid:20,20", "quad", "dot"):
        "8d07bc516a33d1771f614c0595a86cfbbde50a8d7172fd44288dfdb6bf4209b7",
    ("grid:20,20", "quadri_tiling", "dot"):
        "da451fbdef6f2b8aeb5137285651049d44816e4db75e80fc25cd2643ad0dd2d7",
    ("grid:20,20", "extended_double", "dot"):
        "fd224b04ee8f259090aa2fe59f58839d83ff4fc43c0b3c6cd9dc186a9c8b1a75",
    ("rhombic:6,6,1/5", "primal", "json"):
        "8b34f18e87ae91ce8d3f16bcf6bb8188aa48ee8c88da9eac22e9ee8cb63ea2bb",
    ("rhombic:6,6,1/5", "dual", "json"):
        "9b245562ec01a53beef9c33ff0edbd14ad56796c12e8a3aa1db1f6c5cc87863a",
    ("rhombic:6,6,1/5", "quad", "json"):
        "788006aecfe30852f133676ba4e0a281a644fb7d3086af8044891b6c655487ee",
    ("rhombic:6,6,1/5", "quadri_tiling", "json"):
        "1c158066642a9650cd31331c05c7de5aa5962b0e0b9fc456850733a05b7828fb",
    ("rhombic:6,6,1/5", "extended_double", "json"):
        "a00330aa98bb0ea23ed00b54eb2a61ffcff4ea6a4baebe0f02a22b6c9f60ac14",
    ("rhombic:6,6,1/5", "G0", "json"):
        "65f65b268fcb76f07721dce341217d47864607a2e641168a0948603fbb4b645b",
    ("rhombic:6,6,1/5", "G", "json"):
        "29a6db708aa920b47e4f25d44653742b1d84554f4c6bda9d7e36285f19b7a525",
    ("rhombic:6,6,1/5", "primal", "dot"):
        "c754d9a402a0a20f3867fc6c69af907a239fbf048feb025841ec12b5dff092f6",
    ("rhombic:6,6,1/5", "dual", "dot"):
        "b48904b3358fff1593daa78e2c9894839a010433d393a656919c6a64b97e4ada",
    ("rhombic:6,6,1/5", "quad", "dot"):
        "758ac7b7bf20f181f8fb45f80ce678d547de0c6f6af2bf5908c12e0ecf05c431",
    ("rhombic:6,6,1/5", "quadri_tiling", "dot"):
        "ad87dcd3dca3d261719260615630e0f4fade37cd14456042ee1165fad8f5fdce",
    ("rhombic:6,6,1/5", "extended_double", "dot"):
        "296311d291c34d6fcafa65d7bfa940a5df2418e28ede2fa7975c8479c2808318",
}


@pytest.mark.parametrize("generator,what,fmt", sorted(BENCH_EXPORT_DIGESTS))
def test_benchmark_exports_match_golden_digest(generator, what, fmt, capsys):
    assert main(["export", what, "--generator", generator,
                 "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == BENCH_EXPORT_DIGESTS[generator, what, fmt])


# sha256 of `export <kind> --input <generate grid 3 3> --format <fmt>`,
# recorded while a map read from JSON still had no labels: its vertices and
# edges are labelled by id (the primal and dual DOT), and the maps derived
# from it carry their own keys, so these equal the --generator digests but
# for the primal and dual DOT (and, until grid rooted its map at the outer
# face's least dart, the dual JSON).
INPUT_DIGESTS = {
    ("primal", "json"):
        "6426296d733a695284de3e72713ccda47a929301a936c51e625859d0eace6469",
    ("primal", "dot"):
        "75dd2c25b04b5d61580dd11ef7e881111bbd414fa5d2b34379fae7215ee81f56",
    ("dual", "json"):
        "64459e8bed392d859d566d096ed05cda47e9749cc4a7ac6344a9939e055b9385",
    ("dual", "dot"):
        "66c88bb5fe509ed2f2772f342ddf99b3fdefda0538a576ff847a4702a6364dd1",
    ("quad", "json"):
        "59a129d1c8d542ab4d2796bacfc05ad178e1543f5d188701bdfd673b214048b7",
    ("quad", "dot"):
        "63b010b249c618773fe0b06c8adad4ee8fd978a73a1e35da5eb697f51804105d",
    ("quadri_tiling", "json"):
        "5eb22d78b71959139be8d1811ba10daefa6e5212a81e5044cc130bdbc2ca3786",
    ("quadri_tiling", "dot"):
        "80fbf179a2951e50baa9c496bc79674f5fbebbf63613097bee99a121b0e5db55",
    ("extended_double", "json"):
        "54f388e34885bab438f7868a598f7c0f776a4e00c74ff8c87a190bb029096da6",
    ("extended_double", "dot"):
        "8384b0f80a32de2e2c06c5781884e6db44fc88905d6b80e7bf61e275a2e61252",
    ("G0", "json"):
        "9094ca47ef6c44e22ce400887b990daed8f9bbcf3b6307129eed255121b8432f",
    ("G0", "dot"):
        "b1bf49f93aff6d54b42ae5c3a7bce727d89041832dc199b3dbfe64414552841a",
    ("G", "json"):
        "f623360268fae9e0f3fe435dbaf6e5c5189fed6c636abc72472e6a75d8d59567",
    ("G", "dot"):
        "6f0e5b57c86397b0b9f65f24169b71c64996005ffadf158f06c96d4f1abeca99",
}


@pytest.mark.parametrize("what,fmt", sorted(INPUT_DIGESTS))
def test_export_from_input_matches_golden_digest(what, fmt, tmp_path, capsys):
    path = tmp_path / "grid33.json"
    assert main(["generate", "grid", "3", "3", "--out", str(path)]) == 0
    assert main(["export", what, "--input", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INPUT_DIGESTS[what, fmt]


@pytest.mark.parametrize("spec", ["cycle:5", "grid:3,3", "rhombic:3,3,1/6",
                                  "rhombic:6,6,1/5"])
def test_every_json_export_is_the_same_from_the_generated_file(spec, tmp_path,
                                                               capsys):
    # the generators root each map at its outer face's least dart, the dart
    # a JSON load roots it at, so no derived map's outer face depends on the
    # source
    name, _, params = spec.partition(":")
    path = tmp_path / "graph.json"
    assert main(["generate", name, *params.split(","),
                 "--out", str(path)]) == 0
    for kind in ("primal", "dual", "quad", "quadri_tiling", "extended_double",
                 "G0", "G"):
        assert main(["export", kind, "--generator", spec,
                     "--format", "json"]) == 0
        direct = capsys.readouterr().out
        assert main(["export", kind, "--input", str(path),
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == direct, kind


@pytest.mark.parametrize("spec", ["cycle:5", "grid:2,3", "grid:3,3",
                                  "rhombic:2,4,1/5"])
def test_verify_report_is_the_same_from_the_generated_file(spec, tmp_path,
                                                           capsys):
    # a generated map carries the generator's labels and the file read back
    # carries none: no label reaches the report
    name, _, params = spec.partition(":")
    path = tmp_path / "graph.json"
    assert main(["generate", name, *params.split(","),
                 "--out", str(path)]) == 0
    assert main(["verify", "--generator", spec, "--format", "json"]) == 0
    keyed = capsys.readouterr().out
    assert main(["verify", "--input", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == keyed


def test_verify_json_does_not_depend_on_hash_seed():
    # The tree-pair sum multiplies arc weights in the order it orients its
    # tree; an order taken from a set of string keys would make the report's
    # last digits follow PYTHONHASHSEED (seeds 0 and 1 differ on this graph).
    src = str(Path(isingtree.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "isingtree.cli", "verify", "--generator",
             "rhombic:2,4,1/6", "--format", "json"],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# sha256 of `verify --generator G --format json` with the default s,
# recorded from the recursive enumerations and the dict-based tree
# orientation; the flat loops must visit and multiply in the same order, so
# every digit of every sum stays the same.  Re-recorded when a tie in row
# length between pivot candidates stopped going to any larger modulus (only
# the last digits of det K, the corner-tree determinants and their rel_err
# moved), and again when the polynomial routes came in: reports gained the
# agreement checks and the skipped list, and every check and constant they
# had before kept its bytes.  Grid 4x4 declines every brute-force route but
# the spins, so its digest pins the polynomial values.  Re-recorded once
# more when the weight products moved onto the search stacks: the dimer
# sums multiply in search order instead of edge order and the tree pairs
# come from the oriented-tree search, so the last digits of those sums (and
# of the checks that read them) moved; names, pass flags, skipped routes
# and constants did not.  Re-recorded again, with the same fields moving,
# when the dimer sums became a dynamic program over matched-vertex sets and
# the tree-pair sum came to be added by math.fsum.  Grid 5x5 (2^25 spins)
# declines every brute-force route, spins included, so its digest pins the
# 2^V prefactors on a graph with no spin sum.  Its digest was re-recorded
# when the spin cap merged into the state cap: the spins skip's cap field
# moved from 16777216 to 10000000, and nothing else.  C3, C6 and grid 2x3
# were re-recorded when the oriented-tree search came to take the nodes
# fewest out-arcs first: the corner trees are added in that search order,
# so the last digits of the corner-tree enumeration sum and of its check's
# rel_err moved, and nothing else.
# C6, C7, grid 2x3 and rhombic 2x4 at 1/6 were re-recorded when the
# tree-pair sum came to read each rim arc's direction off the primal tree
# and to multiply the rim factors in the root's rotation order: the last
# digits of the tree-pair sum moved, so only the rhs and rel_err of
# tree-pair-sum[...], matched-split-transfer[...] and, on grid 2x3,
# main-theorem[*] moved.  C3, grid 4x4 and grid 5x5 kept their digests.
# C3, C6 and grid 2x3 were re-recorded when the corner trees came to be
# added like the tree pairs, rounded once instead of one by one in search
# order: only the lhs and rel_err of corner-tree-enumeration-vs-det moved
# (rel_err 4.0e-16 -> 2.2e-16, 4.2e-15 -> 3.6e-16, 1.5e-14 -> 5.2e-16).
# C7, grid 4x4, grid 5x5 and rhombic 2x4 at 1/6 kept their digests.
VERIFY_DIGESTS = {
    "cycle:3":
        "ad5311cf5bd00ffbc0eece53cc073cda7034dab337f2979f814129ab39deac6a",
    "cycle:6":
        "043554b6455d75a61fb96256035fc62c2030ce6f5574f738e651651f36a83e73",
    "cycle:7":
        "4d1edc0b179f0ce62fbc0c73f48eac221a7cf4f21e2ef5d01868e86f864baf85",
    "grid:2,3":
        "62c3753db9a40062175e16b49d121ebea88c68c5fe7124f06f8a9c318f391602",
    "grid:4,4":
        "c3b7bc9c726fc9d972c664be25d095060be85a1dc7b017a6256428e008c3c52d",
    "grid:5,5":
        "92af49a1329d60ef651b5be50ac6343281c1e1f99eaca7a8e6e092e1e63d7454",
    "rhombic:2,4,1/6":
        "f359aa036c21fff1a6a62166622bf79a000e82522464cec8b94c24a409e7f5c0",
}


@pytest.mark.parametrize("generator", sorted(VERIFY_DIGESTS))
def test_verify_json_matches_golden_digest(generator, capsys):
    assert main(["verify", "--generator", generator, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[generator]


def test_verify_reads_no_environment(monkeypatch, capsys):
    # the caps are set in code: variables that once overrode them change
    # nothing in the report
    monkeypatch.setenv("ISINGTREE_STATE_CAP", "0")
    monkeypatch.setenv("ISINGTREE_SPIN_CAP", "0")
    assert main(["verify", "--generator", "cycle:3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS["cycle:3"]


def test_python_m_isingtree_runs_the_cli():
    src = str(Path(isingtree.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "isingtree", "verify", "--generator",
         "cycle:3", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_DIGESTS["cycle:3"]


@pytest.mark.parametrize("generator", ["grid:2,3"])
def test_commands_build_no_rotation_table(generator, monkeypatch):
    # a grid and the graphs exported from it are numbered from the darts; a
    # keyed rotation-table build on that export path fails here
    def refuse(*args, **kwargs):
        raise AssertionError("map_from_rotations called")

    for name, module in list(sys.modules.items()):
        if (name == "isingtree" or name.startswith("isingtree.")) \
                and hasattr(module, "map_from_rotations"):
            monkeypatch.setattr(module, "map_from_rotations", refuse)
    for what in EXPORT_TARGETS:
        for fmt in ("json", "dot"):
            assert main(["export", what, "--generator", generator,
                         "--format", fmt]) == 0


# the builders Chain calls, in the order verify reads them
STAGES = ("validate_isoradial", "boundary_angles", "quadri_tiling",
          "build_kasteleyn", "build_G0", "build_G", "extended_double",
          "double_weights", "extended_pair", "tree_weights_tau")
# the builders behind the corner graphs: K and its phases come from the
# primal darts, so no quadri-tiling is built for them
CORNER = tuple(s for s in STAGES[:6] if s != "quadri_tiling")
# export kind -> the builders behind what it writes
BEHIND = {"primal": (), "dual": ("dual_map",), "quad": ("quad_graph",),
          "quadri_tiling": ("quadri_tiling",),
          "extended_double": ("extended_double",),
          "G0": CORNER[:-1], "G": CORNER}
# command -> the builders it calls, each once
BUILDS = {"export %s --format %s" % (what, fmt): stages
          for what, stages in BEHIND.items() for fmt in ("json", "dot")}
BUILDS.update({"verify": STAGES, "export primal --format json": STAGES[:1]})


def test_commands_build_the_stages_they_read_once(monkeypatch, capsys):
    calls, wanted = Counter(), set()   # a stage not wanted raises

    def counted(name, build):
        def stage(*args, **kwargs):
            calls[name] += 1
            assert name in wanted, "%s built" % name
            return build(*args, **kwargs)
        return stage

    for name in STAGES + ("dual_map", "quad_graph"):
        monkeypatch.setattr(co, name, counted(name, getattr(co, name)))
    for command, stages in BUILDS.items():
        calls.clear()
        wanted = set(stages)
        assert main(command.split() + ["--generator", "grid:2,3"]) == 0
        assert calls == Counter(stages), command
