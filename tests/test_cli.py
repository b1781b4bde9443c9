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
from isingtree import correspondence as co
from isingtree.cli import EXPORT_TARGETS, main
from isingtree.generators import cycle


def test_generate_then_verify_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    assert main(["generate", "cycle", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "identities hold" in out
    assert out.count("[ok  ]") == 11
    assert "FAIL" not in out


def test_generate_rejects_degenerate_cycle(capsys):
    assert main(["generate", "cycle", "2"]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_verify_json_format(capsys):
    assert main(["verify", "--generator", "cycle:3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert {c["name"] for c in data["checks"]} >= {
        "main-theorem[spin-route]", "main-theorem[determinant-route]"}


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
# ones were re-recorded when the outer face's vertex left the centroid.
EXPORT_DIGESTS = {
    ("grid:3,3", "primal"):
        "6426296d733a695284de3e72713ccda47a929301a936c51e625859d0eace6469",
    ("grid:3,3", "dual"):
        "4ea548761c43f9528dd85246dbf583e12362d189422cef3f7502a6cbd315ee4e",
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
    ("rhombic:3,3,1/6", "primal"):
        "1f558a9788f2a03e12657641346ea52b1b4d49aca11066ca5c07780826fd287d",
    ("rhombic:3,3,1/6", "dual"):
        "d369e61fb465f79999a97026ad1e5d8e86cb3d2a048fd7b16b0b41ea67e5f577",
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
# length between pivot candidates stopped going to any larger modulus: only
# the last digits of det K, the corner-tree determinants and their rel_err
# moved (below 1e-15 relative); every sum, flag and constant kept its bytes.
VERIFY_DIGESTS = {
    "cycle:3":
        "81fbaacdd3207a74a8e8e8410d9d88de39377a1b943a03822dc0e042481fa58d",
    "cycle:6":
        "2532bf195dcf8c43ce238b825a89593aa98028d7195a6b45369df5252195c0cc",
    "cycle:7":
        "0f4d45663e7f0e79b8f76ab8bc91040f279bbf08e009f6c522d2a8c6d28e3ef3",
    "grid:2,3":
        "2e3d7ca12c819b8bfe87c9a8cfe42bc7156d7a7e72ac7bd4ee86f9359d8a7aca",
    "rhombic:2,4,1/6":
        "a6a0d1cbda382367493cc05cbc930496bd411bb537c5fa53c60d361faeace5b9",
}


@pytest.mark.parametrize("generator", sorted(VERIFY_DIGESTS))
def test_verify_json_matches_golden_digest(generator, capsys):
    assert main(["verify", "--generator", generator, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[generator]


@pytest.mark.parametrize("generator", ["cycle:4", "grid:2,3"])
def test_commands_build_no_rotation_table(generator, monkeypatch, capsys):
    # generated inputs and every derived graph are numbered from the darts;
    # a keyed rotation-table build left on any command path fails here
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
    assert main(["verify", "--generator", generator]) == 0
    assert "FAIL" not in capsys.readouterr().out


# the builders Chain calls, in the order verify reads them
STAGES = ("validate_isoradial", "boundary_angles", "quadri_tiling",
          "build_kasteleyn", "build_G0", "build_G", "extended_double",
          "double_weights", "extended_pair", "tree_weights_tau")
# export kind -> the builders behind what it writes
BEHIND = {"primal": (), "dual": ("dual_map",), "quad": ("quad_graph",),
          "quadri_tiling": ("quadri_tiling",),
          "extended_double": ("extended_double",),
          "G0": STAGES[:5], "G": STAGES[:6]}
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
