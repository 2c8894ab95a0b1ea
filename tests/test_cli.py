"""Command line interface: exit codes, payload shapes, file round trips."""

import argparse
import copy
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    excursion_to_obj,
    glued_upper_bound,
    load_space,
    mm_space,
    pc_excursion,
    sample_mm_space,
    save_excursion,
    save_space,
    space_to_obj,
    tent,
)
from mmdist.cli import main
from mmdist.prohorov import CommonSpaceMeasures, prohorov
from mmdist.spaces import dumps_json

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sample_file(capsys, tmp_path, seed="3", name="space.json"):
    path = tmp_path / name
    code, _, _ = run(capsys, "sample", "--seed", seed, "--out", str(path))
    assert code == 0
    return path


def test_sample_writes_a_valid_deterministic_space(capsys, tmp_path):
    p1 = sample_file(capsys, tmp_path, name="a.json")
    p2 = sample_file(capsys, tmp_path, name="b.json")
    assert p1.read_text() == p2.read_text()
    space = load_space(p1)
    assert space.n >= 1


def test_validate_good_file(capsys, tmp_path):
    path = sample_file(capsys, tmp_path)
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "mmspace/1"
    assert payload["valid"] is True
    assert payload["violations"] == []
    code, out, _ = run(capsys, "validate", "--in", str(path), "--raw")
    assert code == 0
    assert out.strip() == "true"


def test_validate_reports_violations_with_exit_zero(capsys, tmp_path):
    bad = {
        "format": "mmspace/1",
        "labels": ["a", "b"],
        "dist": [["0", "1"], ["1", "0"]],
        "weights": ["3/4", "1/2"],
    }
    path = tmp_path / "bad.json"
    path.write_text(dumps_json(bad))
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"] != []


def test_validate_detects_excursion_files(capsys, tmp_path):
    path = tmp_path / "h.json"
    save_excursion(path, tent())
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "excursion/1"
    assert payload["valid"] is True


def test_missing_file_is_a_domain_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--in", str(tmp_path / "nope.json"))
    assert code == 1
    assert out == ""
    assert err != ""


def test_malformed_json_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--in", str(path))
    assert code == 1
    assert "line" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "dist", "gp", "--a")[0] == 2
    assert run(capsys)[0] == 2


def test_a_command_builds_only_its_own_parser(capsys, tmp_path, monkeypatch):
    path = str(sample_file(capsys, tmp_path))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, "dist", "prohorov", "--a", path, "--b", path, "--raw")
    assert (code, out) == (0, "0\n")
    assert built == ["mmdist dist prohorov"]
    assert run(capsys, "dist", "-h")[0] == 0  # group help still comes from the whole tree


def test_canonicalize_round_trips_through_the_cli(capsys, tmp_path):
    path = sample_file(capsys, tmp_path)
    out_path = tmp_path / "canon.json"
    code, _, _ = run(capsys, "canonicalize", "--in", str(path), "--out", str(out_path))
    assert code == 0
    space = load_space(out_path)
    code, out, _ = run(capsys, "validate", "--in", str(out_path))
    assert code == 0 and json.loads(out)["valid"] is True
    assert space.n >= 1


def test_dist_gp_payload_and_raw(capsys, tmp_path):
    a = sample_file(capsys, tmp_path, seed="3", name="a.json")
    b = sample_file(capsys, tmp_path, seed="17", name="b.json")
    code, out, err = run(capsys, "dist", "gp", "--a", str(a), "--b", str(b))
    assert code == 0
    payload = json.loads(out)
    assert payload["rounding"] == "round-half-even-12"
    assert payload["exact"] is True
    value = F(payload["value"])
    assert F(payload["box_half"]) == 2 * value
    assert payload["decimal"].count(".") == 1
    code, raw_out, _ = run(capsys, "dist", "gp", "--a", str(a), "--b", str(b), "--raw")
    assert code == 0
    assert F(raw_out.strip()) == value
    code, out, _ = run(
        capsys, "dist", "gp", "--a", str(a), "--b", str(b), "--witness"
    )
    pairs = json.loads(out)["pairs"]
    assert isinstance(pairs, list) and pairs


def test_dist_gp_float_mode(capsys, tmp_path):
    a = sample_file(capsys, tmp_path, seed="3", name="a.json")
    b = sample_file(capsys, tmp_path, seed="17", name="b.json")
    code, out, _ = run(capsys, "dist", "gp", "--a", str(a), "--b", str(b), "--float")
    payload = json.loads(out)
    assert code == 0
    assert payload["rounding"] == "ieee-754-double"
    assert isinstance(payload["value"], float)
    assert "decimal" not in payload


def test_dist_box_needs_lambda(capsys, tmp_path):
    a = sample_file(capsys, tmp_path, seed="3", name="a.json")
    b = sample_file(capsys, tmp_path, seed="17", name="b.json")
    assert run(capsys, "dist", "box", "--a", str(a), "--b", str(b))[0] == 2
    code, out, _ = run(
        capsys, "dist", "box", "--a", str(a), "--b", str(b), "--lambda", "1/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == "1/2"
    box_half = F(payload["value"])
    code, out, _ = run(capsys, "dist", "gp", "--a", str(a), "--b", str(b))
    assert F(json.loads(out)["value"]) == box_half / 2


def test_dist_prohorov_requires_a_shared_space(capsys, tmp_path):
    a = sample_file(capsys, tmp_path, seed="3", name="a.json")
    b = sample_file(capsys, tmp_path, seed="17", name="b.json")
    code, _, err = run(capsys, "dist", "prohorov", "--a", str(a), "--b", str(b))
    assert code == 1
    assert "prohorov" in err
    # Same labels and distances, different weights: the intended input.
    space = load_space(a)
    twin = tmp_path / "twin.json"
    if space.n == 1:
        a = sample_file(capsys, tmp_path, seed="5", name="a.json")
        space = load_space(a)
    weights = list(space.weights)
    weights[0], weights[-1] = weights[-1], weights[0]
    save_space(twin, type(space)(space.labels, space.dist, tuple(weights)))
    code, out, _ = run(capsys, "dist", "prohorov", "--a", str(a), "--b", str(twin))
    assert code == 0
    payload = json.loads(out)
    expected = prohorov(CommonSpaceMeasures(space.dist, space.weights, tuple(weights)))
    assert F(payload["value"]) == expected


def test_dist_dh_on_an_excursion_file(capsys, tmp_path):
    path = tmp_path / "tent.json"
    save_excursion(path, tent())
    code, out, _ = run(
        capsys, "dist", "dh", "--in", str(path), "--s", "1/4", "--t", "5/8"
    )
    assert code == 0
    assert F(json.loads(out)["value"]) == F(1, 4)


def test_dist_excursion_reports_certified_interval(capsys, tmp_path):
    path = tmp_path / "tent.json"
    save_excursion(path, tent())
    shrunk = tmp_path / "shrunk.json"
    from mmdist import pl_excursion

    save_excursion(shrunk, pl_excursion((0, F(1, 2), 1), (0, F(9, 10), 0)))
    code, out, _ = run(capsys, "dist", "excursion", "--a", str(path), "--b", str(shrunk))
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert F(payload["lambda"]) == F(1, 11)
    lo, hi = F(payload["lo"]), F(payload["hi"])
    assert lo <= F(payload["value"]) <= hi
    assert hi - lo <= F(1, 10**8)
    gamma = payload["gamma"]
    assert F(gamma["lo"]) <= F(gamma["value"]) <= F(gamma["hi"])


def test_code_excursion_output_reloads_as_a_space(capsys, tmp_path):
    path = tmp_path / "tent.json"
    save_excursion(path, tent())
    out_path = tmp_path / "coded.json"
    code, _, _ = run(
        capsys,
        "code-excursion",
        "--in",
        str(path),
        "--resolution",
        "1/16",
        "--out",
        str(out_path),
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["format"] == "mmspace/1"
    assert "projection" in obj and "resolution_bound" in obj
    space = load_space(out_path)
    assert space.n >= 2


def test_glue_search_and_explicit_glue(capsys, tmp_path):
    a = sample_file(capsys, tmp_path, seed="3", name="a.json")
    b = sample_file(capsys, tmp_path, seed="17", name="b.json")
    code, out, _ = run(capsys, "glue", "--a", str(a), "--b", str(b))
    assert code == 0
    payload = json.loads(out)
    value = F(payload["value"])
    assert payload["source"] in ("full", "clique")
    assert payload["exact"] is True
    code, gp_out, _ = run(capsys, "dist", "gp", "--a", str(a), "--b", str(b))
    assert value == F(json.loads(gp_out)["value"])
    code, out2, _ = run(
        capsys,
        "glue",
        "--a",
        str(a),
        "--b",
        str(b),
        "--pairs",
        json.dumps(payload["pairs"]),
        "--eps",
        payload["eps"],
        "--check",
    )
    assert code == 0
    explicit = json.loads(out2)
    assert F(explicit["value"]) == value
    assert explicit["eps"] == payload["eps"]
    assert explicit["triangle_violations"] == []
    # One of pairs/eps alone is a domain error.
    assert run(capsys, "glue", "--a", str(a), "--b", str(b), "--eps", "1")[0] == 1


def test_searches_past_the_budget(capsys, tmp_path):
    # 19 points a side make 64 980 cell pairs, past the default budget of
    # 60 000 work units, so gp's search gives up before any bucket and `glue`
    # glues its heuristic incumbent, a certified bound
    n = 19
    dist = [[0 if i == j else 1 if 0 in (i, j) else 2 for j in range(n)] for i in range(n)]
    star = str(tmp_path / "star.json")
    save_space(star, mm_space([f"s{i}" for i in range(n)], dist, [F(1, n)] * n))
    code, out, _ = run(capsys, "glue", "--a", star, "--b", star)
    payload = json.loads(out)
    assert (code, payload["exact"], payload["value"]) == (0, False, "0")
    # gp and box degrade to a certified bound too
    a = str(sample_file(capsys, tmp_path, seed="3", name="a.json"))
    b = str(sample_file(capsys, tmp_path, seed="17", name="b.json"))
    for argv in (["gp"], ["box", "--lambda", "1/2"]):
        code, out, _ = run(capsys, "dist", *argv, "--a", a, "--b", b)
        exact = json.loads(out)
        code, out, _ = run(capsys, "dist", *argv, "--a", a, "--b", b, "--budget", "5")
        degraded = json.loads(out)
        assert code == 0 and exact["exact"] and not degraded["exact"]
        assert F(degraded["value"]) >= F(exact["value"])
    # and so does the glue, which --budget does not reach from the CLI
    gp = F(json.loads(run(capsys, "dist", "gp", "--a", a, "--b", b)[1])["value"])
    glue = glued_upper_bound(load_space(a), load_space(b), budget=5)
    assert not glue.exact and glue.value >= gp


def test_experiment_passes_and_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, _, err = run(
        capsys,
        "experiment",
        "counterexample",
        "--n-list",
        "2,3",
        "--out",
        str(out_path),
        "--csv",
        str(csv_path),
    )
    assert code == 0
    assert "counterexample" in err
    report = json.loads(out_path.read_text())
    assert report["totals"]["passed"] is True
    assert csv_path.read_text().startswith("checks.")


# sha256 of the report bytes; a change to any report byte must fail here and
# be explained, not only be caught when two reruns of one build disagree.
# continuity, lipschitz and theorem-check were retaken when the default cell
# cap went from 20 to 64: `params.cap` changed in all three, and lipschitz
# instances random-004 and random-022 gained an exact gp (and its ratio).
# All four were retaken when one search budget replaced the cell cap and the
# clique guard: only `params` changed (`cap` and counterexample's
# `clique_limit` became `budget`; continuity, which runs no search, lost it).
# theorem-check was retaken when its glue became the one of gp's witness:
# only `glue_eps` changed, in random-014, -054 and -055 (0 -> 1/8, 0 -> 1/12,
# 7/48 -> 3/16), the glue values staying equal to gp
PINNED_REPORTS = {
    "continuity": "6d537abbc954a5aeae4a4c08af22d469bebb6d0549311a78dcef02dd6393798f",
    "counterexample": "112a3bb9da97ae61a05f7c26451cba54168493bf9d0ad3c73cc4a6c53eb45409",
    "lipschitz": "4e079c6197079e0cbfd5205a722ea07fcaf90f67259c883a2a332e92960e996f",
    "theorem-check --seed 1 --count 60": "bf44726cf26cecfe9bdc8900df7434c4ed3cd2291b976c7498f5ce9ef96112f2",
}


@pytest.mark.parametrize("args", sorted(PINNED_REPORTS))
def test_experiment_report_bytes_are_pinned(capsys, tmp_path, args):
    path = tmp_path / "report.json"
    assert main(["experiment", *args.split(), "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_REPORTS[args]


# sha256 of `mmdist glue` stdout on two sampled pairs. The witnesses and
# values were first pinned when the glue evaluation still ran on Fractions;
# the pins were retaken only for the evaluation counts when the seeded
# random glues were removed (69 -> 37 and 74 -> 42), and when the search gave
# way to one glue of gp's witness (the `"evaluations": 37` and `42` lines
# became `"exact": true`; value, eps, pairs and source stayed)
PINNED_GLUES = {
    "3 17 --n-max 5": "ea1d323135e9e1c49b3014934bd66b187a476a0a0ba0b7bb99ae22e1fdfa4421",
    "5 11 --n-max 4": "7278985dc59ecfc208bef8a5bdb8f3bdff9402445697648b227bf34203f9ff87",
}


@pytest.mark.parametrize("pair", sorted(PINNED_GLUES))
def test_glue_output_bytes_are_pinned(capsys, tmp_path, pair):
    seed_a, seed_b, *n_max = pair.split()
    paths = []
    for seed in (seed_a, seed_b):
        paths.append(str(tmp_path / f"{seed}.json"))
        assert main(["sample", "--seed", seed, *n_max, "--out", paths[-1]]) == 0
    code, out, _ = run(capsys, "glue", "--a", paths[0], "--b", paths[1])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_GLUES[pair]


# sha256 of exit code, stdout and stderr for usage texts: bare and `-h`
# calls, unknown names, each command with no flags (where it has required
# ones) and each command with a flag it does not read, at an 80-column
# terminal; a leaner parser must keep every byte
PINNED_USAGE = {
    "": "81fc48b2082456d50242449df45430863e0e8ca1be7f75789b5549e4d516f66a",
    "-h": "126b7aa5c1b74538bd7d74276d732f46b8f3d8c9872083d84831c26a74a114b0",
    "dist": "038ac07bfb054bbdfe35232e88a223e93f8ae1f382e554fe3dca60436b142390",
    "dist -h": "e383986ea132b75241fd003e728eea3e25d6d021660e9f0b21172a56778b2add",
    "experiment": "1de30c2db40783b3ccf008e3902a06d415eaf20679917c8a979d446a17b9e683",
    "experiment -h": "f0b39a94f5021e0416915710032c1cf681a4f98876f62cc94bd98b60210db1df",
    "no-such-command": "eb18056fd2cf6c4c92be19d43f6db19766499290facb90185fa1025ed8cf7e06",
    "dist no-such-distance": "c128fc8a8cbde2a17b164027a6e59f10cb819baf3649e6e560fbdb7ef5005967",
    "experiment no-such-name": "7495bbdbec3ec4ef5030063553f4f725dd15d88435839d1ca6b01adb18946a24",
    "validate -h": "1dc3a09f27ed1ae0c217d872e3e2dcf96b0c7b82d85249d1c15ad736120fe6f9",
    "validate": "8d0093c40082e95a010bb38d8a5f83b7a15b2d76cf3d5e3184c157f53cffbe67",
    "validate --in x --no-such-flag": "3221135cb49d6ec7024c4c05743e0e305bdb37a0aa0234c9eda20ff783e49640",
    "canonicalize -h": "1cc38aed78a740cb35b5160b408a157b7552e41084910de99928b4452a30dab2",
    "canonicalize": "bce17d1abcd73ccc3ce5cc8ab956e033f757697133fe6ae4e5ed8ffa5d8e1629",
    "canonicalize --in x --no-such-flag": "e1fb41e2f16cec56ea609062fbd90ddf50ef7bf71a9c2f8daddc66076b9494c0",
    "sample -h": "53fdd147a1989fdba05b35e44a69273b01cba46339933f620d310ec726e428f5",
    "sample --no-such-flag": "6c1cc2a25cf8d1c81241963d85b82cadb0a00e05217bc6b5535b501d07872f57",
    "dist prohorov -h": "fd0f4af7479fb82ac8b6fe2ec11225ecc2fbc05a4298c75d93fb773fc0827c38",
    "dist prohorov": "17e78593ab01354ff4c7fbd28addc5f0c1d54e8e1f4126653d0b23eccdb7a288",
    "dist prohorov --a x --b x --no-such-flag": "a60de1cd54f322d8a5323438a0f37faea2e67253258088c9afc6d6ca3207bfa8",
    "dist gp -h": "40700f03590b1611360d6eec8a8ae4545419dda3211c5d1a8186710007307e92",
    "dist gp": "16b763cd56648209ec5b502893bff2ce69f9378ad600352b160ecdc31ad8cf53",
    "dist gp --a x --b x --no-such-flag": "e6ed7c7c1a055fbfa80a27b2bccfe093715523fc3072f525dc98cafb43c53b53",
    "dist box -h": "1ae6e2b5b1f24d613af7ff820c6838734050c581cdb2be75e434303f30948c48",
    "dist box": "bd580cc6cad8eb3a84baabac17b94942e6dda7a72b6545980181a1d04328bb6c",
    "dist box --a x --b x --lambda 1 --no-such-flag": "5f360b6e3f7e3890662de5c6dd0db76cd1cd3f52817caa6fe31b66de81d8f60b",
    "dist excursion -h": "27d14352407bb4c9c4d85d76bc56fc9078869fff44a4ce07feaca301aca5f486",
    "dist excursion": "126b55c5b9be0c694b7ae31a1ce9f65ebbc099b5242e17d04153d09122675fc8",
    "dist excursion --a x --b x --no-such-flag": "b9edf24d4cad04e5c4349cebf05e5e60e69f15142fbe37166f6a7f4ae8f8f41e",
    "dist dh -h": "fbaaa8fd78c6b890f03661f2ac22c3ec5046eefb0923c7d67ae7538465f58f8f",
    "dist dh": "27d30c36cee578e4e3c14517554d042fbb66ab0941c7e3097d47da2efe7d7a9b",
    "dist dh --in x --s 0 --t 1 --no-such-flag": "ecabce7a1e63c577b972ae3e36699c453583620179615eae91c4b860d5da2a15",
    "code-excursion -h": "0848cdd9d8da6ae92cfe8d8fa92f232ed270aaf27728cd29d51f5d4a73c2b267",
    "code-excursion": "9d1558e6b15d22568f0865ca485dfe7c4d333f43d9e4941138a62f4841cf98b7",
    "code-excursion --in x --no-such-flag": "0fb7893ea881f5d643c4f47aa72e7299fcecef5ddbe551951721a2cfbf706835",
    "glue -h": "7e3c3a924b8465ba6f6b8e2369b54cece53b311b97d331498b2fda21fa759a3c",
    "glue": "dbd1234bb3a49061de4f8a1cc8e3562dd4e508f95268b6989f63819dc38cac07",
    "glue --a x --b x --no-such-flag": "d6034772eb8882e34ec79b8b36e13ef0c4af1a03aa4ee43caaf6ee1bc0cd774b",
    "experiment theorem-check -h": "06ec612b8121b371cc1299fc1c489adb46e72f9ca42f139b406167a974b1697d",
    "experiment theorem-check --no-such-flag": "9eabf3dc5be14615390510c9b346ac556ab700e96e5403c87e147d56f7423162",
    "experiment lipschitz -h": "14a9204ceb12b729be2dd2e3ac37f0d5d8c5476dd76a3abf52ac3a063c8ef30f",
    "experiment lipschitz --no-such-flag": "b6fc49c54a585ede2331fb754a44f2fb9deaa21dc525643d7f8215ba7e8d19e0",
    "experiment counterexample -h": "433a0930cb2ddd42e80184cba6e355c009f60c03e6a39d709c0a6092b89d9605",
    "experiment counterexample --no-such-flag": "e99a8f667178e67285eeec07139498a9b5ea8830255083709960e0de73c1d523",
    "experiment continuity -h": "8e79a87ec450f4bfcab9d9b05588bf2008d1b7280363cd8b11e7ee8354d0e7a1",
    "experiment continuity --no-such-flag": "1b5e04ae3eb395f8e5d1aae5382f20c8041e11d61dd1d1b78fe52fe797e34c5b",
}


@pytest.mark.parametrize("argv", sorted(PINNED_USAGE))
def test_usage_texts_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv.split())
    assert code == (0 if "-h" in argv.split() else 2)
    digest = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
    assert digest == PINNED_USAGE[argv]


GOOD_DOC = {
    "format": "mmspace/1",
    "labels": ["a", "b"],
    "dist": [["0", "1"], ["1", "0"]],
    "weights": ["1/2", "1/2"],
}
# one digit past the interpreter's limit on int strings (4300 by default)
HUGE_INT = "1" * 5001
MALFORMED_DOCS = {
    "letter": ({"dist": [["0", "x"], ["1", "0"]]}, 'dist[0][1]: invalid literal "x"'),
    "zero denominator": ({"dist": [["0", "1"], ["1/0", "0"]]}, 'dist[1][0]: invalid literal "1/0"'),
    "nan": ({"weights": ["NaN", "1/2"]}, 'weights[0]: invalid literal "NaN"'),
    # JSON's Infinity loads as a float, which has no exact value
    "infinity": ({"weights": [math.inf, "1/2"]}, "weights[0]: invalid literal Infinity"),
    "string for rows": ({"dist": "oops"}, 'dist: expected a list, got "oops"'),
    "int for rows": ({"dist": 5}, "dist: expected a list, got 5"),
    # the test writes HUGE_INT as a bare JSON int literal
    "huge int": ({"weights": ["HUGE_INT", "1/2"]}, f'weights[0]: invalid literal "{HUGE_INT}"'),
    "huge exponent": ({"weights": ["1e5000", "1/2"]}, 'weights[0]: invalid literal "1e5000"'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
def test_malformed_space_documents_name_the_json_path(capsys, tmp_path, case):
    fields, message = MALFORMED_DOCS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GOOD_DOC, **fields}).replace('"HUGE_INT"', HUGE_INT))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_DOC))
    code, out, _ = run(capsys, "validate", "--in", str(bad))
    assert code == 0
    assert json.loads(out) == {"format": "mmspace/1", "valid": False, "violations": [message]}
    for argv in (
        ["canonicalize", "--in", bad],
        ["dist", "gp", "--a", bad, "--b", good],
        ["dist", "prohorov", "--a", good, "--b", bad],
        ["glue", "--a", bad, "--b", good],
    ):
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out) == (1, "")
        assert err.endswith(f": {message}\n") and err.count("\n") == 1


GOOD_EXCURSION = {
    "format": "excursion/1",
    "kind": "pl",
    "breakpoints": ["0", "1/2", "1"],
    "values": ["0", "1", "0"],
}
MALFORMED_EXCURSIONS = {
    "letter": ({"values": ["0", "x", "0"]}, 'values[1]: invalid literal "x"'),
    "zero denominator": ({"values": ["0", "1/0", "0"]}, 'values[1]: invalid literal "1/0"'),
    "string for breakpoints": ({"breakpoints": "oops"}, 'breakpoints: expected a list, got "oops"'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_EXCURSIONS))
def test_malformed_excursion_documents_name_the_json_path(capsys, tmp_path, case):
    fields, message = MALFORMED_EXCURSIONS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GOOD_EXCURSION, **fields}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_EXCURSION))
    code, out, _ = run(capsys, "validate", "--in", str(bad))
    assert code == 0
    assert json.loads(out) == {"format": "excursion/1", "valid": False, "violations": [message]}
    for argv in (
        ["dist", "dh", "--in", bad, "--s", "0", "--t", "1"],
        ["dist", "excursion", "--a", good, "--b", bad],
        ["code-excursion", "--in", bad],
        ["canonicalize", "--in", bad],
    ):
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out) == (1, "")
        assert err.endswith(f": {message}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["glue", "--pairs", "[[0]]", "--eps", "1"], "--pairs: expected"),
        (["glue", "--pairs", f"[[0, {HUGE_INT}]]", "--eps", "1"], "--pairs: expected"),
        (["glue", "--pairs", "[[0, 0]]", "--eps", "1e5000"], '--eps: invalid literal "1e5000"'),
        (["experiment", "counterexample", "--n-list", "2,x"], "--n-list: expected"),
        (
            ["experiment", "counterexample", "--n-list", "2,2"],
            "mmdist experiment counterexample: need at least two distinct tooth counts, got 2",
        ),
        (["experiment", "theorem-check", "--count", "-1"], "count must be at least 0"),
        (["experiment", "lipschitz", "--count", "-1"], "count must be at least 0"),
        (["sample", "--n-max", "-2"], "mmdist sample: n_max must be at least 1"),
        (
            ["experiment", "theorem-check", "--n-max", "-3"],
            "mmdist experiment theorem-check: n_max must be at least 1",
        ),
        (["dist", "excursion", "--gamma-tol", "-1"], "--gamma-tol: expected a nonnegative"),
        (["dist", "excursion", "--gamma-tol", ""], '--gamma-tol: invalid literal ""'),
        (["dist", "excursion", "--budget", "-1"], "--budget: expected a nonnegative"),
        (["dist", "gp", "--budget", "-1"], "--budget: expected a nonnegative integer, got -1"),
        (["dist", "box", "--lambda", "1/2", "--budget", "-1"], "--budget: expected a nonnegative"),
    ],
    ids=[
        "glue-pairs",
        "glue-pairs-huge-int",
        "glue-eps-huge-exponent",
        "n-list",
        "n-list-one-count",
        "negative-count",
        "lipschitz-count",
        "sample-n-max",
        "theorem-check-n-max",
        "gamma-tol",
        "gamma-tol-empty",
        "gamma-budget",
        "gp-budget",
        "box-budget",
    ],
)
def test_bad_argv_values_exit_one_with_one_line(capsys, tmp_path, argv, message):
    if argv[:2] == ["dist", "excursion"]:
        path = tmp_path / "tent.json"
        save_excursion(path, tent())
    elif argv[0] in ("glue", "dist"):
        path = sample_file(capsys, tmp_path)
    if argv[0] in ("glue", "dist"):
        words = 2 if argv[0] == "dist" else 1
        argv = argv[:words] + ["--a", str(path), "--b", str(path)] + argv[words:]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert message in err and err.count("\n") == 1


def test_threads_env_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("MMSPACE_THREADS", "abc")
    code, out, _ = run(capsys, "experiment", "theorem-check", "--count", "2")
    assert code == 0
    assert json.loads(out)["totals"]["instances"] == 3


@pytest.mark.parametrize(
    "argv, unread",
    [
        ("validate --in {path}", "--seed 1"),
        ("canonicalize --in {path}", "--float"),
        ("dist gp --a {path} --b {path}", "--threads 2"),
        ("experiment theorem-check", "--rational"),
        ("experiment counterexample", "--count 3"),
        ("sample", "--raw"),
        ("glue --a {path} --b {path}", "--budget 3"),
        ("glue --a {path} --b {path}", "--seed 3"),
    ],
    ids=[
        "validate-seed",
        "canonicalize-float",
        "gp-threads",
        "theorem-check-rational",
        "counterexample-count",
        "sample-raw",
        "glue-budget",
        "glue-seed",
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, tmp_path, argv, unread):
    path = sample_file(capsys, tmp_path)
    code, out, err = run(capsys, *argv.format(path=path).split(), *unread.split())
    assert (code, out) == (2, "")
    command = " ".join(takewhile(lambda word: not word.startswith("-"), argv.split()))
    assert err.startswith(f"usage: mmdist {command} [-h]")
    assert f"mmdist {command}: error: unrecognized arguments: {unread}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["theorem-check", "lipschitz"])
def test_experiment_count_zero_runs_one_instance(capsys, name):
    code, out, _ = run(capsys, "experiment", name, "--count", "0")
    assert code == 0
    assert json.loads(out)["totals"]["instances"] == 1


def test_stdout_carries_only_the_payload(capsys, tmp_path):
    path = sample_file(capsys, tmp_path)
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert code == 0
    json.loads(out)  # parses as a whole
    assert "s" in err  # human timing line mentions seconds


# ---------------------------------------------------------------------------
# property: a mutated document never ends in a traceback

LITERALS = ("0", "1", "-1", "1/2", "1/0", "0.25", "x", "", " 3/4 ", "NaN", "Infinity", "1e3")
# the documents' own field names, so an added key can shadow a real one
KEYS = (
    "format", "labels", "dist", "weights", "kind", "breakpoints", "values", "breakpoint_values"
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(LITERALS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=2),
    max_leaves=6,
)
SEED_DOCUMENTS = {
    "mmspace": space_to_obj(sample_mm_space(3)),
    "excursion": excursion_to_obj(pc_excursion((0, "1/3", 1), ("1/2", 2), (0, "1/4", 2))),
}
# each command reads the mutated document as FILE; OTHER is a valid space
FUZZED_COMMANDS = {
    "mmspace": ("validate --in FILE", "canonicalize --in FILE", "dist gp --a FILE --b OTHER"),
    "excursion": (
        "validate --in FILE",
        "canonicalize --in FILE",
        "dist dh --in FILE --s 1/4 --t 3/4",
        "code-excursion --in FILE",
    ),
}


def slots(node):
    """Every (container, key) pair of a JSON tree."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from slots(node[key])


@st.composite
def mutated_documents(draw):
    kind = draw(st.sampled_from(sorted(SEED_DOCUMENTS)))
    doc = copy.deepcopy(SEED_DOCUMENTS[kind])
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(list(slots(doc))))
        action = draw(st.sampled_from(("literal", "replace", "delete", "add")))
        if action == "literal":
            node[key] = draw(st.sampled_from(LITERALS))
        elif action == "replace":
            node[key] = draw(json_values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = draw(json_values)
        else:
            node.append(draw(json_values))
    return kind, doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_space(path / "other.json", sample_mm_space(5))
    return path


@settings(max_examples=80)
@given(mutated_documents(), st.data())
def test_mutated_documents_exit_zero_or_one(fuzz_dir, kind_doc, data):
    kind, doc = kind_doc
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    command = data.draw(st.sampled_from(FUZZED_COMMANDS[kind]))
    argv = command.replace("FILE", str(path)).replace("OTHER", str(fuzz_dir / "other.json"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.split())
    assert code in (0, 1), (argv, doc, err.getvalue())


@pytest.mark.parametrize(
    "argv, message",
    [
        ("validate --in {dir}", "validate: is a directory: {dir}"),
        ("dist gp --a {dir} --b {space}", "dist gp: is a directory: {dir}"),
        ("dist gp --a {space} --b {dir}", "dist gp: is a directory: {dir}"),
        ("experiment continuity --h {dir}", "experiment continuity: is a directory: {dir}"),
        ("validate --in {bad}", "validate: not UTF-8 text (invalid start byte): {bad}"),
        ("dist gp --a {bad} --b {space}", "dist gp: not UTF-8 text (invalid start byte): {bad}"),
        (
            "dist excursion --a {tent} --b {bad}",
            "dist excursion: not UTF-8 text (invalid start byte): {bad}",
        ),
        ("sample --out {dir}/missing/x.json", "sample: no such file: {dir}/missing/x.json"),
        ("sample --out {dir}", "sample: is a directory: {dir}"),
        (
            "experiment counterexample --n-list 2,3 --csv {dir}",
            "experiment counterexample: is a directory: {dir}",
        ),
    ],
    ids=[
        "validate-dir",
        "gp-a-dir",
        "gp-b-dir",
        "continuity-h-dir",
        "validate-non-utf8",
        "gp-non-utf8",
        "excursion-non-utf8",
        "out-missing-dir",
        "out-dir",
        "csv-dir",
    ],
)
def test_file_errors_exit_one_naming_the_path(capsys, tmp_path, argv, message):
    paths = {
        "dir": tmp_path,
        "space": sample_file(capsys, tmp_path),
        "bad": tmp_path / "bad.json",
        "tent": tmp_path / "tent.json",
    }
    paths["bad"].write_bytes(b"\xff\xfe{")
    save_excursion(paths["tent"], tent())
    code, out, err = run(capsys, *argv.format(**paths).split())
    assert (code, out) == (1, "")
    assert err == f"mmdist {message.format(**paths)}\n"


# ---------------------------------------------------------------------------
# property: any flag value from a small pool of bad ones ends in exit 0/1/2

# every command with the flags it takes; an experiment's first flag sets its
# size and is always given, so that no drawn run is a full default experiment
ARGV_COMMANDS = {
    "validate": ("--in", "--raw"),
    "canonicalize": ("--in",),
    "sample": ("--seed", "--n-max"),
    "dist prohorov": ("--a", "--b", "--raw", "--float"),
    "dist gp": ("--a", "--b", "--budget", "--witness", "--raw", "--float"),
    "dist box": ("--a", "--b", "--lambda", "--budget", "--witness"),
    "dist excursion": ("--a", "--b", "--gamma-tol", "--budget", "--raw"),
    "dist dh": ("--in", "--s", "--t", "--float"),
    "code-excursion": ("--in", "--resolution"),
    "glue": ("--a", "--b", "--pairs", "--eps", "--check", "--raw"),
    "experiment theorem-check": ("--count", "--seed", "--n-max", "--csv"),
    "experiment lipschitz": ("--count", "--seed", "--csv"),
    "experiment counterexample": ("--n-list", "--csv"),
    "experiment continuity": ("--schedule", "--seed", "--h", "--csv"),
}
SWITCHES = ("--raw", "--float", "--witness", "--check")
# SPACE and EXCURSION are valid files, DIR a directory, MISSING a path that
# does not exist and NONUTF8 a file that is not UTF-8 text
ARGV_VALUES = ("SPACE", "EXCURSION", "DIR", "MISSING", "NONUTF8", "-1", "x", "1e5000")


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_COMMANDS)))
    flags = ARGV_COMMANDS[command] + ("--out",)
    drawn = draw(st.lists(st.sampled_from(flags), unique=True))
    if command.startswith("experiment") and flags[0] not in drawn:
        drawn.insert(0, flags[0])
    argv = command.split()
    for flag in drawn:
        argv.append(flag)
        if flag not in SWITCHES:
            argv.append(draw(st.sampled_from(ARGV_VALUES)))
    return argv


@settings(max_examples=80)
@given(fuzzed_argv())
def test_fuzzed_argv_exits_zero_one_or_two(fuzz_dir, argv):
    files = {
        "SPACE": fuzz_dir / "space.json",
        "EXCURSION": fuzz_dir / "excursion.json",
        "DIR": fuzz_dir,
        "MISSING": fuzz_dir / "missing" / "x.json",
        "NONUTF8": fuzz_dir / "bad.json",
    }
    # rewritten each run, since --out may have overwritten them
    save_space(files["SPACE"], sample_mm_space(3))
    files["EXCURSION"].write_text(json.dumps(SEED_DOCUMENTS["excursion"]))
    files["NONUTF8"].write_bytes(b"\xff\xfe{")
    argv = [str(files.get(word, word)) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # a bare --out or --csv value such as x is written here
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
