"""CLI: subcommands, module specs, JSON mode, exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

import oracle
from homlab.cli import main, parse_module
from homlab import linalg, parse_ring
from homlab.groebner import edeg

XY = "p=32003; vars x,y; ci: x*y"
SQ = "p=32003; vars x,y; ci: x^2, y^2"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_module_specs(tmp_path):
    ring = parse_ring(XY)
    assert parse_module("k", ring).name == "k"
    assert parse_module("ring", ring).twists == (0,)
    assert parse_module("free:0,2", ring).twists == (0, 2)
    cyc = parse_module("cyclic:x", ring)
    assert cyc.twists == (0,)
    rnd = parse_module("random:5", ring)
    assert rnd.twists == parse_module("random:5", ring).twists
    syz = parse_module("syzygy:1:k", ring)
    assert syz.twists == (1, 1)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cyc.to_json()))
    assert parse_module(f"@{path}", ring).twists == cyc.twists


@pytest.mark.parametrize("data", [{"relations": []}, [[0], ["x"]]],
                         ids=["no-twists", "json-list"])
def test_malformed_module_json_exit_one(data, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, _, err = run(["betti", "--ring", XY, "--module", f"@{path}"],
                       capsys)
    assert code == 1
    assert "twists" in err and "Traceback" not in err


def test_example_paper_exit_clean(capsys):
    code, out, _ = run(["example-paper"], capsys)
    assert code == 0
    assert "even-gap" in out


def test_betti_json(capsys):
    code, out, _ = run(
        ["--json", "betti", "--ring", SQ, "--module", "k", "--bound", "9"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["totals"] == [n + 1 for n in range(10)]


def test_tor_text(capsys):
    code, out, _ = run(
        ["tor", "--ring", XY, "--module", "cyclic:x",
         "--against", "cyclic:y", "--range", "0:4"],
        capsys,
    )
    assert code == 0
    assert "Tor: * 0 * 0 *" in out


def test_check_verified_exit_zero(capsys):
    code, out, _ = run(
        ["check", "t31", "--ring", XY, "--module", "cyclic:x",
         "--against", "ring", "--n", "1", "--q", "1"],
        capsys,
    )
    assert code == 0
    assert "verified" in out


def test_check_cond_json(capsys):
    # A/(x) is maximal Cohen-Macaulay over the Gorenstein ring A, so
    # Ext^i(A/(x), A) vanishes for i >= 1 and the condition is met
    code, out, _ = run(
        ["--json", "check", "cond", "--ring", XY, "--module", "cyclic:x",
         "--against", "ring", "--n", "1", "--gaps", "1"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["theorem"] == "COND" and data["status"] == "verified"
    assert data["inputs"]["indices"] == [1, 2]


def test_depth_cli(capsys):
    code, out, _ = run(["depth", "--ring", XY, "--module", "k"], capsys)
    assert code == 0
    assert out.strip() == "depth k = 0"
    code, out, _ = run(
        ["--json", "depth", "--ring", XY, "--module", "cyclic:x"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"module": "cyclic:x", "depth": 1}


def test_even_gap_is_usage_error(capsys):
    code, _, err = run(
        ["check", "t31", "--ring", XY, "--module", "cyclic:x",
         "--against", "cyclic:y", "--n", "2", "--q", "2"],
        capsys,
    )
    assert code == 1
    assert "even" in err


def test_unknown_command_exit_one(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1


def test_bad_ring_exit_one(capsys):
    code, _, err = run(["depth", "--ring", "gibberish", "--module", "k"],
                       capsys)
    assert code == 1


def test_resource_cap_exit_two(capsys):
    # an impossible complexity window forces the resource-cap path
    code, _, err = run(
        ["cx", "--ring", SQ, "--module", "k", "--bound", "3"], capsys
    )
    assert code == 2
    assert "resource" in err or "window" in err.lower() or err


def test_cell_cap_exit_two(capsys, monkeypatch):
    # a linear-algebra resolution step over the cell cap is a resource cap
    monkeypatch.setattr(linalg, "CELL_CAP", 4)
    code, _, err = run(
        ["resolve", "--ring", SQ, "--module", "k", "--bound", "3"], capsys
    )
    assert code == 2
    assert "cell cap" in err


def test_cx_json(capsys):
    code, out, _ = run(
        ["--json", "cx", "--ring", SQ, "--module", "k"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2 and data["confidence"] == "fitted"


def test_reduce_chain_cli(capsys):
    code, out, _ = run(
        ["reduce-chain", "--ring", XY, "--module", "cyclic:x"], capsys
    )
    assert code == 0
    assert "1 step" in out


# sha256 of the --json stdout.  The chain and syzygy digests were recorded
# before twisted and syzygy modules started from the resolution they are
# read off; the betti, tor, ext, cx and example-paper digests (outputs fed
# by graded-piece ranks) before elimination became sparse; the keta digests
# while eta was still built to level 12 for every power.
GOLDEN = [
    pytest.param(
        ["reduce-chain", "--ring", SQ, "--module", "random:3"],
        "a61678a7ba3687404d055ac5b70fe4e73883643ce603e5ba56c328a1ea04b686",
        id="reduce-chain-sq"),
    pytest.param(
        ["reduce-chain", "--ring", XY, "--module", "random:3"],
        "2ade4393129ed104c7ca5607ebd743e98c60daf31f83c888f07ad347b8ced7f9",
        id="reduce-chain-xy"),
    pytest.param(
        ["resolve", "--ring", SQ, "--module", "syzygy:2:random:5",
         "--bound", "8"],
        "96e963ad7b8ed43f76fc2356a8fc0e39b809fc4cb92079836fc231ee4e5465c7",
        id="resolve-syzygy-sq"),
    pytest.param(
        ["resolve", "--ring", XY, "--module", "syzygy:2:random:5",
         "--bound", "8"],
        "2ace4a64601c89dff5016abfe6c4385950b01c18b2ef8b4d3e0657f3412f4634",
        id="resolve-syzygy-xy"),
    pytest.param(
        ["betti", "--ring", SQ, "--module", "random:3", "--bound", "10"],
        "fb89755360f9a0caee1cc8162a8eba895d8c6ca43d3bb3517cc7884e9ae62617",
        id="betti-sq"),
    pytest.param(
        ["tor", "--ring", SQ, "--module", "random:3", "--against", "k",
         "--range", "0:6"],
        "bc873d1516103a7353888df672d3c0e97865f0dd1434b968af48429ca362d899",
        id="tor-sq"),
    pytest.param(
        ["tor", "--ring", XY, "--module", "random:3", "--against", "k",
         "--range", "0:6"],
        "66e302d6887f91e8794bd508c568bae2c2acb320f620ad39b7f06d2acf3a728e",
        id="tor-xy"),
    pytest.param(
        ["ext", "--ring", SQ, "--module", "random:3", "--against", "k",
         "--range", "0:6"],
        "e531a9ac3aa805343ec87e6b7c02beedbdca98a5fa8a15d5fbdf60072d0700a0",
        id="ext-sq"),
    pytest.param(
        ["ext", "--ring", XY, "--module", "random:3", "--against", "k",
         "--range", "0:6"],
        "5a43457f1d2297910ba802ededdba90fb03e6c3fbbd0893fdbb14b4b0417f69c",
        id="ext-xy"),
    pytest.param(
        ["cx", "--ring", SQ, "--module", "random:3"],
        "94da88c64196ab16645783ab1240ec494ab855d005afab2ce255300610cd12ba",
        id="cx-sq"),
    pytest.param(
        ["cx", "--ring", XY, "--module", "random:3"],
        "7af62eda352a4dd4e402810a4b8005a099e607a19ac8e4826ad3e6a40ce8382e",
        id="cx-xy"),
    pytest.param(
        ["keta", "--ring", SQ, "--module", "random:3", "--coeffs", "1,2"],
        "c830ae1a37a3e19f75fb8fde3179e88fa8a9cd130e576baeb26394374c90ef9d",
        id="keta-sq-t1"),
    pytest.param(
        ["keta", "--ring", SQ, "--module", "random:3", "--coeffs", "1,2",
         "--t", "2"],
        "987a57122f8fb78741347f402b759282e45364bec8457be5b1d857d42de606b4",
        id="keta-sq-t2"),
    pytest.param(
        ["example-paper"],
        "72ab7aeaaefe705dde6c8939c9a27d7f629c612e846215ed03789c95b598800f",
        id="example-paper"),
]


# The final module of `reduce-chain --ring XY --module random:3` as the
# command printed it while resolution steps over positive-dimensional
# rings were Buchberger kernels; linear-algebra steps print its relation
# columns in another basis.
BUCHBERGER_FINAL_XY = {"twists": [2, 2],
                       "relations": [["-2617*y", "13064*x + 8388*y"]]}


def test_reduce_chain_xy_final_module_unchanged(capsys):
    """The printed final module presents the same submodule as before:
    equal ranks of its relation rows, the old ones and their union in
    every degree through the largest relation degree (oracle rows)."""
    code, out, _ = run(["--json", "reduce-chain", "--ring", XY,
                        "--module", "random:3"], capsys)
    assert code == 0
    final = json.loads(out)["final"]
    tw = final["twists"]
    assert tw == BUCHBERGER_FINAL_XY["twists"]
    ring = parse_ring(XY)
    new, old = ([{(pos, m): c for pos, text in enumerate(col)
                  for m, c in ring.parse(text).items()}
                 for col in spec["relations"]]
                for spec in (final, BUCHBERGER_FINAL_XY))
    top = max(edeg(c, tuple(tw), ring.weights) for c in new + old)
    for d in range(min(tw), top + 1):
        ranks = {oracle.rank_mod(oracle.submodule_rows(ring, tw, gens, d)[2],
                                 ring.p) for gens in (new, old, new + old)}
        assert len(ranks) == 1, d


@pytest.mark.parametrize("args,digest", GOLDEN)
def test_json_output_golden(args, digest, capsys):
    code, out, _ = run(["--json"] + args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_keta_cli(capsys):
    code, out, _ = run(
        ["keta", "--ring", SQ, "--module", "k", "--coeffs", "1,1"], capsys
    )
    assert code == 0
    assert "hilbert additive: True" in out


@pytest.mark.parametrize("t", ["0", "-1"])
def test_keta_nonpositive_power_exit_one(t, capsys):
    code, _, err = run(
        ["keta", "--ring", SQ, "--module", "k", "--coeffs", "1,1", "--t", t],
        capsys,
    )
    assert code == 1
    assert "power must be >= 1" in err


def test_corpus_cli_json(capsys):
    code, out, _ = run(
        ["--json", "corpus", "--count", "2", "--rings", XY], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["counterexamples"] == []


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "example-paper"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "betti totals" in proc.stdout
