"""What each CLI command imports, and every command branch run in-process.

Commands import their kernel modules (``mc``, ``convolution``, ``cartan``,
``holim``, ``period``, and ``artin`` and ``endo`` where a model or command
needs them) inside the function, so a fresh process pays only for what it
runs.  The first half pins those import sets, and checks that no command
loads ``dataclasses``, ``typing`` or what they pull in; the second runs
every recorded invocation and the branches the record leaves out through
``cli.main``, since a name a command forgot to import fails only there.
"""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from deforma import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CLI_EXPECTED = os.path.join(ROOT, "bench", "cli_expected.json")
KERNELS = {"holim", "period", "cartan", "convolution", "mc"}
# the record machinery deforma's plain classes avoid, and what it imports
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}

# the modules a fresh process has loaded after running ``argv`` (after only
# importing deforma.cli when argv is None, after nothing when it is "bare"),
# as JSON on stdout
_PROBE = """
import io, json, sys
argv = json.loads(sys.argv[1])
if argv != "bare":
    from deforma import cli
if argv not in (None, "bare"):
    out, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
    cli.main(argv)
    sys.stdout = out
print(json.dumps(sorted(sys.modules)))
"""


def all_modules(argv):
    env = dict(os.environ)
    env.pop("DEFORMA_FIXTURE_DIR", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, env=env, check=True)
    return set(json.loads(proc.stdout))


def loaded_modules(argv):
    """The deforma modules, without the package prefix."""
    return {m[len("deforma."):] for m in all_modules(argv) if m.startswith("deforma.")}


@pytest.fixture(scope="module")
def bare_modules():
    """What the probe's interpreter loads without deforma (site hooks included)."""
    return all_modules("bare")


# ---------------------------------------------------------------------------
# import sets

def test_import_cli_loads_no_kernel():
    assert not loaded_modules(None) & KERNELS


@pytest.mark.parametrize("command", ["cohomology", "validate"])
def test_model_commands_load_no_kernel(command):
    # F5 declares an end dgla, so parsing it builds End(C); F1 needs neither
    # endo nor artin
    plain = {"cli", "dgla", "graded", "linalg", "models"}
    assert loaded_modules([command, "--model", "F1"]) == plain
    assert loaded_modules([command, "--model", "F5"]) == plain | {"endo"}


def test_gauge_loads_mc_only():
    mods = loaded_modules(["gauge", "--model", "F7"])
    assert mods & KERNELS == {"mc"}


def test_period_does_not_load_holim():
    mods = loaded_modules(["period", "--model", "F5"])
    assert "period" in mods
    assert not mods & {"holim", "mc", "artin"}


def test_holim_ranks_load_no_convolution():
    # only the quasi-abelian witness builds a Cartan homotopy
    mods = loaded_modules(["holim", "--model", "F2"])
    assert "holim" in mods
    assert not mods & {"cartan", "convolution", "mc", "artin", "endo"}


# linf_residual on the identity of F1 (arity 2) and the quasi-abelian witness
# of F2's Borel pair compute their Maurer-Cartan residues with dgla._residue;
# the deforma modules loaded, as JSON on stdout
_RESIDUE_PROBE = """
import json, sys
from deforma import fixtures as F
from deforma.convolution import convolution, linf_residual, taylor_from_linear
from deforma.graded import identity_map
from deforma.holim import holim_pair, quasi_abelian_witness
g = F.f1_dgla()
conv = convolution(g, g, 2)
assert linf_residual(g, conv, taylor_from_linear(g, conv, identity_map(g.space))) == {}
g2 = F.f2_dgla()
assert quasi_abelian_witness(holim_pair(g2, F.f2_borel(g2)),
                             F.f2_lower_left_section()).is_isomorphism
print(json.dumps(sorted(sys.modules)))
"""


def test_residues_outside_mc_load_no_mc():
    # no shipped fixture reaches linf_residual through the command line, so
    # the pin is at library level
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", _RESIDUE_PROBE],
                          capture_output=True, env=env, check=True)
    mods = set(json.loads(proc.stdout))
    assert {"deforma.convolution", "deforma.holim", "deforma.cartan"} <= mods
    assert "deforma.mc" not in mods


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "F1"], ["cohomology", "--model", "F1"],
    ["mc", "--model", "F7"], ["gauge", "--model", "F7"],
    ["linf-check", "--model", "F1"], ["cartan-check", "--model", "F6"],
    ["transport", "--model", "F6"], ["holim", "--model", "F2"],
    ["period", "--model", "F6"],
], ids=lambda argv: argv[0])
def test_command_loads_no_record_machinery(argv, bare_modules):
    assert not (all_modules(argv) - bare_modules) & HEAVY


# ---------------------------------------------------------------------------
# every branch in-process

def run_main(capsysbinary, argv):
    code = cli.main(argv)
    return code, capsysbinary.readouterr().out


def recorded():
    with open(CLI_EXPECTED) as fh:
        return json.load(fh)["invocations"]


@pytest.mark.parametrize("entry", recorded(), ids=lambda e: " ".join(e["argv"]))
def test_recorded_invocation(entry, capsysbinary, monkeypatch):
    monkeypatch.delenv("DEFORMA_FIXTURE_DIR", raising=False)
    if entry["traceback"]:
        # linf-check --model F2: the default section map is not an
        # endomorphism of g and nothing checks its spaces
        assert entry["argv"] == ["linf-check", "--model", "F2"]
        with pytest.raises(ValueError):
            cli.main(entry["argv"])
        code, out = entry["exit"], capsysbinary.readouterr().out
    else:
        code, out = run_main(capsysbinary, entry["argv"])
    assert code == entry["exit"]
    assert hashlib.sha256(out).hexdigest() == entry["stdout_sha256"]


@pytest.mark.parametrize("argv,code,status", [
    (["holim", "--model", "F2", "--cohomology"], 0, "ok"),
    (["transport", "--model", "F5", "--arity", "2"], 0, "ok"),
    (["mc", "--model", "F7", "--artin", "1,4"], 1, "failed"),
    # --artin is exactly k,N: a third part is an error, not ignored
    (["mc", "--model", "F7", "--artin", "1,4,9"], 2, "invalid"),
])
def test_unrecorded_branch(argv, code, status, capsysbinary, monkeypatch):
    monkeypatch.delenv("DEFORMA_FIXTURE_DIR", raising=False)
    got, out = run_main(capsysbinary, argv)
    assert got == code
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert doc["status"] == status


def test_linf_check_of_an_endomorphism(tmp_path, capsysbinary, monkeypatch):
    # no shipped fixture has a map from g to g; the identity of F2's gl_2 is
    # a strict morphism, so every residual vanishes
    monkeypatch.delenv("DEFORMA_FIXTURE_DIR", raising=False)
    with open(os.path.join(ROOT, "src", "deforma", "fixtures", "F2.json")) as fh:
        raw = json.load(fh)
    raw["maps"]["id"] = {"source": "g", "target": "g", "shift": 0, "blocks": {
        "0": [["1/1" if i == j else "0/1" for j in range(4)] for i in range(4)]}}
    path = tmp_path / "f2_identity.json"
    path.write_text(json.dumps(raw))
    code, out = run_main(capsysbinary, ["linf-check", "--model", str(path), "--map", "id"])
    assert code == 0
    assert json.loads(out)["payload"] == {"arity_bound": 4, "residual_arities": {}}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_text_format(command, capsysbinary, monkeypatch):
    monkeypatch.delenv("DEFORMA_FIXTURE_DIR", raising=False)
    model = {"mc": "F7", "gauge": "F7", "linf-check": "F1", "holim": "F2",
             "cartan-check": "F6", "transport": "F6", "period": "F6"}.get(command, "F5")
    code, out = run_main(capsysbinary, [command, "--model", model, "--format", "text"])
    _, as_json = run_main(capsysbinary, [command, "--model", model])
    status = json.loads(as_json)["status"]
    assert code == cli._STATUS_EXIT[status]
    assert out.decode().startswith(f"command: {command}\nstatus: {status}\n")
