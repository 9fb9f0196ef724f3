"""JSON model documents and the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from deforma.models import ModelError, emit_model, parse_model, parse_model_dict

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src", "deforma", "fixtures")
FIXTURE_FILES = sorted(f for f in os.listdir(FIXTURE_DIR) if f.endswith(".json"))


def load_raw(name):
    with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# parsing and canonical serialization

def test_all_shipped_fixtures_parse():
    assert FIXTURE_FILES == [f"F{k}.json" for k in range(1, 8)]
    for fname in FIXTURE_FILES:
        doc = parse_model(os.path.join(FIXTURE_DIR, fname))
        assert doc.raw["schema"] == 1


def test_emit_roundtrip_is_identity():
    for fname in FIXTURE_FILES:
        path = os.path.join(FIXTURE_DIR, fname)
        with open(path, "rb") as fh:
            original = fh.read()
        doc = parse_model(path)
        assert emit_model(doc) == original
        again = parse_model_dict(json.loads(emit_model(doc)))
        assert again.raw == doc.raw


def test_missing_file_and_malformed_json():
    with pytest.raises(ModelError) as exc:
        parse_model("/nonexistent/model.json")
    assert exc.value.pointer == "/"


def test_wrong_schema_version():
    raw = load_raw("F1")
    raw["schema"] = 99
    with pytest.raises(ModelError) as exc:
        parse_model_dict(raw)
    assert exc.value.pointer == "/schema"


def test_unknown_section_rejected():
    raw = load_raw("F1")
    raw["widgets"] = {}
    with pytest.raises(ModelError) as exc:
        parse_model_dict(raw)
    assert exc.value.pointer == "/widgets"


def test_bad_rational_located():
    """A string that is no rational, and a JSON boolean where a number or an
    integer goes (``bool`` is a subclass of ``int`` in Python)."""
    seed = ("elements", "seed", "values", "1", 0)
    cases = [("F7", seed, "one half", "/elements/seed/values/1/0", "rational"),
             ("F7", seed, True, "/elements/seed/values/1/0", "rational"),
             ("F2", ("maps", "s", "shift"), True, "/maps/s/shift", "integer"),
             ("F7", ("artin", "A2", "generators"), True, "/artin/A2", "integer")]
    for name, path, value, pointer, word in cases:
        raw = load_raw(name)
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ModelError) as exc:
            parse_model_dict(raw)
        assert exc.value.pointer == pointer
        assert word in exc.value.message


def test_non_object_entries_located():
    """Every entry of every section of every shipped fixture, replaced by a
    list, is refused with its own pointer."""
    seen = set()
    for fname in FIXTURE_FILES:
        for section, entries in load_raw(fname[:-5]).items():
            if section in ("schema", "defaults"):
                continue
            for name in entries:
                raw = load_raw(fname[:-5])
                raw[section][name] = []
                with pytest.raises(ModelError) as exc:
                    parse_model_dict(raw)
                assert (exc.value.pointer, exc.value.message) == (
                    f"/{section}/{name}", "expected an object")
                seen.add(section)
    assert seen == {"spaces", "complexes", "dglas", "end_dglas", "cdgas", "filtrations",
                    "subdglas", "artin", "maps", "contractions", "elements"}


def _degree_tables(raw):
    """(kind, path) of every table keyed by degrees, or by "m,n" degree
    pairs, in a model document."""
    fields = {"complexes": "differential", "dglas": "brackets", "cdgas": "products",
              "filtrations": "steps", "subdglas": "span", "maps": "blocks",
              "elements": "values"}
    for name in raw.get("spaces", {}):
        yield "spaces", ("spaces", name)
    for section, field in fields.items():
        for name, entry in raw.get(section, {}).items():
            if field not in entry:
                continue
            yield section, (section, name, field)
            if section == "filtrations":
                for p in entry["steps"]:
                    yield "filtration levels", (section, name, field, p)
    for name, entry in raw.get("contractions", {}).items():
        for i in range(len(entry["operators"])):
            yield "contractions", ("contractions", name, "operators", i)


def _node(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def test_degree_keys_follow_the_schema():
    """A degree key is -?[0-9]+ and a pair key m,n with spaces around the
    comma at most: no sign "+", no padding, no underscore, no other digits."""
    cases = [("F7", ("elements", "seed", "values"), "1", key)
             for key in ("+1", " 1", "1 ", "1_0", "\u0661", "", "-")]
    cases += [("F7", ("dglas", "g", "brackets"), "1,1", key)
              for key in (" 1,1", "1,1 ", "1,+1", "1,1,1", "1;1")]
    for name, path, old, new in cases:
        raw = load_raw(name)
        table = _node(raw, path)
        table[new] = table.pop(old)
        with pytest.raises(ModelError) as exc:
            parse_model_dict(raw)
        assert exc.value.pointer == "/" + "/".join(path + (new,)), new
        assert "degree" in exc.value.message
    raw = load_raw("F7")
    brackets = raw["dglas"]["g"]["brackets"]
    brackets["1 ,  1"] = brackets.pop("1,1")
    raw["elements"]["seed"]["values"]["-0"] = []
    assert parse_model_dict(raw).dgla("g").brackets == parse_model_dict(load_raw("F7")).dgla(
        "g").brackets


def test_repeated_degree_keys_refused():
    """A second key naming a degree already met ("01" after "1", "1, 0"
    after "1,0") is refused at its own pointer, in every kind of table."""
    seen = set()
    for fname in FIXTURE_FILES:
        for kind, path in _degree_tables(load_raw(fname[:-5])):
            raw = load_raw(fname[:-5])
            table = _node(raw, path)
            if not table:
                continue
            key = next(iter(table))
            alias = (key.replace(",", ", ") if "," in key else
                     "-0" + key[1:] if key.startswith("-") else "0" + key)
            table[alias] = table[key]
            with pytest.raises(ModelError) as exc:
                parse_model_dict(raw)
            assert exc.value.pointer == "/" + "/".join(map(str, path + (alias,)))
            assert "same degree as" in exc.value.message
            seen.add(kind)
    assert seen == {"spaces", "complexes", "dglas", "cdgas", "filtrations",
                    "filtration levels", "subdglas", "maps", "contractions", "elements"}


def test_non_object_degree_tables_refused():
    """Every table keyed by degrees, replaced by a list or by null, is
    refused at its own pointer, as is a filtration level."""
    seen = set()
    for fname in FIXTURE_FILES:
        for kind, path in _degree_tables(load_raw(fname[:-5])):
            for value in (["x"], None):
                raw = load_raw(fname[:-5])
                _node(raw, path[:-1])[path[-1]] = value
                with pytest.raises(ModelError) as exc:
                    parse_model_dict(raw)
                assert (exc.value.pointer, exc.value.message) == (
                    "/" + "/".join(map(str, path)), "expected an object")
            seen.add(kind)
    assert seen == {"spaces", "complexes", "dglas", "cdgas", "filtrations",
                    "filtration levels", "subdglas", "maps", "contractions", "elements"}


def test_wrong_table_shape_located():
    raw = load_raw("F7")
    raw["dglas"]["g"]["brackets"]["1,1"] = [[["1/1"], ["2/1"]]]
    with pytest.raises(ModelError):
        parse_model_dict(raw)


TABLES = [("F2", "/dglas/g/brackets", "0,0", "1,0"),
          ("F6", "/cdgas/omega/products", "1,1", "1,0")]


def _break(rows, fault):
    """The table rows with one fault (two for "two"), and the pointer of
    the first, after the table's own."""
    rows = json.loads(json.dumps(rows))
    if fault == "rows":
        return rows + [rows[0]], ""
    if fault == "row":
        rows[0] = "x"
        return rows, "/0"
    if fault == "entries":
        rows[0] = rows[0] + [rows[0][0]]
        return rows, "/0"
    if fault == "rational":
        rows[0][0][0] = "one"
        return rows, "/0/0/0"
    if fault == "length":
        rows[0][0] = rows[0][0] + ["0/1"]
        return rows, "/0/0"
    rows[0][0] = rows[0][0] + ["0/1"]       # "two": every entry of a row
    rows[0][1][0] = "one"                   # is read before any length
    return rows, "/0/1/0"


@pytest.mark.parametrize("fault", ["rows", "row", "entries", "rational", "length", "two"])
@pytest.mark.parametrize("model,section,key,lower", TABLES, ids=["brackets", "products"])
def test_malformed_tables_located(model, section, key, lower, fault):
    raw = load_raw(model)
    tables = raw
    for part in section.split("/")[1:]:
        tables = tables[part]
    tables[key], tail = _break(tables[key], fault)
    with pytest.raises(ModelError) as exc:
        parse_model_dict(raw)
    assert exc.value.pointer == f"{section}/{key}{tail}"
    del tables[key]
    tables[lower] = []
    with pytest.raises(ModelError, match="stored for m <= n only") as exc:
        parse_model_dict(raw)
    assert exc.value.pointer == f"{section}/{lower}"


def test_dangling_reference_located():
    raw = load_raw("F1")
    raw["complexes"]["g"]["space"] = "missing"
    with pytest.raises(ModelError) as exc:
        parse_model_dict(raw)
    assert "missing" in str(exc.value)


def test_element_degree_dimension_mismatch():
    raw = load_raw("F7")
    raw["elements"]["seed"]["values"]["1"] = ["1/1", "1/1"]
    with pytest.raises(ModelError):
        parse_model_dict(raw)


# ---------------------------------------------------------------------------
# the command line

def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "deforma.cli", *args],
                          capture_output=True, env=env)


def test_cli_validate_ok():
    proc = run_cli("validate", "--model", "F2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "ok"
    assert doc["command"] == "validate"


def test_cli_missing_model_is_bad_input():
    proc = run_cli("validate")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "invalid"


def test_cli_nonexistent_fixture_is_bad_input():
    proc = run_cli("validate", "--model", "F99")
    assert proc.returncode == 2


def test_cli_malformed_model_reports_pointer(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "bogus": {}}))
    proc = run_cli("validate", "--model", str(bad))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["status"] == "invalid"
    assert doc["payload"]["location"] == "/bogus"


def test_cli_non_object_entry_is_bad_input(tmp_path):
    raw = load_raw("F1")
    raw["complexes"]["g"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    proc = run_cli("validate", "--model", str(bad))
    assert proc.returncode == 2 and b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["payload"]["location"] == "/complexes/g"


def test_cli_non_object_degree_table_is_bad_input(tmp_path):
    f2 = load_raw("F2")
    f2["dglas"]["g"]["brackets"] = ["x"]
    f6 = load_raw("F6")
    f6["filtrations"]["F"]["steps"]["1"] = ["x"]
    for raw, location in [(f2, "/dglas/g/brackets"), (f6, "/filtrations/F/steps/1")]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        proc = run_cli("validate", "--model", str(bad))
        assert proc.returncode == 2 and b"Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["payload"]["location"] == location


def test_cli_repeated_degree_key_is_bad_input(tmp_path):
    raw = load_raw("F7")
    raw["elements"]["seed"]["values"]["01"] = raw["elements"]["seed"]["values"]["1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    proc = run_cli("validate", "--model", str(bad))
    assert proc.returncode == 2 and b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["payload"]["location"] == "/elements/seed/values/01"


def test_cli_vector_list_that_is_not_a_list_is_bad_input(tmp_path):
    f4 = load_raw("F4")
    f4["filtrations"]["F"]["steps"]["1"]["1"] = None
    f2 = load_raw("F2")
    f2["subdglas"]["n2"]["span"]["0"] = 7
    for raw, command, location in [(f4, "validate", "/filtrations/F/steps/1/1"),
                                   (f2, "holim", "/subdglas/n2/span/0")]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        proc = run_cli(command, "--model", str(bad))
        assert proc.returncode == 2 and b"Traceback" not in proc.stderr
        payload = json.loads(proc.stdout)["payload"]
        assert payload["location"] == location
        assert payload["error"] == "expected a list of vectors"


@pytest.mark.parametrize("value", [["g"], {"name": "g"}, 7, None])
def test_cli_default_that_is_not_a_string_is_bad_input(tmp_path, value):
    raw = load_raw("F1")
    raw["defaults"]["dgla"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    proc = run_cli("cohomology", "--model", str(bad))
    assert proc.returncode == 2 and b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["payload"]["location"] == "/defaults/dgla"


@pytest.mark.parametrize("kind", ["directory", "invalid UTF-8"])
def test_cli_unreadable_model_is_bad_input(tmp_path, kind):
    path = tmp_path
    if kind == "invalid UTF-8":
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"a": "\xc3("}')
    proc = run_cli("validate", "--model", str(path))
    assert proc.returncode == 2
    assert proc.stderr == b""
    doc = json.loads(proc.stdout)
    assert doc["status"] == "invalid"
    assert doc["payload"]["location"] == "/"


def test_cli_holim_rejects_a_sub_dgla_of_another_dgla(tmp_path):
    # n_ab = span{e12, e21} is closed in an abelian dgla on gl_2's complex,
    # not in gl_2 itself: [e12, e21] = e11 - e22
    raw = load_raw("F2")
    raw["dglas"]["ab"] = {"complex": "g"}
    raw["subdglas"]["n_ab"] = {"dgla": "ab", "span": {"0": [
        ["0/1", "1/1", "0/1", "0/1"], ["0/1", "0/1", "1/1", "0/1"]]}}
    path = tmp_path / "two_hosts.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("holim", "--model", str(path), "--sub", "n_ab")
    assert proc.returncode == 2
    assert proc.stderr == b""
    doc = json.loads(proc.stdout)
    assert doc["status"] == "invalid"
    assert doc["payload"]["location"] == "/subdglas/n_ab/dgla"
    assert "'ab'" in doc["payload"]["error"] and "'g'" in doc["payload"]["error"]
    # on its own dgla the same sub-dgla is accepted
    proc = run_cli("holim", "--model", str(path), "--sub", "n_ab", "--dgla", "ab")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["ranks"] == {"1": 2}


def test_cli_mc_obstruction_reported():
    proc = run_cli("mc", "--model", "F7", "--extend")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["payload"]["extension"]["status"] == "obstructed"
    assert doc["payload"]["extension"]["obstruction"]["classes"] == {"e^2": ["1/2"]}


def test_cli_axiom_failure_exit_code(tmp_path):
    raw = load_raw("F1")
    # a nonzero even self-bracket violates graded antisymmetry
    raw["spaces"]["g"] = {"0": ["e"]}
    raw["dglas"]["g"] = {"complex": "g", "brackets": {"0,0": [[["1/1"]]]}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("validate", "--model", str(path))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["status"] == "failed"
    assert any(f["kind"] == "antisymmetry"
               for f in doc["payload"]["dgla:g"]["failures"])


def test_cli_validates_a_filtration_against_each_complex_on_its_space(tmp_path):
    # F^2 = everything in degree 1 is not inside F^1 = span{xi}; the check
    # runs whatever the complex on the filtration's space is named, and
    # once per complex on it, in name order, into the one entry
    def failures(raw):
        raw["filtrations"]["F"]["steps"]["2"] = {"1": [["1/1", "0/1"], ["0/1", "1/1"]]}
        path = tmp_path / "filtered.json"
        path.write_text(json.dumps(raw))
        proc = run_cli("validate", "--model", str(path))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["status"] == "failed"
        return doc["payload"]["filtration:F"]["failures"]

    same = failures(load_raw("F6"))
    assert same == [{"kind": "decreasing", "witness": ["F^2 degree 1 vector 1"]}]
    renamed = load_raw("F6")
    renamed["complexes"]["cx"] = renamed["complexes"].pop("omega")
    renamed["cdgas"]["omega"]["complex"] = "cx"
    assert failures(renamed) == same
    doubled = load_raw("F6")
    doubled["complexes"]["a"] = doubled["complexes"]["omega"]
    assert failures(doubled) == same * 2


def test_cli_checks_a_filtration_on_a_space_with_no_complex(tmp_path):
    # F^2 = span{b} is not inside F^1 = span{a}, on a space that no complex
    # uses: being decreasing needs no differential
    raw = load_raw("F6")
    raw["spaces"]["s"] = {"1": ["a", "b"]}
    raw["filtrations"]["G"] = {"space": "s", "steps": {"1": {"1": [["1/1", "0/1"]]},
                                                       "2": {"1": [["0/1", "1/1"]]}}}
    path = tmp_path / "unused.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("validate", "--model", str(path))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["status"] == "failed"
    assert doc["payload"]["filtration:G"]["failures"] == [
        {"kind": "decreasing", "witness": ["F^2 degree 1 vector 0"]}]
    assert doc["payload"]["filtration:F"]["failures"] == []


def test_cli_inconclusive_exit_code(tmp_path):
    # d(z) = x1 with [z, x1] = x3 and x3 outside the image of d: the staged
    # gauge solver matches weight 1 but fails uncertifiably at weight 2
    raw = {
        "schema": 1,
        "spaces": {"g": {"0": ["z"], "1": ["x1", "x3"]}},
        "complexes": {"g": {"space": "g",
                            "differential": {"0": [["1/1"], ["0/1"]]}}},
        "dglas": {"g": {"complex": "g",
                        "brackets": {"0,1": [[["0/1", "1/1"],
                                              ["0/1", "0/1"]]]}}},
        "artin": {"A2": {"generators": 1, "order": 3}},
        "elements": {"y": {"space": "g", "values": {"1": ["1/1", "0/1"]}}},
        "defaults": {"dgla": "g", "artin": "A2"},
    }
    path = tmp_path / "staged.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("gauge", "--model", str(path), "--equiv", "--y", "y")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["status"] == "inconclusive"


def test_cli_deterministic_output():
    for args in (("validate", "--model", "F5"),
                 ("cohomology", "--model", "F6"),
                 ("period", "--model", "F6"),
                 ("holim", "--model", "F2", "--cohomology"),
                 ("transport", "--model", "F5")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # well-formed


def test_cli_text_format():
    proc = run_cli("cohomology", "--model", "F6", "--format", "text")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert out.startswith("command: cohomology\nstatus: ok\n")


def test_cli_fixture_dir_override(tmp_path):
    raw = load_raw("F1")
    with open(tmp_path / "mine.json", "w") as fh:
        json.dump(raw, fh)
    proc = run_cli("validate", "--model", "mine",
                   env_extra={"DEFORMA_FIXTURE_DIR": str(tmp_path)})
    assert proc.returncode == 0
    # and the override hides the shipped fixtures
    proc2 = run_cli("validate", "--model", "F1",
                    env_extra={"DEFORMA_FIXTURE_DIR": str(tmp_path)})
    assert proc2.returncode == 2


@pytest.mark.parametrize("model", ["F4", "F5", "F6"])
def test_cli_cartan_check_ok(model):
    proc = run_cli("cartan-check", "--model", model)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "cartan-check"
    assert doc["status"] == "ok"
    assert doc["payload"]["failures"] == []
    notes = doc["payload"]["notes"]
    assert notes["lie_bracket_compatible"] and notes["lie_is_closed"]
    assert notes["stronger_bracket_identity"] and notes["stronger_square_zero"]


def test_cli_gauge_equiv_needs_maurer_cartan_elements():
    # the F7 seed x e is not Maurer-Cartan over K[e]/e^3: [xe, xe] = y e^2
    proc = run_cli("gauge", "--model", "F7", "--equiv")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["status"] == "failed"
    assert "Maurer-Cartan" in doc["payload"]["error"]


def test_cli_gauge_stabilizer():
    proc = run_cli("gauge", "--model", "F7", "--stabilizer")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "ok"
    assert doc["payload"] == {"basis": [], "dimension": 0}


@pytest.mark.parametrize("args,message", [
    (("holim", "--model", "F2", "--cohomology", "--tdeg", "0"), "--tdeg"),
    (("transport", "--model", "F5", "--arity", "0"), "--arity"),
    (("mc", "--model", "F7", "--artin", "1,1"), "--artin"),
])
def test_cli_out_of_range_arguments_are_bad_input(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["status"] == "invalid"
    assert message in doc["payload"]["error"]
