"""A bounded mutation fuzz of the command line, run in-process.

Each shipped fixture F1-F7 has a few of its paths, drawn with a fixed seed
from those of every leaf and every inner object or list, set in turn to
each of ``VALUES``; every command then runs on the edited
document through ``cli.main``.  A run must end with an exit code in
{0, 1, 2, 3} and one JSON document on stdout, and a ``ModelError`` must come
out as exit 2 with its pointer as ``location``.  No exception may escape
``cli.main`` but one, which this file names and counts: ``linf-check`` on a
document derived from F2 raises ``ValueError: shape mismatch``, because the
default ``section`` map goes from the quotient to g and no consumer checks
a map's spaces.
"""

import io
import json
import os
import random
import sys

from deforma import cli
from deforma.models import ModelError

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "deforma", "fixtures")
VALUES = [None, [], {}, "x", 0, -1, "3/0", True]
PATHS_PER_FIXTURE = 3
KNOWN = ("F2", "linf-check", "ValueError", "shape mismatch")


def nodes(x, path=()):
    """The paths of every value inside a JSON document, leaves and inner
    objects and lists alike."""
    if path:
        yield path
    if isinstance(x, (dict, list)):
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from nodes(v, path + (k,))


def mutated(raw, path, value):
    doc = json.loads(json.dumps(raw))
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


def cases():
    rng = random.Random(0)
    for n in range(1, 8):
        name = f"F{n}"
        with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
            raw = json.load(fh)
        paths = sorted(nodes(raw), key=str)
        for path in rng.sample(paths, min(PATHS_PER_FIXTURE, len(paths))):
            for value in VALUES:
                yield name, path, mutated(raw, path, value)


def recording(f, seen):
    """f, noting each ``ModelError`` that passes through it."""
    def wrapped(*args):
        try:
            return f(*args)
        except ModelError as exc:
            seen.append(exc)
            raise
    return wrapped


def test_mutated_fixtures_never_escape_the_cli(tmp_path, monkeypatch):
    monkeypatch.delenv("DEFORMA_FIXTURE_DIR", raising=False)
    seen: list = []
    monkeypatch.setattr(cli, "parse_model", recording(cli.parse_model, seen))
    for command, f in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, command, recording(f, seen))
    model = str(tmp_path / "model.json")
    runs, escaped = 0, []
    for name, path, doc in cases():
        with open(model, "w") as fh:
            json.dump(doc, fh)
        for command in sorted(cli._COMMANDS):
            out = io.TextIOWrapper(io.BytesIO())
            monkeypatch.setattr(sys, "stdout", out)
            del seen[:]
            runs += 1
            where = f"{command} on {name} with {'/'.join(map(str, path))}"
            try:
                code = cli.main([command, "--model", model])
            except Exception as exc:        # every escape is recorded and judged below
                escaped.append((name, command, type(exc).__name__, str(exc)))
                continue
            assert code in (0, 1, 2, 3), where
            report = json.loads(out.buffer.getvalue())
            if seen:
                assert code == 2, where
                assert report["payload"]["location"] == seen[-1].pointer, where
    monkeypatch.undo()
    assert runs == 7 * PATHS_PER_FIXTURE * len(VALUES) * 9
    unknown = [e for e in escaped if (e[0], e[1], e[2]) != KNOWN[:3] or KNOWN[3] not in e[3]]
    assert not unknown
    # linf-check on F2 reaches the section map unless the edit stops it first
    assert len(escaped) == 4
