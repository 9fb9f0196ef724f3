"""``scripts/bench_pairs.py``'s ``compare`` on synthetic pairs: the claim
rule (nine tenths of the pairs, and a median gap wider than the base
quartile spread) and the regression bound, in both directions of better;
and its ``snapshot`` of a working tree, on a temporary git repository."""

import importlib.util
import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ratio", "unit": "ratio", "better": "higher", "bound": 0.1}
UNBOUNDED = {"name": "count", "unit": "count", "better": "lower"}


def pairs(base: list[float], change: list[float]) -> list[tuple[dict, dict]]:
    def run(v):
        return {"metrics": {name: {"value": v} for name in ("wall_s", "ratio", "count")}}
    return [(run(b), run(c)) for b, c in zip(base, change)]


def verdict(base, change, spec=LOWER):
    m = bench_pairs.compare(pairs(base, change), [spec])[spec["name"]]
    return m["change_better_pairs"], m["claim_rule_met"], m["worse_than_bound"]


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]   # IQR 0.175


def test_claim_needs_nine_tenths_of_the_pairs():
    faster = [b - 1 for b in BASE]
    assert verdict(BASE, faster) == (10, True, False)
    nine = faster[:9] + [BASE[9] + 1]
    assert verdict(BASE, nine) == (9, True, False)
    eight = faster[:8] + [BASE[8] + 1, BASE[9] + 1]
    assert verdict(BASE, eight) == (8, False, False)
    ties = faster[:8] + BASE[8:]           # a tie counts for neither side
    assert verdict(BASE, ties) == (8, False, False)


def test_claim_needs_a_gap_wider_than_the_base_spread():
    # better in every pair, but by 0.1 against a base quartile spread of 0.175
    assert verdict(BASE, [b - 0.1 for b in BASE]) == (10, False, False)


def test_worse_than_bound_is_relative_to_the_base_median():
    assert verdict(BASE, [b * 1.2 for b in BASE])[2] is False
    assert verdict(BASE, [b * 1.3 for b in BASE])[2] is True
    assert verdict(BASE, [b * 1.3 for b in BASE], UNBOUNDED)[2] is None


def test_higher_is_better_metrics():
    assert verdict(BASE, [b + 1 for b in BASE], HIGHER) == (10, True, False)
    assert verdict(BASE, [b * 0.95 for b in BASE], HIGHER) == (0, False, False)
    assert verdict(BASE, [b * 0.85 for b in BASE], HIGHER) == (0, False, True)


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def tree_of(path: pathlib.Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_snapshot_copies_the_working_tree_as_it_stands(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "src" / "edited.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    (repo / ".gitignore").write_text("*.log\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "edited.py").write_text("modified\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()
    before = tree_of(repo / ".git")
    out = pathlib.Path(bench_pairs.snapshot(str(tmp_path / "change"), str(repo)))
    assert tree_of(out) == {".gitignore": b"*.log\n", "src/edited.py": b"modified\n",
                            "src/kept.py": b"committed\n", "src/new.py": b"untracked\n"}
    assert tree_of(repo / ".git") == before
