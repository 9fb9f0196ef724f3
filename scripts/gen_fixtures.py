#!/usr/bin/env python3
"""Regenerate the shipped fixture model files from the builders in
deforma.fixtures.  Output is canonical JSON, so reruns are byte-stable."""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from deforma import fixtures as F
from deforma.dgla import CdgaModel, Dgla, FiltrationData, SubDgla
from deforma.endo import end_dgla
from deforma.graded import Complex, GradedMap, GradedVectorSpace
from deforma.models import SCHEMA_VERSION, matrix_json, vector_json

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "deforma" / "fixtures"


def space_json(sp: GradedVectorSpace) -> dict:
    return {str(d): list(sp.labels(d)) for d in sp.degrees}


def blocks_json(f: GradedMap) -> dict:
    out = {}
    for deg in sorted(f.blocks):
        block = f.blocks[deg]
        if block and any(any(row) for row in block):
            out[str(deg)] = matrix_json(block)
    return out


def complex_json(cx: Complex, space_name: str) -> dict:
    entry = {"space": space_name}
    d = blocks_json(cx.differential)
    if d:
        entry["differential"] = d
    return entry


def dgla_json(g: Dgla, complex_name: str) -> dict:
    if g.is_abelian():
        return {"complex": complex_name, "abelian": True}
    brackets = {f"{m},{n}": [[vector_json(v) for v in row] for row in table]
                for (m, n), table in g.brackets.items()}
    return {"complex": complex_name, "brackets": brackets}


def cdga_json(omega: CdgaModel, complex_name: str) -> dict:
    products = {f"{m},{n}": [[vector_json(v) for v in row] for row in table]
                for (m, n), table in omega.products.items()}
    return {"complex": complex_name, "products": products}


def filtration_json(f: FiltrationData, space_name: str) -> dict:
    steps = {}
    for p in f.levels():
        level = f.step(p).span
        steps[str(p)] = {str(d): [vector_json(v) for v in vs]
                         for d, vs in sorted(level.items())}
    return {"space": space_name, "steps": steps}


def sub_json(sub: SubDgla, dgla_name: str) -> dict:
    span = {str(d): [vector_json(v) for v in sub.span.span[d]]
            for d in sorted(sub.span.span)}
    return {"dgla": dgla_name, "span": span}


def contraction_json(source: Dgla, omega, end, i: GradedMap,
                     source_name: str, cdga_name: str) -> dict:
    ops = []
    for (deg, idx) in source.space.basis():
        op = end.element_to_map(i.apply(source.space.basis_element(deg, idx)))
        ops.append(blocks_json(op))
    return {"source": source_name, "cdga": cdga_name, "operators": ops}


def contraction_fixture(name, omega, t, i, filt) -> dict:
    end = end_dgla(omega.complex)
    return {
        "schema": SCHEMA_VERSION,
        "spaces": {"omega": space_json(omega.space), "t": space_json(t.space)},
        "complexes": {"omega": complex_json(omega.complex, "omega"),
                      "t": complex_json(t.underlying, "t")},
        "cdgas": {"omega": cdga_json(omega, "omega")},
        "dglas": {"t": dgla_json(t, "t")},
        "filtrations": {"F": filtration_json(filt, "omega")},
        "contractions": {"i": contraction_json(t, omega, end, i, "t", "omega")},
        "defaults": {"dgla": "t", "cdga": "omega", "contraction": "i",
                     "filtration": "F"},
    }


def build_all() -> dict[str, dict]:
    docs = {}

    g1 = F.f1_dgla()
    docs["F1"] = {
        "schema": SCHEMA_VERSION,
        "spaces": {"g": space_json(g1.space)},
        "complexes": {"g": complex_json(g1.underlying, "g")},
        "dglas": {"g": dgla_json(g1, "g")},
        "defaults": {"dgla": "g"},
    }

    g2 = F.f2_dgla()
    borel = F.f2_borel(g2)
    section = F.f2_lower_left_section()
    docs["F2"] = {
        "schema": SCHEMA_VERSION,
        "spaces": {"g": space_json(g2.space), "q": space_json(section.source)},
        "complexes": {"g": complex_json(g2.underlying, "g")},
        "dglas": {"g": dgla_json(g2, "g")},
        "subdglas": {"n2": sub_json(borel, "g")},
        "maps": {"s": {"source": "q", "target": "g", "shift": 0,
                       "blocks": blocks_json(section)}},
        # a gauge parameter: e12 (gl_2 sits in degree 0, so MC(g (x) m) = {0})
        "elements": {"alpha": {"space": "g", "values": {
            "0": ["0/1", "1/1", "0/1", "0/1"]}}},
        "defaults": {"dgla": "g", "sub": "n2", "section": "s", "alpha": "alpha"},
    }

    cx3 = F.f3_complex()
    docs["F3"] = {
        "schema": SCHEMA_VERSION,
        "spaces": {"c": space_json(cx3.space)},
        "complexes": {"c": complex_json(cx3, "c")},
        "end_dglas": {"end": {"complex": "c"}},
        "defaults": {"dgla": "end"},
    }

    omega4 = F.f4_cdga()
    end4 = end_dgla(omega4.complex)
    docs["F4"] = contraction_fixture("F4", omega4, F.f4_derivations(),
                                     F.f4_contraction(end4), F.f4_degree_filtration())

    omega5 = F.f5_cdga()
    end5 = end_dgla(omega5.complex)
    docs["F5"] = contraction_fixture("F5", omega5, F.f5_derivations(),
                                     F.f5_contraction(end5), F.f5_form_filtration())

    omega6 = F.f6_cdga()
    end6 = end_dgla(omega6.complex)
    docs["F6"] = contraction_fixture("F6", omega6, F.f6_dgla(),
                                     F.f6_contraction(end6), F.f6_filtration())
    docs["F6"]["defaults"]["period"] = "1"

    g7 = F.f7_dgla()
    docs["F7"] = {
        "schema": SCHEMA_VERSION,
        "spaces": {"g": space_json(g7.space)},
        "complexes": {"g": complex_json(g7.underlying, "g")},
        "dglas": {"g": dgla_json(g7, "g")},
        "artin": {"A2": {"generators": 1, "order": 3}},
        "elements": {"seed": {"space": "g", "values": {"1": ["1/1"]}}},
        "defaults": {"dgla": "g", "seed": "seed", "artin": "A2"},
    }
    return docs


def main():
    OUT.mkdir(exist_ok=True)
    for name, doc in build_all().items():
        path = OUT / f"{name}.json"
        path.write_bytes((json.dumps(doc, sort_keys=True, indent=1) + "\n").encode())
        print("wrote", path)


if __name__ == "__main__":
    main()
