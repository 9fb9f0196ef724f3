"""Command-line interface.

    deforma <command> [--model FILE] [--arity N] [--tdeg D] [--artin k,N]
                      [--format json|text] [command-specific options]

Commands: validate, cohomology, mc, gauge, linf-check, cartan-check,
transport, holim, period.  ``--model`` accepts a path or the bare name of a
shipped fixture (F1..F7); the environment variable DEFORMA_FIXTURE_DIR
overrides the shipped fixture directory.

Each command imports the kernel modules it uses (``mc``, ``convolution``,
``cartan``, ``holim``, ``period``, ``artin``) when it runs, and a model
loads ``artin`` or ``endo`` only if it declares what needs them, so a call
loads only those: ``validate`` and ``cohomology`` load none of the kernels,
``mc`` and ``gauge`` only ``mc`` and ``artin``.

Exit codes: 0 ok, 1 axiom/check failure, 2 malformed input, 3 inconclusive.
JSON reports use canonical key order and exact "num/den" rationals, so
identical invocations emit byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dgla import (DglaMorphism, ValidationReport, validate_cdga, validate_dgla,
                   validate_filtration, validate_morphism)
from .graded import StructuralError, cohomology
from .models import ModelDocument, ModelError, gvec_json, matrix_json, parse_model, vector_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3

_STATUS_EXIT = {"ok": EXIT_OK, "invalid": EXIT_BAD_INPUT,
                "failed": EXIT_CHECK_FAILED, "inconclusive": EXIT_INCONCLUSIVE}


class CommandError(ValueError):
    """User-facing input problem (missing name, bad option)."""


class Report:
    def __init__(self, command: str, status: str, payload: dict | None = None):
        self.command = command
        self.status = status    # ok | invalid | failed | inconclusive
        self.payload = {} if payload is None else payload

    @property
    def exit_code(self) -> int:
        return _STATUS_EXIT[self.status]


def report_emit(report: Report, fmt: str) -> bytes:
    doc = {"command": report.command, "status": report.status,
           "payload": report.payload}
    if fmt == "json":
        return (json.dumps(doc, sort_keys=True, separators=(",", ": "),
                           indent=1) + "\n").encode()
    lines = [f"command: {report.command}", f"status: {report.status}"]
    def render(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value, key=str):
                render(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")
    render("", report.payload)
    return ("\n".join(lines) + "\n").encode()


def _fixture_dir() -> str:
    override = os.environ.get("DEFORMA_FIXTURE_DIR")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


def _resolve_model(spec: str | None) -> str:
    if spec is None:
        raise CommandError("this command needs --model FILE (or a fixture name)")
    if os.path.exists(spec):
        return spec
    candidate = os.path.join(_fixture_dir(), spec + ".json")
    if os.path.exists(candidate):
        return candidate
    raise CommandError(f"no such model file or fixture: {spec}")


def _report_json(report) -> dict:
    """ValidationReport -> plain JSON-ready dict."""
    return {"failures": report.failures,
            "notes": {k: report.notes[k] for k in sorted(report.notes)}}


def _named(doc: ModelDocument, option: str | None, default_key: str, kind: str) -> str:
    name = option or doc.default(default_key)
    if not name:
        raise CommandError(f"no --{default_key} given and the model declares no "
                           f"default {kind}")
    return name


def _positive(value: int | None, default: int, option: str) -> int:
    """An optional ``--option`` bound: ``default`` if absent, else at least 1."""
    if value is None:
        return default
    if value < 1:
        raise CommandError(f"--{option} must be at least 1, got {value}")
    return value


def _artin_from_args(doc: ModelDocument, args) -> "ArtinAlgebra":
    from .artin import truncated_polynomial_algebra
    if args.artin:
        try:
            k, order = map(int, args.artin.split(","))
        except ValueError:
            raise CommandError("--artin expects k,N (generators, truncation order)")
        if k < 1 or order < 2:
            raise CommandError("--artin k,N needs k >= 1 generators and "
                               f"truncation order N >= 2, got {k},{order}")
        return truncated_polynomial_algebra(k, order)
    name = doc.default("artin")
    if name:
        return doc.artin(name)
    raise CommandError("this command needs --artin k,N")


def _default_dgla(doc: ModelDocument, args):
    name = _named(doc, args.dgla, "dgla", "dgla")
    if name in doc.section("dglas") or name in doc.section("end_dglas"):
        return doc.dgla(name)
    raise CommandError(f"no dgla named {name!r} in the model")


# ---------------------------------------------------------------------------
# commands

def cmd_validate(doc: ModelDocument, args) -> Report:
    payload = {}
    ok = True
    for name in doc.names("dglas") + doc.names("end_dglas"):
        rep = validate_dgla(doc.dgla(name))
        payload[f"dgla:{name}"] = _report_json(rep)
        ok = ok and rep.ok
    for name in doc.names("cdgas"):
        rep = validate_cdga(doc.cdga(name))
        payload[f"cdga:{name}"] = _report_json(rep)
        # the shipped truncated models may fail Leibniz on their top corner;
        # that is reported but only dgla axioms gate the status
        payload[f"cdga:{name}"]["gating"] = False
    complexes = doc.section("complexes")
    for name in doc.names("filtrations"):
        # against every complex on the filtration's space, in name order
        space = doc.section("filtrations")[name]["space"]
        on_space = [c for c in doc.names("complexes") if complexes[c]["space"] == space]
        if on_space:
            rep = ValidationReport()
            for c in on_space:
                rep.merge(validate_filtration(doc.complex(c), doc.filtration(name)))
            payload[f"filtration:{name}"] = _report_json(rep)
            ok = ok and rep.ok
    for name in doc.names("artin"):
        from .artin import validate_artin
        rep = validate_artin(doc.artin(name))
        payload[f"artin:{name}"] = _report_json(rep)
        ok = ok and rep.ok
    return Report("validate", "ok" if ok else "failed", payload)


def cmd_cohomology(doc: ModelDocument, args) -> Report:
    g = _default_dgla(doc, args)
    hc = cohomology(g.underlying)
    ranks = {str(d): r for d, r in sorted(hc.ranks.items())}
    return Report("cohomology", "ok",
                  {"ranks": ranks, "euler_characteristic": str(hc.euler_characteristic())})


def cmd_mc(doc: ModelDocument, args) -> Report:
    from .artin import tensor_nilpotent
    from .mc import mc_extend, mc_residue
    g = _default_dgla(doc, args)
    a = _artin_from_args(doc, args)
    ng = tensor_nilpotent(g, a)
    seed_name = _named(doc, args.seed, "seed", "element")
    sp, values = doc.element(seed_name)
    if sp.components != g.space.components:
        raise CommandError(f"element {seed_name!r} lives on a different space")
    x = ng.tensor_element(values, 0)
    payload = {"artin": {"generators": a.generators, "order": a.order},
               "seed": seed_name}
    if args.extend:
        result = mc_extend(ng, x)
        payload["extension"] = {"status": result.status}
        if result.element is not None:
            payload["extension"]["element"] = gvec_json(result.element)
        if result.obstruction is not None:
            ob = result.obstruction
            payload["extension"]["obstruction"] = {
                "weight": ob.weight,
                "classes": {m: vector_json(v) for m, v in sorted(ob.classes.items())},
            }
        # an obstruction is a definitive answer, not a failure of the tool
        return Report("mc", "ok", payload)
    res = mc_residue(ng, x)
    payload["residue"] = gvec_json(res)
    is_mc = all(not any(v) for v in res.values())
    payload["is_maurer_cartan"] = is_mc
    return Report("mc", "ok" if is_mc else "failed", payload)


def cmd_gauge(doc: ModelDocument, args) -> Report:
    from .artin import tensor_nilpotent
    from .mc import gauge_act, gauge_equivalent, irrelevant_stabilizer, mc_residue
    g = _default_dgla(doc, args)
    a = _artin_from_args(doc, args)
    ng = tensor_nilpotent(g, a)

    def element(opt, key):
        name = _named(doc, opt, key, "element")
        sp, values = doc.element(name)
        if sp.components != g.space.components:
            raise CommandError(f"element {name!r} lives on a different space")
        return ng.tensor_element(values, 0)

    if args.stabilizer:
        x = element(args.x, "seed") if (args.x or doc.default("seed")) else {}
        stab = irrelevant_stabilizer(ng, x)
        payload = {"dimension": len(stab),
                   "basis": [gvec_json(v) for v in stab]}
        return Report("gauge", "ok", payload)
    if args.equiv:
        x = element(args.x, "seed") if (args.x or doc.default("seed")) else {}
        y = element(args.y, "seed") if args.y else {}
        res = gauge_equivalent(ng, x, y)
        payload = {"decision": res.status}
        if res.alpha is not None:
            payload["alpha"] = gvec_json(res.alpha)
        status = {"equivalent": "ok", "not_equivalent": "failed",
                  "inconclusive": "inconclusive"}[res.status]
        return Report("gauge", status, payload)
    # default: act
    alpha = element(args.alpha, "alpha") if (args.alpha or doc.default("alpha")) else {}
    x = element(args.x, "seed") if (args.x or doc.default("seed")) else {}
    y = gauge_act(ng, alpha, x)
    res = mc_residue(ng, y)
    sound = all(not any(v) for v in res.values())
    return Report("gauge", "ok" if sound else "failed",
                  {"result": gvec_json(y), "residue": gvec_json(res)})


def cmd_linf_check(doc: ModelDocument, args) -> Report:
    from .convolution import DEFAULT_ARITY, convolution, linf_residual, taylor_from_linear
    g = _default_dgla(doc, args)
    target_name = args.target or doc.default("target") or _named(doc, args.dgla, "dgla", "dgla")
    h = doc.dgla(target_name) if (target_name in doc.section("dglas")
                                  or target_name in doc.section("end_dglas")) else g
    map_name = _named(doc, args.map, "section", "map")
    f = doc.map(map_name)
    conv = convolution(g, h)
    residuals = linf_residual(g, conv, taylor_from_linear(g, conv, f))
    payload = {"arity_bound": DEFAULT_ARITY,
               "residual_arities": {str(n): True for n in residuals}}
    ok = not residuals
    return Report("linf-check", "ok" if ok else "failed", payload)


def _contraction(doc: ModelDocument, args):
    name = _named(doc, args.contraction, "contraction", "contraction family")
    return doc.contraction(name)


def cmd_cartan_check(doc: ModelDocument, args) -> Report:
    from .period import contraction_cartan
    t, omega, end, i = _contraction(doc, args)
    filt = None
    fname = args.filtration or doc.default("filtration")
    if fname:
        filt = doc.filtration(fname)
    cc = contraction_cartan(omega, t, i, filt, end)
    payload = _report_json(cc.report)
    return Report("cartan-check", "ok" if cc.report.ok else "failed", payload)


def cmd_transport(doc: ModelDocument, args) -> Report:
    from .cartan import gauge_zero_transport
    from .convolution import DEFAULT_ARITY, convolution, linear_part, taylor
    arity = _positive(args.arity, DEFAULT_ARITY, "arity")
    t, omega, end, i = _contraction(doc, args)
    conv = convolution(t, end.dgla, arity)
    total = gauge_zero_transport(t, conv, i)
    l = linear_part(t, conv, total, 0)
    rep = validate_morphism(DglaMorphism(t, end.dgla, l))
    nonzero = sorted(taylor(t, conv, total))
    strict = nonzero in ([], [1])
    payload = {
        "arity_bound": arity,
        "nonzero_arities": nonzero,
        "strict": strict,
        "linear_part": {str(d): matrix_json(l.block(d))
                        for d in t.space.degrees if any(any(r) for r in l.block(d))},
        "linear_part_is_morphism": rep.ok,
    }
    status = "ok" if strict and rep.ok else "failed"
    return Report("transport", status, payload)


def cmd_holim(doc: ModelDocument, args) -> Report:
    from .holim import holim_cohomology_bounded, holim_pair, quasi_abelian_witness
    tdeg = _positive(args.tdeg, 2, "tdeg")
    g = _default_dgla(doc, args)
    sub_name = _named(doc, args.sub, "sub", "sub-dgla")
    n = doc.sub_dgla(sub_name)
    if n.parent is not g:
        raise ModelError(f"/subdglas/{sub_name}/dgla",
                         f"sub-dgla {sub_name!r} is declared on dgla "
                         f"{doc.section('subdglas')[sub_name]['dgla']!r}, not on "
                         f"{args.dgla or doc.default('dgla')!r}")
    pair = holim_pair(g, n)
    if args.witness or (args.section and not args.cohomology):
        section = doc.map(_named(doc, args.section, "section", "section"))
        witness = quasi_abelian_witness(pair, section, tdeg)
        payload = {"tdeg": tdeg,
                   "source_ranks": {str(d): r for d, r in sorted(witness.source_ranks.items())},
                   "holim_ranks": {str(d): r for d, r in sorted(witness.holim_ranks.items())},
                   "is_isomorphism": witness.is_isomorphism}
        return Report("holim", "ok" if witness.is_isomorphism else "failed", payload)
    res = holim_cohomology_bounded(pair, tdeg)
    payload = {"tdeg": tdeg,
               "ranks": {str(d): r for d, r in sorted(res.ranks.items())},
               "quotient_shifted_ranks": {str(d): r for d, r in sorted(res.quotient_ranks.items())},
               "projection_ranks": {str(d): r for d, r in sorted(res.projection_ranks.items())},
               "agree": res.agree}
    return Report("holim", "ok" if res.agree else "failed", payload)


def cmd_period(doc: ModelDocument, args) -> Report:
    from .period import contraction_cartan, period_differential
    t, omega, end, i = _contraction(doc, args)
    fname = _named(doc, args.filtration, "filtration", "filtration")
    filt = doc.filtration(fname)
    cc = contraction_cartan(omega, t, i, filt, end)
    if not cc.report.ok:
        return Report("period", "failed", _report_json(cc.report))
    pd = period_differential(cc, filt)
    flag = pd.flag
    payload = {
        "h_source_rank": pd.source_rank,
        "end_levels": pd.endspace.levels,
        "end_dimension": pd.endspace.dimension,
        "matrix": matrix_json(pd.matrix) if pd.matrix else [],
        "families": [
            {f"{p},{deg}": matrix_json(block) for (p, deg), block in sorted(fam.items())}
            for fam in pd.families
        ],
    }
    return Report("period", "ok", payload)


_COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "mc": cmd_mc,
    "gauge": cmd_gauge,
    "linf-check": cmd_linf_check,
    "cartan-check": cmd_cartan_check,
    "transport": cmd_transport,
    "holim": cmd_holim,
    "period": cmd_period,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="deforma",
                                description="exact deformation-theoretic calculus")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--model", help="model file path or shipped fixture name (F1..F7)")
    p.add_argument("--arity", type=int, help="arity truncation bound (default 4)")
    p.add_argument("--tdeg", type=int, help="polynomial t-degree bound for holim")
    p.add_argument("--artin", help="Artin coefficients: k,N for K[e1..ek]/m^N")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--dgla", help="named dgla to use (default from model)")
    p.add_argument("--seed", help="named element: Maurer-Cartan seed / x")
    p.add_argument("--alpha", help="named element: gauge parameter")
    p.add_argument("--x", help="named element (gauge commands)")
    p.add_argument("--y", help="named element (gauge --equiv)")
    p.add_argument("--map", help="named linear map (linf-check)")
    p.add_argument("--target", help="named target dgla (linf-check)")
    p.add_argument("--sub", help="named sub-dgla (holim)")
    p.add_argument("--section", help="named section map (holim --witness)")
    p.add_argument("--contraction", help="named contraction family")
    p.add_argument("--filtration", help="named filtration")
    p.add_argument("--extend", action="store_true", help="mc: extend order by order")
    p.add_argument("--cohomology", action="store_true", help="holim: bounded ranks")
    p.add_argument("--witness", action="store_true", help="holim: quasi-abelian witness")
    p.add_argument("--equiv", action="store_true", help="gauge: decide equivalence")
    p.add_argument("--stabilizer", action="store_true", help="gauge: irrelevant stabilizer")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = parse_model(_resolve_model(args.model))
        report = _COMMANDS[args.command](doc, args)
    except ModelError as exc:
        report = Report(args.command, "invalid",
                        {"error": exc.message, "location": exc.pointer})
        sys.stdout.buffer.write(report_emit(report, args.format))
        return EXIT_BAD_INPUT
    except CommandError as exc:
        report = Report(args.command, "invalid", {"error": str(exc)})
        sys.stdout.buffer.write(report_emit(report, args.format))
        return EXIT_BAD_INPUT
    except StructuralError as exc:
        report = Report(args.command, "failed", {"error": str(exc)})
        sys.stdout.buffer.write(report_emit(report, args.format))
        return EXIT_CHECK_FAILED
    sys.stdout.buffer.write(report_emit(report, args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
