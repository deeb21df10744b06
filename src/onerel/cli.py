"""Command-line interface.

Every subcommand builds a report dictionary; ``--json`` prints it as
deterministic JSON (schema 1, sorted keys, no volatile fields), otherwise a
plain-text rendering goes to stdout.  Exit status: 0 success, 1 domain or
input error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

from .bsverify import qn_report
from .covers import build_cover_complex, homology, weinbaum_scan
from .domains import parse_domain
from .errors import InputError, UnsupportedError
from .foxcalc import QuotientMap, fox_derivative, resolution_complex
from .graphs import Graph, NotApplicable, lift_cycle
from .groupring import GroupRingElement, engulfing_search_finite, \
    unique_products_check
from .hierarchy import build_hierarchy, number_lemma_check
from .oracles import FreeOracle, ModOracle, ZPowOracle
from .presentations import load_presentation, parse_quotient, parse_word, parse_words
from .trapezoid import StaircaseCertificate, certify_diagonal, find_staircase

SCHEMA = 1


def _integer(text, what):
    """``int(text)``, refused as an :class:`InputError` naming the token."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} {text.strip()!r} is not an integer") from None


def _finite_quotient(pres, args):
    """The permutation quotient of ``--quotient``, the file's stanza, or one point."""
    if args.quotient:
        return QuotientMap.permutation(pres, parse_quotient(args.quotient, pres.names))
    if pres.quotient_images is not None:
        return QuotientMap.permutation(pres)
    return QuotientMap.permutation(pres, {name: (0,) for name in pres.names})


def _quotient_map(pres, args):
    if args.abelianize or pres.abelianize_requested:
        return QuotientMap.abelianization(pres)
    if args.to_abelian:
        images = {}
        for chunk in args.to_abelian.split(","):
            name, _, value = chunk.partition("=")
            index = pres.gen_index(name.strip())
            if index in images:
                raise InputError(f"--to-abelian names generator {name.strip()!r} twice")
            images[index] = _integer(value, "image")
        return QuotientMap.to_abelian(pres, images)
    if args.quotient or pres.quotient_images is not None:
        return _finite_quotient(pres, args)
    return QuotientMap.trivial(pres)


# -- subcommand handlers -------------------------------------------------------


def _cmd_fox(args):
    pres = load_presentation(args.file)
    w = parse_word(args.word, pres.names)
    idx = pres.gen_index(args.gen)
    d = fox_derivative(w, idx, FreeOracle(pres.names), parse_domain(args.ring))
    payload = {
        "word": w.render(pres.names),
        "generator": args.gen,
        "derivative": d.render(),
    }
    return payload, lambda: payload["derivative"]


def _cmd_jacobian(args):
    pres = load_presentation(args.file)
    phi = _quotient_map(pres, args)
    comp = resolution_complex(pres, phi, parse_domain(args.ring))
    rows = comp.d2.render_rows()

    def text():
        return "\n".join(f"{label}: [" + ", ".join(row) + "]"
                         for label, row in zip(comp.d2.row_labels, rows)) or "(no relators)"
    return {
        "quotient_kind": phi.kind,
        "rows": rows,
        "row_labels": comp.d2.row_labels,
        "col_labels": comp.d2.col_labels,
        "d1": [e.render() for e in comp.d1],
        "composite_zero": True,
    }, text


def _cmd_complex(args):
    pres = load_presentation(args.file)
    q = _finite_quotient(pres, args)
    domain = parse_domain(args.ring)
    c = build_cover_complex(pres, q, domain)
    h = homology(c)
    degree, order = q.oracle.degree, c.order
    payload = {
        "degree": degree,
        "group_order": order,
        "transitive": q.oracle.is_transitive(),
        "shape": dict(zip(("d2_rows", "edges", "vertices"), c.shape)),
        "composite_zero": True,    # build_cover_complex verified it
        "homology": {
            "h0_free_rank": h.h0_free_rank, "h0_torsion": h.h0_torsion,
            "h1_free_rank": h.h1_free_rank, "h1_torsion": h.h1_torsion,
        },
        # all rows generate the cycle lattice ker d1 exactly when H1 = 0
        "generation_full_rows": h.h1_free_rank == 0 and not h.h1_torsion,
    }
    if args.triplets:
        with open(args.triplets, "w", encoding="utf-8") as fh:
            fh.write(c.to_triplet_text() + "\n")
        payload["triplets_file"] = args.triplets
    return payload, lambda: (
        f"cover of degree {degree}, group order {order}\n"
        f"composite is zero: {payload['composite_zero']}\n"
        f"{h.render()}\n"
        f"full rows generate the cycle lattice: {payload['generation_full_rows']}")


def _cmd_trapezoid(args):
    pres = load_presentation(args.file)
    phi = _quotient_map(pres, args)
    domain = parse_domain(args.ring)
    matrix = resolution_complex(pres, phi, domain).d2
    result = find_staircase(matrix, allow_row_permutation=not args.row_fixed,
                            cap=args.cap)
    if not isinstance(result, StaircaseCertificate):
        return {"staircase": None, "mode": result.mode,
                "reason": result.reason}, lambda: f"impossible: {result.reason}"
    payload = {"staircase": {"rows": list(result.rows), "cols": list(result.cols),
                             "diag": list(result.diag)}}
    if args.certify:
        report = certify_diagonal(matrix, result, strategy=args.certify)
        payload["diagonal"] = [
            {"status": rep.status,
             "witness": rep.witness.render() if rep.witness else None}
            for rep in report.certificates]
        payload["all_non_engulfing"] = report.all_non_engulfing
    return payload, lambda: result.render() + (
        f"\nall diagonal entries non-engulfing: {payload['all_non_engulfing']}"
        if args.certify else "")


def _node_payload(node):
    out = {
        "presentation": {
            "gens": node.presentation.names,
            "rels": [w.render(node.presentation.names)
                     for w in node.presentation.relators],
        },
        "status": node.status,
        "edge": node.edge_kind,
    }
    if node.status == "free":
        out["free_rank"] = node.free_rank
    if node.status == "cyclic":
        out["cyclic_order"] = node.cyclic_order
    if node.edge_kind == "hnn":
        step = node.edge_data
        out["hnn"] = {
            "phi": list(step.phi.values),
            "window": list(step.window),
            "relator": step.relator_word.render(step.base.names),
            "stable_letter": step.stable_letter,
        }
    out["children"] = [_node_payload(ch) for ch in node.children]
    return out


def _cmd_hierarchy(args):
    pres = load_presentation(args.file)
    parse_domain(args.ring)     # checked only: the hierarchy takes no coefficients
    tree = build_hierarchy(pres, max_depth=args.max_depth)
    return {"tree": _node_payload(tree.root), "depth": tree.depth(),
            "leaves": [n.status for n in tree.leaves()]}, tree.render


def _cmd_seqcheck(args):
    values = [_integer(v, "sequence value") for v in args.seq.split(",")]
    verdict = number_lemma_check(args.a, args.b, values)
    return {"a": args.a, "b": args.b, "seq": values,
            "verdict": verdict.kind, "index": verdict.index,
            "sum": verdict.total}, verdict.render


def _make_oracle(spec):
    """The oracle of ``spec`` and a parser of a list of its element texts.

    The words of a free group share one letter budget.
    """
    spec = spec.strip()
    if spec in ("z", "Z"):
        return ZPowOracle(1), lambda texts: [(_integer(s, "element"),) for s in texts]
    if spec in ("z2", "Z2"):
        return ZPowOracle(2), lambda texts: [
            tuple(_integer(x, "element") for x in s.split(":")) for s in texts]
    if spec.startswith("mod:"):
        oracle = ModOracle(_integer(spec[4:], "modulus"))
        return oracle, lambda texts: [_integer(s, "element") % oracle.n for s in texts]
    if spec.startswith("free:"):
        names = [n.strip() for n in spec[5:].split("+")]
        oracle = FreeOracle(names)
        return oracle, lambda texts: parse_words(texts, names)
    raise InputError(f"unknown oracle spec {spec!r} "
                     "(use z, z2, mod:N or free:a+b)")


def _cmd_upcheck(args):
    oracle, parse = _make_oracle(args.oracle)
    a_texts = [s for s in args.A.split(",") if s.strip()]
    elements = parse(a_texts + [s for s in args.B.split(",") if s.strip()])
    A, B = elements[:len(a_texts)], elements[len(a_texts):]
    report = unique_products_check(oracle, A, B, args.k, args.side)
    payload = {
        "oracle": args.oracle, "k": args.k, "side": args.side,
        "product_count": report.product_count,
        "unique_count": len(report.unique_products),
        "distinct_factor_count": report.distinct_factor_count,
        "verdict": report.verdict,
    }
    return payload, lambda: (f"verdict: {report.verdict} "
                             f"({len(report.unique_products)} uniquely represented, "
                             f"{report.distinct_factor_count} distinct factors)")


def _required(value, message):
    """``value`` of an optional flag, refused as an :class:`InputError` if omitted."""
    if value is None:
        raise InputError(message)
    return value


def _cmd_engulf(args):
    if args.cyclic is not None:
        oracle = ModOracle(args.cyclic)
        domain = parse_domain(args.field)
        coeffs = [_integer(c, "coefficient")
                  for c in _required(args.coeffs, "--cyclic needs --coeffs").split(",")]
        m = GroupRingElement(oracle, domain,
                             [(i % oracle.n, c) for i, c in enumerate(coeffs)])
    else:
        pres = load_presentation(_required(args.file, "engulf needs --file or --cyclic"))
        q = _finite_quotient(pres, args)
        domain = parse_domain(args.field)
        chunks = [chunk.rpartition(":") for chunk in
                  _required(args.terms, "--file needs --terms").split(";") if chunk.strip()]
        words = parse_words([word_text.strip() for word_text, _, _ in chunks], pres.names)
        terms = [(q.apply(w), _integer(coeff, "coefficient"))
                 for w, (_, _, coeff) in zip(words, chunks)]
        oracle = q.oracle
        m = GroupRingElement(oracle, domain, terms)
    report = engulfing_search_finite(m, side=args.side)
    payload = {
        "element": m.render(), "side": args.side, "status": report.status,
        "witness": report.witness.render() if report.witness else None,
        "kernel_dimension": report.kernel_dimension,
    }
    return payload, lambda: (
        f"WitnessFound: {payload['witness']}" if report.witness
        else f"NoneExists (solution space dimension {report.kernel_dimension})")


def _cmd_weinbaum(args):
    pres = load_presentation(args.file)
    parse_domain(args.ring)     # checked only: the scan takes no coefficients
    q = _finite_quotient(pres, args)
    if not 0 <= args.relator < len(pres.relators):
        raise InputError(f"relator index {args.relator} out of range")
    w = pres.relators[args.relator]
    scan = weinbaum_scan(w, q)
    statuses = [{"subword": s.subword.render(pres.names), "status": s.status,
                 "image": s.image} for s in scan]
    certified = sum(1 for s in scan if s.status == "NontrivialCertified")
    payload = {"relator": w.render(pres.names), "subwords": statuses,
               "certified": certified, "total": len(scan)}
    return payload, lambda: "\n".join(
        f"{s['subword']}: {s['status']} (image {s['image']})"
        for s in statuses) + f"\ncertified {certified} of {len(scan)}"


def _cmd_lift(args):
    with open(args.graph, encoding="utf-8") as fh:
        graph = Graph.from_edge_list(fh.read())
    h_edges = [e.strip() for e in args.h_edges.split(",") if e.strip()]
    chain = {}
    for chunk in args.cycle.split(","):
        label, _, coeff = chunk.rpartition(":")
        if label.strip() in chain:
            raise InputError(f"--cycle names edge {label.strip()!r} twice")
        chain[label.strip()] = _integer(coeff, "coefficient")
    domain = parse_domain(args.ring)
    result = lift_cycle(graph, h_edges, chain, domain)
    if isinstance(result, NotApplicable):
        return {"applicable": False, "reason": result.reason}, \
            lambda: f"not applicable: {result.reason}"
    walk = [(graph.label(e), s) for e, s in result.cycle_walk]
    payload = {
        "applicable": True,
        "cycle": [[lab, s] for lab, s in walk],
        "unit": str(result.unit),
        "k_coefficients": [str(c) for c in result.k_coefficients],
        "verified": result.verified,
    }
    return payload, lambda: (
        "embedded cycle: " + " ".join(lab if s > 0 else f"{lab}^-1" for lab, s in walk) +
        f"\nunit: {result.unit}\nre-verified: {result.verified}")


def _cmd_verify_example(args):
    report = qn_report(args.n)
    return report, lambda: (f"{report['relator']}  =>  {report['rearranged']}\n"
                            f"{report['identity']}: {report['verdict']}")


# -- the subcommand table -------------------------------------------------------

_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_SWITCH = {"action": "store_true"}
_JSON = ("--json", _SWITCH)
_QUOTIENT = ("--quotient", {"help": "inline permutation images"})
# --file, --json and --ring of the subcommands that read a presentation file
_PRESENTATION = (("--file", {"required": True, "help": "presentation file"}),
                 ("--json", {"action": "store_true", "help": "JSON output"}),
                 ("--ring", {"default": "Z", "help": "coefficient domain (Z, Q, p)"}))

# name -> (handler, help, flags as (flag, add_argument kwargs) in usage order)
_SUBCOMMANDS = {
    "fox": (_cmd_fox, "Fox derivative of a word", _PRESENTATION + (
        ("--word", _REQUIRED), ("--gen", _REQUIRED))),
    "jacobian": (_cmd_jacobian, "derivative matrix of the relators", _PRESENTATION + (
        ("--abelianize", _SWITCH),
        ("--to-abelian", {"help": "explicit Z images, e.g. a=3,b=2"}),
        _QUOTIENT)),
    "complex": (_cmd_complex, "finite-cover chain complex and homology", _PRESENTATION + (
        _QUOTIENT, ("--triplets", {"help": "write matrices as sparse triplets"}))),
    "trapezoid": (_cmd_trapezoid, "staircase search on the derivative matrix",
                  _PRESENTATION + (
                      ("--abelianize", _SWITCH), ("--to-abelian", {}), ("--quotient", {}),
                      ("--row-fixed", _SWITCH), ("--cap", {"type": int, "default": 12}),
                      ("--certify", {"choices": ["orderedOracle", "finiteSearch"]}))),
    "hierarchy": (_cmd_hierarchy, "iterated splitting tree", _PRESENTATION + (
        ("--max-depth", {"type": int, "default": None}),)),
    "seqcheck": (_cmd_seqcheck, "coprime-pair sequence alternative", (
        ("--a", _REQUIRED_INT), ("--b", _REQUIRED_INT),
        ("--seq", {"required": True, "help": "comma-separated values"}), _JSON)),
    "upcheck": (_cmd_upcheck, "k-unique-products check", (
        ("--oracle", {"required": True, "help": "z, z2, mod:N or free:a+b"}),
        ("--A", _REQUIRED), ("--B", _REQUIRED), ("--k", {"type": int, "default": 2}),
        ("--side", {"choices": ["plain", "left", "right"], "default": "plain"}), _JSON)),
    "engulf": (_cmd_engulf, "finite engulfing-witness search", (
        ("--file", {}), ("--quotient", {}),
        ("--terms", {"help": "word:coeff pairs separated by ;"}),
        ("--cyclic", {"type": int, "help": "use Z/n with --coeffs"}),
        ("--coeffs", {"help": "coefficients of 1, g, g^2, ..."}),
        ("--field", {"default": "Q", "help": "Q or a prime p"}),
        ("--side", {"choices": ["left", "right"], "default": "left"}), _JSON)),
    "weinbaum": (_cmd_weinbaum, "certify proper subwords nontrivial", _PRESENTATION + (
        ("--quotient", {}), ("--relator", {"type": int, "default": 0}))),
    "lift": (_cmd_lift, "embedded-cycle lifting in a graph", (
        ("--graph", {"required": True, "help": "edge-list file"}),
        ("--h-edges", {"required": True, "help": "designated edge labels"}),
        ("--cycle", {"required": True, "help": "label:coeff pairs"}),
        ("--ring", {"default": "Z"}), _JSON)),
    "verify-example": (_cmd_verify_example, "commutator-power matrix identity", (
        ("--n", _REQUIRED_INT), _JSON)),
}


@functools.cache
def build_parser():
    """The parser of every subcommand and its flags, built once per process.

    The tree depends on no input, and argparse reads ``COLUMNS`` when it
    formats help and usage, not when it builds them.  Every caller gets the
    same parser, so callers only parse with it.
    """
    parser = argparse.ArgumentParser(
        prog="onerel",
        description="Exact computations for one-relator presentations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def _run(args):
    """(exit status, report dict, text) of the parsed subcommand ``args``.

    A handler returns its payload and a function that builds the text view,
    so that the text is built only without ``--json``; with it, the text is
    ``None``.
    """
    try:
        payload, text = _SUBCOMMANDS[args.command][0](args)
    except (InputError, UnsupportedError, OSError) as exc:
        return 1, {"schema": SCHEMA, "command": args.command,
                   "error": str(exc)}, f"error: {exc}"
    report = {"schema": SCHEMA, "command": args.command, "results": payload}
    return 0, report, None if args.json else text()


def dispatch(argv):
    """Run one subcommand; returns (exit status, report dict, text)."""
    return _run(build_parser().parse_args(argv))


def _write_json(value, newline, out):
    """Append the JSON of ``value`` to the list ``out``, nested at ``newline``.

    The bytes are those of ``json.dumps(value, sort_keys=True, indent=1,
    separators=(",", ": "))``: ASCII strings, each item of a non-empty list
    or object on its own line indented one space further than its bracket.
    Object keys must be strings; a value other than a string, an integer, a
    bool, ``None``, a list, a tuple or a dict raises ``TypeError``.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner, opener = newline + " ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{opener}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], inner, out)
            opener = ","
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, opener = newline + " ", "["
        for item in value:
            out.append(opener + inner)
            _write_json(item, inner, out)
            opener = ","
        out.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(report, fmt="text", text=""):
    if fmt == "json":
        out = []
        _write_json(report, "\n", out)
        out.append("\n")
        return "".join(out)
    return text + "\n"


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    status, report, text = _run(args)
    out = render(report, "json" if args.json else "text", text)
    stream = sys.stdout if status == 0 else sys.stderr
    stream.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
