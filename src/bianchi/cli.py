"""Command line front end for the whole pipeline.

Every command writes one JSON document to stdout (or --out) and keeps logs
on stderr.  Exit codes: 0 on success, 2 on bad arguments or precondition
failures, 3 when a requested verification fails.  Levels are written either
as an element string together with --d, or combined as "d=1,n=2+1w".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import click

from . import verify as checks
from .boundary import cuspidal_subspace
from .fourier import (
    DualFunctional,
    FourierTable,
    H3Point,
    eval_series,
    fourier_coefficients,
    seed_from_vector,
)
from .hecke import commute_check, eigensystems, hecke_on_manin, hecke_oracle
from .heilbronn import heilbronn_classes, heilbronn_family, telescoping_ok
from .linalg import full_space, rational_eigensystem
from .quadints import Field, QuadInt, gcd, parse_element
from .symbols import cusp_count, symbol_space

_LEVEL_SPEC = re.compile(r"^d=(\d+),n=(.+)$")


def _get_field(d: int) -> Field:
    try:
        return Field.get(d)
    except (KeyError, ValueError):
        raise click.UsageError(f"--d must be one of 1, 2, 3, 7, 11, not {d}")


def _field_and_level(d: int | None, level: str) -> tuple[Field, QuadInt]:
    m = _LEVEL_SPEC.match(level.strip())
    if m:
        got = int(m.group(1))
        if d is not None and d != got:
            raise click.UsageError(f"--d {d} conflicts with level spec d={got}")
        d, level = got, m.group(2)
    if d is None:
        raise click.UsageError("--d is required when the level is a bare element")
    fld = _get_field(d)
    try:
        return fld, parse_element(fld, level)
    except ValueError as exc:
        raise click.UsageError(f"--level {level!r}: {exc}")


def _element(fld: Field, text: str, flag: str) -> QuadInt:
    try:
        return parse_element(fld, text)
    except ValueError as exc:
        raise click.UsageError(f"{flag} {text!r}: {exc}")


def _parse_point(z_text: str, t: float) -> H3Point:
    try:
        z = complex(z_text.strip().replace("i", "j"))
    except ValueError:
        raise click.UsageError(f"--z {z_text!r}: expected something like 0.1+0.2i")
    try:
        return H3Point(z, t)
    except ValueError as exc:
        raise click.UsageError(f"--t {t}: {exc}")


def _vec_json(v: dict | None):
    if v is None:
        return None
    return [[i, str(c)] for i, c in sorted(v.items())]


def _emit(payload: dict, out: Path | None, indent: int) -> None:
    text = json.dumps(payload, indent=indent if indent >= 0 else None, sort_keys=True)
    if out is None:
        click.echo(text)
    else:
        out.write_text(text + "\n")
        click.echo(f"wrote {out}", err=True)


def io_options(f):
    f = click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
                     default=None, help="write the JSON document here instead of stdout")(f)
    f = click.option("--json-indent", type=int, default=2, show_default=True,
                     help="indentation for the JSON output, negative for compact")(f)
    return f


def level_options(f):
    f = click.option("--d", type=int, default=None, help="field tag, one of 1, 2, 3, 7, 11")(f)
    f = click.option("--level", default="1", show_default=True,
                     help='level generator "a+bw", or combined "d=1,n=a+bw"')(f)
    return f


@click.group()
def main() -> None:
    """Modular symbols and Fourier expansions over the Euclidean imaginary
    quadratic fields."""


@main.command()
@level_options
@click.option("--weight", type=int, default=2, show_default=True)
@click.option("--full", is_flag=True, help="include the basis coordinates of every generator")
@io_options
def space(d, level, weight, full, out, json_indent):
    """Report the symbol space at one level: sizes, dimensions, generators."""
    fld, nu = _field_and_level(d, level)
    try:
        sp = symbol_space(fld, nu, weight)
    except ValueError as exc:
        raise click.UsageError(f"--weight {weight}: {exc}")
    npts = len(sp.points)
    gens = []
    for g in sp.free_gens:
        comp, pt = divmod(g, npts)
        u, v = sp.points[pt]
        gens.append({"index": g, "point": [str(u), str(v)], "component": comp})
    payload = {
        "d": fld.d,
        "level": str(nu),
        "weight": weight,
        "points": npts,
        "dim": sp.dim,
        "cuspidal_dim": cuspidal_subspace(sp).dim,
        "cusps": cusp_count(sp),
        "free_generators": gens,
    }
    if full:
        payload["basis_coordinates"] = {str(g): _vec_json(sp.gen_map[g])
                                        for g in range(len(sp.gen_map))}
    _emit(payload, out, json_indent)


@main.command()
@click.option("--d", type=int, required=True)
@click.option("--eta", "eta_text", required=True, help="determinant, an element string")
@click.option("--tie", type=click.Choice(["low", "high"]), default="low", show_default=True)
@click.option("--verify", "check_it", is_flag=True, help="certify the telescoping condition")
@io_options
@click.pass_context
def heilbronn(ctx, d, eta_text, tie, check_it, out, json_indent):
    """Generate the determinant-eta family, optionally certified."""
    fld = _get_field(d)
    eta = _element(fld, eta_text, "--eta")
    if eta.is_zero():
        raise click.UsageError("--eta must be nonzero")
    fam = heilbronn_family(eta, tie)
    payload = {
        "d": fld.d,
        "eta": str(eta),
        "tie": tie,
        "count": len(fam),
        "classes": len(heilbronn_classes(eta, tie)),
        # always "off" (families are regenerated, never read from disk); the
        # field stays because perfbench pins the sha256 of these bytes
        "cache": "off",
        "matrices": [[str(e) for e in m.entries()] for m in fam],
    }
    if check_it:
        ok = telescoping_ok(eta, tie)
        payload["telescoping"] = ok
        if not ok:
            _emit(payload, out, json_indent)
            click.echo("telescoping certificate failed", err=True)
            ctx.exit(3)
    _emit(payload, out, json_indent)


@main.command()
@level_options
@click.option("--eta", "eta_text", required=True)
@click.option("--weight", type=int, default=2, show_default=True)
@click.option("--tie", type=click.Choice(["low", "high"]), default="low", show_default=True)
@click.option("--oracle", is_flag=True, help="recompute from coset representatives and compare")
@click.option("--commute-with", "others", multiple=True,
              help="check commutation against these determinants")
@io_options
@click.pass_context
def hecke(ctx, d, level, eta_text, weight, tie, oracle, others, out, json_indent):
    """One Hecke operator on the quotient, with optional oracle and
    commutation reports."""
    fld, nu = _field_and_level(d, level)
    eta = _element(fld, eta_text, "--eta")
    try:
        sp = symbol_space(fld, nu, weight)
        op = hecke_on_manin(sp, eta, tie)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    cusp = cuspidal_subspace(sp)
    eigs, residual = rational_eigensystem(op.cuspidal_matrix, full_space(cusp.dim))
    payload = {
        "d": fld.d,
        "level": str(nu),
        "eta": str(eta),
        "weight": weight,
        "dim": sp.dim,
        "cuspidal_dim": cusp.dim,
        "matrix": op.matrix.to_json(),
        "cuspidal_matrix": op.cuspidal_matrix.to_json(),
        "cuspidal_eigenvalues": [[str(val), sub.dim] for val, sub in eigs],
        "irrational_residual": [int(c) for c in residual],
    }
    failed = False
    if oracle:
        ref = hecke_oracle(sp, eta)
        agrees = ref.matrix == op.matrix and ref.cuspidal_matrix == op.cuspidal_matrix
        payload["oracle_agrees"] = agrees
        failed = failed or not agrees
    if others:
        report = {}
        for text in others:
            other = _element(fld, text, "--commute-with")
            try:
                op2 = hecke_on_manin(sp, other, tie)
            except ValueError as exc:
                raise click.UsageError(f"--commute-with {text!r}: {exc}")
            report[str(other)] = commute_check(op, op2)
        payload["commutes"] = report
        failed = failed or not all(report.values())
    _emit(payload, out, json_indent)
    if failed:
        click.echo("verification failed", err=True)
        ctx.exit(3)


def _eta_list(fld: Field, nu: QuadInt, texts: tuple[str, ...], count: int) -> list[QuadInt]:
    if texts:
        etas = [_element(fld, t, "--eta") for t in texts]
        for e in etas:
            if e.is_zero() or not gcd(e, nu).is_unit():
                raise click.UsageError(f"--eta {e}: must be nonzero and coprime to the level")
        return etas
    try:
        return checks._coprime_etas(fld, nu, count)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _systems_payload(table) -> dict:
    return {
        "etas": [str(e) for e in table.etas],
        "systems": [
            {
                "label": s.label,
                "dim": s.dim,
                "eigenvalues": {str(e): str(v) for e, v in s.eigenvalues.items()},
                "vector": _vec_json(s.vector),
                "functional": _vec_json(s.functional),
            }
            for s in table.systems
        ],
        "irrational_residuals": [
            {"eta": str(e), "coeffs": [int(c) for c in poly]}
            for e, poly in table.residual_factors
        ],
    }


@main.command()
@level_options
@click.option("--eta", "eta_texts", multiple=True,
              help="operators to refine through; default picks small coprime ones")
@click.option("--eta-count", type=int, default=8, show_default=True)
@io_options
def eigen(d, level, eta_texts, eta_count, out, json_indent):
    """Simultaneous rational eigensystems of the cuspidal Hecke action."""
    fld, nu = _field_and_level(d, level)
    sp = symbol_space(fld, nu, 2)
    etas = _eta_list(fld, nu, eta_texts, eta_count)
    table = eigensystems(sp, etas)
    payload = {
        "d": fld.d,
        "level": str(nu),
        "weight": 2,
        "cuspidal_dim": cuspidal_subspace(sp).dim,
    }
    payload.update(_systems_payload(table))
    _emit(payload, out, json_indent)


def _rational_form(fld: Field, nu: QuadInt, eta_texts, eta_count, label):
    sp = symbol_space(fld, nu, 2)
    table = eigensystems(sp, _eta_list(fld, nu, eta_texts, eta_count))
    picked = [s for s in table.systems if s.vector is not None
              and (label is None or s.label == label)]
    if not picked:
        raise click.UsageError(
            "no one-dimensional rational eigensystem"
            + (f" labelled {label!r}" if label else "") + " at this level")
    s = picked[0]
    phi = DualFunctional(sp, s.functional)
    x = seed_from_vector(sp, s.vector)
    return sp, s, phi, x


@main.command()
@level_options
@click.option("--norm-bound", type=int, default=40, show_default=True)
@click.option("--eta", "eta_texts", multiple=True)
@click.option("--eta-count", type=int, default=8, show_default=True)
@click.option("--system", "label", default=None, help="eigensystem label, defaults to the first")
@click.option("--tie", type=click.Choice(["low", "high"]), default="low", show_default=True)
@io_options
def fourier(d, level, norm_bound, eta_texts, eta_count, label, tie, out, json_indent):
    """Fourier coefficient table of a rational eigenform, as slash sums."""
    fld, nu = _field_and_level(d, level)
    sp, system, phi, x = _rational_form(fld, nu, eta_texts, eta_count, label)
    click.echo(f"system {system.label}, table up to norm {norm_bound}", err=True)
    table = fourier_coefficients(phi, x, norm_bound, tie)
    _emit(table.to_json(), out, json_indent)


@main.command(name="eval")
@level_options
@click.option("--z", "z_text", required=True, help='complex coordinate, e.g. "0.1+0.2i"')
@click.option("--t", type=float, required=True, help="height coordinate, positive")
@click.option("--table", "table_path", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              default=None, help="reuse a coefficient table written by the fourier command")
@click.option("--norm-bound", type=int, default=40, show_default=True)
@click.option("--eta", "eta_texts", multiple=True)
@click.option("--eta-count", type=int, default=8, show_default=True)
@click.option("--system", "label", default=None)
@click.option("--tie", type=click.Choice(["low", "high"]), default="low", show_default=True)
@io_options
def eval_cmd(d, level, z_text, t, table_path, norm_bound, eta_texts, eta_count,
             label, tie, out, json_indent):
    """Evaluate the truncated series at one point of the upper half space."""
    if table_path is not None:
        doc = json.loads(table_path.read_text())
        fld, nu = _field_and_level(doc["d"], doc["level"])
        sp = symbol_space(fld, nu, 2)
        entries = {}
        for item in doc["a"]:
            alpha = _element(fld, item["alpha"], "--table alpha")
            entries[alpha] = Fraction(item["re"])
        table = FourierTable(sp, doc["norm_bound"], entries,
                             entries.get(fld.one, Fraction(0)))
    else:
        fld, nu = _field_and_level(d, level)
        sp, _, phi, x = _rational_form(fld, nu, eta_texts, eta_count, label)
        table = fourier_coefficients(phi, x, norm_bound, tie)
    w = _parse_point(z_text, t)
    (f0, f1, f2), tail = eval_series(table, w)
    payload = {
        "d": table.space.field.d,
        "level": str(table.space.level),
        "norm_bound": table.norm_bound,
        "z": [w.z.real, w.z.imag],
        "t": w.t,
        "components": [[c.real, c.imag] for c in (f0, f1, f2)],
        "tail_estimate": tail,
    }
    _emit(payload, out, json_indent)


@main.command()
@click.option("--quick", is_flag=True, help="reduced budgets, finishes in a few seconds")
@click.option("--check", "names", multiple=True,
              help=f"run only these checks; available: {', '.join(checks.CHECKS)}")
@click.option("--inject-corruption", is_flag=True,
              help="negative control: corrupt one matrix and expect detection")
@io_options
@click.pass_context
def verify(ctx, quick, names, inject_corruption, out, json_indent):
    """Run the cross-check suite and report machine-readable pass/fail."""
    if inject_corruption:
        result = checks.check_telescoping(inject=True)
        payload = {"checks": [result.to_json()], "ok": result.ok}
        _emit(payload, out, json_indent)
        if not result.ok:
            ctx.exit(3)
        return
    try:
        results = checks.run_suite(
            names=list(names) or None, quick=quick,
            progress=lambda n: click.echo(f"running {n}", err=True))
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0]))
    payload = {"checks": [r.to_json() for r in results],
               "ok": all(r.ok for r in results)}
    _emit(payload, out, json_indent)
    for r in results:
        click.echo(f"{'ok  ' if r.ok else 'FAIL'} {r.name} ({r.seconds:.2f}s)", err=True)
    if not payload["ok"]:
        ctx.exit(3)


if __name__ == "__main__":
    main()
