"""``python -m repro.analysis.lint`` — SASS schedule linter for CI and humans.

Runs the independent schedule verifier (:mod:`repro.analysis.verify`) as a
command-line linter.  Each positional argument is either a bundled kernel
spec name (``softmax``, ``bmm``, ...) compiled at ``--scale``, or a path to
a ``.sass`` listing on disk.  Without ``--schedule`` the seed listing itself
is linted (dependence graph + scoreboard protocol audit); with
``--schedule PATH`` the listing at ``PATH`` is verified as a candidate
schedule of the (single) seed kernel.

Exit codes, linter-style::

    0   every listing is clean (no errors; warnings allowed unless --strict)
    1   at least one listing has errors (or warnings, with --strict)
    2   usage or load error (unknown kernel, unreadable file, bad arguments)

Examples::

    python -m repro.analysis.lint softmax bmm --scale test
    python -m repro.analysis.lint --all --scale test      # every registered kernel
    python -m repro.analysis.lint softmax --schedule candidate.sass --strict
    python -m repro.analysis.lint dump.sass --json
    python -m repro.analysis.lint --pressure --all        # register-pressure gate

Every listing is additionally audited for exact control-code round-trips
(rule ``V702``); ``--pressure`` adds the liveness-based register-pressure
report (error ``V601`` when the peak exceeds the register file, warning
``V602`` per dead definition).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.funcdiff import audit_control_roundtrip
from repro.analysis.liveness import pressure_report
from repro.analysis.verify import VerificationResult, seed_verifier
from repro.sass.kernel import SassKernel

#: Linter exit codes (also the CLI contract tested in ``tests/test_lint_cli.py``).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _load_seed(target: str, scale: str) -> tuple[str, SassKernel]:
    """Resolve one positional argument to ``(display name, seed kernel)``."""
    path = Path(target)
    if path.suffix == ".sass" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise SystemExit(f"lint: cannot read {target!r}: {exc}") from exc
        return path.name, SassKernel.from_text(text)
    # Spec names: import the bundled kernels lazily so plain-file linting
    # works even if the Triton front end is unavailable.
    import repro.triton.kernels  # noqa: F401  (registers the bundled specs)
    from repro.triton.compiler import compile_spec
    from repro.triton.spec import available_kernels, get_spec

    try:
        spec = get_spec(target)
    except KeyError as exc:
        known = ", ".join(available_kernels())
        raise SystemExit(
            f"lint: unknown kernel {target!r} (not a file either); known specs: {known}"
        ) from exc
    return target, compile_spec(spec, scale=scale).kernel


def _pressure_diagnostics(report) -> list[Diagnostic]:
    """V6xx findings from a :class:`~repro.analysis.liveness.PressureReport`."""
    findings: list[Diagnostic] = []
    if not report.fits:
        findings.append(
            make_diagnostic(
                "V601",
                f"peak pressure of {report.peak} live registers exceeds the "
                f"R{report.budget} register file (headroom {report.headroom})",
                line=report.peak_line,
                hint="repack dead fragments or reduce the tile shape",
                details={"peak": report.peak, "budget": report.budget},
            )
        )
    for line, register in report.dead_definitions:
        findings.append(
            make_diagnostic(
                "V602",
                f"{register} is written here but never read on any path",
                line=line,
                hint="dead definition: the fragment is reusable",
                details={"register": register},
            )
        )
    return findings


def _lint_one(
    name: str,
    seed: SassKernel,
    schedule: Path | None,
    *,
    as_json: bool,
    quiet: bool,
    pressure: bool = False,
) -> VerificationResult:
    verifier = seed_verifier(seed)
    if schedule is None:
        target = seed
        result = verifier.lint_seed()
    else:
        try:
            target = SassKernel.from_text(schedule.read_text())
        except OSError as exc:
            raise SystemExit(f"lint: cannot read schedule {str(schedule)!r}: {exc}") from exc
        result = verifier.verify(target)
    extra: list[Diagnostic] = list(audit_control_roundtrip(target))
    report = None
    if pressure:
        report = pressure_report(target, name=name)
        extra.extend(_pressure_diagnostics(report))
    if extra:
        result = dataclasses.replace(
            result, diagnostics=tuple(sorted(result.diagnostics + tuple(extra),
                                             key=lambda d: (d.line, d.rule)))
        )
    if as_json:
        summary = {"kernel": name, **result.summary()}
        if report is not None:
            summary["pressure"] = {
                "peak": report.peak,
                "peak_line": report.peak_line,
                "budget": report.budget,
                "headroom": report.headroom,
                "fits": report.fits,
                "allocated": report.allocated,
                "dead_definitions": len(report.dead_definitions),
                "free_fragments": [list(frag) for frag in report.free_fragments],
            }
        print(json.dumps(summary, indent=2))
    elif not quiet:
        if report is not None:
            print(report.render())
        print(result.render(name))
    elif not result.ok:
        print(result.render(name), file=sys.stderr)
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Lint SASS schedules with the independent dependence verifier.",
    )
    parser.add_argument(
        "kernels", nargs="*", metavar="KERNEL",
        help="bundled kernel spec name (e.g. softmax) or path to a .sass listing",
    )
    parser.add_argument(
        "--all", action="store_true", dest="all_kernels",
        help="lint every kernel in the spec registry (the CI gate's mode, so "
        "newly registered kernels are gated automatically)",
    )
    parser.add_argument(
        "--schedule", type=Path, default=None, metavar="PATH",
        help="verify this listing as a candidate schedule of the (single) seed",
    )
    parser.add_argument(
        "--scale", default="test", choices=("test", "bench", "paper"),
        help="shape set used when compiling spec names (default: test)",
    )
    parser.add_argument(
        "--pressure", action="store_true",
        help="print the register-pressure report per kernel; exit 1 with a "
        "V601 error when peak pressure exceeds the backend register file "
        "(dead definitions surface as V602 warnings)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as findings: exit 1 on any warning too",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON summary object per listing instead of linter lines",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print nothing for clean listings (findings still go to stderr)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        targets = list(args.kernels)
        if args.all_kernels:
            import repro.triton.kernels  # noqa: F401  (registers the bundled specs)
            from repro.triton.spec import available_kernels

            targets.extend(available_kernels())
        if not targets:
            parser.error("give at least one KERNEL, or --all")
        if args.schedule is not None and len(targets) != 1:
            parser.error("--schedule requires exactly one seed KERNEL")
        failed = False
        for target in targets:
            name, seed = _load_seed(target, args.scale)
            result = _lint_one(
                name, seed, args.schedule, as_json=args.as_json, quiet=args.quiet,
                pressure=args.pressure,
            )
            findings = result.errors if not args.strict else result.diagnostics
            failed = failed or not result.ok or (args.strict and bool(findings))
    except SystemExit as exc:
        # argparse uses SystemExit(2) for usage errors; our load errors carry
        # a message — print it and normalize both onto the usage exit code.
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return EXIT_FINDINGS if failed else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
