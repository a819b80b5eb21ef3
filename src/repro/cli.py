"""Command-line interface: ``repro-lock`` (or ``python -m repro``).

The CLI is a *thin client* over :mod:`repro.service`: every subcommand
builds a typed request envelope, submits it through a
:class:`~repro.service.Service`, renders the streamed events as
progress lines on stderr, and prints the rendered response (or, with
``--json``/``--envelope``, the raw response envelope) on stdout.
``repro-lock serve`` runs the same machinery as a long-lived JSON-lines
daemon.  Subcommands map one-to-one onto request envelopes::

    repro-lock figure1
    repro-lock table1 --key-sizes 4,8 --scale 0.2 --jobs 4
    repro-lock table2 --scale 0.4 --time-limit 120 --jobs 8
    repro-lock defense --circuit c1908 --key-size 4 -N 2
    repro-lock attack --circuit c6288 --scheme sarlock --key-size 8 -N 2
    repro-lock attack --engine reference ...   # literal Algorithm 1 arm
    repro-lock matrix --schemes sarlock,xor --attacks sat,appsat \
        --engines sharded,reference --circuits c432 --efforts 1,2
    repro-lock matrix --circuits real_c432 --lanes numpy   # real corpus
    repro-lock matrix --metrics corruption,subspace --key-samples 64 \
        --csv out.csv                          # corruption metric columns
    repro-lock matrix --list-schemes           # registry rosters
    repro-lock matrix --list-attacks
    repro-lock matrix --list-metrics
    repro-lock matrix --list-circuits
    repro-lock metrics --circuit c432 --scheme sarlock --key-size 8 -N 2
    repro-lock figure2 --circuit c432 --key-size 6 --efforts 0,1,2,3
    repro-lock bench --circuit c7552 --scale 0.3 --out c7552.bench
    repro-lock bench --circuit real_c880 --out real_c880.bench
    repro-lock serve                           # JSON-lines daemon (stdio)
    repro-lock serve --port 8642 --jobs 8      # ... or TCP
    repro-lock serve --http 8080 --jobs 8 --max-pending 64 \
        --cache-backend sharded                # ... or the HTTP gateway
    repro-lock cache info

``attack``/``table1``/``table2`` pick the multi-key engine with
``--engine {sharded,reference}`` (default: the shared-encoding sharded
engine; ``reference`` is the per-sub-space synthesis arm).  ``matrix``
evaluates any ``scheme x attack x engine x circuit`` grid under the
multi-key premise — scheme and attack names come from the registries
(``--list-schemes`` / ``--list-attacks``) and results export as CSV or
JSON with ``--csv`` / ``--json``.

Experiment subcommands share the runner flags: ``--jobs`` fans rows
out over a process pool, ``--cache-dir`` relocates the on-disk result
cache (default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-lock``) and
``--no-cache`` disables it.  A warm cache replays a table without
re-solving anything.

Anywhere a circuit name is accepted, genuine ``.bench`` corpus
circuits (``real_c432``/``real_c499``/``real_c880``, plus any file
registered via ``repro.bench_circuits.register_corpus_file``) work
exactly like the stand-ins.

The lever flags ``--opt``, ``--lanes``, ``--solver`` and
``--cache-backend`` come from the table in :mod:`repro.levers`: each
is exported to its ``REPRO_*`` environment variable, so every layer
and every runner worker process resolves the same value.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.levers import CACHE_BACKEND, LEVERS


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("runner")
    group.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for experiment tasks (default: 1, serial)",
    )
    group.add_argument(
        "--cache-dir", default="",
        help="result-cache directory (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro-lock)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    group.add_argument(
        "--quiet", action="store_true",
        help="suppress per-task progress lines on stderr",
    )
    _add_lever_args(group, LEVERS)


def _add_lever_args(parser, levers) -> None:
    """One flag per lever; :func:`main` exports what was given."""
    for lever in levers:
        parser.add_argument(
            lever.flag, default=None,
            help=f"{lever.help} ({' | '.join(lever.roster())}; "
                 f"default: ${lever.env} or {lever.default})",
        )


def _add_envelope_arg(
    parser: argparse.ArgumentParser, *, alias_json: bool = True
) -> None:
    flags = ["--envelope"] + (["--json"] if alias_json else [])
    parser.add_argument(
        *flags, dest="envelope", action="store_true",
        help="print the raw response envelope (JSON) instead of text",
    )


def _open_cache(cache_dir: str):
    from repro.runner import ResultCache

    try:
        cache = ResultCache(cache_dir or None)
    except ValueError as error:  # unknown backend name, with the roster
        raise SystemExit(f"repro-lock: error: {error}")
    if cache.root is not None and cache.root.exists() and not cache.root.is_dir():
        raise SystemExit(
            f"repro-lock: error: cache dir {cache.root} exists and is "
            "not a directory"
        )
    return cache


def _make_service(args: argparse.Namespace, inner_parallel: bool = False):
    """The one place CLI runner flags become an execution Service."""
    from repro.service import Service

    cache = None if args.no_cache else _open_cache(args.cache_dir)
    return Service(
        jobs=max(1, args.jobs),
        cache=cache,
        inner_parallel=inner_parallel,
        max_pending=getattr(args, "max_pending", None),
    )


def _submit(args: argparse.Namespace, request, inner_parallel: bool = False):
    """Submit one envelope; stream progress; return the response.

    Progress events render to stderr exactly as the classic
    ``print_progress`` callback did (``--quiet`` silences them); error
    responses become clean ``SystemExit``s.
    """
    from repro.service import render_event

    service = _make_service(args, inner_parallel=inner_parallel)
    job = service.submit(request)
    quiet = getattr(args, "quiet", False)
    for event in job.events():
        if quiet:
            continue
        line = render_event(event)
        if line is not None:
            print(line, file=sys.stderr, flush=True)
    response = job.result()
    if response.status == "error":
        raise SystemExit(f"repro-lock: error: {response.error}")
    return response


def _emit(args: argparse.Namespace, response, verbose: bool = True) -> None:
    """Print a response: raw envelope under ``--json``, else as text."""
    from repro.service import render_response, to_json

    if getattr(args, "envelope", False):
        print(to_json(response))
    else:
        print(render_response(response, verbose=verbose))


def _experiment_request(experiment: str, **params):
    """Build an ExperimentRequest, mapping envelope errors to exits."""
    from repro.service import ExperimentRequest

    try:
        return ExperimentRequest(experiment=experiment, params=params)
    except ValueError as error:
        raise SystemExit(f"repro-lock: error: {error}")


def _cmd_figure1(args: argparse.Namespace) -> int:
    request = _experiment_request("figure1", correct_key=args.key)
    _emit(args, _submit(args, request))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    request = _experiment_request(
        "table1",
        key_sizes=_parse_int_list(args.key_sizes),
        efforts=_parse_int_list(args.efforts),
        scale=args.scale,
        time_limit_per_task=args.time_limit,
        parallel=args.parallel,
        engine=args.engine,
    )
    _emit(args, _submit(args, request))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import TABLE2_CIRCUITS

    circuits = (
        _parse_str_list(args.circuits) if args.circuits
        else list(TABLE2_CIRCUITS)
    )
    request = _experiment_request(
        "table2",
        circuits=circuits,
        scale=args.scale,
        spec=args.spec,
        time_limit_per_task=args.time_limit,
        parallel=not args.sequential,
        verify=not args.no_verify,
        engine=args.engine,
    )
    _emit(args, _submit(args, request))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    if args.which in ("splitting", "both"):
        request = _experiment_request("ablation_splitting", scale=args.scale)
        _emit(args, _submit(args, request))
    if args.which in ("synthesis", "both"):
        request = _experiment_request("ablation_synthesis", scale=args.scale)
        _emit(args, _submit(args, request))
    return 0


def _cmd_defense(args: argparse.Namespace) -> int:
    request = _experiment_request(
        "defense",
        circuit=args.circuit,
        scale=args.scale,
        key_size=args.key_size,
        effort=args.effort,
        time_limit_per_task=args.time_limit,
    )
    _emit(args, _submit(args, request))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.service import AttackRequest

    if args.scheme == "lut":
        scheme_params = {"spec": args.lut_spec, "seed": args.seed}
    else:
        scheme_params = {"key_size": args.key_size, "seed": args.seed}
    if args.parallel and args.jobs <= 1:
        # The classic `attack --parallel` shape: this one-shot service
        # gets a machine-wide budget (a daemon keeps whatever --jobs
        # it was started with — parallel attacks stay inside it).
        import multiprocessing

        args.jobs = multiprocessing.cpu_count()
    try:
        request = AttackRequest(
            circuit=args.circuit,
            scheme=args.scheme,
            scheme_params=scheme_params,
            attack=args.attack,
            engine=args.engine,
            effort=args.effort,
            scale=args.scale,
            seed=args.seed,
            time_limit_per_task=args.time_limit,
            parallel=args.parallel,
        )
    except ValueError as error:
        raise SystemExit(f"repro-lock: error: {error}")
    response = _submit(args, request)
    _emit(args, response, verbose=not args.quiet)
    return 0 if response.status == "ok" else 1


def _print_circuits() -> None:
    """The `matrix --list-circuits` roster: corpus entries + stand-ins.

    Corpus rows print the parsed ``.bench`` fingerprint; stand-in rows
    print the ISCAS-85 reference profile the generator targets at
    scale 1.0 (the built netlist scales with ``--scale``).
    """
    from repro.bench_circuits.corpus import corpus_entry, corpus_names
    from repro.bench_circuits.iscas85 import ISCAS85_PROFILES

    print("registered corpus circuits (.bench files):")
    names = corpus_names()
    if not names:
        print("  (none registered)")
    for name in names:
        entry = corpus_entry(name)
        print(
            f"  {name}: {entry.num_inputs} PI, {entry.num_outputs} PO, "
            f"{entry.num_gates} gates"
        )
    print("stand-in generators (ISCAS-85 class, sized by --scale):")
    print("  c17: 5 PI, 2 PO, 6 gates (exact)")
    for name in sorted(ISCAS85_PROFILES):
        profile = ISCAS85_PROFILES[name]
        print(
            f"  {name}: {profile['pi']} PI, {profile['po']} PO, "
            f"~{profile['gates']} gates at scale 1.0"
        )


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.attacks.registry import attack_info, registered_attacks
    from repro.locking.registry import registered_schemes, scheme_info

    if (args.list_schemes or args.list_attacks or args.list_solvers
            or args.list_metrics or args.list_circuits):
        if args.list_schemes:
            print("registered locking schemes:")
            for name in registered_schemes():
                print(f"  {name}: {scheme_info(name).description}")
        if args.list_attacks:
            print("registered attacks:")
            for name in registered_attacks():
                info = attack_info(name)
                shard = " [shared-encoding]" if info.supports_shared_encoding else ""
                print(f"  {name}: {info.description}{shard}")
        if args.list_solvers:
            from repro.sat.registry import registered_solvers, solver_info

            print("registered solver backends:")
            for name in registered_solvers():
                info = solver_info(name)
                caps = ",".join(
                    flag
                    for flag, on in info.capabilities.as_dict().items()
                    if on
                )
                print(f"  {name}: {info.description} [{caps or 'none'}]")
        if args.list_metrics:
            from repro.metrics import metric_info, registered_metrics

            print("registered corruption metrics:")
            for name in registered_metrics():
                print(f"  {name}: {metric_info(name).description}")
        if args.list_circuits:
            _print_circuits()
        return 0

    from pathlib import Path

    from repro.service import MatrixRequest

    def scheme_axis(name: str) -> list:
        # The LUT module's key width comes from its spec, every other
        # registered scheme takes --key-size directly.
        if name == "lut":
            return [name, {"spec": args.lut_spec}]
        return [name, {"key_size": args.key_size}]

    try:
        request = MatrixRequest(
            schemes=[scheme_axis(name) for name in _parse_str_list(args.schemes)],
            attacks=_parse_str_list(args.attacks),
            engines=_parse_str_list(args.engines),
            circuits=_parse_str_list(args.circuits),
            scale=args.scale,
            efforts=_parse_int_list(args.efforts),
            seeds=_parse_int_list(args.seeds),
            time_limit_per_task=args.time_limit,
            max_dips_per_task=args.max_dips,
            include_baseline=args.baseline,
            verify_composition=args.verify,
            metrics=_parse_str_list(args.metrics),
            key_samples=args.key_samples,
            metrics_seed=args.metrics_seed,
        )
    except ValueError as error:
        raise SystemExit(f"repro-lock: error: {error}")
    response = _submit(args, request, inner_parallel=args.parallel)
    _emit(args, response)

    if (args.csv or args.json) and "cells" in (response.result or {}):
        from repro.scenarios.matrix import MatrixResult

        result = MatrixResult.from_payload(response.result)
        if args.csv:
            Path(args.csv).write_text(result.to_csv())
            print(f"wrote {len(result.cells)} cells to {args.csv}")
        if args.json:
            Path(args.json).write_text(result.to_json())
            print(f"wrote {len(result.cells)} cells to {args.json}")
    # Like `attack`: exit nonzero when any cell failed, so CI smoke
    # runs catch partial/timeout cells and CEC failures, not just
    # crashes.
    return 0 if response.status == "ok" else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service import MetricsRequest

    if args.scheme == "lut":
        scheme_params = {"spec": args.lut_spec}
    else:
        scheme_params = {"key_size": args.key_size}
    try:
        request = MetricsRequest(
            circuit=args.circuit,
            scheme=args.scheme,
            scheme_params=scheme_params,
            metrics=_parse_str_list(args.metrics),
            key_samples=args.key_samples,
            seed=args.seed,
            metrics_seed=args.metrics_seed,
            effort=args.effort,
            scale=args.scale,
        )
    except ValueError as error:
        raise SystemExit(f"repro-lock: error: {error}")
    _emit(args, _submit(args, request))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    request = _experiment_request(
        "figure2",
        circuit=args.circuit,
        scheme=args.scheme,
        key_size=args.key_size,
        scale=args.scale,
        efforts=_parse_int_list(args.efforts),
        key_samples=args.key_samples,
        seed=args.seed,
    )
    _emit(args, _submit(args, request))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.service import BenchRequest

    try:
        request = BenchRequest(circuit=args.circuit, scale=args.scale)
    except ValueError as error:
        raise SystemExit(f"repro-lock: error: {error}")
    response = _submit(args, request)
    if args.out:
        # --out always writes, whatever lands on stdout below.
        with open(args.out, "w") as handle:
            handle.write(response.result["text"])
    if getattr(args, "envelope", False):
        _emit(args, response)
    elif args.out:
        print(f"wrote {response.result['name']} to {args.out}")
    else:
        print(response.result["text"], end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import create_tcp_server, serve_stdio
    from repro.service.http import create_http_server

    service = _make_service(args)
    servers = []
    if args.port is not None:
        server = create_tcp_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(
            f"repro-lock serve: listening on {host}:{port} (tcp)",
            file=sys.stderr,
        )
        servers.append(server)
    if args.http is not None:
        server = create_http_server(service, host=args.host, port=args.http)
        host, port = server.server_address[:2]
        print(
            f"repro-lock serve: listening on {host}:{port} (http)",
            file=sys.stderr,
        )
        servers.append(server)
    if not servers:
        serve_stdio(service)
        return 0
    # All but the last transport run on background threads; the last
    # owns the foreground (Ctrl-C stops everything).
    import threading

    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers[:-1]
    ]
    for thread in threads:
        thread.start()
    try:
        servers[-1].serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for server in servers[:-1]:
            server.shutdown()
        for server in servers:
            server.server_close()
        for thread in threads:
            thread.join(timeout=10)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    # Everything below goes through the backend-agnostic ResultCache
    # surface (kinds/entry_count/clear), so `cache info` prints the
    # same text for the same contents whatever backend stores them.
    cache = _open_cache(args.cache_dir)
    where = cache.root if cache.root is not None else cache.describe()
    if args.action == "clear":
        removed = cache.clear(kind=args.kind or None)
        print(f"removed {removed} artifact(s) from {where}")
    else:
        print(f"cache dir: {where}")
        kinds = cache.kinds()
        if not kinds:
            print("  (empty — nothing cached yet)")
            return 0
        for kind in kinds:
            count = cache.entry_count(kind)
            print(f"  {kind}: {count} artifact(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lock",
        description="Multi-key SAT attack on logic locking (DAC'24 LBR reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="regenerate Fig. 1(a)/(b)")
    p.add_argument("--key", type=lambda s: int(s, 0), default=0b101)
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("table1", help="regenerate Table 1 (#DIP vs N)")
    p.add_argument("--key-sizes", default="4,8,12")
    p.add_argument("--efforts", default="0,1,2,3,4")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--parallel", action="store_true")
    p.add_argument(
        "--engine", choices=("sharded", "reference"), default="sharded",
        help="multi-key engine (default: sharded)",
    )
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="regenerate Table 2 (LUT runtimes)")
    p.add_argument("--circuits", default="")
    p.add_argument("--scale", type=float, default=0.4)
    p.add_argument("--spec", choices=("tiny", "small", "paper"), default="paper")
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--sequential", action="store_true")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument(
        "--engine", choices=("sharded", "reference"), default="sharded",
        help="multi-key engine for the N>0 arm (default: sharded)",
    )
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("ablation", help="run the A1/A2 ablations")
    p.add_argument("which", choices=("splitting", "synthesis", "both"))
    p.add_argument("--scale", type=float, default=0.3)
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("defense", help="run the D1 countermeasure experiment")
    p.add_argument("--circuit", default="c1908")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--key-size", type=int, default=5)
    p.add_argument("-N", "--effort", type=int, default=3)
    p.add_argument("--time-limit", type=float, default=300.0)
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_defense)

    p = sub.add_parser("attack", help="lock a benchmark and attack it")
    p.add_argument("--circuit", default="c6288")
    p.add_argument(
        "--scheme", default="sarlock",
        help="registered scheme name (see matrix --list-schemes)",
    )
    p.add_argument(
        "--attack", default="sat",
        help="registered per-sub-space attack (see matrix --list-attacks)",
    )
    p.add_argument(
        "--lut-spec", choices=("tiny", "small", "paper"), default="small",
        help="LUT module preset for --scheme lut (default: small)",
    )
    p.add_argument("--key-size", type=int, default=8)
    p.add_argument("-N", "--effort", type=int, default=2)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument(
        "--engine", choices=("sharded", "reference"), default="sharded",
        help="multi-key engine (default: sharded)",
    )
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "matrix",
        help="evaluate a scheme x attack x engine x circuit scenario grid",
    )
    p.add_argument(
        "--schemes", default="sarlock,xor",
        help="comma-separated registered scheme names (default: sarlock,xor)",
    )
    p.add_argument(
        "--attacks", default="sat",
        help="comma-separated registered attack names (default: sat)",
    )
    p.add_argument(
        "--engines", default="sharded",
        help="comma-separated multi-key engines (default: sharded)",
    )
    p.add_argument("--circuits", default="c432")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--efforts", default="1")
    p.add_argument("--seeds", default="0")
    p.add_argument(
        "--key-size", type=int, default=4,
        help="key bits for width-parameterized schemes (default: 4)",
    )
    p.add_argument(
        "--lut-spec", choices=("tiny", "small", "paper"), default="tiny",
        help="LUT module preset for the 'lut' scheme (default: tiny)",
    )
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--max-dips", type=int, default=None)
    p.add_argument(
        "--baseline", action="store_true",
        help="also run the N=0 exact baseline per cell (Table 2's ratio)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="CEC the composed multi-key netlist for successful cells",
    )
    p.add_argument("--parallel", action="store_true")
    p.add_argument(
        "--metrics", default="",
        help="comma-separated corruption metrics to attach per cell "
             "(see --list-metrics; default: none)",
    )
    p.add_argument(
        "--key-samples", type=int, default=64,
        help="wrong keys sampled per metric cell (0 = exhaustive; "
             "default: 64)",
    )
    p.add_argument(
        "--metrics-seed", type=int, default=None,
        help="sample-stream seed for metric cells (default: each "
             "cell's own seed)",
    )
    p.add_argument("--csv", default="", help="write cells as CSV to this path")
    p.add_argument("--json", default="", help="write cells as JSON to this path")
    p.add_argument(
        "--list-schemes", action="store_true",
        help="print the locking-scheme registry and exit",
    )
    p.add_argument(
        "--list-attacks", action="store_true",
        help="print the attack registry and exit",
    )
    p.add_argument(
        "--list-solvers", action="store_true",
        help="print the SAT solver-backend registry and exit",
    )
    p.add_argument(
        "--list-metrics", action="store_true",
        help="print the corruption-metric registry and exit",
    )
    p.add_argument(
        "--list-circuits", action="store_true",
        help="print every resolvable circuit (corpus + stand-ins) and exit",
    )
    _add_runner_args(p)
    _add_envelope_arg(p, alias_json=False)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser(
        "metrics",
        help="evaluate corruption metrics for one locked circuit",
    )
    p.add_argument("--circuit", default="c432")
    p.add_argument(
        "--scheme", default="sarlock",
        help="registered scheme name (see matrix --list-schemes)",
    )
    p.add_argument(
        "--metrics", default="corruption,bit_flip,avalanche,subspace",
        help="comma-separated registered metrics (see matrix "
             "--list-metrics; default: all core metrics)",
    )
    p.add_argument("--key-size", type=int, default=8)
    p.add_argument(
        "--lut-spec", choices=("tiny", "small", "paper"), default="small",
        help="LUT module preset for --scheme lut (default: small)",
    )
    p.add_argument(
        "--key-samples", type=int, default=64,
        help="wrong keys to sample (0 = exhaustive; default: 64)",
    )
    p.add_argument("-N", "--effort", type=int, default=0,
                   help="splitting effort for the subspace metric (2^N "
                        "sub-spaces; default: 0)")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--metrics-seed", type=int, default=None,
        help="sample-stream seed (default: --seed)",
    )
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "figure2",
        help="regenerate Fig. 2 (corruption rate vs. key sub-spaces)",
    )
    p.add_argument("--circuit", default="c432")
    p.add_argument(
        "--scheme", default="sarlock",
        help="registered scheme name (see matrix --list-schemes)",
    )
    p.add_argument("--key-size", type=int, default=6)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--efforts", default="0,1,2,3")
    p.add_argument(
        "--key-samples", type=int, default=32,
        help="wrong keys to sample per point (0 = exhaustive; default: 32)",
    )
    p.add_argument("--seed", type=int, default=0)
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("bench", help="emit an ISCAS-class stand-in as .bench")
    p.add_argument("--circuit", default="c7552")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", default="")
    _add_runner_args(p)
    _add_envelope_arg(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the job daemon (stdio JSON lines, TCP with --port, "
             "HTTP with --http)",
    )
    p.add_argument(
        "--port", type=int, default=None,
        help="listen on TCP instead of stdio (0 picks a free port)",
    )
    p.add_argument(
        "--http", type=int, default=None,
        help="also/instead serve the HTTP/JSON gateway on this port "
             "(0 picks a free port)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for TCP and HTTP (default: 127.0.0.1)",
    )
    p.add_argument(
        "--max-pending", type=int, default=None,
        help="admission control: refuse submissions past this many "
             "unfinished jobs (queue_full / HTTP 503 + Retry-After; "
             "default: unbounded)",
    )
    _add_runner_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", choices=("info", "clear"))
    p.add_argument("--kind", default="", help="limit clear to one task kind")
    p.add_argument("--cache-dir", default="")
    _add_lever_args(p, (CACHE_BACKEND,))
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for lever in LEVERS:
        value = getattr(args, lever.name, None)
        if value:
            # Exported, not passed: every layer, and every worker process
            # a runner spawns, resolves the lever from its env var.
            try:
                os.environ[lever.env] = lever.check(value)
            except ValueError as error:
                raise SystemExit(f"repro-lock: error: {error}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
