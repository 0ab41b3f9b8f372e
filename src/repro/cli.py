"""The ``repro`` umbrella command.

Subcommands::

    repro serve        start the micro-batching simulation daemon
    repro experiments  the figure battery (alias of repro-experiments)
    repro loopc        the mini-language compiler CLI (alias of repro-loopc)

``repro serve`` binds a unix or TCP socket, prints the address, and runs
until SIGTERM/SIGINT, then drains gracefully: queued and in-flight work
finishes, every waiting client is answered, and (with ``--results-dir``)
a run manifest carrying the ``service`` telemetry block is written.
"""

from __future__ import annotations

import argparse
import sys


def _serve(args: argparse.Namespace) -> int:
    from .service.server import ServeConfig, run_server

    config = ServeConfig(
        unix_path=args.unix,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        jobs=args.jobs,
        plan=not args.no_plan,
        results_dir=args.results_dir,
    )
    if args.sim_cache_dir:
        from .machine.engine.simcache import configure_sim_cache

        configure_sim_cache(True, args.sim_cache_dir)
    return run_server(config)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Memory-bandwidth reproduction toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="start the micro-batching simulation service"
    )
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="serve on a unix socket at PATH (default: TCP)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed at startup)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="points coalesced per executor batch (default: %(default)s)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="admission bound on queued points (default: %(default)s)")
    serve.add_argument("--tenant-quota", type=int, default=512,
                       help="outstanding points per tenant (default: %(default)s)")
    serve.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = in-process thread, default)")
    serve.add_argument("--no-plan", action="store_true",
                       help="answer batches pointwise instead of planned")
    serve.add_argument("--results-dir", default=None,
                       help="write a drain manifest (service telemetry block) here")
    serve.add_argument("--sim-cache-dir", default=None,
                       help="persistent simulation-cache directory")
    serve.set_defaults(func=_serve)

    experiments = sub.add_parser("experiments", help="run the figure battery",
                                 add_help=False)
    experiments.add_argument("rest", nargs=argparse.REMAINDER)
    experiments.set_defaults(
        func=lambda a: __import__(
            "repro.experiments.runner", fromlist=["main"]
        ).main(a.rest)
    )

    loopc = sub.add_parser("loopc", help="mini-language compiler CLI",
                           add_help=False)
    loopc.add_argument("rest", nargs=argparse.REMAINDER)
    loopc.set_defaults(
        func=lambda a: __import__("repro.lang.cli", fromlist=["main"]).main(a.rest)
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
