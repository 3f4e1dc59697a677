"""Command-line front end.

Subcommands:
    sweep    run one BER-vs-Eb/N0 sweep and emit CSV
    compare  run several schemes on a shared grid and rank them
    session  replay a reconfiguration script over a simulated link
    codegen  generate a time-hopping code file

Exit codes: 0 on success, 2 on configuration errors, 3 on I/O errors.
"""

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from .channel import CM1_LIKE, load_profile_file
from .errors import InvalidParams, PhyError, check_int, write_text
from .framing import (
    DEFAULT_PARAMS,
    MAX_CODE_LENGTH,
    CodeBank,
    ThParams,
    generate_code,
    load_code_file,
    write_code_file,
)
from .harness import (
    DEFAULT_CODE_LENGTH,
    PRESETS,
    SweepConfig,
    compare_architectures,
    format_csv,
    format_session_csv,
    orthogonal_shift,
    run_sweep,
    sweep_metadata,
)
from .reconfig import PhyState, load_reconfig_script, run_session
from .transmitter import PPM, SCHEMES, ModulationConfig

DEFAULT_GRID = "0,2,4,6,8,10,12,14,16"


def _grid(text):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _write_or_print(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _add_link_flags(sub):
    """The flags sweep, compare and session share: the seed, the frame
    geometry (a session's initial one) and the output file."""
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--tc", type=float, default=DEFAULT_PARAMS.t_c * 1e9,
                     help="chip duration in ns (default %(default)s)")
    sub.add_argument("--nc", type=int, default=DEFAULT_PARAMS.n_c,
                     help="chips per frame (default %(default)s)")
    sub.add_argument("--out", metavar="PATH",
                     help="output file (default: stdout)")


def _add_sweep_flags(sub):
    sub.add_argument("--ebn0", type=_grid, default=_grid(DEFAULT_GRID),
                     help="comma-separated Eb/N0 grid in dB (default %(default)s)")
    sub.add_argument("--bits", type=int, default=10_000,
                     help="bits per grid point (default %(default)s)")
    sub.add_argument("--channel", choices=("awgn", "multipath"),
                     default="awgn", help="propagation model")
    sub.add_argument("--profile-file", metavar="PATH",
                     help="--channel multipath profile (key = value lines)")
    sub.add_argument("--quant-bits", type=int, default=None,
                     help="ADC word width, at most 22 at the default "
                          "geometry (window samples * 4**bits must be "
                          "under 2**53); omit for the float datapath")
    _add_link_flags(sub)


def _params(args):
    return ThParams(t_c=args.tc / 1e9, n_c=args.nc)


def _channel_profile(args):
    if args.profile_file is None:
        return CM1_LIKE if args.channel == "multipath" else None
    if args.channel != "multipath":
        raise InvalidParams("--profile-file needs --channel multipath")
    return load_profile_file(args.profile_file)


def _sweep_config(args, scheme=None, preset=None):
    return SweepConfig(
        scheme=PRESETS.get(preset, scheme),
        ebn0_grid=args.ebn0,
        n_bits_per_point=args.bits,
        channel=_channel_profile(args),
        quant_bits=args.quant_bits,
        base_seed=args.seed,
        preset_id=preset,
        params=_params(args),
    )


def _cmd_sweep(args):
    cfg = _sweep_config(args, scheme=args.scheme, preset=args.preset)
    points = run_sweep(cfg)
    _write_or_print(format_csv(points, sweep_metadata(cfg)), args.out)


def _cmd_compare(args):
    schemes = args.scheme or list(SCHEMES)
    cfgs = [_sweep_config(args, scheme=s) for s in schemes]
    table = compare_architectures(cfgs)
    _write_or_print(table.render(), args.out)


def _cmd_session(args):
    check_int(args.seed, "--seed", 0)
    check_int(args.bits, "--bits", 0)
    params = _params(args)
    if args.code_file is not None:
        bank = load_code_file(args.code_file, params)
    else:
        code = generate_code(args.seed, DEFAULT_CODE_LENGTH, params)
        bank = CodeBank(entries={code.code_id: code}, active_id=code.code_id)
    mod = ModulationConfig(args.scheme, delta=orthogonal_shift(args.scheme))
    state = PhyState(params=params, code_bank=bank, mod=mod)
    schedule = load_reconfig_script(args.script)
    bits = np.random.default_rng(args.seed).integers(
        0, 2, size=args.bits, dtype=np.int64
    )
    result = run_session(
        bits,
        schedule,
        state,
        ebn0_db=args.ebn0,
        rng_seed=args.seed,
        fault_inject=args.fault_inject,
    )
    meta = {
        "script": args.script,
        "scheme": args.scheme,
        "bits": args.bits,
        "ebn0_db": args.ebn0,
        "seed": args.seed,
        "fault_inject": args.fault_inject,
    }
    _write_or_print(format_session_csv(result, meta), args.out)


def _cmd_codegen(args):
    check_int(args.count, "--count", 1)
    length = check_int(args.length, "code length", 1, MAX_CODE_LENGTH)
    # every code is built before the file is written
    check_int(args.count * length, "--count * --length", 1, MAX_CODE_LENGTH)
    params = replace(DEFAULT_PARAMS, n_c=args.nc)
    codes = [
        generate_code(args.seed + i, length, params)
        for i in range(args.count)
    ]
    write_code_file(args.out, codes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uwbphy",
        description="Impulse-radio UWB physical-layer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a BER-vs-Eb/N0 sweep")
    pick = p_sweep.add_mutually_exclusive_group(required=True)
    pick.add_argument("--scheme", choices=SCHEMES)
    pick.add_argument("--preset", choices=sorted(PRESETS),
                      help="the scheme of a named receiver; every "
                           "preset of one scheme runs the same sweep")
    _add_sweep_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="rank several architectures")
    p_cmp.add_argument("--scheme", choices=SCHEMES, action="append",
                       help="repeat per scheme (default: all three)")
    _add_sweep_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ses = sub.add_parser("session", help="replay a reconfiguration script")
    p_ses.add_argument("--script", required=True, metavar="PATH",
                       help="reconfiguration script file")
    p_ses.add_argument("--scheme", choices=SCHEMES, default=PPM)
    p_ses.add_argument("--bits", type=int, default=2000,
                       help="data bits to send (default %(default)s)")
    p_ses.add_argument("--ebn0", type=float, default=float("inf"),
                       help="Eb/N0 in dB (default: noiseless)")
    p_ses.add_argument("--fault-inject", action="store_true",
                       help="apply the schedule to the transmitter only")
    p_ses.add_argument("--code-file", metavar="PATH",
                       help="code bank file (default: one generated code)")
    _add_link_flags(p_ses)
    p_ses.set_defaults(func=_cmd_session)

    p_gen = sub.add_parser("codegen", help="generate a TH-code file")
    p_gen.add_argument("--nc", type=int, required=True,
                       help="chips per frame the codes must fit")
    p_gen.add_argument("--length", type=int, default=DEFAULT_CODE_LENGTH)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, metavar="PATH")
    p_gen.set_defaults(func=_cmd_codegen)
    return parser


# parse_args leaves the parser as it was, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except PhyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
