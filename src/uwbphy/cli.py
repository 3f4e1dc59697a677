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

import numpy as np

from .channel import CM1_LIKE, load_profile_file
from .errors import InvalidParams, PhyError
from .framing import (
    CodeBank,
    ThParams,
    check_seed,
    generate_code,
    load_code_file,
    write_code_file,
)
from .harness import (
    PRESETS,
    SweepConfig,
    compare_architectures,
    format_csv,
    format_session_csv,
    run_sweep,
    sweep_metadata,
)
from .reconfig import PhyState, load_reconfig_script, run_session
from .transmitter import PPM, SCHEMES, ModulationConfig
from .waveform import DEFAULT_PULSE, DEFAULT_SAMPLE_RATE

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
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _add_link_flags(sub):
    sub.add_argument("--ebn0", type=_grid, default=_grid(DEFAULT_GRID),
                     help="comma-separated Eb/N0 grid in dB (default %(default)s)")
    sub.add_argument("--bits", type=int, default=10_000,
                     help="bits per grid point (default %(default)s)")
    sub.add_argument("--channel", choices=("awgn", "multipath"),
                     default="awgn", help="propagation model")
    sub.add_argument("--profile-file", metavar="PATH",
                     help="multipath profile file (key = value lines)")
    sub.add_argument("--quant-bits", type=int, default=None,
                     help="ADC word width; omit for the float datapath")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--tc", type=float, default=10.0,
                     help="chip duration in ns (default %(default)s)")
    sub.add_argument("--nc", type=int, default=8,
                     help="chips per frame (default %(default)s)")
    sub.add_argument("--out", metavar="PATH",
                     help="output file (default: stdout)")


def _channel_profile(args):
    if args.profile_file is not None:
        return load_profile_file(args.profile_file)
    if args.channel == "multipath":
        return CM1_LIKE
    return None


def _sweep_config(args, scheme=None, preset=None):
    quant_bits = args.quant_bits
    if preset is not None:
        scheme, adc_bits = PRESETS[preset]
        if quant_bits is None:
            quant_bits = adc_bits
    return SweepConfig(
        scheme=scheme,
        ebn0_grid=args.ebn0,
        n_bits_per_point=args.bits,
        channel=_channel_profile(args),
        quant_bits=quant_bits,
        base_seed=args.seed,
        preset_id=preset,
        params=ThParams(t_c=args.tc * 1e-9, n_c=args.nc),
    )


def _cmd_sweep(args):
    cfg = _sweep_config(args, scheme=args.scheme, preset=args.preset)
    points = run_sweep(cfg)
    _write_or_print(format_csv(points, sweep_metadata(cfg)), args.out)
    return 0


def _cmd_compare(args):
    schemes = args.scheme or list(SCHEMES)
    cfgs = [_sweep_config(args, scheme=s) for s in schemes]
    table = compare_architectures(cfgs)
    _write_or_print(table.render(), args.out)
    return 0


def _cmd_session(args):
    check_seed(args.seed, "--seed")
    if args.bits < 0:
        raise InvalidParams(f"--bits must be >= 0, got {args.bits}")
    params = ThParams(t_c=args.tc * 1e-9, n_c=args.nc)
    if args.code_file is not None:
        bank = load_code_file(args.code_file, params)
    else:
        code = generate_code(args.seed, 8, params)
        bank = CodeBank(entries={code.code_id: code}, active_id=code.code_id)
    delta = DEFAULT_PULSE.duration if args.scheme == PPM else 0.0
    state = PhyState(
        params=params,
        code_bank=bank,
        mod=ModulationConfig(args.scheme, delta=delta),
        pulse=DEFAULT_PULSE,
        sample_rate=DEFAULT_SAMPLE_RATE,
    )
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
    return 0


def _cmd_codegen(args):
    if args.count < 1:
        raise InvalidParams(f"--count must be >= 1, got {args.count}")
    params = ThParams(t_c=10e-9, n_c=args.nc)
    codes = [
        generate_code(args.seed + i, args.length, params)
        for i in range(args.count)
    ]
    write_code_file(args.out, codes)
    return 0


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
                      help="scheme and ADC width of a named receiver; "
                           "th-bpam-v1/v2, th-ppm-v1/v2 and th-ppm-v3/v4 "
                           "run identical sweeps")
    _add_link_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="rank several architectures")
    p_cmp.add_argument("--scheme", choices=SCHEMES, action="append",
                       help="repeat per scheme (default: all three)")
    _add_link_flags(p_cmp)
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
    p_ses.add_argument("--seed", type=int, default=0)
    p_ses.add_argument("--tc", type=float, default=10.0,
                       help="initial chip duration in ns")
    p_ses.add_argument("--nc", type=int, default=8,
                       help="initial chips per frame")
    p_ses.add_argument("--code-file", metavar="PATH",
                       help="code bank file (default: one generated code)")
    p_ses.add_argument("--out", metavar="PATH",
                       help="output file (default: stdout)")
    p_ses.set_defaults(func=_cmd_session)

    p_gen = sub.add_parser("codegen", help="generate a TH-code file")
    p_gen.add_argument("--nc", type=int, required=True,
                       help="chips per frame the codes must fit")
    p_gen.add_argument("--length", type=int, default=8)
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
        return args.func(args)
    except PhyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
