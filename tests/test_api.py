"""The public names of uwbphy are pinned, so that dropping or adding an
exported name is a visible change to this list."""

import inspect

import uwbphy

# Submodules are left out: which of them are bound on the package
# depends on what else has been imported (uwbphy.cli, for one).
PUBLIC_NAMES = (
    "BPAM", "BerPoint", "CM1_LIKE", "ChannelRealization", "CodeBank",
    "ComparisonTable", "ConfigConflict", "DEFAULT_PARAMS", "DEFAULT_PULSE",
    "DEFAULT_SAMPLE_RATE", "ENERGY_PER_BIT", "FormatError", "GENIE_SYNC",
    "GridMismatch", "IDENTITY_CHANNEL", "InvalidParams", "ModulationConfig",
    "OOK", "PPM", "PRESETS", "PhyError", "PhyState", "PulseShape",
    "QuantizerConfig", "RateMismatch", "ReceiverConfig", "ReconfigRequest",
    "SCHEMES", "SampledSignal", "SegmentReport", "SessionResult",
    "StaleRequest", "SvProfile", "SweepConfig", "SyncEstimate", "ThCode",
    "ThParams", "UncalibratedThreshold", "UndersampledPulse", "UnknownCode",
    "WindowTooSmall", "add_awgn", "apply_channel", "apply_reconfiguration",
    "chip_start_time", "compare_architectures", "data_rate", "demodulate",
    "draw_channel", "format_csv", "generate_code", "inner_product",
    "load_code_file", "load_profile_file", "load_reconfig_script",
    "ook_threshold", "place_pulse_train", "point_seeds",
    "pulse_value", "read_csv", "run_session", "run_sweep", "sample_pulse",
    "sweep_metadata", "synchronize", "validate_code", "write_code_file",
)


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(uwbphy).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == sorted(PUBLIC_NAMES)
