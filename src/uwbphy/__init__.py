"""Impulse-radio UWB physical-layer simulator.

Time-hopped OOK/BPAM/PPM links: pulse shaping, framing and TH-code
management, AWGN and clustered-multipath channels with an ADC model,
matched-filter synchronization, the three receiver architectures,
runtime PHY reconfiguration, and a deterministic Monte Carlo BER
harness with CSV output.
"""

from .channel import (
    CM1_LIKE,
    IDENTITY_CHANNEL,
    ChannelRealization,
    QuantizerConfig,
    SvProfile,
    add_awgn,
    apply_channel,
    draw_channel,
    load_profile_file,
)
from .errors import (
    ConfigConflict,
    FormatError,
    GridMismatch,
    InvalidParams,
    PhyError,
    RateMismatch,
    StaleRequest,
    UncalibratedThreshold,
    UndersampledPulse,
    UnknownCode,
    WindowTooSmall,
)
from .framing import (
    DEFAULT_PARAMS,
    CodeBank,
    ThCode,
    ThParams,
    chip_start_time,
    data_rate,
    generate_code,
    load_code_file,
    validate_code,
    write_code_file,
)
from .harness import (
    PRESETS,
    BerPoint,
    ComparisonTable,
    SweepConfig,
    compare_architectures,
    format_csv,
    point_seeds,
    read_csv,
    run_sweep,
    sweep_metadata,
)
from .receiver import (
    GENIE_SYNC,
    ReceiverConfig,
    SyncEstimate,
    demodulate,
    ook_threshold,
    synchronize,
)
from .reconfig import (
    PhyState,
    ReconfigRequest,
    SegmentReport,
    SessionResult,
    apply_reconfiguration,
    load_reconfig_script,
    run_session,
)
from .transmitter import (
    BPAM,
    ENERGY_PER_BIT,
    OOK,
    PPM,
    SCHEMES,
    ModulationConfig,
    place_pulse_train,
)
from .waveform import (
    DEFAULT_PULSE,
    DEFAULT_SAMPLE_RATE,
    PulseShape,
    SampledSignal,
    inner_product,
    pulse_value,
    sample_pulse,
)

__version__ = "0.1.0"
