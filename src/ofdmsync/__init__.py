"""Software lab for preamble-based OFDM synchronization.

Generate the 802.11a training preamble, impair it through a simulated
baseband channel (multipath + CFO + AWGN), and recover frame presence,
symbol timing, and carrier frequency offset with correlation detectors.
"""

__version__ = "0.1.0"

from .cfo import CfoEstimate, correct_cfo, estimate_cfo, plateau_from_event
from .channel import ChannelConfig, apply_cfo, load_taps, profile_path, transmit
from .core import DEFAULT_SAMPLE_RATE, SampleBuffer
from .errors import (ConfigError, EstimationError, IqFormatError, OfdmSyncError,
                     SizingError)
from .frame_detect import (FrameDetectConfig, FrameEvent, StreamingFrameDetector,
                           autocorrelation, detect_frames)
from .harness import (TrialPlan, TrialStatistics, emit_report, load_plan,
                      preamble_train, run_trials)
from .iqfile import read_iq, write_csv, write_iq
from .preamble import (LONG_TRAINING_FREQ, SHORT_TRAINING_FREQ, generate_lts,
                       generate_preamble, generate_sts, inverse_dft)
from .time_sync import (TimeSyncConfig, TimingEstimate, cross_correlate,
                        estimate_timing, training_template)

__all__ = [
    "CfoEstimate", "ChannelConfig", "ConfigError", "DEFAULT_SAMPLE_RATE",
    "EstimationError", "FrameDetectConfig", "FrameEvent", "IqFormatError",
    "LONG_TRAINING_FREQ", "OfdmSyncError", "SHORT_TRAINING_FREQ",
    "SampleBuffer", "SizingError", "StreamingFrameDetector", "TimeSyncConfig",
    "TimingEstimate", "TrialPlan", "TrialStatistics", "apply_cfo",
    "autocorrelation", "correct_cfo", "cross_correlate",
    "detect_frames", "emit_report", "estimate_cfo",
    "estimate_timing", "generate_lts", "generate_preamble", "generate_sts",
    "inverse_dft", "load_plan", "load_taps", "plateau_from_event",
    "preamble_train", "profile_path", "read_iq", "run_trials",
    "training_template", "transmit", "write_csv", "write_iq",
]
