"""memgrad: sub-1 V reset-only learning on simulated memristor crossbars.

Device-calibrated trajectory replay, differential-pair arrays, forward-only
and backprop training rules with sign-quantized single-pulse updates, energy
accounting, and the statistical analysis used to compare methods.
"""

__version__ = "0.1.0"

from .device import (DeviceState, DeviceTechParams, DriftModelParams,
                     EnduranceExceeded, LARGE_ARRAY, MAC_ARRAY, NeedsReinit,
                     ResetTrajectory, SyntheticTrajectoryParams, TrajectoryBank,
                     apply_reset_pulse, apply_retention_drift,
                     generate_trajectory_bank, pearson_coefficient,
                     pulse_energy, reinitialize)
from .crossbar import CrossbarArray, OnExhaustion, PulseResult
from .rules import (CFParams, GradientBatch, LayerSpec, SFFParams, bp_gradients,
                    cf_gradient, sff_gradient, sign_descent_step_float,
                    threshold_sign_plan)
from .data import (FeatureDataset, SplitSpec, load_feature_csv, load_idx,
                   make_cluster_task, save_feature_csv, split)
from .energy import (EnergyLedger, mac_energy_projection, programming_energy,
                     pv_baseline_energy, read_energy)
from .stats import (StatReport, holm_bonferroni, regularized_incomplete_beta,
                    welch_t_test)
from .trainer import (Phase, Schedule, TrainingRun, evaluate, pulse_statistics,
                      simulate_aging, train)
