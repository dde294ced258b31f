"""epicast: daily count forecasting and monitoring toolkit.

Trend-corrected exponential smoothing and a minimal ARIMA baseline, both
optionally hybridised with a wavelet-network residual model; constant-sum
reconciliation of state forecasts against a national total; rolling-window
model monitoring; forecast shelf-life estimation; and reproduction-number
estimates from growth rates and an SIR fit.
"""

from .adjust import (
    AdjustmentInput,
    AdjustmentResult,
    adjust_forecasts,
    compute_discrepancy,
    compute_weights,
    compute_weights_history,
)
from .core import (
    HierarchicalPanel,
    UnivariateSeries,
    load_india_panel,
    load_india_series,
    parse_panel_csv,
    parse_series_csv,
)
from .epi import (
    GenerationInterval,
    R0Estimate,
    SirFit,
    fit_growth_rate,
    r0_from_growth,
    sir_fit,
    sir_simulate,
)
from .errors import (
    DomainError,
    EpicastError,
    FitError,
    InsufficientDataError,
    ParseError,
    TrainingError,
    ValidationError,
)
from .evaluate import (
    MonitorReport,
    ShelfLifeResult,
    WindowMetricRecord,
    mae,
    monitor,
    rmse,
    shelf_life,
)
from .forecasters import (
    ArimaModel,
    Forecaster,
    HoltParams,
    HoltState,
    arima_fit,
    arima_forecast,
    holt_filter,
    holt_fit,
    holt_forecast,
)
from .hybrid import (
    MODEL_TAGS,
    HybridForecaster,
    fit_tagged_models,
    make_forecaster,
)
from .neural import (
    TdnnConfig,
    TdnnModel,
    WbannModel,
    make_lag_matrix,
    tdnn_forecast,
    tdnn_train,
    wbann_fit,
    wbann_forecast,
)
from .wavelet import WaveletMra, choose_levels, imodwt_haar, modwt_haar

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
