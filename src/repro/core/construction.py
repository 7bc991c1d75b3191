"""Empirical construction of PCCS parameters (paper Section 3.2).

The construction algorithm consumes a two-dimensional matrix
``rela[i][j]``: the achieved relative speed of the *i*-th smallest
calibrator kernel on the target PU under the *j*-th smallest external
bandwidth demand, together with the calibrators' standalone bandwidths
``std_bw[i]`` and the external demand levels ``ext_bw[j]``. It extracts the
five bandwidth parameters plus the normal-region rate in five steps:

1. *normal BW* and *MRMC* from the last (highest-pressure) column: the
   first row whose speed reduction exceeds twice the reduction of the
   smallest kernel marks the minor/normal boundary.
2. *TBWDC* from the boundary row: the first column with a notable
   (``2 * MRMC``) reduction, added to that kernel's own demand.
3. *intensive BW* from the first (lowest-pressure) column: the first row
   with a notable reduction marks the normal/intensive boundary.
4. *CBP* as the average external demand where normal-region rows flatten.
5. *rate N* as the average reduction rate of normal-region rows between
   the drop onset and the contention balance point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.parameters import PCCSParameters
from repro.errors import CalibrationError
from repro.units import left_sum


@dataclass(frozen=True)
class ConstructionOptions:
    """Tunable thresholds of the construction algorithm.

    Attributes
    ----------
    boundary_factor:
        A row enters the normal region when its reduction exceeds
        ``boundary_factor`` times the smallest kernel's reduction (the
        paper uses 2x).
    notable_factor:
        A reduction is "notable" when it exceeds ``notable_factor * MRMC``
        (the paper uses 2x).
    min_reduction:
        Floor on the reduction thresholds, guarding against degenerate
        matrices where the smallest kernel sees essentially no slowdown.
    flat_slope_fraction:
        A normal-region curve is considered flat once its local reduction
        rate falls below this fraction of the row's peak reduction rate.
    minor_max_reduction:
        If even the smallest calibrator loses more than this fraction of
        its speed under maximal pressure, the PU has no minor region at
        all (the paper's DLA, whose normal BW is 0 and MRMC is NA).
    tbwdc_from_boundary_only:
        The paper's step 2 derives TBWDC from the boundary row only. The
        default averages the drop-onset point ``std_bw[i] + ext_bw[onset]``
        over all normal-region rows, which is robust when the boundary
        row's drop is dominated by latency exposure rather than
        allocation; set True for the literal paper behaviour.
    """

    boundary_factor: float = 2.0
    notable_factor: float = 2.0
    min_reduction: float = 0.01
    flat_slope_fraction: float = 0.25
    minor_max_reduction: float = 0.08
    tbwdc_from_boundary_only: bool = False


def _validate_inputs(
    rela: Sequence[Sequence[float]],
    std_bw: Sequence[float],
    ext_bw: Sequence[float],
) -> None:
    if len(rela) == 0 or len(rela[0]) == 0:
        raise CalibrationError("relative-speed matrix must be non-empty")
    n, m = len(rela), len(rela[0])
    if len(std_bw) != n:
        raise CalibrationError(
            f"std_bw has {len(std_bw)} entries for {n} matrix rows"
        )
    if len(ext_bw) != m:
        raise CalibrationError(
            f"ext_bw has {len(ext_bw)} entries for {m} matrix columns"
        )
    if any(len(row) != m for row in rela):
        raise CalibrationError("relative-speed matrix is ragged")
    if any(b <= 0 for b in std_bw):
        raise CalibrationError("standalone bandwidths must be positive")
    if any(b < 0 for b in ext_bw):
        raise CalibrationError("external bandwidths must be non-negative")
    if list(std_bw) != sorted(std_bw):
        raise CalibrationError("std_bw rows must be sorted ascending")
    if list(ext_bw) != sorted(ext_bw):
        raise CalibrationError("ext_bw columns must be sorted ascending")
    for row in rela:
        for value in row:
            if not 0 <= value <= 1.0 + 1e-9:
                raise CalibrationError(
                    f"relative speeds must be in [0, 1], got {value}"
                )


def _find_normal_boundary(
    last_column: Sequence[float], options: ConstructionOptions
) -> int:
    """Step 1: index of the first row in the normal region.

    Returns 0 when even the smallest calibrator shows heavy contention —
    the PU then has no minor region (the paper's DLA case).
    """
    base_reduction = 1.0 - last_column[0]
    if base_reduction > options.minor_max_reduction:
        return 0
    threshold = options.boundary_factor * max(
        base_reduction, options.min_reduction
    )
    for k, value in enumerate(last_column):
        if 1.0 - value > threshold:
            return k
    raise CalibrationError(
        "no calibrator row crosses the normal-region threshold; "
        "extend the calibrator sweep to higher bandwidth demands"
    )


def _find_drop_onset(
    row: Sequence[float],
    reduction_threshold: float,
    baseline: float = 1.0,
) -> Optional[int]:
    """First column where a row drops notably below its baseline.

    The baseline is the row's minor-contention level: heavier kernels sit
    slightly below 100% even without contention (Eq. 2), which must not
    count as a contention drop.
    """
    for j, value in enumerate(row):
        if baseline - value > reduction_threshold:
            return j
    return None


def _find_flat_onset(
    row: Sequence[float], options: ConstructionOptions
) -> Optional[int]:
    """Step 4 helper: column where a row's curve flattens out.

    Looks for the first column after the steepest drop where the local
    slope falls below ``flat_slope_fraction`` of the row's peak slope.
    """
    drops = [row[j] - row[j + 1] for j in range(len(row) - 1)]
    if not drops:
        return None
    peak = max(drops)
    if peak <= 0:
        return None
    peak_index = drops.index(peak)
    for j in range(peak_index + 1, len(drops)):
        if drops[j] < options.flat_slope_fraction * peak:
            return j
    return None


def construct_parameters(
    rela: Sequence[Sequence[float]],
    std_bw: Sequence[float],
    ext_bw: Sequence[float],
    peak_bw: float,
    pu_name: str = "",
    options: Optional[ConstructionOptions] = None,
) -> PCCSParameters:
    """Run the five-step Section 3.2 algorithm.

    Parameters
    ----------
    rela:
        ``rela[i][j]`` is the relative speed (fraction in [0, 1]) of the
        i-th smallest calibrator under the j-th smallest external demand.
    std_bw:
        Standalone BW demand of each calibrator row, ascending (GB/s).
    ext_bw:
        External BW demand of each column, ascending (GB/s).
    peak_bw:
        Theoretical peak bandwidth of the SoC (GB/s).
    pu_name:
        Label stored on the resulting parameter set.
    options:
        Threshold overrides; defaults follow the paper.

    Returns
    -------
    PCCSParameters
        The constructed model parameters for this PU.
    """
    options = options or ConstructionOptions()
    _validate_inputs(rela, std_bw, ext_bw)
    n, m = len(rela), len(rela[0])
    last_column = [rela[i][m - 1] for i in range(n)]

    # Step 1: normal BW boundary and MRMC.
    k_boundary = _find_normal_boundary(last_column, options)
    if k_boundary == 0:
        # The very smallest calibrator already shows notable contention:
        # the PU has no minor region (the paper's DLA case).
        normal_bw = 0.0
        raw_mrmc = 0.0
        mrmc: Optional[float] = None
    else:
        normal_bw = std_bw[k_boundary]
        # The element on the previous row, last column defines MRMC: the
        # heaviest still-minor kernel's reduction at maximal pressure.
        raw_mrmc = max(1.0 - last_column[k_boundary - 1], 0.0)
        mrmc = raw_mrmc

    notable = options.notable_factor * max(raw_mrmc, options.min_reduction)
    mrmc_for_baseline = mrmc if mrmc is not None else 0.0

    def minor_level(i: int) -> float:
        return 1.0 - mrmc_for_baseline * std_bw[i] / peak_bw

    # Step 3 first (step 2 needs to know which rows are normal-region):
    # intensive BW boundary from the first (lowest-pressure) column.
    first_column = [rela[i][0] for i in range(n)]
    k_intensive = None
    for i, value in enumerate(first_column):
        if minor_level(i) - value > notable:
            k_intensive = i
            break
    if k_intensive is None or k_intensive <= k_boundary:
        # No calibrator is heavy enough to be intensive under minimal
        # pressure: place the boundary beyond the heaviest calibrator.
        intensive_bw = std_bw[-1]
        k_intensive = n
    else:
        intensive_bw = std_bw[k_intensive]
    intensive_bw = max(intensive_bw, normal_bw)

    # Step 2: TBWDC — the combined demand at which curves start dropping.
    onset_rows = (
        [k_boundary]
        if options.tbwdc_from_boundary_only
        else list(range(k_boundary, min(k_intensive, n)))
    )
    onset_points: List[float] = []
    for i in onset_rows:
        onset = _find_drop_onset(rela[i], notable, minor_level(i))
        if onset is not None:
            onset_points.append(std_bw[i] + ext_bw[onset])
    if not onset_points:
        raise CalibrationError(
            "no normal-region calibrator shows a notable reduction; "
            "external-pressure sweep does not reach contention"
        )
    tbwdc = left_sum(onset_points) / len(onset_points)

    # Step 4: contention balance point, averaged over normal-region rows.
    flat_points: List[float] = []
    for i in range(k_boundary, min(k_intensive, n)):
        j_flat = _find_flat_onset(rela[i], options)
        if j_flat is not None:
            flat_points.append(ext_bw[j_flat])
    if not flat_points:
        raise CalibrationError(
            "no normal-region calibrator curve flattens; external sweep "
            "must extend beyond the contention balance point"
        )
    cbp = left_sum(flat_points) / len(flat_points)

    # Step 5: average reduction rate inside the normal region, estimated
    # by inverting the model's flat-level formula per row:
    #   RS_flat = minor_level - rate_N * (x + CBP - TBWDC)
    # The flat level dominates the external-pressure sweep, so fitting it
    # directly minimizes average prediction error.
    mrmc_value = mrmc if mrmc is not None else 0.0

    def fit_rate(row_range) -> Optional[float]:
        """Least-squares rate over every dropping-region cell.

        The model predicts ``drop = rate * (x + min(y, CBP) - TBWDC)``;
        fitting rate against all cells (through the origin) matches the
        whole surface instead of a single column, which is what keeps
        mid-pressure predictions accurate when flattening is gradual.
        """
        num = 0.0
        den = 0.0
        for i in row_range:
            x = std_bw[i]
            minor_level = 1.0 - mrmc_value * x / peak_bw
            for j in range(m):
                span = x + min(ext_bw[j], cbp) - tbwdc
                if span <= 0:
                    continue
                drop = minor_level - rela[i][j]
                if drop <= 0:
                    continue
                num += drop * span
                den += span * span
        if den <= 0:
            return None
        return num / den

    rate_n = fit_rate(range(k_boundary, min(k_intensive, n)))
    if rate_n is None:
        raise CalibrationError(
            "could not estimate a normal-region reduction rate"
        )
    rate_n = max(rate_n, 0.0)

    # Step 6 (refinement over the paper): when the sweep contains
    # intensive-region rows, fit the intensive rate empirically with the
    # same flat-level inversion; Eq. 4 stays the fallback otherwise.
    rate_i_override = fit_rate(range(min(k_intensive, n), n))

    return PCCSParameters(
        normal_bw=normal_bw,
        intensive_bw=intensive_bw,
        mrmc=mrmc,
        cbp=cbp,
        tbwdc=tbwdc,
        rate_n=rate_n,
        peak_bw=peak_bw,
        pu_name=pu_name,
        rate_i_override=rate_i_override,
    )
