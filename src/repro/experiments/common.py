"""Shared experiment plumbing: cached engines and models per SoC."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.baselines.gables import GablesModel
from repro.core.calibration import build_pccs_parameters
from repro.core.model import PCCSModel
from repro.core.parameters import PCCSParameters
from repro.soc.configs import soc_by_name, spec_text
from repro.soc.engine import CoRunEngine

#: Both registries are deliberately per-process caches of
#: deterministic constructions — every process that builds an engine or
#: calibration for the same SoC gets an identical object, so
#: coordinator/worker divergence is benign (each side just builds its
#: own on first use and keeps it).
_ENGINES: Dict[str, CoRunEngine] = {}
_PARAMS: Dict[Tuple[str, str], PCCSParameters] = {}


def engine_for(soc_name: str) -> CoRunEngine:
    """A cached engine for a built-in SoC (standalone profiles persist)."""
    engine = _ENGINES.get(soc_name)
    if engine is None:
        engine = CoRunEngine(soc_by_name(soc_name))
        _ENGINES[soc_name] = engine
    return engine


def _calibration_signature(soc_name: str, pu_name: str) -> str:
    """Content signature of one PU's calibration (simcache key input)."""
    return repr(("calibration.v1", soc_name, spec_text(soc_name), pu_name))


def pccs_params_for(soc_name: str, pu_name: str) -> PCCSParameters:
    """Cached, empirically-constructed PCCS parameters for one PU.

    Calibration runs measurement sweeps on the engine, so besides the
    in-process registry it participates in the content-addressed
    simulation cache when one is active (``--sim-cache``): a warm
    re-run loads the constructed parameters instead of re-sweeping.
    Results are bit-identical either way — construction is pure,
    deterministic float math over the (hashed) SoC spec.
    """
    key = (soc_name, pu_name)
    params = _PARAMS.get(key)
    if params is None:
        from repro.perf.simcache import active_sim_cache

        cache = active_sim_cache()
        cache_key = None
        if cache is not None:
            cache_key = cache.key_for_signature(
                _calibration_signature(soc_name, pu_name)
            )
            found, value = cache.lookup(cache_key)
            if found:
                _PARAMS[key] = value
                return value
        params = build_pccs_parameters(engine_for(soc_name), pu_name)
        _PARAMS[key] = params
        if cache is not None and cache_key is not None:
            cache.store(cache_key, params)
    return params


def pccs_model_for(soc_name: str, pu_name: str) -> PCCSModel:
    """Cached PCCS model for one PU of a built-in SoC."""
    return PCCSModel(pccs_params_for(soc_name, pu_name))


def gables_model_for(soc_name: str) -> GablesModel:
    """Gables baseline for a built-in SoC."""
    return GablesModel(engine_for(soc_name).soc.peak_bw)


def all_pccs_models(soc_name: str) -> Dict[str, PCCSModel]:
    """PCCS models for every PU of a built-in SoC."""
    engine = engine_for(soc_name)
    return {pu: pccs_model_for(soc_name, pu) for pu in engine.soc.pu_names}


def clear_caches() -> None:
    """Drop cached engines and parameters (tests use this)."""
    _ENGINES.clear()
    _PARAMS.clear()
