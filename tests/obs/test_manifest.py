"""Run-provenance manifests: stable hashes, complete field set."""

from __future__ import annotations

import json

import repro
from repro.obs.manifest import build_manifest, code_version, config_hash


class TestConfigHash:
    def test_deterministic(self):
        assert config_hash({"a": 1}) == config_hash({"a": 1})

    def test_key_order_insensitive(self):
        forward = {"a": 1, "b": [2, 3]}
        backward = {}
        backward["b"] = [2, 3]
        backward["a"] = 1
        assert config_hash(forward) == config_hash(backward)

    def test_different_configs_differ(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_short_hex_digest(self):
        digest = config_hash({})
        assert len(digest) == 16
        int(digest, 16)  # hex-parsable


class TestCodeVersion:
    def test_includes_package_version(self):
        assert code_version().startswith(repro.__version__)

    def test_includes_git_head_in_this_checkout(self):
        assert "+g" in code_version()


class TestBuildManifest:
    def test_field_set_complete(self):
        manifest = build_manifest(
            "fig6",
            config={"steps": 10},
            seed=3,
            wall_seconds=1.25,
            extra={"note": "test"},
        )
        assert manifest.experiment == "fig6"
        assert manifest.config_hash == config_hash({"steps": 10})
        assert manifest.seed == 3
        assert manifest.wall_seconds == 1.25
        assert manifest.cpu_count >= 1
        assert manifest.python_version
        assert manifest.platform
        assert manifest.extra == (("note", "test"),)

    def test_to_json_round_trips(self):
        manifest = build_manifest("fig2", extra={"b": "2", "a": "1"})
        payload = json.loads(manifest.to_json())
        assert payload["experiment"] == "fig2"
        assert payload["extra"] == {"a": "1", "b": "2"}
        assert set(payload) == {
            "experiment", "config_hash", "seed", "code_version",
            "python_version", "platform", "cpu_count", "wall_seconds",
            "extra",
        }

    def test_defaults(self):
        manifest = build_manifest("x")
        assert manifest.seed is None
        assert manifest.config_hash == config_hash({})
        assert manifest.extra == ()
