"""Run-provenance manifests: stable hashes, complete field set."""

from __future__ import annotations

import json

import pytest

import repro
from repro.obs import manifest
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


COMMIT = "0123456789abcdef0123456789abcdef01234567"
OTHER = "fedcba9876543210fedcba9876543210fedcba98"


def fake_checkout(tmp_path, head, files=()):
    """A ``.git`` holding ``HEAD`` and the given (path, text) files."""
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text(head)
    for rel, text in files:
        (git / rel).parent.mkdir(parents=True, exist_ok=True)
        (git / rel).write_text(text)
    return tmp_path


class TestCodeVersion:
    """``code_version`` reads ``.git`` by hand; each layout is checked
    on a fake checkout, so the suite passes outside a git checkout."""

    def test_includes_package_version(self):
        assert code_version().startswith(repro.__version__)

    @pytest.mark.parametrize(
        "head, files",
        [
            pytest.param(
                "ref: refs/heads/main\n",
                [("refs/heads/main", COMMIT + "\n")],
                id="ref-file",
            ),
            pytest.param(
                "ref: refs/heads/main\n",
                [
                    (
                        "packed-refs",
                        "# pack-refs with: peeled fully-peeled sorted\n"
                        f"{OTHER} refs/heads/other\n"
                        f"{COMMIT} refs/heads/main\n",
                    )
                ],
                id="packed-refs",
            ),
            pytest.param(COMMIT + "\n", [], id="detached-head"),
        ],
    )
    def test_git_head_of_a_checkout(self, tmp_path, monkeypatch, head, files):
        root = fake_checkout(tmp_path, head, files)
        monkeypatch.setattr(manifest, "_repo_root", lambda: root)
        assert code_version() == f"{repro.__version__}+g{COMMIT[:12]}"

    def test_bare_version_outside_a_checkout(self, monkeypatch):
        monkeypatch.setattr(manifest, "_repo_root", lambda: None)
        assert code_version() == repro.__version__


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
