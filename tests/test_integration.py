"""End-to-end integration tests: the paper's headline claims in miniature.

These exercise the full pipeline (generator → TNAM → diffusion → cluster →
metrics) and assert the qualitative results the evaluation section reports.
"""

import importlib
import pkgutil
import time

import numpy as np
import pytest

import repro
from repro import LACA, load_dataset, make_method
from repro.eval.harness import evaluate_method, sample_seeds

SCALE = 0.15


@pytest.fixture(scope="module")
def cora():
    return load_dataset("cora", scale=SCALE)


@pytest.fixture(scope="module")
def yelp():
    return load_dataset("yelp", scale=SCALE)


@pytest.fixture(scope="module")
def reddit():
    return load_dataset("reddit", scale=SCALE)


def _best_fit_seconds(graph, names, repeats=5):
    """Best-of-``repeats`` ``fit`` wall time per method, in alternating rounds."""
    best = dict.fromkeys(names, float("inf"))
    for _ in range(repeats):
        for name in names:
            method = make_method(name)
            start = time.perf_counter()
            method.fit(graph)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


class TestHeadlineClaims:
    def test_laca_beats_pure_topology_on_noisy_links(self, cora):
        """Table V shape: LACA (C) > PR-Nibble on citation graphs."""
        seeds = sample_seeds(cora, 10)
        laca = evaluate_method(cora, "LACA (C)", seeds)
        nibble = evaluate_method(cora, "PR-Nibble", seeds)
        assert laca.mean_precision > nibble.mean_precision

    def test_laca_beats_pure_attributes_on_weak_attrs(self, reddit):
        """Table V shape: SimAttr collapses on Reddit; LACA does not."""
        seeds = sample_seeds(reddit, 8)
        laca = evaluate_method(reddit, "LACA (C)", seeds)
        simattr = evaluate_method(reddit, "SimAttr (C)", seeds)
        assert laca.mean_precision > simattr.mean_precision + 0.2

    def test_attribute_methods_shine_on_yelp(self, yelp):
        """Table V shape: on Yelp, SimAttr ≈ LACA ≫ PR-Nibble."""
        seeds = sample_seeds(yelp, 8)
        simattr = evaluate_method(yelp, "SimAttr (C)", seeds)
        nibble = evaluate_method(yelp, "PR-Nibble", seeds)
        laca = evaluate_method(yelp, "LACA (C)", seeds)
        assert simattr.mean_precision > nibble.mean_precision
        assert laca.mean_precision > nibble.mean_precision

    def test_snas_ablation_hurts(self, cora):
        """Table VI shape: removing SNAS costs precision."""
        seeds = sample_seeds(cora, 10)
        full = evaluate_method(cora, "LACA (C)", seeds)
        ablated = evaluate_method(cora, "LACA (w/o SNAS)", seeds)
        assert full.mean_precision > ablated.mean_precision

    def test_online_stage_is_fast(self, cora):
        """Fig. 7 shape: LACA's online stage runs in milliseconds and its
        preprocessing is cheaper than embedding-based competitors'.

        The fits take ~10 ms each, so one wall time of each is noise;
        they are timed in alternating best-of-5 rounds, so drift in host
        speed hits both methods alike."""
        seeds = sample_seeds(cora, 5)
        laca = evaluate_method(cora, "LACA (C)", seeds)
        assert laca.mean_online_seconds < 0.5
        fit = _best_fit_seconds(cora, ("LACA (C)", "PANE (K-NN)"))
        assert fit["LACA (C)"] < fit["PANE (K-NN)"] * 5, fit


class TestLocality:
    def test_output_volume_scales_with_inverse_epsilon(self, cora):
        """Lemma IV.3: explored volume bounded by O(1/((1-α)ε))."""
        model_loose = LACA(metric="cosine", epsilon=1e-3).fit(cora)
        model_tight = LACA(metric="cosine", epsilon=1e-6).fit(cora)
        loose = model_loose.scores(0)
        tight = model_tight.scores(0)
        vol_loose = cora.vector_volume(loose.rwr.q)
        assert vol_loose <= 2.0 / ((1.0 - 0.8) * 1e-3) + 1e-6
        assert loose.support_size <= tight.support_size

    def test_explored_region_grows_with_budget(self, cora):
        sizes = []
        for epsilon in [1e-2, 1e-4, 1e-6]:
            model = LACA(metric="cosine", epsilon=epsilon).fit(cora)
            sizes.append(model.scores(3).support_size)
        assert sizes[0] <= sizes[1] <= sizes[2]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_top_level_names_importable(self):
        """Every name in the ``__all__`` of ``repro`` and of each of its
        subpackages and modules resolves, so a deleted name cannot stay
        exported."""
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith("__main__")
        ]
        assert {"repro.core", "repro.diffusion", "repro.serving", "repro.graphs"} <= {
            module.__name__ for module in modules
        }
        missing = [
            f"{module.__name__}.{name}"
            for module in modules
            for name in module.__all__
            if getattr(module, name, None) is None
        ]
        assert missing == []

    def test_quickstart_snippet(self, cora):
        model = LACA(metric="cosine").fit(cora)
        cluster = model.cluster(seed=0, size=20)
        assert len(cluster) == 20

    def test_make_method_round_trip(self, cora):
        method = make_method("HK-Relax").fit(cora)
        assert method.cluster(0, 10).shape == (10,)
