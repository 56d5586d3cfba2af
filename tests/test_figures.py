"""Golden digests of every registered figure at the CLI's ``--quick``
parameters, plus the two cells those digests once pinned wrong.

One ``python -m repro.harness --quick -j 1 --no-cache`` session renders
all eleven figures.  Each figure's rendered table text and its planned
``RunKey`` list (in order) are pinned as SHA-256 digests, so a change to
how figures are declared, planned, reduced or rendered that moves a
single character or key fails here.  The planned list is the one each
figure prefetches on entry; the session's first prefetch is the union of
them all, in the same order.
"""

import hashlib
from statistics import mean

import pytest

from repro.harness.__main__ import main
from repro.harness.experiments import FIGURES, ExperimentResult, run_experiment
from repro.harness.runner import Runner
from repro.workloads import PARSEC_APACHE, SPLASH2

NAMES = ("fig6_1", "fig6_2", "fig6_3", "fig6_4", "fig6_5", "fig6_6",
         "fig6_7", "fig6_8", "fig6_9", "fig_l_sensitivity", "table6_1")

TABLE_DIGESTS = {
    "fig6_1": "eb5ad7920df931d2493e17b62076f0f2ae51b23150583bcf85bfaeaba15d5af2",
    "fig6_2": "d66b492e708f846b1f5e2ee49a8d67ca37ca74616482e600831d2d3e79a71a6f",
    "fig6_3": "22c2927402890ff9af2773e7ce4724d7a35246c32c710ec3b3a74e57c8c58baa",
    "fig6_4": "1ae5695010b2f7625e711cbb20b99666cb5fec940626423acef5845f0477362d",
    "fig6_5": "0bacd04fe676c8ad93db5eda891be34f293947953bcc2ec8b5327f83b9fc1a8a",
    "fig6_6": "9fd2beaaf67cadf772d79c242b6261bb7be4e7170748f27f32da65d70f553039",
    "fig6_7": "4991b76a4c60f8db5c65fc03d821ec38eb5a3778ce882f4b58951d4e8a4a54d1",
    "fig6_8": "e6d9fa5016400ad8eb117bf090db2d5e082a970c4aa21731f30280dd9f3ddacf",
    "fig6_9": "7efe05e02299f505ae0b2c335fde407fb566024e12ad78969a5afbcdf6c5c630",
    "fig_l_sensitivity": "1ea9528601711d37f89f43152437e3da441e72ff629897c6a58bd41fe12ad0d4",
    "table6_1": "2ee40959eb138c2576d623f5c33bb33fe95dd2505e0a7c3f304d9fdf98e880f9",
}

PLAN_DIGESTS = {
    "fig6_1": "9f9e006f6d9cdd9bd25b0139083a0e35eda60401f6cf034adb8884ef990aff1d",
    "fig6_2": "2472a06ca5bb964bcc53d30cfd2333a6b36932f0ebdb313fe6515fc46afa4a30",
    "fig6_3": "40ba1c461ff9bf8bb244c3df80664c7ae217678672c4408a91e2d2ed7014e53e",
    "fig6_4": "e2215a14c5f51c262ec597b7157fdfa1079ad6cda87fc9e56635c1e67f8c252f",
    "fig6_5": "455283e9ba4ef695e000351a7e92814a23a7eb5e1f75fbda8715411f08febfff",
    "fig6_6": "ce7d92c2c669671e215099619f3667d3d7db93759fca294b3fb939ef1c7babcb",
    "fig6_7": "c8c932fabafae9fa32550145a3545e63e94c6d4dfeda6ed3cdcd59e1c4447bb3",
    "fig6_8": "9774ff83ad2cd4cfef4cd1bd3467e48070545defbfe2bd7a23d94e20f6a1b025",
    "fig6_9": "9113e731c61d4f1eac95a59b32db0c763741d22037ced3bd30f9b318ac7a0197",
    "fig_l_sensitivity": "2fb724c922c509ca93c4c9a77a480b6bba6430029826ae539e5105b306031f34",
    "table6_1": "a7608f07c2146238c80100d1e72daff123670007ba5ba746ee62ac6be679a723",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def quick_session():
    """Every figure's rendered text and planned keys from one session."""
    texts, prefetches = [], []
    render, prefetch = ExperimentResult.render, Runner.prefetch

    def recording_render(self):
        texts.append(render(self))
        return texts[-1]

    def recording_prefetch(self, keys):
        prefetches.append(list(keys))
        return prefetch(self, prefetches[-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExperimentResult, "render", recording_render)
        patch.setattr(Runner, "prefetch", recording_prefetch)
        assert main([*NAMES, "--quick", "-j", "1", "--no-cache"]) == 0
    union, plans = prefetches[0], prefetches[1:]
    assert len(texts) == len(plans) == len(NAMES)
    assert union == [key for plan in plans for key in plan]
    return dict(zip(NAMES, texts)), dict(zip(NAMES, plans))


@pytest.mark.parametrize("name", NAMES)
def test_rendered_table_digest(quick_session, name):
    texts, _ = quick_session
    assert _sha(texts[name]) == TABLE_DIGESTS[name], texts[name]


@pytest.mark.parametrize("name", NAMES)
def test_planned_keys_digest(quick_session, name):
    _, plans = quick_session
    text = "\n".join(repr(key) for key in plans[name])
    assert _sha(text) == PLAN_DIGESTS[name]


class TestFig62Sizes:
    def test_two_distinct_sizes_above_four_cores(self):
        for cores in range(5, 129):
            small, large = FIGURES["fig6_2"].cli(cores, 24)["sizes"]
            assert small < large == cores, cores

    def test_paper_sizes_at_default_cores(self):
        assert FIGURES["fig6_2"].cli(64, 24)["sizes"] == (32, 64)

    def test_quick_header_names_both_sizes(self, quick_session):
        texts, _ = quick_session
        assert "4p Rebound  8p Rebound" in texts["fig6_2"]


class TestTable61ScaledLogAverage:
    @pytest.mark.parametrize("scale", [100, 200])
    def test_average_is_mean_of_scaled_column(self, scale):
        apps = [SPLASH2[0], PARSEC_APACHE[0]]
        result = run_experiment("table6_1", Runner(scale=scale,
                                                   intervals=1.5),
                                apps=apps, splash_cores=4, parsec_cores=4)
        *per_app, average = result.rows
        assert average[0] == "average"
        assert average[2] == mean(row[2] for row in per_app)
        assert average[3] == mean(row[3] for row in per_app)
        cell = f"{average[2]:.3f}"
        assert result.render().splitlines()[-2].split()[2] == cell
