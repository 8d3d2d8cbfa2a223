import pytest

from chronus.model import save_model, train_mle
from chronus.pipeline import Artifacts, data_path
from chronus.training import FeedbackCorpus

from helpers import count_full


@pytest.fixture(scope="session")
def artifacts():
    return Artifacts.load_bundled()


@pytest.fixture(scope="session")
def demo_corpus():
    return FeedbackCorpus.load(data_path("demo_corpus.txt"))


@pytest.fixture(scope="session")
def seed_corpus():
    return FeedbackCorpus.load(data_path("seed_corpus.txt"))


@pytest.fixture(scope="session")
def semi_corpus():
    return FeedbackCorpus.load(data_path("semi_corpus.txt"))


@pytest.fixture(scope="session")
def demo_counts(artifacts, demo_corpus, seed_corpus):
    """The counts of every gold segmentation bundled with the package."""
    return count_full(demo_corpus.seed_segmentations()
                      + seed_corpus.seed_segmentations(), artifacts)


@pytest.fixture(scope="session")
def demo_model(demo_counts):
    """Model trained on every gold segmentation bundled with the package."""
    return train_mle(demo_counts, 0.001)


@pytest.fixture(scope="session")
def demo_model_path(demo_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "demo_model.txt"
    save_model(demo_model, path)
    return str(path)
