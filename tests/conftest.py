import pytest

from ionarch import netsim
from link_engine_oracle import engine_link_run


@pytest.fixture(scope="session")
def on_engine():
    """Call ``fn(*args, **kwargs)`` with the event engine serving every link
    request in place of the closed form: the oracle of the closed form."""
    def call(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(netsim, "_closed_form_link_run", engine_link_run)
            return fn(*args, **kwargs)
    return call
