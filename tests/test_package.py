"""The package's export list."""
import qvlab


def test_every_exported_name_resolves():
    missing = [name for name in qvlab.__all__ if not hasattr(qvlab, name)]
    assert missing == []
    assert len(set(qvlab.__all__)) == len(qvlab.__all__)


def test_em_fields_frames_are_the_one_frame_type():
    # em_fields returns MaxwellFrame objects; the per-family container is gone
    assert "EMFields" not in qvlab.__all__
    assert not hasattr(qvlab, "EMFields")
    assert {"MaxwellFrame", "maxwell_residuals", "em_fields"} <= set(qvlab.__all__)
