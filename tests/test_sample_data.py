"""``demos/build_sample_data.py`` rebuilds the bundled ``data/`` tree byte
for byte: every file, and no other file."""

import importlib.util

from conftest import REPO_ROOT


def test_sample_data_reproduced_byte_for_byte(tmp_path, data_dir):
    path = REPO_ROOT / "demos" / "build_sample_data.py"
    spec = importlib.util.spec_from_file_location("build_sample_data", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.ROOT = tmp_path
    demo.main()
    expected = sorted(p.relative_to(data_dir) for p in data_dir.rglob("*") if p.is_file())
    built = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert built == expected
    for rel in expected:
        assert (tmp_path / rel).read_bytes() == (data_dir / rel).read_bytes(), rel
