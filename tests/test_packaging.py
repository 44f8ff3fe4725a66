"""The build backend in tools/: wheels that pip can install without setuptools' bdist_wheel."""

import base64
import hashlib
import sys
import zipfile
from pathlib import Path

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import wheel_backend  # noqa: E402


def _read_wheel(path):
    with zipfile.ZipFile(path) as whl:
        return {name: whl.read(name) for name in whl.namelist()}


def _check_record(files):
    info = next(name.split("/")[0] for name in files if name.endswith(".dist-info/RECORD"))
    rows = files[f"{info}/RECORD"].decode().splitlines()
    assert rows[-1] == f"{info}/RECORD,,"
    recorded = {}
    for row in rows[:-1]:
        name, digest, size = row.split(",")
        recorded[name] = (digest, int(size))
    for name, data in files.items():
        if name != f"{info}/RECORD":
            sha = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=").decode()
            assert recorded.pop(name) == (f"sha256={sha}", len(data))
    assert not recorded
    return info


def test_wheel_holds_every_module_and_the_console_script(tmp_path):
    files = _read_wheel(tmp_path / wheel_backend.build_wheel(str(tmp_path)))
    info = _check_record(files)
    modules = sorted(p.name for p in (ROOT / "src" / "framebundles").glob("*.py"))
    assert sorted(n.split("/")[1] for n in files if n.startswith("framebundles/")) == modules
    assert files["framebundles/cli.py"] == (ROOT / "src" / "framebundles" / "cli.py").read_bytes()
    assert b"framebundles = framebundles.cli:run" in files[f"{info}/entry_points.txt"]
    assert b'Requires-Dist: pytest; extra == "test"' in files[f"{info}/METADATA"]


def test_editable_wheel_puts_src_on_the_path(tmp_path):
    files = _read_wheel(tmp_path / wheel_backend.build_editable(str(tmp_path)))
    _check_record(files)
    assert files["framebundles.pth"].decode() == f"{ROOT.resolve() / 'src'}\n"
