"""The build backend of framebundles (PEP 517 and PEP 660), standard library only.

setuptools before 70.1 writes wheels through the separate ``wheel`` package,
and the setuptools that Python 3.11 bundles (65.5) comes without it, so
``pip install -e '.[test]' --no-build-isolation`` failed with ``invalid
command 'bdist_wheel'`` there.  The package is pure Python, so a wheel is a
zip archive: the modules of ``src/framebundles`` (for an editable install, one
``.pth`` line that puts ``src`` on ``sys.path``) and a ``.dist-info`` directory
written from the ``[project]`` table of ``pyproject.toml``.
"""

import base64
import hashlib
import io
import pathlib
import tarfile
import zipfile

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pyproject.toml asks for tomli there
    import tomli as tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SDIST_FILES = ("pyproject.toml", "README.md", "tools/wheel_backend.py")
TAG = "py3-none-any"


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def _metadata(project: dict) -> bytes:
    lines = [
        "Metadata-Version: 2.1",
        f"Name: {project['name']}",
        f"Version: {project['version']}",
        f"Summary: {project['description']}",
        f"Requires-Python: {project['requires-python']}",
    ]
    lines += [f"Requires-Dist: {d}" for d in project.get("dependencies", [])]
    for extra, deps in project.get("optional-dependencies", {}).items():
        lines.append(f"Provides-Extra: {extra}")
        lines += [f'Requires-Dist: {d}; extra == "{extra}"' for d in deps]
    return ("\n".join(lines) + "\n").encode()


def _digest(data: bytes) -> str:
    return base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=").decode()


def _wheel(directory: str, files: dict[str, bytes]) -> str:
    """Write a wheel of ``files`` (archive name -> content) and its dist-info."""
    project = _project()
    dist = f"{project['name']}-{project['version']}"
    info = f"{dist}.dist-info"
    scripts = "".join(f"{name} = {target}\n" for name, target in project["scripts"].items())
    files = {
        **files,
        f"{info}/METADATA": _metadata(project),
        f"{info}/WHEEL": f"Wheel-Version: 1.0\nRoot-Is-Purelib: true\nTag: {TAG}\n".encode(),
        f"{info}/entry_points.txt": f"[console_scripts]\n{scripts}".encode(),
    }
    record = [f"{name},sha256={_digest(data)},{len(data)}\n" for name, data in files.items()]
    files[f"{info}/RECORD"] = "".join(record + [f"{info}/RECORD,,\n"]).encode()
    name = f"{dist}-{TAG}.whl"
    with zipfile.ZipFile(pathlib.Path(directory) / name, "w", zipfile.ZIP_DEFLATED) as whl:
        for arcname, data in files.items():
            whl.writestr(arcname, data)
    return name


def _modules() -> list[pathlib.Path]:
    return sorted((ROOT / "src" / "framebundles").glob("*.py"))


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None) -> str:
    files = {f"framebundles/{p.name}": p.read_bytes() for p in _modules()}
    return _wheel(wheel_directory, files)


def build_editable(wheel_directory, config_settings=None, metadata_directory=None) -> str:
    return _wheel(wheel_directory, {"framebundles.pth": f"{ROOT / 'src'}\n".encode()})


def build_sdist(sdist_directory, config_settings=None) -> str:
    project = _project()
    dist = f"{project['name']}-{project['version']}"
    paths = [ROOT / p for p in SDIST_FILES] + _modules()
    with tarfile.open(pathlib.Path(sdist_directory) / f"{dist}.tar.gz", "w:gz") as tar:
        for path in paths:
            tar.add(path, f"{dist}/{path.relative_to(ROOT).as_posix()}")
        info = tarfile.TarInfo(f"{dist}/PKG-INFO")
        data = _metadata(project)
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return f"{dist}.tar.gz"
