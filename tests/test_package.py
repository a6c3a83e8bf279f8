import subprocess
import sys

import k3lat


def test_import_loads_no_submodule():
    code = "import sys, k3lat; print([m for m in sys.modules if m.startswith('k3lat.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_names_are_the_objects_of_their_home_modules():
    for name in k3lat.__all__:
        obj = getattr(k3lat, name)
        assert obj.__module__.startswith("k3lat.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert k3lat.census is sys.modules["k3lat.census"]
    namespace = {}
    exec("from k3lat import *", namespace)
    assert set(k3lat.__all__) <= set(namespace)
    assert set(k3lat.__all__) <= set(dir(k3lat))
    assert "Lattice" in k3lat.__all__ and "vectors_of_norm" in k3lat.__all__
