"""Networks on disk: JSON serialization, CSV matrices, and the snn tool.

Everything the library builds can be written to a JSON file, reloaded
bit-exactly, and driven from the command line.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from strassennet import (build_str_square, load_network, mnn_equal, realize,
                         relu2_factory, save_matrix, save_network)


def snn(*args):
    proc = subprocess.run([sys.executable, "-m", "strassennet.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


with tempfile.TemporaryDirectory(prefix="snn-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}\n")

    print("== round trip through JSON ==")
    net = build_str_square(2, 0.5, 1.0, relu2_factory)
    path = workdir / "square2.json"
    save_network(net, path)
    back = load_network(path)
    print(f"  saved {path.stat().st_size} bytes, "
          f"equal after reload: {mnn_equal(net, back)}")
    A = np.array([[0.3, -0.7], [0.1, 0.9]])
    B = np.array([[1.0, 0.5], [-0.2, 0.4]])
    X = np.hstack([A, B])
    same = np.array_equal(realize(net, X), realize(back, X))
    print(f"  realization identical bit for bit: {same}")

    def describe(doc):
        # a layer of copied blocks stores each distinct block's tables
        # once, under "block": "copies" is r copies of one block, or the
        # runs [r, rows, input rows] of blocks stacked by rows
        layer = doc["layers"][0]
        copies, block = layer.get("copies", 1), layer.get("block", layer)
        if not isinstance(copies, list):
            copies = [[copies, layer["out_rows"] // copies,
                       layer["in_rows"] // copies]]
        runs = " beside ".join(f"{r} x a {o}-row block" for r, o, _ in copies)
        print(f"  file holds {len(doc['layers'])} layers; the first maps "
              f"{layer['in_rows']}x{layer['in_cols']} -> "
              f"{layer['out_rows']}x{layer['out_cols']} as {runs}; its "
              f"block stores {len(block['entries'])} entries")

    describe(json.loads(path.read_text()))
    odd = workdir / "square3.json"
    save_network(build_str_square(3, 0.5, 1.0, relu2_factory), odd)
    print(f"  a 3x3 square, padded to 4x4, saved in {odd.stat().st_size} "
          "bytes:")
    describe(json.loads(odd.read_text()))

    print("\n== the same flow through the CLI ==")
    net_path, C_path = str(workdir / "net.json"), str(workdir / "C.csv")
    rc, out, _ = snn("build", "strassen-square", "--n", "2",
                     "--activation", "relu2", "--out", net_path)
    print(f"  build -> exit {rc}, report: {out.strip()}")

    save_matrix(A, workdir / "A.csv")
    save_matrix(B, workdir / "B.csv")
    rc, _, _ = snn("eval", "--net", net_path, "--a", str(workdir / "A.csv"),
                   "--b", str(workdir / "B.csv"), "--layout", "ab",
                   "--out", C_path)
    C = np.loadtxt(C_path, delimiter=",")
    err = np.max(np.abs(C - A @ B))
    print(f"  eval -> exit {rc}, max |C - AB| = {err:.2e}")

    # exit code 1 flags bad inputs; 2 would flag a failed verification suite
    save_matrix(np.eye(3), workdir / "wrong.csv")
    rc, _, err = snn("eval", "--net", net_path,
                     "--input", str(workdir / "wrong.csv"), "--out", C_path)
    print(f"  shape mismatch -> exit {rc}: {err.strip().splitlines()[-1]}")

    rc, out, _ = snn("verify", "--suite", "gadgets", "--seed", "7")
    print(f"\n== snn verify --suite gadgets --seed 7 -> exit {rc} ==")
    for line in out.strip().splitlines():
        print(f"  {line}")

    rc, out, _ = snn("report", "bounds", "--eps", "0.1")
    print(f"\n== snn report bounds -> exit {rc} ==")
    for line in out.strip().splitlines():
        print(f"  {line}")
