"""Golden runner trajectories: checkpoint bytes, digests and measurements.

``run_algorithm`` drives DyOneSwap, DyTwoSwap and KSwapFramework (k=3), each
eager and lazy, per operation and in 64-operation batches, over one seeded
temporal stream with a checkpoint every ``EVERY`` operations.  Each case
pins the offsets of the checkpoints written, the SHA-256 of every
checkpoint's canonical document (without its two run-dependent members,
``elapsed_seconds`` and the embedded ``sha256``), the final engine digest
and every :class:`~repro.experiments.metrics.RunMeasurement` field except
``elapsed_seconds``.  A resume from the first checkpoint must reach the same
final digest and measurement.

The values were recorded from the runner before its replay loops were
merged into one.  A change to the runner's loop, chunking or checkpoint
schedule must reproduce them byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.runner import run_algorithm
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.integrity import canonical_bytes, document_digest
from repro.workloads import (
    CheckpointConfig,
    find_checkpoints,
    load_checkpoint,
    synthetic_temporal_events,
    temporal_update_stream,
)

#: Operations between checkpoints: a multiple of the 64-operation batch.
EVERY = 192

CASES = {
    f"{name}{'+lazy' if lazy else ''}-b{batch}": (name, lazy, batch)
    for name in ("DyOneSwap", "DyTwoSwap", "KSwapFramework")
    for lazy in (False, True)
    for batch in (1, 64)
}


def _stream():
    events = synthetic_temporal_events(
        300, num_vertices=80, seed=18, hub_fraction=0.1, hub_bias=0.6
    )
    return temporal_update_stream(events, window=60.0, description="golden")


def _options(name: str, lazy: bool) -> dict:
    options = {"lazy": True} if lazy else {}
    if name == "KSwapFramework":
        options["k"] = 3
    return options


def _document_sha256(path) -> str:
    document = json.loads(path.read_text(encoding="utf-8"))
    del document["elapsed_seconds"]
    return hashlib.sha256(canonical_bytes(document)).hexdigest()


def _fields(measurement) -> dict:
    fields = dataclasses.asdict(measurement)
    del fields["elapsed_seconds"]
    return fields


def _run(case: str, directory, resume_from=None):
    """Run ``case`` into ``directory``; return (measurement, checkpoints)."""
    name, lazy, batch = CASES[case]
    measurement = run_algorithm(
        name,
        DynamicGraph(),
        _stream(),
        dataset="golden",
        batch_size=batch,
        checkpoint=CheckpointConfig(directory=directory, every=EVERY),
        resume_from=resume_from,
        **_options(name, lazy),
    )
    return measurement, find_checkpoints(directory, name)


def observe(case: str, directory) -> dict:
    """Everything the golden pins for ``case``, written under ``directory``."""
    measurement, checkpoints = _run(case, directory)
    final = load_checkpoint(checkpoints[-1][1])
    return {
        "offsets": [offset for offset, _path in checkpoints],
        "documents": [_document_sha256(path) for _offset, path in checkpoints],
        "digest": document_digest(final.payload),
        "measurement": _fields(measurement),
    }


GOLDEN = {
    "DyOneSwap+lazy-b1": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "a16688655892e7eaa7ff53b5f23e769c2be3581ec2bb605ac10fe525075ac32e",
            "e98c2f637109f288e76596a16a49e1ac75fc36d6a5429cb4d1c3cdaae042a489",
            "e681fc19f51b9c2d6248ec87f57bb7ab2e2ac6aca285db45a30306d09e992c1a",
            "a6cfab59b36e2f9062ba619a7dafc1914fb6ef8cbb4921c7c0135c83a660ed0a",
            "d5c527b939ee6a1bf41acb2902b01026a1e217f87c05114845b6fedcfb416f1b",
        ],
        "digest": "2e5118bf8db40bac08bf48d279b823983fd55329eb7bef32b2b94e3cc2e00326",
        "measurement": {
            "algorithm": "DyOneSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 60,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 9.0, "perturbations": 0.0},
        },
    },
    "DyOneSwap+lazy-b64": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "705721f54b5d546ff6c1c60aede88dcd1c7cbbcaba7b38e51ac491135c66902e",
            "ebdbdffd6594cac0cd76247b8742a777a0cfa624c587413a4cd8acab26e31789",
            "240afafb4eecb1d86f193508271d223d1ba7d33d865aa10b09b26c8ca621cff3",
            "f3b24127eef192f2179f8c06a89d82fbfe5f5ac99eac9748ccec47052f350441",
            "3c0fdd32ca4ae85193d241529d861502a0b178c141eac0935fd583e32037628a",
        ],
        "digest": "09ef3c67b41535aa9d5195178f302a9a323a0dbdce50446d27339edd90dbbc5e",
        "measurement": {
            "algorithm": "DyOneSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 60,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 9.0, "perturbations": 0.0, "operations_coalesced": 387.0, "batches_applied": 15.0},
        },
    },
    "DyOneSwap-b1": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "a3e1d08caceb1e2ad95751f09272d605d9601f95cb0c5f12776f8513d93f9014",
            "03136cf40381991249dd1c6affce6201b5040090c13e2d5d5b2f5adaaaa1ad15",
            "e20c9bdc20342527b67f6144b451dd6a4a7c3a9ccb3fb139b8758d979809b5da",
            "40cdfd748e696ab5c4f3bf49d865e9ac88a9e55ae6ac2028de8dc6e7ad1c2b44",
            "5a0b61acec1f220d88d0520466cc99b1878f9bc7ffe8c5bfd337869810545666",
        ],
        "digest": "7e90dd9b1a9cc098270204d02746eee230164b4f70cb74b7de7feee3fec51698",
        "measurement": {
            "algorithm": "DyOneSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 140,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 9.0, "perturbations": 0.0},
        },
    },
    "DyOneSwap-b64": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "d01013177ab089b5f0f968ccf7dd110434b94af3d44d6b82102f3444824de19c",
            "4197d2f6ba49d46e8b70091ee1ac6a8eea5c7415301b3c51745ac8513d5a2e54",
            "a53539f3d2af45443fe036e82c2628f34dbd14170e9f7b15ed0f84b6b1c51cd4",
            "674cfdcbf98d697e6305cf0fccd9bc3dd3650c2ab095cf600ad711f077018ee1",
            "2f92c8ad390a99b82253485ac65316a6f311d028b301c7298407bded11f42f72",
        ],
        "digest": "107491a5dba2c1eda7fa9193df626bd97f827e8ae3835998ca6b1ee40bb764f3",
        "measurement": {
            "algorithm": "DyOneSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 139,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 9.0, "perturbations": 0.0, "operations_coalesced": 387.0, "batches_applied": 15.0},
        },
    },
    "DyTwoSwap+lazy-b1": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "2a4068853534388f540a76624fee9f9dd7a6d8429559fdadaf438bba69e4c798",
            "88e16e4dcde7b9bb4fbdcd2d8ceb837271a877cd76cc988a84619deb72880984",
            "8a1a29db9440e63e784aab42d35a80d4c8f3aab6659df6649cf166da93b6b236",
            "8f0837f2695f89b875bbbdd96a8a9582c9458a9f416b436b7a899fe6f99d5d87",
            "07f4b5eb738f2b81c944f1445e9751925bcdc36785d2adf37236f697d847c342",
        ],
        "digest": "94af91a40471e6b26c6a5d1f1942a86b3e6b4ab7d69b49c8b516521e5a7a219e",
        "measurement": {
            "algorithm": "DyTwoSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 60,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 10.0, "perturbations": 0.0},
        },
    },
    "DyTwoSwap+lazy-b64": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "9dc0992ed3861ec95898a4f2999b8b552a7691c6384981f13f1d1a6c376e302e",
            "2f7d9973fb841f30030d2a48680451d02540b848a6b9e77c6cdbd279106d593e",
            "796fbd49d587fc0fd778ac4d36178fd8ca2fd09eb23a4b319b29da1fdc48e816",
            "3f6963d2bb5f7950cbb17c64f40945f08db8e6c399563028dad28384bb7e9f77",
            "f8d3b813ff540af605cf44746646242c355bde871614e96154f761f8d71ebfc8",
        ],
        "digest": "da0a25a71c8ab37ff9c87b3928ecd7c72047d27eabd4bf8689ea6ecf371e440b",
        "measurement": {
            "algorithm": "DyTwoSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 60,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 11.0, "perturbations": 0.0, "operations_coalesced": 387.0, "batches_applied": 15.0},
        },
    },
    "DyTwoSwap-b1": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "abf47ce2e5213b8645ddecac836a2ddab3a12dfd6a3b4bf420953f48f495c6d6",
            "a74a934d36587e80848817e16a958aa53df8c23476da9d4ae043681422764861",
            "de42f8ca43ce626268183fcfcc8980311413d17cf069e9e7208181cd3f216077",
            "9698ae53dbac488e948bb1ac7ea04756e280b8a3fac5f7c09a9de3855ec063ed",
            "9047d799ddd8b748de8824e2a4322611f3f9077ebcb7b6a5144cbbd0283a0e0f",
        ],
        "digest": "e6946b3b471bc15ef9dd61423714edf5ae2910cb48d35c38311f62a90a44feee",
        "measurement": {
            "algorithm": "DyTwoSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 144,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 10.0, "perturbations": 0.0},
        },
    },
    "DyTwoSwap-b64": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "2216f2ac10eda317c966c72cae50f28bf86ba43921c3e4cf04b1142ef43a42cc",
            "694b2e9015ada76517941ff50b98c961ad56b29fb5055d3d2990b777ca10a816",
            "6a00db2a563817a5a515f377d86862783c6fb6c7ffcc10d6a1696a06e2bf9af3",
            "2519e90a7ae52951252190913f9f1c5055eaccb515f1e00b69f0150648e776e1",
            "f2c0c59e07245084e25960c501e9b3ac317c199b6b279a1bc8fe77e093c67514",
        ],
        "digest": "a60309703d945b7c6d257d5341ab24e6d67fbaf749a9c7b92fe4c8a52d635f28",
        "measurement": {
            "algorithm": "DyTwoSwap",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 143,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 11.0, "perturbations": 0.0, "operations_coalesced": 387.0, "batches_applied": 15.0},
        },
    },
    "KSwapFramework+lazy-b1": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "7f8762c1e6856dcfa36ac486e43957d1d02e1babe3fc2a4213ac796115ce0788",
            "4e40aecdfc9926c99cca25714c7c7a693313673babfcd9d35ea4332f4feded61",
            "1cbd8489b08e1dbca94bfd72709e294ef3dfda74ca204efdf8e8baa74fa5cb35",
            "49877187ce154f35123f7d557e9e2c1d6be3d05c7a0547106a588b556a5274e1",
            "cff2e1bbb410b59e38ddabbae81f7a49570520fa4c3dd04d0a7cf907f3bf9ec8",
        ],
        "digest": "19861cb8bf7b310403f09aee0334740cdf03d8add7b57a45e45775f09f0f1f60",
        "measurement": {
            "algorithm": "KSwapFramework",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 60,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 10.0, "perturbations": 0.0},
        },
    },
    "KSwapFramework+lazy-b64": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "69585a1b14770fb66ceef66a7f781a79e0e67d89225dbd1c4d0b918449709eec",
            "2e65502937db829ef338c349e6359bd3c77b8a496319991384b0f62060d3f5ea",
            "8237beb834b70becd2214c5ef9e1881839cfd3a9b5cc09a921674b3ff213a359",
            "9e42df0d814c7bb53c9854672ce3ae57a7b4c86a7d64b30d76203a8064c75aa0",
            "ac683dfada3257638b149513db4c1064809fd0ccf0440cfb98ad7fa0e551d9ff",
        ],
        "digest": "b1c25f8aa04668ee4dfb2e5fa27245a12ae7ee273340f243d8ceb0f3303ee03a",
        "measurement": {
            "algorithm": "KSwapFramework",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 60,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 11.0, "perturbations": 0.0, "operations_coalesced": 387.0, "batches_applied": 15.0},
        },
    },
    "KSwapFramework-b1": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "46b3005236357fde17f8bd3fec8066dfb04ef57af1e8838b13d22d10246b0e97",
            "064422c0a0afac49fa048ff705fcf53be8f08ab6ec00e0bd04704c441edf982c",
            "286906e57566f3e640fe2febb9d79c3cff64f64e230ea1d09391760f211195f3",
            "411367be6b59a97ed24ac11cdee30605218e20d48c7b6bb898beb24c8d487f8e",
            "b8e971f7120648b52d5ce59c0d5113cf432e366f6e47bca20f73f9b25085507c",
        ],
        "digest": "858d71fd7701c447883f76cd2e24999109019dcf8a5cb79d17f78fcf263f1b07",
        "measurement": {
            "algorithm": "KSwapFramework",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 150,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 10.0, "perturbations": 0.0},
        },
    },
    "KSwapFramework-b64": {
        "offsets": [192, 384, 576, 768, 944],
        "documents": [
            "643cae95a7d98c9cf2c37f9bf3dcb1acb34f6f687588555b9796c5c2a19e50d1",
            "12a805be3e29b8c8a1b270ed156e0f6c0b86c10546cb7645742bf6dc4107752e",
            "f8ea47d1c8042e9fdd8bdd80b3b1e3f1f777a6279e9c7a261dd841f0993934de",
            "e07b029fb18be2b9212bd731bc47554bdd8cb20d6599e07a7fbf978f8ea3b173",
            "3f544eb5fe9d506b215f4d820d6e32433074a63b764b20aaff2ee7e9c1300733",
        ],
        "digest": "6772415409c7497fad1bd94bbe72d2da1598c695559d3ef80cce1430fa0e2042",
        "measurement": {
            "algorithm": "KSwapFramework",
            "dataset": "golden",
            "num_updates": 944,
            "initial_size": 0,
            "final_size": 23,
            "memory_footprint": 149,
            "finished": True,
            "reference_size": None,
            "reference_kind": "unknown",
            "extra": {"swaps": 11.0, "perturbations": 0.0, "operations_coalesced": 387.0, "batches_applied": 15.0},
        },
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_reproduces_the_recorded_trajectory(case, tmp_path):
    assert observe(case, tmp_path / "run") == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_resume_from_the_first_checkpoint_reaches_the_recorded_digest(
    case, tmp_path
):
    golden = GOLDEN[case]
    _measurement, checkpoints = _run(case, tmp_path / "run")
    first = checkpoints[0][1]
    resumed, resumed_checkpoints = _run(case, tmp_path / "resumed", resume_from=first)
    final = load_checkpoint(resumed_checkpoints[-1][1])
    assert resumed_checkpoints[-1][0] == golden["offsets"][-1]
    assert document_digest(final.payload) == golden["digest"]
    assert _fields(resumed) == golden["measurement"]
