"""Optimized code for the six workloads is pinned by the SHA-256 of its
rendered assembly, per config and machine model: the optimizer (the
``addrfold`` reassociation above all), register allocation and frame
layout must keep producing the same code.  The postprocessors' output
is pinned too: O_safe code after the peephole pass and O code after
allocation sinking, on ss10, run as public functions on a compiled
program and as the compile stages that ``CompileConfig.peephole`` and
``CompileConfig.sink`` name."""

import hashlib

import pytest

from repro.machine.driver import CompileConfig, compile_source, front_memo
from repro.machine.models import MODELS
from repro.postproc import postprocess, sink_program
from repro.workloads import load_workload

ASM_SHA256 = {
    ("cordtest", "O", "ss2"):
        "0c641b503ddde7095e42c5a3511173f072bcae829c64df3385e8518647f34dce",
    ("cordtest", "O", "ss10"):
        "0c641b503ddde7095e42c5a3511173f072bcae829c64df3385e8518647f34dce",
    ("cordtest", "O", "p90"):
        "47087df16f5490b1d70c26064b57f8b2983b464e6ee33e11a00382136de8453c",
    ("cordtest", "O_safe", "ss2"):
        "3866584d538d1aa09140d13dade9e15278bda78e9a16e2660e5334bd9aa67070",
    ("cordtest", "O_safe", "ss10"):
        "3866584d538d1aa09140d13dade9e15278bda78e9a16e2660e5334bd9aa67070",
    ("cordtest", "O_safe", "p90"):
        "58d4a4cab79ee05c562c2ee67df4abfee55ca06c4be993579b42666d7da67aae",
    ("cfrac", "O", "ss2"):
        "15139febfece145eda7d5ce5d87258d625d97359849f37df429d116811b83483",
    ("cfrac", "O", "ss10"):
        "15139febfece145eda7d5ce5d87258d625d97359849f37df429d116811b83483",
    ("cfrac", "O", "p90"):
        "24a22f1ef88f2a57f5395f28920bf970f95e34861764c029eb6966fe88bd378e",
    ("cfrac", "O_safe", "ss2"):
        "28b6c176569654d9c51830c89a7c09a81ae49004dd5378433dbbcbad811de4e3",
    ("cfrac", "O_safe", "ss10"):
        "28b6c176569654d9c51830c89a7c09a81ae49004dd5378433dbbcbad811de4e3",
    ("cfrac", "O_safe", "p90"):
        "f3a5e256918b5708d1d37123a1a02510ab353e948a74a7cae6d7d20982f04d19",
    ("miniawk", "O", "ss2"):
        "fc30d5c71155cada162c556b5153751a049cb5c50e9e418b7837145e136b6ded",
    ("miniawk", "O", "ss10"):
        "fc30d5c71155cada162c556b5153751a049cb5c50e9e418b7837145e136b6ded",
    ("miniawk", "O", "p90"):
        "6ee4ef3fccbb4464d440a699fa9f8bf045aeafa45b3922102f709efeb273acb3",
    ("miniawk", "O_safe", "ss2"):
        "f83945d69465af051772912df4ceb1e60d4f9f0c74e33a7d49d6d61042247023",
    ("miniawk", "O_safe", "ss10"):
        "f83945d69465af051772912df4ceb1e60d4f9f0c74e33a7d49d6d61042247023",
    ("miniawk", "O_safe", "p90"):
        "1dabd61190be32533171d0ee6e123ab0dc518eb678ec702cae0e96a1b1ef68c2",
    ("minips", "O", "ss2"):
        "1ed2d9cec224c8c08ab537ebc2f0f7bdc6399c4dabdb4393f9f742a5978f54ff",
    ("minips", "O", "ss10"):
        "1ed2d9cec224c8c08ab537ebc2f0f7bdc6399c4dabdb4393f9f742a5978f54ff",
    ("minips", "O", "p90"):
        "893c7206a0d51970a1e1bfa9a11111f32288536a8599d0546509192f119441fa",
    ("minips", "O_safe", "ss2"):
        "5f3e15c545c7c447ff2287061f4d79cb08768b366c4bf4288a3ce3d8f5fa3013",
    ("minips", "O_safe", "ss10"):
        "5f3e15c545c7c447ff2287061f4d79cb08768b366c4bf4288a3ce3d8f5fa3013",
    ("minips", "O_safe", "p90"):
        "c11aeb55d2808c20835607afd8e6589361ae775daa8414c88e9e99dd5b8cb57c",
    ("gcbench", "O", "ss2"):
        "ce34e33bb627dc36b51f06142c89eeaeecef2164aed938ae1ac18a413692405e",
    ("gcbench", "O", "ss10"):
        "ce34e33bb627dc36b51f06142c89eeaeecef2164aed938ae1ac18a413692405e",
    ("gcbench", "O", "p90"):
        "0c8ff7a384f35d15620e36bf508af8f8dcb2ea11815d3a0013222cf13efdce87",
    ("gcbench", "O_safe", "ss2"):
        "6965c1f1e9381cefc3e90e406f1e1bddf23fe397d887f274dfeb652995a3ca39",
    ("gcbench", "O_safe", "ss10"):
        "6965c1f1e9381cefc3e90e406f1e1bddf23fe397d887f274dfeb652995a3ca39",
    ("gcbench", "O_safe", "p90"):
        "da2d65b2b77b5f9c2c22045bd078168be35801a691f2c174b48a8252db0060b1",
    ("scratch", "O", "ss2"):
        "e45806ebc0ddf31ac2d3823e8913d2607e011b49a25d545cae7aec611ef6b1a5",
    ("scratch", "O", "ss10"):
        "e45806ebc0ddf31ac2d3823e8913d2607e011b49a25d545cae7aec611ef6b1a5",
    ("scratch", "O", "p90"):
        "0dd6e082f3f98ad2946a7f82914ac1f08553004608a1dae4cb5b329e6cb77749",
    ("scratch", "O_safe", "ss2"):
        "570656ecd194458e6a79774134cfb76a152044860be302e3a8c64704a7406a75",
    ("scratch", "O_safe", "ss10"):
        "570656ecd194458e6a79774134cfb76a152044860be302e3a8c64704a7406a75",
    ("scratch", "O_safe", "p90"):
        "78fa70359cee34877d966df4fbe0058c241227bed51a7e863f462b01f9d971c5",
}


@pytest.mark.parametrize("config", ["O", "O_safe"])
@pytest.mark.parametrize("workload", sorted({w for w, _, _ in ASM_SHA256}))
def test_workload_asm_is_pinned(workload, config):
    source = load_workload(workload)
    with front_memo():
        for model in ("ss2", "ss10", "p90"):
            asm = compile_source(
                source, CompileConfig.named(config, MODELS[model])).render_asm()
            assert (hashlib.sha256(asm.encode()).hexdigest()
                    == ASM_SHA256[workload, config, model]), model


# (workload, postprocessor) -> SHA-256 of the rendered ss10 code after it:
# ``postprocess`` runs on O_safe code, ``sink_program`` on O code.
POSTPROC_SHA256 = {
    ("cordtest", "postprocess"):
        "672c8c5381ce2211a5f21037fa519a56f50cb110233b8d273b89e3e5747d87ea",
    ("cordtest", "sink_program"):
        "0c641b503ddde7095e42c5a3511173f072bcae829c64df3385e8518647f34dce",
    ("cfrac", "postprocess"):
        "4725938b50036dfeeda5557f76818d4925b697a89df5fcce70d652b6d855ee80",
    ("cfrac", "sink_program"):
        "15139febfece145eda7d5ce5d87258d625d97359849f37df429d116811b83483",
    ("miniawk", "postprocess"):
        "3c12dad24269da66cf5afdf95dcc5f910b9247c3be978058e44595cfe7a84fa9",
    ("miniawk", "sink_program"):
        "fc30d5c71155cada162c556b5153751a049cb5c50e9e418b7837145e136b6ded",
    ("minips", "postprocess"):
        "d20fc7675216aff064505e4aedafd2cbaf59b1893e70d9efa5f989b5ec1e539a",
    ("minips", "sink_program"):
        "1ed2d9cec224c8c08ab537ebc2f0f7bdc6399c4dabdb4393f9f742a5978f54ff",
    ("gcbench", "postprocess"):
        "4ecf6fe91689529d4397b63b2c45d2886de987a4fb87106ee24dcfd140cc1c7b",
    ("gcbench", "sink_program"):
        "ce34e33bb627dc36b51f06142c89eeaeecef2164aed938ae1ac18a413692405e",
    ("scratch", "postprocess"):
        "754622e8b5df9ab3f1d4845470b7b57030d3ab2f60c84b1de0ac882a0987b442",
    ("scratch", "sink_program"):
        "d6086670493886d22290f398126721e8d1d92d765c69d2309f76f490b0abe60a",
}
POSTPROCESSORS = {"postprocess": ("O_safe", "peephole", postprocess),
                  "sink_program": ("O", "sink", sink_program)}


@pytest.mark.parametrize("stage", (False, True), ids=("function", "stage"))
@pytest.mark.parametrize("postprocessor", sorted(POSTPROCESSORS))
@pytest.mark.parametrize("workload", sorted({w for w, _ in POSTPROC_SHA256}))
def test_postprocessed_asm_is_pinned(workload, postprocessor, stage):
    config_name, field, run = POSTPROCESSORS[postprocessor]
    config = CompileConfig.named(config_name, MODELS["ss10"])
    source = load_workload(workload)
    compiled = compile_source(source, config)
    stats = run(compiled.asm)
    if stage:
        setattr(config, field, True)
        compiled = compile_source(source, config)
        assert getattr(compiled, f"{field}_stats") == stats
    assert (hashlib.sha256(compiled.asm.render().encode()).hexdigest()
            == POSTPROC_SHA256[workload, postprocessor])
