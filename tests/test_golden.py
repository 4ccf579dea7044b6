"""Golden-byte gate: container bytes of a fixed seeded corpus never drift.

Every case compresses one small seeded synthetic trajectory and pins the
SHA-256 of its serialized container.  A change that alters any byte must
declare and justify a format change and record new hashes here.
"""

import hashlib

import pytest

from pilotc import PROFILES, compress, serialize, synthetic_trajectory

# profile -> (eps, dim): block sizes 25..110; mopsi at eps=0.3 keeps every slot (r_ret = 1)
_PROFILES = {
    "geolife": (10.0, 2),
    "geolife3d": (20.0, 3),
    "nuplan": (0.5, 2),
    "mopsi": (0.3, 2),
}
_KINDS = {
    "smooth": dict(),
    "jittery": dict(jitter=2.0),
    "nonuniform": dict(gap_jitter=0.6, big_gap_rate=0.004),
    "mixed": dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.004,
                  teleport_rate=0.002),
}
_CHUNK_BITS = (1, 2, 4)
_POINTS = 1200

GOLDEN = {
    "geolife/smooth/l1": "03a5112623fc900ea5a65422d082ba8fcb560c29f2f527c6f0ba2636ef2b4aba",
    "geolife/smooth/l2": "60524cc4a81cbd40275029d16d3512fe85b56dc5d45b75337048a9c9ab99b7ca",
    "geolife/smooth/l4": "ab5b564bad6deb8159c82f7ca6f9b8fb36b03fc2fd78475f7b36ff72d23c1b0f",
    "geolife/jittery/l1": "1e79eadf402f2ccefe40386af032b6c041da95fcb2d8aa86e4c3820f3dd5c133",
    "geolife/jittery/l2": "a58b24ece2021d23acdac835956fcf10694db207a18ac5a08fdb9f2af36f6458",
    "geolife/jittery/l4": "8cbdb519ffa20147d479fa625c55e7d288b6488b1de4c7d3a5236692e54bb60c",
    "geolife/nonuniform/l1": "89f66a3c1f0d97fceeee9548bfdb8e4fbcb3bce6cb516ba860d7c3a812c88ed4",
    "geolife/nonuniform/l2": "94dc743e85c50393ab810f2764b22a2b3d1703686c96e6bb7cae8c3eecda7b7e",
    "geolife/nonuniform/l4": "1ac3242dafa25cdb864362a07561d46974de7cf0bea0c58f644790d7a9d1fb57",
    "geolife/mixed/l1": "1b0371779d940a4ebb6ab31a04e44d4fced6a3e9f0e05a344e6feea7147c2423",
    "geolife/mixed/l2": "eea9c39a19c0d5d39584a6160d634c1330b530c4e610208ac1a6be57e8c18842",
    "geolife/mixed/l4": "64250b3b8b069ee7c7f7e0cce48d90bb055553fc50a30a8b34a74cf2103181a9",
    "geolife3d/smooth/l1": "18318d361595fa6d342aa6dce1f70d57a82cc81d17a9eea9583fef0685586d54",
    "geolife3d/smooth/l2": "7b79f7f260d975bf69803477f436a0a7714388b916f5f96e173ec435af8619c6",
    "geolife3d/smooth/l4": "a4491b285a4a9c3abd6f34b80d0644f605826e10ec9d29232148c9093418f851",
    "geolife3d/jittery/l1": "75c6a94c09d951accc245b5ec0319090b45252716fa56ea6970ff5baf3e21a02",
    "geolife3d/jittery/l2": "6431156af6f629b25e66d37c91d36454294fcc49e3cd46d2dd255f3d05ab3fe2",
    "geolife3d/jittery/l4": "97acf44583100047036017825527de61a0c349ea5b9f38137e5974499c8f086c",
    "geolife3d/nonuniform/l1": "5142aa87aa9cc2af69460545d9709079995a24915f2ab5592a318935d4879124",
    "geolife3d/nonuniform/l2": "b4b76400b6a69a54bc5c52de36f129c67082669c494dad9de82314ff43e49535",
    "geolife3d/nonuniform/l4": "06edb5f95547f7383d05b8bb5f6a4fbdffa7c3c496166ecf359c2c75f4e1eb35",
    "geolife3d/mixed/l1": "0595015a49a475a10266c28d2a8a57dbf554e8bdf0a7c09851905160f2656be9",
    "geolife3d/mixed/l2": "5bb868913c717f8743a02b6455b3980ed959bf537e3a47150e526df513557b7a",
    "geolife3d/mixed/l4": "f5b4daecc317b9abd4c28b46bd33361dee05da268cfaedbea45bc0bfd8fe19cb",
    "nuplan/smooth/l1": "c03bd43cbc8c1f52256b852154255a6d3f529c79d6feab9b6eeb6781a3d545db",
    "nuplan/smooth/l2": "a3a859e2eea4da949f6fb2c8bf6c7cf1bad928c9354e838f2400498f95b7bcf2",
    "nuplan/smooth/l4": "761d43fa5a39869651ffe3677fac73ee082514ad913f9f8ae04851f32860ba41",
    "nuplan/jittery/l1": "6f3a03f29e6b8dd165f8ee7ccf27f1a02af96f2c8504d40a04ec7ba2238e8410",
    "nuplan/jittery/l2": "468ec128cd5b3d0b8f8d54af5b61ab583865e2ceb18c4778cbc69e870dd7e8f2",
    "nuplan/jittery/l4": "c63744ed6d2d57511ce05797ed29010fdcf10763af3cfa410b45dbbc9c0a40de",
    "nuplan/nonuniform/l1": "5cf8c11ecbdcd77a5500b26ac664061dadda241bcbc436ab0b6d0acf11ac0c62",
    "nuplan/nonuniform/l2": "59c622a2705f0944ec5806ae61350cb00032d2d53ceaba995ed04cfa67c49d5d",
    "nuplan/nonuniform/l4": "a2c0c333dbd4c79d5c8ef2929b49fb791390fb534fb128a5088a73745ef858cf",
    "nuplan/mixed/l1": "731f1a68e2fdbf35fb35d030e5e381ffb9c60cacafd2a420a636c3bdc255407e",
    "nuplan/mixed/l2": "b023dcc9f8b16e627a448c0571a341ffd8adc722fb61d156dd7e228c85a60561",
    "nuplan/mixed/l4": "c9a5422261f11c2942e4e3a9bcafd35d772c9221ee306d07da3a897670e306ef",
    "mopsi/smooth/l1": "a7f22881da8745caa1a2db182874bb9b8da8b148f75467fd18eecaceefca230f",
    "mopsi/smooth/l2": "dbf2713393165af40157020d483f3a09357f0fbdcd47112aa76e88dca9f1f5e5",
    "mopsi/smooth/l4": "2547d84d41dc4637830a827e2725955d5efe2fbf7686d97f151a8a5f508cf220",
    "mopsi/jittery/l1": "473e10fc253b96d0c518a235db170d9d9143eaba2a7ea0eb3779d5e16cbcef35",
    "mopsi/jittery/l2": "331439abcfb5e3730e5d4a93ff7befdbad59995f3cb5bd9b2d35cec85a1eb2d8",
    "mopsi/jittery/l4": "e9856f5d122e76c60ea986df8afa18b441eda80369c23ac61848c3a2e15e0a7f",
    "mopsi/nonuniform/l1": "fecd33e6752e6b74d6a0da689c9bb54ad7aa6d5359df41e181a3949c25d92c54",
    "mopsi/nonuniform/l2": "095777e37a5b02996be13bd703471422a418356ae8214e1faa284fc28b7c8cb3",
    "mopsi/nonuniform/l4": "22895052fd11bbf30d17d071ea93f7f07a58927a14463cbc01f358c0e904d75f",
    "mopsi/mixed/l1": "540d051723ecb9ae13fe69e697df63a68d176f1b96d4a3418e806b2493eced44",
    "mopsi/mixed/l2": "36759bef354b325237848bafa560d7f014b7a77e355f2de1fdeb90472b7bd2a1",
    "mopsi/mixed/l4": "4c64f50e48245491f2459f33258353ad942bc7f6a9f707bdbd68f182861aa391",
}


def _container(profile_name: str, kind: str, chunk_bits: int) -> bytes:
    eps, dim = _PROFILES[profile_name]
    seed = 1000 * list(_PROFILES).index(profile_name) + list(_KINDS).index(kind)
    traj = synthetic_trajectory(_POINTS, dim=dim, seed=seed, **_KINDS[kind])
    profile = PROFILES[profile_name]
    params = profile.params(eps, eps_t=0.001, chunk_bits=chunk_bits)
    return serialize(compress(traj, params), profile)


@pytest.mark.parametrize("chunk_bits", _CHUNK_BITS)
@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize("profile_name", list(_PROFILES))
def test_container_bytes_are_pinned(profile_name, kind, chunk_bits):
    payload = _container(profile_name, kind, chunk_bits)
    digest = hashlib.sha256(payload).hexdigest()
    assert digest == GOLDEN[f"{profile_name}/{kind}/l{chunk_bits}"]
