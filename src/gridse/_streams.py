"""Seeded numpy random streams, computed in blocks.

numpy seeds every ``default_rng(entropy)`` stream the same way (NEP 19):
SeedSequence hashes the entropy's 32-bit words into a 4-word pool and
generates PCG64's 128-bit seed and stream from it. This module repeats
that seeding as uint32 array arithmetic over a whole block of seeds at
once, then either sets one reused PCG64's state and lets numpy draw
(:func:`_seeded_generators`), or steps PCG64 once and reads numpy's
ziggurat by table (:func:`_meter_noise`). Every draw is bit-identical to
numpy's own; entropy too wide for the pool goes through ``default_rng``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

# SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants, fixed
# by NEP 19: numpy/random/bit_generator.pyx and the pcg64 sources.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as a read-only uint32 array."""
    out = np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                    for k in range(count + 1)], dtype=np.uint32)
    out.setflags(write=False)
    return out


# SeedSequence calls its entropy hash 4 + 12 times and its output hash
# 8 times (4 uint64 words); call k xors constant k and multiplies by k + 1.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS ** 2)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)
# the constants of each word's first entropy hash and of each output word's
# hash, as columns against word-major (one row per word) arrays
_POOL_XOR = _HASH_A[:_POOL_WORDS, None]
_POOL_MULT = _HASH_A[1:_POOL_WORDS + 1, None]
_OUT_XOR, _OUT_MULT = _HASH_B[:-1, None], _HASH_B[1:, None]


def _mix_constants() -> tuple[np.ndarray, np.ndarray]:
    """Per source word, the entropy-hash constants of the calls that mix it
    into each other word (xor, multiply), one column of 4 each; the
    source's own entry is 0."""
    xor = np.zeros((_POOL_WORDS, _POOL_WORDS), dtype=np.uint32)
    mult = np.zeros_like(xor)
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if dst != src:
                xor[src, dst], mult[src, dst] = _HASH_A[k], _HASH_A[k + 1]
                k += 1
    return xor[:, :, None], mult[:, :, None]


_MIX_XOR, _MIX_MULT = _mix_constants()


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> _XSHIFT)


def _words(values: list[int]) -> np.ndarray:
    """The low 4 (``_POOL_WORDS``) 32-bit words of each non-negative int, least
    significant first, as a word-major (4, P) uint32 array, word j in row
    j: the zero-padded entropy of every value below 2**128, read in one
    pass from their 16-byte little-endian forms."""
    data = b"".join((v & _MASK128).to_bytes(16, "little") for v in values)
    return np.frombuffer(data, dtype="<u4").reshape(len(values), _POOL_WORDS) \
        .T.astype(np.uint32, order="C")


def _word_count(value: int) -> int:
    """How many uint32 words SeedSequence makes of a non-negative int."""
    return max(1, -(-value.bit_length() // 32))


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(8, uint32)`` for each column
    of a zero-padded word-major (4, P) uint32 entropy array, as a (8, P)
    array: output word j of every column in row j.

    With at most 4 entropy words the zero padding is exactly what the pool
    mixing hashes in their place. Read as little-endian uint32 pairs, the
    8 words are ``generate_state(4, uint64)``, the words PCG64 seeds from:
    its seed's high and low halves, then its stream's. Each word is hashed
    as one contiguous row.
    """
    pool = _xorshift((entropy ^ _POOL_XOR) * _POOL_MULT)
    for src in range(_POOL_WORDS):
        # each other word takes in this one, hashed with its own constant;
        # the source word keeps its value
        hashed = _xorshift((pool[src] ^ _MIX_XOR[src]) * _MIX_MULT[src])
        mixed = _xorshift(pool * _MIX_MULT_L - hashed * _MIX_MULT_R)
        mixed[src] = pool[src]
        pool = mixed
    return _xorshift((np.concatenate((pool, pool)) ^ _OUT_XOR) * _OUT_MULT)


def _pcg64_states(words: np.ndarray) -> list[dict]:
    """numpy's ``PCG64.state`` after seeding from each column of a (8, P)
    block of seed words: the two ``pcg_setseq_128_srandom_r`` steps, in
    Python integers."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.T.astype("<u4", order="C") \
            .view("<u8").tolist():
        inc = (((i_hi << 64 | i_lo) << 1) | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _seeded_generators(seeds: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each non-negative integer seed in turn, a Generator in the state
    of ``np.random.default_rng(seed)``.

    The whole block is seeded in one :func:`_seed_words` pass. A seed below
    2**128 has at most 4 words, whose zero padding is what SeedSequence
    hashes in place of the missing ones, so its words set the state of one
    reused PCG64 and numpy makes every draw from there. A wider seed gets
    ``default_rng`` itself. A yielded Generator is valid only until the next
    one is asked for.
    """
    seeds = [int(s) for s in seeds]
    states = _pcg64_states(_seed_words(_words(seeds)))
    generator = np.random.Generator(np.random.PCG64(0))
    for seed, state in zip(seeds, states):
        if _word_count(seed) > _POOL_WORDS:
            yield np.random.default_rng(seed)
        else:
            generator.bit_generator.state = state
            yield generator


def _step_products() -> tuple[np.ndarray, np.ndarray]:
    """The state of each stream's first draw as a product of its 8 seed
    words.

    With s and i the seed's and the stream's 128-bit words, seeding sets
    inc = 2i + 1 and state = (inc + s) M + inc, and the draw steps the
    state once more, to s M**2 + i 2C + C with C = M**2 + M + 1, all mod
    2**128. Each 32-bit word times each 16-bit digit of its multiplier
    (M**2 or 2C) lands on a 16-bit place of that state. The matrix sums
    these partial products into places 0, 2, 4, 6 and then 1, 3, 5, 7, one
    row per place, and the column adds C's digits there. Every sum is an
    integer below 2**52, so one float64 matrix product computes them all
    exactly.
    """
    square = _PCG_MULT * _PCG_MULT & _MASK128
    const = (square + _PCG_MULT + 1) & _MASK128
    # the 32-bit place of each seed word: generate_state(4, uint64) gives
    # the seed's high then low half, then the stream's, low word first
    places = (2, 3, 0, 1)
    column = [q // 2 + 4 * (q % 2) for q in range(8)]
    products = np.zeros((8, 8))
    for word in range(8):
        mult = square if word < 4 else 2 * const & _MASK128
        place = 2 * places[word % 4]
        for digit in range(8 - place):
            products[column[place + digit], word] = mult >> 16 * digit & 0xFFFF
    offset = np.zeros((8, 1))
    offset[column, 0] = [const >> 16 * q & 0xFFFF for q in range(8)]
    return products, offset


_STEP_PRODUCTS, _STEP_OFFSET = _step_products()
_U64 = {n: np.uint64(n) for n in (9, 16, 32, 55, 58, 63, 64, 0xFF, 0xFFFF)}
_MASK52, _SIGN = np.uint64((1 << 52) - 1), np.uint64(1 << 63)


def _first_outputs(words: np.ndarray) -> np.ndarray:
    """The first uint64 that PCG64 outputs when seeded from each column of
    a (8, P) block of seed words: the state from :func:`_step_products`,
    then XSL-RR, rotr(hi ^ lo, hi >> 58)."""
    u = _U64
    sums = (_STEP_PRODUCTS @ words.astype(np.float64)
            + _STEP_OFFSET).astype(np.uint64)
    even, odd = sums[:4], sums[4:]
    # the sum at each 32-bit place, below 2**53
    places = even + ((odd & u[0xFFFF]) << u[16])
    places[1:] += odd[:3] >> u[16]
    halves = places[0::2] + (places[1::2] << u[32])
    lo = halves[0]
    hi = halves[1] + ((places[1] + (places[0] >> u[32])) >> u[32])
    word, rot = hi ^ lo, hi >> u[58]
    return (word >> rot) | (word << ((u[64] - rot) & u[63]))


def _normals(outputs: np.ndarray, scales: np.ndarray, states) -> np.ndarray:
    """out[r, c] = 0.0 + scales[c] * x, numpy's ``random_standard_normal``
    of a stream whose next output is outputs[r, c], as
    ``Generator.normal(0.0, scales[c])`` computes it.

    numpy's ziggurat takes the layer from the low byte, the sign from bit
    8 and rabs from bits 9..60. It returns x = rabs * wi[layer], negated
    when the sign bit is set, if rabs < ki[layer] (about 99 % of draws).
    Any other draw (the base layer's tail and the wedges) reads more
    outputs, so it is made by ``normal`` itself. ``states`` is called once,
    with the rows and the columns of all those draws, and gives each one's
    stream's ``PCG64.state`` before its output.
    """
    u = _U64
    layer = outputs & u[0xFF]
    rabs = (outputs >> u[9]) & _MASK52
    x = rabs.astype(np.float64) * _WI[layer]
    x = (x.view(np.uint64) | ((outputs << u[55]) & _SIGN)).view(np.float64)
    # loc + scale * x with loc = 0, which turns -0.0 into +0.0; a fused
    # multiply-add in numpy's C would give the same bits
    noise = 0.0 + scales * x
    rows, cols = np.nonzero(rabs >= _KI[layer])
    if len(rows):
        generator = np.random.Generator(np.random.PCG64(0))
        for r, c, state in zip(rows.tolist(), cols.tolist(),
                               states(rows, cols)):
            generator.bit_generator.state = state
            noise[r, c] = generator.normal(0.0, scales[c])
    return noise


def _meter_noise(seeds, scales: np.ndarray) -> np.ndarray:
    """out[r, c] = default_rng([seeds[r], c]).normal(0.0, scales[c]).

    Bit-identical to that expression for non-negative integer seeds.
    SeedSequence turns the pair into 32-bit words: the seed's (one below
    2**32, two below 2**64, ...), then the meter index's one. Seeds below
    2**96 leave room in its 4-word pool, so every pair's stream is seeded,
    stepped and read through numpy's ziggurat in one vectorized pass
    (:func:`_normals`); larger seeds go through default_rng itself.
    """
    seeds = [int(s) for s in seeds]
    counts = np.array([_word_count(s) for s in seeds], dtype=np.intp)
    fits = counts < _POOL_WORDS
    # word-major: entropy[j, r, c] is word j of the pair (seeds[r], c)
    entropy = np.repeat(_words(seeds)[:, :, None], len(scales), axis=2)
    entropy[counts[fits], fits] = np.arange(len(scales), dtype=np.uint32)
    words = _seed_words(entropy.reshape(_POOL_WORDS, -1))
    outputs = _first_outputs(words).reshape(len(seeds), len(scales))
    noise = _normals(outputs, scales, lambda rows, cols: _pcg64_states(
        words[:, rows * len(scales) + cols]))
    for r in np.flatnonzero(~fits):
        noise[r] = [np.random.default_rng([seeds[r], c]).normal(0.0, scale)
                    for c, scale in enumerate(scales.tolist())]
    return noise


# numpy's ziggurat tables (ziggurat_constants.h), one entry per layer, four
# hex words to a line. wi_double (float64 bit patterns) turns rabs into x,
# and ki_double is the least rabs a layer sends to its tail or wedge. Both
# were read from numpy's own draws: PCG64's output is invertible, so a state
# can be built to output any word; wi[layer] is normal(0, 1) of the word
# with rabs 1, and ki[layer] the least rabs whose draw reads a second
# output, found by bisection. test_ziggurat_tables_are_numpys does the same.
_WI = np.array([int(w, 16) for w in """
    3ccf493b7815d979 3c8b8d0be3fdf6c6 3c9250af3c2c5bb4 3c957cb938443b61
    3c9801fce82fa70c 3c9a230c2e4cd0bc 3c9c004d2f3861f7 3c9dac2f5a747274
    3c9f32482d4cd5c3 3ca04d32278ebbad 3ca0f5053b025d43 3ca192a697413677
    3ca227a28f7a1af5 3ca2b52e3863d880 3ca33c3fc05791f5 3ca3bd9ec1a2b12f
    3ca439ef8dff9b55 3ca4b1bb363dfea7 3ca52575621ad374 3ca59580a707ce96
    3ca60231cfd97eea 3ca66bd261a37c3d 3ca6d2a292000570 3ca736dad346f8a6
    3ca798ad10b32a77 3ca7f845ad46f543 3ca855cc53430a77 3ca8b1649e7b769a
    3ca90b2ea94ecf98 3ca96347822c1eea 3ca9b9c98e38c546 3caa0eccdca4a72c
    3caa62676d77cd59 3caab4ad6e101630 3cab05b16d136c9c 3cab558487427a29
    3caba4368e529f3a 3cabf1d62abf8232 3cac3e70f9594ef3 3cac8a13a5323b61
    3cacd4c9fe72268b 3cad1e9f0e80b748 3cad679d29e41f10 3cadafce0023b8c3
    3cadf73aa9f17653 3cae3debb5d2edfe 3cae83e9337a6f00 3caec93abdf982ce
    3caf0de784f06226 3caf51f654d8f688 3caf956d9e87d7ae 3cafd8537dfa2eac
    3cb00d56e04234ec 3cb02e40f5398f9a 3cb04eea9e16a5fc 3cb06f565b72a010
    3cb08f869071f40b 3cb0af7d84bc6113 3cb0cf3d664bcc7f 3cb0eec84b16086b
    3cb10e20329515ee 3cb12d4707310fbe 3cb14c3e9f8e9141 3cb16b08bfc4201e
    3cb189a71a78da34 3cb1a81b51ee6d88 3cb1c666f8f82acb 3cb1e48b93e0d42e
    3cb2028a9940a09f 3cb2206572c4c6e9 3cb23e1d7de9c31f 3cb25bb40ca96bfb
    3cb2792a661dd37f 3cb29681c719d71b 3cb2b3bb62b82eda 3cb2d0d862e1b853
    3cb2edd9e8cba98e 3cb30ac10d6e48d7 3cb3278ee1f4b930 3cb3444470265ea1
    3cb360e2baca52d5 3cb37d6abe05586a 3cb399dd6fb2b264 3cb3b63bbfb83d03
    3cb3d28698561de0 3cb3eebede725a83 3cb40ae571e09e74 3cb426fb2da6745d
    3cb44300e83c30a4 3cb45ef773cac75d 3cb47adf9e66c336 3cb496ba32488f2f
    3cb4b287f602415d 3cb4ce49acb311dc 3cb4ea001638a605 3cb505abef5e5562
    3cb5214df20a8b5a 3cb53ce6d56a664f 3cb558774e1bb2c8 3cb574000e555f78
    3cb58f81c60e8514 3cb5aafd23241b59 3cb5c672d17d733d 3cb5e1e37b2f8cd3
    3cb5fd4fc89f5e38 3cb618b860a31fc3 3cb6341de8a2b0a2 3cb64f8104b7260b
    3cb66ae257c99672 3cb6864283b13137 3cb6a1a22950b2b1 3cb6bd01e8b343bb
    3cb6d8626128d352 3cb6f3c43161f854 3cb70f27f78b68eb 3cb72a8e516914c6
    3cb745f7dc70eedc 3cb7616535e5731f 3cb77cd6faeff449 3cb7984dc8babd93
    3cb7b3ca3c8b1409 3cb7cf4cf3db22fb 3cb7ead68c73dee7 3cb80667a486ea1f
    3cb82200dac88676 3cb83da2ce899f15 3cb8594e1fd1f5bd 3cb875036f7a7ec5
    3cb890c35f47f72d 3cb8ac8e9205c043 3cb8c865aba10c9c 3cb8e44951446a27
    3cb9003a2973b58f 3cb91c38dc288347 3cb9384612ef0afc 3cb954627903a28a
    3cb9708ebb70d5ee 3cb98ccb892e2a31 3cb9a919933f99bf 3cb9c5798cd5d92c
    3cb9e1ec2b6f7411 3cb9fe7226fad24a 3cba1b0c39f93692 3cba37bb21a2c85b
    3cba547f9e0bbb88 3cba715a724aa9a4 3cba8e4c64a0313d 3cbaab563e9ff108
    3cbac878cd5af5ce 3cbae5b4e18bb336 3cbb030b4fc3a11a 3cbb207cf09a985b
    3cbb3e0aa0e00c00 3cbb5bb541ce3d03 3cbb797db93f8927 3cbb9764f1e5f73c
    3cbbb56bdb85256e 3cbbd3936b2ec0a2 3cbbf1dc9b81ae83 3cbc10486cec16a0
    3cbc2ed7e5f07a2d 3cbc4d8c136e0d1c 3cbc6c6608ec8705 3cbc8b66e0eba617
    3cbcaa8fbd36a2ab 3cbcc9e1c73bd690 3cbce95e3068e037 3cbd0906328b8f6e
    3cbd28db1037ef20 3cbd48de1533c647 3cbd691096e7f123 3cbd8973f4d7fba5
    3cbdaa0999206e70 3cbdcad2f8fc490e 3cbdebd195522e37 3cbe0d06fb49d21c
    3cbe2e74c4ea46f6 3cbe501c99c1d188 3cbe72002f97fe25 3cbe94214b2abf0a
    3cbeb681c0f76f08 3cbed9237610a73a 3cbefc086101eca9 3cbf1f328ac25321
    3cbf42a40fb74d6d 3cbf665f20c90168 3cbf8a6604899782 3cbfaebb187122bf
    3cbfd360d22fe785 3cbff859c118f60b 3cc00ed447d3a075 3cc021a8028fc947
    3cc034a983a902ab 3cc047da4e3ef5c7 3cc05b3bf6adb37e 3cc06ed023a72668
    3cc082988f632e17 3cc0969708e8a254 3cc0aacd7571c0c4 3cc0bf3dd1eed448
    3cc0d3ea34aa3d30 3cc0e8d4cf116593 3cc0fdffefa69fb6 3cc1136e04207041
    3cc129219bbb5d35 3cc13f1d69c4096d 3cc1556448602e3b 3cc16bf93b9deef3
    3cc182df74d21261 3cc19a1a564eebac 3cc1b1ad777f2f8e 3cc1c99ca971a694
    3cc1e1ebfbe4ae39 3cc1fa9fc2e2d901 3cc213bc9d04cc81 3cc22d477a6fd3ee
    3cc24745a4ac9c24 3cc261bcc77658e0 3cc27cb2faa8592e 3cc2982ecd770e78
    3cc2b437532a0a52 3cc2d0d43196db97 3cc2ee0db1a978f5 3cc30becd256aeee
    3cc32a7b5e68a4a3 3cc349c405ae12a3 3cc369d27a33a840 3cc38ab39256410a
    3cc3ac7570ae88fa 3cc3cf27b31704a6 3cc3f2dbaa60f475 3cc417a49cb9e5da
    3cc43d9815545e94 3cc464ce44a73a15 3cc48d62759c43bc 3cc4b7739d6b5a27
    3cc4e3250dcd8902 3cc5109f53e9ac41 3cc54011523a7e42 3cc571b1a94ae41b
    3cc5a5c08b718dd9 3cc5dc8a243ad0fe 3cc61669cf861e4c 3cc653ce7b006aea
    3cc69540be9fe5c3 3cc6db6b8d09e232 3cc72728f05f7a34 3cc7799556090673
    3cc7d42df4d6ce8c 3cc839030529f234 3cc8ab0fbfaa7c14 3cc92ee0946f4496
    3cc9cbee014057ab 3cca8fdc7894775a 3ccb981f3878fdb1 3ccd3bb48209ad33
""".split()], dtype=np.uint64).view(np.float64)
_KI = np.array([int(w, 16) for w in """
    000ef33d8025ef6a 0000000000000000 000c08be98fbc6a8 000da354fabd8142
    000e51f67ec1eeea 000eb255e9d3f77e 000eef4b817ecab9 000f19470afa44aa
    000f37ed61ffcb18 000f4f469561255c 000f61a5e41ba396 000f707a755396a4
    000f7cb2ec28449a 000f86f10c6357d3 000f8fa6578325de 000f9724c74dd0da
    000f9da907dbf509 000fa360f581fa74 000fa86fde5b4bf8 000facf160d354dc
    000fb0fb6718b90f 000fb49f8d5374c6 000fb7ec2366fe77 000fbaece9a1e50e
    000fbdab9d040bed 000fc03060ff6c57 000fc2821037a248 000fc4a67ae25bd1
    000fc6a2977aee31 000fc87aa92896a4 000fca325e4bde85 000fcbcce902231a
    000fcd4d12f839c4 000fceb54d8fec99 000fd007bf1dc930 000fd1464dd6c4e6
    000fd272a8e2f450 000fd38e4ff0c91e 000fd49a9990b478 000fd598b8920f53
    000fd689c08e99ec 000fd76ea9c8e832 000fd848547b08e8 000fd9178bad2c8c
    000fd9dd07a7add2 000fda9970105e8c 000fdb4d5dc02e20 000fdbf95c5bfcd0
    000fdc9debb99a7d 000fdd3b8118729d 000fddd288342f90 000fde6364369f64
    000fdeee708d514e 000fdf7401a6b42e 000fdff46599ed40 000fe06fe4bc24f2
    000fe0e6c225a258 000fe1593c28b84c 000fe1c78cbc3f99 000fe231e9db1caa
    000fe29885da1b91 000fe2fb8fb54186 000fe35b33558d4a 000fe3b799d0002a
    000fe410e99ead7f 000fe46746d47734 000fe4bad34c095c 000fe50baed29524
    000fe559f74ebc78 000fe5a5c8e41212 000fe5ef3e138689 000fe6366fd91078
    000fe67b75c6d578 000fe6be661e11aa 000fe6ff55e5f4f2 000fe73e5900a702
    000fe77b823e9e39 000fe7b6e37070a2 000fe7f08d774243 000fe8289053f08c
    000fe85efb35173a 000fe893dc840864 000fe8c741f0cebc 000fe8f9387d4ef6
    000fe929cc879b1d 000fe95909d388ea 000fe986fb939aa2 000fe9b3ac714866
    000fe9df2694b6d5 000fea0973abe67c 000fea329cf166a4 000fea5aab32952c
    000fea81a6d5741a 000feaa797de1cf0 000feacc85f3d920 000feaf07865e63c
    000feb13762fec13 000feb3585fe2a4a 000feb56ae3162b4 000feb76f4e284fa
    000feb965fe62014 000febb4f4cf9d7c 000febd2b8f449d0 000febefb16e2e3e
    000fec0be31ebde8 000fec2752b15a15 000fec42049dafd3 000fec5bfd29f196
    000fec75406ceef4 000fec8dd2500cb4 000feca5b6911f12 000fecbcf0c427fe
    000fecd38454fb15 000fece97488c8b3 000fecfec47f91b7 000fed1377358528
    000fed278f844903 000fed3b10242f4c 000fed4dfbad586e 000fed605498c3dd
    000fed721d414fe8 000fed8357e4a982 000fed9406a42cc8 000feda42b85b704
    000fedb3c8746ab4 000fedc2df416652 000fedd171a46e52 000feddf813c8ad3
    000feded0f909980 000fedfa1e0fd414 000fee06ae124bc4 000fee12c0d95a06
    000fee1e579006e0 000fee29734b6524 000fee34150ae4bc 000fee3e3db89b3c
    000fee47ee2982f4 000fee51271db086 000fee59e9407f41 000fee623528b42e
    000fee6a0b5897f1 000fee716c3e077a 000fee7858327b82 000fee7ecf7b06ba
    000fee84d2484ab2 000fee8a60b66343 000fee8f7accc851 000fee94207e25da
    000fee9851a829ea 000fee9c0e13485c 000fee9f557273f4 000feea22762ccae
    000feea4836b42ac 000feea668fc2d71 000feea7d76ed6fa 000feea8ce04fa0a
    000feea94be8333b 000feea950296410 000feea8d9c0075e 000feea7e7897654
    000feea678481d24 000feea48aa29e83 000feea21d22e4da 000fee9f2e352024
    000fee9bbc26af2e 000fee97c524f2e4 000fee93473c0a3a 000fee8e40557516
    000fee88ae369c7a 000fee828e7f3dfd 000fee7bdea7b888 000fee749bff37ff
    000fee6cc3a9bd5e 000fee64529e007e 000fee5b45a32888 000fee51994e57b6
    000fee474a0006cf 000fee3c53e12c50 000fee30b2e02ad8 000fee2462ad8205
    000fee175eb83c5a 000fee09a22a1447 000fedfb27e349cc 000fedebea76216c
    000feddbe422047e 000fedcb0ece39d3 000fedb964042cf4 000feda6dce938c9
    000fed937237e98d 000fed7f1c38a836 000fed69d2b9c02b 000fed538d06ae00
    000fed3c41dea422 000fed23e76a2fd8 000fed0a732fe644 000fecefda07fe34
    000fecd4100eb7b8 000fecb708956eb4 000fec98b61230c1 000fec790a0da978
    000fec57f50f31fe 000fec356686c962 000fec114cb4b335 000febeb948e6fd0
    000febc429a0b692 000feb9af5ee0cdc 000feb6fe1c98542 000feb42d3ad1f9e
    000feb13b00b2d4b 000feae2591a02e9 000feaaeae992257 000fea788d8ee326
    000fea3fcffd73e5 000fea044c8dd9f6 000fe9c5d62f563b 000fe9843ba947a4
    000fe93f471d4728 000fe8f6bd76c5d6 000fe8aa5dc4e8e6 000fe859e07ab1ea
    000fe804f690a940 000fe7ab488233c0 000fe74c751f6aa5 000fe6e8102aa202
    000fe67da0b6abd8 000fe60c9f38307e 000fe5947338f742 000fe51470977280
    000fe48bd436f458 000fe3f9bffd1e37 000fe35d35eeb19c 000fe2b5122fe4fe
    000fe20003995557 000fe13c82788314 000fe068c4ee67b0 000fdf82b02b71aa
    000fde87c57efeaa 000fdd7509c63bfd 000fdc46e529bf13 000fdaf8f82e0282
    000fd985e1b2ba75 000fd7e6ef48cf04 000fd613adbd650b 000fd40149e2f012
    000fd1a1a7b4c7ac 000fcee204761f9e 000fcba8d85e11b2 000fc7d26ecd2d22
    000fc32b2f1e22ed 000fbd6581c0b83a 000fb606c4005434 000fac40582a2874
    000f9e971e014598 000f89fa48a41dfc 000f66c5f7f0302c 000f1a5a4b331c4a
""".split()], dtype=np.uint64)
