"""KV block store: lifecycle, sharing, eviction, conservation."""

import hashlib

import pytest

from repro.errors import HostDetachedError, KvCacheError
from repro.fabric.manager import FabricManager
from repro.kvserve.blocks import (
    BlockState,
    KvBlockStore,
    KvPool,
    block_payload,
)
from repro.kvserve.engine import KvServeEngine

BLOCK = 1024


@pytest.fixture()
def pool() -> KvPool:
    return KvPool(FabricManager.build(2), BLOCK, slots_per_host=4)


@pytest.fixture()
def store(pool) -> KvBlockStore:
    return KvBlockStore(pool)


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _add(store, tag: str, holder: int = 0, producer: int = 0):
    key = _key(tag)
    store.add_local(key, block_payload(key, BLOCK), 16, producer, holder)
    return key


class TestPayload:
    def test_deterministic_and_sized(self):
        key = _key("a")
        assert block_payload(key, 100) == block_payload(key, 100)
        assert len(block_payload(key, 100)) == 100
        assert block_payload(key, 64) != block_payload(_key("b"), 64)

    # sha256 of block_payload(key, size), pinned from the original
    # bytearray/to_bytes implementation of the counter stream
    GOLDEN = {
        "00" * 32: (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "62c66a7a5dd70c3146618063c344e531e6d4b59e379808443ce962b3abd63c5a",
            "de498acba1e99c09586c99350b08c3499cbfc670e4fd401522f99437b45e7346",
            "ca5ace6dec772a290777987fd77016fcfd32925a42c84389b7b5fbd1c02654e1",
            "fff161c0805266adbac0da677301ecddc8ba44226c70f38d222819fc791d4be2",
            "329a853f49eafa023bac704f6dff7ae911ea439890d7cd7415df903ab42cf2f5",
        ),
        hashlib.sha256(b"prefix").hexdigest(): (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "333e0a1e27815d0ceee55c473fe3dc93d56c63e3bee2b3b4aee8eed6d70191a3",
            "a3daa498f7c79cbc1d30b06cebc1dd19bfdca3110425c3e1e517464920955e1f",
            "64281ffeff74b0f1696cb62e03dc177fb19d9eb17634232433540e7dd4b3cd58",
            "cf44e14e2b474cf756021eb782ebfbc9efb092d764bd19700e24c9d3799abca0",
            "20f0814c63eef318ade54508250f0aca1f327d1ac949a2c0889d382b625003b2",
        ),
        "c0ffee": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
            "4eb0aabbe6d5a76fa2764d51f53493a83857ecc09df510dcd05f34f23c3f5a66",
            "326eb99243ca519edbbdd2372a9489519bb5fb4e2e3fadc69f018e7713efb1b1",
            "d1003ff14714a41a23e488ae8ab34f4feb88a92c91186aba1c084db32fe1be37",
            "1d758d84a84d3d3957d8f8e182bb72d0df4cc78c02ce49d8776baf9c35b28913",
        ),
    }

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_golden_bytes(self, key):
        # 1024 is the engine's default block_bytes (16 tokens x 64 B)
        sizes = (0, 1, 31, 32, 33, 1024)
        got = tuple(hashlib.sha256(block_payload(key, n)).hexdigest()
                    for n in sizes)
        assert got == self.GOLDEN[key]
        assert KvServeEngine().block_bytes == 1024

    def test_stream_beyond_the_precomputed_counters(self):
        key = _key("long")
        seed = bytes.fromhex(key)
        want = b"".join(
            hashlib.sha256(seed + i.to_bytes(4, "little")).digest()
            for i in range(1100))[:35_000]
        assert block_payload(key, 35_000) == want


class TestLifecycle:
    def test_offload_pools_and_drops_local_copy(self, store):
        key = _add(store, "a")
        ns = store.offload(key, prefer_host=0)
        block = store.get(key)
        assert ns > 0
        assert block.state is BlockState.POOLED
        assert block.payload is None
        assert block.loc is not None and block.loc.host == 0

    def test_read_pooled_round_trips_over_the_fabric(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        payload, ns = store.read_pooled(key, via_host=0)
        assert payload == block_payload(key, BLOCK)
        assert ns > 0
        _, far_ns = store.read_pooled(key, via_host=1)
        assert far_ns > ns     # cross-host read costs far_factor more

    def test_read_detects_corrupted_pool_bytes(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        block = store.get(key)
        sl = store.pool._slices[block.loc.host]
        store.pool.manager.write(sl, block.loc.slot * BLOCK, b"\0" * BLOCK)
        with pytest.raises(KvCacheError, match="integrity"):
            store.read_pooled(key, 0)

    def test_offload_requires_local_state(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        with pytest.raises(KvCacheError, match="must be local"):
            store.offload(key, 0)

    def test_add_local_rejects_duplicates(self, store):
        key = _add(store, "a")
        with pytest.raises(KvCacheError, match="already exists"):
            store.add_local(key, block_payload(key, BLOCK), 16, 0, 1)


class TestSharing:
    def test_acquire_bumps_refcount_and_counts_hits(self, store):
        key = _add(store, "a", holder=0)
        store.offload(key, 0)
        block = store.acquire(key, 7)
        assert block.holders == frozenset({0, 7})
        assert store.counters["shared_hits"] == 1
        store.release(key, 7)
        assert store.get(key).holders == frozenset({0})

    def test_release_all_drops_one_holder_everywhere(self, store):
        keys = [_add(store, t, holder=5) for t in ("a", "b")]
        store.release_all(5)
        assert all(not store.get(k).holders for k in keys)

    def test_acquire_evicted_refuses(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        store.release(key, 0)
        store.evict_cold()
        with pytest.raises(KvCacheError, match="restore"):
            store.acquire(key, 1)


class TestEviction:
    def test_evicts_only_unreferenced_blocks(self, store):
        held = _add(store, "held", holder=1)
        store.offload(held, 0)
        free = _add(store, "free", holder=2)
        store.offload(free, 0)
        store.release(free, 2)
        evicted = store.evict_cold(n=5)
        assert evicted == [free]
        assert store.get(held).state is BlockState.POOLED
        assert store.get(free).state is BlockState.EVICTED
        assert store.get(free).loc is None

    def test_evicts_coldest_first(self, store):
        cold = _add(store, "cold")
        store.offload(cold, 0)
        hot = _add(store, "hot")
        store.offload(hot, 0)
        store.release_all(0)
        store.heat.end_epoch()
        for _ in range(4):
            store.read_pooled(hot, 0)
        store.heat.end_epoch()
        assert store.evict_cold(n=1) == [cold]

    def test_restore_verifies_the_retained_digest(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        store.release(key, 0)
        store.evict_cold()
        with pytest.raises(KvCacheError, match="digest"):
            store.restore(key, b"\1" * BLOCK, producer=3)
        block = store.restore(key, block_payload(key, BLOCK), producer=3)
        assert block.state is BlockState.LOCAL
        assert block.producer == 3

    def test_pool_exhaustion_is_typed(self, store):
        for i in range(8):      # 2 hosts x 4 slots
            store.offload(_add(store, f"b{i}", holder=9), i % 2)
        with pytest.raises(KvCacheError, match="exhausted"):
            store.offload(_add(store, "overflow"), 0)


class TestWorkerAndHostLoss:
    def test_worker_death_loses_local_keeps_pooled(self, store):
        pooled = _add(store, "pooled", producer=4)
        store.offload(pooled, 0)
        local = _add(store, "local", producer=4)
        lost = store.drop_local_of_worker(4)
        assert lost == [local]
        assert store.get(local) is None
        assert store.get(pooled).state is BlockState.POOLED
        assert store.counters["lost_local"] == 1
        store.check_conservation()

    def test_host_detach_evicts_that_hosts_blocks(self, store):
        on0 = _add(store, "on0")
        store.offload(on0, 0)
        on1 = _add(store, "on1")
        store.offload(on1, 1)
        dead = store.invalidate_host(0)
        assert dead == [on0]
        assert store.get(on0).state is BlockState.EVICTED
        assert store.get(on1).state is BlockState.POOLED
        store.check_conservation()

    def test_reads_from_dead_host_raise(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        loc = store.get(key).loc
        store.pool.mark_host_dead(0)
        with pytest.raises(HostDetachedError):
            store.pool.read(loc, 0)


class TestConservation:
    def test_audit_passes_through_the_lifecycle(self, store):
        key = _add(store, "a")
        store.check_conservation()
        store.offload(key, 0)
        doc = store.check_conservation()
        assert doc["states"]["pooled"] == 1
        assert doc["counters"]["created"] == 1

    def test_audit_catches_payload_residency_violations(self, store):
        key = _add(store, "a")
        store.offload(key, 0)
        store.get(key).payload = b"ghost"
        with pytest.raises(KvCacheError, match="conservation"):
            store.check_conservation()

    def test_audit_catches_counter_imbalance(self, store):
        _add(store, "a")
        store.counters["created"] = 5
        with pytest.raises(KvCacheError, match="conservation"):
            store.check_conservation()
