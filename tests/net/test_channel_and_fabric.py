"""Unit tests for FIFO channels and the fabric's accounting."""

import pytest

from repro.net.channel import Channel
from repro.net.fabric import Fabric
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import Message, MessageKind
from repro.net.topology import Topology
from repro.sim.engine import Simulator


def make_message(message_id=0, kind=MessageKind.PUT_DATA, payload_bytes=8):
    return Message(
        message_id=message_id, kind=kind, source=0, destination=1,
        payload_bytes=payload_bytes,
    )


class TestChannel:
    def test_delivery_time_follows_latency_model(self):
        sim = Simulator()
        channel = Channel(sim, 0, 1, ConstantLatency(base=2.0), hops=3)
        event, stamped = channel.transmit(make_message())
        assert stamped.deliver_time == 6.0
        sim.run()
        assert event.processed and sim.now == 6.0

    def test_fifo_order_is_preserved_despite_jitter(self):
        sim = Simulator()
        # A wildly jittering model: later messages may draw shorter latencies.
        channel = Channel(sim, 0, 1, UniformLatency(sim.rng, low=0.1, high=10.0))
        deliveries = []
        for index in range(30):
            _event, stamped = channel.transmit(make_message(message_id=index))
            deliveries.append(stamped.deliver_time)
        assert deliveries == sorted(deliveries)

    def test_bandwidth_serializes_back_to_back_messages(self):
        sim = Simulator()
        channel = Channel(
            sim, 0, 1, ConstantLatency(base=1.0), bandwidth_bytes_per_time=10.0
        )
        _e1, first = channel.transmit(make_message(payload_bytes=68))   # 100 B -> 10 time units
        _e2, second = channel.transmit(make_message(payload_bytes=68))
        assert second.deliver_time > first.deliver_time
        assert second.deliver_time >= 20.0

    def test_stats_accumulate(self):
        sim = Simulator()
        channel = Channel(sim, 0, 1, ConstantLatency(base=1.0))
        channel.transmit(make_message())
        channel.transmit(make_message())
        assert channel.stats.messages == 2
        assert channel.stats.bytes == 2 * make_message().total_bytes
        assert channel.stats.mean_latency == 1.0

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Channel(Simulator(), 0, 1, ConstantLatency(), bandwidth_bytes_per_time=0)


class TestFabric:
    def make_fabric(self, world_size=3, topology=None):
        sim = Simulator()
        topology = topology or Topology.complete(world_size)
        return sim, Fabric(sim, topology, ConstantLatency(base=1.0))

    def test_send_assigns_ids_and_routes(self):
        sim, fabric = self.make_fabric()
        event, message = fabric.send(MessageKind.PUT_DATA, 0, 2, payload="v")
        assert message.message_id == 0
        _event2, message2 = fabric.send(MessageKind.GET_REQUEST, 1, 2)
        assert message2.message_id == 1
        sim.run()
        assert event.processed

    def test_stats_split_by_category(self):
        sim, fabric = self.make_fabric()
        fabric.send(MessageKind.PUT_DATA, 0, 1)
        fabric.send(MessageKind.GET_REQUEST, 0, 1)
        fabric.send(MessageKind.GET_REPLY, 1, 0)
        fabric.send(MessageKind.LOCK_REQUEST, 0, 1)
        fabric.send(MessageKind.CLOCK_FETCH, 0, 1)
        fabric.send(MessageKind.NOTIFY, 0, 1)
        stats = fabric.stats
        assert stats.data_messages == 3
        assert stats.lock_messages == 1
        assert stats.detection_messages == 1
        assert stats.other_messages == 1
        assert stats.total_messages == 6
        assert stats.total_bytes > 0
        as_dict = stats.as_dict()
        assert as_dict["total_messages"] == 6

    def test_message_count_by_kind(self):
        _sim, fabric = self.make_fabric()
        fabric.send(MessageKind.PUT_DATA, 0, 1)
        fabric.send(MessageKind.PUT_DATA, 0, 2)
        assert fabric.message_count(MessageKind.PUT_DATA) == 2
        assert fabric.message_count(MessageKind.GET_REPLY) == 0
        assert fabric.message_count() == 2

    def test_hop_count_scales_latency_on_ring(self):
        sim = Simulator()
        fabric = Fabric(sim, Topology.ring(6), ConstantLatency(base=1.0))
        _event, far = fabric.send(MessageKind.PUT_DATA, 0, 3)
        assert far.deliver_time == 3.0
        _event, near = fabric.send(MessageKind.PUT_DATA, 0, 1)
        assert near.deliver_time == 1.0

    def test_channels_are_cached_per_pair(self):
        _sim, fabric = self.make_fabric()
        first = fabric.channel(0, 1)
        assert fabric.channel(0, 1) is first
        assert fabric.channel(1, 0) is not first
        assert len(fabric.channels()) == 2

    def test_self_messages_deliver_immediately(self):
        sim, fabric = self.make_fabric()
        _event, message = fabric.send(MessageKind.NOTIFY, 1, 1)
        assert message.deliver_time == 0.0

    def test_reset_stats(self):
        _sim, fabric = self.make_fabric()
        fabric.send(MessageKind.PUT_DATA, 0, 1)
        fabric.reset_stats()
        assert fabric.stats.total_messages == 0
        assert fabric.message_count(MessageKind.PUT_DATA) == 0

    def test_invalid_rank_rejected(self):
        _sim, fabric = self.make_fabric(world_size=2)
        with pytest.raises(ValueError):
            fabric.send(MessageKind.PUT_DATA, 0, 5)


class _NaNLatency(ConstantLatency):
    def latency(self, message, hops=1):
        return float("nan")


class TestNaNLatency:
    def test_transmit_rejects_a_nan_flight_time(self):
        sim = Simulator()
        channel = Channel(sim, 0, 1, _NaNLatency())
        with pytest.raises(ValueError, match="latency must be non-negative, got nan"):
            channel.transmit(make_message())
        assert channel.stats.messages == 0
        assert sim.peek() == float("inf")
