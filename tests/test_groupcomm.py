"""Group communication tests, parameterized over both links.

There is one group protocol (:mod:`repro.groupcomm.node`); every contract
test runs it twice: once over the memory link (:class:`GroupTransport`, a
network of nodes in this process) and once over the TCP link
(:class:`SocketGroupTransport`, one node per member on the loopback).  The
two must be observably interchangeable — same membership semantics, same
total order, same failure surface — because
:class:`repro.distrib.DistributedVirtualDatabase` runs over either.
"""

import copy
import random
import sys
import threading
import time

import pytest

from repro.errors import GroupCommunicationError
from repro.groupcomm import GroupChannel, GroupTransport, SocketGroupTransport


def address_order(address):
    host, _, port = address.rpartition(":")
    return (host, int(port))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class InProcessMedium:
    """The shared single-process transport: one object serves every member."""

    kind = "inproc"

    def __init__(self):
        self.transport = GroupTransport()

    def transport_for(self, name):
        return self.transport

    def node_for(self, name):
        return self.transport.node(name)

    def fail_member(self, name):
        self.transport.fail_member(name)

    def partition(self, sender, receiver):
        self.transport.partition(sender, receiver)

    def heal_partition(self, sender, receiver):
        self.transport.heal_partition(sender, receiver)

    def close(self):
        pass


class SocketMedium:
    """One TCP group node per member, discovering each other over the loopback."""

    kind = "socket"

    def __init__(self):
        self.nodes = []
        self.by_name = {}

    def transport_for(self, name):
        peers = [node.address for node in self.nodes if node.is_running]
        node = SocketGroupTransport(
            peers=peers,
            heartbeat_interval=0.05,
            heartbeat_threshold=3,
            rpc_timeout=5.0,
            name=name,
        )
        node.start()
        self.nodes.append(node)
        self.by_name[name] = node
        return node

    def node_for(self, name):
        return self.by_name[name]

    def fail_member(self, name):
        self.by_name[name].kill()

    def partition(self, sender, receiver):
        # delivery filtering happens on the receiving node
        self.by_name[receiver].partition(sender, receiver)

    def heal_partition(self, sender, receiver):
        self.by_name[receiver].heal_partition(sender, receiver)

    def close(self):
        for node in self.nodes:
            node.stop()


@pytest.fixture(params=["inproc", "socket"])
def medium(request):
    medium = InProcessMedium() if request.param == "inproc" else SocketMedium()
    yield medium
    medium.close()


def make_member(medium, name, group="g"):
    channel = GroupChannel(medium.transport_for(name), name)
    received = []
    channel.set_message_handler(received.append)
    views = []
    channel.set_view_handler(views.append)
    channel.connect(group)
    return channel, received, views


class TestMembership:
    def test_join_and_members(self, medium):
        a, _, _ = make_member(medium, "a")
        b, _, _ = make_member(medium, "b")
        assert a.members() == ["a", "b"]
        assert b.members() == ["a", "b"]

    def test_duplicate_join_rejected(self, medium):
        make_member(medium, "a")
        with pytest.raises(GroupCommunicationError):
            make_member(medium, "a")

    def test_leave_triggers_view_change(self, medium):
        a, _, views_a = make_member(medium, "a")
        b, _, _ = make_member(medium, "b")
        b.disconnect()
        assert wait_until(lambda: a.members() == ["a"])
        assert views_a[-1].left == ["b"]

    def test_fail_member_is_detected_and_evicted(self, medium):
        a, _, views_a = make_member(medium, "a")
        make_member(medium, "b")
        medium.fail_member("b")
        # sockets detect the silence through missed heartbeats, so poll
        assert wait_until(lambda: a.members() == ["a"])
        assert views_a[-1].left == ["b"]

    def test_double_connect_rejected(self, medium):
        a, _, _ = make_member(medium, "a")
        with pytest.raises(GroupCommunicationError):
            a.connect("another")


class TestTotalOrder:
    def test_all_members_receive_in_same_order(self, medium):
        a, received_a, _ = make_member(medium, "a")
        b, received_b, _ = make_member(medium, "b")
        c, received_c, _ = make_member(medium, "c")
        a.multicast("m1")
        b.multicast("m2")
        c.multicast("m3")
        payloads_a = [m.payload for m in received_a]
        assert payloads_a == [m.payload for m in received_b] == [m.payload for m in received_c]
        sequences = [m.sequence for m in received_a]
        assert sequences == sorted(sequences)

    def test_sender_receives_its_own_message(self, medium):
        a, received_a, _ = make_member(medium, "a")
        a.multicast("hello")
        assert [m.payload for m in received_a] == ["hello"]

    def test_concurrent_multicasts_are_totally_ordered(self, medium):
        members = [make_member(medium, f"m{i}") for i in range(3)]

        def sender(channel, prefix):
            for i in range(20):
                channel.multicast(f"{prefix}-{i}")

        threads = [
            threading.Thread(target=sender, args=(channel, channel.member_name))
            for channel, _, _ in members
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        orders = [[m.payload for m in received] for _, received, _ in members]
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 60

    def test_multicast_requires_membership(self, medium):
        channel = GroupChannel(medium.transport_for("loner"), "loner")
        with pytest.raises(GroupCommunicationError):
            channel.multicast("nope")

    def test_point_to_point_send(self, medium):
        a, received_a, _ = make_member(medium, "a")
        b, received_b, _ = make_member(medium, "b")
        a.send_to("b", {"kind": "state-transfer"})
        assert wait_until(lambda: received_b and received_b[-1].payload == {"kind": "state-transfer"})
        assert received_a == []

    def test_partition_drops_messages(self, medium):
        a, _, _ = make_member(medium, "a")
        b, received_b, _ = make_member(medium, "b")
        medium.partition("a", "b")
        a.multicast("lost-for-b")
        assert received_b == []
        medium.heal_partition("a", "b")
        a.multicast("seen-by-b")
        assert [m.payload for m in received_b] == ["seen-by-b"]

    def test_transport_statistics(self, medium):
        a, _, _ = make_member(medium, "a")
        make_member(medium, "b")
        a.multicast("x")
        if medium.kind == "inproc":
            assert medium.transport.messages_sent == 1
            assert medium.transport.messages_delivered == 2  # both members
        else:
            assert medium.by_name["a"].messages_sent == 1
            assert wait_until(
                lambda: medium.by_name["a"].messages_delivered
                + medium.by_name["b"].messages_delivered
                == 2
            )

    def test_counters_are_exact_under_concurrent_senders(self, medium):
        # the node's counters are bumped from sender, server and monitor
        # threads; a lost update would make the load benchmark's exact
        # group.messages_per_write drift
        names = ("a", "b", "c")
        channels = {name: make_member(medium, name)[0] for name in names}
        nodes = [medium.node_for(name) for name in names]

        def sender(index):
            for i in range(50):
                channels["a"].multicast(f"{index}-{i}")

        threads = [threading.Thread(target=sender, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert medium.node_for("a").messages_sent == 200
        assert sum(node.messages_sent for node in nodes) == 200
        assert wait_until(
            lambda: sum(node.messages_delivered for node in nodes) == 200 * len(names)
        )
        for node in nodes:
            assert node.delivered_by_sender == {"a": 200}

    def test_describe_reports_group_and_sequencer(self, medium):
        a, _, _ = make_member(medium, "a")
        make_member(medium, "b")
        a.multicast("x")
        status = a.transport.describe()
        assert status["transport"] == ("inproc" if medium.kind == "inproc" else "tcp")
        group = status["groups"]["g"]
        assert sorted(group["members"]) == ["a", "b"]
        assert group["sequence"] >= 1


class TestSeededTotalOrderProperty:
    """Seeded concurrent workloads must produce identical total orders.

    The property the distributed vdb stands on: whatever the interleaving,
    every member observes the same delivery sequence, each sender's own
    messages stay in send order (senders block until delivery), and the
    sequence numbers are strictly increasing.  Runs on both transports with
    several seeds.
    """

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_identical_total_order_across_members(self, medium, seed):
        members = [make_member(medium, f"m{i}") for i in range(3)]
        rng = random.Random(seed)
        plans = {
            channel.member_name: [
                f"{channel.member_name}:{i}:{rng.randrange(1 << 20)}" for i in range(12)
            ]
            for channel, _, _ in members
        }

        def sender(channel):
            for payload in plans[channel.member_name]:
                channel.multicast(payload)

        threads = [
            threading.Thread(target=sender, args=(channel,))
            for channel, _, _ in members
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        orders = [[m.payload for m in received] for _, received, _ in members]
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 36
        for channel, _, _ in members:
            name = channel.member_name
            own = [p for p in orders[0] if p.startswith(f"{name}:")]
            assert own == plans[name]
        sequences = [m.sequence for m in members[0][1]]
        assert all(b > a for a, b in zip(sequences, sequences[1:]))


class TestSocketFailureDetection:
    """Crash detection, re-election, continuity — and socket-only lifecycle."""

    def test_sequencer_crash_elects_successor_and_numbering_continues(self, medium):
        members = [make_member(medium, name) for name in ("a", "b", "c")]
        channels = {channel.member_name: channel for channel, _, _ in members}
        channels["a"].multicast("before-crash")
        last_sequence = members[0][1][-1].sequence

        sequencer_name = min(
            channels, key=lambda name: address_order(medium.node_for(name).address)
        )
        survivors = sorted(set(channels) - {sequencer_name})
        medium.fail_member(sequencer_name)
        survivor_channels = [channels[name] for name in survivors]

        def converged():
            return all(channel.members() == survivors for channel in survivor_channels)

        if medium.kind == "inproc":
            # the memory link has no heartbeat to wait for: the survivors ran
            # the suspicion path before fail_member returned
            assert converged()
        else:
            assert wait_until(converged, timeout=10.0)
        message = survivor_channels[0].multicast("after-crash")
        assert message.sequence > last_sequence
        for name in survivors:
            received = next(r for c, r, _ in members if c.member_name == name)
            assert received[-1].payload == "after-crash"

    def test_rpc_timeout_configured(self):
        node = SocketGroupTransport(rpc_timeout=1.5, name="t")
        assert node.rpc_timeout == 1.5

    def test_killed_node_refuses_further_use(self):
        medium = SocketMedium()
        try:
            make_member(medium, "a")
            medium.fail_member("a")
            node = medium.by_name["a"]
            assert not node.is_running
            with pytest.raises(GroupCommunicationError):
                node.start()
        finally:
            medium.close()


class TestPayloadCopies:
    def test_a_receiver_mutating_its_payload_leaves_the_others_unchanged(self, medium):
        from repro.distrib.distributed_vdb import _BackendAdvertisement

        _, received_a, _ = make_member(medium, "a")
        b, received_b, _ = make_member(medium, "b")
        advertisement = _BackendAdvertisement(
            "b", [{"name": "b0", "tables": ["t"], "faults": {"crashed": False}}]
        )
        sent = copy.deepcopy(advertisement)
        b.multicast(advertisement)
        assert wait_until(lambda: received_a and received_b)
        mine, theirs = received_a[-1].payload, received_b[-1].payload
        mine.backends[0]["tables"].append("u")
        mine.backends[0]["faults"]["crashed"] = True
        mine.backends.append({"name": "b1"})
        assert advertisement == sent  # the sender's own object
        assert theirs == sent  # the sender's delivery of its own multicast


class TestMemoryLink:
    """What the in-process network inherits by running the real protocol."""

    def test_registered_payload_crosses_the_wire_codec(self):
        from repro.distrib.distributed_vdb import _WriteCommand

        medium = InProcessMedium()
        _, received_a, _ = make_member(medium, "a")
        b, received_b, _ = make_member(medium, "b")
        command = _WriteCommand(
            kind="batch",
            sql="INSERT INTO t VALUES (?, ?)",
            parameters=(1, "x"),
            parameter_sets=((1, "a"), (2, "b")),
            login="u",
            origin="b",
        )
        b.multicast(command)
        for received in (received_a, received_b):
            delivered = received[-1].payload
            # equal but rebuilt: payload_to_wire/from_wire ran, nothing was
            # handed over by reference
            assert delivered == command
            assert delivered is not command
            assert isinstance(delivered.parameters, tuple)
            assert isinstance(delivered.parameter_sets, tuple)
            assert all(isinstance(row, tuple) for row in delivered.parameter_sets)
        assert received_a[-1].payload is not received_b[-1].payload

    def test_a_members_multicast_is_numbered_by_the_lowest_addressed_node(self):
        medium = InProcessMedium()
        a, received_a, _ = make_member(medium, "a")
        b, received_b, _ = make_member(medium, "b")
        first = b.multicast("via-member")
        second = a.multicast("via-sequencer")
        assert (first.sequence, second.sequence) == (1, 2)
        assert [m.payload for m in received_a] == [m.payload for m in received_b]
        status = medium.transport.describe()["groups"]["g"]
        assert status["sequencer"] == medium.node_for("a").address
        assert status["view_id"] == 2 and status["sequence"] == 2

    def test_failed_member_rejoins_through_a_fresh_node(self):
        medium = InProcessMedium()
        a, _, views_a = make_member(medium, "a")
        make_member(medium, "b")
        dead = medium.node_for("b")
        medium.fail_member("b")
        assert not dead.is_running
        b2, received_b2, _ = make_member(medium, "b")
        assert medium.node_for("b") is not dead
        assert a.members() == b2.members() == ["a", "b"]
        assert views_a[-1].joined == ["b"]
        a.multicast("welcome-back")
        assert [m.payload for m in received_b2] == ["welcome-back"]
