"""Partition bookkeeping of the fabric's LinkConditioner."""

from repro.network import LinkConditioner


def test_separate_partitions_are_separate_islands():
    conditioner = LinkConditioner()
    conditioner.partition(["a"])
    conditioner.partition(["b"])
    assert conditioner.is_blocked("a", "b")
    assert conditioner.is_blocked("a", "c") and conditioner.is_blocked("c", "b")
    conditioner.heal(["a"])
    assert not conditioner.is_blocked("a", "c")
    assert conditioner.is_blocked("a", "b")


def test_one_partition_keeps_its_nodes_together():
    conditioner = LinkConditioner()
    conditioner.partition(["a", "b"])
    assert not conditioner.is_blocked("a", "b")
    assert conditioner.is_blocked("a", "c")
    conditioner.partition(["a"])  # nested: now a is cut off from b too
    assert conditioner.is_blocked("a", "b")
    conditioner.heal(["a"])
    assert not conditioner.is_blocked("a", "b")


def test_overlapping_partitions_of_one_node_heal_one_at_a_time():
    conditioner = LinkConditioner()
    conditioner.partition(["a"])
    conditioner.partition(["a"])
    conditioner.heal(["a"])
    assert conditioner.is_blocked("a", "b")
    assert not conditioner.pristine
    conditioner.heal(["a"])
    assert not conditioner.is_blocked("a", "b")
    assert conditioner.pristine


def test_heal_of_no_active_partition_is_a_no_op_and_heal_all_clears():
    conditioner = LinkConditioner()
    conditioner.heal(["a"])
    assert conditioner.pristine
    conditioner.partition(["a", "b"])
    conditioner.heal(["a"])  # not a partition that was made
    assert conditioner.is_blocked("a", "c")
    conditioner.partition(["c"])
    conditioner.heal()
    assert conditioner.pristine
    assert not conditioner.is_blocked("a", "c")
