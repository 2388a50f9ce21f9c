import pytest

from homearbiter.model import AttributeValue, ConflictSituation, normalize_location

from conftest import interval, make_request


def test_normalize_location():
    assert normalize_location("  Living Room ") == "living room"
    assert normalize_location("KITCHEN") == "kitchen"


def test_attribute_value_kinds_and_labels():
    cat = AttributeValue.categorical("Ch3")
    num = AttributeValue.numeric(21.5)
    binned = AttributeValue.binned(2, (18.0, 22.0))
    assert cat.item_label() == "Ch3"
    assert num.item_label() == "21.5"
    assert binned.item_label() == "bin2"
    assert len({cat.item_label(), num.item_label(), binned.item_label()}) == 3
    assert AttributeValue.categorical("Ch3").item_label() == cat.item_label()


def test_negative_zero_is_item_zero():
    assert AttributeValue.numeric(-0.0).item_label() == "0"
    assert AttributeValue.item_label_of_json({"kind": "num", "value": -0.0}) == "0"


def test_attribute_value_json_roundtrip():
    for value in (
        AttributeValue.categorical("Ch3"),
        AttributeValue.numeric(19.0),
        AttributeValue.binned(0, (1.0, 5.0)),
    ):
        assert AttributeValue.from_json(value.to_json()) == value


def test_attribute_value_validation():
    with pytest.raises(ValueError):
        AttributeValue.categorical("")
    with pytest.raises(ValueError):
        AttributeValue(kind="weird")


def test_situation_requires_two_requests():
    with pytest.raises(ValueError):
        ConflictSituation(
            service_id="TV",
            location="living room",
            attribute="channel",
            window=interval("20:00:00", "20:30:00"),
            requests=(make_request("r1", "Ch3"),),
        )


def test_situation_requires_distinct_residents():
    with pytest.raises(ValueError):
        ConflictSituation(
            service_id="TV",
            location="living room",
            attribute="channel",
            window=interval("20:00:00", "20:30:00"),
            requests=(make_request("r1", "Ch3"), make_request("r1", "Ch2")),
        )


def test_situation_requires_distinct_values():
    with pytest.raises(ValueError):
        ConflictSituation(
            service_id="TV",
            location="living room",
            attribute="channel",
            window=interval("20:00:00", "20:30:00"),
            requests=(make_request("r1", "Ch3"), make_request("r2", "Ch3")),
        )


def test_situation_requires_window_coverage():
    with pytest.raises(ValueError):
        ConflictSituation(
            service_id="TV",
            location="living room",
            attribute="channel",
            window=interval("20:00:00", "21:00:00"),
            requests=(make_request("r1", "Ch3"), make_request("r2", "Ch2")),
        )


def test_situation_orders_requests_canonically():
    situation = ConflictSituation(
        service_id="TV",
        location="Living Room",
        attribute="channel",
        window=interval("20:00:00", "20:30:00"),
        requests=(make_request("r2", "Ch2"), make_request("r1", "Ch3")),
    )
    assert situation.residents == ("r1", "r2")
    assert situation.location == "living room"
    assert situation.requests[1].value.item_label() == "Ch2"
